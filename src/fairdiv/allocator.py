"""Online allocation policies behind a single streaming interface.

The central policy is greedy-over-pressure: each agent keeps one pressure
counter per distinct (power-of-two-rounded) disutility value it has seen; an
arriving item goes to the agent whose pressure for the item's type is lowest
(ties to the lowest agent index), after which the receiver's pressure rises
by 1 and every other agent's pressure for its own type of the item falls by
1/(n-1). Pressures measure deviation from the ideal pace of taking one item
per type out of every n.

Pressures are stored scaled by (n-1): every reachable pressure value is an
integer multiple of 1/(n-1), so the scaled values are plain ints and the
argmin over them is exact and fast. Public accessors expose Fractions.

:class:`PressureState` is the one pressure engine; the policies differ only
in how an agent's values map to types. Pressure-greedy rounds up to powers
of two. The bi-value variant skips the rounding: when an agent reveals a
second distinct value, the two values are merged into a single type when the
smaller-to-larger ratio exceeds (sqrt(3)-1)/2, and kept separate otherwise.
If a third distinct value ever appears the variant falls back to the rounded
rule, rebuilding its pressures by replaying the allocation history through
that rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Allocation, FairdivError, Instance, ParseError, ceil_div, format_rational, parse_rational

POLICY_NAMES = ("pressure-greedy", "bi-value", "round-robin", "dump-to-one")


def round_up_pow2(d: Fraction) -> Fraction:
    """Smallest integer power of two (exponent may be negative) that is >= d."""
    d = Fraction(d)
    if d <= 0:
        raise FairdivError(f"round_up_pow2: non-positive input {d}")
    # bit-length difference lands within a factor of two of the answer
    r = Fraction(2) ** (d.numerator.bit_length() - d.denominator.bit_length())
    while r < d:
        r *= 2
    while r / 2 >= d:
        r /= 2
    return r


class PressureState:
    """Per-agent type registries and scaled pressures for the greedy rule.

    ``registry[i]`` maps an agent's effective item value to its type index
    (1-based, in first-appearance order); ``scaled[i][u-1]`` is the pressure
    H_i^u multiplied by (n-1). Receipt and sighting counts per type back the
    closed-form identity (n-1)*H_i^u = n*receipts - sightings.
    """

    def __init__(self, n: int):
        if n < 2:
            raise FairdivError("PressureState requires n >= 2")
        self.n = n
        self.registry: list[dict[Fraction, int]] = [dict() for _ in range(n)]
        self.scaled: list[list[int]] = [[] for _ in range(n)]
        self.receipts: list[list[int]] = [[] for _ in range(n)]
        self.sightings: list[list[int]] = [[] for _ in range(n)]

    def add_type(self, agent: int) -> int:
        """Open a zero-pressure type slot for ``agent``; returns its index."""
        self.scaled[agent - 1].append(0)
        self.receipts[agent - 1].append(0)
        self.sightings[agent - 1].append(0)
        return len(self.scaled[agent - 1])

    def register(self, agent: int, value: Fraction) -> int:
        """Type index of ``value`` for ``agent``, adding a fresh type if new."""
        reg = self.registry[agent - 1]
        u = reg.get(value)
        if u is None:
            u = reg[value] = self.add_type(agent)
        return u

    def pressure(self, agent: int, u: int) -> Fraction:
        return Fraction(self.scaled[agent - 1][u - 1], self.n - 1)

    def snapshot(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            tuple(Fraction(s, self.n - 1) for s in row) for row in self.scaled
        )

    def step(self, types: tuple[int, ...], agent: int | None = None) -> int:
        """Apply one item's update to ``agent``, or by default to the argmin
        pressure over the touched types (ties to the lowest index)."""
        n = self.n
        scaled = self.scaled
        sightings = self.sightings
        if agent is None:
            winner = 0
            best = scaled[0][types[0] - 1]
            for i in range(1, n):
                s = scaled[i][types[i] - 1]
                if s < best:
                    best = s
                    winner = i
        else:
            winner = agent - 1
        for i in range(n):
            u = types[i] - 1
            sightings[i][u] += 1
            scaled[i][u] -= 1
        scaled[winner][types[winner] - 1] += n
        self.receipts[winner][types[winner] - 1] += 1
        return winner + 1


@dataclass(frozen=True)
class TraceStep:
    item: int
    raw: tuple[Fraction, ...]
    effective: tuple[Fraction, ...]  # rounded (or merged-representative) values
    types: tuple[int, ...]
    agent: int
    pressures: tuple[tuple[Fraction, ...], ...] | None = None


@dataclass
class RunTrace:
    n: int
    policy: str
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.steps)

    def allocation(self) -> Allocation:
        return Allocation(tuple(s.agent for s in self.steps))

    def feed(self, policy: Policy, raw, record_pressures: bool = True) -> int:
        """Offer the next item to ``policy``, check its choice, record the step."""
        agent = policy.choose(raw)
        if not (1 <= agent <= self.n):
            raise FairdivError(f"policy chose invalid agent {agent}")
        self.steps.append(
            TraceStep(
                item=len(self.steps) + 1,
                raw=tuple(raw),
                effective=policy.last_effective(raw),
                types=policy.last_types(),
                agent=agent,
                pressures=policy.pressure_snapshot() if record_pressures else None,
            )
        )
        return agent

    def max_type_count(self) -> int:
        k = 0
        for s in self.steps:
            k = max(k, max(s.types))
        return k

    def to_jsonl(self) -> str:
        lines = []
        for s in self.steps:
            rec = {
                "item": s.item,
                "raw": [format_rational(v) for v in s.raw],
                "effective": [format_rational(v) for v in s.effective],
                "types": list(s.types),
                "agent": s.agent,
            }
            if s.pressures is not None:
                rec["pressures"] = [[format_rational(h) for h in row] for row in s.pressures]
            lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")


_TRACE_KEYS = ("item", "raw", "effective", "types", "agent")


def _is_positive_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _parse_trace_step(line: str, n: int) -> TraceStep:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(rec, dict) or any(key not in rec for key in _TRACE_KEYS):
        raise ParseError("a trace record needs the keys " + ", ".join(_TRACE_KEYS))
    if not _is_positive_int(rec["agent"]) or rec["agent"] > n:
        raise ParseError(f"agent {rec['agent']!r} is not in 1..{n}")
    for key in ("raw", "effective", "types"):
        if not isinstance(rec[key], list) or len(rec[key]) != n:
            raise ParseError(f"{key} must be a list of {n} entries")
    if not all(_is_positive_int(u) for u in rec["types"]):
        raise ParseError(f"types must be positive integers, got {rec['types']!r}")
    pressures = None
    if "pressures" in rec:
        pressures = tuple(tuple(parse_rational(h) for h in row) for row in rec["pressures"])
    return TraceStep(
        item=rec["item"],
        raw=tuple(parse_rational(v) for v in rec["raw"]),
        effective=tuple(parse_rational(v) for v in rec["effective"]),
        types=tuple(rec["types"]),
        agent=rec["agent"],
        pressures=pressures,
    )


def trace_from_jsonl(text: str, n: int, policy: str = "external") -> RunTrace:
    """Parse a JSONL trace of ``n`` agents; a malformed line raises :class:`ParseError`."""
    trace = RunTrace(n=n, policy=policy)
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            trace.steps.append(_parse_trace_step(line, n))
        except (ParseError, TypeError, ValueError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return trace


# Policies ----------------------------------------------------------------

class Policy:
    """A deterministic online allocation rule fed one item at a time."""

    name = "abstract"

    def start(self, n: int) -> None:
        self.n = n

    def choose(self, raw) -> int:
        raise NotImplementedError

    # Effective values and type indices recorded in traces; policies without
    # pressure accounting report the raw values and type 1.
    def last_effective(self, raw) -> tuple[Fraction, ...]:
        return tuple(raw)

    def last_types(self) -> tuple[int, ...]:
        return tuple([1] * self.n)

    def pressure_snapshot(self):
        return None

    def max_pressure_seen(self) -> Fraction | None:
        return None


class PressureGreedyPolicy(Policy):
    """Greedy over pressures, with values rounded up to powers of two.

    The value-to-type rule is the ``_classify`` hook; :class:`BiValuePolicy`
    swaps in its merge rule and keeps everything else.
    """

    name = "pressure-greedy"

    def start(self, n: int) -> None:
        super().start(n)
        self.state = PressureState(n) if n >= 2 else None
        self._rounded_cache: dict[Fraction, Fraction] = {}
        self._types: tuple[int, ...] = ()
        self._effective: tuple[Fraction, ...] = ()
        self._last_raw: tuple[Fraction, ...] | None = None
        self._max_scaled = 0

    def _round(self, v: Fraction) -> Fraction:
        r = self._rounded_cache.get(v)
        if r is None:
            r = round_up_pow2(v)
            self._rounded_cache[v] = r
        return r

    def _classify(self, raw: tuple[Fraction, ...]) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
        """Effective values and type indices of one item (registering new types)."""
        effective = tuple(self._round(v) for v in raw)
        if self.state is None:  # n == 1: no pressure accounting
            return effective, (1,)
        return effective, tuple(
            self.state.register(i, effective[i - 1]) for i in range(1, self.n + 1)
        )

    def choose(self, raw) -> int:
        # Repeated raw vectors (the common case in long typed streams) skip
        # re-classification; types cannot change on a repeat.
        if raw != self._last_raw:
            raw = tuple(raw)
            self._effective, self._types = self._classify(raw)
            self._last_raw = raw
        if self.state is None:
            return 1
        winner = self.state.step(self._types)
        touched = self.state.scaled[winner - 1][self._types[winner - 1] - 1]
        if touched > self._max_scaled:
            self._max_scaled = touched
        return winner

    def last_effective(self, raw):
        return self._effective

    def last_types(self):
        return self._types

    def pressure_snapshot(self):
        return None if self.state is None else self.state.snapshot()

    def max_pressure_seen(self):
        if self.state is None:
            return None
        return Fraction(self._max_scaled, self.n - 1)


MERGE_THRESHOLD_SQUARED = Fraction(3)  # merge iff (2*lo/hi + 1)^2 > 3, i.e. lo/hi > (sqrt(3)-1)/2


def bi_value_merges(v1: Fraction, v2: Fraction) -> bool:
    """Whether two distinct values are close enough to share one type."""
    lo, hi = min(v1, v2), max(v1, v2)
    r = lo / hi
    return (2 * r + 1) ** 2 > MERGE_THRESHOLD_SQUARED


class BiValuePromiseViolated(FairdivError):
    """An agent revealed a third distinct disutility value."""


class BiValuePolicy(PressureGreedyPolicy):
    """Pressure-greedy with the bi-value type rule instead of rounding.

    No rounding is applied. When an agent's second distinct value arrives it
    is merged into type 1 if the smaller-to-larger ratio exceeds
    (sqrt(3)-1)/2, else registered as type 2; the merged type's reported
    value is the larger of the pair. On a third distinct value the policy
    sets ``fell_back`` and switches to the rounded rule: it rebuilds its
    pressure state by replaying the realized history through that rule, and
    continues from there.
    """

    name = "bi-value"

    def start(self, n: int) -> None:
        super().start(n)
        self.representative: list[dict[int, Fraction]] = [dict() for _ in range(n)]
        self.history: list[tuple[tuple[Fraction, ...], int]] = []
        self.fell_back = False

    def register_value(self, agent: int, value: Fraction) -> int:
        """Type index for one agent's raw value under the bi-value rule."""
        known = self.state.registry[agent - 1]
        u = known.get(value)
        if u is None:
            if len(known) == 2:
                raise BiValuePromiseViolated(f"agent {agent}: third distinct value {value}")
            reps = self.representative[agent - 1]
            if known and bi_value_merges(reps[1], value):  # reps[1] is the one known value
                u = 1
                reps[1] = max(reps[1], value)
            else:
                u = self.state.add_type(agent)
                reps[u] = value
            known[value] = u
        return u

    def _classify(self, raw):
        if self.fell_back:
            return super()._classify(raw)
        if self.state is None:  # n == 1: effective values stay raw
            return raw, (1,)
        types = tuple(self.register_value(i, raw[i - 1]) for i in range(1, self.n + 1))
        return tuple(self.representative[i][u] for i, u in enumerate(types)), types

    def choose(self, raw) -> int:
        try:
            agent = super().choose(raw)
        except BiValuePromiseViolated:
            self.fell_back = True
            self.state = PressureState(self.n)
            for past, past_agent in self.history:
                self.state.step(self._classify(past)[1], past_agent)
            self._max_scaled = max(self._max_scaled, *map(max, self.state.scaled))
            agent = super().choose(raw)
        self.history.append((tuple(raw), agent))
        return agent


class RoundRobinPolicy(Policy):
    name = "round-robin"

    def start(self, n: int) -> None:
        super().start(n)
        self.step_index = 0

    def choose(self, raw) -> int:
        agent = self.step_index % self.n + 1
        self.step_index += 1
        return agent


class DumpToOnePolicy(Policy):
    name = "dump-to-one"

    def __init__(self, target: int = 1):
        self.target = target

    def start(self, n: int) -> None:
        super().start(n)
        if self.target > n:
            raise FairdivError(f"dump-to-one target {self.target} exceeds n={n}")

    def choose(self, raw) -> int:
        return self.target


class SeededMixturePolicy(Policy):
    """Deterministic pseudo-random choices from a seeded stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self.name = f"mixture-{seed}"

    def start(self, n: int) -> None:
        super().start(n)
        import random

        self.rng = random.Random(self.seed)

    def choose(self, raw) -> int:
        return self.rng.randrange(self.n) + 1


class ExternalPolicy(Policy):
    """Adapter for a caller-supplied choice function of the raw vector stream."""

    name = "external"

    def __init__(self, fn):
        self.fn = fn

    def choose(self, raw) -> int:
        return self.fn(tuple(raw))


def make_policy(name: str) -> Policy:
    if name == "pressure-greedy":
        return PressureGreedyPolicy()
    if name == "bi-value":
        return BiValuePolicy()
    if name == "round-robin":
        return RoundRobinPolicy()
    if name == "dump-to-one":
        return DumpToOnePolicy()
    if name.startswith("mixture:"):
        try:
            return SeededMixturePolicy(int(name.split(":", 1)[1]))
        except ValueError:
            raise FairdivError(f"policy {name!r}: mixture seed must be an integer") from None
    raise FairdivError(f"unknown policy {name!r}")


def run_online(inst: Instance, policy: Policy, record_pressures: bool = True) -> tuple[Allocation, RunTrace]:
    """Feed the instance's items in arrival order through a policy."""
    policy.start(inst.n)
    trace = RunTrace(n=inst.n, policy=policy.name)
    for raw in inst.items:
        trace.feed(policy, raw, record_pressures)
    return trace.allocation(), trace


# Trace validation ---------------------------------------------------------

@dataclass(frozen=True)
class TraceCheck:
    closed_form: bool
    zero_sum: bool
    rounding_sandwich: bool
    pressure_bound: bool
    count_bound: bool
    max_scaled_pressure: int
    game_k: int

    @property
    def passed(self) -> bool:
        return (
            self.closed_form
            and self.zero_sum
            and self.rounding_sandwich
            and self.pressure_bound
            and self.count_bound
        )


def validate_pressure_trace(trace: RunTrace) -> TraceCheck:
    """Replay a rounded-greedy trace and check every stated invariant.

    Checks, per step: the closed form (n-1)*H_i^u = n*|A_i ^ M_i^u| - N_i^u;
    that each item's pressure deltas sum to zero; the rounding sandwich
    raw <= effective < 2*raw; the pressure bound H <= 2k with k the maximum
    registered type count so far; and the per-type receipt-count bound
    |A_i ^ M_i^u| <= ceil(N_i^u / n) - 1 + 2k.
    """
    n = trace.n
    if n < 2:
        raise FairdivError("validate_pressure_trace requires n >= 2")
    receipts: list[list[int]] = [[] for _ in range(n)]
    sightings: list[list[int]] = [[] for _ in range(n)]
    scaled: list[list[int]] = [[] for _ in range(n)]
    ok_closed = ok_zero = ok_round = ok_pressure = ok_count = True
    max_scaled = 0
    game_k = 0
    for s in trace.steps:
        for i in range(1, n + 1):
            raw, eff = s.raw[i - 1], s.effective[i - 1]
            if not (raw <= eff < 2 * raw):
                ok_round = False
            u = s.types[i - 1]
            while len(scaled[i - 1]) < u:
                scaled[i - 1].append(0)
                receipts[i - 1].append(0)
                sightings[i - 1].append(0)
        game_k = max(game_k, max(len(r) for r in scaled))
        delta = 0
        for i in range(1, n + 1):
            u = s.types[i - 1]
            sightings[i - 1][u - 1] += 1
            if i == s.agent:
                receipts[i - 1][u - 1] += 1
                scaled[i - 1][u - 1] += n - 1
                delta += n - 1
            else:
                scaled[i - 1][u - 1] -= 1
                delta -= 1
        if delta != 0:
            ok_zero = False
        for i in range(n):
            for u in range(len(scaled[i])):
                if scaled[i][u] != n * receipts[i][u] - sightings[i][u]:
                    ok_closed = False
                if scaled[i][u] > max_scaled:
                    max_scaled = scaled[i][u]
                if scaled[i][u] > 2 * game_k * (n - 1):
                    ok_pressure = False
                if receipts[i][u] > ceil_div(sightings[i][u], n) - 1 + 2 * game_k:
                    ok_count = False
        if s.pressures is not None:
            snap = tuple(
                tuple(Fraction(v, n - 1) for v in row) for row in scaled
            )
            if snap != s.pressures:
                ok_closed = False
    return TraceCheck(
        closed_form=ok_closed,
        zero_sum=ok_zero,
        rounding_sandwich=ok_round,
        pressure_bound=ok_pressure,
        count_bound=ok_count,
        max_scaled_pressure=max_scaled,
        game_k=max(game_k, 1),
    )


__all__ = [
    "POLICY_NAMES",
    "round_up_pow2",
    "PressureState",
    "TraceStep",
    "RunTrace",
    "trace_from_jsonl",
    "Policy",
    "PressureGreedyPolicy",
    "bi_value_merges",
    "BiValuePromiseViolated",
    "BiValuePolicy",
    "RoundRobinPolicy",
    "DumpToOnePolicy",
    "SeededMixturePolicy",
    "ExternalPolicy",
    "make_policy",
    "run_online",
    "TraceCheck",
    "validate_pressure_trace",
]
