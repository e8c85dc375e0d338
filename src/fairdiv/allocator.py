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
argmin over them is exact and fast. Trace snapshots are these (n-1)*H int
rows too; public accessors and trace files expose Fractions.

:class:`PressureState` is the one pressure engine and holds only the
pressures. Policies see each item's values with their codes (see
:class:`fairdiv.core.ValueTables`); each agent's table maps a raw value's
code to its (effective value's code, type), and the policies differ only in
the rule that fills it.
Pressure-greedy rounds up to powers of two. The bi-value variant skips the
rounding: when an agent reveals a second distinct value, the two values are
merged into a single type when the smaller-to-larger ratio exceeds
(sqrt(3)-1)/2, and kept separate otherwise. If a third distinct value ever
appears the variant falls back to the rounded rule, clearing its tables and
rebuilding its pressures by replaying the history so far through that rule.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import attrgetter, getitem

from .core import (
    Allocation, FairdivError, Instance, ParseError, ValueTables, format_rational,
    is_positive_int, json_texts, parse_json, parse_jsonl, parse_rational,
)


_pow2 = functools.cache(lambda e: Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e))  # 2^e


def round_up_pow2(d: Fraction) -> Fraction:
    """Smallest integer power of two (exponent may be negative) that is >= d."""
    num, den = d.numerator, d.denominator
    if num <= 0:
        raise FairdivError(f"round_up_pow2: non-positive input {d}")
    # 2^(e-1) < d < 2^(e+1) for e the bit-length difference, so 2^e or 2^(e+1)
    e = num.bit_length() - den.bit_length()
    below = den << e < num if e >= 0 else den < num << -e  # 2^e < d
    return _pow2(e + 1 if below else e)


class PressureState:
    """Scaled pressures for the greedy rule: ``scaled[i][u-1]`` is the
    pressure H_i^u multiplied by (n-1), for types u numbered 1, 2, … in the
    order :meth:`add_type` opens them; the policy's tables say which values
    make up a type.
    """

    def __init__(self, n: int):
        if n < 2:
            raise FairdivError("PressureState requires n >= 2")
        self.n = n
        self.scaled: list[list[int]] = [[] for _ in range(n)]

    def add_type(self, agent: int) -> int:
        """Open a zero-pressure type slot for ``agent``; returns its index."""
        self.scaled[agent - 1].append(0)
        return len(self.scaled[agent - 1])

    def pressure(self, agent: int, u: int) -> Fraction:
        return Fraction(self.scaled[agent - 1][u - 1], self.n - 1)

    def snapshot(self) -> tuple[tuple[int, ...], ...]:
        """The scaled pressures (n-1)*H, one row per agent."""
        return tuple(map(tuple, self.scaled))

    def step(self, types: tuple[int, ...], agent: int | None = None) -> int:
        """Apply one item's update to ``agent``, or by default to the argmin
        pressure over the touched types (ties to the lowest index)."""
        n = self.n
        scaled = self.scaled
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
            scaled[i][types[i] - 1] -= 1
        scaled[winner][types[winner] - 1] += n
        return winner + 1


@dataclass(slots=True)
class TraceStep:
    """One allocated item. ``raw_codes`` and ``effective_codes`` index the
    trace's per-agent tables (:class:`RunTrace`); ``pressures`` is the
    post-step snapshot, the int rows (n-1)*H of :meth:`PressureState.snapshot`,
    or None without pressures. A slots class, cheap to build once per item;
    it is mutable and unhashable, but nothing mutates or hashes a step."""

    item: int
    raw_codes: tuple[int, ...]
    effective_codes: tuple[int, ...]  # of rounded values, or the bi-value rule's
    types: tuple[int, ...]
    agent: int
    pressures: tuple[tuple[int, ...], ...] | None = None

    def check_indices(self, n: int) -> None:
        """Raise unless the agent is in 1..n and there are n types, each >= 1."""
        if not 1 <= self.agent <= n or len(self.types) != n or min(self.types) < 1:
            raise FairdivError(f"item {self.item}: agent or type indices out of range for n={n}")


@dataclass
class RunTrace:
    """The steps of one run, with the tables their codes index:
    ``raw_values[i][c]`` is agent i+1's raw value of code c, and
    ``effective_values`` likewise; a policy that reports raw values as
    effective shares the raw tables."""

    n: int
    policy: str
    steps: list[TraceStep] = field(default_factory=list)
    raw_values: Sequence[Sequence[Fraction]] = ()
    effective_values: Sequence[Sequence[Fraction]] = ()

    @classmethod
    def begin(cls, policy: Policy, n: int, raw_values) -> RunTrace:
        """Start ``policy`` on n agents and an empty trace whose raw codes index ``raw_values``."""
        policy.start(n)
        return cls(n, policy.name, raw_values=raw_values, effective_values=policy.effective_values(raw_values))

    @property
    def m(self) -> int:
        return len(self.steps)

    def raw(self, step: TraceStep) -> tuple[Fraction, ...]:
        return tuple(map(getitem, self.raw_values, step.raw_codes))

    def effective(self, step: TraceStep) -> tuple[Fraction, ...]:
        return tuple(map(getitem, self.effective_values, step.effective_codes))

    def allocation(self) -> Allocation:
        return Allocation(tuple(s.agent for s in self.steps))

    def feed(self, policy: Policy, raw, codes) -> int:
        """Offer the next item, its raw vector and its codes into ``raw_values``,
        to ``policy``, check its choice, record the step."""
        agent = policy.choose(raw, codes)
        if not (1 <= agent <= self.n):
            raise FairdivError(f"policy chose invalid agent {agent}")
        steps = self.steps
        steps.append(TraceStep(len(steps) + 1, codes, policy.last_effective(codes), policy.last_types(),
                               agent, policy.pressure_snapshot()))
        return agent

    def max_type_count(self) -> int:
        return max(chain.from_iterable(map(attrgetter("types"), self.steps)), default=0)

    def to_jsonl(self) -> str:
        """One JSON line per step, as ``json.dumps`` with sorted keys writes it,
        by one ``%`` format. Each distinct value's text is made once per agent
        and table, the effective, raw and types text once per distinct
        (effective codes, raw codes, types), and each distinct pressure row's
        once; a scaled pressure h is written as h/(n-1)."""
        raw = list(map(json_texts, self.raw_values))
        effective = raw if self.effective_values is self.raw_values else list(map(json_texts, self.effective_values))
        cell = functools.cache(lambda h: '"' + format_rational(Fraction(h, self.n - 1)) + '"')
        number = functools.cache(str)
        texts: dict[tuple, tuple[str, str, str]] = {}
        rows: dict[tuple[int, ...], str] = {}
        lines = []
        for s in self.steps:
            key = s.effective_codes, s.raw_codes, s.types
            text = texts.get(key)
            if text is None:
                text = texts[key] = (",".join(map(getitem, effective, s.effective_codes)),
                                     ",".join(map(getitem, raw, s.raw_codes)), ",".join(map(number, s.types)))
            e, r, t = text
            if s.pressures is None:
                lines.append('{"agent":%s,"effective":[%s],"item":%s,"raw":[%s],"types":[%s]}' % (s.agent, e, s.item, r, t))
                continue
            row_texts = []
            for row in s.pressures:
                x = rows.get(row)
                if x is None:
                    x = rows[row] = ",".join(map(cell, row))
                row_texts.append(x)
            lines.append('{"agent":%s,"effective":[%s],"item":%s,"pressures":[[%s]],"raw":[%s],"types":[%s]}'
                         % (s.agent, e, s.item, "],[".join(row_texts), r, t))
        return "\n".join(lines) + ("\n" if lines else "")


_TRACE_KEYS = ("item", "raw", "effective", "types", "agent")


def _parse_trace_step(line, trace: RunTrace, raw: ValueTables, effective: ValueTables) -> TraceStep:
    """One trace record, which must be the next record of ``trace``; its values
    are coded in ``raw`` and ``effective``."""
    n, item = trace.n, trace.m + 1
    rec = parse_json(line, _TRACE_KEYS, "a trace record")
    if not is_positive_int(rec["agent"]) or rec["agent"] > n:
        raise ParseError(f"agent {rec['agent']!r} is not in 1..{n}")
    for key in ("raw", "effective", "types"):
        if not isinstance(rec[key], list) or len(rec[key]) != n:
            raise ParseError(f"{key} must be a list of {n} entries")
    if not all(is_positive_int(u) for u in rec["types"]):
        raise ParseError(f"types must be positive integers, got {rec['types']!r}")
    raw_codes = raw.parse(rec["raw"])
    effective_codes = effective.parse(rec["effective"])
    if not is_positive_int(rec["item"]) or rec["item"] != item:
        raise ParseError(f"item {rec['item']!r} is not the record's position {item}")
    pressures = None
    if "pressures" in rec:
        if n < 2:
            raise ParseError("pressures are not recorded for n=1")
        rows = rec["pressures"]
        if not isinstance(rows, list) or len(rows) != n or not all(isinstance(r, list) for r in rows):
            raise ParseError(f"pressures must be a list of {n} lists")
        scaled = [[parse_rational(h) * (n - 1) for h in row] for row in rows]
        if any(h.denominator != 1 for row in scaled for h in row):
            raise ParseError(f"pressures must be multiples of 1/{n - 1}")
        pressures = tuple(tuple(int(h) for h in row) for row in scaled)
    return TraceStep(item, raw_codes, effective_codes, tuple(rec["types"]), rec["agent"], pressures)


def trace_from_jsonl(text, n: int, policy: str = "external") -> RunTrace:
    """Parse a JSONL trace (``str`` or ``bytes``) of ``n`` agents with items
    numbered 1..m; a malformed line raises :class:`ParseError`. Each distinct
    value string is parsed once per agent, as :func:`load_instance` does."""
    raw, effective = ValueTables(n), ValueTables(n)
    trace = RunTrace(n=n, policy=policy, raw_values=raw.values, effective_values=effective.values)
    # parse_jsonl is lazy, so each record is parsed after its predecessors are appended
    for _, step in parse_jsonl(text, lambda line: _parse_trace_step(line, trace, raw, effective)):
        trace.steps.append(step)
    return trace


# Policies ----------------------------------------------------------------

class Policy:
    """A deterministic online allocation rule fed one item at a time.

    :meth:`choose` gets each item's raw vector and, from :func:`run_online`
    and the adversary games, its codes: per agent, the index of the value in
    a table of that agent's distinct values in first-appearance order
    (:class:`ValueTables`). A code says only which values are equal. Called
    without codes, a policy that needs them codes the values itself.
    """

    name = "abstract"

    def start(self, n: int) -> None:
        self.n = n
        self._ones = (1,) * n

    def choose(self, raw, codes=None) -> int:
        raise NotImplementedError

    # Effective values (as codes) and type indices recorded in traces; policies
    # without pressure accounting report the raw codes and type 1.
    def effective_values(self, raw_values):
        """Per agent, the table that the codes of :meth:`last_effective` index."""
        return raw_values

    def last_effective(self, codes) -> tuple[int, ...]:
        return codes

    def last_types(self) -> tuple[int, ...]:
        return self._ones

    def pressure_snapshot(self):
        return None

    def max_pressure_seen(self) -> Fraction | None:
        return None


class PressureGreedyPolicy(Policy):
    """Greedy over pressures, with values rounded up to powers of two.

    ``table[i][c]`` is the (effective code, type) of agent i+1's raw value of
    code c, filled once by the value-to-type rule :meth:`_value_type`;
    effective codes index ``effective.values[i]``, which only grows during a
    run. :class:`BiValuePolicy` swaps in its merge rule and keeps everything
    else.
    """

    name = "pressure-greedy"

    def start(self, n: int) -> None:
        super().start(n)
        self.effective = ValueTables(n)
        self._own_codes = ValueTables(n)  # for calls without codes
        self._new_tables()
        self._types: tuple[int, ...] = ()
        self._effective: tuple[int, ...] = ()
        self._max_scaled = 0

    def _new_tables(self) -> None:
        """Fresh pressures and empty value tables."""
        self.state = PressureState(self.n) if self.n >= 2 else None
        self.table: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        self._pow2_types: list[dict[int, int]] = [{} for _ in range(self.n)]  # effective code -> type

    def effective_values(self, raw_values):
        return self.effective.values

    def _value_type(self, agent: int, value: Fraction) -> tuple[int, int]:
        """(effective code, type) of a raw value new to ``agent``: one type
        per power of two."""
        eff = self.effective.code(agent - 1, round_up_pow2(value))
        if self.state is None:  # n == 1: no pressure accounting
            return eff, 1
        types = self._pow2_types[agent - 1]
        u = types.get(eff)
        if u is None:
            u = types[eff] = self.state.add_type(agent)
        return eff, u

    def _classify(self, raw, codes) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Effective codes and type indices of one item."""
        try:
            entries = tuple(map(getitem, self.table, codes))
        except IndexError:  # some agent's next new value: codes are dense
            for agent, (table, c, v) in enumerate(zip(self.table, codes, raw), 1):
                if c == len(table):
                    table.append(self._value_type(agent, v))
            entries = tuple(map(getitem, self.table, codes))
        effective, types = zip(*entries)
        return effective, types

    def choose(self, raw, codes=None) -> int:
        if codes is None:
            codes = self._own_codes.encode(raw)
        self._effective, self._types = self._classify(raw, codes)
        if self.state is None:
            return 1
        winner = self.state.step(self._types)
        touched = self.state.scaled[winner - 1][self._types[winner - 1] - 1]
        if touched > self._max_scaled:
            self._max_scaled = touched
        return winner

    def last_effective(self, codes):
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
    (sqrt(3)-1)/2, else given type 2; a merge rewrites the first value's
    table entry so that both report the larger of the pair. On a third
    distinct value the policy sets ``fell_back`` and switches to the rounded
    rule: it clears its tables, rebuilds its pressures by replaying the
    realized history through that rule, and continues from there.
    """

    name = "bi-value"

    def start(self, n: int) -> None:
        super().start(n)
        self.history: list[tuple[tuple, tuple[int, ...], int]] = []  # (raw, codes, agent)
        self.fell_back = False

    def _value_type(self, agent: int, value: Fraction) -> tuple[int, int]:
        if self.fell_back:
            return super()._value_type(agent, value)
        if self.state is None:  # n == 1: effective values stay raw
            return self.effective.code(agent - 1, value), 1
        table = self.table[agent - 1]
        if len(table) == 2:
            raise BiValuePromiseViolated(f"agent {agent}: third distinct value {value}")
        if table:  # before a merge, the first value is its own effective value
            first = self.effective.values[agent - 1][table[0][0]]
            if bi_value_merges(first, value):
                table[0] = merged = (self.effective.code(agent - 1, max(first, value)), 1)
                return merged
        return self.effective.code(agent - 1, value), self.state.add_type(agent)

    def choose(self, raw, codes=None) -> int:
        if codes is None:
            codes = self._own_codes.encode(raw)
        try:
            agent = super().choose(raw, codes)
        except BiValuePromiseViolated:
            self.fell_back = True
            self._new_tables()
            for past, past_codes, past_agent in self.history:
                self.state.step(self._classify(past, past_codes)[1], past_agent)
            self._max_scaled = max(self._max_scaled, *map(max, self.state.scaled))
            agent = super().choose(raw, codes)
        self.history.append((tuple(raw), codes, agent))
        return agent


class RoundRobinPolicy(Policy):
    name = "round-robin"

    def start(self, n: int) -> None:
        super().start(n)
        self.step_index = 0

    def choose(self, raw, codes=None) -> int:
        agent = self.step_index % self.n + 1
        self.step_index += 1
        return agent


class DumpToOnePolicy(Policy):
    name = "dump-to-one"

    def choose(self, raw, codes=None) -> int:
        return 1


class SeededMixturePolicy(Policy):
    """Deterministic pseudo-random choices from a seeded stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self.name = f"mixture-{seed}"

    def start(self, n: int) -> None:
        super().start(n)
        import random

        self.rng = random.Random(self.seed)

    def choose(self, raw, codes=None) -> int:
        return self.rng.randrange(self.n) + 1


class ExternalPolicy(Policy):
    """Adapter for a caller-supplied choice function of the raw vector stream."""

    name = "external"

    def __init__(self, fn):
        self.fn = fn

    def choose(self, raw, codes=None) -> int:
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


def run_online(inst: Instance, policy: Policy) -> tuple[Allocation, RunTrace]:
    """Feed the instance's items, with their codes, in arrival order through a policy."""
    trace = RunTrace.begin(policy, inst.n, inst.values)
    for raw, codes in zip(inst.items, inst.codes):
        trace.feed(policy, raw, codes)
    return trace.allocation(), trace


# Trace validation ---------------------------------------------------------

@dataclass(frozen=True)
class TraceCheck:
    closed_form: bool
    rounding_sandwich: bool
    pressure_bound: bool
    count_bound: bool
    max_scaled_pressure: int
    game_k: int

    @property
    def passed(self) -> bool:
        return (
            self.closed_form
            and self.rounding_sandwich
            and self.pressure_bound
            and self.count_bound
        )


def validate_pressure_trace(trace: RunTrace) -> TraceCheck:
    """Replay a rounded-greedy trace on :class:`PressureState` and check every
    stated invariant.

    Each step goes through ``PressureState.step(types, agent)``, after which
    the engine's rows must equal the closed form (n-1)*H_i^u =
    n*|A_i ^ M_i^u| - N_i^u, counted apart (n per receipt, -1 per sighting).
    Only the receiving counter rises while k only grows, so it alone is
    checked against the pressure bound H <= 2k, k the largest type index so
    far, and the receipt-count bound |A_i ^ M_i^u| <= ceil(N_i^u / n) - 1 + 2k,
    in integers n*|A_i ^ M_i^u| - N_i^u < 2kn. The rounding sandwich raw <=
    effective < 2*raw is checked once per distinct (agent, raw code,
    effective code), on numerators and denominators. A recorded snapshot
    must equal the engine's (n-1)*H rows, or the closed form fails. A step
    whose agent or type indices are out of range raises :class:`FairdivError`.
    """
    if trace.n < 2:
        raise FairdivError("validate_pressure_trace requires n >= 2")
    return _replay_pressure_trace(trace, PressureState(trace.n))[0]


def _replay_pressure_trace(trace: RunTrace, state: PressureState, off_pace=None) -> tuple[TraceCheck, list[list[int]]]:
    """The one replay of a trace on ``state`` behind :func:`validate_pressure_trace`:
    its :class:`TraceCheck` and the closed-form rows at the end.

    With ``off_pace``, each step finds ``low``, the least closed-form value
    among its touched counters once they are lowered by one, and, once its
    checks are made, calls ``off_pace(step, low, closed)`` if the engine's
    rows are not the closed-form rows ``closed`` or its receiving counter is
    not ``low + n``: with rows equal, when the agent did not hold the least
    pressure among the touched counters.
    """
    n, scaled = state.n, state.scaled
    closed: list[list[int]] = [[] for _ in range(n)]  # n*|A_i ^ M_i^u| - N_i^u
    agents = range(n)
    raw, eff = trace.raw_values, trace.effective_values
    values: set[tuple[int, int, int]] = set()  # (agent index, raw code, effective code)
    ok_closed = ok_pressure = ok_count = True
    max_scaled = game_k = opened = 0  # opened: the fewest types any agent has open
    for s in trace.steps:
        s.check_indices(n)
        values.update(zip(agents, s.raw_codes, s.effective_codes))
        types, a = s.types, s.agent - 1
        if max(types) > opened:
            for i, u in enumerate(types):
                while len(closed[i]) < u:
                    state.add_type(i + 1)
                    closed[i].append(0)
            game_k = max(game_k, *types)
            opened = min(map(len, closed))
            pressure_cap, count_cap = 2 * game_k * (n - 1), 2 * game_k * n
        state.step(types, s.agent)
        u = types[a] - 1
        if off_pace is None:  # without low: validate_pressure_trace keeps its pace
            for row, v in zip(closed, types):
                row[v - 1] -= 1
        else:
            low = closed[a][u]
            for row, v in zip(closed, types):
                x = row[v - 1] = row[v - 1] - 1
                if x < low:
                    low = x
        closed[a][u] += n
        h = scaled[a][u]
        diverged = scaled != closed
        if diverged:
            ok_closed = False
        if h > max_scaled:  # the earlier maximum met a cap no larger than this one
            max_scaled = h
            if h > pressure_cap:
                ok_pressure = False
        if closed[a][u] >= count_cap:  # r <= ceil(N/n) - 1 + 2k fails
            ok_count = False
        if s.pressures is not None and s.pressures != tuple(map(tuple, scaled)):  # state.snapshot(), inline
            ok_closed = False
        if off_pace is not None and (diverged or h != low + n):
            off_pace(s, low, closed)
    return TraceCheck(
        closed_form=ok_closed,
        rounding_sandwich=all(  # p/q <= r/s < 2p/q, times the positive denominators q and s
            p.numerator * e.denominator <= e.numerator * p.denominator < 2 * p.numerator * e.denominator
            for p, e in ((raw[i][r], eff[i][c]) for i, r, c in values)),
        pressure_bound=ok_pressure,
        count_bound=ok_count,
        max_scaled_pressure=max_scaled,
        game_k=max(game_k, 1),
    ), closed


__all__ = [
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
