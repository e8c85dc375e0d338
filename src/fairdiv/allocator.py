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
argmin over them is exact and fast. Trace rows are these (n-1)*H int rows
too, rebuilt when a trace is written; accessors and trace files expose Fractions.

:class:`PressureState` is the one pressure engine and holds only the
pressures. A policy is started on the run's raw value tables and then sees
each item only as its codes (see :class:`fairdiv.core.ValueTables`); each
agent's table maps a raw value's code to its (effective value's code,
type), and the policies differ only in the rule that fills it.
Pressure-greedy rounds up to powers of two; the bi-value variant merges
two close values into one type instead, and falls back to the rounded rule
on a third (see :class:`BiValuePolicy`).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from operator import getitem, gt

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


@dataclass
class RunTrace:
    """One run, kept as columns by item: item j+1 went to ``agents[j]``, with
    the codes ``raw[j]`` and ``effective[j]`` and the type indices
    ``types[j]``, each at most j+1; ``pressures`` maps an item number to its
    recorded rows (n-1)*H, which a replay cannot rebuild. Codes index the
    per-agent tables: ``raw_values[i][c]`` is agent i+1's raw value of code
    c, and ``effective_values`` likewise; a policy that reports raw values
    as effective shares the raw tables. A ``pressured`` trace, of a policy
    with a pressure engine, has rows on every item; others, where recorded.
    ``live`` is what :func:`run_online` checked on a pressure-greedy
    policy's own engine as it ran, for
    :func:`fairdiv.stacking.allocator_to_stacking` to take in place of a
    replay: the outcome of :func:`_pressure_checks`, the engine rows and the
    raw code columns. It holds for the columns as the run left them, and is
    None on any other trace, on a copy made by ``dataclasses.replace`` and
    once the trace is fed again."""

    n: int
    policy: str
    raw_values: Sequence[Sequence[Fraction]] = ()
    effective_values: Sequence[Sequence[Fraction]] = ()
    pressured: bool = False
    agents: list[int] = field(default_factory=list)
    raw: list[tuple[int, ...]] = field(default_factory=list)
    effective: list[tuple[int, ...]] = field(default_factory=list)
    types: list[tuple[int, ...]] = field(default_factory=list)
    pressures: dict[int, tuple[tuple[int, ...], ...]] = field(default_factory=dict)
    live: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def begin(cls, policy: Policy, n: int, raw_values) -> RunTrace:
        """Start ``policy`` on n agents and an empty trace whose raw codes index ``raw_values``."""
        policy.start(n, raw_values)
        policy.trace = cls(n, policy.name, raw_values=raw_values, effective_values=policy.effective_values(),
                           pressured=policy.state is not None)
        return policy.trace

    @property
    def m(self) -> int:
        return len(self.agents)

    def allocation(self) -> Allocation:
        return Allocation(tuple(self.agents))

    def feed(self, policy: Policy, rows, checks=None) -> int:
        """Offer the items ``rows``, each as its codes into ``raw_values``, to
        ``policy`` in order, check each choice and record it; returns the last
        agent. While :meth:`Policy.choose` runs, the columns hold the items
        before its item. ``checks`` (:func:`_pressure_checks`) is sent each
        item once the policy's engine has taken it, until it reports the
        run off pace."""
        n, agents, pressures, own = self.n, self.agents, self.pressures, self.effective_values is not self.raw_values
        choose, snapshot, ones = policy.choose, policy.pressure_snapshot, (1,) * n
        add_agent, add_raw, add_effective, add_types = agents.append, self.raw.append, self.effective.append, self.types.append
        self.live = None
        agent = 0
        for item, codes in enumerate(rows, len(agents) + 1):
            agent = choose(codes)
            if not 1 <= agent <= n:
                raise FairdivError(f"policy chose invalid agent {agent}")
            add_agent(agent)
            add_raw(codes)
            if own:
                effective, types = policy.effective_codes, policy.types
            else:
                effective, types = codes, ones
            add_effective(effective)
            add_types(types)
            recorded = snapshot()
            if recorded is not None:
                pressures[item] = recorded
            if checks is not None and not checks.send((types, agent, recorded)):
                checks = None
        return agent

    def pressure_rows(self):
        """Each item's rows (n-1)*H as a tuple of tuples: its recorded rows,
        else on a pressured trace those of one :class:`PressureState` replay
        restarted from recorded ones, else None. The writer's reference."""
        recorded = self.pressures
        if not self.pressured:
            yield from map(recorded.get, range(1, self.m + 1))
            return
        state = PressureState(self.n)
        for item, (types, agent) in enumerate(zip(self.types, self.agents), 1):
            if item in recorded:
                state.scaled[:] = map(list, recorded[item])
            else:
                _open_types(state.scaled, types)
                state.step(types, agent)
            yield state.snapshot()

    def to_jsonl(self) -> str:
        """One line per item, as ``json.dumps`` with sorted keys writes it. A
        line is 3n+2 parts, each ending in the text that follows it: the
        head, n effective texts, item and rows, n raw texts and n types, each
        field laid out one agent's column at a time, as in
        :func:`instance_to_json`. The rows of :meth:`pressure_rows` are counts
        in closed form; an item rewrites its n touched cells' text, row i's
        cell u being ``pieces[base[i] + 2*u]``."""
        n, pressured, recorded = self.n, self.pressured, self.pressures
        stride = 3 * n + 2
        parts = [""] * (stride * self.m)
        heads = ['{"agent":%d,"effective":[' % a for a in range(n + 1)]
        parts[::stride] = [heads[a] for a in self.agents]
        types = list(zip(*self.types))
        fields = (
            (1, map(json_texts, self.effective_values), '],"item":', zip(*self.effective)),
            (n + 2, map(json_texts, self.raw_values), '],"types":[', zip(*self.raw)),
            (2 * n + 2, (map(str, range(max(column) + 1)) for column in types), "]}\n", types),
        )
        for first, tables, end, columns in fields:
            for i, table, column in zip(range(n), tables, columns):
                texts = [t + ("," if i < n - 1 else end) for t in table]
                parts[first + i::stride] = [texts[c] for c in column]
        # a type opens only where an agent first shows it since the last recorded rows
        ends = sorted(recorded) + [self.m]
        may_open = set()
        for column in types if pressured else ():
            for lo, hi in zip([0] + ends, ends):
                may_open.update(column.index(u, lo, hi) for u in set(column[lo:hi]))
        cells = _PressureTexts(n)
        rows: list[list[int]] = [[] for _ in range(n)]
        for j, (t, agent) in enumerate(zip(self.types, self.agents)):
            written = recorded.get(j + 1)
            if written is None and not pressured:
                parts[j * stride + n + 1] = str(j + 1) + ',"raw":['
                continue
            if written is not None:
                rows = list(map(list, written))
            if written is not None or j in may_open and _open_types(rows, t):
                pieces, base = ["", ',"pressures":[['], []
                for row in rows:
                    if base:
                        pieces.append("],[")
                    base.append(len(pieces) - 2)
                    row_pieces = [","] * (2 * len(row) - 1)
                    row_pieces[::2] = map(cells.__getitem__, row)
                    pieces += row_pieces
                pieces.append(']],"raw":[')
            if written is None:
                a = agent - 1
                rows[a][t[a] - 1] += n
                for row, u, b in zip(rows, t, base):
                    h = row[u - 1] = row[u - 1] - 1
                    pieces[b + 2 * u] = cells[h]
            pieces[0] = str(j + 1)
            parts[j * stride + n + 1] = "".join(pieces)
        return "".join(parts)


def _open_types(rows: list[list[int]], types) -> bool:
    """Open zero slots until row i has types[i] of them; whether any opened."""
    grew = False
    for row, u in zip(rows, types):
        if len(row) < u:
            row += [0] * (u - len(row))
            grew = True
    return grew


class _PressureTexts(dict):
    """Scaled pressure h -> its JSON text, h/(n-1) quoted, made on first use."""

    def __init__(self, n: int):
        self.n = n

    def __missing__(self, h: int) -> str:
        text = self[h] = '"' + format_rational(Fraction(h, self.n - 1)) + '"'
        return text


_TRACE_KEYS = ("item", "raw", "effective", "types", "agent")


def _parse_trace_step(line, trace: RunTrace, raw: ValueTables, effective: ValueTables) -> None:
    """Append one trace record, which must be the next record of ``trace``; its
    values are coded in ``raw`` and ``effective``."""
    n, item = trace.n, trace.m + 1
    rec = parse_json(line, _TRACE_KEYS, "a trace record")
    if not is_positive_int(rec["agent"]) or rec["agent"] > n:
        raise ParseError(f"agent {rec['agent']!r} is not in 1..{n}")
    for key in ("raw", "effective", "types"):
        if not isinstance(rec[key], list) or len(rec[key]) != n:
            raise ParseError(f"{key} must be a list of {n} entries")
    if not all(is_positive_int(u) for u in rec["types"]):
        raise ParseError(f"types must be positive integers, got {rec['types']!r}")
    if max(rec["types"]) > item:  # an agent opens at most one type per item
        raise ParseError(f"type index {max(rec['types'])} exceeds the item number {item}")
    raw_codes = raw.parse(rec["raw"])
    effective_codes = effective.parse(rec["effective"])
    if not is_positive_int(rec["item"]) or rec["item"] != item:
        raise ParseError(f"item {rec['item']!r} is not the record's position {item}")
    if "pressures" in rec:
        if n < 2:
            raise ParseError("pressures are not recorded for n=1")
        rows = rec["pressures"]
        if not isinstance(rows, list) or len(rows) != n or not all(isinstance(r, list) for r in rows):
            raise ParseError(f"pressures must be a list of {n} lists")
        scaled = [[parse_rational(h) * (n - 1) for h in row] for row in rows]
        if any(h.denominator != 1 for row in scaled for h in row):
            raise ParseError(f"pressures must be multiples of 1/{n - 1}")
        trace.pressures[item] = tuple(tuple(int(h) for h in row) for row in scaled)
    trace.agents.append(rec["agent"])
    trace.raw.append(raw_codes)
    trace.effective.append(effective_codes)
    trace.types.append(tuple(rec["types"]))


def trace_from_jsonl(text, n: int, policy: str = "external") -> RunTrace:
    """Parse a JSONL trace (``str`` or ``bytes``) of ``n`` agents with items
    numbered 1..m; a malformed line raises :class:`ParseError`. Each distinct
    value string is parsed once per agent, as :func:`load_instance` does."""
    raw, effective = ValueTables(n), ValueTables(n)
    trace = RunTrace(n=n, policy=policy, raw_values=raw.values, effective_values=effective.values)
    # parse_jsonl is lazy, so each record is parsed after its predecessors are appended
    for _ in parse_jsonl(text, lambda line: _parse_trace_step(line, trace, raw, effective)):
        pass
    return trace


# Policies ----------------------------------------------------------------

class Policy:
    """A deterministic online allocation rule fed one item at a time.

    :meth:`start` binds the run's raw value tables: ``raw_values[i][c]`` is
    agent i+1's value of code c, in first-appearance order
    (:class:`ValueTables`), and the tables may grow as items arrive.
    :meth:`choose` gets each item as its codes, one per agent, whose values
    are already in the tables. A code says only which values are equal. A
    policy whose :meth:`effective_values` are tables of its own leaves each
    item's effective codes and type indices in ``effective_codes`` and
    ``types`` when :meth:`choose` returns; the others report the raw codes
    and type 1. ``trace`` is the :class:`RunTrace` the policy is fed into,
    which :meth:`RunTrace.begin` sets, or None.
    """

    name = "abstract"
    state: PressureState | None = None  # the pressure engine, if the policy keeps one
    trace: RunTrace | None = None

    def start(self, n: int, raw_values) -> None:
        self.n = n
        self.raw_values = raw_values

    def choose(self, codes) -> int:
        raise NotImplementedError

    def effective_values(self):
        """Per agent, the table that the effective codes index."""
        return self.raw_values

    def pressure_snapshot(self):
        """The rows (n-1)*H after the last item where a replay of the trace cannot rebuild them."""
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

    def start(self, n: int, raw_values) -> None:
        super().start(n, raw_values)
        self.effective = ValueTables(n)
        self._new_tables()
        self.effective_codes: tuple[int, ...] = ()
        self.types: tuple[int, ...] = ()
        self._max_scaled = 0

    def _new_tables(self) -> None:
        """Fresh pressures and empty value tables."""
        self.state = PressureState(self.n) if self.n >= 2 else None
        self.table: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        self._pow2_types: list[dict[int, int]] = [{} for _ in range(self.n)]  # effective code -> type

    def effective_values(self):
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

    def _classify(self, codes) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Effective codes and type indices of one item, whose new values the
        value rule classifies; a rule that starts the tables afresh has the
        item classified again in the new ones."""
        table = self.table
        for agent, (values, c) in enumerate(zip(self.raw_values, codes), 1):
            if c == len(table[agent - 1]):  # codes are dense: the agent's next new value
                entry = self._value_type(agent, values[c])
                if table is not self.table:
                    return self._classify(codes)
                table[agent - 1].append(entry)
        effective, types = zip(*map(getitem, table, codes))
        return effective, types

    def choose(self, codes) -> int:
        try:
            self.effective_codes, self.types = zip(*map(getitem, self.table, codes))
        except IndexError:  # a value new to some agent
            self.effective_codes, self.types = self._classify(codes)
        state = self.state
        if state is None:
            return 1
        types = self.types
        winner = state.step(types)
        touched = state.scaled[winner - 1][types[winner - 1] - 1]
        if touched > self._max_scaled:
            self._max_scaled = touched
        return winner

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


class BiValuePolicy(PressureGreedyPolicy):
    """Pressure-greedy with the bi-value type rule instead of rounding.

    No rounding is applied. When an agent's second distinct value arrives it
    is merged into type 1 if the smaller-to-larger ratio exceeds
    (sqrt(3)-1)/2, else given type 2; a merge rewrites the first value's
    table entry so that both report the larger of the pair. On a third
    distinct value the rule sets ``fell_back`` and switches to the rounded
    rule: it clears the tables, rebuilds the pressures by replaying the
    realized history, the codes and agents of its ``trace``, through that
    rule, and the item is classified again; that item's
    :meth:`pressure_snapshot` gives the rows, which the trace's types cannot
    rebuild. A policy driven by :meth:`choose` alone, with no ``trace``, has
    no history to replay and raises :class:`FairdivError` there.
    """

    name = "bi-value"

    def start(self, n: int, raw_values) -> None:
        super().start(n, raw_values)
        self.fell_back = False
        self._fallback_item = 0

    def _value_type(self, agent: int, value: Fraction) -> tuple[int, int] | None:
        if self.fell_back:
            return super()._value_type(agent, value)
        if self.state is None:  # n == 1: effective values stay raw
            return self.effective.code(agent - 1, value), 1
        table = self.table[agent - 1]
        if len(table) == 2:  # a third value
            trace = self.trace
            if trace is None:
                raise FairdivError(f"agent {agent}: a third distinct value, and no trace to replay for the fallback")
            self.fell_back = True
            self._new_tables()
            for codes, past_agent in zip(trace.raw, trace.agents):
                self.state.step(self._classify(codes)[1], past_agent)
            self._max_scaled = max(self._max_scaled, *map(max, self.state.scaled))
            self._fallback_item = trace.m + 1
            return None  # the new tables classify the item again
        if table:  # before a merge, the first value is its own effective value
            first = self.effective.values[agent - 1][table[0][0]]
            if bi_value_merges(first, value):
                table[0] = merged = (self.effective.code(agent - 1, max(first, value)), 1)
                return merged
        return self.effective.code(agent - 1, value), self.state.add_type(agent)

    def pressure_snapshot(self):
        return self.state.snapshot() if self.fell_back and self.trace.m == self._fallback_item else None


class RoundRobinPolicy(Policy):
    name = "round-robin"

    def start(self, n: int, raw_values) -> None:
        super().start(n, raw_values)
        self.step_index = 0

    def choose(self, codes) -> int:
        agent = self.step_index % self.n + 1
        self.step_index += 1
        return agent


class DumpToOnePolicy(Policy):
    name = "dump-to-one"

    def choose(self, codes) -> int:
        return 1


class SeededMixturePolicy(Policy):
    """Deterministic pseudo-random choices from a seeded stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self.name = f"mixture-{seed}"

    def start(self, n: int, raw_values) -> None:
        super().start(n, raw_values)
        import random

        self.rng = random.Random(self.seed)

    def choose(self, codes) -> int:
        return self.rng.randrange(self.n) + 1


class ExternalPolicy(Policy):
    """Adapter for a caller-supplied choice function of the raw vector stream."""

    name = "external"

    def __init__(self, fn):
        self.fn = fn

    def choose(self, codes) -> int:
        return self.fn(tuple(map(getitem, self.raw_values, codes)))


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
    """Feed the instance's items, as their codes, in arrival order through a
    policy. A pressure-greedy run on n >= 2 agents is checked on the
    policy's own engine as it goes, and a run that kept pace keeps the
    outcome in its trace's ``live``."""
    trace = RunTrace.begin(policy, inst.n, inst.values)
    state = policy.state
    if policy.name != "pressure-greedy" or state is None:
        trace.feed(policy, inst.codes)
    else:
        checks = _pressure_checks(state)
        next(checks)
        trace.feed(policy, inst.codes, checks)
        outcome = checks.send(None)
        if outcome is not None:
            trace.live = outcome, state.scaled, inst.columns
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

    Each item goes through ``PressureState.step(types, agent)``, after which
    the engine's rows must equal the closed form (n-1)*H_i^u =
    n*|A_i ^ M_i^u| - N_i^u, counted apart (n per receipt, -1 per sighting).
    Only the receiving counter rises while k only grows, so it alone is
    checked against the pressure bound H <= 2k, k the largest type index so
    far, and the receipt-count bound |A_i ^ M_i^u| <= ceil(N_i^u / n) - 1 + 2k,
    in integers n*|A_i ^ M_i^u| - N_i^u < 2kn. The rounding sandwich raw <=
    effective < 2*raw is checked once per distinct (agent, raw code,
    effective code), on numerators and denominators. A recorded snapshot
    must equal the engine's (n-1)*H rows, or the closed form fails. An item
    whose agent or type indices are out of range raises :class:`FairdivError`.
    """
    if trace.n < 2:
        raise FairdivError("validate_pressure_trace requires n >= 2")
    return _trace_check(trace, _replay(trace, PressureState(trace.n), lambda *off: None)[0])


def _replay(trace: RunTrace, state: PressureState, off_pace):
    """The outcome of :func:`_pressure_checks` on ``state``, a fresh engine,
    sent every item of ``trace``."""
    checks = _pressure_checks(state, off_pace)
    next(checks)
    send, recorded = checks.send, trace.pressures
    for item, (types, agent) in enumerate(zip(trace.types, trace.agents), 1):
        send((types, agent, recorded.get(item)))
    return send(None)


def _pressure_checks(state: PressureState, off_pace=None):
    """:func:`validate_pressure_trace`'s per-item checks on ``state``'s rows,
    as a generator: send each item's ``(types, agent, recorded rows or
    None)``, which returns whether the item kept pace, then None for the
    outcome, the flags ``(closed_form, pressure_bound, count_bound, max
    scaled pressure, k)`` and the closed-form rows.

    With ``off_pace`` the item steps ``state`` here, a replay; without,
    ``state`` is a run's own engine, which has taken it. A type opens on
    the item that first shows it for its agent. ``low`` is the
    least touched closed-form value once lowered; the item is off pace if
    the engine's rows are not the closed form or its receiving counter is
    not ``low + n`` (with rows equal, the agent did not hold the least
    pressure). A replay then calls ``off_pace(types, agent, low, closed)``
    and goes on, and raises :class:`FairdivError` on an item whose agent or
    type indices are out of range. A run's check reports either as off
    pace, is sent no more items, and has the outcome None, for a replay to
    decide.
    """
    n, scaled = state.n, state.scaled
    closed: list[list[int]] = [[] for _ in range(n)]  # n*|A_i ^ M_i^u| - N_i^u
    shared = frozenset()  # the type indices every agent has open
    ok_closed = ok_pressure = ok_count = on_pace = True
    max_scaled = game_k = pressure_cap = count_cap = item = 0
    sent = yield
    while sent is not None:
        types, agent, rows = sent
        item += 1
        if not shared.issuperset(types) or len(types) != n or not 1 <= agent <= n:
            if not 1 <= agent <= n or len(types) != n or min(types) < 1:
                if off_pace is not None:
                    raise FairdivError(f"item {item}: agent or type indices out of range for n={n}")
                on_pace = False
                sent = yield False
                continue
            if any(map(gt, types, map(len, closed))):  # a type opens
                _open_types(closed, types)
                if off_pace is not None:
                    _open_types(scaled, types)
                shared = frozenset(range(1, min(map(len, closed)) + 1))
                game_k = max(game_k, *types)
                pressure_cap, count_cap = 2 * game_k * (n - 1), 2 * game_k * n
        if off_pace is not None:
            state.step(types, agent)
        a = agent - 1
        own, u = closed[a], types[a] - 1
        low = own[u]
        for row, v in zip(closed, types):
            x = row[v - 1] = row[v - 1] - 1
            if x < low:
                low = x
        c = own[u] = own[u] + n
        diverged = scaled != closed
        if diverged:
            ok_closed = False
            if off_pace is None:  # a run's engine, perhaps narrower than the types it reports
                on_pace = False
                sent = yield False
                continue
        h = scaled[a][u]
        if h > max_scaled:  # the earlier maximum met a cap no larger than this one
            max_scaled = h
            if h > pressure_cap:
                ok_pressure = False
        if c >= count_cap:  # r <= ceil(N/n) - 1 + 2k fails
            ok_count = False
        if rows is not None and rows != tuple(map(tuple, scaled)):  # state.snapshot(), inline
            ok_closed = False
        if diverged or h != low + n:
            if off_pace is None:
                on_pace = False
            else:
                off_pace(types, agent, low, closed)
        sent = yield on_pace
    yield ((ok_closed, ok_pressure, ok_count, max_scaled, max(game_k, 1)), closed) if on_pace else None


def _trace_check(trace: RunTrace, flags, raw_columns=None) -> TraceCheck:
    """The :class:`TraceCheck` of :func:`_pressure_checks`'s ``flags`` on
    ``trace``, whose rounding sandwich p/q <= r/s < 2p/q, times q and s, is
    checked once per distinct (agent, raw code, effective code)."""
    closed_form, pressure_bound, count_bound, max_scaled, k = flags
    raw_columns = zip(*trace.raw) if raw_columns is None else raw_columns
    columns = zip(trace.raw_values, trace.effective_values, raw_columns, zip(*trace.effective))
    sandwich = all(
        p.numerator * e.denominator <= e.numerator * p.denominator < 2 * p.numerator * e.denominator
        for raw, eff, raw_codes, effective_codes in columns
        for p, e in ((raw[r], eff[c]) for r, c in set(zip(raw_codes, effective_codes))))
    return TraceCheck(closed_form, sandwich, pressure_bound, count_bound, max_scaled, k)


__all__ = [
    "round_up_pow2",
    "PressureState",
    "RunTrace",
    "trace_from_jsonl",
    "Policy",
    "PressureGreedyPolicy",
    "bi_value_merges",
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
