"""Adaptive adversaries that force any online policy toward ratio n.

Two constructions are implemented, both emitting each item's disutility
vector as a deterministic function of the allocation history, so games are
adaptive but reproducible.

Two-agent game (:class:`TwoAgentAdversary`): agent 1's value stays put after
a take and blows up by 1/eps1 after a skip, so two consecutive takes by
agent 1 certify a ratio near 2; agent 2's values grow geometrically until
her first take, then alternate between one large echo value and eps2-sized
crumbs, so every way the policy can behave ends in an explicit certificate
with ratio above 2 - eps.

Recursive game (:class:`RecursiveAdversary`): level L covers agents 1..L.
Levels 1..L-1 are a fresh sub-game that is restarted, with all its values
rescaled by d_i(seen so far)/eps', every time agent L takes an item
("clean-up": everything older becomes negligible). Agent L's own values grow
geometrically until her first take (of value V), after which the emitted
value is a_s, where s counts rounds since her last take and the a-sequence
grows so fast that everything she skips is negligible next to her next take;
the sequence is pinned so that a_{T+1} = V for the window length T. Once
agent L has absorbed disutility n*V, a greedy bin-packing partition
witnesses that her MMS is still about V, certifying a ratio near n. If
instead the policy starves agent L, the sub-game fires first and its
certificate lifts through the clean-up scaling.

Certificates are explicit witness partitions (or exact MMS values on small
prefixes); every reported ratio_lower is d_i(A_i) divided by a verified MMS
upper bound, hence sound regardless of any construction detail.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .allocator import Policy, RunTrace
from .core import Allocation, FairdivError, Instance, ValueTables, ceil_div, format_rational, is_positive_int
from .mms import (AgentMms, InstanceTooLarge, common_scale, exact_search_limit, lpt_deal, lpt_partition, lpt_schedule,
                  mms_exact, witness_max_bundle)


@dataclass(frozen=True)
class RatioCertificate:
    """A sound lower bound on the competitive ratio achieved by one agent.

    ``witness`` partitions the arrived items (1-based indices) and its max
    bundle disutility for ``agent`` equals ``mms_upper``, so
    ``ratio_lower = d_A / mms_upper`` is a certified lower bound on
    d_A / MMS. ``mms_source`` is "exact" when mms_upper is the exact MMS.
    """

    agent: int
    d_A: Fraction
    mms_upper: Fraction
    witness: tuple[tuple[int, ...], ...]
    mms_source: str
    ratio_lower: Fraction

    def to_obj(self) -> dict:
        return {
            "agent": self.agent,
            "d_A": format_rational(self.d_A),
            "mms_upper": format_rational(self.mms_upper),
            "witness": [list(bundle) for bundle in self.witness],
            "mms_source": self.mms_source,
            "ratio_lower": format_rational(self.ratio_lower),
        }


TRIVIAL_CERTIFICATE = RatioCertificate(
    agent=1,
    d_A=Fraction(0),
    mms_upper=Fraction(0),
    witness=(),
    mms_source="trivial",
    ratio_lower=Fraction(1),
)


def verify_certificate(inst: Instance, alloc: Allocation, cert: RatioCertificate) -> bool:
    """Recompute everything a full allocation's certificate claims, an "exact" source's MMS included."""
    if cert.mms_source == "trivial":
        return inst.m == alloc.m == 0
    if not is_positive_int(cert.agent) or cert.agent > inst.n or cert.mms_upper == 0:
        return False
    if alloc.m != inst.m or max(alloc.assignment, default=0) > inst.n:  # an item missing or extra, or one past agent n
        return False
    if witness_max_bundle(inst, cert.agent, cert.witness) != cert.mms_upper:
        return False
    if cert.mms_source == "exact":  # the library claims "exact" only within the search guard
        try:
            if mms_exact(inst.agent_values(cert.agent), inst.n)[0] != cert.mms_upper:
                return False
        except InstanceTooLarge:
            return False
    if alloc.bundle_disutility(inst, cert.agent) != cert.d_A:
        return False
    return cert.ratio_lower == cert.d_A / cert.mms_upper


def _build_certificate(agent, d_a, mms_upper, witness, source="witness") -> RatioCertificate:
    """The certificate d_A / mms_upper, with ``witness`` attaining mms_upper."""
    return RatioCertificate(
        agent=agent,
        d_A=d_a,
        mms_upper=mms_upper,
        witness=tuple(tuple(b) for b in witness),
        mms_source=source,
        ratio_lower=d_a / mms_upper,
    )


def greedy_bin_packing(values, positions, n: int, capacity: Fraction):
    """First-fit the given positions into n bins of the given capacity.

    Returns n lists of positions, or None if some item fits no bin.
    """
    bins: list[list[int]] = [[] for _ in range(n)]
    loads = [Fraction(0)] * n
    for p in positions:
        v = values[p]
        for b in range(n):
            if loads[b] + v <= capacity:
                bins[b].append(p)
                loads[b] += v
                break
        else:
            return None
    return bins


def _add_to_heaviest(values, bundles, items) -> tuple[Fraction, list[list[int]]]:
    """Add ``items`` to the first heaviest bundle: (its new load, the sorted bundles).

    Indices are 1-based into ``values``. With positive values the grown
    bundle is the heaviest, so its load is the partition's max bundle.
    """
    loads = [sum((values[j - 1] for j in bundle), Fraction(0)) for bundle in bundles]
    heaviest = loads.index(max(loads))
    bundles = [sorted(bundle) for bundle in bundles]
    bundles[heaviest] = sorted(bundles[heaviest] + list(items))
    return loads[heaviest] + sum((values[j - 1] for j in items), Fraction(0)), bundles


def agent_mms(inst: Instance, agent: int, witnesses=()) -> AgentMms:
    """One agent's certified MMS bounds, on one integer scale of its value table.

    ``lower`` is max(average, largest item): some bundle carries at least
    the average, and some bundle holds the largest item. ``upper`` is the
    exact MMS ("exact") when the search guard allows it, otherwise the least
    of the supplied and largest-first witness partitions ("witness"), ties
    to the first; ``witness`` attains it. The per-type share sum
    sum_u u*ceil(c_u/n) is never below the largest-first load, since placing
    c equal items of size u greedily raises the max load by at most
    u*ceil(c/n), so no type-union partition is tried. Only supplied
    witnesses are checked by :func:`witness_max_bundle`. Past the guard the
    bounds and the largest-first load come from the agent's count vector,
    and the largest-first partition is dealt only when ``witness`` is read.
    The record keeps the scale it was built on.
    """
    if inst.m == 0:  # the empty partition (every bundle empty): every bound is 0
        return AgentMms(agent, Fraction(0), Fraction(0), Fraction(0), ())
    n = inst.n
    supplied = [(witness_max_bundle(inst, agent, w), w) for w in witnesses]
    common, scaled = common_scale(inst.values[agent - 1])
    column = inst.columns[agent - 1]
    counts = Counter(column)
    codes = sorted(counts, key=scaled.__getitem__, reverse=True)  # the count vector, largest value first
    runs = [(scaled[c], counts[c]) for c in codes]
    lower = Fraction(max(sum(v * count for v, count in runs), n * runs[0][0]), n * common)
    if inst.m <= exact_search_limit(n):
        exact, positions = mms_exact([scaled[c] for c in column], n)
        exact = exact / common
        witness = tuple(tuple(p + 1 for p in bundle) for bundle in positions)
        return AgentMms(agent, lower, exact, exact, witness, common, tuple(scaled))
    load, schedule = lpt_schedule(runs, n)
    upper, witness = min(supplied + [(Fraction(load, common), None)], key=lambda c: c[0])

    def deal():
        runs = [[] for _ in scaled]
        for j, c in enumerate(column, 1):
            runs[c].append(j)
        return tuple(map(tuple, lpt_deal(schedule, [runs[c] for c in codes], n)))

    witness = None if witness is None else tuple(map(tuple, witness))
    return AgentMms(agent, lower, upper, None, witness, common, tuple(scaled), deal)


def mms_report(inst: Instance) -> list[AgentMms]:
    """Each agent's :func:`agent_mms` record, computed once per instance."""
    return [agent_mms(inst, agent) for agent in range(1, inst.n + 1)]


def scaled_disutilities(inst: Instance, alloc: Allocation, report) -> list[Fraction]:
    """Each agent's d_A under ``alloc``, summed in one pass over the assignment
    on the integer scale of the agent's record in ``report`` (:func:`mms_report`)."""
    if alloc.m > inst.m:
        raise FairdivError(f"allocation of {alloc.m} items for an instance of {inst.m}")
    n, assignment = inst.n, alloc.assignment
    if assignment and max(assignment) > n:
        j, a = next((j, a) for j, a in enumerate(assignment, 1) if a > n)
        raise FairdivError(f"item {j}: agent index {a} exceeds n={n}")
    tables = [r.scaled for r in report]
    sums = [0] * n
    for row, a in zip(inst.codes, assignment):
        sums[a - 1] += tables[a - 1][row[a - 1]]
    return [Fraction(total, r.scale) for total, r in zip(sums, report)]


def certify_ratio(inst: Instance, alloc: Allocation) -> list[RatioCertificate]:
    """Certified per-agent ratio lower bounds for a finished allocation.

    Pairs each agent's :func:`agent_mms` record with the agent's disutility
    under ``alloc``, summed on the record's integer scale: ``ratio_lower =
    d_A / upper``, sourced as the record is. An empty instance gets the
    trivial certificate.
    """
    if inst.m == 0:
        return [TRIVIAL_CERTIFICATE]
    report = mms_report(inst)
    return [
        _build_certificate(r.agent, d_a, r.upper, r.witness, r.source)
        for r, d_a in zip(report, scaled_disutilities(inst, alloc, report))
    ]


# Two-agent game -------------------------------------------------------------

class TwoAgentAdversary:
    """The adaptive two-agent construction with target ratio 2 - eps."""

    n = 2

    def __init__(self, eps):
        eps = Fraction(eps)
        if not (0 < eps < 2):
            raise FairdivError(f"eps must lie in (0, 2), got {eps}")
        self.eps = eps
        self.eps1 = eps / 2
        # Largest reciprocal of an integer that is <= eps/3 keeps the game short.
        self.eps2 = Fraction(1, ceil_div(3 * eps.denominator, eps.numerator))
        self.emissions: list[tuple[Fraction, Fraction]] = []
        self.takes: list[int] = []
        self.j2_first: int | None = None
        self.j_star: int | None = None  # first agent-1 take after j2_first

    @property
    def round(self) -> int:
        return len(self.takes)

    def _v2(self) -> Fraction:
        return self.emissions[self.j2_first - 1][1]

    def next_item(self) -> tuple[Fraction, Fraction]:
        if len(self.emissions) != len(self.takes):
            raise FairdivError("next_item called before observing the last item")
        if not self.emissions:
            d = (Fraction(1), Fraction(1))
        else:
            last_d1 = self.emissions[-1][0]
            d1 = last_d1 if self.takes[-1] == 1 else last_d1 / self.eps1
            if self.j2_first is None:
                d2 = sum((e[1] for e in self.emissions), Fraction(0)) / self.eps2
            elif self.takes[-1] == 2:
                d2 = self.eps2 * self._v2()
            else:
                d2 = self._v2()
            d = (d1, d2)
        self.emissions.append(d)
        return d

    def observe(self, agent: int) -> None:
        if agent not in (1, 2):
            raise FairdivError(f"invalid agent {agent} for a two-agent game")
        if len(self.emissions) != len(self.takes) + 1:
            raise FairdivError("observe called without a pending item")
        self.takes.append(agent)
        j = self.round
        if agent == 2 and self.j2_first is None:
            self.j2_first = j
        if agent == 1 and self.j2_first is not None and self.j_star is None and j > self.j2_first:
            self.j_star = j

    def instance(self) -> Instance:
        return Instance(n=2, items=tuple(self.emissions[: self.round]))

    def _certificate_for(self, agent: int, extra_witnesses) -> RatioCertificate:
        d_a = sum((e[agent - 1] for e, taker in zip(self.emissions, self.takes) if taker == agent), Fraction(0))
        r = agent_mms(self.instance(), agent, extra_witnesses)
        return _build_certificate(agent, d_a, r.upper, r.witness, r.source)

    def certificate(self) -> RatioCertificate | None:
        """Fires exactly when one of the construction's end states is reached."""
        j = self.round
        if j >= 2 and self.takes[-1] == 1 and self.takes[-2] == 1:
            # Agent 1 took two consecutive items: split them against the rest.
            split = [list(range(1, j)), [j]]
            return self._certificate_for(1, [split])
        if self.j_star is not None and j == self.j_star + 1:
            # Agent 1 took at j_star > j2_first; agent 2 was forced to take j.
            half = self.j2_first + (self.j_star - self.j2_first) // 2
            split = [list(range(1, half + 1)), list(range(half + 1, j + 1))]
            return self._certificate_for(2, [split])
        if (
            self.j2_first is not None
            and self.j_star is None
            and j == self.j2_first + 1 / self.eps2
        ):
            # Agent 1 never came back: agent 2 absorbed 1/eps2 crumbs.
            split = [list(range(1, self.j2_first + 1)), list(range(self.j2_first + 1, j + 1))]
            return self._certificate_for(2, [split])
        return None


# Recursive game -------------------------------------------------------------

@dataclass
class WindowEvent:
    """One completed sub-game or own-target fire, and whether its lift held."""

    level: int
    kind: str  # "base-window" | "bin-packing" | "lifted"
    agent: int
    round_local: int
    strict: bool


@dataclass(frozen=True)
class RecGameRecord:
    """The top-level facts of a recursive-game run needed for verification."""

    n: int
    eps: Fraction
    eps_own: Fraction
    rounds: int
    takes: tuple[int, ...]
    own_values: tuple[Fraction, ...]  # d_n(j) for every emitted item
    V: Fraction | None
    own_take_rounds: tuple[int, ...]
    j_dagger: int | None
    pin_horizon: int | None
    events: tuple[WindowEvent, ...]


def record_max_gap(record: RecGameRecord) -> int:
    """The longest run from one top-agent take to her next (or to the last round)."""
    takes = record.own_take_rounds
    return max((b - a for a, b in zip(takes, (*takes[1:], record.rounds))), default=0)


class RecursiveAdversary:
    """Level ``level`` of the recursive construction, covering agents 1..level.

    ``eps`` is this level's gap parameter; the sub-level runs at eps/n and
    the own agent's crumb parameter is eps/(n*(n+3)), with n the global
    agent count (MMS benchmarks always use n-way partitions).

    A level keeps no running sums: its own values are closed forms in
    rho = eps_own/(1+eps_own) (:meth:`_own_value`), its other columns the
    sub-level's values times scales that change only at a clean-up.
    """

    def __init__(self, n_total: int, level: int, eps, pin_horizon: int | None = None,
                 event_log: list[WindowEvent] | None = None):
        if level < 1 or level > n_total:
            raise FairdivError(f"level must lie in 1..{n_total}, got {level}")
        eps = Fraction(eps)
        if not 0 < eps < n_total:  # then every sub-level's eps/n_total lies there too
            raise FairdivError(f"eps must lie in (0, {n_total}), got {eps}")
        self.n_total = n_total
        self.level = level
        self.eps = eps
        self.pin_horizon = pin_horizon
        self.event_log = event_log if event_log is not None else []
        if level > 1:
            self.eps_sub = eps / n_total
            self.eps_own = eps / (n_total * (n_total + 3))
            p, q = self.eps_own.as_integer_ratio()
            self._rho = Fraction(p, p + q)
            self._powers: dict[tuple[bool, int], Fraction] = {}
            self.sub = RecursiveAdversary(n_total, level - 1, self.eps_sub, pin_horizon, self.event_log)
        self._restart()

    def _restart(self) -> None:
        """Back to round 0 as a fresh level: a clean-up above restarts its sub-level this way."""
        self.round = 0
        self.emissions: list[tuple[Fraction, ...]] = []
        self.takes: list[int] = []
        self._own_reported = False
        if self.level == 1:
            return
        self.sub._restart()
        self._lift_reported = False
        self.scales = [Fraction(1)] * (self.level - 1)
        self._swept = 0  # column i's sum up to the last clean-up is _swept * scales[i]
        self.j_star = 0
        self.own_take_rounds: list[int] = []
        self.V: Fraction | None = None
        self._taken = 0  # (own_taken_sum/V - 1) * rho^-T
        self.j_dagger: int | None = None

    # a-sequence --------------------------------------------------------

    def _pin_t(self) -> int:
        if self.level > 2 and self.pin_horizon is None:
            raise FairdivError("pin_horizon required when the sub-level is recursive")
        return self.n_total if self.level == 2 else self.pin_horizon  # one-agent windows last n rounds

    def _own_value(self, j: int, e: int) -> Fraction:
        """x_j * rho^e, cached, where x_j is the own value of round j before the first own take.

        x_1 = 1, and x_j = rho^(2-j)/eps_own: 1/eps_own times the sum (1+1/eps_own)^(j-2) so far.
        """
        key = (j == 1, e if j == 1 else e + 2 - j)
        value = self._powers.get(key)
        if value is None:
            value = self._powers[key] = self._rho ** key[1] / (1 if j == 1 else self.eps_own)
        return value

    def a_value(self, s: int) -> Fraction:
        """a_s = V * rho^(T+1-s), so a_{T+1} = V.

        This is u_s * V / u_{T+1} for u_1 = 1 and u_{t+1} = (u_1+...+u_t)/eps_own + 1, which
        solves to u_t = (1+1/eps_own)^(t-1): each term exceeds 1/eps_own times the sum before it.
        """
        if self.V is None:
            raise FairdivError("a-sequence undefined before the first own take")
        return self._own_value(self.own_take_rounds[0], self._pin_t() + 1 - s)

    # emission / observation --------------------------------------------

    def next_item(self) -> tuple[Fraction, ...]:
        if len(self.emissions) != self.round:
            raise FairdivError("next_item called before observing the last item")
        r = self.round + 1
        if self.level == 1:
            d = (Fraction(1),)
        else:
            scaled = tuple(map(mul, self.sub.next_item(), self.scales))
            d = (*scaled, self._own_value(r, 0) if self.V is None else self.a_value(r - self.j_star))
        self.emissions.append(d)
        return d

    def observe(self, agent: int) -> None:
        if not (1 <= agent <= self.level):
            raise FairdivError(f"agent {agent} outside this level's scope 1..{self.level}")
        if len(self.emissions) != self.round + 1:
            raise FairdivError("observe called without a pending item")
        self.round += 1
        self.takes.append(agent)
        if self.level == 1:
            return
        if agent != self.level:
            self.sub.observe(agent)
            return
        self.own_take_rounds.append(self.round)
        if self.V is None:
            self.V = self.emissions[-1][-1]
        elif self.j_dagger is None:
            # own_taken_sum/V - 1 gains a_s/V = rho^(T+1-s); kept times rho^-T, it gains rho^(1-s)
            self._taken += self._own_value(1, 1 - (self.round - self.j_star))
            if self._taken >= (self.n_total - 1) * self._own_value(1, -self._pin_t()):
                self.j_dagger = self.round
        self.j_star = self.round
        # Clean-up: each scale becomes its column's sum over eps_sub, so all emitted so far is
        # negligible; the sum adds this window's, the sub's totals (pending item too) at the old scale.
        sub = self.sub
        totals = [len(sub.emissions)] if sub.level == 1 else [sum(col) for col in zip(*sub.emissions)]
        for i, total in enumerate(totals):
            self.scales[i] *= (self._swept + total) / self.eps_sub
        self._swept = self.eps_sub
        sub._restart()
        self._lift_reported = False

    # certificates -------------------------------------------------------

    def _own_target_certificate(self) -> RatioCertificate | None:
        if self.level == 1:
            # agent 1 took all m items: fires when m > (n - eps) * ceil(m/n)
            m, n = self.round, self.n_total
            p, q = self.eps.as_integer_ratio()
            if m == 0 or m * q <= (n * q - p) * ceil_div(m, n):
                return None
            witness = [range(b + 1, m + 1, n) for b in range(n)]
            return _build_certificate(1, Fraction(m), Fraction(ceil_div(m, n)), witness)
        if self.j_dagger is None or self.round != self.j_dagger:
            return None
        # Agent `level` crossed n*V: bin-pack her bundle at (1+2*eps_own)*V,
        # then dump every skipped item into the heaviest bin.
        values = [e[self.level - 1] for e in self.emissions[: self.round]]
        mine = [r for r in range(self.round) if self.takes[r] == self.level]
        skipped = [r + 1 for r in range(self.round) if self.takes[r] != self.level]
        capacity = (1 + 2 * self.eps_own) * self.V
        bins = greedy_bin_packing(values, mine, self.n_total, capacity)
        if bins is None:
            bins = lpt_partition(common_scale(values)[1], self.n_total, mine)[1]
        else:
            bins = [[p + 1 for p in b] for b in bins]
        d_a = sum(values[r] for r in mine)
        return _build_certificate(self.level, d_a, *_add_to_heaviest(values, bins, skipped))

    def _lift(self, sub_cert: RatioCertificate) -> RatioCertificate:
        """Translate a sub-game certificate into this level's frame."""
        shift = self.j_star
        agent = sub_cert.agent
        values = [e[agent - 1] for e in self.emissions[: self.round]]
        shifted = [[j + shift for j in bundle] for bundle in sub_cert.witness]
        d_a = sum((values[r] for r in range(self.round) if self.takes[r] == agent), Fraction(0))
        return _build_certificate(agent, d_a, *_add_to_heaviest(values, shifted, range(1, shift + 1)))

    def certificate(self) -> RatioCertificate | None:
        """Best certificate visible at this level, already strict-checked."""
        candidates = []
        own = self._own_target_certificate()
        if own is not None:
            strict = own.ratio_lower > self.n_total - self.eps
            if not self._own_reported:
                self._own_reported = True
                kind = "base-window" if self.level == 1 else "bin-packing"
                self.event_log.append(WindowEvent(self.level, kind, own.agent, self.round, strict))
            if strict:
                candidates.append(own)
        sub_cert = self.sub.certificate() if self.level > 1 else None
        if sub_cert is not None:
            lifted = self._lift(sub_cert)
            strict = lifted.ratio_lower > self.n_total - self.eps
            if not self._lift_reported:
                self._lift_reported = True
                self.event_log.append(WindowEvent(self.level, "lifted", lifted.agent, self.round, strict))
            if strict:
                candidates.append(lifted)
        return max(candidates, key=lambda c: c.ratio_lower, default=None)

    def instance(self) -> Instance:
        return Instance(n=self.level, items=tuple(self.emissions[: self.round]))

    def record(self) -> RecGameRecord:
        if self.level < 2:
            raise FairdivError("record() requires level >= 2")
        return RecGameRecord(
            n=self.n_total,
            eps=self.eps,
            eps_own=self.eps_own,
            rounds=self.round,
            takes=tuple(self.takes),
            own_values=tuple(e[self.level - 1] for e in self.emissions[: self.round]),
            V=self.V,
            own_take_rounds=tuple(self.own_take_rounds),
            j_dagger=self.j_dagger,
            pin_horizon=self.pin_horizon,
            events=tuple(self.event_log),
        )


def make_recursive_adversary(n: int, eps, pin_horizon: int) -> RecursiveAdversary:
    return RecursiveAdversary(n_total=n, level=n, eps=Fraction(eps), pin_horizon=pin_horizon)


# O1/O2 verification ---------------------------------------------------------

@dataclass(frozen=True)
class O1O2Report:
    o1_ok: bool
    o2_ok: bool
    o1_checked: int
    o2_checked: int
    max_gap: int
    failures: tuple[str, ...]


def check_O1_O2(record: RecGameRecord) -> O1O2Report:
    """Verify the negligibility properties of a recursive-game run's record, exactly.

    O1: at every prefix ending with a take by the top agent (up to and
    including the round where she crosses n*V), the total she skipped so far
    is at most eps_own times the total she took. O2: every emitted item
    except her first take is at most eps_own * V. Vacuous when she never
    took an item.
    """
    take_rounds = record.own_take_rounds
    if not take_rounds:
        return O1O2Report(True, True, 0, 0, record_max_gap(record), ())
    eps_own, first, own_values = record.eps_own, take_rounds[0], record.own_values
    horizon = record.j_dagger if record.j_dagger is not None else record.rounds
    rounds = range(1, horizon + 1)
    bound = eps_own * record.V
    o2_failures = [f"O2: item {r} has value {own_values[r - 1]} > eps'*V = {bound}"
                   for r in rounds if r != first and own_values[r - 1] > bound]
    # O1 on one integer scale: eps_own * taken < skipped iff p * taken < q * skipped
    common, values = common_scale(own_values[:horizon])
    p, q = eps_own.as_integer_ratio()
    o1_failures = []
    o1_checked = taken = skipped = 0
    for r in rounds:
        if record.takes[r - 1] == record.n:
            taken += values[r - 1]
            o1_checked += 1
            if p * taken < q * skipped:
                o1_failures.append(f"O1: after take at round {r}, skipped {Fraction(skipped, common)} > "
                                   f"eps'*taken {eps_own * Fraction(taken, common)}")
        else:
            skipped += values[r - 1]
    return O1O2Report(not o1_failures, not o2_failures, o1_checked, len(rounds) - (first in rounds),
                      record_max_gap(record), tuple(o2_failures + o1_failures))


# Game loop -------------------------------------------------------------------

@dataclass
class GameResult:
    instance: Instance
    allocation: Allocation
    certificate: RatioCertificate
    certified: bool
    rounds: int
    budget_exhausted: bool
    trace: RunTrace
    record: RecGameRecord | None = None


def play_game(adversary, policy: Policy, budget: int) -> GameResult:
    """Run the adaptive loop until a certificate beats the target or budget ends.

    The target is what the construction promises: 2 - eps for the two-agent
    game and n - eps for the recursive one. On budget exhaustion
    the best certificate obtainable from the realized instance is returned,
    flagged as uncertified.
    """
    n = adversary.n if isinstance(adversary, TwoAgentAdversary) else adversary.level
    target_ratio = Fraction(n) - adversary.eps
    tables = ValueTables(n)
    trace = RunTrace.begin(policy, n, tables.values)

    certified = False
    for _ in range(budget):
        adversary.observe(trace.feed(policy, tables.encode(adversary.next_item())))
        cert = adversary.certificate()
        if cert is not None and cert.ratio_lower > target_ratio:
            certified = True
            break
    # from the codes the tables already made, not adversary.instance(), which interns the emissions
    # again; an instance without items has no tables
    inst = Instance.from_codes(n, tables.values if trace.steps else (), [s.raw_codes for s in trace.steps])
    alloc = trace.allocation()
    if not certified:
        cert = max(certify_ratio(inst, alloc), key=lambda c: c.ratio_lower)
    record = adversary.record() if isinstance(adversary, RecursiveAdversary) else None
    return GameResult(inst, alloc, cert, certified, trace.m, not certified, trace, record)


__all__ = [
    "RatioCertificate",
    "TRIVIAL_CERTIFICATE",
    "verify_certificate",
    "greedy_bin_packing",
    "agent_mms",
    "mms_report",
    "scaled_disutilities",
    "certify_ratio",
    "TwoAgentAdversary",
    "WindowEvent",
    "RecursiveAdversary",
    "make_recursive_adversary",
    "O1O2Report",
    "check_O1_O2",
    "RecGameRecord",
    "record_max_gap",
    "GameResult",
    "play_game",
]
