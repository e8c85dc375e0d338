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

from dataclasses import dataclass
from fractions import Fraction

from .allocator import Policy, RunTrace
from .core import Allocation, FairdivError, Instance, ceil_div, format_rational
from .mms import AgentMms, InstanceTooLarge, lpt_partition, mms_bounds, mms_exact, witness_max_bundle


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
    """Recompute everything a certificate claims."""
    if cert.mms_source == "trivial":
        return inst.m == 0
    if witness_max_bundle(inst, cert.agent, cert.witness) != cert.mms_upper:
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


def type_union_partition(values, n: int) -> list[list[int]]:
    """Round-robin each distinct value separately; unions the per-type optima."""
    by_value: dict[Fraction, list[int]] = {}
    for p, v in enumerate(values):
        by_value.setdefault(v, []).append(p)
    bundles: list[list[int]] = [[] for _ in range(n)]
    for positions in by_value.values():
        for idx, p in enumerate(positions):
            bundles[idx % n].append(p + 1)
    for bundle in bundles:
        bundle.sort()
    return bundles


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


def mms_report(inst: Instance, witnesses=None) -> list[AgentMms]:
    """Each agent's certified MMS bounds, computed once per instance.

    ``lower`` is the average/max-item bound of :func:`mms_bounds`. ``upper``
    is the exact MMS ("exact") when the search guard allows it, otherwise
    the least of the largest-first, type-union and supplied witness
    partitions ("witness"), ties to the first; ``witness`` attains it. Only
    supplied witnesses are checked by :func:`witness_max_bundle`: the
    largest-first bundles are summed directly, and the type-union partition
    attains the per-type share sum of :func:`mms_bounds`.
    """
    if inst.m == 0:  # n empty bundles: every bound is 0
        zero = Fraction(0)
        return [AgentMms(agent, zero, zero, zero, ((),) * inst.n) for agent in range(1, inst.n + 1)]
    out = []
    for agent in range(1, inst.n + 1):
        values = inst.agent_values(agent)
        lower, type_union_upper = mms_bounds(inst, agent)
        supplied = [(witness_max_bundle(inst, agent, w), w) for w in witnesses or ()]
        try:
            exact, positions = mms_exact(values, inst.n)
        except InstanceTooLarge:
            exact = None
            lpt = lpt_partition(values, inst.n)
            lpt_upper = max(sum((values[j - 1] for j in bundle), Fraction(0)) for bundle in lpt)
            candidates = [(lpt_upper, lpt), (type_union_upper, type_union_partition(values, inst.n))]
            upper, witness = min(candidates + supplied, key=lambda c: c[0])
        else:
            upper, witness = exact, [[p + 1 for p in bundle] for bundle in positions]
        out.append(AgentMms(agent, lower, upper, exact, tuple(tuple(b) for b in witness)))
    return out


def certify_ratio(inst: Instance, alloc: Allocation, witnesses=None) -> list[RatioCertificate]:
    """Certified per-agent ratio lower bounds for a finished allocation.

    Pairs each agent's record from :func:`mms_report` with the agent's
    disutility under ``alloc``: ``ratio_lower = d_A / upper``, sourced as the
    record is. An empty instance gets the trivial certificate.
    """
    if inst.m == 0:
        return [TRIVIAL_CERTIFICATE]
    return [
        _build_certificate(r.agent, alloc.bundle_disutility(inst, r.agent), r.upper, r.witness, r.source)
        for r in mms_report(inst, witnesses)
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
        inst = self.instance()
        values = list(inst.agent_values(agent))
        d_a = sum((values[r] for r in range(self.round) if self.takes[r] == agent), Fraction(0))
        candidates = [(witness_max_bundle(inst, agent, part), part, "witness") for part in extra_witnesses]
        try:
            exact, positions = mms_exact(values, 2)
        except InstanceTooLarge:
            pass
        else:  # the exact MMS comes first, so it wins ties
            candidates.insert(0, (exact, [[p + 1 for p in bundle] for bundle in positions], "exact"))
        return _build_certificate(agent, d_a, *min(candidates, key=lambda c: c[0]))

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
    gap = 0
    prev = record.own_take_rounds[0] if record.own_take_rounds else None
    if prev is not None:
        for r in record.own_take_rounds[1:]:
            gap = max(gap, r - prev)
            prev = r
        gap = max(gap, record.rounds - prev)
    return gap


class RecursiveAdversary:
    """Level ``level`` of the recursive construction, covering agents 1..level.

    ``eps`` is this level's gap parameter; the sub-level runs at eps/n and
    the own agent's crumb parameter is eps/(n*(n+3)), with n the global
    agent count (MMS benchmarks always use n-way partitions).
    """

    def __init__(self, n_total: int, level: int, eps, pin_horizon: int | None = None,
                 event_log: list[WindowEvent] | None = None):
        if level < 1 or level > n_total:
            raise FairdivError(f"level must lie in 1..{n_total}, got {level}")
        eps = Fraction(eps)
        if eps <= 0:
            raise FairdivError(f"eps must be positive, got {eps}")
        self.n_total = n_total
        self.level = level
        self.eps = eps
        self.pin_horizon = pin_horizon
        self.event_log = event_log if event_log is not None else []
        self.round = 0
        self.emissions: list[tuple[Fraction, ...]] = []
        self.takes: list[int] = []
        self.sums = [Fraction(0)] * level
        self._own_reported = False
        self._last_reported_sub: "RecursiveAdversary | None" = None
        if level == 1:
            self.take_count = 0
            return
        self.eps_sub = eps / n_total
        self.eps_own = eps / (n_total * (n_total + 3))
        self.sub = RecursiveAdversary(n_total, level - 1, self.eps_sub, pin_horizon, self.event_log)
        self.scales = [Fraction(1)] * (level - 1)
        self.j_star = 0
        self.own_emitted_sum = Fraction(0)
        self.own_taken_sum = Fraction(0)
        self.own_take_rounds: list[int] = []
        self.V: Fraction | None = None
        self.j_dagger: int | None = None
        # a-sequence: a_s = u_s * V / u_{T+1}; u_1 = 1, u_{t+1} = (sum u_1..u_t)/eps_own + 1,
        # so each term strictly exceeds 1/eps_own times the sum of its predecessors.
        self._useq: list[Fraction] = [Fraction(1)]
        self._usum = Fraction(1)
        self._sigma: Fraction | None = None

    # a-sequence --------------------------------------------------------

    def _u(self, t: int) -> Fraction:
        while len(self._useq) < t:
            nxt = self._usum / self.eps_own + 1
            self._useq.append(nxt)
            self._usum += nxt
        return self._useq[t - 1]

    def _pin_t(self) -> int:
        if self.level - 1 == 1:
            return self.n_total  # one-agent window length is exactly n
        if self.pin_horizon is None:
            raise FairdivError("pin_horizon required when the sub-level is recursive")
        return self.pin_horizon

    def a_value(self, s: int) -> Fraction:
        if self.V is None:
            raise FairdivError("a-sequence undefined before the first own take")
        if self._sigma is None:
            self._sigma = self.V / self._u(self._pin_t() + 1)
        return self._u(s) * self._sigma

    # emission / observation --------------------------------------------

    def next_item(self) -> tuple[Fraction, ...]:
        if len(self.emissions) != self.round:
            raise FairdivError("next_item called before observing the last item")
        r = self.round + 1
        if self.level == 1:
            d = (Fraction(1),)
        else:
            subvals = self.sub.next_item()
            scaled = tuple(subvals[i] * self.scales[i] for i in range(self.level - 1))
            if self.V is None:
                own = Fraction(1) if r == 1 else self.own_emitted_sum / self.eps_own
            else:
                own = self.a_value(r - self.j_star)
            self.own_emitted_sum += own
            d = scaled + (own,)
        self.emissions.append(d)
        return d

    def observe(self, agent: int) -> None:
        if not (1 <= agent <= self.level):
            raise FairdivError(f"agent {agent} outside this level's scope 1..{self.level}")
        if len(self.emissions) != self.round + 1:
            raise FairdivError("observe called without a pending item")
        self.round += 1
        self.takes.append(agent)
        d = self.emissions[self.round - 1]
        for i in range(self.level):
            self.sums[i] += d[i]
        if self.level == 1:
            self.take_count += 1
            return
        if agent == self.level:
            self.own_taken_sum += d[self.level - 1]
            self.own_take_rounds.append(self.round)
            if self.V is None:
                self.V = d[self.level - 1]
            self.j_star = self.round
            if self.j_dagger is None and self.own_taken_sum >= self.n_total * self.V:
                self.j_dagger = self.round
            # Clean-up: restart the sub-game with every agent's scale reset so
            # that everything already emitted becomes an eps_sub-fraction.
            self.scales = [self.sums[i] / self.eps_sub for i in range(self.level - 1)]
            self.sub = RecursiveAdversary(
                self.n_total, self.level - 1, self.eps_sub, self.pin_horizon, self.event_log
            )
        else:
            self.sub.observe(agent)

    # certificates -------------------------------------------------------

    def _own_target_certificate(self) -> RatioCertificate | None:
        if self.level == 1:
            m, c = self.round, self.take_count
            if m == 0 or Fraction(c) <= (self.n_total - self.eps) * ceil_div(m, self.n_total):
                return None
            witness = [range(b + 1, m + 1, self.n_total) for b in range(self.n_total)]
            return _build_certificate(1, Fraction(c), Fraction(ceil_div(m, self.n_total)), witness)
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
            bins = lpt_partition(values, self.n_total, mine)
        else:
            bins = [[p + 1 for p in b] for b in bins]
        return _build_certificate(self.level, self.own_taken_sum, *_add_to_heaviest(values, bins, skipped))

    def _lift(self, sub_cert: RatioCertificate) -> RatioCertificate:
        """Translate a sub-game certificate into this level's frame."""
        shift = self.j_star
        agent = sub_cert.agent
        values = [e[agent - 1] for e in self.emissions[: self.round]]
        shifted = [[j + shift for j in bundle] for bundle in sub_cert.witness]
        d_a = sum((values[r] for r in range(self.round) if self.takes[r] == agent), Fraction(0))
        return _build_certificate(agent, d_a, *_add_to_heaviest(values, shifted, range(1, shift + 1)))

    def local_certificate(self) -> RatioCertificate | None:
        """Best certificate visible at this level, already strict-checked."""
        target = self.n_total - self.eps
        candidates = []
        own = self._own_target_certificate()
        if own is not None:
            strict = own.ratio_lower > target
            if not self._own_reported:
                self._own_reported = True
                kind = "base-window" if self.level == 1 else "bin-packing"
                self.event_log.append(WindowEvent(self.level, kind, own.agent, self.round, strict))
            if strict:
                candidates.append(own)
        if self.level > 1:
            sub_cert = self.sub.local_certificate()
            if sub_cert is not None:
                lifted = self._lift(sub_cert)
                strict = lifted.ratio_lower > target
                if self._last_reported_sub is not self.sub:
                    self._last_reported_sub = self.sub
                    self.event_log.append(
                        WindowEvent(self.level, "lifted", lifted.agent, self.round, strict)
                    )
                if strict:
                    candidates.append(lifted)
        if not candidates:
            return None
        return max(candidates, key=lambda c: c.ratio_lower)

    def instance(self) -> Instance:
        return Instance(n=self.level, items=tuple(self.emissions[: self.round]))

    def certificate(self) -> RatioCertificate | None:
        return self.local_certificate()

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


def check_O1_O2(adv: "RecursiveAdversary | RecGameRecord") -> O1O2Report:
    """Verify the negligibility properties of a recursive-game run, exactly.

    O1: at every prefix ending with a take by the top agent (up to and
    including the round where she crosses n*V), the total she skipped so far
    is at most eps_own times the total she took. O2: every emitted item
    except her first take is at most eps_own * V. Vacuous when she never
    took an item.
    """
    record = adv.record() if isinstance(adv, RecursiveAdversary) else adv
    failures = []
    take_rounds = record.own_take_rounds
    if not take_rounds:
        return O1O2Report(True, True, 0, 0, record_max_gap(record), ())
    V = record.V
    eps_own = record.eps_own
    first = take_rounds[0]
    horizon = record.j_dagger if record.j_dagger is not None else record.rounds
    o2_checked = 0
    for r in range(1, horizon + 1):
        if r == first:
            continue
        v = record.own_values[r - 1]
        o2_checked += 1
        if v > eps_own * V:
            failures.append(f"O2: item {r} has value {v} > eps'*V = {eps_own * V}")
    o1_checked = 0
    taken = Fraction(0)
    skipped = Fraction(0)
    for r in range(1, horizon + 1):
        if record.takes[r - 1] == record.n:
            taken += record.own_values[r - 1]
            o1_checked += 1
            if eps_own * taken < skipped:
                failures.append(
                    f"O1: after take at round {r}, skipped {skipped} > eps'*taken {eps_own * taken}"
                )
        else:
            skipped += record.own_values[r - 1]
    o1_ok = not any(f.startswith("O1") for f in failures)
    o2_ok = not any(f.startswith("O2") for f in failures)
    return O1O2Report(o1_ok, o2_ok, o1_checked, o2_checked, record_max_gap(record), tuple(failures))


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


def play_game(adversary, policy: Policy, budget: int, target_ratio=None) -> GameResult:
    """Run the adaptive loop until a certificate beats the target or budget ends.

    The default target is what the construction promises: 2 - eps for the
    two-agent game and n - eps for the recursive one. On budget exhaustion
    the best certificate obtainable from the realized instance is returned,
    flagged as uncertified.
    """
    n = adversary.n if isinstance(adversary, TwoAgentAdversary) else adversary.level
    if target_ratio is None:
        target_ratio = Fraction(n) - adversary.eps
    else:
        target_ratio = Fraction(target_ratio)
    policy.start(n)
    trace = RunTrace(n=n, policy=policy.name)

    def result(cert, certified, exhausted):
        inst = adversary.instance()
        alloc = trace.allocation()
        record = adversary.record() if isinstance(adversary, RecursiveAdversary) else None
        return GameResult(inst, alloc, cert, certified, trace.m, exhausted, trace, record)

    for _ in range(budget):
        adversary.observe(trace.feed(policy, adversary.next_item()))
        cert = adversary.certificate()
        if cert is not None and cert.ratio_lower > target_ratio:
            return result(cert, True, False)
    certs = certify_ratio(adversary.instance(), trace.allocation())
    best = max(certs, key=lambda c: c.ratio_lower)
    return result(best, False, True)


__all__ = [
    "RatioCertificate",
    "TRIVIAL_CERTIFICATE",
    "verify_certificate",
    "lpt_partition",
    "type_union_partition",
    "greedy_bin_packing",
    "mms_report",
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
