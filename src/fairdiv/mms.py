"""Exact min-max-share values, per-type closed forms, and certified bounds.

The MMS of an agent is the minimum over n-way partitions of the item set of
the largest bundle disutility under that agent's valuation. Exact values are
computed by branch and bound over partitions; when that is infeasible the
module produces certified lower/upper bounds instead, so downstream ratio
reports never state an exact number without an exact benchmark. Each agent's
:class:`AgentMms` record is assembled by :func:`fairdiv.adversary.mms_report`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .core import FairdivError, Instance, ceil_div, format_rational


class InstanceTooLarge(FairdivError):
    """Exhaustive MMS search refused; callers must fall back to bounds."""


# Item counts up to which the branch-and-bound search is allowed, per agent
# count. Chosen so the worst case (all-distinct values) stays well under a
# second; duplicated values are far cheaper thanks to load-multiset pruning.
_EXACT_LIMITS = {1: 64, 2: 22, 3: 16, 4: 14}
_EXACT_LIMIT_DEFAULT = 10


def exact_search_limit(n: int) -> int:
    return _EXACT_LIMITS.get(n, _EXACT_LIMIT_DEFAULT)


def lpt_partition(values, n: int, positions=None) -> list[list[int]]:
    """n sorted bundles of 1-based indices: largest item first to the least-loaded.

    ``positions`` (0-based, default all) selects the items. Ties: a stable
    descending sort, and the lowest-indexed least-loaded bundle.
    """
    if positions is None:
        positions = range(len(values))
    loads = [Fraction(0)] * n
    bundles: list[list[int]] = [[] for _ in range(n)]
    for p in sorted(positions, key=values.__getitem__, reverse=True):
        b = min(range(n), key=loads.__getitem__)
        loads[b] += values[p]
        bundles[b].append(p + 1)
    for bundle in bundles:
        bundle.sort()
    return bundles


def mms_exact(values, n: int) -> tuple[Fraction, tuple[tuple[int, ...], ...]]:
    """Exact MMS of a value list, plus one witness partition attaining it.

    Returns ``(share, partition)`` where ``partition`` is an n-tuple of
    tuples of 0-based positions into ``values`` and the max bundle sum of
    the partition equals ``share``. Raises :class:`InstanceTooLarge` when
    the search guard for this ``n`` is exceeded.
    """
    vals = [Fraction(v) for v in values]
    if not vals:
        raise FairdivError("mms_exact: empty value list")
    if any(v <= 0 for v in vals):
        raise FairdivError("mms_exact: values must be positive")
    if n < 1:
        raise FairdivError("mms_exact: n must be >= 1")
    m = len(vals)
    if m > exact_search_limit(n):
        raise InstanceTooLarge(f"m={m} exceeds exact-search limit for n={n}")
    if n == 1:
        return sum(vals, Fraction(0)), (tuple(range(m)),)
    if m <= n:
        share = max(vals)
        partition = [()] * n
        for pos in range(m):
            partition[pos] = (pos,)
        return share, tuple(partition)

    order = sorted(range(m), key=lambda p: vals[p], reverse=True)
    svals = [vals[p] for p in order]
    total = sum(svals, Fraction(0))
    smallest_bundle = sorted(vals)[: ceil_div(m, n)]
    lower = max(total / n, svals[0], sum(smallest_bundle, Fraction(0)))

    # The largest-first greedy partition seeds the incumbent.
    greedy = lpt_partition(vals, n)
    best = max(sum((vals[j - 1] for j in bundle), Fraction(0)) for bundle in greedy)
    best_assign = None

    assign = [0] * m

    def search(t: int, loads: tuple[Fraction, ...], curmax: Fraction) -> None:
        nonlocal best, best_assign
        if curmax >= best or best == lower:
            return
        if t == m:
            best = curmax
            best_assign = assign[:m].copy()
            return
        v = svals[t]
        seen_loads = set()
        for b in range(n):
            lb = loads[b]
            # Bundles with identical loads are interchangeable for all
            # remaining (value-only) decisions; try one representative.
            if lb in seen_loads:
                continue
            seen_loads.add(lb)
            new_load = lb + v
            if new_load >= best:
                continue
            assign[t] = b
            search(t + 1, loads[:b] + (new_load,) + loads[b + 1 :], max(curmax, new_load))
            if best == lower:
                return

    search(0, (Fraction(0),) * n, Fraction(0))

    partition = [[j - 1 for j in bundle] for bundle in greedy]
    if best_assign is not None:  # the search beat the greedy incumbent
        partition = [[] for _ in range(n)]
        for t, b in enumerate(best_assign):
            partition[b].append(order[t])
    return best, tuple(tuple(sorted(bundle)) for bundle in partition)


@dataclass(frozen=True)
class TypeShare:
    """One distinct value of one agent: its count and per-type share."""

    value: Fraction
    count: int
    share: Fraction  # ceil(count / n) * value


def per_type_share(count: int, value: Fraction, n: int) -> Fraction:
    """Closed-form MMS over `count` identical items of `value`: ceil(count/n)*value."""
    if count < 0:
        raise FairdivError("per_type_share: negative count")
    if value <= 0:
        raise FairdivError("per_type_share: non-positive value")
    if count == 0:
        return Fraction(0)
    return ceil_div(count, n) * value


def agent_type_shares(values, n: int) -> list[TypeShare]:
    """Group a value stream by distinct value (first-appearance order)."""
    counts = Counter(values)
    return [TypeShare(value=v, count=c, share=per_type_share(c, v, n)) for v, c in counts.items()]


def witness_max_bundle(inst: Instance, agent: int, partition) -> Fraction:
    """Largest bundle disutility of a partition, under one agent's valuation.

    ``partition`` is an iterable of bundles of 1-based item indices; it must
    cover every arrived item exactly once.
    """
    seen: set[int] = set()
    worst = Fraction(0)
    for bundle in partition:
        s = Fraction(0)
        for j in bundle:
            if isinstance(j, bool) or not isinstance(j, int) or not 1 <= j <= inst.m:
                raise FairdivError(f"witness partition names item {j!r} outside 1..{inst.m}")
            if j in seen:
                raise FairdivError(f"witness partition repeats item {j}")
            seen.add(j)
            s += inst.disutility(agent, j)
        worst = max(worst, s)
    if len(seen) != inst.m:
        raise FairdivError("witness partition does not cover all items")
    return worst


def mms_bounds(inst: Instance, agent: int) -> tuple[Fraction, Fraction]:
    """Certified (lower, upper) bounds on one agent's MMS.

    lower = max(average disutility, largest single item): the average is a
    bound because some bundle carries at least its share of the total, and
    some bundle must hold the largest item. upper = the per-type share sum,
    the max bundle of the type-union partition (the per-type optimal
    partitions unioned).
    """
    if inst.m == 0:
        raise FairdivError("mms_bounds: empty instance")
    vals = inst.agent_values(agent)
    shares = agent_type_shares(vals, inst.n)
    lower = max(sum(vals, Fraction(0)) / inst.n, max(ts.value for ts in shares))
    upper = sum((ts.share for ts in shares), Fraction(0))
    return lower, upper


@dataclass(frozen=True)
class AgentMms:
    """One agent's certified MMS bounds: lower <= MMS <= upper.

    ``witness`` is a partition (1-based item indices) whose max bundle is
    ``upper``. ``exact`` is the MMS when the search found it, and then
    equals ``upper``; otherwise None.
    """

    agent: int
    lower: Fraction
    upper: Fraction
    exact: Fraction | None
    witness: tuple[tuple[int, ...], ...]

    @property
    def source(self) -> str:
        """Where ``upper`` comes from: "exact" or "witness"."""
        return "witness" if self.exact is None else "exact"

    def __post_init__(self):
        if self.exact is not None and not (self.lower <= self.exact <= self.upper):
            raise FairdivError(
                f"agent {self.agent}: exact MMS {self.exact} outside [{self.lower}, {self.upper}]"
            )


def mms_report_to_obj(report) -> list[dict]:
    """The ``fairdiv mms`` JSON records; ``source`` is not written."""
    return [
        {
            "agent": entry.agent,
            "lower_bound": format_rational(entry.lower),
            "upper_bound": format_rational(entry.upper),
            "exact_mms": None if entry.exact is None else format_rational(entry.exact),
            "witness_partition": [list(bundle) for bundle in entry.witness],
        }
        for entry in report
    ]


@dataclass(frozen=True)
class DecompositionCheck:
    agent: int
    lhs: Fraction  # sum over types of (share - value)
    exact: Fraction
    rhs: Fraction  # sum over types of share
    passed: bool


def check_mms_decomposition(inst: Instance) -> list[DecompositionCheck]:
    """Verify, per agent, that sum(share_u - V_u) <= MMS <= sum(share_u).

    The upper side holds because the per-type optimal partitions can be
    unioned into one partition; the lower side because each per-type share
    overshoots the per-type average by at most one item. Requires the exact
    search to be feasible.
    """
    out = []
    for i in range(1, inst.n + 1):
        vals = inst.agent_values(i)
        shares = agent_type_shares(vals, inst.n)
        exact, _ = mms_exact(vals, inst.n)
        lhs = sum((ts.share - ts.value for ts in shares), Fraction(0))
        rhs = sum((ts.share for ts in shares), Fraction(0))
        out.append(
            DecompositionCheck(agent=i, lhs=lhs, exact=exact, rhs=rhs, passed=lhs <= exact <= rhs)
        )
    return out


__all__ = [
    "InstanceTooLarge",
    "exact_search_limit",
    "lpt_partition",
    "mms_exact",
    "TypeShare",
    "per_type_share",
    "agent_type_shares",
    "witness_max_bundle",
    "mms_bounds",
    "AgentMms",
    "mms_report_to_obj",
    "DecompositionCheck",
    "check_mms_decomposition",
]
