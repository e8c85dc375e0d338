"""Exact min-max-share values, per-type closed forms, and certified bounds.

The MMS of an agent is the minimum over n-way partitions of the item set of
the largest bundle disutility under that agent's valuation. Exact values are
computed by branch and bound over partitions, on integers over the values'
common denominator; when the item-count guard refuses, the largest-first and
type-union partitions give certified upper bounds instead, each with its max
load, so downstream ratio reports never state an exact number without an
exact benchmark. Each agent's :class:`AgentMms` record is assembled by
:func:`fairdiv.adversary.agent_mms`, from one integer scale of its values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapreplace
from math import lcm

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


def common_scale(values) -> tuple[int, list[int]]:
    """``(d, [v * d for v in values])`` for ``d`` the least common denominator:
    integers with every order, tie and ratio of the rationals."""
    common = lcm(*{v.denominator for v in values})
    return common, [v.numerator * (common // v.denominator) for v in values]


def lpt_partition(values, n: int, positions=None) -> tuple[int, list[list[int]]]:
    """``(max load, n sorted bundles of 1-based indices)``: largest item first to the least-loaded.

    ``positions`` (0-based, default all) selects the items. Ties: a stable
    descending sort, and the lowest-indexed least-loaded bundle. ``values``
    are the integers of :func:`common_scale`, and so is the load.
    """
    if positions is None:
        positions = range(len(values))
    heap = [(0, b) for b in range(n)]  # (load, bundle): the top is the least load, lowest index
    bundles: list[list[int]] = [[] for _ in range(n)]
    for p in sorted(positions, key=values.__getitem__, reverse=True):
        load, b = heap[0]
        heapreplace(heap, (load + values[p], b))
        bundles[b].append(p + 1)
    for bundle in bundles:
        bundle.sort()
    return max(heap)[0], bundles


def type_union_partition(values, n: int) -> tuple[int, list[list[int]]]:
    """``(max load, bundles)``: each distinct value round-robined on its own.

    The union of the per-type optima. The first bundle holds ceil(count/n)
    items of every value, so the max load is the per-type share sum.
    """
    by_value: dict[int, list[int]] = {}
    for p, v in enumerate(values):
        by_value.setdefault(v, []).append(p)
    bundles: list[list[int]] = [[] for _ in range(n)]
    for positions in by_value.values():
        for idx, p in enumerate(positions):
            bundles[idx % n].append(p + 1)
    for bundle in bundles:
        bundle.sort()
    return sum(v * ceil_div(len(positions), n) for v, positions in by_value.items()), bundles


def mms_exact(values, n: int) -> tuple[Fraction, tuple[tuple[int, ...], ...]]:
    """Exact MMS of a value list, plus one witness partition attaining it.

    ``values`` are ints or Fractions. Returns ``(share, partition)`` where
    ``partition`` is an n-tuple of tuples of 0-based positions into
    ``values`` and the max bundle sum of the partition equals ``share``.
    Raises :class:`InstanceTooLarge` when the search guard for this ``n`` is
    exceeded; the guard counts items only, so a refusal reads no value. The
    search runs on the integers of :func:`common_scale`.
    """
    if n < 1:
        raise FairdivError("mms_exact: n must be >= 1")
    m = len(values)
    if m == 0:
        raise FairdivError("mms_exact: empty value list")
    if m > exact_search_limit(n):
        raise InstanceTooLarge(f"m={m} exceeds exact-search limit for n={n}")
    common, vals = common_scale(values)
    if any(v <= 0 for v in vals):
        raise FairdivError("mms_exact: values must be positive")
    if n == 1:
        return Fraction(sum(vals), common), (tuple(range(m)),)
    if m <= n:
        return Fraction(max(vals), common), tuple((p,) for p in range(m)) + ((),) * (n - m)

    order = sorted(range(m), key=vals.__getitem__, reverse=True)
    svals = [vals[p] for p in order]
    # some bundle holds the average, the largest item, and ceil(m/n) items
    lower = max(Fraction(sum(vals), n), svals[0], sum(sorted(vals)[: ceil_div(m, n)]))

    # The largest-first greedy partition seeds the incumbent.
    best, greedy = lpt_partition(vals, n)
    best_assign = None

    assign = [0] * m

    def search(t: int, loads: tuple[int, ...], curmax: int) -> None:
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

    search(0, (0,) * n, 0)

    partition = [[j - 1 for j in bundle] for bundle in greedy]
    if best_assign is not None:  # the search beat the greedy incumbent
        partition = [[] for _ in range(n)]
        for t, b in enumerate(best_assign):
            partition[b].append(order[t])
    return Fraction(best, common), tuple(tuple(sorted(bundle)) for bundle in partition)


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

    ``partition`` is an iterable of at most n bundles of 1-based item
    indices (missing bundles are empty); it must cover every arrived item
    exactly once.
    """
    seen: set[int] = set()
    worst = Fraction(0)
    for count, bundle in enumerate(partition, start=1):
        if count > inst.n:
            raise FairdivError(f"witness partition has more than n={inst.n} bundles")
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
        if not self.lower <= self.upper:
            raise FairdivError(f"agent {self.agent}: lower bound {self.lower} exceeds {self.upper}")
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
    "common_scale",
    "lpt_partition",
    "type_union_partition",
    "mms_exact",
    "TypeShare",
    "per_type_share",
    "agent_type_shares",
    "witness_max_bundle",
    "AgentMms",
    "mms_report_to_obj",
    "DecompositionCheck",
    "check_mms_decomposition",
]
