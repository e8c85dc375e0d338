"""Exact min-max-share values, per-type closed forms, and certified bounds.

The MMS of an agent is the minimum over n-way partitions of the item set of
the largest bundle disutility under that agent's valuation. Exact values are
computed by branch and bound over partitions, on integers over the values'
common denominator. Its stop value is the optimum of the agent's count
vector (each distinct value with its count), found by a bin-packing
feasibility search over remaining count vectors when the vector has few
enough states, so the branch and bound ends at its first optimal leaf
instead of proving optimality. When the item-count guard refuses, the
largest-first partition gives a certified upper bound instead, with its max
load, so downstream ratio reports never state an exact number without an
exact benchmark. Each agent's :class:`AgentMms` record is
assembled by :func:`fairdiv.adversary.agent_mms`, from one integer scale of
its values, which the record keeps.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heapreplace
from itertools import groupby
from math import lcm, prod

from .core import FairdivError, Instance, ceil_div, format_rational


class InstanceTooLarge(FairdivError):
    """Exhaustive MMS search refused; callers must fall back to bounds."""


# Item counts up to which the branch-and-bound search is allowed, per agent
# count. Chosen so the worst case stays well under a second: all-distinct
# values, whose count vector is past the state limit, so the search proves
# optimality itself. Few distinct values are far cheaper, since the
# count-vector optimum stops the search at its first optimal leaf, but the
# guard still counts items: widening it turns interval reports into exact
# ones, which the golden outputs record.
_EXACT_LIMITS = {1: 64, 2: 22, 3: 16, 4: 14}
_EXACT_LIMIT_DEFAULT = 10


def exact_search_limit(n: int) -> int:
    return _EXACT_LIMITS.get(n, _EXACT_LIMIT_DEFAULT)


def common_scale(values) -> tuple[int, list[int]]:
    """``(d, [v * d for v in values])`` for ``d`` the least common denominator:
    integers with every order, tie and ratio of the rationals."""
    denominators = {v.denominator for v in values}
    common = lcm(*denominators)
    factors = {d: common // d for d in denominators}
    return common, [v.numerator * factors[v.denominator] for v in values]


def lpt_partition(values, n: int, positions=None) -> tuple[int, list[list[int]]]:
    """``(max load, n sorted bundles of 1-based indices)``: largest item first to the least-loaded.

    ``positions`` (0-based, default all) selects the items. Ties: a stable
    descending sort, and the lowest-indexed least-loaded bundle. ``values``
    are the integers of :func:`common_scale`, and so is the load.

    Once every load is less than v above the least, for v the value of a
    run of equal items, the heap would place the rest of the run round by
    round in (load, index) order, so each bundle takes its share at once.
    """
    if positions is None:
        positions = range(len(values))
    heap = [(0, b) for b in range(n)]  # (load, bundle): the top is the least load, lowest index
    top = 0  # the largest load
    bundles: list[list[int]] = [[] for _ in range(n)]
    for v, run in groupby(sorted(positions, key=values.__getitem__, reverse=True), values.__getitem__):
        run = [p + 1 for p in run]
        t = 0
        while t < len(run) and top - heap[0][0] >= v:  # one item; the new load is at most top
            load, b = heap[0]
            heapreplace(heap, (load + v, b))
            bundles[b].append(run[t])
            t += 1
        if t < len(run):
            heap.sort()
            for j, (load, b) in enumerate(heap):
                share = run[t + j::n]
                bundles[b] += share
                heap[j] = (load + v * len(share), b)
            heapify(heap)
            top = max(heap)[0]
    for bundle in bundles:
        bundle.sort()
    return max(heap)[0], bundles


def mms_exact(values, n: int) -> tuple[Fraction, tuple[tuple[int, ...], ...]]:
    """Exact MMS of a value list, plus one witness partition attaining it.

    ``values`` are ints or Fractions; any other value, a bool included,
    raises :class:`FairdivError` once the guard has passed. Returns
    ``(share, partition)`` where ``partition`` is an n-tuple of tuples of
    0-based positions into ``values`` and the max bundle sum of the
    partition equals ``share``.
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
    if any(isinstance(v, bool) or not isinstance(v, (int, Fraction)) for v in values):
        raise FairdivError("mms_exact: values must be ints or Fractions")
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
    lower = max(ceil_div(sum(vals), n), svals[0], sum(sorted(vals)[: ceil_div(m, n)]))

    # The largest-first greedy partition seeds the incumbent.
    best, greedy = lpt_partition(vals, n)
    best_assign = None
    # At the optimum, the stop value ends the search at its first optimal
    # leaf: the leaf it would keep after proving that no better one exists.
    if best > lower:
        lower = _count_vector_optimum(vals, n, lower, best)

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


# Count vectors with more states than this, prod(c_u + 1) over the distinct
# values, skip the count-vector optimum: the branch and bound then proves
# optimality on its own, as it does for all-distinct values.
_COUNT_STATES_LIMIT = 4096


def _count_vector_optimum(vals, n: int, lower: int, upper: int) -> int:
    """The least max load over n-way partitions of ``vals``, or ``lower`` past the state limit.

    ``lower`` and ``upper`` bracket the optimum, and ``upper`` is a max load
    some partition attains. The optimum is a bundle sum, so it is the least
    achievable sum in ``[lower, upper)`` whose capacity :func:`_fits` the
    count vector, or ``upper`` if none does. Capacity ``upper - 1`` is
    tested first, before any sum is listed, because the largest-first
    ``upper`` is often already optimal.
    """
    counts = Counter(vals)
    sizes = sorted(counts, reverse=True)
    full = tuple(counts[u] for u in sizes)
    if prod(c + 1 for c in full) > _COUNT_STATES_LIMIT:
        return lower
    if not _fits(sizes, full, n, upper - 1):
        return upper
    sums = {0}
    for u, c in zip(sizes, full):
        sums = {s + a * u for s in sums for a in range(c + 1)}
    caps = sorted(s for s in sums if lower <= s < upper)  # the last one fits
    # fitting is False below the optimum and True from it on
    return caps[bisect_left(caps, True, hi=len(caps) - 1, key=lambda cap: _fits(sizes, full, n, cap))]


def _fits(sizes, counts, n: int, cap: int) -> bool:
    """Whether ``counts[t]`` items of size ``sizes[t]`` (descending) pack into n bins of ``cap``.

    Some bin holds the largest remaining item. Moving items into that bin
    from the others keeps a packing, so it may be filled to a maximal
    configuration, one beside which no remaining item fits. A remainder
    that fails with some number of bins fails with fewer, so each is
    recorded with the most bins it failed with.
    """
    d = len(sizes)
    failed: dict[tuple[int, ...], int] = {}

    def fills(rest, t, room, tail, smallest_left):
        # Remainders after filling ``room`` from ``rest[t:]`` so that the
        # final room is below every size left over; ``tail[t]`` is the
        # volume of ``rest[t:]``.
        if t == d:
            if room < smallest_left:
                yield tuple(rest)
            return
        u, c = sizes[t], rest[t]
        for a in range(min(c, room // u), -1, -1):
            left_over = u if a < c else smallest_left
            if room - a * u - tail[t + 1] >= left_over:
                break  # too little is left to shrink the room below a leftover size
            rest[t] = c - a
            yield from fills(rest, t + 1, room - a * u, tail, left_over)
        rest[t] = c

    def pack(rest, bins):
        volume = sum(c * u for c, u in zip(rest, sizes))
        if volume <= cap:
            return True
        if volume > bins * cap or failed.get(rest, 0) >= bins:
            return False
        first = next(t for t, c in enumerate(rest) if c)
        left = list(rest)
        left[first] -= 1
        tail = [0] * (d + 1)
        for t in range(d - 1, -1, -1):
            tail[t] = tail[t + 1] + left[t] * sizes[t]
        for after in fills(left, first, cap - sizes[first], tail, cap + 1):
            if pack(after, bins - 1):
                return True
        failed[rest] = bins
        return False

    return pack(counts, n)


@dataclass(frozen=True)
class TypeShare:
    """One distinct value of one agent: its count and per-type share."""

    value: Fraction
    count: int
    share: Fraction  # ceil(count / n) * value


def per_type_share(count: int, value: Fraction, n: int) -> Fraction:
    """Closed-form MMS over `count` identical items of `value`: ceil(count/n)*value."""
    if n < 1:
        raise FairdivError("per_type_share: n must be >= 1")
    if count < 0:
        raise FairdivError("per_type_share: negative count")
    if value <= 0:
        raise FairdivError("per_type_share: non-positive value")
    if count == 0:
        return Fraction(0)
    return ceil_div(count, n) * value


def agent_type_shares(values, n: int) -> list[TypeShare]:
    """Group a value stream by distinct value (first-appearance order)."""
    if n < 1:
        raise FairdivError("agent_type_shares: n must be >= 1")
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
    equals ``upper``; otherwise None. ``scaled[j]`` is the agent's value of
    item j+1 times ``scale``, an integer: the scale the record was built on.
    """

    agent: int
    lower: Fraction
    upper: Fraction
    exact: Fraction | None
    witness: tuple[tuple[int, ...], ...]
    scale: int = field(default=1, compare=False, repr=False)
    scaled: tuple[int, ...] = field(default=(), compare=False, repr=False)

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
