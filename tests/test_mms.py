import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fairdiv import (
    AgentMms,
    Allocation,
    FairdivError,
    Instance,
    InstanceTooLarge,
    agent_mms,
    certify_ratio,
    check_mms_decomposition,
    mms_exact,
    mms_report,
    per_type_share,
    verify_certificate,
)
from fairdiv.adversary import RatioCertificate
from fairdiv.mms import common_scale, exact_search_limit, lpt_partition, type_union_partition, witness_max_bundle

from conftest import brute_force_mms, random_instance


def test_three_unit_items_two_agents():
    # pigeonhole: some bundle holds two unit items
    assert mms_exact([Fraction(1)] * 3, 2)[0] == 2


def test_3222_two_agents():
    # brute force over all 2-partitions: {3,2} / {2,2} attains 5
    assert mms_exact([3, 2, 2, 2], 2)[0] == 5


def test_three_unit_items_three_agents():
    assert mms_exact([Fraction(1)] * 3, 3)[0] == 1


def test_witness_attains_value():
    values = [Fraction(v) for v in (3, 2, 2, 2, 7, 1)]
    share, partition = mms_exact(values, 3)
    loads = [sum(values[p] for p in bundle) for bundle in partition]
    assert max(loads) == share
    assert sorted(p for bundle in partition for p in bundle) == list(range(len(values)))


def test_guard_raises():
    with pytest.raises(InstanceTooLarge):
        mms_exact([Fraction(1)] * 30, 3)
    # the guard counts items only: past it, no value is read
    with pytest.raises(InstanceTooLarge):
        mms_exact([None] * 30, 3)


def test_against_brute_force():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(2, 3)
        m = rng.randint(n, 8)
        values = [Fraction(rng.randint(1, 20), rng.randint(1, 6)) for _ in range(m)]
        assert mms_exact(values, n)[0] == brute_force_mms(values, n)


def test_per_type_closed_form():
    assert per_type_share(7, Fraction(2), 3) == 6  # ceil(7/3) * 2
    assert per_type_share(0, Fraction(5), 4) == 0
    assert per_type_share(3, Fraction(5), 3) == 5


def test_single_type_equivalence():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        count = rng.randint(1, 12)
        v = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        got, _ = mms_exact([v] * count, n)
        assert got == per_type_share(count, v, n)


def _type_union_load(inst, agent):
    """The per-type share sum: the max load of the type-union partition."""
    common, values = common_scale(inst.agent_values(agent))
    return Fraction(type_union_partition(values, inst.n)[0], common)


def test_bounds_unit_items():
    inst = Instance(2, tuple(((Fraction(1), Fraction(1)),) * 3))
    assert agent_mms(inst, 1).lower == Fraction(3, 2)
    assert _type_union_load(inst, 1) == 2  # per-type share: ceil(3/2) * 1


def test_bounds_with_witness():
    inst = Instance(2, (
        (Fraction(4), Fraction(1)),
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(1)),
    ))
    assert agent_mms(inst, 1).lower == 4  # max(6/2, 4)
    assert mms_report(inst, [[[1], [2, 3]]])[0].upper == 4  # witness attains it: exact


def test_bounds_single_item():
    inst = Instance(4, ((Fraction(7, 3), Fraction(1), Fraction(1), Fraction(1)),))
    assert agent_mms(inst, 1).lower == _type_union_load(inst, 1) == Fraction(7, 3)


def test_bounds_bracket_exact():
    rng = random.Random(11)
    for _ in range(30):
        inst = random_instance(rng, n=rng.randint(2, 3), m=rng.randint(3, 8), k=rng.randint(1, 3))
        for agent in range(1, inst.n + 1):
            exact, _ = mms_exact(inst.agent_values(agent), inst.n)
            assert agent_mms(inst, agent).lower <= exact <= _type_union_load(inst, agent)


def test_decomposition_single_type():
    inst = Instance(2, tuple(((Fraction(3), Fraction(3)),) * 5))
    for check in check_mms_decomposition(inst):
        assert check.passed


def test_decomposition_411():
    inst = Instance(2, (
        (Fraction(4), Fraction(4)),
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(1)),
    ))
    checks = check_mms_decomposition(inst)
    for check in checks:
        assert check.lhs == 0 and check.exact == 4 and check.rhs == 5
        assert check.passed


def test_decomposition_random():
    rng = random.Random(17)
    for _ in range(15):
        inst = random_instance(rng, n=3, m=9, k=2)
        assert all(c.passed for c in check_mms_decomposition(inst))


def test_agent_mms_witness_consistent():
    rng = random.Random(23)
    inst = random_instance(rng, n=3, m=8, k=3)
    for agent in range(1, 4):
        entry = mms_report(inst)[agent - 1]
        assert entry.exact is not None
        assert witness_max_bundle(inst, agent, entry.witness) == entry.exact


def test_witness_rejects_items_outside_the_instance():
    inst = Instance(2, ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(100), Fraction(100))))
    alloc = Allocation((1, 1, 2))
    # item -2 would wrap around to item 2 and leave item 3 uncounted: ratio 100/2
    forged = RatioCertificate(2, Fraction(100), Fraction(2), ((-2,), (1, 2)), "witness", Fraction(50))
    with pytest.raises(FairdivError, match="outside 1..3"):
        verify_certificate(inst, alloc, forged)
    for bad in ([[-2], [1, 2]], [[4], [1, 2, 3]], [[0], [1, 2, 3]], [[True], [2, 3]], [[1.0], [2, 3]]):
        with pytest.raises(FairdivError, match="outside 1..3"):
            witness_max_bundle(inst, 1, bad)
        with pytest.raises(FairdivError, match="outside 1..3"):
            certify_ratio(inst, alloc, [bad])


def test_witness_rejects_more_than_n_bundles():
    inst = Instance(2, ((Fraction(1), Fraction(1)),) * 4)
    alloc = Allocation((1, 1, 2, 2))
    # four singleton bundles would make the MMS look like 1: ratio 2, not 1
    forged = RatioCertificate(1, Fraction(2), Fraction(1), ((1,), (2,), (3,), (4,)), "witness", Fraction(2))
    with pytest.raises(FairdivError, match="more than n=2 bundles"):
        verify_certificate(inst, alloc, forged)
    # fewer than n bundles leave the others empty
    assert witness_max_bundle(inst, 1, [[1, 2, 3, 4]]) == 4


def test_supplied_witness_past_the_guard_has_at_most_n_bundles():
    inst = Instance(2, ((Fraction(1), Fraction(1)),) * 30)
    singletons = [[j] for j in range(1, 31)]
    with pytest.raises(FairdivError, match="more than n=2 bundles"):
        mms_report(inst, [singletons])
    (entry, _) = mms_report(inst, [[list(range(1, 16)), list(range(16, 31))]])
    assert entry.exact is None and entry.lower == entry.upper == 15
    with pytest.raises(FairdivError, match="lower bound 15 exceeds 1"):
        AgentMms(1, Fraction(15), Fraction(1), None, tuple(map(tuple, singletons)))


@settings(max_examples=60)
@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 8), max_value=Fraction(12), max_denominator=8),
        min_size=1,
        max_size=7,
    ),
    st.integers(min_value=1, max_value=3),
    st.permutations(range(7)),
    st.fractions(min_value=Fraction(1, 4), max_value=Fraction(5), max_denominator=6),
)
def test_permutation_and_scale_invariance(values, n, perm, c):
    base, _ = mms_exact(values, n)
    order = sorted(range(len(values)), key=lambda i: perm[i])
    assert mms_exact([values[p] for p in order], n)[0] == base
    assert mms_exact([c * v for v in values], n)[0] == c * base


HUGE = [3 ** 2000 + 1, 7 ** 1200, 2 ** 3400 - 1]  # thousand-digit denominators


def _fraction_lpt(values, n, positions=None):
    """Largest-first partition on Fraction loads, the reference for lpt_partition."""
    if positions is None:
        positions = range(len(values))
    loads = [Fraction(0)] * n
    bundles = [[] for _ in range(n)]
    for p in sorted(positions, key=values.__getitem__, reverse=True):
        b = min(range(n), key=loads.__getitem__)
        loads[b] += values[p]
        bundles[b].append(p + 1)
    return [sorted(bundle) for bundle in bundles]


def test_lpt_partition_matches_fraction_reference():
    rng = random.Random(89)
    for trial in range(200):
        n, m = rng.randint(1, 5), rng.randint(0, 25)
        if trial % 4 == 0:
            values = [Fraction(rng.randint(1, 10 ** 1100), rng.choice(HUGE)) for _ in range(m)]
        else:  # small values repeat, so ties in the sort and among loads are common
            values = [Fraction(rng.randint(1, 6), rng.choice([1, 2, 3, 4, 6])) for _ in range(m)]
        positions = None if trial % 2 else sorted(rng.sample(range(m), rng.randint(0, m)))
        common, scaled = common_scale(values)
        load, bundles = lpt_partition(scaled, n, positions)
        assert bundles == _fraction_lpt(values, n, positions)
        assert Fraction(load, common) == max(sum((values[j - 1] for j in b), Fraction(0)) for b in bundles)


def _scan_lpt(values, n, positions=None):
    """lpt_partition as it was before its heap: a scan for the least load per item."""
    if positions is None:
        positions = range(len(values))
    loads = [0] * n
    bundles = [[] for _ in range(n)]
    for p in sorted(positions, key=values.__getitem__, reverse=True):
        b = min(range(n), key=loads.__getitem__)
        loads[b] += values[p]
        bundles[b].append(p + 1)
    for bundle in bundles:
        bundle.sort()
    return max(loads), bundles


def test_lpt_partition_heap_matches_the_scan():
    rng = random.Random(97)
    for trial in range(800):
        n, m = rng.randint(2, 8), rng.randint(0, 60)
        pool = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]  # few values: ties everywhere
        values = [rng.choice(pool) for _ in range(m)]
        positions = None if trial % 2 else sorted(rng.sample(range(m), rng.randint(0, m)))
        assert lpt_partition(values, n, positions) == _scan_lpt(values, n, positions)


def _fraction_agent_mms(inst, agent, witnesses):
    """The MMS record in Fraction arithmetic, the reference for agent_mms.

    Supplied witnesses come first among the candidates, so they win ties.
    """
    n, values = inst.n, inst.agent_values(agent)
    lower = max(sum(values, Fraction(0)) / n, max(values))
    candidates = [(witness_max_bundle(inst, agent, w), w) for w in witnesses]
    try:
        exact, positions = mms_exact(values, n)
    except InstanceTooLarge:
        by_value = {}
        for p, v in enumerate(values):
            by_value.setdefault(v, []).append(p)
        type_union = [[] for _ in range(n)]
        for positions in by_value.values():
            for idx, p in enumerate(positions):
                type_union[idx % n].append(p + 1)
        for bundles in (_fraction_lpt(values, n), [sorted(b) for b in type_union]):
            candidates.append((max(sum((values[j - 1] for j in b), Fraction(0)) for b in bundles), bundles))
        upper, witness = min(candidates, key=lambda c: c[0])
        exact = None
    else:
        upper, witness = exact, [[p + 1 for p in bundle] for bundle in positions]
    return AgentMms(agent, lower, upper, exact, tuple(tuple(b) for b in witness))


def test_mms_report_matches_fraction_reference():
    rng = random.Random(97)
    for trial in range(60):
        n = rng.randint(2, 3)
        past_guard = trial % 2 == 1
        m = exact_search_limit(n) + rng.randint(1, 8) if past_guard else rng.randint(1, 8)
        if trial % 3 == 0:  # thousand-digit denominators
            pool = [Fraction(rng.randint(1, 10 ** 1100), rng.choice(HUGE)) for _ in range(3)]
        else:  # few small values: ties among the loads and between the witnesses
            pool = [Fraction(rng.randint(1, 6), rng.choice([1, 2, 3])) for _ in range(rng.randint(1, 3))]
        inst = Instance(n, tuple(tuple(rng.choice(pool) for _ in range(n)) for _ in range(m)))
        common, scaled = common_scale(inst.agent_values(1))
        # built-in witnesses with their bundles in another order: they tie, and win
        witnesses = [list(reversed(partition(scaled, n)[1])) for partition in (lpt_partition, type_union_partition)]
        for supplied in ((), witnesses):
            expected = [_fraction_agent_mms(inst, agent, supplied) for agent in range(1, n + 1)]
            assert mms_report(inst, supplied) == expected
        if past_guard:  # agent 1's record is a supplied witness, not the built-in it ties
            assert mms_report(inst, witnesses)[0].witness in [tuple(map(tuple, w)) for w in witnesses]
