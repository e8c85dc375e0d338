import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fairdiv import (
    Allocation,
    FairdivError,
    Instance,
    InstanceTooLarge,
    certify_ratio,
    check_mms_decomposition,
    mms_bounds,
    mms_exact,
    mms_report,
    per_type_share,
    verify_certificate,
)
from fairdiv.adversary import RatioCertificate
from fairdiv.mms import witness_max_bundle

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


def test_bounds_unit_items():
    inst = Instance(2, tuple(((Fraction(1), Fraction(1)),) * 3))
    lower, upper = mms_bounds(inst, 1)
    assert lower == Fraction(3, 2)
    assert upper == 2  # per-type share: ceil(3/2) * 1


def test_bounds_with_witness():
    inst = Instance(2, (
        (Fraction(4), Fraction(1)),
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(1)),
    ))
    assert mms_bounds(inst, 1)[0] == 4  # max(6/2, 4)
    assert mms_report(inst, [[[1], [2, 3]]])[0].upper == 4  # witness attains it: exact


def test_bounds_single_item():
    inst = Instance(4, ((Fraction(7, 3), Fraction(1), Fraction(1), Fraction(1)),))
    lower, upper = mms_bounds(inst, 1)
    assert lower == upper == Fraction(7, 3)


def test_bounds_bracket_exact():
    rng = random.Random(11)
    for _ in range(30):
        inst = random_instance(rng, n=rng.randint(2, 3), m=rng.randint(3, 8), k=rng.randint(1, 3))
        for agent in range(1, inst.n + 1):
            lower, upper = mms_bounds(inst, agent)
            exact, _ = mms_exact(inst.agent_values(agent), inst.n)
            assert lower <= exact <= upper


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
