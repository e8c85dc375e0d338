import json
import math
import os
import random
import runpy
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fairdiv import (
    AgentMms,
    Allocation,
    FairdivError,
    GeneratorConfig,
    Instance,
    InstanceTooLarge,
    agent_mms,
    certify_ratio,
    generate_instance,
    make_recursive_adversary,
    mms_exact,
    mms_report,
    play_game,
    verify_certificate,
)
from fairdiv.adversary import RatioCertificate
from fairdiv.allocator import RoundRobinPolicy
from fairdiv import core as core_module, mms as mms_module
from fairdiv import adversary as adversary_module
from fairdiv.cli import main
from fairdiv.core import ceil_div, instance_to_json, load_allocation, load_instance
from fairdiv.mms import (_count_vector_optimum, common_scale, exact_search_limit, lpt_deal, lpt_partition, lpt_schedule,
                         witness_max_bundle)

from conftest import brute_force_mms, per_type_sums, random_instance, type_union_partition

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    # one value: MMS is the per-type share ceil(count/n) * v
    assert mms_exact([Fraction(2)] * 7, 3)[0] == 6  # ceil(7/3) * 2
    assert mms_exact([Fraction(5)], 4)[0] == 5
    assert mms_exact([Fraction(5)] * 3, 3)[0] == 5


def test_single_type_equivalence():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        count = rng.randint(1, 12)
        v = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        got, _ = mms_exact([v] * count, n)
        assert got == ceil_div(count, n) * v


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
    assert agent_mms(inst, 1, [[[1], [2, 3]]]).upper == 4  # witness attains it: exact


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


def _assert_sandwich(inst):
    for record in mms_report(inst):
        lhs, rhs = per_type_sums(inst, record.agent)
        assert lhs <= record.lower <= record.exact == record.upper <= rhs, record


def test_decomposition_single_type():
    inst = Instance(2, tuple(((Fraction(3), Fraction(3)),) * 5))
    _assert_sandwich(inst)
    assert all(per_type_sums(inst, a) == (6, 9) and r.exact == 9 for a, r in enumerate(mms_report(inst), 1))


def test_decomposition_411():
    inst = Instance(2, (
        (Fraction(4), Fraction(4)),
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(1)),
    ))
    _assert_sandwich(inst)
    for record in mms_report(inst):
        assert per_type_sums(inst, record.agent) == (0, 5) and record.exact == 4


def test_decomposition_random():
    rng = random.Random(17)
    for _ in range(15):
        _assert_sandwich(random_instance(rng, n=3, m=9, k=2))


def test_agent_mms_witness_consistent():
    rng = random.Random(23)
    inst = random_instance(rng, n=3, m=8, k=3)
    for agent in range(1, 4):
        entry = mms_report(inst)[agent - 1]
        assert entry.exact is not None
        assert witness_max_bundle(inst, agent, entry.witness) == entry.exact
    # summed on the agent's integer scale, a bundle is the sum of its values,
    # also for the thousands of digits of a recursive game's values
    game = play_game(make_recursive_adversary(3, 1, pin_horizon=200), RoundRobinPolicy(), budget=200)
    draws = [random_instance(rng, n=rng.randint(1, 4), m=rng.randint(1, 30), k=rng.randint(1, 4)) for _ in range(30)]
    for inst in draws + [game.instance]:
        for agent in range(1, inst.n + 1):
            bundles = [[] for _ in range(inst.n)]
            for j in range(1, inst.m + 1):
                rng.choice(bundles).append(j)
            column = inst.agent_values(agent)
            want = max(sum((column[j - 1] for j in bundle), Fraction(0)) for bundle in bundles)
            assert witness_max_bundle(inst, agent, bundles) == want


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
            agent_mms(inst, 1, [bad])


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
        agent_mms(inst, 1, [singletons])
    entry = agent_mms(inst, 1, [[list(range(1, 16)), list(range(16, 31))]])
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


def test_common_scale_matches_math_lcm():
    """The largest denominator stands in for the lcm only when every other one divides it."""
    rng = random.Random(97)
    big = rng.getrandbits(1000) | (1 << 999)
    for trial in range(300):
        kind = trial % 5
        if kind == 0:  # nested powers: every denominator divides the largest
            base = rng.choice([2, 3, 6, 10])
            dens = [base ** rng.randint(0, 40) for _ in range(rng.randint(1, 8))]
        elif kind == 1:  # pairwise coprime
            dens = rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23], rng.randint(2, 5))
        elif kind == 2:  # a single denominator
            dens = [rng.randint(1, 10 ** 6)]
        elif kind == 3:  # thousand-bit ints: a divisor chain of the big one, then maybe a stray
            dens = [big, big * 3, big * 12, big * 12 * rng.getrandbits(900)]
            if trial % 2:
                dens.append(big + 2 * rng.getrandbits(500) + 1)
        else:  # small random sets, mostly not a chain
            dens = [rng.randint(1, 60) for _ in range(rng.randint(1, 6))]
        top = 1 if kind in (0, 3) else 10 ** 6  # numerator 1 keeps a divisor chain after reduction
        values = [Fraction(rng.randint(1, top), d) for d in dens for _ in range(rng.randint(1, 3))]
        common, scaled = common_scale(values)
        assert common == math.lcm(*{v.denominator for v in values})
        assert scaled == [v.numerator * (common // v.denominator) for v in values]
    assert common_scale([]) == (1, [])


def test_common_scale_walks_a_divisibility_chain_as_the_lcm_path_scales(monkeypatch):
    """Denominators that form a divisibility chain, some of them thousands of
    bits long, are scaled with no lcm taken, as are those that all divide
    the largest without a chain; a stray denominator that does not divide
    it takes the lcm. All agree with the lcm reference."""
    rng = random.Random(113)
    lcms = []
    monkeypatch.setattr(core_module, "lcm", lambda *dens: lcms.append(dens) or math.lcm(*dens))
    chains = off_chain = 0
    for trial in range(300):
        dens = [rng.randint(1, 50)]
        for _ in range(rng.randint(0, 40)):
            dens.append(dens[-1] * rng.choice((1, 2, 3, 5, rng.getrandbits(80) | 1)))
        if trial % 3 == 0:  # a stray that is not in the chain
            dens.append(rng.choice(dens) * rng.randint(2, 9) + 1)
        elif trial % 6 == 2:  # divisors of the largest, off the chain: {12, 6, 4} and the like
            dens += [dens[-1] * 12 // rng.choice((4, 3, 6, 2)), dens[-1] * 12]
        # numerator 1 keeps each denominator; others may reduce it off the chain
        values = [Fraction(1 if trial % 3 == 1 else rng.randint(1, 10 ** 6), d) for d in dens]
        rng.shuffle(values)
        lcms.clear()
        common, scaled = common_scale(values)
        want = math.lcm(*{v.denominator for v in values})
        assert common == want and scaled == [v.numerator * (want // v.denominator) for v in values]
        reduced = sorted({v.denominator for v in values}, reverse=True)
        chain = all(hi % lo == 0 for hi, lo in zip(reduced, reduced[1:]))
        divide = all(reduced[0] % d == 0 for d in reduced)
        chains += chain
        off_chain += divide and not chain
        assert len(lcms) == (not divide)
    assert 100 <= chains <= 250, chains
    assert off_chain >= 20, off_chain


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
    # equal values scattered through the stream, in runs grouped in the order
    # the positions come (all, a sorted subset or an unsorted one), and values
    # of over 4000 bits, as in the recursive game's scaled columns
    rng = random.Random(97)
    for trial in range(1200):
        n, m = rng.randint(2, 8), rng.randint(0, 60)
        pool = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]  # few values: ties everywhere
        if trial % 3 == 2:
            pool = [u << 4100 for u in pool] + [3 ** 2600 + u for u in pool]
        values = [rng.choice(pool) for _ in range(m)]
        positions = None if trial % 4 == 0 else rng.sample(range(m), rng.randint(0, m))
        if trial % 4 == 1:
            positions.sort()
        assert lpt_partition(values, n, positions) == _scan_lpt(values, n, positions)


def test_lpt_partition_matches_the_scan_at_stream_scale():
    # long runs of equal values go round by round; runs shorter than n, and
    # big values that leave the loads unbalanced when a run starts, go item by item
    rng = random.Random(103)
    cases = [(5, [50] * 3 + [7] * 1000 + [3] * 2 + [1] * 995), (8, [9] * 7 + [2] * 1993)]
    for _ in range(60):
        n, k = rng.randint(2, 8), rng.randint(1, 4)
        pool = rng.sample([1, 2, 3, 5, 8, 64, 1000, 3 ** 40], k)
        values = [v for v in pool for _ in range(rng.choice((rng.randint(0, n - 1), rng.randint(n, 2000 // k))))]
        rng.shuffle(values)
        cases.append((n, values))
    for trial, (n, values) in enumerate(cases):
        m = len(values)
        positions = None if trial % 2 else sorted(rng.sample(range(m), rng.randint(0, m)))
        assert lpt_partition(values, n, positions) == _scan_lpt(values, n, positions)
        assert lpt_partition(values, n) == _scan_lpt(values, n)


def _stage_draw(rng, trial, m):
    """m values: few small ones (ties everywhere), a few of over 4000 bits,
    or all distinct (k = m, the shape of the recursive game's columns)."""
    if trial % 3 == 2:
        values = rng.sample(range(1, 10 ** 6), m)
        return [v << 4100 for v in values] if trial % 2 else values
    pool = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
    if trial % 3 == 1:
        pool = [u << 4100 for u in pool] + [3 ** 2600 + u for u in pool]
    return [rng.choice(pool) for _ in range(m)]


def test_lpt_stages_match_the_scan():
    # stage 1 on a count vector alone gives the load lpt_partition and the
    # scan give, and stage 2 deals the scan's bundles from its schedule,
    # on all items or on a subset of positions
    rng = random.Random(151)
    for trial in range(1500):
        n, m = rng.randint(2, 8), rng.randint(0, 80)
        values = _stage_draw(rng, trial, m)
        load = lpt_schedule(sorted(Counter(values).items(), reverse=True), n)[0]
        assert load == lpt_partition(values, n)[0] == _scan_lpt(values, n)[0]
        positions = sorted(rng.sample(range(m), rng.randint(0, m)))
        runs = {}
        for p in positions:
            runs.setdefault(values[p], []).append(p + 1)
        ordered = sorted(runs.items(), reverse=True)
        load, schedule = lpt_schedule([(v, len(run)) for v, run in ordered], n)
        bundles = lpt_deal(schedule, [run for _, run in ordered], n)
        assert (load, bundles) == lpt_partition(values, n, positions) == _scan_lpt(values, n, positions)


def _lpt_witness(inst, agent):
    """The largest-first partition of one agent's items, placed item by item."""
    return tuple(map(tuple, lpt_partition(common_scale(inst.agent_values(agent))[1], inst.n)[1]))


def test_witness_past_the_guard_is_dealt_on_first_read():
    # agent_mms schedules the agent's count vector; the witness, dealt from
    # that schedule when first read, is the partition lpt_partition places
    rng = random.Random(157)
    for trial in range(120):
        n = rng.randint(2, 8)
        m = exact_search_limit(n) + rng.randint(1, 60)
        columns = [_stage_draw(rng, trial, m) for _ in range(n)]
        inst = Instance(n, tuple(tuple(Fraction(v, 7) for v in row) for row in zip(*columns)))
        for agent, record in enumerate(mms_report(inst), 1):
            assert "witness" not in vars(record) and record.exact is None
            common, scaled = common_scale(inst.agent_values(agent))
            assert record.upper == Fraction(lpt_partition(scaled, n)[0], common)
            assert record.witness == _lpt_witness(inst, agent) and "witness" in vars(record)
            assert witness_max_bundle(inst, agent, record.witness) == record.upper


def test_run_past_the_guard_deals_no_witness(tmp_path, monkeypatch):
    # a spy on the dealing stage: fairdiv run reads no witness and deals
    # none; fairdiv mms, certify_ratio and an n=3 adversary game deal theirs
    # and get the partition lpt_partition places item by item
    dealt = []
    deal = adversary_module.lpt_deal
    monkeypatch.setattr(adversary_module, "lpt_deal", lambda *args: dealt.append(1) or deal(*args))
    pg = GeneratorConfig(n=4, m=80, k=4, D=Fraction(8), value_grid="powers-of-two", seed=3)
    bv = GeneratorConfig(n=4, m=120, k=2, D=Fraction(4), value_grid="adversarial-near-threshold", seed=4)
    for policy, cfg in (("pressure-greedy", pg), ("bi-value", bv)):
        inst = generate_instance(cfg)
        assert inst.m > exact_search_limit(inst.n)
        path, out = tmp_path / f"{policy}.json", tmp_path / f"{policy}-allocation.json"
        path.write_text(instance_to_json(inst) + "\n")
        argv = ["run", "--in", str(path), "--policy", policy, "--out", str(out),
                "--trace", str(tmp_path / "trace.jsonl"), "--report", str(tmp_path / "report.json")]
        assert main(argv) == 0 and dealt == []
        witnesses = [_lpt_witness(inst, agent) for agent in range(1, inst.n + 1)]
        assert main(["mms", "--in", str(path), "--out", str(tmp_path / "mms.json")]) == 0
        records = json.loads((tmp_path / "mms.json").read_text())
        assert [tuple(map(tuple, r["witness_partition"])) for r in records] == witnesses
        assert [c.witness for c in certify_ratio(inst, load_allocation(out.read_text()))] == witnesses
        assert len(dealt) == 2 * inst.n
        dealt.clear()
    files = {flag: tmp_path / f"game{flag}" for flag in ("--out-instance", "--out-certificate")}
    argv = ["adversary", "run", "--n", "3", "--eps", "1", "--budget", "60"]
    assert main(argv + [x for flag, path in files.items() for x in (flag, str(path))]) == 0
    cert = json.loads(files["--out-certificate"].read_text())
    assert cert["budget_exhausted"] and cert["mms_source"] == "witness" and len(dealt) == 3  # certify_ratio
    inst = load_instance(files["--out-instance"].read_text())
    assert tuple(map(tuple, cert["witness"])) == _lpt_witness(inst, cert["agent"])


def test_exact_records_deal_their_witness_on_first_read():
    # within the guard too a record holds no n bundles until its witness is
    # read: n bundles per record would make the report quadratic in n
    import tracemalloc

    n = 2000
    inst = Instance(n, ((Fraction(1),) * n,) * 2)
    inst.columns  # built once, before the count
    tracemalloc.start()
    try:
        report = mms_report(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert all("witness" not in vars(record) and record.exact == 1 for record in report)
    assert report[-1].witness == ((1,), (2,)) + ((),) * (n - 2)


def test_largest_first_never_above_the_type_union_load():
    # why agent_mms tries no type-union partition: placing c equal items of
    # size u greedily raises the max load by at most u*ceil(c/n)
    rng = random.Random(101)
    for _ in range(2000):
        n, m = rng.randint(1, 8), rng.randint(0, 60)
        pool = [rng.randint(1, 30) for _ in range(rng.randint(1, 5))]
        values = [rng.choice(pool) for _ in range(m)]
        assert lpt_partition(values, n)[0] <= type_union_partition(values, n)[0]


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
        assert mms_report(inst) == [_fraction_agent_mms(inst, agent, ()) for agent in range(1, n + 1)]
        for agent in range(1, n + 1):
            assert agent_mms(inst, agent, witnesses) == _fraction_agent_mms(inst, agent, witnesses)
        if past_guard:  # agent 1's record is a supplied witness, not the built-in it ties
            assert agent_mms(inst, 1, witnesses).witness in [tuple(map(tuple, w)) for w in witnesses]


def _reference_mms_exact(values, n):
    """The branch and bound with its old stop value, max(average, largest
    item, ceil(m/n) smallest items): it proves optimality before it stops.
    The reference for the count-vector bound, which may change no output."""
    m = len(values)
    common, vals = common_scale(values)
    order = sorted(range(m), key=vals.__getitem__, reverse=True)
    svals = [vals[p] for p in order]
    lower = max(Fraction(sum(vals), n), svals[0], sum(sorted(vals)[: -(-m // n)]))
    best, greedy = lpt_partition(vals, n)
    best_assign = None
    assign = [0] * m

    def search(t, loads, curmax):
        nonlocal best, best_assign
        if curmax >= best or best == lower:
            return
        if t == m:
            best = curmax
            best_assign = assign[:m].copy()
            return
        seen_loads = set()
        for b in range(n):
            if loads[b] in seen_loads:
                continue
            seen_loads.add(loads[b])
            new_load = loads[b] + svals[t]
            if new_load >= best:
                continue
            assign[t] = b
            search(t + 1, loads[:b] + (new_load,) + loads[b + 1 :], max(curmax, new_load))
            if best == lower:
                return

    search(0, (0,) * n, 0)
    partition = [[j - 1 for j in bundle] for bundle in greedy]
    if best_assign is not None:
        partition = [[] for _ in range(n)]
        for t, b in enumerate(best_assign):
            partition[b].append(order[t])
    return Fraction(best, common), tuple(tuple(sorted(bundle)) for bundle in partition)


def test_count_vector_bound_keeps_value_and_witness():
    # below the largest-first load the search starts at incumbent optimum + 1,
    # and must still stop at the leaf the unseeded search keeps
    rng = random.Random(131)
    seeded = 0
    for trial in range(500):
        n = rng.randint(2, 5)
        m = rng.randint(n + 1, exact_search_limit(n))
        if trial % 10 == 0:  # thousand-digit denominators
            pool = [Fraction(rng.randint(1, 10 ** 1100), rng.choice(HUGE)) for _ in range(rng.randint(1, 4))]
        else:  # few small values: ties among items and among loads
            pool = [Fraction(rng.randint(1, 9), rng.choice([1, 2, 3, 4])) for _ in range(rng.randint(1, 4))]
        values = [rng.choice(pool) for _ in range(m)]
        assert mms_exact(values, n) == _reference_mms_exact(values, n), (values, n)
        vals = common_scale(values)[1]
        greedy_load = lpt_partition(vals, n)[0]
        optimum = _count_vector_optimum(vals, n, max(vals), greedy_load)
        seeded += optimum is not None and optimum < greedy_load
    assert seeded >= 30, seeded


def _at_guard_instances():
    """The benchmark's known slow branch-and-bound multisets, as it draws them."""
    workloads = runpy.run_path(os.path.join(ROOT, "perfbench", "workloads.py"), run_name="perfbench_workloads")
    for n, m, grid, k, D in workloads["_AT_GUARD"]:
        for seed in workloads["_AT_GUARD_SEEDS"]:
            yield generate_instance(GeneratorConfig(n=n, m=m, k=k, D=D, value_grid=grid, seed=seed))


def test_count_vector_bound_at_the_guard():
    instances = list(_at_guard_instances())
    assert len(instances) == 12
    for inst in instances:
        assert inst.m == exact_search_limit(inst.n)
        for agent in range(1, inst.n + 1):
            values = inst.agent_values(agent)
            assert mms_exact(values, inst.n) == _reference_mms_exact(values, inst.n)


def test_count_vector_optimum_against_brute_force():
    rng = random.Random(137)
    for trial in range(100):
        n = rng.randint(2, 3)
        m = rng.randint(1, 8)
        pool = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        values = [rng.choice(pool) for _ in range(m)]
        # from no bound at all up to the one-bundle partition, so the
        # binary search runs over every achievable sum
        assert _count_vector_optimum(values, n, 0, sum(values)) == brute_force_mms(values, n), (values, n)


def test_count_vector_optimum_says_when_it_is_not_proven():
    values = list(range(1, 23))  # 2**22 count vectors: past the state limit, no optimum
    assert _count_vector_optimum(values, 2, 127, 130) is None


def _forbid_count_vector_search(monkeypatch):
    def fail(*args):
        raise AssertionError("the count-vector search ran")

    monkeypatch.setattr(mms_module, "_fits", fail)


def test_count_vector_bound_skipped_past_the_state_limit(monkeypatch):
    values = [Fraction(v) for v in range(1, 23)]  # 2**22 count vectors
    expected = _reference_mms_exact(values, 2)
    _forbid_count_vector_search(monkeypatch)
    assert mms_exact(values, 2) == expected == (Fraction(127), expected[1])


def test_count_vector_bound_skipped_when_greedy_meets_the_old_bound(monkeypatch):
    values = [Fraction(4), Fraction(1), Fraction(1), Fraction(2)]  # largest-first: 4 | 2+1+1
    expected = _reference_mms_exact(values, 2)
    _forbid_count_vector_search(monkeypatch)
    assert mms_exact(values, 2) == expected == (Fraction(4), ((0,), (1, 2, 3)))


@pytest.mark.parametrize("bad", [1.5, "1", True, None])
def test_mms_exact_rejects_values_that_are_not_int_or_fraction(bad):
    values = [Fraction(1), bad, 2]
    with pytest.raises(FairdivError, match="ints or Fractions"):
        mms_exact(values, 2)
    # past the guard a refusal still comes first, reading no value
    with pytest.raises(InstanceTooLarge):
        mms_exact(values * 10, 2)


@pytest.mark.parametrize("n", [0, -1, -3])
def test_per_type_shares_need_an_agent(n):
    # a single-type MMS, ceil(count/n) * v, like any MMS needs an agent
    with pytest.raises(FairdivError, match="n must be >= 1"):
        mms_exact([Fraction(2)] * 3, n)
    with pytest.raises(FairdivError, match="n must be >= 1"):
        mms_exact([], n)
