import random
from dataclasses import replace
from fractions import Fraction

import pytest

from fairdiv import (
    Allocation,
    Instance,
    RecursiveAdversary,
    TwoAgentAdversary,
    GeneratorConfig,
    certify_ratio,
    check_O1_O2,
    generate_instance,
    make_recursive_adversary,
    play_game,
    policy_zoo,
    run_online,
    verify_certificate,
)
from fairdiv.adversary import (RatioCertificate, RecGameRecord, agent_mms, greedy_bin_packing, lpt_partition,
                               mms_report, scaled_disutilities)
from fairdiv.allocator import DumpToOnePolicy, ExternalPolicy, PressureGreedyPolicy, RoundRobinPolicy
from fairdiv.core import FairdivError, ValueTables
from fairdiv.harness import GRID_NAMES
from fairdiv.mms import AgentMms, InstanceTooLarge, common_scale, exact_search_limit, mms_exact, witness_max_bundle

from conftest import fraction_verify_certificate, random_instance, type_union_partition

F = Fraction


def drive(adv, choices):
    """Feed a fixed take sequence; returns the emission list."""
    emitted = []
    for agent in choices:
        emitted.append(adv.next_item())
        adv.observe(agent)
    return emitted


# two-agent emissions ----------------------------------------------------------

def test_n2_first_item_and_geometric_growth():
    adv = TwoAgentAdversary(F(1, 2))
    assert adv.eps1 == F(1, 4) and adv.eps2 == F(1, 6)
    emitted = drive(adv, [1])
    assert emitted[0] == (1, 1)
    d = adv.next_item()
    assert d[1] == 6  # agent 2 took nothing: d2 = d2([1]) / eps2
    assert d[0] == 1  # agent 1 took item 1: value stays


def test_n2_skip_multiplies_by_four():
    adv = TwoAgentAdversary(F(1, 2))
    drive(adv, [2])  # agent 1 skipped item 1
    d = adv.next_item()
    assert d[0] == 4  # d1 / eps1 with eps1 = 1/4


def test_n2_after_first_take_crumbs():
    adv = TwoAgentAdversary(F(1, 2))
    drive(adv, [2])  # j_2^(1) = 1, V2 = 1
    d = adv.next_item()
    adv.observe(2)  # agent 2 takes again
    assert d[1] == F(1, 6)  # eps2 * V2
    d = adv.next_item()
    assert d[1] == F(1, 6)


def test_n2_echo_after_agent1_take():
    adv = TwoAgentAdversary(F(1, 2))
    drive(adv, [2, 1])
    d = adv.next_item()
    assert d[1] == 1  # agent 2 skipped the last item: echo of V2


def test_n2_dump_to_one_certificate():
    res = play_game(TwoAgentAdversary(F(1, 2)), DumpToOnePolicy(), budget=10000)
    assert res.certified and res.rounds == 2
    cert = res.certificate
    assert cert.agent == 1 and cert.ratio_lower >= F(8, 5)
    assert verify_certificate(res.instance, res.allocation, cert)


def test_n2_starved_agent1_certificate():
    res = play_game(TwoAgentAdversary(F(1, 2)), ExternalPolicy(lambda d: 2), budget=10000)
    assert res.certified
    cert = res.certificate
    assert cert.agent == 2 and cert.ratio_lower >= F(2) / (1 + F(1, 6))
    assert verify_certificate(res.instance, res.allocation, cert)


def test_n2_forced_echo_certificate_matches_bound():
    # agent 2 takes items 1..4, agent 1 takes item 5, agent 2 forced at 6
    script = iter([2, 2, 2, 2, 1, 2])
    res = play_game(TwoAgentAdversary(F(1, 2)), ExternalPolicy(lambda d: next(script)), budget=10)
    assert res.certified
    cert = res.certificate
    adv_bound = (1 + ((5 - 1) // 2 + 1) * F(1, 6)) * 1  # (1+(floor((j*-j2)/2)+1)eps2) * V2
    assert cert.agent == 2 and cert.mms_upper <= adv_bound
    assert verify_certificate(res.instance, res.allocation, cert)


def test_n2_budget_zero_trivial():
    res = play_game(TwoAgentAdversary(F(1, 2)), DumpToOnePolicy(), budget=0)
    assert res.budget_exhausted and not res.certified
    assert res.certificate.ratio_lower >= 1


@pytest.mark.parametrize("n", [2, 3])
def test_play_game_instance_equals_the_adversarys(n):
    """play_game builds its instance from its trace's codes; the adversary's
    own instance(), interned afresh from the emissions, is the reference."""
    for policy in policy_zoo():
        for budget in (0, 1, 150):
            adv = TwoAgentAdversary(F(1, 2)) if n == 2 else make_recursive_adversary(3, F(1), pin_horizon=150)
            res = play_game(adv, policy, budget=budget)
            ref = adv.instance()
            assert res.instance == ref, (policy.name, budget)
            assert (res.instance.values, res.instance.codes) == (ref.values, ref.codes), (policy.name, budget)


def test_n2_emissions_deterministic():
    a1 = TwoAgentAdversary(F(1, 2))
    a2 = TwoAgentAdversary(F(1, 2))
    seq = [2, 1, 2, 2, 1, 2]
    assert drive(a1, seq) == drive(a2, seq)


# recursive adversary ------------------------------------------------------------

def test_base_level_constant_stream():
    adv = RecursiveAdversary(n_total=3, level=1, eps=F(1))
    assert drive(adv, [1, 1]) == [(F(1),), (F(1),)]


def test_cleanup_scaling_after_own_take():
    # n=2 recursive: agent 2 takes item 1, so the restarted sub-stream is
    # scaled by d_1([1]) / eps_sub = 1 / (1/2) = 2.
    adv = RecursiveAdversary(n_total=2, level=2, eps=F(1), pin_horizon=10)
    emitted = drive(adv, [2])
    assert emitted[0] == (1, 1)
    d = adv.next_item()
    assert d[0] == 2  # fresh sub-instance value 1, scaled by sums/eps_sub


def test_post_take_crumb_is_a1():
    adv = RecursiveAdversary(n_total=2, level=2, eps=F(1), pin_horizon=10)
    drive(adv, [2])
    d = adv.next_item()
    # a_1 = V / u_{T+1} with T = n = 2: u = (1, 11, 121), so a_1 = 1/121
    assert d[1] == F(1, 121)


def test_geometric_growth_until_first_own_take():
    adv = RecursiveAdversary(n_total=3, level=3, eps=F(1), pin_horizon=50)
    drive(adv, [1, 1])
    d = adv.next_item()
    # eps3 = 1/18: d3(2) = 18, d3(3) = (1+18)*18
    assert d[2] == 19 * 18


def test_rec_n2_reaches_own_target():
    adv = make_recursive_adversary(2, F(1), pin_horizon=100)
    res = play_game(adv, ExternalPolicy(lambda d: 2), budget=1000)
    assert res.certified and res.rounds == 122
    assert res.record.j_dagger == 122
    assert verify_certificate(res.instance, res.allocation, res.certificate)
    rep = check_O1_O2(res.record)
    assert rep.o1_ok and rep.o2_ok and rep.o1_checked > 0


def test_rec_n3_bin_packing_path():
    adv = make_recursive_adversary(3, F(1), pin_horizon=1)
    res = play_game(adv, ExternalPolicy(lambda d: 3), budget=200)
    assert res.certified and res.record.j_dagger is not None
    assert res.certificate.agent == 3
    assert res.certificate.ratio_lower > 2  # n - eps
    assert verify_certificate(res.instance, res.allocation, res.certificate)
    rep = check_O1_O2(res.record)
    assert rep.o1_ok and rep.o2_ok


def test_rec_n3_window_lift_on_starvation():
    adv = make_recursive_adversary(3, F(1), pin_horizon=2000)
    res = play_game(adv, DumpToOnePolicy(), budget=2000)
    assert res.certified and res.rounds == 3
    assert res.certificate.ratio_lower > 2
    kinds = [e.kind for e in res.record.events]
    assert kinds == ["base-window", "lifted", "lifted"]
    assert all(e.strict for e in res.record.events)


def test_rec_roundrobin_truncated_run():
    adv = make_recursive_adversary(3, F(1), pin_horizon=300)
    res = play_game(adv, RoundRobinPolicy(), budget=300)
    assert res.budget_exhausted
    rep = check_O1_O2(res.record)
    assert rep.o1_ok and rep.o2_ok
    assert rep.max_gap <= 3


def test_check_o1_o2_flags_synthetic_violations():
    bad_o2 = RecGameRecord(
        n=3, eps=F(1), eps_own=F(1, 18), rounds=3, takes=(3, 1, 1),
        own_values=(F(1), F(1), F(1)),  # round 2 emits 1 > eps' * V
        V=F(1), own_take_rounds=(1,), j_dagger=None, pin_horizon=5, events=(),
    )
    rep = check_O1_O2(bad_o2)
    assert not rep.o2_ok and rep.o1_ok

    bad_o1 = RecGameRecord(
        n=3, eps=F(1), eps_own=F(1, 18), rounds=2, takes=(1, 3),
        own_values=(F(100), F(1)),  # skipped 100 > eps' * taken at the take round
        V=F(1), own_take_rounds=(2,), j_dagger=None, pin_horizon=5, events=(),
    )
    rep = check_O1_O2(bad_o1)
    assert not rep.o1_ok


def test_check_o1_o2_vacuous_without_takes():
    rec = RecGameRecord(
        n=3, eps=F(1), eps_own=F(1, 18), rounds=2, takes=(1, 2),
        own_values=(F(1), F(18)), V=None, own_take_rounds=(), j_dagger=None,
        pin_horizon=5, events=(),
    )
    rep = check_O1_O2(rec)
    assert rep.o1_ok and rep.o2_ok and rep.o1_checked == 0


# oracle cross-check -------------------------------------------------------------

def test_rec_n3_matches_independent_oracle():
    from conftest import OracleRec3

    for policy, budget in [
        (RoundRobinPolicy(), 120),
        (DumpToOnePolicy(), 60),
        (ExternalPolicy(lambda d: 3), 60),
    ]:
        adv = make_recursive_adversary(3, F(1), pin_horizon=200)
        tables = ValueTables(3)
        policy.start(3, tables.values)
        oracle = OracleRec3(F(1), pin_horizon=200)
        for _ in range(budget):
            d = adv.next_item()
            assert oracle.next() == d
            agent = policy.choose(tables.encode(d))
            adv.observe(agent)
            oracle.observe(agent)


# certificates --------------------------------------------------------------------

def test_certify_single_type_round_robin_is_exact_one():
    inst = Instance(3, tuple(((F(2), F(2), F(2)),) * 9))
    alloc, _ = run_online(inst, RoundRobinPolicy())
    certs = certify_ratio(inst, alloc)
    assert all(c.ratio_lower == 1 and c.mms_source == "exact" for c in certs)


def test_certificates_are_sound():
    rng = random.Random(97)
    for _ in range(10):
        inst = random_instance(rng, n=rng.randint(2, 3), m=rng.randint(4, 9), k=2)
        alloc, _ = run_online(inst, RoundRobinPolicy())
        for cert in certify_ratio(inst, alloc):
            assert verify_certificate(inst, alloc, cert)


def test_bin_packing_helper():
    values = [F(5), F(3), F(3), F(2)]
    bins = greedy_bin_packing(values, [0, 1, 2, 3], 2, capacity=F(7))
    assert bins is not None
    assert all(sum(values[p] for p in b) <= 7 for b in bins)
    assert greedy_bin_packing(values, [0, 1, 2, 3], 2, capacity=F(4)) is None


def test_lpt_partition_covers():
    load, part = lpt_partition([4, 1, 1], 2)
    assert load == 4
    assert sorted(j for b in part for j in b) == [1, 2, 3]


def test_verify_rejects_agent_zero():
    # agent 0 would read agent 2's values through index -1
    inst = Instance(2, ((F(1), F(1)),))
    cert = RatioCertificate(0, F(0), F(1), ((1,),), "witness", F(0))
    assert not verify_certificate(inst, Allocation((1,)), cert)


def test_verify_rejects_agent_past_n():
    inst = Instance(2, ((F(1), F(1)),))
    cert = RatioCertificate(3, F(0), F(1), ((1,),), "witness", F(0))
    assert not verify_certificate(inst, Allocation((1,)), cert)


def test_certify_ratio_rejects_an_item_given_past_n():
    # Allocation.bundles(2) rejects the same allocation with the same words
    inst = Instance(2, ((F(1), F(2)),) * 3)
    with pytest.raises(FairdivError, match="^item 2: agent index 3 exceeds n=2$"):
        certify_ratio(inst, Allocation((1, 3, 2)))


def test_verify_rejects_an_item_given_past_n():
    # agent 1's bundle is item 1 under both allocations
    inst = Instance(2, ((F(1), F(2)),) * 3)
    cert = certify_ratio(inst, Allocation((1, 2, 2)))[0]
    assert verify_certificate(inst, Allocation((1, 2, 2)), cert)
    assert not verify_certificate(inst, Allocation((1, 3, 2)), cert)


def test_verify_rejects_an_allocation_of_other_items():
    inst = Instance(2, ((F(4), F(1)), (F(1), F(1)), (F(1), F(1))))
    cert = certify_ratio(inst, Allocation((1, 2, 2)))[0]
    assert cert.agent == 1 and verify_certificate(inst, Allocation((1, 2, 2)), cert)
    for short_or_long in ((1,), (1, 2), (1, 2, 2, 1)):  # agent 1's bundle is item 1 in each
        assert not verify_certificate(inst, Allocation(short_or_long), cert)
    empty = Instance(2, ())
    (trivial,) = certify_ratio(empty, Allocation(()))
    assert verify_certificate(empty, Allocation(()), trivial)
    assert not verify_certificate(empty, Allocation((1,)), trivial)


def test_scaled_disutilities_match_bundle_disutility():
    rng = random.Random(109)
    game = play_game(make_recursive_adversary(3, 1, pin_horizon=200), PressureGreedyPolicy(), budget=200)
    instances = [random_instance(rng, rng.randint(1, 4), rng.randint(1, 30), rng.randint(1, 4))
                 for _ in range(40)] + [game.instance]
    for inst in instances:
        for alloc in (Allocation(tuple(rng.randint(1, inst.n) for _ in range(inst.m))),
                      Allocation(tuple(rng.randint(1, inst.n) for _ in range(rng.randrange(inst.m + 1))))):
            want = [alloc.bundle_disutility(inst, agent) for agent in range(1, inst.n + 1)]
            assert scaled_disutilities(inst, alloc) == want
    inst = Instance(2, ((F(1), F(2)),))
    with pytest.raises(FairdivError, match="^allocation of 2 items for an instance of 1$"):
        scaled_disutilities(inst, Allocation((1, 2)))


@pytest.mark.parametrize("agent", [True, 1.0])
def test_verify_rejects_an_agent_that_is_not_a_positive_int(agent):
    # True once verified as agent 1, and 1.0 raised TypeError out of witness_max_bundle
    inst = Instance(2, ((F(1), F(1)),))
    cert = RatioCertificate(1, F(1), F(1), ((1,),), "witness", F(1))
    assert verify_certificate(inst, Allocation((1,)), cert)
    bad = RatioCertificate(agent, F(1), F(1), ((1,),), "witness", F(1))
    assert verify_certificate(inst, Allocation((1,)), bad) is False


def test_verify_rederives_an_exact_claim():
    # agent 1's MMS is 6 ([3, 3] against [2, 2, 2]); the witness's max bundle is 7
    inst = Instance(2, tuple((F(v), F(1)) for v in (3, 3, 2, 2, 2)))
    alloc = Allocation((1, 1, 2, 2, 2))
    witness = ((1, 3), (2, 4, 5))
    for source, sound in (("witness", True), ("exact", False)):
        cert = RatioCertificate(1, F(6), F(7), witness, source, F(6, 7))
        assert verify_certificate(inst, alloc, cert) is sound
    cert = RatioCertificate(1, F(6), F(6), ((1, 2), (3, 4, 5)), "exact", F(1))
    assert verify_certificate(inst, alloc, cert)
    # a source the library never writes is rejected, not verified without the re-derivation
    for source in ("Exact", "bogus", ""):
        assert verify_certificate(inst, alloc, replace(cert, mms_source=source)) is False
    # past the search guard no value is claimed exact, even an optimal one
    m = exact_search_limit(2) + 2
    inst = Instance(2, ((F(1), F(1)),) * m)
    halves = (tuple(range(1, m // 2 + 1)), tuple(range(m // 2 + 1, m + 1)))
    for source, sound in (("witness", True), ("exact", False)):
        cert = RatioCertificate(1, F(m), F(m // 2), halves, source, F(2))
        assert verify_certificate(inst, Allocation((1,) * m), cert) is sound


def test_verify_rejects_zero_mms_upper():
    cert = RatioCertificate(1, F(0), F(0), (), "witness", F(1))
    assert not verify_certificate(Instance(2, ()), Allocation(()), cert)


def test_adversary_rejects_bad_observe():
    adv = TwoAgentAdversary(F(1, 2))
    with pytest.raises(FairdivError):
        adv.observe(1)  # no pending item
    adv.next_item()
    with pytest.raises(FairdivError):
        adv.observe(3)


# agent_mms on the instance tables ---------------------------------------------

def _agent_mms_by_rescan(inst, agent, witnesses=()):
    """Reference: ``agent_mms`` scaling all m of the agent's values, not its table."""
    if inst.m == 0:
        return AgentMms(agent, F(0), F(0), F(0), ())
    n = inst.n
    supplied = [(witness_max_bundle(inst, agent, w), w) for w in witnesses]
    common, values = common_scale(inst.agent_values(agent))
    lower = F(max(sum(values), n * max(values)), n * common)
    try:
        exact, positions = mms_exact(values, n)
    except InstanceTooLarge:
        exact = None
        built_in = [lpt_partition(values, n), type_union_partition(values, n)]
        candidates = supplied + [(F(load, common), bundles) for load, bundles in built_in]
        upper, witness = min(candidates, key=lambda c: c[0])
    else:
        exact = upper = exact / common
        witness = [[p + 1 for p in bundle] for bundle in positions]
    return AgentMms(agent, lower, upper, exact, tuple(tuple(b) for b in witness))


def _assert_agent_mms_matches_the_rescan(inst):
    for agent in range(1, inst.n + 1):
        record = agent_mms(inst, agent)
        assert record == _agent_mms_by_rescan(inst, agent)
        scale, table = inst.scaled(agent)  # the table the record was built on
        assert (scale, list(table)) == common_scale(inst.values[agent - 1])


def test_agent_mms_matches_the_rescan_on_random_instances():
    rng = random.Random(107)
    past_guard = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        inst = random_instance(rng, n, rng.randint(1, 30), rng.randint(1, 4))
        past_guard += inst.m > exact_search_limit(n)
        _assert_agent_mms_matches_the_rescan(inst)
    assert 10 <= past_guard <= 50


def test_agent_mms_matches_the_rescan_on_an_adversary_game():
    game = play_game(make_recursive_adversary(3, 1, pin_horizon=300), PressureGreedyPolicy(), budget=300)
    assert game.rounds == 300
    _assert_agent_mms_matches_the_rescan(game.instance)


def test_agent_mms_deals_at_most_n_items_one_a_bundle_without_a_search(monkeypatch):
    # with m <= n the largest item is the MMS and each item sits alone in the
    # first m bundles, as the exact search deals them; no search is made
    from fairdiv import adversary

    rng = random.Random(109)
    instances = []
    for _ in range(80):
        n = rng.randint(1, 40)
        instances.append(random_instance(rng, n, rng.randint(1, min(n, exact_search_limit(n))), rng.randint(1, 3)))
    want = [[_agent_mms_by_rescan(inst, agent) for agent in range(1, inst.n + 1)] for inst in instances]
    searches = []
    monkeypatch.setattr(adversary, "mms_exact", lambda *args: searches.append(args))
    for inst, records in zip(instances, want):
        assert mms_report(inst) == records  # the witnesses too, dealt on read
    assert searches == []
    assert {inst.m == inst.n for inst in instances} == {True, False}


# one integer table per agent: Instance.scaled --------------------------------

def _verify_cases():
    """``(inst, alloc, cert)``: every agent's certificate of the golden corpus's
    pressure-greedy allocations and of random instances (n 2-4, m up to 30,
    all three grids), and the golden games' and an n=4 game's certificates."""
    from test_golden import CORPUS, GAMES

    instances = [make() for make in CORPUS.values()]
    rng = random.Random(151)
    for grid in GRID_NAMES:
        for _ in range(8):
            m = rng.randint(1, 30)
            k = rng.randint(1, min(m, 2 if grid == "adversarial-near-threshold" else 4))
            config = GeneratorConfig(n=rng.randint(2, 4), m=m, k=k, D=Fraction(8), value_grid=grid,
                                     seed=rng.randrange(10**6))
            instances.append(generate_instance(config))
    for inst in instances:
        alloc, _ = run_online(inst, PressureGreedyPolicy())
        yield from ((inst, alloc, cert) for cert in certify_ratio(inst, alloc))
    games = [play_game(*make()) for make in GAMES.values()]
    # budget exhausted: the certificate is agent 3's, on a 33k-bit scale
    games.append(play_game(make_recursive_adversary(4, 1, pin_horizon=140), RoundRobinPolicy(), 140))
    yield from ((game.instance, game.allocation, game.certificate) for game in games)


def _tampered(inst, cert):
    """The certificate with d_A, mms_upper or ratio_lower one unit of the agent's
    scale off either way (never sound), then with one witness item moved to
    another bundle, and for another agent."""
    unit = Fraction(1, inst.scaled(cert.agent)[0])
    moved = [replace(cert, **{field: getattr(cert, field) + sign * unit})
             for field in ("d_A", "mms_upper", "ratio_lower") for sign in (1, -1)]
    bundles = [list(b) for b in cert.witness] + [[] for _ in range(inst.n - len(cert.witness))]
    source = next(b for b, bundle in enumerate(bundles) if bundle)
    if inst.n > 1:
        bundles[(source + 1) % inst.n].append(bundles[source].pop())
    other = replace(cert, witness=tuple(map(tuple, bundles)))
    return moved, [other, replace(cert, agent=cert.agent % inst.n + 1)]


def test_integer_verify_agrees_with_the_fraction_reference():
    sound = tampered = rejected = 0
    for inst, alloc, cert in _verify_cases():
        assert verify_certificate(inst, alloc, cert) is fraction_verify_certificate(inst, alloc, cert)
        sound += verify_certificate(inst, alloc, cert)
        if cert.mms_source == "trivial":
            continue
        moved, others = _tampered(inst, cert)
        for bad in moved:
            assert verify_certificate(inst, alloc, bad) is fraction_verify_certificate(inst, alloc, bad) is False
        for bad in others:
            verdict = verify_certificate(inst, alloc, bad)
            assert verdict is fraction_verify_certificate(inst, alloc, bad)
            tampered += 1
            rejected += not verdict
    assert sound > 100 and rejected > tampered // 2


def test_common_scale_runs_once_per_agent_per_instance(monkeypatch):
    # certify_ratio and then verify_certificate, each agent's table built once;
    # mms_exact scales its own integer input, which is not an instance table
    from fairdiv import core

    game = play_game(make_recursive_adversary(3, 1, pin_horizon=200), RoundRobinPolicy(), 200)
    small = Instance(3, tuple((F(j % 4 + 1, 3), F(2), F(j, 7)) for j in range(1, 9)))
    for made in (game.instance, small):
        inst = Instance.from_codes(3, made.values, made.codes)  # no table built yet
        calls = []
        monkeypatch.setattr(core, "common_scale", lambda values: calls.append(1) or common_scale(values))
        alloc, _ = run_online(inst, RoundRobinPolicy())
        certs = certify_ratio(inst, alloc)
        assert all(verify_certificate(inst, alloc, cert) for cert in certs)
        assert {cert.mms_source for cert in certs} == {"exact" if inst.m <= exact_search_limit(3) else "witness"}
        assert len(calls) == inst.n
        monkeypatch.undo()


def test_instance_scaled_rejects_an_agent_outside_1_to_n():
    inst = Instance(2, ((F(1), F(1, 2)), (F(2), F(3, 4)), (F(1), F(1, 4))))
    assert inst.scaled(2) == (4, (2, 3, 1))
    assert inst.scaled(2) is inst.scaled(2)  # built once, kept
    assert Instance(2, ()).scaled(1) == (1, ())
    for agent in (0, -1, 3, True, False, 1.0, "1", None):
        with pytest.raises(FairdivError, match=r"^agent .* outside 1\.\.2$"):
            inst.scaled(agent)


@pytest.mark.parametrize("agent", [0, 3, True])
def test_agent_mms_rejects_an_agent_outside_1_to_n(agent):
    # agent 0 read agent 2's values through index -1, and agent 3 raised IndexError
    for inst in (Instance(2, ((F(1), F(2)), (F(3), F(4)), (F(5), F(6)))), Instance(2, ())):
        with pytest.raises(FairdivError, match="outside 1..2"):
            agent_mms(inst, agent)


@pytest.mark.parametrize("agent", [0, 3, True])
def test_witness_max_bundle_rejects_an_agent_outside_1_to_n(agent):
    inst = Instance(2, ((F(1), F(2)), (F(3), F(4)), (F(5), F(6))))
    with pytest.raises(FairdivError, match="outside 1..2"):
        witness_max_bundle(inst, agent, [[1, 2, 3]])


@pytest.mark.parametrize("agent", [0, 3, True])
def test_bundle_disutility_rejects_an_agent_outside_1_to_n(agent):
    # agents 0 and 3 both read 0
    inst = Instance(2, ((F(1), F(2)), (F(3), F(4)), (F(5), F(6))))
    with pytest.raises(FairdivError, match="outside 1..2"):
        Allocation((1, 2, 1)).bundle_disutility(inst, agent)
