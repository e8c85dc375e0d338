"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison here is exact rational arithmetic; the only tolerances are
the stated wall-clock budgets. Criterion 8's full recursive game is not
desk-reproducible for n >= 3 (values grow like (1/eps')^T and round counts
like n*(1/eps')^T), so it is accepted through truncated 2000-round runs
whose negligibility, clean-up-scaling, and window properties are verified
exactly, as specified.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import functools
import random
import time
from fractions import Fraction

from fairdiv import (
    BoundProfile,
    GeneratorConfig,
    GridGame,
    Instance,
    StackingFunction,
    StackingOperation,
    TwoAgentAdversary,
    allocator_to_stacking,
    apply_operation,
    check_O1_O2,
    check_bound,
    check_mms_decomposition,
    generate_instance,
    integral_F,
    leq_two_plus_sqrt3,
    make_recursive_adversary,
    mms_exact,
    play_game,
    round_up_pow2,
    run_online,
    validate_pressure_trace,
    verify_certificate,
)
from fairdiv.allocator import BiValuePolicy, DumpToOnePolicy, PressureGreedyPolicy
from fairdiv.core import ceil_div
from fairdiv.harness import policy_zoo
from fairdiv.stacking import cells_to_intervals, is_contiguous

from conftest import OracleRec3, random_instance

F = Fraction
H = F(1, 2)


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {text}")


# 1 ---------------------------------------------------------------------------

class CountingPolicy(PressureGreedyPolicy):
    """Pressure-greedy that counts its value classifications."""

    def start(self, n, raw_values):
        super().start(n, raw_values)
        self.classified = 0

    def _value_type(self, agent, value):
        self.classified += 1
        return super()._value_type(agent, value)


def test_criterion_1_round_robin_exactness():
    rng = random.Random(1001)
    t0 = time.time()
    for _ in range(200):
        n = rng.randint(1, 50)
        m = rng.randint(1, 1000)
        values = [F(rng.randint(1, 64), rng.randint(1, 8)) for _ in range(n)]
        inst = Instance(n, tuple(tuple(values) for _ in range(m)))
        policy = CountingPolicy()
        alloc, _ = run_online(inst, policy)
        assert policy.classified == n  # one value per agent, classified once
        cap = ceil_div(m, n)
        counts = [0] * n
        for a in alloc.assignment:
            counts[a - 1] += 1
        assert all(c <= cap for c in counts)
        worst = max(F(counts[i]) * values[i] / (cap * values[i]) for i in range(n))
        assert worst == 1
    elapsed = time.time() - t0
    assert elapsed < 5, f"took {elapsed:.2f}s"
    report(1, f"200 single-type instances, every bundle <= ceil(m/n), max ratio exactly 1 ({elapsed:.2f}s)")


# 2 ---------------------------------------------------------------------------

def random_grid_step(rng, game):
    """A random move ``(a, b, A cells, B cells)``: a = |B| t and b = |A| t, so a|A| = b|B|.

    t = min(num/den, tmax) with tmax = min(1/max(|A|, |B|), 2/cpu) and
    num = max(1, int(tmax*den*u)). It is drawn in integers with the same rng
    calls and float products as in Fractions: tmax*den as a float is
    tp*den/tq, correctly rounded either way.
    """
    cpu = game.cells_per_unit
    cells_a = rng.randint(1, cpu - 1)
    big = max(cells_a, cpu - cells_a)
    tp, tq = (1, big) if cpu <= 2 * big else (2, cpu)
    den = rng.choice([1, 2, 3, 4, 5, 6])
    num = max(1, int(tp * den / tq * rng.random()))
    a, b = _grid_move(cells_a, cpu, num, den, tp, tq)
    chosen = sorted(rng.sample(range(game.Q), cpu))
    return a, b, chosen[:cells_a], chosen[cells_a:]


@functools.cache
def _grid_move(cells_a, cpu, num, den, tp, tq):
    """(a, b) for t = min(num/den, tp/tq): the only Fractions a move needs, built once."""
    t = F(num, den) if num * tq <= tp * den else F(tp, tq)
    return (cpu - cells_a) * t, cells_a * t


def test_criterion_2_stacking_invariants():
    rng = random.Random(1002)
    t0 = time.time()
    scale = 720  # lcm of the generator's a/b denominators times any cell split
    for k in (1, 2, 3):
        for seq in range(1000):
            cpu = rng.choice([2, 3, 4, 6])
            game = GridGame(k=k, cells_per_unit=cpu, scale=scale)
            for _ in range(200):
                a, b, a_cells, b_cells = random_grid_step(rng, game)
                game.apply_cells(a, b, a_cells, b_cells, need_order=False)
                assert game.integral_is_zero()
                assert game.bound_ok(F(2))  # F(x) <= k/2 - 2k x^2 and max f <= 2k
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.2f}s"
    report(2, f"3000 sequences x 200 moves: zero integral, suffix bound, max <= 2k ({elapsed:.2f}s)")


def test_criterion_2_grid_agrees_with_reference_engine():
    # the bulk sweep above runs on the grid engine; spot-check it against the
    # general rational-interval engine step by step
    rng = random.Random(2002)
    for k in (1, 2, 3):
        for _ in range(3):
            cpu = rng.choice([2, 3, 4])
            game = GridGame(k=k, cells_per_unit=cpu, scale=720)
            f = StackingFunction.zero()
            for _ in range(40):
                a, b, a_cells, b_cells = random_grid_step(rng, game)
                game.apply_cells(a, b, a_cells, b_cells)
                op = StackingOperation(
                    a=a, b=b,
                    A=cells_to_intervals(game.Q, a_cells),
                    B=cells_to_intervals(game.Q, b_cells),
                    k=k,
                )
                f = apply_operation(f, op)
                assert game.to_function() == f
                assert check_bound(f, BoundProfile(k=k)).passed == game.bound_ok(F(2))


# 3 ---------------------------------------------------------------------------

def test_criterion_3_contiguify_dominance():
    from fairdiv import contiguify

    rng = random.Random(1003)
    checked = 0
    while checked < 500:
        k = rng.choice([1, 2, 3])
        cpu = rng.choice([3, 4, 6])
        game = GridGame(k=k, cells_per_unit=cpu, scale=720)
        for _ in range(rng.randint(0, 8)):
            a, b, a_cells, b_cells = random_grid_step(rng, game)
            game.apply_cells(a, b, a_cells, b_cells)
        f = game.to_function()
        a, b, a_cells, b_cells = random_grid_step(rng, game)
        op = StackingOperation(
            a=a, b=b,
            A=cells_to_intervals(game.Q, a_cells),
            B=cells_to_intervals(game.Q, b_cells),
            k=k,
        )
        if is_contiguous(op):
            continue
        plain = apply_operation(f, op)
        tilde = apply_operation(f, contiguify(op))
        for x in set(plain.breakpoints()) | set(tilde.breakpoints()):
            assert integral_F(tilde, x) >= integral_F(plain, x)
        checked += 1
    report(3, "500 non-contiguous moves dominated pointwise by their contiguified form")


# 4 ---------------------------------------------------------------------------

def test_criterion_4_reduction_consistency():
    rng = random.Random(1004)
    t0 = time.time()
    max_pressure_ratio = F(0)
    for _ in range(200):
        n = rng.randint(2, 8)
        k = rng.randint(1, 4)
        m = rng.randint(k, 200)
        grid = rng.choice(["powers-of-two", "uniform-rational"])
        D = F(2) ** (k - 1) if grid == "powers-of-two" else F(rng.randint(max(2, k), 12))
        inst = generate_instance(GeneratorConfig(n=n, m=m, k=k, D=D, value_grid=grid, seed=rng.randrange(10**6)))
        _, trace = run_online(inst, PressureGreedyPolicy())
        # inside: each move checks its n touched cells against their pressures, and
        # the end of the replay checks the whole grid against the sorted pressures
        res = allocator_to_stacking(trace)
        check = validate_pressure_trace(trace)
        assert res.check == check  # the reduction rides on the validator's replay
        assert check.passed
        assert F(check.max_scaled_pressure, n - 1) <= 2 * res.k
        # reduction moves have a+b = n/(n-1), so the sharper bound profile holds
        bound = check_bound(res.game.to_function(), BoundProfile(k=res.k, beta=F(n, n - 1)))
        assert bound.passed
        assert res.game.bound_margin(F(n, n - 1)) == bound.margin  # run_experiment's margin
        if res.k:
            max_pressure_ratio = max(max_pressure_ratio, F(check.max_scaled_pressure, (n - 1) * res.k))
    elapsed = time.time() - t0
    assert elapsed < 30, f"took {elapsed:.2f}s"
    report(4, f"200 traces reduced consistently; max pressure/k = {max_pressure_ratio} <= 2 ({elapsed:.2f}s)")


# 5 ---------------------------------------------------------------------------

def test_criterion_5_end_to_end_upper_bound():
    rng = random.Random(1005)
    for _ in range(300):
        n = rng.randint(2, 4)
        k = rng.randint(1, 4)
        m = rng.randint(k, 14)
        inst = random_instance(rng, n=n, m=m, k=k)
        exact = [mms_exact(inst.agent_values(i), n)[0] for i in range(1, n + 1)]
        alloc, trace = run_online(inst, PressureGreedyPolicy())
        k_rounded = validate_pressure_trace(trace).game_k
        for i in range(1, n + 1):
            assert alloc.bundle_disutility(inst, i) <= (8 * k_rounded + 2) * exact[i - 1]
        dump, _ = run_online(inst, DumpToOnePolicy())
        for i in range(1, n + 1):
            assert dump.bundle_disutility(inst, i) <= n * exact[i - 1]
    report(5, "300 instances: greedy within (8k+2)*MMS, dump-to-one within n*MMS, exact")


# 6 ---------------------------------------------------------------------------

def test_criterion_6_bi_value_bound():
    rng = random.Random(1006)
    for trial in range(300):
        n = rng.randint(2, 4)
        k = rng.choice([1, 2, 2, 2])
        m = rng.randint(max(k, 3), 14)
        grid = rng.choice(["adversarial-near-threshold", "powers-of-two", "uniform-rational"])
        D = F(4) if grid != "uniform-rational" else F(6)
        if grid == "powers-of-two" and k == 2:
            D = F(2)
        inst = generate_instance(GeneratorConfig(n=n, m=m, k=k, D=D, value_grid=grid, seed=trial))
        policy = BiValuePolicy()
        alloc, _ = run_online(inst, policy)
        assert not policy.fell_back  # bi-value promise held
        for i in range(1, n + 1):
            exact = mms_exact(inst.agent_values(i), n)[0]
            assert leq_two_plus_sqrt3(alloc.bundle_disutility(inst, i), exact)
        assert policy.max_pressure_seen() <= 2 + F(1, n - 1)
    report(6, "300 bi-valued instances within (2+sqrt(3))*MMS, pressure <= 2+1/(n-1)")


def test_criterion_6_rounding_can_lose_to_merging():
    # frozen family from the adversarial-near-threshold generator: plain
    # power-of-two rounding keeps two types where merging is better
    cfg = GeneratorConfig(n=3, m=12, k=2, D=F(4), value_grid="adversarial-near-threshold", seed=1)
    inst = generate_instance(cfg)
    plain, _ = run_online(inst, PressureGreedyPolicy())
    merged, _ = run_online(inst, BiValuePolicy())
    exact = [mms_exact(inst.agent_values(i), 3)[0] for i in range(1, 4)]
    worst_plain = max(plain.bundle_disutility(inst, i) / exact[i - 1] for i in range(1, 4))
    worst_merged = max(merged.bundle_disutility(inst, i) / exact[i - 1] for i in range(1, 4))
    assert worst_plain > worst_merged
    report(6, f"family where plain rounding ({worst_plain}) beats bi-value ({worst_merged}) exists")


# 7 ---------------------------------------------------------------------------

def test_criterion_7_two_agent_impossibility():
    eps = F(1, 2)
    for policy in policy_zoo():
        t0 = time.time()
        res = play_game(TwoAgentAdversary(eps), policy, budget=10_000)
        elapsed = time.time() - t0
        assert res.certified and res.rounds <= 10_000
        cert = res.certificate
        assert cert.ratio_lower > F(3, 2)
        assert verify_certificate(res.instance, res.allocation, cert)
        if res.instance.m <= 20:
            exact = mms_exact(res.instance.agent_values(cert.agent), 2)[0]
            assert cert.mms_upper >= exact
            assert cert.d_A / exact > F(3, 2)
        assert elapsed < 60
    report(7, "all 9 zoo policies certified above 3/2 by the two-agent game")


# 8 ---------------------------------------------------------------------------

def test_criterion_8_recursive_adversary_properties():
    # Full termination for n >= 3 is out of reach at desk scale (values grow
    # like (1/eps')^T per window); the acceptance is the exact verification
    # of the truncated runs below.
    eps = F(1)
    budget = 2000
    any_window = False
    for policy in policy_zoo():
        adv = make_recursive_adversary(3, eps, pin_horizon=budget)
        res = play_game(adv, policy, budget=budget)
        record = res.record

        # (a) negligibility: O1 at every take-point prefix, O2 for every item
        rep = check_O1_O2(record)
        assert rep.o1_ok and rep.o2_ok, rep.failures

        # (b) clean-up scaling identity, recomputed independently: replay the
        # take sequence through the flat oracle and demand equal emissions
        oracle = OracleRec3(eps, pin_horizon=budget)
        sums = [F(0)] * 3
        scale_check = [F(1), F(1)]
        for r in range(record.rounds):
            d = res.instance.items[r]
            assert oracle.next() == d
            # at every window start, d_i(j*+1) must equal d_i([j*])/eps_sub
            if r > 0 and record.takes[r - 1] == 3:
                for i in (0, 1):
                    assert d[i] == scale_check[i]
            for i in range(3):
                sums[i] += d[i]
            if record.takes[r] == 3:
                scale_check = [sums[0] / (eps / 3), sums[1] / (eps / 3)]
            oracle.observe(record.takes[r])

        # (c) every completed sub-game lifted to a strict (n-eps) crossing
        for event in record.events:
            assert event.strict, event
        if record.events:
            any_window = True
            assert res.certified and res.certificate.ratio_lower > 3 - eps
            assert verify_certificate(res.instance, res.allocation, res.certificate)
    assert any_window  # at least one zoo policy got starved into a full sub-game
    report(8, "truncated recursive runs: O1/O2, clean-up identity, window lifts all exact")


# 9 ---------------------------------------------------------------------------

def test_criterion_9_per_type_sandwich():
    rng = random.Random(1009)
    for _ in range(300):
        n = rng.randint(2, 3)
        k = rng.randint(1, 3)
        m = rng.randint(k, 9 if n == 3 else 10)
        inst = random_instance(rng, n=n, m=m, k=k)
        for check in check_mms_decomposition(inst):
            assert check.passed, check
    report(9, "300 instances: sum(share_u - V_u) <= MMS <= sum(share_u), every agent")


# 10 --------------------------------------------------------------------------

def test_criterion_10_rounding_contract():
    rng = random.Random(1010)
    for _ in range(10_000):
        d = F(rng.randint(1, 10**9), rng.randint(1, 10**9))
        r = round_up_pow2(d)
        assert d <= r < 2 * d
        assert r.numerator & (r.numerator - 1) == 0
        assert r.denominator & (r.denominator - 1) == 0
        assert r.numerator == 1 or r.denominator == 1
    report(10, "10000 rationals: d <= round(d) < 2d and round(d) is a power of two")
