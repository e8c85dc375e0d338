import random
from dataclasses import replace
from fractions import Fraction

import pytest

from fairdiv import (
    BoundProfile,
    GridGame,
    Instance,
    InvariantViolation,
    StackingFunction,
    StackingOperation,
    allocator_to_stacking,
    apply_operation,
    check_bound,
    contiguify,
    integral_F,
    replay_stacking_trace,
    run_online,
)
from fairdiv.allocator import PressureGreedyPolicy, PressureState, RunTrace, validate_pressure_trace
from fairdiv.core import FairdivError, instance_to_json
from fairdiv.harness import GRID_NAMES, GeneratorConfig, generate_instance, run_experiment
from fairdiv.stacking import BoundReport, cells_to_intervals, is_contiguous, stacking_trace_to_jsonl

from conftest import late_opening_trace, random_instance

H = Fraction(1, 2)


def op(a, b, A, B, k):
    return StackingOperation.make(a, b, A, B, k)


def random_operation(rng: random.Random, k: int, f: StackingFunction | None = None):
    """A random valid move with a+b <= 2, on a grid refining f's breakpoints."""
    q = k * rng.choice([2, 3, 4, 6])
    if f is not None:
        for p in f.breakpoints():
            q = q * (p.denominator // __import__("math").gcd(q, p.denominator))
    cells_a = rng.randint(1, q // k - 1)
    cells_b = q // k - cells_a
    tmax = min(Fraction(1, max(cells_a, cells_b)), Fraction(2 * k, q))
    den = rng.randint(1, 8)
    num = rng.randint(1, max(1, int(tmax * den)))
    t = min(Fraction(num, den), tmax)
    a, b = cells_b * t, cells_a * t
    chosen = sorted(rng.sample(range(q), cells_a + cells_b))
    a_cells, b_cells = chosen[:cells_a], chosen[cells_a:]

    def merge(cells):
        out, start, prev = [], None, None
        for c in cells:
            if start is None:
                start = c
            elif c != prev + 1:
                out.append((-H + Fraction(start, q), -H + Fraction(prev + 1, q)))
                start = c
            prev = c
        out.append((-H + Fraction(start, q), -H + Fraction(prev + 1, q)))
        return out

    return op(a, b, merge(a_cells), merge(b_cells), k)


# apply_operation -------------------------------------------------------------

def test_full_swing_k1():
    f1 = apply_operation(StackingFunction.zero(), op(1, 1, [(-H, 0)], [(0, H)], 1))
    assert f1.pieces == ((-H, Fraction(0), Fraction(-1)), (Fraction(0), H, Fraction(1)))


def test_reduction_style_step_k2():
    # one item for n=3 after splitting into six cells: a=1, b=1/2
    f1 = apply_operation(
        StackingFunction.zero(),
        op(1, Fraction(1, 2), [(-H, Fraction(-1, 3))], [(Fraction(-1, 3), 0)], 2),
    )
    assert f1.pieces == (
        (-H, Fraction(-1, 6), Fraction(-1, 2)),
        (Fraction(-1, 6), Fraction(1, 3), Fraction(0)),
        (Fraction(1, 3), H, Fraction(1)),
    )


def test_symmetric_push_raises_max_by_a():
    f1 = apply_operation(
        StackingFunction.zero(),
        op(Fraction(1, 2), Fraction(1, 2), [(Fraction(-1, 4), 0)], [(0, Fraction(1, 4))], 2),
    )
    assert f1.max_value() == Fraction(1, 2)
    assert integral_F(f1, -H) == 0


def test_operation_validation():
    with pytest.raises(FairdivError):
        op(1, 1, [(-H, Fraction(1, 4))], [(Fraction(1, 4), H)], 1)  # |A| != 1/2
    with pytest.raises(FairdivError):
        op(1, 1, [(0, H)], [(-H, 0)], 1)  # A right of B
    with pytest.raises(FairdivError):
        op(2, 1, [(-H, 0)], [(0, H)], 1)  # a > 1


def test_integral_examples():
    f1 = apply_operation(StackingFunction.zero(), op(1, 1, [(-H, 0)], [(0, H)], 1))
    assert integral_F(f1, -H) == 0
    assert integral_F(f1, Fraction(0)) == H
    assert integral_F(f1, H) == 0


def test_check_bound_zero_function():
    rep = check_bound(StackingFunction.zero(), BoundProfile(k=1, beta=Fraction(2)))
    assert rep.passed and rep.margin == H and rep.worst_x == 0


def test_check_bound_tight_function():
    f1 = apply_operation(StackingFunction.zero(), op(1, 1, [(-H, 0)], [(0, H)], 1))
    rep = check_bound(f1, BoundProfile(k=1, beta=Fraction(2)))
    assert rep.passed and rep.margin == 0


def test_check_bound_rejects_excess_max():
    f = StackingFunction.from_pieces([
        (-H, Fraction(-1, 4), Fraction(-3)),
        (Fraction(-1, 4), 0, Fraction(0)),
        (0, Fraction(1, 4), Fraction(0)),
        (Fraction(1, 4), H, Fraction(3)),
    ])
    rep = check_bound(f, BoundProfile(k=1, beta=Fraction(2)))
    assert not rep.passed


def test_invariants_over_random_sequences():
    rng = random.Random(53)
    for k in (1, 2):
        f = StackingFunction.zero()
        for _ in range(25):
            f = apply_operation(f, random_operation(rng, k, f))
            assert integral_F(f, -H) == 0  # exact zero integral
            values = [v for _, _, v in f.pieces]
            assert values == sorted(values)
            assert check_bound(f, BoundProfile(k=k)).passed


# contiguify ------------------------------------------------------------------

def test_contiguify_fixed_point():
    o = op(1, 1, [(Fraction(-1, 4), 0)], [(0, Fraction(1, 4))], 2)
    assert contiguify(o) == o


def test_contiguify_merges_fragments():
    o = op(
        1, 1,
        [(Fraction(-1, 8), 0), (Fraction(1, 8), Fraction(1, 4))],
        [(Fraction(1, 4), H)],
        2,
    )
    c = contiguify(o)
    assert c.A == ((Fraction(0), Fraction(1, 4)),)
    assert c.B == ((Fraction(1, 4), H),)


def test_contiguify_three_fragments_measure():
    o = op(
        Fraction(1, 2), Fraction(1, 2),
        [(-H, Fraction(-3, 8)), (Fraction(-1, 4), Fraction(-3, 16)), (Fraction(-1, 8), Fraction(-1, 16))],
        [(Fraction(0), Fraction(1, 4))],
        2,
    )
    c = contiguify(o)
    assert is_contiguous(c)
    support = sorted(list(c.A) + list(c.B))
    assert support[-1][1] - support[0][0] == H  # |A|+|B| preserved as one interval


def test_contiguify_dominates_pointwise():
    rng = random.Random(59)
    for _ in range(25):
        k = rng.choice([1, 2])
        f = StackingFunction.zero()
        for _ in range(rng.randint(0, 6)):
            f = apply_operation(f, random_operation(rng, k, f))
        o = random_operation(rng, k, f)
        if is_contiguous(o):
            continue
        f_plain = apply_operation(f, o)
        f_tilde = apply_operation(f, contiguify(o))
        points = set(f_plain.breakpoints()) | set(f_tilde.breakpoints())
        for x in points:
            assert integral_F(f_tilde, x) >= integral_F(f_plain, x)


# grid engine ------------------------------------------------------------------

def test_grid_matches_general_engine():
    rng = random.Random(61)
    for k in (1, 2, 3):
        game = GridGame(k=k, cells_per_unit=6, scale=840)
        f = StackingFunction.zero()
        for _ in range(30):
            o = random_operation(rng, k)  # q divides 6k only sometimes; regenerate
            q = 6 * k
            # redo with the game's grid so cells align
            cells_a = rng.randint(1, 5)
            cells_b = 6 - cells_a
            tmax = min(Fraction(1, max(cells_a, cells_b)), Fraction(2 * k, q))
            t = Fraction(rng.randint(1, 4), 4) * tmax
            a, b = cells_b * t, cells_a * t
            chosen = sorted(rng.sample(range(q), 6))

            o = StackingOperation(
                a=a, b=b,
                A=cells_to_intervals(q, chosen[:cells_a]),
                B=cells_to_intervals(q, chosen[cells_a:]),
                k=k,
            )
            game.apply_cells(a, b, chosen[:cells_a], chosen[cells_a:])
            f = apply_operation(f, o)
            assert game.to_function() == f
            assert game.bound_ok(Fraction(2)) == check_bound(f, BoundProfile(k=k)).passed


# reduction --------------------------------------------------------------------

def _replay(res):
    """Yield ``(StackingOperation, StackingFunction)`` per move of ``res``, replayed on a fresh grid."""
    game = GridGame(k=res.k, cells_per_unit=res.n, scale=res.n - 1)
    a, b = Fraction(1), Fraction(1, res.n - 1)
    for raised, lowered in res.steps:
        A, B = cells_to_intervals(game.Q, [raised]), cells_to_intervals(game.Q, lowered)
        game.apply_cells(a, b, [raised], lowered)
        yield StackingOperation(a, b, A, B, res.k), game.to_function()


def test_reduction_empty_trace():
    res = allocator_to_stacking(RunTrace(n=3, policy="pressure-greedy"))
    assert res.steps == [] and res.n == 3
    assert res.game.to_function() == StackingFunction.zero()


def test_reduction_two_agent_oscillation():
    inst = Instance(2, tuple(((Fraction(1), Fraction(1)),) * 6))
    _, trace = run_online(inst, PressureGreedyPolicy())
    res = allocator_to_stacking(trace)
    patterns = [tuple(v for _, _, v in f.pieces) for _, f in _replay(res)]
    assert patterns == [(-1, 1), (0,), (-1, 1), (0,), (-1, 1), (0,)]


def test_reduction_consistency_random():
    rng = random.Random(67)
    for _ in range(10):
        inst = random_instance(rng, n=rng.randint(2, 5), m=rng.randint(5, 40), k=rng.randint(1, 3))
        _, trace = run_online(inst, PressureGreedyPolicy())
        res = allocator_to_stacking(trace)
        beta = Fraction(inst.n, inst.n - 1)
        for _, f in _replay(res):
            assert check_bound(f, BoundProfile(k=res.k, beta=beta)).passed


def test_reduction_rejects_corrupted_trace():
    inst = Instance(2, tuple(((Fraction(1), Fraction(1)),) * 4))
    _, trace = run_online(inst, PressureGreedyPolicy())
    bad = replace(trace, agents=list(trace.agents))
    bad.agents[1] = 1 if trace.agents[1] == 2 else 2
    with pytest.raises(InvariantViolation):
        allocator_to_stacking(bad)


def _skew_at_step(monkeypatch, at, counter):
    """Make ``PressureState.step`` add 1 to the counter ``counter(types,
    winner)`` returns, (agent index, type index), on its ``at``-th call;
    the list returned records every call's winner."""
    real, winners = PressureState.step, []

    def step(self, types, agent=None):
        winner = real(self, types, agent)
        winners.append(winner)
        if len(winners) == at:
            i, u = counter(types, winner)
            self.scaled[i][u] += 1
        return winner

    monkeypatch.setattr(PressureState, "step", step)
    return winners


def _late_switch_trace():
    """n=3: agent 1's first item rounds to 4 and the other eleven to 1, so its
    type-1 counter is touched at step 1 only. A copy, without the run's live
    check, so that the reduction replays it."""
    one = (Fraction(1),) * 3
    return replace(run_online(Instance(3, ((Fraction(4),) + one[1:],) + (one,) * 11), PressureGreedyPolicy())[1])


def test_reduction_end_check_catches_an_untouched_counter(monkeypatch):
    trace = _late_switch_trace()
    winners = _skew_at_step(monkeypatch, 6, lambda types, winner: (0, 0))
    with pytest.raises(InvariantViolation) as raised:
        allocator_to_stacking(trace)
    assert str(raised.value) == "pressure multiset != cell value multiset"
    assert len(winners) == trace.m  # no per-move check saw it: the end of the replay did


def test_reduction_move_check_catches_a_lowered_counter(monkeypatch):
    trace = _late_switch_trace()
    lowered = lambda types, winner: next((i, u - 1) for i, u in enumerate(types) if i != winner - 1)
    winners = _skew_at_step(monkeypatch, 6, lowered)
    with pytest.raises(InvariantViolation) as raised:
        allocator_to_stacking(trace)
    assert str(raised.value) == "pressure multiset != cell value multiset"
    assert len(winners) == 6  # caught on the move of the skewed step


def test_reduction_rejects_out_of_range_indices():
    # validate_pressure_trace makes the same check on every step
    for n in (2, 3):
        inst = Instance(n, tuple(((Fraction(1),) * n,) * 5))
        _, trace = run_online(inst, PressureGreedyPolicy())
        t, a = trace.types[2], trace.agents[2]
        bad = ((0, t), (n + 1, t), (a, (0,) + t[1:]), (a, t[:-1]))
        for agent, types in bad:
            bad_trace = replace(trace, agents=list(trace.agents), types=list(trace.types))
            bad_trace.agents[2], bad_trace.types[2] = agent, types
            with pytest.raises(FairdivError, match="item 3: agent or type indices out of range"):
                allocator_to_stacking(bad_trace)
            with pytest.raises(FairdivError, match="item 3: agent or type indices out of range"):
                validate_pressure_trace(bad_trace)


def test_stacking_trace_replay_roundtrip():
    rng = random.Random(71)
    inst = random_instance(rng, n=3, m=20, k=2)
    _, trace = run_online(inst, PressureGreedyPolicy())
    res = allocator_to_stacking(trace)
    text = stacking_trace_to_jsonl(res)
    report = replay_stacking_trace(text)
    assert report.passed and report.steps == len(res.steps)


def test_stacking_trace_replay_detects_tampering():
    inst = Instance(2, tuple(((Fraction(1), Fraction(1)),) * 4))
    _, trace = run_online(inst, PressureGreedyPolicy())
    res = allocator_to_stacking(trace)
    text = stacking_trace_to_jsonl(res)
    tampered = text.replace('"-1"', '"-2"', 1)
    assert not replay_stacking_trace(tampered).passed


def test_stacking_trace_readback_checks_the_grid_against_the_reference(monkeypatch):
    # the writer records the walked grid, so reading the file back on the
    # reference engine names the first move after which the grid is off;
    # the skew keeps the grid sorted and its integral zero
    inst = random_instance(random.Random(83), n=3, m=20, k=2)
    res = allocator_to_stacking(run_online(inst, PressureGreedyPolicy())[1])
    apply_cells, calls, skew = GridGame.apply_cells, [], []

    def skewed(game, *args):
        order = apply_cells(game, *args)
        calls.append(1)
        if len(calls) in skew:
            game.values[-1] += 1
            game.values[0] -= 1
        return order

    monkeypatch.setattr(GridGame, "apply_cells", skewed)
    assert replay_stacking_trace(stacking_trace_to_jsonl(res)).passed
    for j in (1, 7, 20):
        calls.clear()
        skew[:] = [j]
        report = replay_stacking_trace(stacking_trace_to_jsonl(res))
        assert len(calls) == inst.m and report.steps == inst.m
        assert report.failures[:1] == (f"line {j}: recorded pieces do not match replay",)


def test_stacking_trace_roundtrip_with_late_opening_counters():
    # fresh counters take free cells of a grid whose other cells are nonzero
    rng = random.Random(89)
    for _ in range(4):
        n, trace = late_opening_trace(rng)
        res = allocator_to_stacking(trace)
        assert max(map(max, trace.types[:260])) < res.k
        report = replay_stacking_trace(stacking_trace_to_jsonl(res))
        assert report.passed and report.steps == trace.m


def test_replay_matches_reference_engine():
    # the general engine, fed the reduction's moves from zero, reproduces
    # the grid after every move and the final grid
    rng = random.Random(73)
    for _ in range(12):
        inst = random_instance(rng, n=rng.randint(2, 5), m=rng.randint(1, 30), k=rng.randint(1, 3))
        _, trace = run_online(inst, PressureGreedyPolicy())
        res = allocator_to_stacking(trace)
        f = StackingFunction.zero()
        replayed = 0
        for o, g in _replay(res):
            f = apply_operation(f, o)
            assert f == g
            replayed += 1
        assert replayed == len(res.steps) == inst.m
        assert f == res.game.to_function()


def test_cli_run_converts_the_grid_once(tmp_path, monkeypatch):
    from fairdiv.cli import main

    calls, steps = [], []
    to_function = GridGame.to_function
    monkeypatch.setattr(GridGame, "to_function", lambda self: calls.append(1) or to_function(self))
    step = PressureState.step
    monkeypatch.setattr(PressureState, "step", lambda self, *a: steps.append(1) or step(self, *a))
    inst = random_instance(random.Random(79), n=3, m=40, k=2)
    path = tmp_path / "instance.json"
    path.write_text(instance_to_json(inst) + "\n")
    argv = ["run", "--in", str(path), "--policy", "pressure-greedy",
            "--report", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert len(calls) == 0  # the margin is read off the integer grid
    # the policy steps the engine once per item, and the trace invariants and
    # the reduction are checked on that engine as the run goes
    assert len(steps) == inst.m


def _reductions_of_run_experiment(monkeypatch):
    """The ``[trace, live outcome, result]`` of each reduction
    ``run_experiment`` makes; the result stays None when the reduction
    raises."""
    from fairdiv import harness

    seen, reduce = [], harness.allocator_to_stacking

    def recorded(trace):
        seen.append([trace, trace.live, None])
        seen[-1][2] = reduce(trace)
        return seen[-1][2]

    monkeypatch.setattr(harness, "allocator_to_stacking", recorded)
    return seen


def _reduced(res):
    return res.check, res.k, res.game.values, res.moves, res.steps


def test_live_check_matches_the_replay(monkeypatch):
    # run_experiment checks a pressure-greedy run on the policy's own engine;
    # the reduction it returns is the one a replay of the trace returns
    from test_golden import CORPUS

    seen = _reductions_of_run_experiment(monkeypatch)
    rng = random.Random(131)
    instances = [make() for make in CORPUS.values()]
    for trial in range(150):
        n, k, grid = rng.randint(2, 8), rng.randint(1, 4), GRID_NAMES[trial % 3]
        if grid == "adversarial-near-threshold":
            k = min(k, 2)
        D = Fraction(2 ** rng.randint(k - 1, 6)) if grid == "powers-of-two" else Fraction(rng.randint(3, 40), 3) + 3
        cfg = GeneratorConfig(n=n, m=rng.randint(k, 300), k=k, D=D, value_grid=grid, seed=trial)
        instances.append(generate_instance(cfg))
    live = 0
    for inst in instances:
        seen.clear()
        run_experiment(inst, [PressureGreedyPolicy()])
        if inst.n < 2 or inst.m == 0:
            assert seen == []
            continue
        ((trace, outcome, result),) = seen
        assert outcome is not None  # no replay was made
        assert _reduced(result) == _reduced(allocator_to_stacking(replace(trace)))  # a copy replays
        live += 1
    assert live >= 150 and {inst.n for inst in instances} >= set(range(2, 9))


def test_live_check_holds_for_the_trace_as_the_run_left_it():
    inst = random_instance(random.Random(139), n=3, m=20, k=2)
    policy = PressureGreedyPolicy()
    _, trace = run_online(inst, policy)
    copy = replace(trace)
    assert trace.live is not None and copy.live is None and copy == trace
    trace.feed(policy, inst.codes[:1])
    assert trace.live is None


class _LateGreedy(PressureGreedyPolicy):
    """Pressure-greedy that hands one item to the next agent, its engine unaware."""

    def __init__(self, at):
        self.at = at

    def choose(self, codes):
        winner = super().choose(codes)
        return winner % self.n + 1 if len(self.trace.agents) + 1 == self.at else winner


def test_live_check_replays_a_run_that_is_off(monkeypatch):
    seen = _reductions_of_run_experiment(monkeypatch)
    rng = random.Random(137)
    outcomes = set()
    for _ in range(40):
        inst = random_instance(rng, n=rng.randint(2, 5), m=rng.randint(2, 40), k=rng.randint(1, 3))
        seen.clear()
        run = run_experiment(inst, [_LateGreedy(rng.randint(1, inst.m))]).runs[0]
        ((trace, outcome, result),) = seen
        assert outcome is None  # the engine left the closed form: the trace was replayed
        try:
            want = _reduced(allocator_to_stacking(trace))
        except FairdivError:
            assert not run.checks["stacking-consistency"] and result is None
        else:
            assert _reduced(result) == want and run.checks["stacking-consistency"]
        outcomes.add(run.checks["stacking-consistency"])
    assert outcomes == {True, False}


class _WideGreedy(PressureGreedyPolicy):
    """Pressure-greedy that reports agent 1's type one past the one its engine stepped."""

    def choose(self, codes):
        winner = super().choose(codes)
        self.types = (self.types[0] + 1,) + self.types[1:]
        return winner


def test_live_check_replays_a_run_wider_than_its_engine(monkeypatch):
    # the engine has no row for the reported type, so the run's check stops
    # and the reduction replays on a fresh engine, which opens it
    seen = _reductions_of_run_experiment(monkeypatch)
    rng = random.Random(149)
    for _ in range(20):
        inst = random_instance(rng, n=rng.randint(2, 5), m=rng.randint(1, 30), k=rng.randint(1, 3))
        seen.clear()
        run = run_experiment(inst, [_WideGreedy()]).runs[0]
        ((trace, outcome, result),) = seen
        assert outcome is None
        assert _reduced(result) == _reduced(allocator_to_stacking(replace(trace)))
        assert run.checks["stacking-consistency"]


def _margin_grids():
    """Reduction grids of odd and even Q, all-zero one-piece grids, and a
    grid whose first piece spans three cells."""
    rng = random.Random(89)
    for _ in range(60):
        n, k = rng.randint(2, 5), rng.randint(1, 3)
        _, trace = run_online(random_instance(rng, n=n, m=rng.randint(1, 40), k=k), PressureGreedyPolicy())
        yield allocator_to_stacking(trace).game
    for k, cpu in ((1, 2), (1, 3), (2, 3), (3, 3), (2, 4)):
        yield GridGame(k=k, cells_per_unit=cpu, scale=cpu - 1)
    long_first = GridGame(k=1, cells_per_unit=5, scale=1)
    long_first.values = [-1, -1, -1, 1, 2]
    yield long_first


def test_bound_margin_matches_check_bound():
    # catches a margin that sweeps every cell edge and one that drops x = 0;
    # the half middle cell at x = 0 for odd Q never moves the margin of a
    # sorted zero-integral grid, so no grid here can tell it is there
    odd = even = 0
    for game in _margin_grids():
        odd += game.Q % 2
        even += 1 - game.Q % 2
        f = game.to_function()
        for beta in (Fraction(game.cells_per_unit, game.cells_per_unit - 1), Fraction(2), Fraction(1, 3)):
            assert game.bound_margin(beta) == check_bound(f, BoundProfile(k=game.k, beta=beta)).margin
    assert odd >= 10 and even >= 10, (odd, even)


def _check_bound_by_integral_F(f, profile):
    """Reference: integral_F at every interior breakpoint and at 0, ties to the leftmost x."""
    points = {Fraction(0)} | {p for p in f.breakpoints() if -H < p < H}
    margin, worst = None, Fraction(0)
    for x in sorted(points):
        slack = profile.bound_at(x) - integral_F(f, x)
        if margin is None or slack < margin:
            margin, worst = slack, x
    value_slack = profile.beta * profile.k - f.max_value()
    return BoundReport(
        passed=margin >= 0 and value_slack >= 0,
        margin=min(margin, value_slack),
        worst_x=worst,
        max_value_slack=value_slack,
    )


def test_check_bound_sweep_matches_integral_F():
    rng = random.Random(83)
    seen_failures = 0
    for _ in range(40):
        k = rng.choice([1, 2, 3])
        f = StackingFunction.zero()
        betas = (Fraction(2), Fraction(4, 3), Fraction(1, 2))
        profiles = [BoundProfile(k=k, beta=beta) for beta in betas]
        for _ in range(rng.randint(0, 8)):
            f = apply_operation(f, random_operation(rng, k, f))
            for profile in profiles:
                report = check_bound(f, profile)
                assert report == _check_bound_by_integral_F(f, profile)
                seen_failures += not report.passed
    assert seen_failures  # the small beta makes some reports fail


# grid engine rejections ----------------------------------------------------------

def _rejects(game, a, b, a_cells, b_cells, message):
    before = list(game.values)
    with pytest.raises(FairdivError, match=message):
        game.apply_cells(a, b, a_cells, b_cells)
    assert game.values == before  # nothing changed


def test_apply_cells_rejects_bad_cell_indices():
    game = GridGame(k=1, cells_per_unit=2, scale=1)
    _rejects(game, 1, 1, [-1], [0], r"cell index -1 ")  # would raise the last cell
    _rejects(game, 1, 1, [0], [2], r"cell index 2 ")
    _rejects(game, 1, 1, [0], [True], r"cell index True ")
    _rejects(game, 1, 1, [0.0], [1], r"cell index 0.0 ")
    game = GridGame(k=2, cells_per_unit=3, scale=2)
    _rejects(game, 1, Fraction(1, 2), [0], [1, 6], r"cell index 6 ")  # the A cell is left unraised
    game.apply_cells(1, Fraction(1, 2), [0], [1, 5])
    assert game.values == [-1, -1, 0, 0, 0, 2]


def test_apply_cells_rejects_invalid_moves():
    game = GridGame(k=2, cells_per_unit=3, scale=2)
    _rejects(game, 0, 1, [0], [1, 2], r"a and b must lie in \(0, 1\]")
    _rejects(game, Fraction(3, 2), 1, [0], [1, 2], r"a and b must lie in \(0, 1\]")
    _rejects(game, 1, Fraction(1, 3), [0], [1, 2], r"a=1, b=1/3 not representable at scale 2")
    _rejects(game, 1, Fraction(1, 2), [0, 1], [2],
             r"cell counts \(2, 1\) do not match measures \(1, 2\)")
    _rejects(game, 1, Fraction(1, 2), [3], [1, 2], "A cells must lie strictly left of B cells")
    _rejects(game, 1, Fraction(1, 2), [0], [1, 1], "A and B cells must be disjoint")
    # every accepted argument type still works: int, Fraction, str, float
    game.apply_cells("1", 0.5, (0,), range(1, 3))
    assert game.values == [-1, -1, 0, 0, 0, 2]


def test_rejections_hold_once_a_shape_is_cached():
    """A move shape is cached only once it passed every check: each rejection
    raises again on a repeat, after a valid move of the same cell counts."""
    game = GridGame(k=1, cells_per_unit=2, scale=1)
    game.apply_cells(1, 1, [0], [1])  # warms the shape (1, 1, 1, 1)
    game.apply_cells(1, 1, [0], [1])
    for _ in range(2):
        _rejects(game, 1, 1, [-1], [0], r"cell index -1 ")
        _rejects(game, 1, 1, [0], [2], r"cell index 2 ")
        _rejects(game, 1, 1, [0], [True], r"cell index True ")
        _rejects(game, 1, 1, [0.0], [1], r"cell index 0.0 ")
    game = GridGame(k=2, cells_per_unit=3, scale=2)
    game.apply_cells(1, Fraction(1, 2), [0], [1, 2])  # warms the shape (1, 1/2, 1, 2)
    game.apply_cells(Fraction(1, 2), 1, [0, 1], [2])  # and (1/2, 1, 2, 1)
    for _ in range(2):  # the same cell counts, another a or b
        _rejects(game, 0, 1, [0], [1, 2], r"a and b must lie in \(0, 1\]")
        _rejects(game, Fraction(3, 2), 1, [0], [1, 2], r"a and b must lie in \(0, 1\]")
        _rejects(game, 1, Fraction(1, 3), [0], [1, 2], r"a=1, b=1/3 not representable at scale 2")
        _rejects(game, 1, Fraction(1, 2), [0, 1], [2],
                 r"cell counts \(2, 1\) do not match measures \(1, 2\)")
        _rejects(game, Fraction(1, 2), 1, [0], [1, 2],
                 r"cell counts \(1, 2\) do not match measures \(2, 1\)")
        _rejects(game, 1, Fraction(1, 2), [3], [1, 2], "A cells must lie strictly left of B cells")
        _rejects(game, 1, Fraction(1, 2), [0], [1, 1], "A and B cells must be disjoint")
        _rejects(game, 1, Fraction(1, 2), [0], [1, 6], r"cell index 6 ")
    assert game.values == [-2, 0, 0, 0, 0, 2]  # the two warm-up moves only


def test_cached_move_units_follow_a_and_b():
    """Moves of one cell count but other a and b move the cells by their own amounts."""
    game = GridGame(k=2, cells_per_unit=3, scale=6)
    game.apply_cells(1, Fraction(1, 2), [0], [4, 5], need_order=False)
    assert game.values == [-3, -3, 0, 0, 0, 6]
    game.apply_cells(Fraction(2, 3), Fraction(1, 3), [1], [2, 3], need_order=False)
    assert game.values == [-3, -2, -2, 0, 1, 6]
    game.apply_cells("2/3", Fraction(1, 3), (0,), (4, 5), need_order=False)  # the same shape, from a string
    assert game.values == [-2, -2, -1, 0, 1, 4]
    assert game.integral_is_zero()


def test_bound_constants_keyed_by_beta_value():
    """2, Fraction(2) and Fraction(4, 2) share one cached entry, and every
    check agrees with check_bound on the same function."""
    rng = random.Random(41)
    for k in (1, 2, 3):
        game = GridGame(k=k, cells_per_unit=6, scale=720)
        q = 6 * k
        for _ in range(25):
            cells_a = rng.randint(1, 5)
            tmax = min(Fraction(1, max(cells_a, 6 - cells_a)), Fraction(2 * k, q))
            t = Fraction(rng.randint(1, 4), 4) * tmax
            chosen = sorted(rng.sample(range(q), 6))
            game.apply_cells((6 - cells_a) * t, cells_a * t, chosen[:cells_a], chosen[cells_a:])
            f = game.to_function()
            for profile_beta, betas in ((Fraction(2), (2, Fraction(2), Fraction(4, 2))),
                                        (Fraction(1, 2), (Fraction(1, 2), "1/2", 0.5))):
                report = check_bound(f, BoundProfile(k=k, beta=profile_beta))
                for beta in betas:
                    assert game.bound_ok(beta) == report.passed
                    assert game.bound_margin(beta) == report.margin
        assert sorted(game._bounds) == [(1, 2), (2, 1)]
