import json
import random
from dataclasses import replace
from fractions import Fraction
from operator import getitem, gt

import pytest
from hypothesis import given, strategies as st

from fairdiv import (
    FairdivError,
    GridGame,
    Instance,
    InvariantViolation,
    ParseError,
    PressureState,
    allocator_to_stacking,
    bi_value_merges,
    make_policy,
    round_up_pow2,
    run_online,
    validate_pressure_trace,
)
from fairdiv import allocator, core, stacking
from fairdiv.adversary import make_recursive_adversary, play_game
from fairdiv.allocator import (
    BiValuePolicy,
    BiValuePromiseViolated,
    DumpToOnePolicy,
    ExternalPolicy,
    Policy,
    PressureGreedyPolicy,
    RoundRobinPolicy,
    RunTrace,
    SeededMixturePolicy,
    TraceStep,
    trace_from_jsonl,
)
from fairdiv.cli import main
from fairdiv.core import ValueTables, instance_to_json, load_instance
from fairdiv.harness import GRID_NAMES, GeneratorConfig, generate_instance, run_experiment
from fairdiv.mms import mms_exact

from conftest import late_opening_trace, random_instance
from test_golden import CORPUS


# round_up_pow2 -------------------------------------------------------------

def test_rounding_examples():
    assert round_up_pow2(Fraction(3)) == 4
    assert round_up_pow2(Fraction(4)) == 4
    assert round_up_pow2(Fraction(3, 8)) == Fraction(1, 2)


def test_rounding_rejects_nonpositive():
    with pytest.raises(FairdivError):
        round_up_pow2(Fraction(0))


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6), max_denominator=10**6))
def test_rounding_sandwich(d):
    r = round_up_pow2(d)
    assert d <= r < 2 * d
    # r = 2^z for integer z: numerator or denominator is a power of two, other is 1
    assert r.numerator & (r.numerator - 1) == 0
    assert r.denominator & (r.denominator - 1) == 0
    assert r.numerator == 1 or r.denominator == 1


def _fraction_round_up_pow2(d):
    """round_up_pow2 as it was before its integer shifts: Fraction powers of two."""
    r = Fraction(2) ** (d.numerator.bit_length() - d.denominator.bit_length())
    while r < d:
        r *= 2
    while r / 2 >= d:
        r /= 2
    return r


def test_rounding_matches_the_fraction_arithmetic():
    rng = random.Random(53)
    for trial in range(600):
        digits = (1, 3, 40, 1200)[trial % 4]
        num, den = (rng.randint(1, 10**digits) for _ in range(2))
        d = Fraction(num, den) * Fraction(2) ** rng.randint(-3, 3)
        assert round_up_pow2(d) == _fraction_round_up_pow2(d)
    for e in (-2000, -1, 0, 1, 2000):  # exact powers of two and their neighbours
        p = Fraction(2) ** e
        for d in (p, p * Fraction(10**30 + 1, 10**30), p * Fraction(10**30 - 1, 10**30)):
            assert round_up_pow2(d) == _fraction_round_up_pow2(d)


# pressure-greedy steps -------------------------------------------------------

def test_first_item_three_agents():
    pol = PressureGreedyPolicy()
    raw = (Fraction(2), Fraction(3), Fraction(5))
    pol.start(3, [[v] for v in raw])
    agent = pol.choose((0, 0, 0))
    assert pol.table == [[(0, 1)] for _ in raw]  # code 0 -> (effective code 0, type 1)
    assert pol.effective.values == [[round_up_pow2(v)] for v in raw]
    state = pol.state
    assert agent == 1  # all pressures zero, lowest index wins
    assert state.pressure(1, 1) == 1
    assert state.pressure(2, 1) == Fraction(-1, 2)
    assert state.pressure(3, 1) == Fraction(-1, 2)


def test_two_unit_items_alternate():
    inst = Instance(2, ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
    alloc, trace = run_online(inst, PressureGreedyPolicy())
    assert alloc.assignment == (1, 2)
    assert _rows(trace) == [((Fraction(1),), (Fraction(-1),)), ((Fraction(0),), (Fraction(0),))]


def test_two_type_forced_mistake():
    # (A,A), (B,B), (A,B): third item compares H_1^A=1 against H_2^B=-1
    inst = Instance(2, (
        (Fraction(1), Fraction(1)),
        (Fraction(4), Fraction(4)),
        (Fraction(1), Fraction(4)),
    ))
    alloc, _ = run_online(inst, PressureGreedyPolicy())
    assert alloc.assignment == (1, 1, 2)


def test_single_type_matches_round_robin():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 6)
        m = rng.randint(1, 40)
        v = Fraction(rng.randint(1, 9))
        inst = Instance(n, tuple((tuple([v] * n),) * m))
        alloc, _ = run_online(inst, PressureGreedyPolicy())
        rr, _ = run_online(inst, RoundRobinPolicy())
        assert alloc.assignment == rr.assignment
        counts = [alloc.assignment.count(i) for i in range(1, n + 1)]
        assert max(counts) - min(counts) <= 1


def test_trace_invariants_on_random_runs():
    rng = random.Random(29)
    for _ in range(15):
        inst = random_instance(rng, n=rng.randint(2, 5), m=rng.randint(5, 60), k=rng.randint(1, 4))
        _, trace = run_online(inst, PressureGreedyPolicy())
        check = validate_pressure_trace(trace)
        assert check.passed, check


def test_determinism():
    rng = random.Random(31)
    inst = random_instance(rng, n=4, m=50, k=3)
    _, t1 = run_online(inst, PressureGreedyPolicy())
    _, t2 = run_online(inst, PressureGreedyPolicy())
    assert t1.to_jsonl() == t2.to_jsonl()


def _rows(trace):
    """Each step's rows from the trace's row replay, or None."""
    return list(trace.pressure_rows())


def _decoded_steps(trace):
    return [(s.item, trace.raw(s), trace.effective(s), s.types, s.agent, rows)
            for s, rows in zip(trace.steps, _rows(trace))]


def test_trace_jsonl_roundtrip():
    rng = random.Random(37)
    for n, m in ((3, 12), (3, 40), (4, 40)):
        inst = random_instance(rng, n=n, m=m, k=2)
        _, trace = run_online(inst, PressureGreedyPolicy())
        again = trace_from_jsonl(trace.to_jsonl(), n=n, policy=trace.policy)
        # the file records the scaled (n-1)*H rows that the run rebuilds
        assert [s.pressures for s in again.steps] == _rows(trace)
        assert [replace(s, pressures=None) for s in again.steps] == trace.steps
        assert again.to_jsonl() == trace.to_jsonl()
    # the n=4 trace holds pressures that are not whole numbers
    assert any(h % 3 for rows in _rows(trace) for row in rows for h in row)
    # bi-value, merged and fallen back, and round-robin, without pressures
    fell_back = 0
    for n, m, k in ((3, 40, 2), (4, 40, 3), (5, 60, 3), (3, 30, 1)):
        inst = random_instance(rng, n=n, m=m, k=k)
        for policy in (BiValuePolicy(), RoundRobinPolicy()):
            _, trace = run_online(inst, policy)
            again = trace_from_jsonl(trace.to_jsonl(), n=n, policy=trace.policy)
            # the policy's effective codes follow its own tables, so compare values
            assert _decoded_steps(again) == _decoded_steps(trace)
            assert again.to_jsonl() == trace.to_jsonl()
            fell_back += getattr(policy, "fell_back", False)
    assert fell_back


def _step_record(trace, s, rows) -> dict:
    """The JSON record of one trace step with its ``rows``, built field by
    field; ``str`` writes a short Fraction as "p" or "p/q"."""
    rec = {
        "item": s.item,
        "raw": [str(v) for v in trace.raw(s)],
        "effective": [str(v) for v in trace.effective(s)],
        "types": list(s.types),
        "agent": s.agent,
    }
    if rows is not None:
        rec["pressures"] = [[str(Fraction(h, trace.n - 1)) for h in row] for row in rows]
    return rec


def _assert_dumps_lines(trace) -> None:
    """Each line ``to_jsonl`` writes is its record's ``json.dumps``, with the
    rows of the reference replay ``pressure_rows``."""
    text = trace.to_jsonl()
    assert text == "".join(json.dumps(_step_record(trace, s, rows), sort_keys=True, separators=(",", ":")) + "\n"
                           for s, rows in zip(trace.steps, _rows(trace)))


def test_to_jsonl_matches_json_dumps_of_each_record():
    rng = random.Random(43)
    policies = (PressureGreedyPolicy, BiValuePolicy, RoundRobinPolicy, DumpToOnePolicy, lambda: SeededMixturePolicy(5))
    fell_back = set()
    for n in range(1, 9):
        for k in (1, 2, 3):  # three values break the bi-value promise
            inst = random_instance(rng, n=n, m=rng.randint(1, 60), k=k)
            for make in policies:
                policy = make()
                _assert_dumps_lines(run_online(inst, policy)[1])
                if getattr(policy, "fell_back", False):
                    fell_back.add(n)
    assert len(fell_back) >= 5
    # no items
    for n in (1, 3):
        for make in policies:
            trace = run_online(Instance(n, ()), make())[1]
            assert trace.to_jsonl() == ""
    # counters that open late, next to nonzero ones
    for seed in range(4):
        _assert_dumps_lines(late_opening_trace(random.Random(seed))[1])
    # a bi-value fallback records its rows, and the rows after it continue from them
    policy = BiValuePolicy()
    trace = run_online(_third_value_instance(), policy)[1]
    assert policy.fell_back and any(s.pressures is not None for s in trace.steps)
    _assert_dumps_lines(trace)
    # recorded rows shorter than a type shown before them: the type opens again
    trace = RunTrace(2, "pressure-greedy", raw_values=[[Fraction(1)]] * 2, effective_values=[[Fraction(1)]] * 2,
                     pressured=True)
    for j, (types, agent, rows) in enumerate((((1, 1), 1, None), ((2, 1), 2, None), ((1, 1), 1, ((1,), (-1,))),
                                              ((2, 1), 2, None)), 1):
        trace.steps.append(TraceStep(j, (0, 0), (0, 0), types, agent, rows))
    assert _rows(trace)[-1] == ((1, -1), (0,))
    _assert_dumps_lines(trace)
    # read back with rows on every third line only
    for make in (PressureGreedyPolicy, BiValuePolicy):
        inst = random_instance(rng, n=4, m=40, k=3)
        records = [json.loads(line) for line in run_online(inst, make())[1].to_jsonl().splitlines()]
        for j, rec in enumerate(records):
            if j % 3:
                del rec["pressures"]
        again = trace_from_jsonl("".join(json.dumps(rec) + "\n" for rec in records), n=4)
        assert [s.item for s in again.steps if s.pressures is not None] == list(range(1, 41, 3))
        _assert_dumps_lines(again)
    # a read trace may repeat values under other types; each line keeps its own
    text = "".join(json.dumps({"item": j, "raw": ["1", "3/2"], "effective": ["1", "2"], "types": types,
                               "agent": agent}, sort_keys=True, separators=(",", ":")) + "\n"
                   for j, (types, agent) in enumerate((([1, 1], 1), ([1, 2], 2), ([1, 1], 2), ([2, 2], 1)), 1))
    assert trace_from_jsonl(text, n=2).to_jsonl() == text


def _live_rows(inst, policy):
    """A trace of ``inst`` fed item by item to ``policy``, and the rows the
    policy's own engine holds after every feed (None without one)."""
    trace = RunTrace.begin(policy, inst.n, inst.values)
    live = []
    for codes in inst.codes:
        trace.feed(policy, codes)
        live.append(None if policy.state is None else policy.state.snapshot())
    return trace, live


def _assert_rows_rebuilt(inst) -> int | None:
    """The rows that pressure-greedy's and bi-value's traces of ``inst``
    rebuild are the rows each policy held after every item, and only a
    bi-value fallback step records rows. Returns the fallback's item, or None."""
    for policy in (PressureGreedyPolicy(), BiValuePolicy()):
        trace, live = _live_rows(inst, policy)
        assert trace.pressured == (inst.n >= 2)
        assert _rows(trace) == live
        recorded = [s.item for s in trace.steps if s.pressures is not None]
        assert len(recorded) == getattr(policy, "fell_back", False)
    return recorded[0] if recorded else None


def test_rebuilt_rows_match_the_live_rows_on_the_golden_corpus():
    fallbacks = [_assert_rows_rebuilt(make()) for make in CORPUS.values()]
    assert sum(item is not None for item in fallbacks) >= 6


def test_rebuilt_rows_match_the_live_rows_on_random_instances():
    rng = random.Random(103)
    early = late = 0  # fallbacks at one of the first three items, and in the second half
    instances = [_third_value_instance(), *_fallback_instances()]
    for n in (2, 3, 4):  # two split values for every agent, and agent 1's third at the last item
        items = [tuple(Fraction(rng.choice((1, 3))) for _ in range(n)) for _ in range(rng.randint(4, 20))]
        instances.append(Instance(n, (*items, (Fraction(7),) * n)))
    for trial in range(240):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        grid = GRID_NAMES[trial % 3]
        if grid == "adversarial-near-threshold":  # merges near the threshold
            k = min(k, 2)
        D = Fraction(2 ** rng.randint(k - 1, 6)) if grid == "powers-of-two" else Fraction(rng.randint(3, 40), 3) + 3
        m = rng.randint(k, 40)
        instances.append(generate_instance(GeneratorConfig(n=n, m=m, k=k, D=D, value_grid=grid, seed=trial)))
    fallbacks = 0
    for inst in instances:
        item = _assert_rows_rebuilt(inst)
        if item is not None:
            fallbacks += 1
            early += item <= 3
            late += 2 * item > inst.m
    assert fallbacks >= 40 and early >= 3 and late >= 3, (fallbacks, early, late)
    assert {inst.n for inst in instances} == {1, 2, 3, 4}


def test_file_traces_are_written_back_byte_for_byte():
    inst = random_instance(random.Random(53), n=3, m=30, k=3)
    bi_value, texts = BiValuePolicy(), {}
    for policy in (PressureGreedyPolicy(), bi_value, RoundRobinPolicy()):
        _, trace = run_online(inst, policy)
        texts[policy.name] = text = trace.to_jsonl()
        again = trace_from_jsonl(text, n=3, policy=trace.policy)
        assert not again.pressured
        assert again.to_jsonl() == text
    assert bi_value.fell_back
    assert texts["bi-value"].count('"pressures"') == inst.m and '"pressures"' not in texts["round-robin"]
    # a file with rows on some steps only, one of them off by a scaled unit,
    # is written back with exactly those rows
    records = [json.loads(line) for line in texts["bi-value"].splitlines()]
    assert any(rec["types"] != records[0]["types"] for rec in records)
    for j, rec in enumerate(records):
        if j % 3:
            del rec["pressures"]
    records[3]["pressures"][0][0] = str(Fraction(records[3]["pressures"][0][0]) + Fraction(1, 2))
    text = "".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n" for rec in records)
    again = trace_from_jsonl(text, n=3)
    assert [s.item for s in again.steps if s.pressures is not None] == list(range(1, inst.m + 1, 3))
    assert again.to_jsonl() == text
    assert not validate_pressure_trace(again).closed_form


def test_validate_catches_a_snapshot_off_by_one_scaled_unit():
    inst = random_instance(random.Random(41), n=3, m=20, k=2)
    _, run = run_online(inst, PressureGreedyPolicy())
    trace = trace_from_jsonl(run.to_jsonl(), n=3, policy=run.policy)  # the file records the rows
    assert validate_pressure_trace(trace).passed
    step = trace.steps[9]
    rows = [list(row) for row in step.pressures]
    rows[1][0] += 1
    trace.steps[9] = replace(step, pressures=tuple(map(tuple, rows)))
    assert not validate_pressure_trace(trace).closed_form


def _set_effective(trace, j, i, value):
    """Make agent i+1's effective value at step j+1 ``value``, a new entry in a
    copy of the trace's effective tables."""
    tables = [list(table) for table in trace.effective_values]
    tables[i].append(value)
    trace.effective_values = tables
    codes = list(trace.steps[j].effective_codes)
    codes[i] = len(tables[i]) - 1
    trace.steps[j] = replace(trace.steps[j], effective_codes=tuple(codes))


def test_validate_catches_a_corrupted_effective_value():
    inst = random_instance(random.Random(43), n=3, m=20, k=2)
    _, trace = run_online(inst, PressureGreedyPolicy())
    _set_effective(trace, 4, 2, 2 * trace.raw(trace.steps[4])[2])
    check = validate_pressure_trace(trace)
    assert not check.rounding_sandwich
    assert check.closed_form and check.pressure_bound and check.count_bound


def test_validate_catches_both_bounds_on_a_dump_to_one_trace():
    inst = Instance(3, ((Fraction(1),) * 3,) * 6)
    _, trace = run_online(inst, DumpToOnePolicy())
    check = validate_pressure_trace(trace)
    assert check.closed_form and check.rounding_sandwich
    assert not check.pressure_bound and not check.count_bound
    # agent 1 holds all six items: (n-1)*H = 3*6 - 6 = 12 > 2k(n-1) = 4
    assert (check.max_scaled_pressure, check.game_k) == (12, 1)


def _full_rescan_check(trace) -> dict:
    """Reference validator: its own pressure update, and every cell rescanned
    after every step. Its zero_sum flag must hold on any in-range trace."""
    n = trace.n
    receipts = [[] for _ in range(n)]
    sightings = [[] for _ in range(n)]
    scaled = [[] for _ in range(n)]
    ok_closed = ok_zero = ok_round = ok_pressure = ok_count = True
    max_scaled = game_k = 0
    for s in trace.steps:
        raw, eff = trace.raw(s), trace.effective(s)
        for i in range(n):
            if not (raw[i] <= eff[i] < 2 * raw[i]):
                ok_round = False
            while len(scaled[i]) < s.types[i]:
                scaled[i].append(0)
                receipts[i].append(0)
                sightings[i].append(0)
        game_k = max(game_k, max(len(r) for r in scaled))
        delta = 0
        for i in range(n):
            u = s.types[i] - 1
            sightings[i][u] += 1
            if i == s.agent - 1:
                receipts[i][u] += 1
                scaled[i][u] += n - 1
                delta += n - 1
            else:
                scaled[i][u] -= 1
                delta -= 1
        ok_zero = ok_zero and delta == 0
        for i in range(n):
            for u in range(len(scaled[i])):
                ok_closed = ok_closed and scaled[i][u] == n * receipts[i][u] - sightings[i][u]
                max_scaled = max(max_scaled, scaled[i][u])
                ok_pressure = ok_pressure and scaled[i][u] <= 2 * game_k * (n - 1)
                ok_count = ok_count and receipts[i][u] <= -(-sightings[i][u] // n) - 1 + 2 * game_k
        if s.pressures is not None and s.pressures != tuple(map(tuple, scaled)):
            ok_closed = False
    assert ok_zero
    return {
        "closed_form": ok_closed, "rounding_sandwich": ok_round, "pressure_bound": ok_pressure,
        "count_bound": ok_count, "max_scaled_pressure": max_scaled, "game_k": max(game_k, 1),
    }


def _corrupt(rng, trace):
    """Damage one step of ``trace`` in one of four ways, or leave it whole,
    and return the trace. A run records no rows, so a pressured trace is
    read back from its file, which records them on every step."""
    if trace.pressured:
        trace = trace_from_jsonl(trace.to_jsonl(), trace.n, trace.policy)
    j = rng.randrange(trace.m)
    s = trace.steps[j]
    i = rng.randrange(trace.n)
    kind = rng.randrange(5)
    if kind == 1 and s.pressures is not None:
        rows = [list(row) for row in s.pressures]
        rows[i][rng.randrange(len(rows[i]))] += rng.choice((-1, 1))
        trace.steps[j] = replace(s, pressures=tuple(map(tuple, rows)))
    elif kind == 2:
        _set_effective(trace, j, i, trace.raw(s)[i] * rng.choice((Fraction(1, 2), Fraction(3, 2), 2)))
    elif kind == 3:
        trace.steps[:] = [replace(t, pressures=None) for t in trace.steps]
    elif kind == 4:
        types = list(s.types)
        types[i] += rng.randint(1, 2)
        trace.steps[j] = replace(s, types=tuple(types), agent=rng.randint(1, trace.n))
    return trace


def _reduction_on_its_own_replay(trace, n, rescan=True):
    """Reference: ``allocator_to_stacking`` replaying the trace on a
    :class:`PressureState` of its own; ``(steps, k, grid values)``. After
    each engine step the leftmost touched cell must carry the chosen
    counter's pressure before it. With ``rescan`` the whole grid is then
    compared with the pressures; without, each lowered cell is compared
    with its counter's pressure, and the whole grid once, at the end."""
    if n < 2:
        raise FairdivError("allocator_to_stacking requires n >= 2")
    k = max([1, *(max(s.types) for s in trace.steps)])
    game = GridGame(k=k, cells_per_unit=n, scale=n - 1)
    Q = game.Q
    cell_of, holder = [-1] * Q, [-1] * Q
    state = PressureState(n)
    steps = []
    for step in trace.steps:
        step.check_indices(n)
        slots = [(i - 1) * k + u - 1 for i, u in enumerate(step.types, 1)]
        for i, slot in enumerate(slots, 1):
            if cell_of[slot] < 0:
                free = holder.index(-1)
                if game.values[free] != 0:
                    raise InvariantViolation("fresh pressure assigned to a nonzero cell")
                cell_of[slot], holder[free] = free, slot
                while len(state.scaled[i - 1]) < step.types[i - 1]:
                    state.add_type(i)
        state.step(step.types, step.agent)
        chosen = slots[step.agent - 1]
        c_star = min(cell_of[slot] for slot in slots)
        if game.values[c_star] != state.scaled[chosen // k][chosen % k] - (n - 1):
            raise InvariantViolation("leftmost touched cell does not carry the minimum pressure")
        displaced, old_cell = holder[c_star], cell_of[chosen]
        cell_of[chosen], cell_of[displaced] = c_star, old_cell
        holder[c_star], holder[old_cell] = chosen, displaced
        b_cells = tuple(sorted(cell_of[slot] for slot in slots if slot != chosen))
        order = game.apply_cells(1, Fraction(1, n - 1), [c_star], b_cells)
        holder = [holder[c] for c in order]
        for c, slot in enumerate(holder):
            if slot >= 0:
                cell_of[slot] = c
        if rescan:
            _compare_grid(game, state)
        elif any(game.values[cell_of[slot]] != state.scaled[slot // k][slot % k] for slot in slots if slot != chosen):
            raise InvariantViolation("pressure multiset != cell value multiset")
        steps.append((c_star, b_cells))
    if not rescan:
        _compare_grid(game, state)
    return steps, k, game.values


def _compare_grid(game, state):
    pressures = [h for row in state.scaled for h in row]
    if sorted(game.values) != sorted(pressures + [0] * (game.Q - len(pressures))):
        raise InvariantViolation("pressure multiset != cell value multiset")
    if game.values != sorted(game.values) or not game.integral_is_zero():
        raise InvariantViolation("grid state lost sortedness or zero integral")


def _rescan_corpus(rng):
    """``(n, trace)``: 400 small traces of mixed policies, then long ones
    through the reduction's move: three stream-shaped (n=8, k=4, m=1000,
    powers of two), three tie-heavy (n=2, k=1) and four whose counters open
    late (uniform-rational, m=560, one value per agent for 260 items and
    four after, :func:`late_opening_trace`), so fresh cells join a grid of
    nonzero ones."""
    policies = ("pressure-greedy", "bi-value", "round-robin", "dump-to-one", "mixture:5")
    for _ in range(400):
        n, m, k = rng.randint(2, 5), rng.randint(1, 60), rng.randint(1, 4)
        yield n, run_online(random_instance(rng, n, m, k), make_policy(rng.choice(policies)))[1]
    for _ in range(3):
        cfg = GeneratorConfig(n=8, m=1000, k=4, D=Fraction(8), seed=rng.randrange(10**6))
        yield 8, run_online(generate_instance(cfg), PressureGreedyPolicy())[1]
    for _ in range(3):
        yield 2, run_online(random_instance(rng, 2, rng.randint(200, 400), 1), PressureGreedyPolicy())[1]
    for _ in range(4):
        yield late_opening_trace(rng)


def test_validate_matches_the_full_rescan_reference():
    # the same corpus checks the reduction, which rides on the validator's
    # replay, against a reduction on a replay of its own
    rng = random.Random(47)
    failed = dict.fromkeys(("closed_form", "rounding_sandwich", "pressure_bound", "count_bound"), 0)
    reduced = long_reduced = late_reduced = with_rows = 0
    for n, trace in _rescan_corpus(rng):
        late = trace.m >= 500 and max(max(s.types) for s in trace.steps[:250]) < max(max(s.types) for s in trace.steps)
        trace = _corrupt(rng, trace)
        with_rows += all(s.pressures is not None for s in trace.steps)
        check = validate_pressure_trace(trace)
        expected = _full_rescan_check(trace)
        assert {key: getattr(check, key) for key in expected} == expected
        for flag in failed:
            failed[flag] += not expected[flag]
        try:
            want = _reduction_on_its_own_replay(trace, n)
        except FairdivError as exc:
            with pytest.raises(FairdivError) as raised:
                allocator_to_stacking(trace)
            assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        else:
            res = allocator_to_stacking(trace)
            assert (res.steps, res.k, res.game.values) == want
            assert {key: getattr(res.check, key) for key in expected} == expected
            reduced += 1
            long_reduced += trace.m >= 200
            late_reduced += late
    assert all(20 <= count <= 380 for count in failed.values()), failed
    assert 20 <= reduced <= 380, reduced
    assert long_reduced >= 3, long_reduced
    assert late_reduced >= 2, late_reduced
    assert with_rows >= 100, with_rows  # the validator and the reference compare rows on these


def test_replay_opens_types_only_on_steps_that_show_a_new_one(monkeypatch):
    # on the bi-value stream shape one agent never shows a second type, which
    # must not send every later step through the type opening
    cfg = GeneratorConfig(n=8, m=2000, k=2, D=Fraction(4), value_grid="adversarial-near-threshold", seed=101)
    _, trace = run_online(generate_instance(cfg), make_policy("bi-value"))
    tops, opening = [0] * 8, 0
    for s in trace.steps:
        if any(map(gt, s.types, tops)):
            opening += 1
            tops = list(map(max, s.types, tops))
    assert min(tops) == 1 < max(tops)
    calls = []
    open_types = allocator._open_types
    monkeypatch.setattr(allocator, "_open_types", lambda rows, types: calls.append(types) or open_types(rows, types))
    expected = _full_rescan_check(trace)
    check = validate_pressure_trace(trace)
    assert {key: getattr(check, key) for key in expected} == expected
    assert len(calls) == 2 * opening == 6  # engine and closed-form rows, on three steps
    want = _reduction_on_its_own_replay(trace, 8)
    del calls[:]
    res = allocator_to_stacking(trace)  # the reduction rides on the same replay
    assert len(calls) == 2 * opening
    assert (res.steps, res.k, res.game.values) == want
    assert {key: getattr(res.check, key) for key in expected} == expected


def _skew_engine(monkeypatch):
    """Patch ``PressureState.step`` to add ``plan["delta"]`` on its
    ``plan["at"]``-th call to one counter, by ``plan["kind"]``: the chosen
    one, a lowered one (the next agent's) or an untouched open one (picked
    by ``plan["pick"]``). Returns ``(plan, calls)``; ``calls`` records every
    call and is cleared with a new plan."""
    real, plan, calls = PressureState.step, {}, []

    def step(self, types, agent=None):
        winner = real(self, types, agent)
        calls.append(winner)
        if len(calls) == plan["at"]:
            i = winner - 1 if plan["kind"] == "chosen" else winner % self.n
            counters = [(i, types[i] - 1)]
            if plan["kind"] == "untouched":
                counters = [(i, u) for i, row in enumerate(self.scaled) for u in range(len(row)) if u != types[i] - 1]
            if counters:
                i, u = counters[plan["pick"] % len(counters)]
                self.scaled[i][u] += plan["delta"]
        return winner

    monkeypatch.setattr(PressureState, "step", step)
    return plan, calls


def _skew_corpus(rng):
    """``(n, trace)``: small pressure-greedy traces, and long ones whose
    counters are touched seldom."""
    for _ in range(300):
        n, m, k = rng.randint(2, 5), rng.randint(1, 50), rng.randint(1, 4)
        yield n, run_online(random_instance(rng, n, m, k), PressureGreedyPolicy())[1]
    for _ in range(4):
        cfg = GeneratorConfig(n=8, m=300, k=4, D=Fraction(8), seed=rng.randrange(10**6))
        yield 8, run_online(generate_instance(cfg), PressureGreedyPolicy())[1]


def test_reduction_matches_the_positional_reference_under_engine_skews(monkeypatch):
    # one ±1 on the engine, on the chosen counter, a lowered one or an
    # untouched one: the checks on counters raise what the checks on cell
    # positions raise, after as many engine steps
    def reduction(trace, n):
        res = allocator_to_stacking(trace)
        return res.steps, res.k, res.game.values

    def positional(trace, n):
        return _reduction_on_its_own_replay(trace, n, rescan=False)

    rng = random.Random(59)
    corpus = list(_skew_corpus(rng))
    plan, calls = _skew_engine(monkeypatch)
    seen = {}
    for n, trace in corpus:
        plan.update(at=rng.randint(1, trace.m), kind=rng.choice(("chosen", "lowered", "untouched")),
                    delta=rng.choice((-1, 1)), pick=rng.randrange(64))
        outcomes = []
        for reduce in (reduction, positional):
            calls.clear()
            try:
                outcome = "reduced", reduce(trace, n)
            except FairdivError as exc:
                outcome = type(exc), str(exc)
            outcomes.append((outcome, len(calls)))
        assert outcomes[0] == outcomes[1], (plan, n, trace.m)
        ((kind, detail), count), _ = outcomes
        key = (plan["kind"], "reduced" if kind == "reduced" else detail, count == plan["at"])
        seen[key] = seen.get(key, 0) + 1
    # the chosen counter and a lowered one are caught on the move of the skewed step
    assert seen.get(("chosen", "leftmost touched cell does not carry the minimum pressure", True), 0) >= 20, seen
    assert seen.get(("lowered", "pressure multiset != cell value multiset", True), 0) >= 20, seen
    # an untouched one when it is next touched, or by the end check
    assert seen.get(("untouched", "leftmost touched cell does not carry the minimum pressure", False), 0) >= 5, seen
    assert seen.get(("untouched", "pressure multiset != cell value multiset", False), 0) >= 20, seen


def test_run_path_walks_no_cell_positions(tmp_path, monkeypatch):
    walks, moves = [], []
    walk, apply_cells = stacking._walk, GridGame.apply_cells
    monkeypatch.setattr(stacking, "_walk", lambda *args: walks.append(1) or walk(*args))
    monkeypatch.setattr(GridGame, "apply_cells", lambda *args: moves.append(1) or apply_cells(*args))
    inst = random_instance(random.Random(61), n=4, m=60, k=3)
    path = tmp_path / "instance.json"
    path.write_text(instance_to_json(inst) + "\n")
    argv = ["run", "--in", str(path), "--policy", "pressure-greedy", "--report", str(tmp_path / "r.json")]
    assert main(argv) == 0
    report = run_experiment(inst, [PressureGreedyPolicy()])
    assert report.runs[0].checks["stacking-consistency"] and report.runs[0].stacking_margin is not None
    assert walks == moves == []  # the margin is taken when the trace has steps, not when the reduction's do
    trace = run_online(inst, PressureGreedyPolicy())[1]
    res = allocator_to_stacking(trace)
    assert walks == moves == []
    steps = res.steps
    assert walks == [1] and len(moves) == inst.m  # walked once, on the first read
    assert res.steps is steps and walks == [1] and len(moves) == inst.m
    assert steps == _reduction_on_its_own_replay(trace, inst.n)[0]


def test_run_and_adversary_paths_build_no_item_rows(tmp_path, monkeypatch):
    # load_instance and play_game keep only tables and codes; a spy on the
    # first-read build shows that nothing on these paths reads Instance.items
    built = []
    items = core.Instance.__dict__["items"]
    build = items.build
    monkeypatch.setattr(items, "build", lambda inst: built.append(1) or build(inst))
    def outputs(prefix, *flags):
        return [x for flag in flags for x in (flag, str(tmp_path / f"{prefix}{flag}"))]

    pg = GeneratorConfig(n=4, m=80, k=4, D=Fraction(8), value_grid="powers-of-two", seed=3)
    bv = GeneratorConfig(n=4, m=120, k=2, D=Fraction(4), value_grid="adversarial-near-threshold", seed=4)
    for policy, cfg in (("pressure-greedy", pg), ("bi-value", bv)):
        path = tmp_path / f"{policy}.json"
        path.write_text(instance_to_json(generate_instance(cfg)) + "\n")
        argv = ["run", "--in", str(path), "--policy", policy]
        assert main(argv + outputs(policy, "--out", "--trace", "--report")) == 0
    for n, budget in ((2, 100), (3, 60)):
        argv = ["adversary", "run", "--n", str(n), "--eps", "1", "--budget", str(budget)]
        assert main(argv + outputs(f"game{n}", "--out-instance", "--out-allocation", "--out-certificate")) == 0
    assert built == []
    inst = load_instance(path.read_text())
    assert len(inst.items) == inst.m and inst.items[0] and built == [1]  # one build, on the first read


_STEP = {"item": 1, "raw": ["1", "2"], "effective": ["1", "2"], "types": [1, 1], "agent": 1}


def _step(n):
    """A first trace record of ``n`` agents with no pressures."""
    return {"item": 1, "raw": ["1"] * n, "effective": ["1"] * n, "types": [1] * n, "agent": 1}


@pytest.mark.parametrize(
    "line, message",
    [
        ("{", "invalid JSON"),
        ('{"item":1}', "needs the keys"),
        ("[1, 2]", "needs the keys"),
        (json.dumps({**_STEP, "agent": True}), "agent True"),
        (json.dumps({**_STEP, "agent": 3}), "agent 3"),
        (json.dumps({**_STEP, "agent": 0}), "agent 0"),
        (json.dumps({**_STEP, "raw": ["1"]}), "raw must be a list of 2"),
        (json.dumps({**_STEP, "effective": ["1", "2", "3"]}), "effective must be a list of 2"),
        (json.dumps({**_STEP, "types": [1]}), "types must be a list of 2"),
        (json.dumps({**_STEP, "types": [0, 1]}), "types must be positive"),
        (json.dumps({**_STEP, "types": [1, False]}), "types must be positive"),
        (json.dumps({**_STEP, "item": 2, "types": [3, 1]}), "type index 3 exceeds the item number 2"),
        (json.dumps({**_STEP, "item": 2, "types": [1, 10**7]}), "type index 10000000 exceeds the item number 2"),
        (json.dumps({**_STEP, "raw": ["1", 0.5]}), "not a rational"),
        (json.dumps({**_STEP, "item": "x"}), "item 'x' is not the record's position 2"),
        (json.dumps({**_STEP, "item": True}), "item True is not the record's position 2"),
        (json.dumps(_STEP), "item 1 is not the record's position 2"),
        (json.dumps({**_STEP, "item": 2, "pressures": []}), "pressures must be a list of 2 lists"),
        (json.dumps({**_STEP, "item": 2, "pressures": ["12", "3"]}), "pressures must be a list of 2 lists"),
        (json.dumps({**_STEP, "item": 2, "pressures": [["1"], [0.5]]}), "not a rational"),
        ((3, json.dumps({**_step(3), "item": 2, "pressures": [["1/3"], ["0"], ["0"]]})),
         "pressures must be multiples of 1/2"),
        ((1, json.dumps({**_step(1), "item": 2, "pressures": [["0"]]})), "not recorded for n=1"),
    ],
)
def test_trace_from_jsonl_rejects_malformed_lines(line, message):
    n, line = line if isinstance(line, tuple) else (2, line)  # the n=2 lines follow _STEP
    text = json.dumps(_STEP if n == 2 else _step(n)) + "\n\n" + line + "\n"
    with pytest.raises(ParseError, match=f"^line 3: .*{message}"):
        trace_from_jsonl(text, n=n)


def test_n1_degenerate():
    inst = Instance(1, ((Fraction(3),), (Fraction(5),)))
    alloc, _ = run_online(inst, PressureGreedyPolicy())
    assert alloc.assignment == (1, 1)


def test_dump_to_one_ratio_at_most_n():
    rng = random.Random(41)
    for _ in range(8):
        inst = random_instance(rng, n=rng.randint(2, 3), m=rng.randint(3, 8), k=2)
        alloc, _ = run_online(inst, DumpToOnePolicy())
        assert alloc.bundle_disutility(inst, 1) == inst.total(1)
        mms = mms_exact(inst.agent_values(1), inst.n)[0]
        assert inst.total(1) <= inst.n * mms


# bi-value -------------------------------------------------------------------

def test_merge_rule_examples():
    assert bi_value_merges(Fraction(2), Fraction(1))       # 1/2 > (sqrt(3)-1)/2
    assert not bi_value_merges(Fraction(10), Fraction(1))  # 1/10 below threshold
    assert bi_value_merges(Fraction(3), Fraction(3))


def test_merge_rule_near_threshold():
    # (sqrt(3)-1)/2 = 0.36602...; 11/30 is just above, 117/320 just below
    assert bi_value_merges(Fraction(30), Fraction(11))
    assert not bi_value_merges(Fraction(320), Fraction(117))


def test_bi_value_registration():
    pol, tables = BiValuePolicy(), ValueTables(2)
    pol.start(2, tables.values)
    pol.choose(tables.encode((Fraction(2), Fraction(10))))
    assert pol.table == [[(0, 1)], [(0, 1)]]
    pol.choose(tables.encode((Fraction(1), Fraction(1))))
    assert pol.table[0][1][1] == 1  # merged
    assert pol.table[1][1][1] == 2  # separate
    # the merged type reports the larger value, for both of its raw values
    assert pol.effective.values == [[Fraction(2)], [Fraction(10), Fraction(1)]]
    assert pol.table[0] == [(0, 1), (0, 1)]
    assert pol.last_effective(None) == (0, 1)


def test_bi_value_merged_acts_single_type():
    # ratio 1/2 merges, so the run must coincide with round robin
    vals = [Fraction(2), Fraction(1), Fraction(1), Fraction(2), Fraction(2), Fraction(1)]
    inst = Instance(3, tuple(tuple([v] * 3) for v in vals))
    alloc, _ = run_online(inst, BiValuePolicy())
    rr, _ = run_online(inst, RoundRobinPolicy())
    assert alloc.assignment == rr.assignment


def _third_value_instance():
    # third distinct value for agent 1 triggers the rounded-greedy fallback
    vals = [Fraction(1), Fraction(2), Fraction(5)]
    return Instance(2, tuple((v, Fraction(1)) for v in vals) + ((Fraction(3), Fraction(1)),))


def test_bi_value_promise_violation_falls_back():
    pol = BiValuePolicy()
    run_online(_third_value_instance(), pol)
    assert pol.fell_back


def _fallback_instances():
    yield _third_value_instance()
    rng = random.Random(79)
    for _ in range(12):
        n = rng.randint(2, 4)
        m = rng.randint(6, 24)
        yield random_instance(rng, n=n, m=m, k=3)  # three values break the promise


def test_bi_value_fallback_matches_closed_form_replay():
    # after the violation, the fallback's value tables and pressures must equal
    # a from-scratch rounded replay of the realized (bi-value era) history
    for inst in _fallback_instances():
        n = inst.n
        pol = BiValuePolicy()
        alloc, _ = run_online(inst, pol)
        if not pol.fell_back:
            continue
        rounded = [tuple(round_up_pow2(v) for v in item) for item in inst.items]
        registries = [dict() for _ in range(n)]
        receipts = [dict() for _ in range(n)]
        sightings = [dict() for _ in range(n)]
        for j, item in enumerate(rounded):
            for i in range(n):
                u = registries[i].setdefault(item[i], len(registries[i]) + 1)
                sightings[i][u] = sightings[i].get(u, 0) + 1
                if alloc.assignment[j] == i + 1:
                    receipts[i][u] = receipts[i].get(u, 0) + 1
        state = pol.state
        for i in range(n):
            assert [(pol.effective.values[i][e], u) for e, u in pol.table[i]] == [
                (round_up_pow2(v), registries[i][round_up_pow2(v)]) for v in inst.values[i]
            ]
            for u in range(1, len(registries[i]) + 1):
                expected = n * receipts[i].get(u, 0) - sightings[i][u]
                assert state.scaled[i][u - 1] == expected


# The two classifiers as they were before the value tables were indexed by
# code: one dict per agent keyed by the raw Fraction, filled by the same
# value-to-type rules, and a repeated-raw-vector shortcut.

class _FractionKeyedGreedy(Policy):
    def start(self, n):
        super().start(n, ())
        self._new_tables()
        self._types = ()
        self._effective = ()
        self._max_scaled = 0

    def _new_tables(self):
        self.state = PressureState(self.n) if self.n >= 2 else None
        self.table = [{} for _ in range(self.n)]
        self._pow2_types = [{} for _ in range(self.n)]
        self._last_raw = None

    def _value_type(self, agent, value):
        eff = round_up_pow2(value)
        if self.state is None:
            return eff, 1
        types = self._pow2_types[agent - 1]
        u = types.get(eff)
        if u is None:
            u = types[eff] = self.state.add_type(agent)
        return eff, u

    def _classify(self, raw):
        entries = []
        for agent, (table, v) in enumerate(zip(self.table, raw), 1):
            entry = table.get(v)
            if entry is None:
                entry = table[v] = self._value_type(agent, v)
            entries.append(entry)
        effective, types = zip(*entries)
        return effective, types

    def choose(self, raw):
        if raw != self._last_raw:
            self._effective, self._types = self._classify(raw)
            self._last_raw = tuple(raw)
        if self.state is None:
            return 1
        winner = self.state.step(self._types)
        self._max_scaled = max(self._max_scaled, self.state.scaled[winner - 1][self._types[winner - 1] - 1])
        return winner

    def pressure_snapshot(self):
        return None if self.state is None else self.state.snapshot()

    def max_pressure_seen(self):
        return None if self.state is None else Fraction(self._max_scaled, self.n - 1)


class _FractionKeyedBiValue(_FractionKeyedGreedy):
    def start(self, n):
        super().start(n)
        self.history = []
        self.fell_back = False

    def _value_type(self, agent, value):
        if self.fell_back:
            return super()._value_type(agent, value)
        if self.state is None:
            return value, 1
        table = self.table[agent - 1]
        if len(table) == 2:
            raise BiValuePromiseViolated(f"agent {agent}: third distinct value {value}")
        if table:
            (first,) = table
            if bi_value_merges(first, value):
                table[first] = merged = (max(first, value), 1)
                return merged
        return value, self.state.add_type(agent)

    def choose(self, raw):
        try:
            agent = super().choose(raw)
        except BiValuePromiseViolated:
            self.fell_back = True
            self._new_tables()
            for past, past_agent in self.history:
                self.state.step(self._classify(past)[1], past_agent)
            self._max_scaled = max(self._max_scaled, *map(max, self.state.scaled))
            agent = super().choose(raw)
        self.history.append((tuple(raw), agent))
        return agent


def _assert_lockstep(inst):
    """The coded tables agree with the Fraction-keyed ones after every item of
    ``inst``: in a ``run_online`` trace, which feeds the instance's codes, and
    in a trace fed item by item with codes from tables of its own, as
    ``play_game`` feeds one."""
    fell_back = False
    for make, old in ((PressureGreedyPolicy, _FractionKeyedGreedy()), (BiValuePolicy, _FractionKeyedBiValue())):
        run = make()
        _, trace = run_online(inst, run)
        direct, tables = make(), ValueTables(inst.n)
        direct_trace = RunTrace.begin(direct, inst.n, tables.values)
        old.start(inst.n)
        for raw, step, rows in zip(inst.items, trace.steps, _rows(trace)):
            assert direct_trace.feed(direct, tables.encode(raw)) == step.agent == old.choose(raw)
            effective = tuple(map(getitem, direct.effective.values, direct.last_effective(None)))
            assert trace.effective(step) == effective == old._effective
            assert step.types == direct.last_types() == old._types
            # the rows the run's trace rebuilds are the engine's and the Fraction-keyed policy's
            assert rows == old.pressure_snapshot() == (None if direct.state is None else direct.state.snapshot())
        assert run.max_pressure_seen() == direct.max_pressure_seen() == old.max_pressure_seen()
        if make is BiValuePolicy:
            assert run.fell_back == direct.fell_back == old.fell_back
            fell_back = old.fell_back
    return fell_back


def test_coded_tables_match_the_fraction_keyed_tables():
    rng = random.Random(101)
    fallbacks = 0
    for trial in range(240):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        grid = GRID_NAMES[trial % 3]
        if grid == "adversarial-near-threshold":
            k = min(k, 2)
        if grid == "powers-of-two":
            D = Fraction(2 ** rng.randint(k - 1, 6))
        else:  # near-threshold pairs need a spread of at least 30/11
            D = Fraction(rng.randint(3, 40), rng.randint(1, 3)) + 3
        cfg = GeneratorConfig(n=n, m=rng.randint(k, 40), k=k, D=D, value_grid=grid, seed=trial)
        fallbacks += _assert_lockstep(generate_instance(cfg))
    for inst in _fallback_instances():
        fallbacks += _assert_lockstep(inst)
    assert fallbacks >= 40


def test_coded_tables_match_the_fraction_keyed_tables_on_an_adversary_game():
    game = play_game(make_recursive_adversary(3, 1, pin_horizon=300), PressureGreedyPolicy(), budget=300)
    assert game.rounds == 300 and len(set(game.instance.items)) == 300  # every item is new
    _assert_lockstep(game.instance)


def test_a_new_code_is_classified_from_the_bound_tables():
    # (4, 4) is new to both agents: a type of its own, effective value 4,
    # and with both of its pressures at zero the lowest agent gets it
    pol, tables = PressureGreedyPolicy(), ValueTables(2)
    pol.start(2, tables.values)
    assert pol.choose(tables.encode((Fraction(1), Fraction(1)))) == 1
    assert pol.choose(tables.encode((Fraction(4), Fraction(4)))) == 1
    assert pol.last_types() == (2, 2)
    assert tuple(map(getitem, pol.effective.values, pol.last_effective(None))) == (Fraction(4), Fraction(4))


def test_external_policy_gets_each_items_raw_values():
    seen = []
    external = ExternalPolicy(lambda d: seen.append(d) or len(seen) % 3 + 1)
    inst = generate_instance(GeneratorConfig(n=3, m=60, k=3, D=Fraction(20), value_grid="uniform-rational", seed=9))
    run_online(inst, external)
    assert len(seen) == inst.m and all(seen[j - 1] == inst.items[j - 1] for j in range(1, inst.m + 1))
    seen.clear()
    adversary, emitted = make_recursive_adversary(3, 1, pin_horizon=80), []
    next_item = adversary.next_item
    adversary.next_item = lambda: emitted.append(next_item()) or emitted[-1]
    game = play_game(adversary, external, budget=80)
    assert seen == emitted == list(game.instance.items) and len(seen) == game.rounds


def test_policy_factory():
    for name in ["pressure-greedy", "bi-value", "round-robin", "dump-to-one", "mixture:7"]:
        pol = make_policy(name)
        pol.start(3, [[Fraction(1)]] * 3)
        agent = pol.choose((0, 0, 0))
        assert 1 <= agent <= 3
    for name in ["nope", "mixture:abc"]:
        with pytest.raises(FairdivError):
            make_policy(name)
