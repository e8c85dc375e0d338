import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairdiv import (
    FairdivError,
    Instance,
    ParseError,
    PressureState,
    bi_value_merges,
    make_policy,
    round_up_pow2,
    run_online,
    validate_pressure_trace,
)
from fairdiv.allocator import (
    BiValuePolicy,
    DumpToOnePolicy,
    PressureGreedyPolicy,
    RoundRobinPolicy,
    trace_from_jsonl,
)
from fairdiv.mms import mms_exact

from conftest import random_instance


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


# pressure-greedy steps -------------------------------------------------------

def test_first_item_three_agents():
    state = PressureState(3)
    raw = (Fraction(2), Fraction(3), Fraction(5))
    agent = state.step(tuple(state.register(i, round_up_pow2(raw[i - 1])) for i in (1, 2, 3)))
    assert agent == 1  # all pressures zero, lowest index wins
    assert state.pressure(1, 1) == 1
    assert state.pressure(2, 1) == Fraction(-1, 2)
    assert state.pressure(3, 1) == Fraction(-1, 2)


def test_two_unit_items_alternate():
    inst = Instance(2, ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1))))
    alloc, trace = run_online(inst, PressureGreedyPolicy())
    assert alloc.assignment == (1, 2)
    assert trace.steps[0].pressures == ((Fraction(1),), (Fraction(-1),))
    assert trace.steps[1].pressures == ((Fraction(0),), (Fraction(0),))


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


def test_trace_jsonl_roundtrip():
    rng = random.Random(37)
    inst = random_instance(rng, n=3, m=12, k=2)
    _, trace = run_online(inst, PressureGreedyPolicy())
    again = trace_from_jsonl(trace.to_jsonl(), n=3)
    assert again.to_jsonl() == trace.to_jsonl()


_STEP = {"item": 1, "raw": ["1", "2"], "effective": ["1", "2"], "types": [1, 1], "agent": 1}


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
        (json.dumps({**_STEP, "raw": ["1", 0.5]}), "not a rational"),
    ],
)
def test_trace_from_jsonl_rejects_malformed_lines(line, message):
    text = json.dumps(_STEP) + "\n\n" + line + "\n"
    with pytest.raises(ParseError, match=f"^line 3: .*{message}"):
        trace_from_jsonl(text, n=2)


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
    pol = BiValuePolicy()
    pol.start(2)
    assert pol.register_value(1, Fraction(2)) == 1
    assert pol.register_value(1, Fraction(1)) == 1  # merged
    assert pol.register_value(2, Fraction(10)) == 1
    assert pol.register_value(2, Fraction(1)) == 2  # separate
    assert pol.representative[0][1] == 2  # merged type reports the larger value


def test_bi_value_merged_acts_single_type():
    # ratio 1/2 merges, so the run must coincide with round robin
    vals = [Fraction(2), Fraction(1), Fraction(1), Fraction(2), Fraction(2), Fraction(1)]
    inst = Instance(3, tuple(tuple([v] * 3) for v in vals))
    alloc, _ = run_online(inst, BiValuePolicy())
    rr, _ = run_online(inst, RoundRobinPolicy())
    assert alloc.assignment == rr.assignment


def test_bi_value_promise_violation_falls_back():
    # third distinct value for agent 1 triggers the rounded-greedy fallback
    vals = [Fraction(1), Fraction(2), Fraction(5)]
    inst = Instance(2, tuple((v, Fraction(1)) for v in vals) + ((Fraction(3), Fraction(1)),))
    pol = BiValuePolicy()
    alloc, trace = run_online(inst, pol)
    assert pol.fell_back
    # rebuilt pressures satisfy the closed form over rounded values
    state = pol.state
    for i in range(2):
        for u in range(len(state.scaled[i])):
            assert state.scaled[i][u] == 2 * state.receipts[i][u] - state.sightings[i][u]


def test_bi_value_fallback_matches_closed_form_replay():
    # after the violation, the fallback's registries and pressures must equal
    # a from-scratch rounded replay of the realized (bi-value era) history
    rng = random.Random(79)
    for _ in range(12):
        n = rng.randint(2, 4)
        m = rng.randint(6, 24)
        inst = random_instance(rng, n=n, m=m, k=3)  # three values break the promise
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
            assert registries[i] == state.registry[i]
            for u in range(1, len(registries[i]) + 1):
                expected = n * receipts[i].get(u, 0) - sightings[i][u]
                assert state.scaled[i][u - 1] == expected


def test_policy_factory():
    for name in ["pressure-greedy", "bi-value", "round-robin", "dump-to-one", "mixture:7"]:
        pol = make_policy(name)
        pol.start(3)
        agent = pol.choose((Fraction(1), Fraction(1), Fraction(1)))
        assert 1 <= agent <= 3
    for name in ["nope", "mixture:abc"]:
        with pytest.raises(FairdivError):
            make_policy(name)
