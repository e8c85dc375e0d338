import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fairdiv import (
    Allocation,
    FairdivError,
    Instance,
    ParseError,
    allocation_to_json,
    format_rational,
    instance_digest,
    instance_stats,
    instance_to_json,
    load_allocation,
    load_instance,
    parse_rational,
)
from fairdiv.adversary import make_recursive_adversary, play_game
from fairdiv.allocator import RoundRobinPolicy
from fairdiv.core import instance_json_parts, json_texts

from conftest import random_instance


def test_load_basic():
    inst = load_instance('{"n": 2, "items": [{"d": ["1", "1"]}]}')
    assert inst.n == 2 and inst.m == 1
    assert inst.items[0] == (Fraction(1), Fraction(1))


def test_load_fraction_string():
    inst = load_instance('{"n": 1, "items": [{"d": ["1/3"]}]}')
    assert inst.items[0][0] == Fraction(1, 3)


def test_zero_disutility_rejected():
    with pytest.raises(ParseError):
        load_instance('{"n": 1, "items": [{"d": ["0"]}]}')


def test_negative_disutility_rejected():
    with pytest.raises(ParseError):
        load_instance('{"n": 1, "items": [{"d": ["-2"]}]}')


def test_wrong_vector_length_rejected():
    with pytest.raises(ParseError):
        load_instance('{"n": 2, "items": [{"d": ["1"]}]}')


def test_float_rejected():
    with pytest.raises(ParseError):
        load_instance('{"n": 1, "items": [{"d": [0.5]}]}')
    with pytest.raises(ParseError):
        parse_rational("0.5")


@pytest.mark.parametrize("text", ["5\n", "\u0663", "12/\u0664"], ids=["newline", "arabic-indic", "arabic-indic-den"])
def test_non_ascii_digits_and_trailing_newline_rejected(text):
    with pytest.raises(ParseError):
        parse_rational(text)
    with pytest.raises(ParseError):
        load_instance(json.dumps({"n": 1, "items": [{"d": [text]}]}))


def test_json_booleans_rejected_as_integers():
    with pytest.raises(ParseError):
        load_instance('{"n": true, "items": [{"d": ["1"]}]}')
    with pytest.raises(ParseError):
        load_allocation('{"assignment": [true]}')
    with pytest.raises(ParseError):
        Instance(True, ((Fraction(1),),))
    with pytest.raises(ParseError):
        Allocation((1, True))


def test_int_entries_accepted():
    inst = load_instance('{"n": 2, "items": [{"d": [1, 3]}]}')
    assert inst.items[0] == (Fraction(1), Fraction(3))


def test_rationals_serialize_as_strings():
    inst = Instance(1, ((Fraction(1, 3),),))
    obj = json.loads(instance_to_json(inst))
    assert obj["items"][0]["d"] == ["1/3"]


def test_instance_roundtrip_bit_exact():
    inst = Instance(2, ((Fraction(3, 7), Fraction(5)), (Fraction(1), Fraction(2, 9))))
    text = instance_to_json(inst)
    again = load_instance(text)
    assert again == inst
    assert instance_to_json(again) == text


def test_rationals_of_any_length_roundtrip():
    # both terms are past the interpreter's 4300-digit int/str conversion limit
    x = Fraction(7**6000, 3**5000 + 1)
    text = format_rational(x)
    p, q = text.split("/")
    assert len(p) > 4300 and len(q) > 2300
    assert parse_rational(text) == x
    assert format_rational(-(7**6000)) == "-" + p
    assert parse_rational("-" + p) == -(7**6000)
    inst = Instance(2, ((x, Fraction(1)), (Fraction(1, 3), 1 / x)))
    text = instance_to_json(inst)
    assert load_instance(text) == inst
    assert instance_to_json(load_instance(text.encode("utf-8"))) == text


def test_json_texts_share_each_denominator_and_pass_the_digit_limit():
    big = 3**10000  # 4772 digits, past the int/str conversion limit
    values = [Fraction(p, q) for q in (1, 7, 12, big) for p in (1, 5, -11, big + 1)]
    texts = json_texts(values + values)
    assert texts[: len(values)] == texts[len(values):]
    for value, text in zip(values, texts):
        assert text.startswith('"') and text.endswith('"')
        assert parse_rational(text[1:-1]) == value
        assert text == json.dumps(format_rational(value))
        if len(text) < 100:  # short enough for str
            assert text == json.dumps(str(value))


def test_json_texts_convert_each_integer_once(monkeypatch):
    import fairdiv.core as core

    converted = []
    monkeypatch.setattr(core, "_decimal", lambda x: converted.append(x) or str(x))
    values = [Fraction(5, 7), Fraction(5, 3), Fraction(2, 7), Fraction(9), Fraction(1, 9), Fraction(9, 5)]
    assert json_texts(values) == [json.dumps(str(v)) for v in values]
    assert sorted(converted) == [1, 2, 3, 5, 7, 9]  # each distinct numerator and denominator once


def test_instance_json_parts_share_each_agents_value_texts():
    rng = random.Random(29)
    instances = [random_instance(rng, rng.randint(1, 4), rng.randint(0, 25), rng.randint(1, 3)) for _ in range(30)]
    instances += [Instance(3, ()), Instance(1, ((Fraction(2),),)), random_instance(rng, 5, 300, 3)]  # 1502 parts
    for inst in instances:
        parts = instance_json_parts(inst)
        assert all(type(p) is bytes for p in parts) and len(parts) == inst.n * inst.m + 2
        assert b"".join(parts).decode("ascii") == instance_to_json(inst)
        assert instance_digest(inst) == hashlib.sha256(instance_to_json(inst).encode("utf-8")).hexdigest()
        # items showing one value share its part, up to the last item's, which has no comma
        for i, column in enumerate(inst.columns):
            seen = {}
            for j, c in enumerate(column[:-1]):
                assert seen.setdefault(c, parts[1 + j * inst.n + i]) is parts[1 + j * inst.n + i]


def test_instance_json_parts_allocate_less_than_the_file():
    import tracemalloc

    game = play_game(make_recursive_adversary(3, 1, pin_horizon=300), RoundRobinPolicy(), budget=300)
    inst = game.instance
    inst.columns  # built once, before the count
    size = len(instance_to_json(inst))
    assert size > 300_000
    tracemalloc.start()
    try:
        parts = instance_json_parts(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size, (peak, size)
    assert sum(map(len, parts)) == size


@pytest.mark.parametrize("digits", [4300, 4301, 100_000])
def test_rationals_round_trip_at_and_past_the_digit_limit(digits):
    rng = random.Random(digits)
    p = rng.randrange(10 ** (digits - 1), 10**digits)
    q = rng.randrange(10 ** (digits - 2), 10 ** (digits - 1)) | 1
    x = Fraction(p, q)
    text = format_rational(x)
    num, den = text.split("/")
    for part, value in ((num, x.numerator), (den, x.denominator)):
        assert part[:20] == str(value // 10 ** (len(part) - 20))
        assert part[-20:] == str(value % 10**20).zfill(20)
    assert len(num) == digits
    assert parse_rational(text) == x
    assert format_rational(-x) == "-" + text
    assert parse_rational("-" + text) == -x


def test_allocation_roundtrip():
    alloc = Allocation((1, 2, 1))
    assert load_allocation(allocation_to_json(alloc)) == alloc


def test_stats_examples():
    inst = Instance(2, ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(4))))
    s = instance_stats(inst)
    assert s.k == 2 and s.D == 2

    single = Instance(3, ((Fraction(5), Fraction(5), Fraction(5)),))
    s = instance_stats(single)
    assert s.k == 1 and s.D == 1

    inst = Instance(1, ((Fraction(1),), (Fraction(8),)))
    s = instance_stats(inst)
    assert s.k == 2 and s.D == 8


def test_one_based_accessors():
    inst = Instance(2, ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))))
    assert inst.disutility(2, 1) == 2
    assert inst.disutility(1, 2) == 3
    assert Allocation((1, 2)).bundles(2) == [[1], [2]]


def test_digest_is_stable():
    inst = Instance(1, ((Fraction(1),),))
    assert instance_digest(inst) == instance_digest(load_instance(instance_to_json(inst)))


rationals = st.fractions(min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if b != 0:
        assert (a / b) * b == a


@given(st.fractions(min_value=Fraction(1, 64), max_value=Fraction(100), max_denominator=64))
def test_rational_string_roundtrip(x):
    assert parse_rational(str(x)) == x


@given(
    st.integers(min_value=1, max_value=4),
    st.lists(
        st.fractions(min_value=Fraction(1, 16), max_value=Fraction(32), max_denominator=16),
        min_size=0,
        max_size=8,
    ),
)
def test_instance_roundtrip_property(n, values):
    items = tuple(tuple(values[j] for _ in range(n)) for j in range(len(values)))
    inst = Instance(n, items)
    assert load_instance(instance_to_json(inst)) == inst


# The value-coded instance ---------------------------------------------------

def test_codes_say_value_equality_not_spelling():
    text = '{"n": 2, "items": [{"d": ["1/2", 6]}, {"d": ["2/4", "06"]}, {"d": [1, "6/1"]}, {"d": ["1", "6"]}]}'
    inst = load_instance(text)
    assert inst.values == ((Fraction(1, 2), Fraction(1)), (Fraction(6),))
    assert inst.codes == ((0, 0), (0, 0), (1, 0), (1, 0))
    assert inst.items[0][0] is inst.items[1][0]  # one Fraction per distinct value
    assert inst == Instance(2, inst.items)
    assert Instance(2, inst.items).codes == inst.codes


@pytest.mark.parametrize(
    "items, message",
    [
        ('[{"d": ["1", true]}]', "not a rational: True"),
        ('[{"d": ["1", "1"]}, {"d": [true, "1"]}]', "not a rational: True"),
        ('[{"d": [1, "1"]}, {"d": [true, "1"]}]', "not a rational: True"),
        ('[{"d": [1, "1"]}, {"d": ["1", [1]]}]', "not a rational: [1]"),
        ('[{"d": ["1", "1"]}, {"d": ["1", "0"]}]', "item 2, agent 2: non-positive disutility 0"),
        ('[{"d": ["1", "1"]}, {"d": ["-3/6", "1"]}]', "item 2, agent 1: non-positive disutility -1/2"),
        ('[{"d": ["1", "1"]}, {"d": ["1"]}]', "item 2: disutility vector has length 1, expected 2"),
        ('[{"d": ["1", "1"]}, {"d": ["1", "1", "x"]}]', "not a rational string: 'x'"),
        ('[{"d": ["1", "1"]}, {"d": ["1", "2/0"]}]', "not a rational string: '2/0'"),
        ('[{"d": ["1", "1"]}, {"d": ["1", 0.5]}]', "not a rational: 0.5"),
        ('[{"d": ["1", "1"]}, {"d": ["1", null]}]', "not a rational: None"),
        ('[{"d": ["1", "1"]}, ["1", "1"]]', """item entries must be {"d": [...]}, got ['1', '1']"""),
        ("{}", "items must be a list"),
    ],
)
def test_loader_messages(items, message):
    with pytest.raises(ParseError) as exc:
        load_instance('{"n": 2, "items": %s}' % items)
    assert str(exc.value) == message


def test_instance_checks_each_entry():
    one = Fraction(1)
    for items, message in (
        (((one, one), (True, one)), "item 2, agent 1: not a rational: True"),
        (((one, one), (one, 1)), "item 2, agent 2: not a rational: 1"),
        (((one, one), (one, -one)), "item 2, agent 2: non-positive disutility -1"),
        (((one, one), (one,)), "item 2: disutility vector has length 1, expected 2"),
    ):
        with pytest.raises(ParseError) as exc:
            Instance(2, items)
        assert str(exc.value) == message
    for n in (0, True, "2"):
        with pytest.raises(ParseError, match="agent count must be a positive integer"):
            load_instance(json.dumps({"n": n, "items": [{"d": ["1", "1"]}]}))


def _fraction_instance_to_json(inst) -> str:
    """instance_to_json as it was before the tables: one json.dumps of every entry."""
    obj = {"n": inst.n, "items": [{"d": [format_rational(v) for v in d]} for d in inst.items]}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


values = st.one_of(
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000), max_denominator=1000),
    st.builds(Fraction, st.integers(1, 10**1100), st.integers(1, 10**1100)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(values, min_size=1, max_size=5),
    st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4), max_size=12),
)
def test_instance_json_round_trip_on_coded_tables(n, pool, picks):
    inst = Instance(n, tuple(tuple(pool[p % len(pool)] for p in row[:n]) for row in picks))
    text = instance_to_json(inst)
    assert text == _fraction_instance_to_json(inst)
    again = load_instance(text)
    assert again == inst and again.values == inst.values and again.codes == inst.codes
    assert instance_to_json(again) == text


def test_bundle_disutility_and_stats_match_rescans():
    rng = random.Random(61)
    instances = [
        random_instance(rng, n=rng.randint(1, 5), m=rng.randint(1, 30), k=rng.randint(1, 4)) for _ in range(60)
    ]
    game = play_game(make_recursive_adversary(3, 1, pin_horizon=200), RoundRobinPolicy(), budget=200)
    instances.append(game.instance)  # every value distinct, with thousands of digits
    for inst in instances:
        columns = [inst.agent_values(i) for i in range(1, inst.n + 1)]
        stats = instance_stats(inst)
        assert stats.k == max(len(set(col)) for col in columns)
        assert stats.D == max(max(col) / min(col) for col in columns)
        assignment = tuple(rng.randint(1, inst.n) for _ in range(inst.m))
        for alloc in (Allocation(assignment), Allocation(assignment[: inst.m // 2])):
            for agent in range(1, inst.n + 1):
                expected = sum((columns[agent - 1][j] for j, a in enumerate(alloc.assignment) if a == agent), Fraction(0))
                assert alloc.bundle_disutility(inst, agent) == expected
    with pytest.raises(FairdivError, match="allocation of 3 items for an instance of 2"):
        Allocation((1, 1, 1)).bundle_disutility(Instance(1, ((Fraction(1),),) * 2), 1)


def test_columns_are_the_agents_codes_and_no_part_of_identity():
    # Instance(n, items) and from_codes give each agent its codes in arrival
    # order, built on first read; columns take no part in ==, hash or repr
    rng = random.Random(163)
    instances = [random_instance(rng, rng.randint(1, 5), rng.randint(0, 30), rng.randint(1, 4)) for _ in range(40)]
    instances += [Instance(3, ()), Instance(1, ((Fraction(2),), (Fraction(1, 3),), (Fraction(2),)))]
    assert "columns" not in {f.name for f in dataclasses.fields(Instance)}
    for inst in instances:
        made = Instance.from_codes(inst.n, inst.values, inst.codes)
        assert "columns" not in vars(inst) and "columns" not in vars(made)
        before = repr(made)
        assert made.columns == inst.columns == tuple(tuple(row[i] for row in inst.codes) for i in range(inst.n))
        assert made.columns is made.columns and "columns" in vars(made)
        fresh = Instance.from_codes(inst.n, inst.values, inst.codes)
        assert made == fresh and fresh == made and hash(made) == hash(fresh) == hash(inst)
        assert repr(made) == repr(fresh) == before and "columns" not in before
    assert instances[-2].columns == ((), (), ()) and instances[-1].columns == ((0, 1, 0),)
