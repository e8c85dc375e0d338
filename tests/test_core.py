import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairdiv import (
    Allocation,
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
