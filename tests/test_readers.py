"""Every file reader returns or raises FairdivError, whatever bytes it is fed."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from fairdiv import FairdivError, load_allocation, load_instance
from fairdiv.allocator import trace_from_jsonl
from fairdiv.stacking import replay_stacking_trace

READERS = {
    "instance": load_instance,
    "allocation": load_allocation,
    "run trace": lambda data: trace_from_jsonl(data, n=2),
    "stacking trace": replay_stacking_trace,
}

# Keys of all four formats, so that generated objects reach past the key checks.
KEYS = ("n", "items", "d", "assignment", "item", "raw", "effective", "types", "agent",
        "pressures", "a", "b", "A", "B", "pieces_after")
RATIONALS = ("1", "2", "1/2", "-1/2", "0", "1/3", "3/2")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.integers() | st.floats()
    | st.sampled_from(RATIONALS) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), children, max_size=6),
    max_leaves=24,
)

LONG = "9" * 5000  # past the interpreter's 4300-digit int/str limit

# Inputs that raised something other than FairdivError before the readers shared
# one JSON decoder: invalid UTF-8, nesting deeper than the recursion limit, and
# a JSON integer past the digit limit.
BAD_DOCUMENTS = (b"\xff", "[" * 100000, LONG)


def _reads_or_rejects(reader, data) -> None:
    try:
        reader(data)
    except FairdivError:
        pass


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("data", BAD_DOCUMENTS, ids=["bad-utf8", "deep-nesting", "long-int"])
def test_readers_reject_undecodable_documents(name, data):
    with pytest.raises(FairdivError):
        READERS[name](data)


def test_readers_reject_long_rationals_without_crashing():
    # Rationals of any length parse; the error messages naming them must format too.
    with pytest.raises(FairdivError, match="non-positive"):
        load_instance('{"n": 1, "items": [{"d": ["-%s"]}]}' % LONG)
    record = {"a": "1", "b": "1", "A": [["-1/2", "0"]], "B": [["0", "1/2"]], "pieces_after": []}
    for field, value in (("a", LONG), ("A", [["-1/2", "1/" + LONG]])):
        report = replay_stacking_trace(json.dumps({**record, field: value}))
        assert not report.passed and report.failures[0].startswith("line 1: ")


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=64))
def test_readers_on_arbitrary_bytes(data):
    for reader in READERS.values():
        _reads_or_rejects(reader, data)


@settings(max_examples=150, deadline=None)
@given(data=st.text(max_size=64))
def test_readers_on_arbitrary_text(data):
    for reader in READERS.values():
        _reads_or_rejects(reader, data)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(json_values, min_size=1, max_size=3), as_bytes=st.booleans())
def test_readers_on_arbitrary_json(values, as_bytes):
    text = "\n".join(json.dumps(v) for v in values)
    data = text.encode("utf-8") if as_bytes else text
    for reader in READERS.values():
        _reads_or_rejects(reader, data)
