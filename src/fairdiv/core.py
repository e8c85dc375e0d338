"""Exact-arithmetic data model for online chore allocation.

Disutilities, pressures, and every derived quantity in this package are
``fractions.Fraction`` values; no floating point touches program state.
Instances and allocations are immutable and serialize to a canonical JSON
form with rationals written as decimal-integer strings ``"p"`` or ``"p/q"``.

Indexing convention: agents and items are 1-based in all I/O and public
accessors, matching the usual notation for allocation problems.
"""

from __future__ import annotations

import decimal
import functools
import hashlib
import json
import re
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import lcm


class FairdivError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FairdivError):
    """Malformed serialized input."""


class InvariantViolation(FairdivError):
    """A structural or theoretical invariant failed at runtime."""


def is_positive_int(x) -> bool:
    """A JSON-style positive integer: an ``int`` >= 1 that is not a ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")

# Pieces that int() and Decimal() convert directly under any int/str digit limit.
_CHUNK_DIGITS, _CHUNK_BITS = 512, 1024


def _int_from_digits(text: str) -> int:
    """``int(text)`` past the digit limit: the halves of the digits are joined
    by cached powers of ten, so the cost is that of big-int multiplication."""
    pow10 = functools.cache(lambda w: 10**w)

    def convert(digits: str) -> int:
        if len(digits) <= _CHUNK_DIGITS:
            return int(digits)
        w = len(digits) // 2
        return convert(digits[:-w]) * pow10(w) + convert(digits[-w:])

    return -convert(text[1:]) if text.startswith("-") else convert(text)


def _digits_from_int(x: int) -> str:
    """``str(x)`` past the digit limit: the halves of the bits are joined as exact
    Decimals by cached powers of two, in a local context wide enough for any int."""
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    pow2 = functools.cache(lambda w: ctx.power(2, w))

    def convert(y: int, bits: int) -> decimal.Decimal:
        if bits <= _CHUNK_BITS:
            return decimal.Decimal(y)
        w = bits // 2
        return ctx.add(ctx.multiply(convert(y >> w, bits - w), pow2(w)), convert(y & ((1 << w) - 1), w))

    return "-" + _digits_from_int(-x) if x < 0 else str(convert(x, x.bit_length()))


def parse_rational(text) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` (or a plain int) into an exact rational.

    Floats and decimal-point strings are rejected: file formats carry
    rationals only in exact integer/fraction form.
    """
    if isinstance(text, bool):
        raise ParseError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        match = _RATIONAL_RE.fullmatch(text)
        if match is None:
            raise ParseError(f"not a rational string: {text!r}")
        parts = match.groups(default="1")
        try:
            return Fraction(*map(int, parts))
        except ValueError:  # past the interpreter's int/str digit limit
            return Fraction(*map(_int_from_digits, parts))
    raise ParseError(f"not a rational: {text!r}")


def _decimal(x: int) -> str:
    """``str(x)``, also past the interpreter's int/str digit limit."""
    try:
        return str(x)
    except ValueError:
        return _digits_from_int(x)


def format_rational(x: Fraction) -> str:
    """``"p"`` or ``"p/q"`` in lowest terms, for rationals of any length."""
    x = x if isinstance(x, Fraction) else Fraction(x)
    p = _decimal(x.numerator)
    return p if x.denominator == 1 else p + "/" + _decimal(x.denominator)


def common_scale(values) -> tuple[int, list[int]]:
    """``(d, [v * d for v in values])`` for ``d`` the least common denominator:
    integers with every order, tie and ratio of the rationals. Denominators
    that form a divisibility chain, as the adversaries' geometric values do,
    are walked from the largest by neighbour quotients; otherwise ``d`` is the
    largest when every denominator divides it, else the lcm."""
    denominators = sorted({v.denominator for v in values}, reverse=True) or [1]
    common, factors = denominators[0], {denominators[0]: 1}
    for hi, lo in zip(denominators, denominators[1:]):
        quotient, rest = divmod(hi, lo)
        if rest:  # not a chain
            if any(common % d for d in denominators):
                common = lcm(*denominators)
            factors = {d: common // d for d in denominators}
            break
        factors[lo] = factors[hi] * quotient
    return common, [v.numerator * factors[v.denominator] for v in values]


class ValueTables:
    """Per agent, a table of distinct values in first-appearance order; a
    value's code is its index in its agent's table.

    Values are keyed by their exact ``(numerator, denominator)``, never by
    ``Fraction`` hash. :meth:`parse` also keys each JSON string by its text,
    so each distinct string is parsed once; ``"2/4"`` and ``"1/2"``, or
    ``"06"`` and the JSON integer 6, share one code. Only strings are cached:
    a JSON ``true`` looked up by value would find the entry of ``1``.
    """

    def __init__(self, n: int):
        self.values: list[list[Fraction]] = [[] for _ in range(n)]
        self._keys: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
        self._texts: list[dict[str, int]] = [{} for _ in range(n)]

    def code(self, i: int, value) -> int:
        """The code of ``value`` in the table of the agent of 0-based index ``i``,
        added if new."""
        key = value.as_integer_ratio()
        keys = self._keys[i]
        c = keys.get(key)
        if c is None:
            c = keys[key] = len(self.values[i])
            self.values[i].append(value)
        return c

    def encode(self, vector) -> tuple[int, ...]:
        """Codes of one vector of n rationals, adding new values to the tables."""
        # code() inlined: Instance(n, items) runs this once per item
        row = []
        for keys, table, v in zip(self._keys, self.values, vector):
            key = v.as_integer_ratio()
            c = keys.get(key)
            if c is None:
                c = keys[key] = len(table)
                table.append(v)
            row.append(c)
        return tuple(row)

    def parse(self, vector) -> tuple[int, ...]:
        """Codes of one JSON vector of n rational strings or integers; a
        malformed entry raises :class:`ParseError`."""
        try:
            return tuple(map(dict.__getitem__, self._texts, vector))
        except (KeyError, TypeError):  # a new string, or not a string
            pass
        codes = self.encode([parse_rational(v) for v in vector])
        for texts, text, c in zip(self._texts, vector, codes):
            if type(text) is str:
                texts[text] = c
        return codes


def _interned(n: int, items) -> tuple[tuple, tuple]:
    """``(values, codes)`` of :class:`Instance`, checking each entry's type."""
    tables = ValueTables(n if items else 0)
    codes = []
    for j, d in enumerate(items, start=1):
        if len(d) != n:
            raise ParseError(f"item {j}: disutility vector has length {len(d)}, expected {n}")
        for i, v in enumerate(d, start=1):
            if not isinstance(v, Fraction):
                raise ParseError(f"item {j}, agent {i}: not a rational: {v!r}")
        codes.append(tables.encode(d))
    return tuple(map(tuple, tables.values)), tuple(codes)


class BuiltOnRead:
    """A dataclass field whose constructor may be passed None: ``build(obj)``
    then makes it on first read, and it is kept. The class has no default for
    it, and ``__post_init__`` drops the None so that the first read builds."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:  # no class-level default: the constructor takes the field
            raise AttributeError(self.name)
        obj.__dict__[self.name] = value = self.build(obj)
        return value


@dataclass(frozen=True)
class Instance:
    """An ordered stream of chores with per-agent positive disutilities.

    ``items[j-1]`` is the disutility vector of the j-th arriving item;
    entry ``i-1`` is agent i's disutility. Item order is arrival order.

    ``values[i-1]`` is agent i's table of distinct values in first-appearance
    order, and ``codes[j-1][i-1]`` indexes it for item j; an instance without
    items has no tables. A code says only which values are equal. ``items``
    alone decides equality; ``tables``, when a producer passes it, is the
    ``(values, codes)`` pair it built (see :meth:`from_codes`), else the
    tables are interned from ``items``. An instance made from its tables
    builds ``items`` on first read; every accessor reads the tables.
    """

    n: int
    items: tuple[tuple[Fraction, ...], ...] = BuiltOnRead(
        lambda inst: tuple(tuple(map(tuple.__getitem__, inst.values, row)) for row in inst.codes)
    )
    tables: InitVar[tuple | None] = None
    values: tuple[tuple[Fraction, ...], ...] = field(init=False, compare=False, repr=False)
    codes: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self, tables):
        if not is_positive_int(self.n):
            raise ParseError(f"agent count must be a positive integer, got {self.n!r}")
        values, codes = _interned(self.n, self.items) if tables is None else tables
        if self.items is None:  # built on first read
            del self.__dict__["items"]
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "codes", codes)
        bad = {(i, c) for i, table in enumerate(values) for c, v in enumerate(table) if v.numerator <= 0}
        if bad:  # name the first entry holding one
            j, i, c = next((j, i, c) for j, row in enumerate(codes, 1) for i, c in enumerate(row) if (i, c) in bad)
            raise ParseError(f"item {j}, agent {i + 1}: non-positive disutility {format_rational(values[i][c])}")

    @classmethod
    def from_codes(cls, n: int, values, codes) -> Instance:
        """The instance whose item j gives agent i the value ``values[i-1][codes[j-1][i-1]]``.
        Only the values' signs are checked: the caller makes each table distinct
        Fractions in first-appearance order, and each row n codes long."""
        return cls(n, None, (tuple(map(tuple, values)), tuple(codes)))

    @property
    def m(self) -> int:
        return len(self.codes)

    @functools.cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.codes)) if self.codes else ((),) * self.n

    def scaled(self, agent: int) -> tuple[int, tuple[int, ...]]:
        """``(scale, table)``, the :func:`common_scale` of agent 1..n's value table, built on
        first use and kept: ``table[c]`` is code c's value times ``scale``. Other agents raise."""
        if not is_positive_int(agent) or agent > self.n:
            raise FairdivError(f"agent {agent!r} outside 1..{self.n}")
        tables = self.__dict__.setdefault("_scaled", {})
        if agent not in tables:
            scale, table = common_scale(self.values[agent - 1] if self.values else ())
            tables[agent] = scale, tuple(table)
        return tables[agent]

    def disutility(self, agent: int, item: int) -> Fraction:
        """d_i(j) with 1-based agent and item indices."""
        return self.values[agent - 1][self.codes[item - 1][agent - 1]]

    def agent_values(self, agent: int) -> tuple[Fraction, ...]:
        """All of one agent's disutilities, in arrival order."""
        return tuple(map(self.values[agent - 1].__getitem__, self.columns[agent - 1]))

    def total(self, agent: int) -> Fraction:
        return sum(self.agent_values(agent), Fraction(0))


@dataclass(frozen=True)
class Allocation:
    """A total assignment of arrived items to agents (1-based on both sides)."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        for j, a in enumerate(self.assignment, start=1):
            if not is_positive_int(a):
                raise ParseError(f"item {j}: invalid agent index {a!r}")

    @property
    def m(self) -> int:
        return len(self.assignment)

    def bundles(self, n: int) -> list[list[int]]:
        """Item indices per agent; the bundles partition the arrived items."""
        out: list[list[int]] = [[] for _ in range(n)]
        for j, a in enumerate(self.assignment, start=1):
            if a > n:
                raise ParseError(f"item {j}: agent index {a} exceeds n={n}")
            out[a - 1].append(j)
        return out

    def bundle_disutility(self, inst: Instance, agent: int) -> Fraction:
        """The agent's total over its bundle, summed on its integer table (:meth:`Instance.scaled`)."""
        if self.m > inst.m:
            raise FairdivError(f"allocation of {self.m} items for an instance of {inst.m}")
        scale, table = inst.scaled(agent)
        return Fraction(sum(table[c] for c, a in zip(inst.columns[agent - 1], self.assignment) if a == agent), scale)


@dataclass(frozen=True)
class InstanceStats:
    """k = max distinct disutility values over agents; D = max value spread."""

    k: int
    D: Fraction


def instance_stats(inst: Instance) -> InstanceStats:
    if inst.m == 0:
        raise FairdivError("instance_stats: empty instance")
    return InstanceStats(k=max(map(len, inst.values)), D=max(max(t) / min(t) for t in inst.values))


# Serialization ----------------------------------------------------------

def json_texts(values) -> list[str]:
    """The JSON string of each value, as ``json.dumps`` writes its
    :func:`format_rational` text (which needs no escaping). Each distinct
    numerator and denominator is written in decimal once, and its digits
    are kept only up to the last value that shows them."""
    ratios = [v.as_integer_ratio() for v in values]
    last = {x: k for k, ratio in enumerate(ratios) for x in ratio}
    kept = {}

    def digits(x: int, k: int) -> str:
        text = kept.pop(x, None) or _decimal(x)
        if last[x] > k:
            kept[x] = text
        return text

    return ['"' + digits(p, k) + ('"' if q == 1 else "/" + digits(q, k) + '"') for k, (p, q) in enumerate(ratios)]


def instance_json_parts(inst: Instance) -> list[bytes]:
    """Canonical JSON, sorted keys and no spaces, as ASCII byte parts from the
    code columns: a head, one part per (item, agent) and a tail. Each distinct
    value of an agent is formatted and encoded once, with the text that follows
    it in an item (for agent 1, also the text before), and every item showing
    that value shares the part; nothing joins the file."""
    n, m = inst.n, inst.m
    parts = [b'{"items":['] + [b""] * (n * m) + [b'],"n":%d}' % n]
    for i, (table, column) in enumerate(zip(inst.values, inst.columns)):
        pre, post = '{"d":[' if i == 0 else "", "]}," if i == n - 1 else ","
        texts = json_texts(table)
        for c, t in enumerate(texts):  # in place: each str is freed as its bytes are made
            texts[c] = (pre + t + post).encode("ascii")
        parts[1 + i : 1 + n * m : n] = [texts[c] for c in column]
    if m:
        parts[n * m] = parts[n * m][:-1]  # no comma after the last item
    return parts


def _joined(parts: list[bytes]):
    """``parts`` joined 1024 at a time: ``bytes.join`` holds an 80-byte buffer
    view of every part it joins, more than most parts' own length."""
    return (b"".join(parts[k : k + 1024]) for k in range(0, len(parts), 1024))


def instance_to_json(inst: Instance) -> str:
    """The file of :func:`instance_json_parts`, as one string."""
    return "".join([chunk.decode("ascii") for chunk in _joined(instance_json_parts(inst))])


def parse_json(data, keys, what: str) -> dict:
    """Decode one UTF-8 JSON object (``str`` or ``bytes``) holding ``keys``; bad
    UTF-8 or JSON, over-long integers and too-deep nesting raise :class:`ParseError`."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or any(key not in obj for key in keys):
        raise ParseError(f"{what} needs the keys " + ", ".join(keys))
    return obj


def at_line(lineno: int, message) -> str:
    return f"line {lineno}: {message}"


def parse_jsonl(data, parse_line):
    """Yield ``(lineno, parse_line(line))`` for each non-blank line of ``data``
    (bytes lines are left for ``parse_line``'s :func:`parse_json` to decode);
    a failure on a line raises :class:`ParseError` naming the line."""
    for lineno, line in enumerate(data.splitlines(), start=1):
        if line.strip():
            try:
                record = parse_line(line)
            except (FairdivError, TypeError, ValueError) as exc:
                raise ParseError(at_line(lineno, exc)) from exc
            yield lineno, record


def load_instance(data) -> Instance:
    """Parse the instance file format and validate all invariants. Each
    distinct value string of an agent is parsed and checked once, and the
    instance gets the tables and codes built here."""
    obj = parse_json(data, ("n", "items"), "an instance file")
    n, entries = obj["n"], obj["items"]
    if not isinstance(entries, list):
        raise ParseError("items must be a list")
    if not is_positive_int(n):
        raise ParseError(f"agent count must be a positive integer, got {n!r}")
    tables = None
    codes = []
    for j, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict) or "d" not in entry or not isinstance(entry["d"], list):
            raise ParseError(f'item entries must be {{"d": [...]}}, got {entry!r}')
        d = entry["d"]
        if len(d) != n:
            list(map(parse_rational, d))  # a malformed entry is named before the length
            raise ParseError(f"item {j}: disutility vector has length {len(d)}, expected {n}")
        if tables is None:  # made at the first whole item, so n is bounded by the file's size
            tables = ValueTables(n)
        codes.append(tables.parse(d))
    return Instance.from_codes(n, tables.values if tables else (), codes)


def allocation_to_json(alloc: Allocation) -> str:
    return json.dumps({"assignment": list(alloc.assignment)}, sort_keys=True, separators=(",", ":"))


def load_allocation(data) -> Allocation:
    obj = parse_json(data, ("assignment",), "an allocation file")
    if not isinstance(obj["assignment"], list):
        raise ParseError("assignment must be a list")
    return Allocation(assignment=tuple(obj["assignment"]))


def instance_digest(inst: Instance) -> str:
    """SHA-256 of the instance file less its newline, hashed as it is joined."""
    digest = hashlib.sha256()
    for chunk in _joined(instance_json_parts(inst)):
        digest.update(chunk)
    return digest.hexdigest()


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


__all__ = [
    "FairdivError",
    "ParseError",
    "InvariantViolation",
    "is_positive_int",
    "parse_rational",
    "format_rational",
    "common_scale",
    "ValueTables",
    "BuiltOnRead",
    "Instance",
    "Allocation",
    "InstanceStats",
    "instance_stats",
    "json_texts",
    "instance_json_parts",
    "instance_to_json",
    "parse_json",
    "at_line",
    "parse_jsonl",
    "load_instance",
    "allocation_to_json",
    "load_allocation",
    "instance_digest",
    "ceil_div",
]
