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
from dataclasses import dataclass
from fractions import Fraction


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


def format_rational(x: Fraction) -> str:
    """``"p"`` or ``"p/q"`` in lowest terms, for rationals of any length."""
    x = Fraction(x)
    try:
        return str(x)
    except ValueError:  # past the interpreter's int/str digit limit
        p = _digits_from_int(x.numerator)
        return p if x.denominator == 1 else f"{p}/{_digits_from_int(x.denominator)}"


@dataclass(frozen=True)
class Instance:
    """An ordered stream of chores with per-agent positive disutilities.

    ``items[j-1]`` is the disutility vector of the j-th arriving item;
    entry ``i-1`` is agent i's disutility. Item order is arrival order.
    """

    n: int
    items: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not is_positive_int(self.n):
            raise ParseError(f"agent count must be a positive integer, got {self.n!r}")
        for j, d in enumerate(self.items, start=1):
            if len(d) != self.n:
                raise ParseError(
                    f"item {j}: disutility vector has length {len(d)}, expected {self.n}"
                )
            for i, v in enumerate(d, start=1):
                if not isinstance(v, Fraction):
                    raise ParseError(f"item {j}, agent {i}: not a rational: {v!r}")
                if v <= 0:
                    raise ParseError(f"item {j}, agent {i}: non-positive disutility {format_rational(v)}")

    @property
    def m(self) -> int:
        return len(self.items)

    def disutility(self, agent: int, item: int) -> Fraction:
        """d_i(j) with 1-based agent and item indices."""
        return self.items[item - 1][agent - 1]

    def agent_values(self, agent: int) -> tuple[Fraction, ...]:
        """All of one agent's disutilities, in arrival order."""
        return tuple(d[agent - 1] for d in self.items)

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
        return sum(
            (inst.disutility(agent, j) for j, a in enumerate(self.assignment, start=1) if a == agent),
            Fraction(0),
        )


@dataclass(frozen=True)
class InstanceStats:
    """k = max distinct disutility values over agents; D = max value spread."""

    k: int
    D: Fraction


def instance_stats(inst: Instance) -> InstanceStats:
    if inst.m == 0:
        raise FairdivError("instance_stats: empty instance")
    k = 0
    spread = Fraction(1)
    for i in range(1, inst.n + 1):
        vals = inst.agent_values(i)
        k = max(k, len(set(vals)))
        spread = max(spread, max(vals) / min(vals))
    return InstanceStats(k=k, D=spread)


# Serialization ----------------------------------------------------------

def instance_to_json(inst: Instance) -> str:
    obj = {
        "n": inst.n,
        "items": [{"d": [format_rational(v) for v in d]} for d in inst.items],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
    """Parse the instance file format and validate all invariants."""
    obj = parse_json(data, ("n", "items"), "an instance file")
    if not isinstance(obj["items"], list):
        raise ParseError("items must be a list")
    items = []
    for entry in obj["items"]:
        if not isinstance(entry, dict) or "d" not in entry or not isinstance(entry["d"], list):
            raise ParseError(f'item entries must be {{"d": [...]}}, got {entry!r}')
        items.append(tuple(parse_rational(v) for v in entry["d"]))
    return Instance(n=obj["n"], items=tuple(items))


def allocation_to_json(alloc: Allocation) -> str:
    return json.dumps({"assignment": list(alloc.assignment)}, sort_keys=True, separators=(",", ":"))


def load_allocation(data) -> Allocation:
    obj = parse_json(data, ("assignment",), "an allocation file")
    if not isinstance(obj["assignment"], list):
        raise ParseError("assignment must be a list")
    return Allocation(assignment=tuple(obj["assignment"]))


def instance_digest(inst: Instance) -> str:
    return hashlib.sha256(instance_to_json(inst).encode("utf-8")).hexdigest()


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


__all__ = [
    "FairdivError",
    "ParseError",
    "InvariantViolation",
    "is_positive_int",
    "parse_rational",
    "format_rational",
    "Instance",
    "Allocation",
    "InstanceStats",
    "instance_stats",
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
