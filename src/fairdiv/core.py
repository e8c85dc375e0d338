"""Exact-arithmetic data model for online chore allocation.

Disutilities, pressures, and every derived quantity in this package are
``fractions.Fraction`` values; no floating point touches program state.
Instances and allocations are immutable and serialize to a canonical JSON
form with rationals written as decimal-integer strings ``"p"`` or ``"p/q"``.

Indexing convention: agents and items are 1-based in all I/O and public
accessors, matching the usual notation for allocation problems.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction


class FairdivError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FairdivError):
    """Malformed serialized input."""


class InvariantViolation(FairdivError):
    """A structural or theoretical invariant failed at runtime."""


_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


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
        if not _RATIONAL_RE.match(text):
            raise ParseError(f"not a rational string: {text!r}")
        return Fraction(text)
    raise ParseError(f"not a rational: {text!r}")


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


@dataclass(frozen=True)
class Instance:
    """An ordered stream of chores with per-agent positive disutilities.

    ``items[j-1]`` is the disutility vector of the j-th arriving item;
    entry ``i-1`` is agent i's disutility. Item order is arrival order.
    """

    n: int
    items: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
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
                    raise ParseError(f"item {j}, agent {i}: non-positive disutility {v}")

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

    def prefix(self, count: int) -> "Instance":
        return Instance(self.n, self.items[:count])


@dataclass(frozen=True)
class Allocation:
    """A total assignment of arrived items to agents (1-based on both sides)."""

    assignment: tuple[int, ...]

    def __post_init__(self):
        for j, a in enumerate(self.assignment, start=1):
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
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


def load_instance(data) -> Instance:
    """Parse the instance file format and validate all invariants."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "items" not in obj:
        raise ParseError('instance file must be {"n": ..., "items": [...]}')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"n must be an integer, got {n!r}")
    items = []
    if not isinstance(obj["items"], list):
        raise ParseError("items must be a list")
    for entry in obj["items"]:
        if not isinstance(entry, dict) or "d" not in entry or not isinstance(entry["d"], list):
            raise ParseError(f'item entries must be {{"d": [...]}}, got {entry!r}')
        items.append(tuple(parse_rational(v) for v in entry["d"]))
    return Instance(n=n, items=tuple(items))


def allocation_to_json(alloc: Allocation) -> str:
    return json.dumps({"assignment": list(alloc.assignment)}, sort_keys=True, separators=(",", ":"))


def load_allocation(data) -> Allocation:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "assignment" not in obj or not isinstance(obj["assignment"], list):
        raise ParseError('allocation file must be {"assignment": [...]}')
    for a in obj["assignment"]:
        if not isinstance(a, int) or isinstance(a, bool):
            raise ParseError(f"agent indices must be integers, got {a!r}")
    return Allocation(assignment=tuple(obj["assignment"]))


def instance_digest(inst: Instance) -> str:
    return hashlib.sha256(instance_to_json(inst).encode("utf-8")).hexdigest()


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


__all__ = [
    "Rational",
    "FairdivError",
    "ParseError",
    "InvariantViolation",
    "parse_rational",
    "format_rational",
    "Instance",
    "Allocation",
    "InstanceStats",
    "instance_stats",
    "instance_to_json",
    "load_instance",
    "allocation_to_json",
    "load_allocation",
    "instance_digest",
    "ceil_div",
]
