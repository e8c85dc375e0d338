"""Exact simulator for the stacking game and its allocator reduction.

The game state is a non-decreasing piecewise-constant function f on the
interval (-1/2, 1/2], starting from f = 0. One move raises f by ``a`` on a
set A of intervals and lowers it by ``b`` on a set B lying entirely to the
right of A, with measures |A| = b/(k(a+b)) and |B| = a/(k(a+b)); the values
are then re-sorted into non-decreasing order. The raise/lower masses cancel
exactly, so the integral of f stays zero forever. The mover tries to push
max f as high as possible; with a+b <= beta the suffix integral
F(x) = int_x^{1/2} f stays below beta*k/4 - beta*k*x^2, which pins
max f <= beta*k.

Two engines implement the same dynamics:

* :class:`StackingFunction` + :func:`apply_operation`: general rational
  intervals, the reference implementation.
* :class:`GridGame`: moves aligned to a uniform grid of cells, with values
  kept as scaled integers. This is exact (cell values are integer multiples
  of a fixed unit) and fast enough for bulk property sweeps and for the
  allocator reduction, where every move touches whole cells of width 1/(nk).

:func:`allocator_to_stacking` replays a rounded-greedy allocation trace as a
sequence of moves: the nk pressure counters map to the nk cells so that the
multiset of pressures always equals the multiset of cell values. A move
changes each touched cell as the closed form changes its counter, so the
moves are checked on counter values by :func:`validate_pressure_trace`'s
checks, made on the run's own engine or in one replay, which
``ReductionResult.check`` keeps, with the final grid. The moves' cell
positions are walked on a fresh grid through :meth:`GridGame.apply_cells` only when
``ReductionResult.steps`` is read or :func:`stacking_trace_to_jsonl` writes
the grid after each move; :func:`replay_stacking_trace` reads that file
back on the reference engine. The bound's margin on the final grid comes
from its integers (:meth:`GridGame.bound_margin`), and
``game.to_function()`` gives the grid as a :class:`StackingFunction`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, groupby
from operator import add

from .core import (
    FairdivError, InvariantViolation, at_line, format_rational, parse_json, parse_jsonl, parse_rational,
)
from .allocator import PressureState, RunTrace, TraceCheck, _replay, _trace_check

HALF = Fraction(1, 2)


def _merge_runs(pieces):
    """Coalesce adjacent pieces of equal value."""
    out = []
    for left, right, value in pieces:
        if out and out[-1][2] == value and out[-1][1] == left:
            out[-1] = (out[-1][0], right, value)
        else:
            out.append((left, right, value))
    return out


@dataclass(frozen=True)
class StackingFunction:
    """Non-decreasing piecewise-constant function on (-1/2, 1/2].

    ``pieces`` are (left, right, value) with left-open right-closed
    intervals abutting exactly from -1/2 to 1/2, values non-decreasing,
    and total integral exactly zero.
    """

    pieces: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.pieces:
            raise InvariantViolation("stacking function has no pieces")
        if self.pieces[0][0] != -HALF or self.pieces[-1][1] != HALF:
            raise InvariantViolation("pieces must cover (-1/2, 1/2]")
        prev_right = None
        prev_value = None
        total = Fraction(0)
        for left, right, value in self.pieces:
            if left >= right:
                raise InvariantViolation(f"empty or inverted piece ({left}, {right}]")
            if prev_right is not None and left != prev_right:
                raise InvariantViolation("pieces must abut exactly")
            if prev_value is not None and value < prev_value:
                raise InvariantViolation("piece values must be non-decreasing")
            prev_right, prev_value = right, value
            total += value * (right - left)
        if total != 0:
            raise InvariantViolation(f"integral is {total}, expected 0")

    @classmethod
    def zero(cls) -> "StackingFunction":
        return cls(pieces=((-HALF, HALF, Fraction(0)),))

    @classmethod
    def from_pieces(cls, pieces) -> "StackingFunction":
        norm = [(Fraction(l), Fraction(r), Fraction(v)) for l, r, v in pieces]
        return cls(pieces=tuple(_merge_runs(norm)))

    def max_value(self) -> Fraction:
        return self.pieces[-1][2]

    def breakpoints(self) -> list[Fraction]:
        pts = [self.pieces[0][0]]
        pts.extend(right for _, right, _ in self.pieces)
        return pts


def integral_F(f: StackingFunction, x: Fraction) -> Fraction:
    """Exact suffix integral F(x) = int_x^{1/2} f(u) du."""
    x = Fraction(x)
    if not (-HALF <= x <= HALF):
        raise FairdivError(f"x={x} outside [-1/2, 1/2]")
    total = Fraction(0)
    for left, right, value in f.pieces:
        if right <= x:
            continue
        total += value * (right - max(left, x))
    return total


def _intervals_measure(intervals) -> Fraction:
    return sum((r - l for l, r in intervals), Fraction(0))


@dataclass(frozen=True)
class StackingOperation:
    """One move: raise by a on A, lower by b on B, A entirely left of B."""

    a: Fraction
    b: Fraction
    A: tuple[tuple[Fraction, Fraction], ...]
    B: tuple[tuple[Fraction, Fraction], ...]
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise FairdivError(f"k must be >= 1, got {self.k}")
        for name, v in (("a", self.a), ("b", self.b)):
            if not (0 < v <= 1):
                raise FairdivError(f"{name} must lie in (0, 1], got {format_rational(v)}")
        for name, intervals in (("A", self.A), ("B", self.B)):
            prev = None
            for l, r in intervals:
                if not (-HALF <= l < r <= HALF):
                    raise FairdivError(
                        f"{name} interval ({format_rational(l)}, {format_rational(r)}] outside the domain"
                    )
                if prev is not None and l < prev:
                    raise FairdivError(f"{name} intervals must be sorted and disjoint")
                prev = r
        want_a = Fraction(self.b, self.k * (self.a + self.b))
        want_b = Fraction(self.a, self.k * (self.a + self.b))
        if _intervals_measure(self.A) != want_a or _intervals_measure(self.B) != want_b:
            raise FairdivError(
                f"measure mismatch: |A|={format_rational(_intervals_measure(self.A))} "
                f"|B|={format_rational(_intervals_measure(self.B))}, "
                f"expected {format_rational(want_a)} and {format_rational(want_b)}"
            )
        if not self.A or not self.B:
            raise FairdivError("A and B must be nonempty")
        if max(r for _, r in self.A) > min(l for l, _ in self.B):
            raise FairdivError("A must lie entirely to the left of B")

    @classmethod
    def make(cls, a, b, A, B, k) -> "StackingOperation":
        return cls(
            a=Fraction(a),
            b=Fraction(b),
            A=tuple((Fraction(l), Fraction(r)) for l, r in A),
            B=tuple((Fraction(l), Fraction(r)) for l, r in B),
            k=int(k),
        )


def _covered(intervals, left: Fraction, right: Fraction) -> bool:
    """Whether the fragment (left, right] lies inside one of the intervals."""
    for l, r in intervals:
        if l <= left and right <= r:
            return True
    return False


def apply_operation(f: StackingFunction, op: StackingOperation) -> StackingFunction:
    """Apply one move and re-sort into a valid stacking function.

    The fragments of the updated function are sorted by value, stable in
    their pre-sort left endpoints, and laid back over (-1/2, 1/2].
    """
    cuts = {-HALF, HALF}
    for l, r in op.A:
        cuts.add(l)
        cuts.add(r)
    for l, r in op.B:
        cuts.add(l)
        cuts.add(r)

    fragments = []  # (value_after, original_left, length)
    for left, right, value in f.pieces:
        points = sorted(c for c in cuts if left < c < right)
        lo = left
        for hi in points + [right]:
            if _covered(op.A, lo, hi):
                new_value = value + op.a
            elif _covered(op.B, lo, hi):
                new_value = value - op.b
            else:
                new_value = value
            fragments.append((new_value, lo, hi - lo))
            lo = hi

    fragments.sort(key=lambda frag: frag[0])  # stable: ties keep left-endpoint order
    pieces = []
    cursor = -HALF
    for value, _, length in fragments:
        pieces.append((cursor, cursor + length, value))
        cursor += length
    return StackingFunction.from_pieces(pieces)


@dataclass(frozen=True)
class BoundProfile:
    """Parameters of the suffix-integral bound beta*k/4 - beta*k*x^2."""

    k: int
    beta: Fraction = Fraction(2)

    def __post_init__(self):
        if self.k < 1:
            raise FairdivError(f"k must be >= 1, got {self.k}")
        if not (0 < self.beta <= 2):
            raise FairdivError(f"beta must lie in (0, 2], got {self.beta}")

    def bound_at(self, x: Fraction) -> Fraction:
        return self.beta * self.k / 4 - self.beta * self.k * x * x


@dataclass(frozen=True)
class BoundReport:
    passed: bool
    margin: Fraction
    worst_x: Fraction
    max_value_slack: Fraction


def check_bound(f: StackingFunction, profile: BoundProfile) -> BoundReport:
    """Check F(x) <= beta*k/4 - beta*k*x^2 and max f <= beta*k.

    F is piecewise linear and the bound is concave, so the difference is
    concave on each piece and its minimum over the domain is attained at a
    piece breakpoint; checking breakpoints is therefore sufficient. At
    x = +-1/2 both sides are identically zero, so the reported margin is
    taken over the interior breakpoints plus x = 0, in one right-to-left
    sweep of F; ties go to the leftmost x.
    """
    margin = worst = None
    suffix = Fraction(0)  # F(right) of the current piece
    for left, right, value in reversed(f.pieces):
        points = [(right, suffix)] if right < HALF else []
        if left < 0 < right:
            points.append((Fraction(0), suffix + value * right))
        for x, F_x in points:
            slack = profile.bound_at(x) - F_x
            if margin is None or slack <= margin:
                margin, worst = slack, x
        suffix += value * (right - left)
    value_slack = profile.beta * profile.k - f.max_value()
    passed = margin >= 0 and value_slack >= 0
    return BoundReport(
        passed=passed,
        margin=min(margin, value_slack),
        worst_x=worst,
        max_value_slack=value_slack,
    )


def contiguify(op: StackingOperation) -> StackingOperation:
    """Equivalent move whose support A u B is one contiguous interval.

    Repeatedly substituting the leftmost fragment of A into gaps on its
    right (and the rightmost fragment of B into gaps on its left) never
    decreases any suffix integral of the resulting function; composing all
    substitutions anchors the support at the left end of B. The returned
    move therefore has A = (c - |A|, c] and B = (c, c + |B|] with c the
    left endpoint of B, and dominates the input pointwise in F.
    """
    measure_a = _intervals_measure(op.A)
    measure_b = _intervals_measure(op.B)
    anchor = min(l for l, _ in op.B)
    return StackingOperation(
        a=op.a,
        b=op.b,
        A=((anchor - measure_a, anchor),),
        B=((anchor, anchor + measure_b),),
        k=op.k,
    )


def is_contiguous(op: StackingOperation) -> bool:
    support = sorted(list(op.A) + list(op.B))
    for (l1, r1), (l2, r2) in zip(support, support[1:]):
        if r1 != l2:
            return False
    return True


# Grid engine ---------------------------------------------------------------

class GridGame:
    """Stacking game restricted to moves aligned to Q equal cells.

    Cell values are stored as integers scaled by ``scale``: a move with
    raise ``a`` and lower ``b`` requires a*scale and b*scale integral. All
    invariant checks are exact integer arithmetic.

    Per-game caches keep Fraction work off the per-move path, keyed by
    integer pairs because a ``Fraction`` hash is Python code: a move shape's
    scaled raise and lower by a's and b's ``(numerator, denominator)`` and
    the two cell counts, stored only once the shape passed every check, and
    the bound constants by beta's pair.
    """

    def __init__(self, k: int, cells_per_unit: int, scale: int):
        if k < 1 or cells_per_unit < 1 or scale < 1:
            raise FairdivError("k, cells_per_unit, scale must be positive")
        self.k = k
        self.Q = k * cells_per_unit
        self.cells_per_unit = cells_per_unit  # cells touched by one move
        self.scale = scale
        self.values: list[int] = [0] * self.Q
        # beta's (numerator, denominator) -> the integer constants of bound_ok
        # and bound_margin; 2, Fraction(2) and "4/2" share one entry
        self._bounds: dict[tuple[int, int], tuple] = {}
        # (a's pair, b's pair, |A|, |B|) of a move shape that passed every check -> its scaled (raise, lower)
        self._units: dict[tuple, tuple[int, int]] = {}

    def _move_units(self, a, b, a_count: int, b_count: int) -> tuple[int, int]:
        """The scaled raise and lower of a move (a, b) on ``a_count`` and
        ``b_count`` cells, once a and b lie in (0, 1], are representable at
        this scale and the cell counts match the measures."""
        if type(a) is not Fraction and type(a) is not int:
            a = Fraction(a)
        if type(b) is not Fraction and type(b) is not int:
            b = Fraction(b)
        key = (a.as_integer_ratio(), b.as_integer_ratio(), a_count, b_count)
        units = self._units.get(key)
        if units is not None:
            return units
        (pa, qa), (pb, qb) = key[:2]
        if not (0 < pa <= qa and 0 < pb <= qb):
            raise FairdivError("a and b must lie in (0, 1]")
        av, a_rem = divmod(pa * self.scale, qa)
        bv, b_rem = divmod(pb * self.scale, qb)
        if a_rem or b_rem:
            raise FairdivError(f"a={a}, b={b} not representable at scale {self.scale}")
        total = pa * qb + pb * qa  # (a+b)*qa*qb: need len(A)*(a+b) = cpu*b, len(B)*(a+b) = cpu*a
        want_a, want_b = self.cells_per_unit * pb * qa, self.cells_per_unit * pa * qb
        if a_count * total != want_a or b_count * total != want_b:
            raise FairdivError(
                f"cell counts ({a_count}, {b_count}) do not match measures "
                f"({Fraction(want_a, total)}, {Fraction(want_b, total)}) for a={a}, b={b}"
            )
        units = self._units[key] = (av, bv)  # only a shape that passed every check
        return units

    def _check_cells(self, a_cells, b_cells) -> None:
        """Cell indices are ints on the grid, A lies strictly left of B, and A and B are disjoint."""
        for c in (*a_cells, *b_cells):
            if type(c) is not int or not 0 <= c < self.Q:
                raise FairdivError(f"cell index {c!r} is not an int in [0, {self.Q})")
        if max(a_cells) >= min(b_cells):
            raise FairdivError("A cells must lie strictly left of B cells")
        if len({*a_cells, *b_cells}) != len(a_cells) + len(b_cells):
            raise FairdivError("A and B cells must be disjoint")

    def apply_cells(self, a: Fraction, b: Fraction, a_cells, b_cells,
                    need_order: bool = True) -> list[int] | None:
        """Apply one move on explicit cell index sets and re-sort.

        Every check is in integers and comes before any cell changes. With
        ``need_order`` the sort order is returned: entry ``new`` holds the
        previous position of the value now at position ``new`` (ties keep
        their left-to-right order); ``need_order=False`` just sorts in place.
        """
        av, bv = self._move_units(a, b, len(a_cells), len(b_cells))
        self._check_cells(a_cells, b_cells)
        vals = self.values
        for c in a_cells:
            vals[c] += av
        for c in b_cells:
            vals[c] -= bv
        if not need_order:
            vals.sort()
            return None
        order = sorted(range(self.Q), key=vals.__getitem__)  # stable: ties keep cell order
        self.values = [vals[c] for c in order]
        return order

    def integral_is_zero(self) -> bool:
        return sum(self.values) == 0

    def _bound_constants(self, beta) -> tuple[int, int, int, list[int]]:
        """Integer constants of the bound for ``beta``, computed once per beta.

        F(x_i) <= beta*k/4 - beta*k*x_i^2 at the cell edge x_i = -1/2 + i/Q,
        cross-multiplied by 4*bq*Q^2*scale for beta = bp/bq, reads
        ``lhs_factor * suffix_i <= rhs[i]``, with suffix_i the scaled
        integral over cells i..Q-1; max f <= beta*k reads ``max * bq <= top``.
        """
        if type(beta) is not Fraction and type(beta) is not int:
            beta = Fraction(beta)
        key = beta.as_integer_ratio()
        constants = self._bounds.get(key)
        if constants is None:
            bp, bq = key
            top = bp * self.k * self.scale
            rhs = [top * (self.Q * self.Q - (2 * i - self.Q) ** 2) for i in range(self.Q + 1)]
            constants = self._bounds[key] = (bq, top, 4 * bq * self.Q, rhs)
        return constants

    def bound_ok(self, beta) -> bool:
        """Exact check of the suffix-integral bound and max value, at every cell edge."""
        bq, top, lhs_factor, rhs = self._bound_constants(beta)
        values = self.values
        if values[-1] * bq > top:
            return False
        suffix = 0
        for i in range(self.Q, 0, -1):
            suffix += values[i - 1]
            if lhs_factor * suffix > rhs[i - 1]:
                return False
        return suffix == 0

    def bound_margin(self, beta) -> Fraction:
        """``check_bound(self.to_function(), BoundProfile(self.k, beta)).margin``, in integers.

        The slack of the bound is taken where :func:`check_bound` takes it:
        at the piece breakpoints, which are the cell edges between unequal
        values (never +-1/2), and at x = 0, which halves the middle cell when
        Q is odd; the max-value slack beta*k - max f counts too. Every slack
        is kept times 4*bq*Q^2*scale, so only the margin is a Fraction.
        """
        bq, top, lhs_factor, rhs = self._bound_constants(beta)
        values, Q = self.values, self.Q
        low = 4 * Q * Q * (top - bq * values[-1])
        suffix = 0
        for i in range(Q - 1, 0, -1):
            suffix += values[i]
            if values[i - 1] != values[i] or 2 * i == Q:
                low = min(low, rhs[i] - lhs_factor * suffix)
        if Q % 2:  # F(0) is the suffix past the middle cell plus half of that cell
            mid = Q // 2
            low = min(low, top * Q * Q - lhs_factor // 2 * (2 * sum(values[mid + 1:]) + values[mid]))
        return Fraction(low, 4 * bq * Q * Q * self.scale)

    def to_function(self) -> StackingFunction:
        return StackingFunction.from_pieces(
            (-HALF + Fraction(c, self.Q), -HALF + Fraction(c + 1, self.Q), Fraction(v, self.scale))
            for c, v in enumerate(self.values)
        )


def _runs(keys):
    """``(first, past last)`` index of each run of equal adjacent keys."""
    left = 0
    for _, run in groupby(keys):
        right = left + sum(1 for _ in run)
        yield left, right
        left = right


def _cell_runs(cells) -> list[tuple[int, int]]:
    """``(first, past last)`` cell of each maximal run of adjacent cells, in order."""
    cells = sorted(cells)
    return [(cells[l], cells[r - 1] + 1) for l, r in _runs([c - i for i, c in enumerate(cells)])]


def cells_to_intervals(game_q: int, cells) -> tuple[tuple[Fraction, Fraction], ...]:
    """Merge sorted cell indices into maximal (left, right] intervals."""
    return tuple((-HALF + Fraction(l, game_q), -HALF + Fraction(r, game_q)) for l, r in _cell_runs(cells))


# Allocator reduction --------------------------------------------------------

@dataclass
class ReductionResult:
    """The final ``game`` and the replay's ``check`` of a reduction, and
    ``moves``, a copy of the trace's ``(types, agent)`` pairs. ``steps``, one
    ``(raised cell, lowered cells)`` move per item on the sorted grid of n*k
    cells before it (raise 1, lower 1/(n-1)), is walked from ``moves`` on a
    fresh grid on first read."""

    n: int
    k: int
    game: GridGame
    check: TraceCheck
    moves: list[tuple[tuple[int, ...], int]] = field(repr=False)

    @cached_property
    def steps(self) -> list[tuple[int, tuple[int, ...]]]:
        return [(raised, lowered) for raised, lowered, _ in _walk(self.n, self.k, self.moves)]


def allocator_to_stacking(trace: RunTrace) -> ReductionResult:
    """Replay a rounded-greedy trace (n = ``trace.n``) as stacking-game moves.

    The interval is divided into n*k cells of width 1/(nk), with k the
    trace's largest type index; each pressure counter holds one cell, and
    the value of the function on that cell is the pressure times 1 (scaled
    by n-1 internally). At each item the chosen
    agent's counter is the touched minimum, which after a value-preserving
    relabeling sits on the leftmost touched cell; that cell is raised by 1
    and the other n-1 touched cells are lowered by 1/(n-1).

    Scaled, that is the closed form's update, n-1 up for the chosen counter
    and 1 down for the others, so each counter's cell carries the counter's
    closed-form value, and the moves are checked on those values inside the
    one replay of :func:`validate_pressure_trace`, whose :class:`TraceCheck`
    is ``check``. :class:`InvariantViolation` is raised unless: the move's
    shape, whose raise cancels its lowers, holds (checked once); the least
    touched closed-form value, the leftmost touched cell's, is the chosen
    counter's engine pressure before each step; each touched counter's
    engine pressure after it is its closed form; and, after the replay, the
    sorted closed form padded with zero cells, the final grid, equals the
    sorted pressures with zero integral, which also catches a counter that
    changed while untouched. These raise what checks on walked cell
    positions raise, at the same step, unless one step finds the engine off
    the closed form on two touched counters. ``steps`` walks the cell
    positions on first read.

    A trace's ``live`` outcome, the same checks made on a pressure-greedy
    run's own engine as :func:`run_online` ran it, stands in for the replay.
    """
    n = trace.n
    if n < 2:
        raise FairdivError("allocator_to_stacking requires n >= 2")
    if trace.live is None:
        state = PressureState(n)
        scaled = state.scaled

        def off_pace(types, agent, low, closed):
            a = agent - 1
            if scaled[a][types[a] - 1] != low + n:  # its pressure before the step, n-1 below, is not low + 1
                raise InvariantViolation("leftmost touched cell does not carry the minimum pressure")
            # a lowered cell now carries its counter's closed form; the raised one carries low + n,
            # which is the chosen counter's closed form unless it was above the minimum, and then
            # the counter it displaced from the leftmost touched cell gets a value not its own
            for row, engine_row, u in zip(closed, scaled, types):
                if engine_row[u - 1] != row[u - 1]:
                    raise InvariantViolation("pressure multiset != cell value multiset")

        (flags, closed), raw_columns = _replay(trace, state, off_pace), None
    else:
        (flags, closed), scaled, raw_columns = trace.live
    trace_check = _trace_check(trace, flags, raw_columns)
    k = trace_check.game_k  # the trace's largest type index
    game = GridGame(k=k, cells_per_unit=n, scale=n - 1)
    av, bv = game._move_units(1, Fraction(1, n - 1), 1, n - 1)  # every move has this shape
    if (av, bv) != (n - 1, 1):  # the raise cancels the lowers, and a lower drops a value by one
        raise InvariantViolation("grid state lost sortedness or zero integral")
    free = [0] * (game.Q - sum(map(len, closed)))
    values = sorted(chain(free, *closed))
    if values != sorted(chain(free, *scaled)):
        raise InvariantViolation("pressure multiset != cell value multiset")
    game.values = values
    if not game.integral_is_zero():
        raise InvariantViolation("grid state lost sortedness or zero integral")
    return ReductionResult(n, k, game, trace_check, list(zip(trace.types, trace.agents)))


def _walk(n: int, k: int, moves):
    """Walk a reduction's ``(types, agent)`` moves on a fresh grid of n*k
    cells, yielding ``(raised cell, lowered cells, game)`` after each move.
    Counter (agent i, type u) is slot (i-1)*k + (u-1); holder[c] is the slot
    on cell c, or -1 for none yet, and a fresh counter takes the leftmost
    free cell, which is untouched and so 0. The chosen counter takes the
    leftmost touched cell, and the holders follow the sort order that
    :meth:`GridGame.apply_cells` returns."""
    game = GridGame(k=k, cells_per_unit=n, scale=n - 1)
    b = Fraction(1, n - 1)
    holder = [-1] * game.Q
    first_slots = range(-1, n * k - 1, k)
    for types, agent in moves:
        slots = list(map(add, first_slots, types))
        for slot in slots:
            if slot not in holder:
                holder[holder.index(-1)] = slot
        cells = list(map(holder.index, slots))
        chosen, old_cell = slots[agent - 1], cells[agent - 1]
        cells.sort()
        c_star, b_cells = cells[0], tuple(cells[1:])
        holder[old_cell], holder[c_star] = holder[c_star], chosen
        order = game.apply_cells(1, b, (c_star,), b_cells)
        holder = [holder[c] for c in order]
        yield c_star, b_cells, game


# Trace file format ----------------------------------------------------------

def stacking_trace_to_jsonl(result: ReductionResult) -> str:
    """One JSON line per move of ``result``, with the pieces of the grid after
    it, walked from zero; :func:`replay_stacking_trace` reads the file back
    on the reference engine (:func:`apply_operation`). The pieces are the
    runs of equal cells of the integer grid, written as ``json.dumps`` writes
    ``game.to_function()``, with the text of each cell edge and of each
    distinct cell value made once."""
    n, Q = result.n, result.n * result.k
    edges = ['"%s"' % format_rational(-HALF + Fraction(c, Q)) for c in range(Q + 1)]
    value = cache(lambda v: '"%s"' % format_rational(Fraction(v, n - 1)))  # the grid's scale
    line = '{"A":[[%s,%s]],"B":[%s],"a":"1","b":"' + format_rational(Fraction(1, n - 1)) + '","pieces_after":[%s]}'
    lines = []
    for raised, lowered, game in _walk(n, result.k, result.moves):
        B = [f"[{edges[l]},{edges[r]}]" for l, r in _cell_runs(lowered)]
        pieces = [f"[{edges[l]},{edges[r]},{value(game.values[l])}]" for l, r in _runs(game.values)]
        lines.append(line % (edges[raised], edges[raised + 1], ",".join(B), ",".join(pieces)))
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class ReplayReport:
    steps: int
    passed: bool
    failures: tuple[str, ...]


_RECORD_KEYS = ("a", "b", "A", "B", "pieces_after")


def _parse_stacking_record(line):
    """The move (a, b, A, B) and the recorded pieces of one trace line."""
    rec = parse_json(line, _RECORD_KEYS, "a stacking record")
    A = tuple((parse_rational(l), parse_rational(r)) for l, r in rec["A"])
    B = tuple((parse_rational(l), parse_rational(r)) for l, r in rec["B"])
    recorded = tuple(
        (parse_rational(l), parse_rational(r), parse_rational(v))
        for l, r, v in rec["pieces_after"]
    )
    return parse_rational(rec["a"]), parse_rational(rec["b"]), A, B, recorded


def replay_stacking_trace(text) -> ReplayReport:
    """Re-verify a stacking trace file (str or bytes): invariants, bound, recorded pieces.

    A malformed line raises :class:`ParseError` naming the line.
    """
    f = StackingFunction.zero()
    failures = []
    count = 0
    for lineno, (a, b, A, B, recorded) in parse_jsonl(text, _parse_stacking_record):
        measure = _intervals_measure(A) + _intervals_measure(B)
        if measure <= 0 or (1 / measure).denominator != 1:
            failures.append(at_line(lineno, f"|A|+|B| = {format_rational(measure)} is not 1/k for integer k"))
            break
        k = int(1 / measure)
        try:
            op = StackingOperation(a=a, b=b, A=A, B=B, k=k)
            f = apply_operation(f, op)
        except FairdivError as exc:
            failures.append(at_line(lineno, exc))
            break
        count += 1
        if recorded != f.pieces:
            failures.append(at_line(lineno, "recorded pieces do not match replay"))
        if a + b <= 2:
            report = check_bound(f, BoundProfile(k=k, beta=Fraction(2)))
            if not report.passed:
                failures.append(at_line(lineno, "suffix-integral bound violated"))
    return ReplayReport(steps=count, passed=not failures, failures=tuple(failures))


__all__ = [
    "HALF",
    "StackingFunction",
    "integral_F",
    "StackingOperation",
    "apply_operation",
    "BoundProfile",
    "BoundReport",
    "check_bound",
    "contiguify",
    "is_contiguous",
    "GridGame",
    "cells_to_intervals",
    "ReductionResult",
    "allocator_to_stacking",
    "stacking_trace_to_jsonl",
    "ReplayReport",
    "replay_stacking_trace",
]
