"""The recursive adversary against a reference in plain Fraction arithmetic.

``FractionRecursiveAdversary`` is the construction as first written: every
level keeps per-round column sums, rebuilds the a-sequence by its recursion
u_1 = 1, u_{t+1} = (u_1 + ... + u_t)/eps_own + 1, and restarts its sub-level
as a new object at every clean-up. The module's adversary plays the same
game on closed forms; the two are driven in lockstep over seeded take
sequences and must agree on every emitted item, every certificate, the
record and the window-event log. ``fraction_check_O1_O2`` is the check as
first written, the reference for the integer one.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from fairdiv import RecursiveAdversary, check_O1_O2, make_recursive_adversary, play_game
from fairdiv.adversary import (O1O2Report, RecGameRecord, WindowEvent, _add_to_heaviest, _build_certificate,
                               greedy_bin_packing, record_max_gap)
from fairdiv.allocator import make_policy
from fairdiv.core import FairdivError, Instance, ceil_div
from fairdiv.mms import common_scale, lpt_partition

F = Fraction


class FractionRecursiveAdversary:
    """Reference level of the recursive construction, in Fraction arithmetic throughout."""

    def __init__(self, n_total, level, eps, pin_horizon=None, event_log=None):
        eps = Fraction(eps)
        self.n_total = n_total
        self.level = level
        self.eps = eps
        self.pin_horizon = pin_horizon
        self.event_log = event_log if event_log is not None else []
        self.round = 0
        self.emissions = []
        self.takes = []
        self.sums = [Fraction(0)] * level
        self._own_reported = False
        self._last_reported_sub = None
        if level == 1:
            self.take_count = 0
            return
        self.eps_sub = eps / n_total
        self.eps_own = eps / (n_total * (n_total + 3))
        self.sub = FractionRecursiveAdversary(n_total, level - 1, self.eps_sub, pin_horizon, self.event_log)
        self.scales = [Fraction(1)] * (level - 1)
        self.j_star = 0
        self.own_emitted_sum = Fraction(0)
        self.own_taken_sum = Fraction(0)
        self.own_take_rounds = []
        self.V = None
        self.j_dagger = None
        self._useq = [Fraction(1)]
        self._usum = Fraction(1)
        self._sigma = None

    def _u(self, t):
        while len(self._useq) < t:
            nxt = self._usum / self.eps_own + 1
            self._useq.append(nxt)
            self._usum += nxt
        return self._useq[t - 1]

    def _pin_t(self):
        if self.level - 1 == 1:
            return self.n_total
        if self.pin_horizon is None:
            raise FairdivError("pin_horizon required when the sub-level is recursive")
        return self.pin_horizon

    def a_value(self, s):
        if self._sigma is None:
            self._sigma = self.V / self._u(self._pin_t() + 1)
        return self._u(s) * self._sigma

    def next_item(self):
        r = self.round + 1
        if self.level == 1:
            d = (Fraction(1),)
        else:
            subvals = self.sub.next_item()
            scaled = tuple(subvals[i] * self.scales[i] for i in range(self.level - 1))
            if self.V is None:
                own = Fraction(1) if r == 1 else self.own_emitted_sum / self.eps_own
            else:
                own = self.a_value(r - self.j_star)
            self.own_emitted_sum += own
            d = scaled + (own,)
        self.emissions.append(d)
        return d

    def observe(self, agent):
        self.round += 1
        self.takes.append(agent)
        d = self.emissions[self.round - 1]
        for i in range(self.level):
            self.sums[i] += d[i]
        if self.level == 1:
            self.take_count += 1
            return
        if agent == self.level:
            self.own_taken_sum += d[self.level - 1]
            self.own_take_rounds.append(self.round)
            if self.V is None:
                self.V = d[self.level - 1]
            self.j_star = self.round
            if self.j_dagger is None and self.own_taken_sum >= self.n_total * self.V:
                self.j_dagger = self.round
            self.scales = [self.sums[i] / self.eps_sub for i in range(self.level - 1)]
            self.sub = FractionRecursiveAdversary(
                self.n_total, self.level - 1, self.eps_sub, self.pin_horizon, self.event_log
            )
        else:
            self.sub.observe(agent)

    def _own_target_certificate(self):
        if self.level == 1:
            m, c = self.round, self.take_count
            if m == 0 or Fraction(c) <= (self.n_total - self.eps) * ceil_div(m, self.n_total):
                return None
            witness = [range(b + 1, m + 1, self.n_total) for b in range(self.n_total)]
            return _build_certificate(1, Fraction(c), Fraction(ceil_div(m, self.n_total)), witness)
        if self.j_dagger is None or self.round != self.j_dagger:
            return None
        values = [e[self.level - 1] for e in self.emissions[: self.round]]
        mine = [r for r in range(self.round) if self.takes[r] == self.level]
        skipped = [r + 1 for r in range(self.round) if self.takes[r] != self.level]
        capacity = (1 + 2 * self.eps_own) * self.V
        bins = greedy_bin_packing(values, mine, self.n_total, capacity)
        if bins is None:
            bins = lpt_partition(common_scale(values)[1], self.n_total, mine)[1]
        else:
            bins = [[p + 1 for p in b] for b in bins]
        return _build_certificate(self.level, self.own_taken_sum, *_add_to_heaviest(values, bins, skipped))

    def _lift(self, sub_cert):
        shift = self.j_star
        agent = sub_cert.agent
        values = [e[agent - 1] for e in self.emissions[: self.round]]
        shifted = [[j + shift for j in bundle] for bundle in sub_cert.witness]
        d_a = sum((values[r] for r in range(self.round) if self.takes[r] == agent), Fraction(0))
        return _build_certificate(agent, d_a, *_add_to_heaviest(values, shifted, range(1, shift + 1)))

    def certificate(self):
        target = self.n_total - self.eps
        candidates = []
        own = self._own_target_certificate()
        if own is not None:
            strict = own.ratio_lower > target
            if not self._own_reported:
                self._own_reported = True
                kind = "base-window" if self.level == 1 else "bin-packing"
                self.event_log.append(WindowEvent(self.level, kind, own.agent, self.round, strict))
            if strict:
                candidates.append(own)
        if self.level > 1:
            sub_cert = self.sub.certificate()
            if sub_cert is not None:
                lifted = self._lift(sub_cert)
                strict = lifted.ratio_lower > target
                if self._last_reported_sub is not self.sub:
                    self._last_reported_sub = self.sub
                    self.event_log.append(WindowEvent(self.level, "lifted", lifted.agent, self.round, strict))
                if strict:
                    candidates.append(lifted)
        if not candidates:
            return None
        return max(candidates, key=lambda c: c.ratio_lower)

    def instance(self):
        return Instance(n=self.level, items=tuple(self.emissions[: self.round]))

    def record(self):
        return RecGameRecord(
            n=self.n_total,
            eps=self.eps,
            eps_own=self.eps_own,
            rounds=self.round,
            takes=tuple(self.takes),
            own_values=tuple(e[self.level - 1] for e in self.emissions[: self.round]),
            V=self.V,
            own_take_rounds=tuple(self.own_take_rounds),
            j_dagger=self.j_dagger,
            pin_horizon=self.pin_horizon,
            events=tuple(self.event_log),
        )


def fraction_check_O1_O2(record):
    """Reference O1/O2 check: Fraction sums, eps_own * V recomputed per item."""
    failures = []
    take_rounds = record.own_take_rounds
    if not take_rounds:
        return O1O2Report(True, True, 0, 0, record_max_gap(record), ())
    V = record.V
    eps_own = record.eps_own
    first = take_rounds[0]
    horizon = record.j_dagger if record.j_dagger is not None else record.rounds
    o2_checked = 0
    for r in range(1, horizon + 1):
        if r == first:
            continue
        v = record.own_values[r - 1]
        o2_checked += 1
        if v > eps_own * V:
            failures.append(f"O2: item {r} has value {v} > eps'*V = {eps_own * V}")
    o1_checked = 0
    taken = Fraction(0)
    skipped = Fraction(0)
    for r in range(1, horizon + 1):
        if record.takes[r - 1] == record.n:
            taken += record.own_values[r - 1]
            o1_checked += 1
            if eps_own * taken < skipped:
                failures.append(
                    f"O1: after take at round {r}, skipped {skipped} > eps'*taken {eps_own * taken}"
                )
        else:
            skipped += record.own_values[r - 1]
    o1_ok = not any(f.startswith("O1") for f in failures)
    o2_ok = not any(f.startswith("O2") for f in failures)
    return O1O2Report(o1_ok, o2_ok, o1_checked, o2_checked, record_max_gap(record), tuple(failures))


# the a-sequence -------------------------------------------------------------------

@pytest.mark.parametrize("eps_own", [F(1), F(1, 18), F(1, 10), F(5, 126), F(3, 4), F(7, 2)])
def test_a_sequence_closed_form_matches_the_recursion(eps_own):
    # u_1 = 1, u_{t+1} = (u_1 + ... + u_t)/eps_own + 1 solves to u_t = (1 + 1/eps_own)^(t-1)
    u, total = [F(1)], F(1)
    while len(u) < 60:
        u.append(total / eps_own + 1)
        total += u[-1]
    assert u == [(1 + 1 / eps_own) ** (t - 1) for t in range(1, 61)]


# lockstep ------------------------------------------------------------------------

def _taker(kind: str, rng: random.Random, n: int):
    """A take rule over agents 1..n: ``uniform``, ``starve`` (the top agent
    rarely takes, so windows run past T+1), ``greedy-top`` (the top agent
    takes most items, so n*V is crossed) or ``base`` (agent 1 takes most)."""
    weights = {
        "uniform": [1] * n,
        "starve": [10] * (n - 1) + [1],
        "greedy-top": [1] * (n - 1) + [6],
        "base": [12] + [1] * (n - 1),
    }[kind]
    return lambda: rng.choices(range(1, n + 1), weights)[0]


def _play_lockstep(n, eps, pin, kind, seed, rounds):
    new = make_recursive_adversary(n, eps, pin_horizon=pin)
    old = FractionRecursiveAdversary(n, n, eps, pin_horizon=pin)
    take = _taker(kind, random.Random(seed), n)
    fired = 0
    for r in range(rounds):
        d = new.next_item()
        assert d == old.next_item(), (r, d)
        agent = take()
        new.observe(agent)
        old.observe(agent)
        cert = new.certificate()
        assert cert == old.certificate(), r
        assert new.event_log == old.event_log, r
        fired += cert is not None
    assert new.record() == old.record()
    assert new.instance() == old.instance()
    return new.record(), fired


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("eps", [F(1), F(1, 2), F(2, 3), F(3, 2), F(5, 7)])
def test_lockstep_with_the_fraction_reference(n, eps):
    rounds = {2: 90, 3: 70, 4: 45}[n]
    starved = certified = 0
    for pin in (n, 7, 50):
        for i, kind in enumerate(("uniform", "starve", "greedy-top", "base")):
            record, fired = _play_lockstep(n, eps, pin, kind, seed=1000 * n + 10 * pin + i, rounds=rounds)
            T = n if n == 2 else pin
            starved += record_max_gap(record) > T + 1
            certified += fired > 0
    assert starved > 0 and certified > 0


def test_lockstep_covers_windows_past_t_plus_one():
    # a take after more than T+1 rounds: a_s grows past V, a starved take lifts the sum
    record, _ = _play_lockstep(3, F(1), 2, "starve", seed=5, rounds=80)
    gaps = [b - a for a, b in zip(record.own_take_rounds, record.own_take_rounds[1:])]
    assert max(gaps) > 3


def test_a_value_is_pinned_at_the_window_length():
    adv = RecursiveAdversary(n_total=3, level=3, eps=F(2, 3), pin_horizon=7)
    adv.next_item()
    adv.observe(3)
    assert adv.a_value(8) == adv.V  # a_{T+1} = V
    assert adv.a_value(1) == adv.V * (adv.eps_own / (1 + adv.eps_own)) ** 7
    before = RecursiveAdversary(n_total=3, level=3, eps=F(2, 3), pin_horizon=7)
    with pytest.raises(FairdivError, match="before the first own take"):
        before.a_value(1)


# check_O1_O2 ----------------------------------------------------------------------

def _corruptions(record: RecGameRecord, rng: random.Random):
    """Records that break O1, O2 or both, and some that only move the horizon."""
    values = list(record.own_values)
    takes = list(record.takes)
    rounds = record.rounds
    yield record
    for _ in range(6):
        r = rng.randrange(rounds)
        grown = values[:]
        grown[r] = grown[r] * rng.choice([F(2), F(10**6), F(1, 3), record.V or F(1)]) + rng.choice([0, 1])
        yield replace(record, own_values=tuple(grown))
        flipped = takes[:]
        flipped[r] = record.n if flipped[r] != record.n else 1
        yield replace(record, takes=tuple(flipped))
    yield replace(record, own_values=tuple(reversed(values)))
    yield replace(record, j_dagger=rng.randint(1, rounds))
    yield replace(record, eps_own=record.eps_own * 1000)
    yield replace(record, V=F(1, 10**9))


def test_check_O1_O2_matches_the_fraction_reference_on_corrupted_records():
    rng = random.Random(1301)
    failing = 0
    for n, eps, pin, kind in [(3, F(1), 50, "uniform"), (3, F(5, 7), 7, "starve"),
                              (2, F(1, 2), 2, "greedy-top"), (4, F(2, 3), 7, "uniform")]:
        record, _ = _play_lockstep(n, eps, pin, kind, seed=rng.randrange(10**6), rounds=40)
        if not record.own_take_rounds:
            continue
        for bad in _corruptions(record, rng):
            report = check_O1_O2(bad)
            assert report == fraction_check_O1_O2(bad)
            failing += not (report.o1_ok and report.o2_ok)
    assert failing > 20


def test_check_O1_O2_scales_each_value_object_once(monkeypatch):
    # an exhausted game emits its 1000 own values from a few dozen objects; a
    # record whose equal values are distinct objects gets the same report
    from fairdiv import adversary

    scaled = []
    monkeypatch.setattr(adversary, "common_scale", lambda values: scaled.append(len(values)) or common_scale(values))
    for policy in ("round-robin", "pressure-greedy"):
        record = play_game(make_recursive_adversary(3, 1, 1000), make_policy(policy), 1000).record
        copies = replace(record, own_values=tuple(Fraction(v.numerator, v.denominator) for v in record.own_values))
        scaled.clear()
        report = check_O1_O2(record)
        assert report == check_O1_O2(copies) == fraction_check_O1_O2(record)
        assert report.o1_ok and report.o2_ok and record.rounds == 1000
        assert scaled[0] <= 30 and scaled[1] == 1000
