"""Shared test helpers: independent brute-force oracles and generators."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product

from fairdiv import Instance, InstanceTooLarge, mms_exact
from fairdiv.allocator import PressureGreedyPolicy, run_online
from fairdiv.core import FairdivError, ceil_div
from fairdiv.harness import GeneratorConfig, generate_instance


def brute_force_mms(values, n: int) -> Fraction:
    """Min over ALL n^m assignments of the max bundle sum.

    Deliberately independent of the branch-and-bound search: plain
    enumeration, usable for m up to ~9.
    """
    values = [Fraction(v) for v in values]
    best = None
    for assignment in product(range(n), repeat=len(values)):
        loads = [Fraction(0)] * n
        for v, b in zip(values, assignment):
            loads[b] += v
        worst = max(loads)
        if best is None or worst < best:
            best = worst
    return best


def random_rational(rng: random.Random, max_num: int = 64, max_den: int = 16) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_instance(rng: random.Random, n: int, m: int, k: int) -> Instance:
    """Uniform k-valued instance without the generator module (independent)."""
    items = []
    value_sets = []
    for _ in range(n):
        vals = set()
        while len(vals) < k:
            vals.add(random_rational(rng))
        value_sets.append(sorted(vals))
    for j in range(m):
        items.append(tuple(value_sets[i][rng.randrange(k)] for i in range(n)))
    return Instance(n=n, items=tuple(items))


def per_type_sums(inst: Instance, agent: int) -> tuple[Fraction, Fraction]:
    """sum_u (ceil(c_u/n) - 1) * u and sum_u ceil(c_u/n) * u, for c_u items of each value u."""
    shares = [(ceil_div(c, inst.n), u) for u, c in Counter(inst.agent_values(agent)).items()]
    return sum((s - 1) * u for s, u in shares), sum(s * u for s, u in shares)


def late_opening_trace(rng: random.Random):
    """``(n, trace)``: pressure-greedy on a uniform-rational instance with one
    value per agent for 260 items and four after, so its counters open late
    and fresh cells join a grid of nonzero ones."""
    n = rng.randint(3, 8)
    early, late = (
        generate_instance(GeneratorConfig(n=n, m=m, k=k, D=Fraction(16), value_grid="uniform-rational",
                                          seed=rng.randrange(10**6)))
        for m, k in ((260, 1), (300, 4))
    )
    return n, run_online(Instance(n, early.items + late.items), PressureGreedyPolicy())[1]


class OracleRec3:
    """Independent transcription of the three-agent recursive emission rules.

    Kept deliberately separate from the adversary module: flat state, no
    recursion, used to cross-check every emitted value and the clean-up
    scaling identity.
    """

    def __init__(self, eps, pin_horizon: int):
        eps = Fraction(eps)
        self.eps_sub = eps / 3       # top-level clean-up parameter
        self.eps3 = eps / 18         # top own-agent parameter: eps / (n*(n+3))
        self.eps2L = eps / 3         # the level-2 game runs at eps/n
        self.eps_sub2 = self.eps2L / 3
        self.eps2 = self.eps2L / 18
        self.pin = pin_horizon
        self.r = 0
        self.top_sums = [Fraction(0)] * 3
        self.top_scale = [Fraction(1), Fraction(1)]
        self.d3_emitted = Fraction(0)
        self.V3 = None
        self.last3 = None
        self._u3 = [Fraction(1)]
        self._u3_sum = Fraction(1)
        self._u2 = [Fraction(1)]
        self._u2_sum = Fraction(1)
        self.pending = None
        self.l2_pending = None
        self._reset_l2()

    def _reset_l2(self):
        self.l2_r = 0
        self.l2_sums = [Fraction(0), Fraction(0)]
        self.l2_scale1 = Fraction(1)
        self.d2_emitted = Fraction(0)
        self.V2 = None
        self.last2 = None

    def _u(self, seq, total, eps_own, t):
        while len(seq) < t:
            nxt = total[0] / eps_own + 1
            seq.append(nxt)
            total[0] += nxt
        return seq[t - 1]

    def _a2(self, s):
        total = [self._u2_sum]
        u_s = self._u(self._u2, total, self.eps2, max(s, 4))
        self._u2_sum = total[0]
        return self._u2[s - 1] * self.V2 / self._u2[3]  # pinned: a_4 = V2

    def _a3(self, s):
        total = [self._u3_sum]
        self._u(self._u3, total, self.eps3, max(s, self.pin + 1))
        self._u3_sum = total[0]
        return self._u3[s - 1] * self.V3 / self._u3[self.pin]  # a_{pin+1} = V3

    def next(self):
        self.r += 1
        self.l2_r += 1
        d1_l2 = self.l2_scale1  # constant-1 base stream, rescaled by clean-ups
        if self.V2 is None:
            d2_l2 = Fraction(1) if self.l2_r == 1 else self.d2_emitted / self.eps2
        else:
            d2_l2 = self._a2(self.l2_r - self.last2)
        self.d2_emitted += d2_l2
        d1 = d1_l2 * self.top_scale[0]
        d2 = d2_l2 * self.top_scale[1]
        if self.V3 is None:
            d3 = Fraction(1) if self.r == 1 else self.d3_emitted / self.eps3
        else:
            d3 = self._a3(self.r - self.last3)
        self.d3_emitted += d3
        self.pending = (d1, d2, d3)
        self.l2_pending = (d1_l2, d2_l2)
        return self.pending

    def observe(self, agent: int):
        d = self.pending
        for i in range(3):
            self.top_sums[i] += d[i]
        if agent == 3:
            if self.V3 is None:
                self.V3 = d[2]
            self.last3 = self.r
            self.top_scale = [self.top_sums[0] / self.eps_sub, self.top_sums[1] / self.eps_sub]
            self._reset_l2()
            return
        self.l2_sums[0] += self.l2_pending[0]
        self.l2_sums[1] += self.l2_pending[1]
        if agent == 2:
            if self.V2 is None:
                self.V2 = self.l2_pending[1]
            self.last2 = self.l2_r
            self.l2_scale1 = self.l2_sums[0] / self.eps_sub2


def type_union_partition(values, n: int) -> tuple[int, list[list[int]]]:
    """``(max load, bundles)``: each distinct value round-robined on its own.

    The union of the per-type optima. The first bundle holds ceil(count/n)
    items of every value, so the max load is the per-type share sum. Never
    below the largest-first load, so ``agent_mms`` does not try it; the
    references that still do show that it never wins.
    """
    by_value: dict[int, list[int]] = {}
    for p, v in enumerate(values):
        by_value.setdefault(v, []).append(p)
    bundles: list[list[int]] = [[] for _ in range(n)]
    for positions in by_value.values():
        for idx, p in enumerate(positions):
            bundles[idx % n].append(p + 1)
    for bundle in bundles:
        bundle.sort()
    return sum(v * ceil_div(len(positions), n) for v, positions in by_value.items()), bundles


def fraction_verify_certificate(inst: Instance, alloc, cert) -> bool:
    """Reference for ``verify_certificate``: every check in Fractions on the
    agent's values read item by item, with no integer table, and an "exact"
    source re-derived by ``mms_exact`` on those Fractions. A witness that does
    not partition the items raises, as ``witness_max_bundle`` does."""
    if cert.mms_source == "trivial":
        return inst.m == alloc.m == 0
    if cert.mms_source not in ("exact", "witness"):
        return False
    agent = cert.agent
    if isinstance(agent, bool) or not isinstance(agent, int) or not 1 <= agent <= inst.n or cert.mms_upper == 0:
        return False
    if alloc.m != inst.m or max(alloc.assignment, default=0) > inst.n:
        return False
    values = inst.agent_values(agent)
    if len(cert.witness) > inst.n or sorted(j for bundle in cert.witness for j in bundle) != list(range(1, inst.m + 1)):
        raise FairdivError("the witness does not partition the items")
    if max(sum((values[j - 1] for j in bundle), Fraction(0)) for bundle in cert.witness) != cert.mms_upper:
        return False
    if cert.mms_source == "exact":
        try:
            if mms_exact(values, inst.n)[0] != cert.mms_upper:
                return False
        except InstanceTooLarge:
            return False
    d_a = sum((v for v, a in zip(values, alloc.assignment) if a == agent), Fraction(0))
    return d_a == cert.d_A and cert.ratio_lower == cert.d_A / cert.mms_upper
