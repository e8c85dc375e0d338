#!/usr/bin/env python3
"""Exact MMS values, the per-type sandwich, and the allocator-to-game map.

The per-type share of a value appearing N times is ceil(N/n) * value, and
the true MMS sits between sum(share - value) and sum(share). The second half
replays a greedy run as stacking-game moves: at every step the multiset of
pressure counters equals the multiset of cell values, so the game's 2k cap
transfers to the pressures.
"""
from fractions import Fraction as F

from fairdiv import (
    GeneratorConfig,
    agent_type_shares,
    allocator_to_stacking,
    check_mms_decomposition,
    generate_instance,
    mms_exact,
    run_online,
)
from fairdiv.allocator import PressureGreedyPolicy

values = [F(4), F(1), F(1)]
share, witness = mms_exact(values, 2)
print(f"values {values} over 2 agents: MMS = {share}, witness bundles {witness}")

inst = generate_instance(GeneratorConfig(n=3, m=9, k=2, D=F(8), seed=2))
for check in check_mms_decomposition(inst):
    print(f"agent {check.agent}: {check.lhs} <= MMS = {check.exact} <= {check.rhs}"
          f"   [{'ok' if check.passed else 'VIOLATED'}]")
shares = agent_type_shares(inst.agent_values(1), inst.n)
print("agent 1 types:", [(str(t.value), t.count, str(t.share)) for t in shares])

print("\nreduction to the stacking game:")
_, trace = run_online(inst, PressureGreedyPolicy())
reduction = allocator_to_stacking(trace)
final = reduction.game.to_function()
print(f"{len(reduction.steps)} moves at k = {reduction.k}; "
      f"final piece values {[str(v) for _, _, v in final.pieces]}")
print(f"max value {final.max_value()} <= 2k = {2 * reduction.k}")
print(f"trace invariants from the same replay: passed = {reduction.check.passed}")
