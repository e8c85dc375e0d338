#!/usr/bin/env python3
"""Exact MMS values, each agent's certified record, and the allocator-to-game map.

Each agent's record holds its MMS bounds, lower <= MMS <= upper, and the
exact MMS when the search guard allows it; its witness partition is dealt
when first read. The second half replays a greedy run as stacking-game
moves: at every step the multiset of pressure counters equals the multiset
of cell values, so the game's 2k cap transfers to the pressures.
"""
from fractions import Fraction as F

from fairdiv import (
    GeneratorConfig,
    allocator_to_stacking,
    generate_instance,
    mms_exact,
    mms_report,
    run_online,
)
from fairdiv.allocator import PressureGreedyPolicy

values = [F(4), F(1), F(1)]
share, witness = mms_exact(values, 2)
print(f"values {values} over 2 agents: MMS = {share}, witness bundles {witness}")

inst = generate_instance(GeneratorConfig(n=3, m=9, k=2, D=F(8), seed=2))
for record in mms_report(inst):
    print(f"agent {record.agent}: {record.lower} <= MMS = {record.exact} <= {record.upper}, "
          f"witness bundles {record.witness}")

print("\nreduction to the stacking game:")
_, trace = run_online(inst, PressureGreedyPolicy())
reduction = allocator_to_stacking(trace)
final = reduction.game.to_function()
print(f"{len(reduction.steps)} moves at k = {reduction.k}; "
      f"final piece values {[str(v) for _, _, v in final.pieces]}")
print(f"max value {final.max_value()} <= 2k = {2 * reduction.k}")
print(f"trace invariants from the same replay: passed = {reduction.check.passed}")
