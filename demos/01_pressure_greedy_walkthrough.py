#!/usr/bin/env python3
"""Walk through the pressure-greedy allocator on a tiny two-type stream.

Each agent keeps one pressure counter per distinct (power-of-two-rounded)
value it has seen. An item goes to the agent whose pressure for the item's
type is lowest; the receiver's counter rises by 1, everyone else's counter
for their own type of the item falls by 1/(n-1). The stream below forces the
classic online mistake: after (A,A) and (B,B), the mixed item (A,B) must
give someone a second consecutive item of one type.
"""
from fractions import Fraction as F

from fairdiv import Instance, run_online, validate_pressure_trace
from fairdiv.allocator import PressureGreedyPolicy

stream = [
    (F(1), F(1)),   # type A for both agents
    (F(4), F(4)),   # type B for both agents
    (F(1), F(4)),   # type A for agent 1, type B for agent 2
]
inst = Instance(2, tuple(stream))

alloc, trace = run_online(inst, PressureGreedyPolicy())
# the trace keeps each step's (types, agent); a replay rebuilds the scaled
# pressures (n-1)*H as ints after every step
for step, pressures in zip(trace.steps, trace.pressure_rows()):
    rows = ", ".join(
        f"H_{i + 1}={[str(F(h, inst.n - 1)) for h in hs]}" for i, hs in enumerate(pressures)
    )
    print(f"item {step.item}: raw={tuple(map(str, trace.raw(step)))} -> agent {step.agent}   {rows}")

check = validate_pressure_trace(trace)
print(f"\nassignment: {alloc.assignment}")
print(f"invariants (closed form, sandwich, bounds): {check.passed}")
print(f"max pressure seen: {F(check.max_scaled_pressure, inst.n - 1)} "
      f"(guaranteed <= 2k = {2 * check.game_k})")
