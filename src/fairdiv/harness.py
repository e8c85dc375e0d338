"""Instance generators, experiment orchestration, and report assembly."""

from __future__ import annotations

import decimal
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .adversary import certify_ratio, mms_report, scaled_disutilities  # certify_ratio: patched here by perfbench/tracer.py
from .allocator import (
    BiValuePolicy,
    DumpToOnePolicy,
    Policy,
    PressureGreedyPolicy,
    RoundRobinPolicy,
    RunTrace,
    SeededMixturePolicy,
    run_online,
    validate_pressure_trace,
)
from .core import Allocation, FairdivError, Instance, format_rational, instance_digest
from .mms import mms_exact  # mms_exact: patched here by perfbench/tracer.py
from .stacking import allocator_to_stacking, check_bound  # check_bound: patched here by perfbench/tracer.py

GRID_NAMES = ("powers-of-two", "uniform-rational", "adversarial-near-threshold")

# k=2 value-pair ratios straddling the bi-value merge threshold (sqrt(3)-1)/2.
NEAR_THRESHOLD_BELOW = (Fraction(117, 320), Fraction(23, 63), Fraction(4, 11), Fraction(16, 45))
NEAR_THRESHOLD_ABOVE = (Fraction(11, 30), Fraction(47, 128), Fraction(3, 8), Fraction(2, 5))

# The fractions in [0, 1) with denominator at most 6, in increasing order.
_UNIT_GRID = tuple(sorted({Fraction(p, q) for q in range(1, 7) for p in range(q)}))


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    m: int
    k: int
    D: Fraction
    value_grid: str = "powers-of-two"
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.k < 1:
            raise FairdivError("n, m, k must be positive")
        if Fraction(self.D) < 1:
            raise FairdivError(f"D must be >= 1, got {self.D}")
        if self.value_grid not in GRID_NAMES:
            raise FairdivError(f"unknown value grid {self.value_grid!r}")


def _agent_value_set(cfg: GeneratorConfig, rng: random.Random) -> list[Fraction]:
    D = Fraction(cfg.D)
    if cfg.value_grid == "powers-of-two":
        # floor(log2 D): D lies in (2^(e-1), 2^(e+1)) for e the bit-length difference
        max_exp = D.numerator.bit_length() - D.denominator.bit_length()
        if D.denominator << max_exp > D.numerator:
            max_exp -= 1
        if cfg.k > max_exp + 1:
            raise FairdivError(
                f"infeasible: {cfg.k} powers of two cannot fit spread {D}"
            )
        exps = rng.sample(range(max_exp + 1), cfg.k)
        return [Fraction(2) ** e for e in sorted(exps)]
    if cfg.value_grid == "uniform-rational":
        # The sorted grid {p/q in [1, D] : q <= 6} is indexed, not listed:
        # entry j is 1 + j // 12 + _UNIT_GRID[j % 12].
        whole = int(D)
        size = 12 * (whole - 1) + sum(f <= D - whole for f in _UNIT_GRID)
        if size < cfg.k:
            raise FairdivError(f"infeasible: grid holds only {size} values <= {D}")
        if size > sys.maxsize:
            raise FairdivError(f"D={D} is too large for the uniform-rational grid")
        return sorted(1 + j // 12 + _UNIT_GRID[j % 12] for j in rng.sample(range(size), cfg.k))
    # adversarial-near-threshold: pairs whose ratio straddles (sqrt(3)-1)/2.
    if cfg.k > 2:
        raise FairdivError("adversarial-near-threshold supports k <= 2")
    base = Fraction(rng.choice([1, 2, 3, 5, 8]))
    if cfg.k == 1:
        return [base]
    ratios = [r for r in NEAR_THRESHOLD_BELOW + NEAR_THRESHOLD_ABOVE if 1 / r <= D]
    if not ratios:
        raise FairdivError(f"infeasible: near-threshold pairs need spread >= 30/11, got {D}")
    r = rng.choice(ratios)
    return [base * r, base]


def generate_instance(cfg: GeneratorConfig) -> Instance:
    """Deterministic-in-seed instance with exactly k values per agent, spread <= D.

    Each agent draws a k-element value set from the configured grid; items
    pick values independently per agent, with the first occurrences arranged
    so every drawn value actually appears (requires m >= k).
    """
    if cfg.m < cfg.k:
        raise FairdivError(f"infeasible: m={cfg.m} < k={cfg.k} values per agent")
    rng = random.Random(cfg.seed)
    per_agent = [_agent_value_set(cfg, rng) for _ in range(cfg.n)]
    tables, columns = [], []
    for values in per_agent:
        draws = [rng.randrange(cfg.k) for _ in range(cfg.m)]
        slots = rng.sample(range(cfg.m), cfg.k)
        order = list(range(cfg.k))
        rng.shuffle(order)
        for slot, d in zip(slots, order):
            draws[slot] = d
        # codes number the drawn values in order of first appearance
        first = list(dict.fromkeys(draws))
        code = dict(zip(first, range(cfg.k)))
        tables.append([values[d] for d in first])
        columns.append(map(code.__getitem__, draws))
    return Instance.from_codes(cfg.n, tables, zip(*columns))


ZOO_MIXTURE_SEEDS = (11, 23, 37, 41, 53)


def policy_zoo() -> list[Policy]:
    fixed = [PressureGreedyPolicy(), BiValuePolicy(), RoundRobinPolicy(), DumpToOnePolicy()]
    return fixed + [SeededMixturePolicy(s) for s in ZOO_MIXTURE_SEEDS]


# Experiment reports ---------------------------------------------------------

def _decimal20(x: Fraction) -> str:
    ctx = decimal.Context(prec=20)
    return str(ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator)))


@dataclass(frozen=True)
class AgentOutcome:
    agent: int
    d_A: Fraction
    ratio_kind: str  # "exact" | "interval"
    ratio: Fraction | None
    ratio_low: Fraction | None
    ratio_high: Fraction | None


@dataclass
class RunReport:
    policy: str
    allocation: Allocation
    agents: list[AgentOutcome]
    max_pressure: Fraction | None
    stacking_margin: Fraction | None
    checks: dict[str, bool]
    trace: RunTrace  # the run's step trace; not part of the serialized report

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


@dataclass
class ExperimentReport:
    digest: str
    n: int
    m: int
    runs: list[RunReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.runs)

    def to_obj(self) -> dict:
        runs = []
        for r in self.runs:
            agents = []
            for a in r.agents:
                entry = {
                    "agent": a.agent,
                    "d_A": format_rational(a.d_A),
                    "ratio_kind": a.ratio_kind,
                }
                if a.ratio_kind == "exact":
                    entry["ratio"] = format_rational(a.ratio)
                    entry["ratio_decimal"] = _decimal20(a.ratio)
                else:
                    entry["ratio_low"] = format_rational(a.ratio_low)
                    entry["ratio_high"] = format_rational(a.ratio_high)
                    entry["ratio_low_decimal"] = _decimal20(a.ratio_low)
                    entry["ratio_high_decimal"] = _decimal20(a.ratio_high)
                agents.append(entry)
            runs.append(
                {
                    "policy": r.policy,
                    "assignment": list(r.allocation.assignment),
                    "agents": agents,
                    "max_pressure": None if r.max_pressure is None else format_rational(r.max_pressure),
                    "stacking_margin": None
                    if r.stacking_margin is None
                    else format_rational(r.stacking_margin),
                    "checks": dict(r.checks),
                }
            )
        return {"instance": self.digest, "n": self.n, "m": self.m, "runs": runs}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        lines = ["instance,policy,agent,d_A,ratio_kind,ratio_low,ratio_high,ratio_low_decimal,ratio_high_decimal,checks_passed"]
        for r in self.runs:
            for a in r.agents:
                low = a.ratio if a.ratio_kind == "exact" else a.ratio_low
                high = a.ratio if a.ratio_kind == "exact" else a.ratio_high
                lines.append(
                    ",".join(
                        [
                            self.digest[:12],
                            r.policy,
                            str(a.agent),
                            format_rational(a.d_A),
                            a.ratio_kind,
                            format_rational(low),
                            format_rational(high),
                            _decimal20(low),
                            _decimal20(high),
                            str(r.passed).lower(),
                        ]
                    )
                )
        return "\n".join(lines) + "\n"


def leq_two_plus_sqrt3(d: Fraction, mms: Fraction) -> bool:
    """Exact test of d <= (2 + sqrt(3)) * mms for nonnegative rationals."""
    if mms < 0 or d < 0:
        raise FairdivError("leq_two_plus_sqrt3 expects nonnegative inputs")
    rest = d - 2 * mms
    if rest <= 0:
        return True
    return rest * rest <= 3 * mms * mms


def run_experiment(inst: Instance, policies=None) -> ExperimentReport:
    """Run policies over one instance and flag every theoretical-bound check.

    Each agent's MMS record comes from one :func:`mms_report` call per
    instance, shared by every policy, and each run's d_A are summed in one
    pass over its assignment on the integer scales the records keep. Each
    run's ``allocation`` is the one :func:`run_online` returned. Per-agent
    ratios are exact when the record holds the exact MMS; otherwise they
    are the certified interval [d_A/upper, d_A/lower] of the record's
    bounds. For the rounded greedy policy the checks include the trace
    invariants and the stacking reduction's consistency, and
    ``stacking_margin`` is :func:`check_bound`'s margin at beta = n/(n-1),
    taken on the reduction's integer grid (:meth:`GridGame.bound_margin`).
    Bound checks, made only when every MMS is exact, compare realized
    disutility against (8k+2)*MMS for the rounded greedy rule, n*MMS for
    dump-to-one, and (2+sqrt(3))*MMS for the bi-value rule on bi-valued
    instances.
    """
    if policies is None:
        policies = [PressureGreedyPolicy(), BiValuePolicy(), RoundRobinPolicy(), DumpToOnePolicy()]
    report = ExperimentReport(digest=instance_digest(inst), n=inst.n, m=inst.m)
    if inst.m == 0:
        return report
    mms = mms_report(inst)
    exact_mms = [r.exact for r in mms]
    all_exact = None not in exact_mms

    for policy in policies:
        alloc, trace = run_online(inst, policy)
        outcomes = []
        for r, d_a in zip(mms, scaled_disutilities(inst, alloc, mms)):
            if r.exact is not None:
                outcomes.append(AgentOutcome(r.agent, d_a, "exact", d_a / r.exact, None, None))
            else:
                outcomes.append(AgentOutcome(r.agent, d_a, "interval", None, d_a / r.upper, d_a / r.lower))
        run_checks: dict[str, bool] = {}
        max_pressure = policy.max_pressure_seen()
        stacking_margin = None
        if policy.name == "pressure-greedy" and inst.n >= 2:
            # the reduction's replay checks the trace too; validation replays it only if that fails
            try:
                reduction = allocator_to_stacking(trace)
            except FairdivError:
                reduction = None
            tc = validate_pressure_trace(trace) if reduction is None else reduction.check
            run_checks["trace-invariants"] = tc.passed
            run_checks["stacking-consistency"] = reduction is not None
            if reduction is not None and trace.steps:  # reduction.steps would walk the cells
                stacking_margin = reduction.game.bound_margin(Fraction(inst.n, inst.n - 1))
            if all_exact:
                k_rounded = tc.game_k
                run_checks["ratio-bound-8k+2"] = all(
                    o.d_A <= (8 * k_rounded + 2) * exact_mms[o.agent - 1] for o in outcomes
                )
        # the policy falls back exactly when some agent shows a third value
        if policy.name == "bi-value" and inst.n >= 2 and not policy.fell_back:
            run_checks["bi-value-pressure"] = max_pressure <= 2 + Fraction(1, inst.n - 1)
            if all_exact:
                run_checks["ratio-bound-2+sqrt3"] = all(
                    leq_two_plus_sqrt3(o.d_A, exact_mms[o.agent - 1]) for o in outcomes
                )
        if policy.name == "dump-to-one" and all_exact:
            run_checks["ratio-bound-n"] = all(
                o.d_A <= inst.n * exact_mms[o.agent - 1] for o in outcomes
            )
        report.runs.append(
            RunReport(
                policy=policy.name,
                allocation=alloc,
                agents=outcomes,
                max_pressure=max_pressure,
                stacking_margin=stacking_margin,
                checks=run_checks,
                trace=trace,
            )
        )
    return report


def run_batch(instances, policies=None) -> list[ExperimentReport]:
    """Run experiments over many instances; output order is digest-sorted.

    Instances are independent, so callers may parallelize; sorting by digest
    keeps the assembled report order-independent.
    """
    reports = [run_experiment(inst, policies=policies) for inst in instances]
    return sorted(reports, key=lambda r: r.digest)


__all__ = [
    "GRID_NAMES",
    "NEAR_THRESHOLD_BELOW",
    "NEAR_THRESHOLD_ABOVE",
    "GeneratorConfig",
    "generate_instance",
    "policy_zoo",
    "AgentOutcome",
    "RunReport",
    "ExperimentReport",
    "leq_two_plus_sqrt3",
    "run_experiment",
    "run_batch",
]
