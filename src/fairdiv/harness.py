"""Instance generators, experiment orchestration, and report assembly."""

from __future__ import annotations

import decimal
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .adversary import certify_ratio, mms_report  # certify_ratio: patched here by perfbench/tracer.py
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
from .core import FairdivError, Instance, format_rational, instance_digest, instance_stats
from .mms import mms_exact  # mms_exact: patched here by perfbench/tracer.py
from .stacking import BoundProfile, allocator_to_stacking, check_bound

GRID_NAMES = ("powers-of-two", "uniform-rational", "adversarial-near-threshold")

# k=2 value-pair ratios straddling the bi-value merge threshold (sqrt(3)-1)/2.
NEAR_THRESHOLD_BELOW = (Fraction(117, 320), Fraction(23, 63), Fraction(4, 11), Fraction(16, 45))
NEAR_THRESHOLD_ABOVE = (Fraction(11, 30), Fraction(47, 128), Fraction(3, 8), Fraction(2, 5))


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
        max_exp = 0
        while Fraction(2) ** (max_exp + 1) <= D:
            max_exp += 1
        if cfg.k > max_exp + 1:
            raise FairdivError(
                f"infeasible: {cfg.k} powers of two cannot fit spread {D}"
            )
        exps = rng.sample(range(max_exp + 1), cfg.k)
        return [Fraction(2) ** e for e in sorted(exps)]
    if cfg.value_grid == "uniform-rational":
        pool: set[Fraction] = set()
        for q in range(1, 7):
            hi = int(D * q)
            for p in range(q, hi + 1):
                v = Fraction(p, q)
                if 1 <= v <= D:
                    pool.add(v)
        if len(pool) < cfg.k:
            raise FairdivError(f"infeasible: grid holds only {len(pool)} values <= {D}")
        return sorted(rng.sample(sorted(pool), cfg.k))
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
    columns = []
    for values in per_agent:
        col = [values[rng.randrange(cfg.k)] for _ in range(cfg.m)]
        slots = rng.sample(range(cfg.m), cfg.k)
        order = list(values)
        rng.shuffle(order)
        for slot, v in zip(slots, order):
            col[slot] = v
        columns.append(col)
    items = tuple(tuple(columns[i][j] for i in range(cfg.n)) for j in range(cfg.m))
    return Instance(n=cfg.n, items=items)


def policy_zoo(seeds=(11, 23, 37, 41, 53)) -> list[Policy]:
    zoo: list[Policy] = [
        PressureGreedyPolicy(),
        BiValuePolicy(),
        RoundRobinPolicy(),
        DumpToOnePolicy(),
    ]
    zoo.extend(SeededMixturePolicy(s) for s in seeds)
    return zoo


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
    assignment: tuple[int, ...]
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
                    "assignment": list(r.assignment),
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


def run_experiment(inst: Instance, policies=None, checks=("bounds", "stacking")) -> ExperimentReport:
    """Run policies over one instance and flag every theoretical-bound check.

    Each agent's MMS record comes from one :func:`mms_report` call per
    instance, shared by every policy. Per-agent ratios are exact when the
    record holds the exact MMS; otherwise they are the certified interval
    [d_A/upper, d_A/lower] of the record's bounds. For the rounded greedy
    policy the checks include the trace invariants and the stacking
    reduction's consistency; bound checks, made only when every MMS is
    exact, compare realized disutility against (8k+2)*MMS for the rounded
    greedy rule, n*MMS for dump-to-one, and (2+sqrt(3))*MMS for the
    bi-value rule on bi-valued instances.
    """
    if policies is None:
        policies = [PressureGreedyPolicy(), BiValuePolicy(), RoundRobinPolicy(), DumpToOnePolicy()]
    report = ExperimentReport(digest=instance_digest(inst), n=inst.n, m=inst.m)
    if inst.m == 0:
        return report
    stats = instance_stats(inst)
    records = mms_report(inst)
    exact_mms = [r.exact for r in records]
    all_exact = None not in exact_mms

    for policy in policies:
        alloc, trace = run_online(inst, policy)
        outcomes = []
        for r in records:
            d_a = alloc.bundle_disutility(inst, r.agent)
            if r.exact is not None:
                outcomes.append(AgentOutcome(r.agent, d_a, "exact", d_a / r.exact, None, None))
            else:
                outcomes.append(AgentOutcome(r.agent, d_a, "interval", None, d_a / r.upper, d_a / r.lower))
        run_checks: dict[str, bool] = {}
        max_pressure = policy.max_pressure_seen()
        stacking_margin = None
        if policy.name == "pressure-greedy" and inst.n >= 2:
            tc = validate_pressure_trace(trace)
            run_checks["trace-invariants"] = tc.passed
            if "stacking" in checks:
                try:
                    reduction = allocator_to_stacking(trace, inst.n)
                    run_checks["stacking-consistency"] = True
                    if reduction.steps:
                        beta = Fraction(inst.n, inst.n - 1)
                        stacking_margin = check_bound(
                            reduction.final, BoundProfile(k=reduction.k, beta=beta)
                        ).margin
                except FairdivError:
                    run_checks["stacking-consistency"] = False
            if "bounds" in checks and all_exact:
                k_rounded = tc.game_k
                run_checks["ratio-bound-8k+2"] = all(
                    o.d_A <= (8 * k_rounded + 2) * exact_mms[o.agent - 1] for o in outcomes
                )
        if policy.name == "bi-value" and inst.n >= 2 and "bounds" in checks:
            if max_pressure is not None and stats.k <= 2:
                run_checks["bi-value-pressure"] = max_pressure <= 2 + Fraction(1, inst.n - 1)
            if all_exact and stats.k <= 2:
                run_checks["ratio-bound-2+sqrt3"] = all(
                    leq_two_plus_sqrt3(o.d_A, exact_mms[o.agent - 1]) for o in outcomes
                )
        if policy.name == "dump-to-one" and "bounds" in checks and all_exact:
            run_checks["ratio-bound-n"] = all(
                o.d_A <= inst.n * exact_mms[o.agent - 1] for o in outcomes
            )
        report.runs.append(
            RunReport(
                policy=policy.name,
                assignment=alloc.assignment,
                agents=outcomes,
                max_pressure=max_pressure,
                stacking_margin=stacking_margin,
                checks=run_checks,
                trace=trace,
            )
        )
    return report


def run_batch(instances, policies=None, checks=("bounds", "stacking")) -> list[ExperimentReport]:
    """Run experiments over many instances; output order is digest-sorted.

    Instances are independent, so callers may parallelize; sorting by digest
    keeps the assembled report order-independent.
    """
    reports = [run_experiment(inst, policies=policies, checks=checks) for inst in instances]
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
