"""The four closed-loop workloads: inputs from a seed, units, and checks.

Each workload builds a fixed list of units from its seed (the cycle) in
``setup``. The timed phase runs the cycle in order, again and again, one
unit at a time, and stops after the first whole cycle that ends past the
run's time, so every run measures the same mix. ``run`` executes one unit and
returns what the checks need; ``check`` judges every distinct unit once,
after the timed phase, against the golden digests at the default seed and
against the program's own invariants at every other seed.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter


@dataclass
class Unit:
    uid: str
    kind: str
    spec: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one execution of one unit produced, and when (``perf_counter``)."""

    start: float
    end: float
    steps: int
    digest: str
    ok: bool  # the program's own verdict (exit code, report, invariants)
    exact: int = 0  # per-agent ratio outcomes (or certificates) that are exact
    outcomes: int = 0  # all per-agent ratio outcomes (or certificates)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_hex(fh.read())


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _interleave(groups: list[list[Unit]]) -> list[Unit]:
    """Round-robin over groups, so any prefix of the cycle holds every kind."""
    out: list[Unit] = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        for g in groups:
            if i < len(g):
                out.append(g[i])
    return out


class Workload:
    name = "abstract"

    def __init__(self, fd, seed: int, workdir: str):
        self.fd = fd
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.units: list[Unit] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, unit: Unit, tracer=None) -> Outcome:
        raise NotImplementedError

    def check(self, unit: Unit, outcome: Outcome) -> list[str]:
        """Invariant failures for a unit's last outputs (any seed)."""
        return [] if outcome.ok else [f"{unit.uid}: program reported a failed check"]

    def _path(self, uid: str, suffix: str) -> str:
        return os.path.join(self.workdir, f"{uid}.{suffix}")

    def _sub_seed(self) -> int:
        return self.rng.randrange(2**31)


# stream ----------------------------------------------------------------------

class Stream(Workload):
    """``fairdiv run`` on long generated instance files, in process.

    Pressure-greedy units (n=8, k=4, powers of two) go through the stacking
    reduction inside the report; bi-value units (n=8, k=2, near-threshold)
    bypass it. A bi-value unit costs about two thirds of a pressure-greedy
    one, and there are twice as many of the latter, so the median falls well
    inside the pressure-greedy units and the tail percentile (with twelve
    units, the eleventh slowest) well inside the bi-value ones, never on the
    edge between the two.
    """

    name = "stream"
    N = 8
    PG = dict(policy="pressure-greedy", n=8, m=1000, k=4, D=Fraction(8), grid="powers-of-two")
    BV = dict(policy="bi-value", n=8, m=2000, k=2, D=Fraction(4), grid="adversarial-near-threshold")
    PATTERN = ("pg", "pg", "bv")
    REPEATS = 4  # 12 distinct units, the fewest with 10 beyond a tail percentile

    def setup(self) -> None:
        h = self.fd.harness
        for rep in range(self.REPEATS):
            for pos, kind in enumerate(self.PATTERN):
                spec = dict(self.PG if kind == "pg" else self.BV)
                uid = f"{kind}-{rep}-{pos}"
                cfg = h.GeneratorConfig(
                    n=spec["n"], m=spec["m"], k=spec["k"], D=spec["D"],
                    value_grid=spec["grid"], seed=self._sub_seed(),
                )
                inst = h.generate_instance(cfg)
                with open(self._path(uid, "instance.json"), "w", encoding="utf-8") as fh:
                    fh.write(self.fd.core.instance_to_json(inst) + "\n")
                self.units.append(Unit(uid, kind, spec))

    def run(self, unit: Unit, tracer=None) -> Outcome:
        out = {s: self._path(unit.uid, s) for s in ("allocation.json", "trace.jsonl", "report.json")}
        argv = [
            "run", "--in", self._path(unit.uid, "instance.json"),
            "--policy", unit.spec["policy"],
            "--out", out["allocation.json"],
            "--trace", out["trace.jsonl"],
            "--report", out["report.json"],
        ]
        t0 = perf_counter()
        rc = self.fd.cli.main(argv)
        t1 = perf_counter()
        digest = sha256_hex("".join(_file_digest(out[s]) for s in sorted(out)).encode())
        report = json.loads(_read(out["report.json"]))
        exact = total = 0
        for run in report["runs"]:
            for agent in run["agents"]:
                total += 1
                exact += agent["ratio_kind"] == "exact"
        return Outcome(t0, t1, unit.spec["m"], digest, rc == 0, exact, total)

    def check(self, unit: Unit, outcome: Outcome) -> list[str]:
        errors = super().check(unit, outcome)
        report = json.loads(_read(self._path(unit.uid, "report.json")))
        alloc = self.fd.core.load_allocation(_read(self._path(unit.uid, "allocation.json")))
        trace_text = _read(self._path(unit.uid, "trace.jsonl"))
        trace = self.fd.allocator.trace_from_jsonl(trace_text, self.N, unit.spec["policy"])
        if len(report["runs"]) != 1 or report["runs"][0]["policy"] != unit.spec["policy"]:
            errors.append(f"{unit.uid}: report does not hold one run of {unit.spec['policy']}")
        elif not all(all(r["checks"].values()) for r in report["runs"]):
            errors.append(f"{unit.uid}: report has a failed check")
        elif list(alloc.assignment) != report["runs"][0]["assignment"]:
            errors.append(f"{unit.uid}: allocation file differs from the report's assignment")
        if trace.allocation() != alloc or trace.m != unit.spec["m"]:
            errors.append(f"{unit.uid}: trace does not replay the allocation")
        if unit.kind == "pg" and not self.fd.allocator.validate_pressure_trace(trace).passed:
            errors.append(f"{unit.uid}: trace fails validate_pressure_trace")
        return errors


# experiment ----------------------------------------------------------------

# Grids and value counts every instance size is crossed with.
_GRID_KS = (
    [("powers-of-two", k, Fraction(8)) for k in (1, 2, 3, 4)]
    + [("uniform-rational", k, Fraction(6)) for k in (1, 2, 3, 4)]
    + [("adversarial-near-threshold", k, Fraction(4)) for k in (1, 2)]
)
# Item counts per agent count. The last is one past the exact-search guard
# (22, 16, 14), so its outcomes are intervals.
_SIZES = {2: (3, 6, 9, 12, 23), 3: (3, 6, 9, 12, 17), 4: (4, 7, 10, 15)}
# The known slow branch-and-bound cases at the guard, as (n, m, grid, k, D),
# each drawn with generator seeds 1, 2 and 3. The run seed only shuffles
# their item order and agent labels. MMS work depends on the value
# multisets alone, so these units cost the same on every seed while their
# allocations and reports still change with it. Drawn afresh per seed, one
# such unit ranges from 0.02 s to 4 s, which would make the workload's speed
# a draw of the seed. There are twelve, more than the ten units beyond the
# tail percentile, so the tail is one of them; the drawn sizes above stay
# below the guard by enough that every drawn unit is cheaper. (Generator
# seed 0 gives the n=2 case a multiset its first incumbent already solves.)
_AT_GUARD = (
    (2, 22, "powers-of-two", 4, Fraction(8)),
    (3, 16, "adversarial-near-threshold", 2, Fraction(4)),
    (3, 16, "powers-of-two", 2, Fraction(2)),
    (4, 14, "uniform-rational", 4, Fraction(6)),
)
_AT_GUARD_SEEDS = (1, 2, 3)


class Experiment(Workload):
    """``harness.run_batch`` with the default four policies, one instance a unit."""

    name = "experiment"

    def setup(self) -> None:
        h = self.fd.harness
        small: list[Unit] = []
        for n, sizes in _SIZES.items():
            for m in sizes:
                for grid, k, D in _GRID_KS:
                    if k > m:
                        continue
                    cfg = h.GeneratorConfig(n=n, m=m, k=k, D=D, value_grid=grid, seed=self._sub_seed())
                    uid = f"n{n}-m{m}-{grid[:3]}-k{k}"
                    small.append(Unit(uid, "drawn", {"instance": h.generate_instance(cfg)}))
        self.rng.shuffle(small)
        guard: list[Unit] = []
        for n, m, grid, k, D in _AT_GUARD:
            for gen_seed in _AT_GUARD_SEEDS:
                cfg = h.GeneratorConfig(n=n, m=m, k=k, D=D, value_grid=grid, seed=gen_seed)
                inst = self._relabel(h.generate_instance(cfg))
                uid = f"guard-n{n}-m{m}-{grid[:3]}-k{k}-{gen_seed}"
                guard.append(Unit(uid, "guard", {"instance": inst}))
        self.rng.shuffle(guard)
        # Spread the slow units evenly through the cycle, after a drawn unit
        # (the warm-up) rather than before it.
        stride = -(-len(small) // len(guard))
        self.units = []
        for i in range(max(len(guard), -(-len(small) // stride))):
            self.units.extend(small[i * stride : (i + 1) * stride])
            self.units.extend(guard[i : i + 1])

    def _relabel(self, inst):
        items = list(inst.items)
        self.rng.shuffle(items)
        agents = list(range(inst.n))
        self.rng.shuffle(agents)
        return self.fd.core.Instance(inst.n, tuple(tuple(d[a] for a in agents) for d in items))

    def run(self, unit: Unit, tracer=None) -> Outcome:
        inst = unit.spec["instance"]
        policies = None
        if tracer is not None:
            # The default four, built by name so their instances can be wrapped.
            policies = [
                tracer.wrap_policy(self.fd.allocator.make_policy(name))
                for name in ("pressure-greedy", "bi-value", "round-robin", "dump-to-one")
            ]
        t0 = perf_counter()
        (report,) = self.fd.harness.run_batch([inst], policies=policies)
        text = report.to_json()
        t1 = perf_counter()
        exact = total = 0
        for run in report.runs:
            for agent in run.agents:
                total += 1
                exact += agent.ratio_kind == "exact"
        return Outcome(t0, t1, inst.m, sha256_hex(text.encode()), report.passed, exact, total)


# adversary -------------------------------------------------------------------

class Adversary(Workload):
    """``fairdiv adversary run`` against the policy zoo, one game a unit.

    n=3 with eps=1 and a budget of 1000 rounds is the criterion-8 shape;
    pressure-greedy, bi-value and round-robin exhaust the budget, so their
    games end in ``certify_ratio`` over huge Fractions. The n=2 games, at
    eps=1/2 and eps=1/3, end within a few rounds with exact-MMS
    certificates.
    """

    name = "adversary"
    BUDGET = 1000

    def setup(self) -> None:
        mixtures = [f"mixture:{self.rng.randrange(1, 10**6)}" for _ in range(5)]
        zoo = ["pressure-greedy", "bi-value", "round-robin", "dump-to-one"] + mixtures
        # The two-agent games end within seven rounds and cost a few ms
        # each, almost all of it the CLI's own work. Playing the zoo at two
        # eps values puts 19 of the 27 units in that cluster, so the median
        # falls inside it rather than on its edge next to the n=3 games.
        n2 = [
            Unit(f"n2-{tag}-{i}", "n2", {"n": 2, "eps": eps, "policy": p})
            for tag, eps in (("half", "1/2"), ("third", "1/3"))
            for i, p in enumerate(zoo)
        ]
        n3 = [Unit(f"n3-{i}", "n3", {"n": 3, "eps": "1", "policy": p}) for i, p in enumerate(zoo)]
        self.units = _interleave([n2[:9], n3, n2[9:]])

    def _outputs(self, uid: str) -> dict[str, str]:
        return {s: self._path(uid, s) for s in ("certificate.json", "instance.json", "allocation.json")}

    def run(self, unit: Unit, tracer=None) -> Outcome:
        out = self._outputs(unit.uid)
        argv = [
            "adversary", "run", "--n", str(unit.spec["n"]), "--eps", unit.spec["eps"],
            "--policy", unit.spec["policy"], "--budget", str(self.BUDGET),
            "--out-certificate", out["certificate.json"],
            "--out-instance", out["instance.json"],
            "--out-allocation", out["allocation.json"],
        ]
        t0 = perf_counter()
        rc = self.fd.cli.main(argv)
        t1 = perf_counter()
        digest = sha256_hex("".join(_file_digest(out[s]) for s in sorted(out)).encode())
        cert = json.loads(_read(out["certificate.json"]))
        if tracer is not None:
            tracer.count("adversary.games.certified", int(cert["certified"]))
            tracer.count("adversary.games.exhausted", int(cert["budget_exhausted"]))
        exact = int(cert["mms_source"] == "exact")
        return Outcome(t0, t1, cert["rounds"], digest, rc == 0, exact, 1)

    def check(self, unit: Unit, outcome: Outcome) -> list[str]:
        errors = super().check(unit, outcome)
        fd = self.fd
        out = self._outputs(unit.uid)
        obj = json.loads(_read(out["certificate.json"]))
        inst = fd.core.load_instance(_read(out["instance.json"]))
        alloc = fd.core.load_allocation(_read(out["allocation.json"]))
        parse = fd.core.parse_rational
        cert = fd.adversary.RatioCertificate(
            agent=obj["agent"],
            d_A=parse(obj["d_A"]),
            mms_upper=parse(obj["mms_upper"]),
            witness=tuple(tuple(b) for b in obj["witness"]),
            mms_source=obj["mms_source"],
            ratio_lower=parse(obj["ratio_lower"]),
        )
        if not (obj["sound"] and fd.adversary.verify_certificate(inst, alloc, cert)):
            errors.append(f"{unit.uid}: certificate does not verify")
        if unit.spec["n"] == 3 and not (obj.get("o1_ok") and obj.get("o2_ok")):
            errors.append(f"{unit.uid}: check_O1_O2 failed")
        if obj["rounds"] != inst.m or obj["certified"] == obj["budget_exhausted"]:
            errors.append(f"{unit.uid}: rounds or end state inconsistent")
        return errors


# grid_sweep --------------------------------------------------------------------

class GridSweep(Workload):
    """Direct ``GridGame`` move sequences in the criterion-2 shape.

    Every move is ``apply_cells(..., need_order=False)`` followed by
    ``integral_is_zero()`` and ``bound_ok(2)``; the moves are drawn in setup.
    """

    name = "grid_sweep"
    SCALE = 720
    MOVES = 200
    PER_SHAPE = 20

    def setup(self) -> None:
        groups = []
        for k in (1, 2, 3):
            for cpu in (2, 3, 4, 6):
                group = []
                for i in range(self.PER_SHAPE):
                    moves = [self._random_move(k * cpu, cpu) for _ in range(self.MOVES)]
                    group.append(Unit(f"k{k}-c{cpu}-{i}", "grid", {"k": k, "cpu": cpu, "moves": moves}))
                groups.append(group)
        self.units = _interleave(groups)

    def _random_move(self, q: int, cpu: int):
        """One move: a and b with a*|B| cells = b*|A| cells, on random cells."""
        rng = self.rng
        cells_a = rng.randint(1, cpu - 1)
        cells_b = cpu - cells_a
        tmax = min(Fraction(1, max(cells_a, cells_b)), Fraction(2, cpu))
        den = rng.choice([1, 2, 3, 4, 5, 6])
        num = max(1, int(tmax * den * rng.random()))
        t = min(Fraction(num, den), tmax)
        chosen = sorted(rng.sample(range(q), cpu))
        return cells_b * t, cells_a * t, chosen[:cells_a], chosen[cells_a:]

    def run(self, unit: Unit, tracer=None) -> Outcome:
        spec = unit.spec
        beta = Fraction(2)
        t0 = perf_counter()
        game = self.fd.stacking.GridGame(k=spec["k"], cells_per_unit=spec["cpu"], scale=self.SCALE)
        if tracer is not None:
            tracer.wrap_grid_game(game)
        zero, bound = [], []
        for a, b, a_cells, b_cells in spec["moves"]:
            game.apply_cells(a, b, a_cells, b_cells, need_order=False)
            zero.append(game.integral_is_zero())
            bound.append(game.bound_ok(beta))
        t1 = perf_counter()
        digest = sha256_hex(json.dumps([game.values, bound]).encode())
        return Outcome(t0, t1, len(spec["moves"]), digest, all(zero) and all(bound))


WORKLOADS = {w.name: w for w in (Stream, Experiment, Adversary, GridSweep)}
