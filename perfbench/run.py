"""fairdiv benchmark: seeded closed-loop workloads with checked outputs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # each workload in a fresh process
    python3 perfbench/run.py --workload experiment --record-golden

One caller runs one unit at a time and waits for it (a closed loop); no
threads or worker processes are used. With ``--trace 0`` the run sets up
three times (median reported as ``setup_s``), then measures the whole
number of cycles of units nearest to ``--seconds`` seconds. With ``--trace 1`` it sets up once under tracing,
measures half the time untraced and half traced, and reports per-layer
spans and counters plus the tracing overhead. Either way every output is
checked: against ``golden.json`` at the default seed, against the
program's own invariants at any other seed. The last line of standard
output is one JSON object; the exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 1
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def import_fairdiv():
    """Import fairdiv from the checkout's sources, afresh."""
    from tracer import MODULES

    for name in [n for n in sys.modules if n == "fairdiv" or n.startswith("fairdiv.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    modules = {m: importlib.import_module(f"fairdiv.{m}") for m in MODULES}
    return argparse.Namespace(**modules)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# timed phase and checks ----------------------------------------------------------

def timed_phase(workload, seconds: float, tracer=None) -> list:
    """Run whole cycles for about ``seconds``; one record per unit run.

    Stopping only at the end of a cycle keeps the mix of units the same in
    every run, whatever the speed of the machine. Another cycle starts only
    while more than half a cycle of the time is left, so a run measures the
    whole number of cycles nearest to ``seconds`` (at least one).
    """
    execs = []
    start = perf_counter()
    while True:
        cycle_start = perf_counter()
        for unit in workload.units:
            if tracer is not None:
                tracer.unit = len(execs)
            try:
                execs.append((unit, workload.run(unit, tracer), None))
            except Exception as exc:  # a unit that raises is a failed unit, not a crash
                execs.append((unit, None, f"{unit.uid}: {type(exc).__name__}: {exc}"))
        now = perf_counter()
        if seconds - (now - start) < (now - cycle_start) / 2:
            return execs


def judge(workload, execs, golden: dict | None) -> tuple[int, list[str]]:
    """Count failed unit runs and say why; every distinct unit is checked once."""
    errors: list[str] = []
    last = {}
    first_digest = {}
    for unit, out, err in execs:
        if out is not None:
            last[unit.uid] = (unit, out)
            first_digest.setdefault(unit.uid, out.digest)
    bad = set()
    for uid, (unit, out) in last.items():
        try:
            problems = workload.check(unit, out)
        except Exception as exc:
            problems = [f"{uid}: check raised {type(exc).__name__}: {exc}"]
        if golden is not None and golden.get(uid) != out.digest:
            problems.append(f"{uid}: output digest differs from golden.json")
        if problems:
            bad.add(uid)
            errors.extend(problems)
    failed = 0
    for unit, out, err in execs:
        if out is None:
            errors.append(err)
            failed += 1
        elif unit.uid in bad or not out.ok or out.digest != first_digest[unit.uid]:
            if out.digest != first_digest[unit.uid]:
                errors.append(f"{unit.uid}: output changed between runs of the same unit")
            failed += 1
    return failed, errors


def end_to_end(execs, setups, failed: int, rss: float, seconds) -> dict:
    """All seven end-to-end metrics, as (value, unit, samples, note).

    ``setups`` holds (start, end) readings of each set-up; ``seconds(t0, t1)``
    turns two ``perf_counter`` readings into the duration the metrics use.
    """
    done = [out for _, out, _ in execs if out is not None]
    steps = sum(out.steps for out in done)
    busy = sum(seconds(out.start, out.end) for out in done)
    # Percentiles are taken over the distinct units, each at the median of
    # its runs, so they cover the same units however many cycles a run held.
    per_unit: dict[str, list[float]] = {}
    for unit, out, _ in execs:
        if out is not None:
            per_unit.setdefault(unit.uid, []).append(seconds(out.start, out.end))
    lat = sorted(statistics.median(v) for v in per_unit.values())
    if len(lat) > TAIL_BEYOND:
        tail = lat[-TAIL_BEYOND - 1]
        tail_note = f"p{100 * (len(lat) - TAIL_BEYOND) / len(lat):.1f}, {TAIL_BEYOND} units beyond"
    else:
        tail = lat[-1] if lat else 0.0
        tail_note = f"max; fewer than {TAIL_BEYOND + 1} units"
    first = {}
    for unit, out, _ in execs:
        if out is not None:
            first.setdefault(unit.uid, out)
    outcomes = sum(o.outcomes for o in first.values())
    exact = sum(o.exact for o in first.values())
    setup = [seconds(t0, t1) for t0, t1 in setups]
    return {
        "setup_s": (statistics.median(setup) if setup else None, "s", len(setup), "median of set-ups"),
        "steps_per_s": (steps / busy if busy else 0.0, "1/s", steps, "steps over unit time"),
        "unit_ms_p50": (1000 * statistics.median(lat) if lat else 0.0, "ms", len(lat), "distinct units"),
        "unit_ms_tail": (1000 * tail, "ms", len(lat), tail_note),
        "peak_rss_mib": (rss, "MiB", 1, "ru_maxrss of this process"),
        "exact_share": (exact / outcomes if outcomes else None, "share", outcomes, "distinct units"),
        "error_rate": (failed / len(execs) if execs else 0.0, "share", len(execs), "failed / attempted"),
    }


def _wall(t0: float, t1: float) -> float:
    return t1 - t0


# one workload, in this process ------------------------------------------------------

def load_golden(workload_name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload_name, {})


def run_workload(args) -> int:
    import hostclock
    from tracer import Tracer, SPAN_NAMES
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    cls = WORKLOADS[args.workload]
    golden = load_golden(args.workload, args.seed)
    workdirs = []

    def fresh_workdir() -> str:
        path = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
        workdirs.append(path)
        return path

    clock = hostclock.HostClock()
    try:
        setups = []
        tracer = None
        clock.start()
        if args.trace:
            fd = import_fairdiv()
            tracer = Tracer(fd)
            tracer.install()
            workload = cls(fd, args.seed, fresh_workdir())
            workload.setup()
            workload.run(workload.units[0], tracer)
            tracer.remove()
            untraced = timed_phase(workload, args.seconds / 2)
            tracer.install()
            traced = timed_phase(workload, args.seconds / 2, tracer)
            tracer.remove()
            execs = untraced + traced
        else:
            for _ in range(SETUP_REPEATS):
                workdir = fresh_workdir()
                t0 = perf_counter()
                fd = import_fairdiv()
                workload = cls(fd, args.seed, workdir)
                workload.setup()
                workload.run(workload.units[0])  # untimed warm-up unit
                setups.append((t0, perf_counter()))
            for stale in workdirs[:-1]:
                shutil.rmtree(stale, ignore_errors=True)
            execs = timed_phase(workload, args.seconds)
        clock.stop()
        rss = peak_rss_mib()
        failed, errors = judge(workload, execs, golden)
        e2e = end_to_end(execs, setups, failed, rss, clock.reference_seconds)
        wall = end_to_end(execs, setups, failed, rss, _wall)
        env = environment()
        env["kernel_ms"] = 1000 * clock.mean_kernel_s()
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
              f"python={env['python']} commit={env['commit']} nproc={env['nproc']} cpu={env['cpu']!r}")
        print(f"# times in reference seconds (calibration kernel {hostclock.REFERENCE * 1000:g} ms; "
              f"it took {env['kernel_ms']:.3f} ms on average here); wall-clock figures in brackets")
        for name, (value, unit, samples, note) in e2e.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            raw = f"[{wall[name][0]:.6g}]" if value is not None and unit in ("s", "ms", "1/s") else ""
            print(f"{name:14s} {shown:>12s} {raw:>14s} {unit:6s} n={samples:<8d} {note}")
        for message in errors[:20]:
            print(f"FAIL {message}")

        if args.trace:
            layers = tracer.layer_metrics()
            sps_untraced = end_to_end(untraced, [], 0, rss, clock.reference_seconds)["steps_per_s"][0]
            sps_traced = end_to_end(traced, [], 0, rss, clock.reference_seconds)["steps_per_s"][0]
            layers["trace.steps_per_s_untraced"] = (sps_untraced, "1/s")
            layers["trace.steps_per_s_traced"] = (sps_traced, "1/s")
            layers["trace.overhead"] = (sps_untraced / sps_traced if sps_traced else 0.0, "ratio")
            layers["trace.spans"] = (len(tracer.spans), "count")
            layers["outcome.exact_share"] = (e2e["exact_share"][0] or 0.0, "share")
            layers["outcome.error_rate"] = (e2e["error_rate"][0], "share")
            for name in SPAN_NAMES:
                if layers[f"{name}.calls"][0]:
                    print(f"  {name:40s} calls={layers[name + '.calls'][0]:<9d} self_s={layers[name + '.s'][0]:.4f}")
            print(f"  tracing overhead: untraced/traced steps_per_s = {layers['trace.overhead'][0]:.3f}")
            tracer.write_spans(os.path.join(OUT_DIR, f"spans-{tag}.tsv"))
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        else:
            reported = ("setup_s", "steps_per_s", "unit_ms_p50", "unit_ms_tail", "peak_rss_mib")
            metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in reported}

        correct = failed == 0 and not errors
        result = {"correct": correct, "attempted": len(execs), "failed": failed, "metrics": metrics}
        with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
            units = [[unit.uid, out.start, out.end, clock.reference_seconds(out.start, out.end)]
                     for unit, out, _ in execs if out is not None]
            json.dump({"environment": env, "args": vars(args), "end_to_end": e2e, "wall_clock": wall,
                       **result, "units_start_end_reference": units,
                       "kernel_start_duration": clock.samples()}, fh)
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        if clock.running:
            clock.stop()
        for path in workdirs:
            shutil.rmtree(path, ignore_errors=True)


def record_golden(args) -> int:
    """Run every unit of the cycle once at the default seed and store its digest."""
    from workloads import WORKLOADS

    if args.seed != DEFAULT_SEED:
        print(f"error: golden digests are recorded at the default seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-golden-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](import_fairdiv(), args.seed, workdir)
        workload.setup()
        execs = [(unit, workload.run(unit), None) for unit in workload.units]
        failed, errors = judge(workload, execs, None)
        if failed or errors:
            for message in errors:
                print(f"FAIL {message}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    data = {"default_seed": DEFAULT_SEED, "workloads": {}}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            data = json.load(fh)
    data["workloads"][args.workload] = {unit.uid: out.digest for unit, out, _ in execs}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(execs)} digests for {args.workload}")
    return 0


# every workload, each in a fresh process -----------------------------------------------

def run_all(args) -> int:
    from workloads import WORKLOADS

    merged = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAIL {name}: exited {proc.returncode} without a result")
            correct = False
            continue
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store output digests of every unit at the default seed")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "fairdiv", "__init__.py")):
        print(f"error: no fairdiv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.record_golden:
        return record_golden(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
