"""Command-line interface.

Subcommands: ``gen`` (random instances), ``run`` (online policies with bound
checks), ``mms`` (exact values/bounds report), ``adversary run`` (adaptive
lower-bound games), ``stacking replay`` (re-verify a stacking trace file).

Exit codes: 0 all checks pass, 1 a theoretical-bound check failed, 2 usage
error.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import stat
import sys

from .adversary import (
    check_O1_O2,
    make_recursive_adversary,
    mms_report,
    play_game,
    TwoAgentAdversary,
    verify_certificate,
)
from .allocator import RunTrace, make_policy, run_online  # run_online: patched here by perfbench/tracer.py
from .core import (
    FairdivError,
    allocation_to_json,
    instance_json_parts,
    load_instance,
    parse_rational,
)
from .harness import GRID_NAMES, GeneratorConfig, generate_instance, run_experiment
from .mms import mms_report_to_obj
from .stacking import replay_stacking_trace


def _read(path: str) -> bytes:
    """The raw bytes of a file (or stdin); the loaders decode them."""
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


_BUFFER = 1 << 16  # a file's write buffer: with the default 8 KiB a 3.7 MB instance took 1.8 times as long


def _write(path: str, parts: list[bytes]) -> None:
    """Write ``parts`` (UTF-8 bytes cut at character boundaries, never joined)
    through a buffered file stream, or stdout's text layer for ``-``. A file is
    created (mode 0o666 less the umask) or overwritten in place, then cut to the
    new length if it is a regular file that was longer: truncating on open would
    make ext4 flush the file on close. There is no fsync, so after a crash a
    rewritten file may hold its old bytes."""
    if path == "-":
        sys.stdout.writelines(map(bytes.decode, parts))
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_CLOEXEC, 0o666), "wb", buffering=_BUFFER) as fh:
        fh.writelines(parts)
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size > fh.tell():
            fh.truncate()


def cmd_gen(args) -> int:
    cfg = GeneratorConfig(
        n=args.n,
        m=args.m,
        k=args.k,
        D=parse_rational(args.D),
        value_grid=args.grid,
        seed=args.seed,
    )
    parts = instance_json_parts(generate_instance(cfg))
    parts.append(b"\n")  # not `+ [b"\n"]`, which copies the n*m + 2 parts
    _write(args.out, parts)
    return 0


def cmd_run(args) -> int:
    """Run one policy, once, inside ``run_experiment``; ``--out`` and ``--trace``
    write that run's allocation and trace (empty for an empty instance, which has no run)."""
    inst = load_instance(_read(args.infile))
    policy = make_policy(args.policy)
    report = run_experiment(inst, policies=[policy])
    trace = report.runs[0].trace if report.runs else RunTrace(n=inst.n, policy=policy.name)
    alloc = report.runs[0].allocation if report.runs else trace.allocation()
    if args.out:
        _write(args.out, [allocation_to_json(alloc).encode(), b"\n"])
    if args.trace:
        _write(args.trace, [trace.to_jsonl().encode()])
    text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
    _write(args.report or "-", [text.encode()])
    return 0 if report.passed else 1


def cmd_mms(args) -> int:
    inst = load_instance(_read(args.infile))
    obj = mms_report_to_obj(mms_report(inst))
    _write(args.out, [json.dumps(obj, sort_keys=True, separators=(",", ":")).encode(), b"\n"])
    return 0


def cmd_adversary_run(args) -> int:
    if args.n < 2:
        raise FairdivError(f"--n must be at least 2, got {args.n}")
    if args.budget < 1:
        raise FairdivError(f"--budget must be at least 1, got {args.budget}")
    eps = parse_rational(args.eps)
    policy = make_policy(args.policy)
    try:
        if args.n == 2:
            adv = TwoAgentAdversary(eps)
        else:
            adv = make_recursive_adversary(args.n, eps, pin_horizon=args.budget)
        result = play_game(adv, policy, budget=args.budget)
    except RecursionError:  # the recursive game nests one adversary level per agent
        raise FairdivError(f"--n {args.n} nests the recursive game too deep to run") from None
    ok = verify_certificate(result.instance, result.allocation, result.certificate)
    if args.out_instance:
        parts = instance_json_parts(result.instance)
        parts.append(b"\n")
        _write(args.out_instance, parts)
    if args.out_allocation:
        _write(args.out_allocation, [allocation_to_json(result.allocation).encode(), b"\n"])
    cert_obj = result.certificate.to_obj()
    cert_obj["certified"] = result.certified
    cert_obj["budget_exhausted"] = result.budget_exhausted
    cert_obj["rounds"] = result.rounds
    cert_obj["sound"] = ok
    if result.record is not None:
        o1o2 = check_O1_O2(result.record)
        cert_obj["o1_ok"] = o1o2.o1_ok
        cert_obj["o2_ok"] = o1o2.o2_ok
        ok = ok and o1o2.o1_ok and o1o2.o2_ok
    _write(args.out_certificate, [json.dumps(cert_obj, sort_keys=True, separators=(",", ":")).encode(), b"\n"])
    return 0 if ok else 1


def cmd_stacking_replay(args) -> int:
    report = replay_stacking_trace(_read(args.infile))
    summary = {"steps": report.steps, "passed": report.passed, "failures": list(report.failures)}
    _write("-", [json.dumps(summary, sort_keys=True, separators=(",", ":")).encode(), b"\n"])
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairdiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--D", default="1", help='max value spread, "p" or "p/q"')
    p.add_argument("--grid", default=GRID_NAMES[0], choices=GRID_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("run", help="run an online policy over an instance file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--policy", default="pressure-greedy")
    p.add_argument("--out", help="allocation file")
    p.add_argument("--trace", help="JSONL trace file")
    p.add_argument("--report", help="experiment report file")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("mms", help="exact MMS / certified bounds per agent")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_mms)

    adv = sub.add_parser("adversary", help="adaptive lower-bound games")
    advsub = adv.add_subparsers(dest="subcommand", required=True)
    p = advsub.add_parser("run", help="play an adversary against a policy")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--eps", default="1/2")
    p.add_argument("--policy", default="pressure-greedy")
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--out-instance")
    p.add_argument("--out-allocation")
    p.add_argument("--out-certificate", default="-")
    p.set_defaults(fn=cmd_adversary_run)

    st = sub.add_parser("stacking", help="stacking-game utilities")
    stsub = st.add_subparsers(dest="subcommand", required=True)
    p = stsub.add_parser("replay", help="re-verify a stacking trace file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_stacking_replay)

    return parser


_parser = functools.cache(build_parser)  # one parser per process: building it costs more than a small run


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # no command leaves a reference cycle (argparse's formatter does: it parses first), so none is collected
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except (FairdivError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
