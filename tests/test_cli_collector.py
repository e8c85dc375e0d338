"""No `fairdiv` command leaves a reference cycle behind, so `cli.main` runs
each one with the cyclic collector paused, and leaves the caller's setting
as it found it."""

import gc
from collections import Counter

import pytest

from fairdiv import cli
from fairdiv.allocator import PressureGreedyPolicy, run_online
from fairdiv.cli import main
from fairdiv.core import FairdivError, load_instance
from fairdiv.mms import exact_search_limit
from fairdiv.stacking import allocator_to_stacking, stacking_trace_to_jsonl

POLICIES = ("pressure-greedy", "bi-value", "round-robin", "dump-to-one", "mixture:3")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """An instance inside the exact search's guard and one past it, and a stacking trace."""
    d = tmp_path_factory.mktemp("collector")
    for name, m in (("inside", 12), ("past", exact_search_limit(3) + 1)):
        assert main(["gen", "--n", "3", "--m", str(m), "--k", "2", "--D", "4", "--seed", "7",
                     "--out", str(d / f"{name}.json")]) == 0
    _, trace = run_online(load_instance((d / "inside.json").read_bytes()), PressureGreedyPolicy())
    (d / "stacking.jsonl").write_text(stacking_trace_to_jsonl(allocator_to_stacking(trace)))
    (d / "bad.json").write_text('{"n": 2, "items": [["1"]]}')
    return d


def _commands():
    """(id, argv, exit code) for each command of the sweep; ``{d}`` is the work directory."""
    yield "gen", ["gen", "--n", "4", "--m", "30", "--k", "3", "--D", "8", "--seed", "3", "--out", "{d}/out.json"], 0
    for policy in POLICIES:
        for inst in ("inside", "past"):
            for fmt in ("json", "csv"):
                yield f"run-{policy}-{inst}-{fmt}", [
                    "run", "--in", f"{{d}}/{inst}.json", "--policy", policy, "--format", fmt,
                    "--out", "{d}/alloc.json", "--trace", "{d}/trace.jsonl", "--report", "{d}/report.out"], 0
    for inst in ("inside", "past"):
        yield f"mms-{inst}", ["mms", "--in", f"{{d}}/{inst}.json", "--out", "{d}/out.json"], 0
    game = ["adversary", "run", "--out-certificate", "{d}/cert.json",
            "--out-instance", "{d}/game.json", "--out-allocation", "{d}/game_alloc.json"]
    yield "adversary-n2-eps1/2", game + ["--n", "2", "--eps", "1/2"], 0
    yield "adversary-n2-eps1/10", game + ["--n", "2", "--eps", "1/10"], 0
    yield "adversary-n3-certified", game + ["--n", "3", "--eps", "1", "--policy", "dump-to-one"], 0
    yield "adversary-n3-exhausted", game + ["--n", "3", "--eps", "1", "--policy", "round-robin", "--budget", "60"], 0
    # its certificate's numbers pass the interpreter's 4300-digit int/str limit
    yield "adversary-n4-budget120", game + ["--n", "4", "--eps", "1", "--policy", "round-robin", "--budget", "120"], 0
    yield "stacking-replay", ["stacking", "replay", "--in", "{d}/stacking.jsonl"], 0
    yield "error-missing-file", ["run", "--in", "{d}/missing.json"], 2
    yield "error-malformed-instance", ["mms", "--in", "{d}/bad.json"], 2
    yield "error-unknown-policy", ["run", "--in", "{d}/inside.json", "--policy", "nope"], 2
    yield "error-mixture-seed", ["adversary", "run", "--policy", "mixture:x"], 2
    yield "error-one-agent", ["adversary", "run", "--n", "1"], 2
    yield "error-zero-budget", ["adversary", "run", "--budget", "0"], 2


@pytest.mark.parametrize("name, argv, code", list(_commands()), ids=[name for name, _, _ in _commands()])
def test_command_leaves_no_cyclic_garbage(workdir, name, argv, code, capsys):
    # argparse's help formatter is a reference cycle, so usage errors, which
    # are found before the command runs, are not in the sweep
    argv = [arg.format(d=workdir) for arg in argv]
    assert main(argv) == code  # the first run builds what a process builds once
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == code
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == 0, f"{found} objects in reference cycles: {dict(kinds.most_common())}"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_callers_collector_setting(workdir, enabled, capsys):
    commands = (
        (["gen", "--n", "2", "--m", "3", "--out", "-"], 0),
        (["mms", "--in", str(workdir / "inside.json"), "--out", "-"], 0),
        (["stacking", "replay", "--in", str(workdir / "broken.jsonl")], 1),
        (["run", "--in", str(workdir / "missing.json")], 2),
        (["run", "--policy", "pressure-greedy"], 2),  # a usage error, found by argparse
        (["--help"], 0),
        (["adversary", "run", "--help"], 0),
    )
    broken = (workdir / "stacking.jsonl").read_text().replace('"-1/2"', '"-1/3"', 1)
    (workdir / "broken.jsonl").write_text(broken)
    was = gc.isenabled()
    try:
        for argv, code in commands:
            (gc.enable if enabled else gc.disable)()
            assert main(argv) == code, argv
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()


def test_the_command_runs_with_the_collector_paused(workdir, monkeypatch, capsys):
    seen = []

    def make_policy(name):
        seen.append(gc.isenabled())
        if name == "raise-fairdiv":
            raise FairdivError("refused")
        if name == "raise-other":
            raise RuntimeError("unexpected")
        return original(name)

    original = cli.make_policy
    monkeypatch.setattr(cli, "make_policy", make_policy)
    assert gc.isenabled()
    run = ["run", "--in", str(workdir / "inside.json"), "--report", str(workdir / "report.out")]
    assert main(run) == 0
    assert main(run[:3] + ["--policy", "raise-fairdiv"]) == 2
    with pytest.raises(RuntimeError, match="unexpected"):
        main(run[:3] + ["--policy", "raise-other"])
    assert seen == [False, False, False] and gc.isenabled()
