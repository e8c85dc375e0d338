"""The benchmark's tracer installs on the library and counts work done once.

``perfbench/tracer.py`` swaps names in the fairdiv modules that call them, so
it breaks when a patched name disappears. These tests install it on a fresh
import of fairdiv, as ``perfbench/run.py`` does, and check that an experiment
searches each agent's MMS once, that ``fairdiv run`` runs its policy once,
asking it for pressure rows once per item, and replays its trace once (the
reduction's, with no separate validation), that past the search guard the
built-in witnesses are not re-summed, that the two-agent game searches
only the agent it certifies, and that a bi-value run which falls back still
calls its policy once per item and records rows on that step only.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import random
import sys

import pytest

from conftest import random_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fresh_fairdiv():
    """A namespace of freshly imported fairdiv modules; the old ones come back after."""
    tracer = _load_tracer()

    def ours(name):
        return name == "fairdiv" or name.startswith("fairdiv.")

    saved = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        modules = {m: importlib.import_module(f"fairdiv.{m}") for m in tracer.MODULES}
        yield tracer, type("Fairdiv", (), modules)
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def _traced(tracer_module, fd, fn) -> dict:
    tracer = tracer_module.Tracer(fd)
    tracer.install()
    try:
        fn()
    finally:
        tracer.remove()
    return {name: value for name, (value, _) in tracer.layer_metrics().items()}


def test_experiment_searches_each_agent_mms_once(fresh_fairdiv):
    tracer, fd = fresh_fairdiv
    inst = random_instance(random.Random(5), n=3, m=8, k=2)
    inst = fd.core.Instance(inst.n, inst.items)
    assert inst.m <= fd.mms.exact_search_limit(inst.n)
    metrics = _traced(tracer, fd, lambda: fd.harness.run_experiment(inst))
    assert metrics["harness.run_experiment.calls"] == 1
    assert metrics["allocator.run_online.calls"] == 4
    assert metrics["mms.mms_exact.calls"] == 3
    assert metrics["mms.mms_exact.useful_ratio"] == 1.0


def test_cli_run_runs_its_policy_once(fresh_fairdiv, tmp_path):
    tracer, fd = fresh_fairdiv
    inst = random_instance(random.Random(6), n=3, m=8, k=2)
    path = tmp_path / "instance.json"
    path.write_text(fd.core.instance_to_json(fd.core.Instance(inst.n, inst.items)) + "\n")
    codes = []
    argv = ["run", "--in", str(path), "--trace", str(tmp_path / "trace.jsonl"),
            "--report", str(tmp_path / "report.json")]
    metrics = _traced(tracer, fd, lambda: codes.append(fd.cli.main(argv)))
    assert codes == [0]
    assert metrics["cli.main.calls"] == 1
    assert metrics["allocator.run_online.calls"] == 1
    assert metrics["allocator.RunTrace.to_jsonl.calls"] == 1
    # the run asks for rows once per item; pressure-greedy records none, and
    # the trace file's rows are rebuilt by a replay when it is written
    assert metrics["allocator.Policy.pressure_snapshot.calls"] == inst.m
    trace = fd.allocator.trace_from_jsonl((tmp_path / "trace.jsonl").read_text(), inst.n)
    assert all(s.pressures is not None for s in trace.steps)
    _, run = fd.allocator.run_online(fd.core.Instance(inst.n, inst.items), fd.allocator.PressureGreedyPolicy())
    assert all(s.pressures is None for s in run.steps)


def test_cli_run_past_the_guard_sums_no_witness(fresh_fairdiv, tmp_path):
    tracer, fd = fresh_fairdiv
    inst = random_instance(random.Random(7), n=3, m=17, k=3)
    assert inst.m > fd.mms.exact_search_limit(inst.n)
    path = tmp_path / "instance.json"
    path.write_text(fd.core.instance_to_json(fd.core.Instance(inst.n, inst.items)) + "\n")
    codes = []
    argv = ["run", "--in", str(path), "--report", str(tmp_path / "report.json")]
    metrics = _traced(tracer, fd, lambda: codes.append(fd.cli.main(argv)))
    assert codes == [0]
    assert metrics["mms.mms_exact.calls"] == 3
    assert metrics["mms.mms_exact.refused"] == 3
    assert metrics["mms.witness_max_bundle.calls"] == 0


def test_cli_run_counts_one_reduction_step_per_item(fresh_fairdiv, tmp_path):
    tracer, fd = fresh_fairdiv
    inst = random_instance(random.Random(8), n=4, m=30, k=3)
    path = tmp_path / "instance.json"
    path.write_text(fd.core.instance_to_json(fd.core.Instance(inst.n, inst.items)) + "\n")
    codes = []
    argv = ["run", "--in", str(path), "--policy", "pressure-greedy",
            "--report", str(tmp_path / "report.json")]
    metrics = _traced(tracer, fd, lambda: codes.append(fd.cli.main(argv)))
    assert codes == [0]
    assert metrics["stacking.allocator_to_stacking.calls"] == 1
    assert metrics["stacking.allocator_to_stacking.steps"] == inst.m
    # the reduction's replay also checks the trace: validation runs only after a failed reduction
    assert metrics["allocator.validate_pressure_trace.calls"] == 0


def test_cli_two_agent_game_searches_only_the_certified_agent(fresh_fairdiv):
    tracer, fd = fresh_fairdiv
    codes = []
    metrics = _traced(tracer, fd, lambda: codes.append(fd.cli.main(["adversary", "run", "--n", "2"])))
    assert codes == [0]
    assert metrics["mms.mms_exact.calls"] == 1
    # the split witness, then verify_certificate
    assert metrics["mms.witness_max_bundle.calls"] == 2


def test_cli_bi_value_fallback_chooses_once_per_item(fresh_fairdiv, tmp_path):
    # the fallback replays the history on the pressure engine, not through choose
    tracer, fd = fresh_fairdiv
    inst = random_instance(random.Random(9), n=3, m=14, k=3)
    inst = fd.core.Instance(inst.n, inst.items)
    assert fd.core.instance_stats(inst).k == 3  # a third value: the policy falls back
    path = tmp_path / "instance.json"
    path.write_text(fd.core.instance_to_json(inst) + "\n")
    codes = []
    argv = ["run", "--in", str(path), "--policy", "bi-value", "--report", str(tmp_path / "report.json")]
    metrics = _traced(tracer, fd, lambda: codes.append(fd.cli.main(argv)))
    assert codes == [0]
    assert metrics["allocator.Policy.choose.calls"] == inst.m
    assert metrics["allocator.Policy.pressure_snapshot.calls"] == inst.m
    # only the fallback step records rows: a replay of the trace cannot rebuild them
    policy = fd.allocator.BiValuePolicy()
    _, run = fd.allocator.run_online(inst, policy)
    assert policy.fell_back and sum(s.pressures is not None for s in run.steps) == 1
