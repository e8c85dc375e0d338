import json
import random
from fractions import Fraction

import pytest

from fairdiv import (
    FairdivError,
    GeneratorConfig,
    Instance,
    generate_instance,
    instance_digest,
    instance_stats,
    instance_to_json,
    leq_two_plus_sqrt3,
    load_instance,
    parse_rational,
    run_experiment,
)
from fairdiv.cli import main
from fairdiv.mms import exact_search_limit, witness_max_bundle
from fairdiv.harness import NEAR_THRESHOLD_ABOVE, NEAR_THRESHOLD_BELOW, policy_zoo

F = Fraction


def test_generator_deterministic():
    cfg = GeneratorConfig(n=3, m=10, k=2, D=F(8), value_grid="powers-of-two", seed=42)
    assert instance_to_json(generate_instance(cfg)) == instance_to_json(generate_instance(cfg))


def test_generator_respects_k_and_D():
    for grid in ("powers-of-two", "uniform-rational"):
        for seed in range(5):
            cfg = GeneratorConfig(n=4, m=12, k=3, D=F(8), value_grid=grid, seed=seed)
            inst = generate_instance(cfg)
            stats = instance_stats(inst)
            assert stats.D <= 8
            for i in range(1, 5):
                assert len(set(inst.agent_values(i))) == 3


def test_generator_single_valued():
    inst = generate_instance(GeneratorConfig(n=2, m=6, k=1, D=F(1), seed=3))
    s = instance_stats(inst)
    assert s.k == 1 and s.D == 1


def test_generator_infeasible_configs():
    with pytest.raises(FairdivError):
        generate_instance(GeneratorConfig(n=2, m=8, k=4, D=F(4), seed=0))  # needs 2^3 <= 4
    with pytest.raises(FairdivError):
        generate_instance(GeneratorConfig(n=2, m=2, k=3, D=F(8), seed=0))  # m < k
    with pytest.raises(FairdivError):
        generate_instance(
            GeneratorConfig(n=2, m=8, k=2, D=F(2), value_grid="adversarial-near-threshold", seed=0)
        )


def test_near_threshold_pairs_straddle():
    # exact comparison against (sqrt(3)-1)/2: r above iff (2r+1)^2 > 3
    for r in NEAR_THRESHOLD_BELOW:
        assert (2 * r + 1) ** 2 < 3
    for r in NEAR_THRESHOLD_ABOVE:
        assert (2 * r + 1) ** 2 > 3


def test_near_threshold_generator_hits_both_cases():
    merged = split = False
    for seed in range(20):
        cfg = GeneratorConfig(n=2, m=6, k=2, D=F(4), value_grid="adversarial-near-threshold", seed=seed)
        inst = generate_instance(cfg)
        vals = sorted(set(inst.agent_values(1)))
        r = vals[0] / vals[1]
        if (2 * r + 1) ** 2 > 3:
            merged = True
        else:
            split = True
    assert merged and split


def test_symbolic_sqrt3_comparison():
    assert leq_two_plus_sqrt3(F(0), F(1))
    assert leq_two_plus_sqrt3(F(373, 100), F(1))       # 3.73 < 2+sqrt(3)
    assert not leq_two_plus_sqrt3(F(374, 100), F(1))   # 3.74 > 2+sqrt(3)
    assert leq_two_plus_sqrt3(F(2), F(1))


def test_run_experiment_single_type():
    inst = Instance(3, tuple(((F(1), F(1), F(1)),) * 9))
    report = run_experiment(inst)
    assert report.passed
    by_policy = {r.policy: r for r in report.runs}
    for name in ("pressure-greedy", "round-robin"):
        assert all(a.ratio == 1 for a in by_policy[name].agents)
    dump = by_policy["dump-to-one"]
    assert max(a.ratio for a in dump.agents) <= 3
    assert by_policy["pressure-greedy"].checks["stacking-consistency"]


def test_run_experiment_deterministic():
    inst = generate_instance(GeneratorConfig(n=3, m=10, k=2, D=F(4), seed=9))
    assert run_experiment(inst).to_json() == run_experiment(inst).to_json()


def test_run_experiment_bi_valued():
    inst = generate_instance(
        GeneratorConfig(n=3, m=12, k=2, D=F(4), value_grid="adversarial-near-threshold", seed=1)
    )
    report = run_experiment(inst)
    assert report.passed
    bi = next(r for r in report.runs if r.policy == "bi-value")
    assert bi.checks["ratio-bound-2+sqrt3"]
    assert bi.checks["bi-value-pressure"]


def test_report_serialization():
    inst = Instance(2, ((F(1), F(1)), (F(2), F(2))))
    report = run_experiment(inst)
    obj = json.loads(report.to_json())
    assert obj["n"] == 2 and len(obj["runs"]) == 4
    csv = report.to_csv()
    assert csv.startswith("instance,policy,agent")
    assert str(len(csv.splitlines())) and "exact" in csv


def test_run_experiment_intervals_when_exact_infeasible():
    # m = 20 with n = 3 exceeds the exact-search guard: ratios become
    # certified intervals, never a bare exact number
    inst = generate_instance(GeneratorConfig(n=3, m=20, k=3, D=F(8), seed=4))
    report = run_experiment(inst)
    for run in report.runs:
        for a in run.agents:
            assert a.ratio_kind == "interval"
            assert a.ratio_low <= a.ratio_high
    assert "interval" in report.to_csv()


def test_run_batch_is_digest_sorted():
    from fairdiv.harness import run_batch

    instances = [
        generate_instance(GeneratorConfig(n=2, m=5, k=2, D=F(4), seed=s)) for s in range(4)
    ]
    a = run_batch(instances, policies=None)
    b = run_batch(list(reversed(instances)), policies=None)
    assert [r.digest for r in a] == [r.digest for r in b] == sorted(r.digest for r in a)


def test_policy_zoo_composition():
    zoo = policy_zoo()
    names = [p.name for p in zoo]
    assert names[:4] == ["pressure-greedy", "bi-value", "round-robin", "dump-to-one"]
    assert len([n for n in names if n.startswith("mixture-")]) == 5


# CLI ------------------------------------------------------------------------

def test_cli_gen_run_mms_roundtrip(tmp_path):
    inst_path = tmp_path / "inst.json"
    alloc_path = tmp_path / "alloc.json"
    trace_path = tmp_path / "trace.jsonl"
    report_path = tmp_path / "report.json"
    assert main([
        "gen", "--n", "3", "--m", "9", "--k", "2", "--D", "4",
        "--grid", "powers-of-two", "--seed", "7", "--out", str(inst_path),
    ]) == 0
    inst = load_instance(inst_path.read_text())
    assert inst.n == 3 and inst.m == 9
    assert main([
        "run", "--in", str(inst_path), "--policy", "pressure-greedy",
        "--out", str(alloc_path), "--trace", str(trace_path),
        "--report", str(report_path),
    ]) == 0
    report = json.loads(report_path.read_text())
    assert report["runs"][0]["policy"] == "pressure-greedy"
    assert trace_path.read_text().count("\n") == 9
    assert main(["mms", "--in", str(inst_path), "--out", "-"]) == 0


def test_cli_mms_agrees_with_run_past_the_guard(tmp_path):
    rng = random.Random(4)
    inst = Instance(2, tuple((F(rng.randint(1, 99)), F(rng.randint(1, 99))) for _ in range(23)))
    assert inst.m > exact_search_limit(2)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(inst) + "\n")
    assert main(["mms", "--in", str(inst_path), "--out", str(tmp_path / "mms.json")]) == 0
    assert main(["run", "--in", str(inst_path), "--report", str(tmp_path / "report.json")]) == 0
    records = json.loads((tmp_path / "mms.json").read_text())
    outcomes = json.loads((tmp_path / "report.json").read_text())["runs"][0]["agents"]
    for record, outcome in zip(records, outcomes, strict=True):
        assert record["exact_mms"] is None and outcome["ratio_kind"] == "interval"
        upper = parse_rational(record["upper_bound"])
        assert upper == parse_rational(outcome["d_A"]) / parse_rational(outcome["ratio_low"])
        assert witness_max_bundle(inst, record["agent"], record["witness_partition"]) == upper


def test_cli_adversary_run(tmp_path):
    cert_path = tmp_path / "cert.json"
    inst_path = tmp_path / "inst.json"
    alloc_path = tmp_path / "alloc.json"
    code = main([
        "adversary", "run", "--n", "2", "--eps", "1/2", "--policy", "round-robin",
        "--budget", "10000", "--out-certificate", str(cert_path),
        "--out-instance", str(inst_path), "--out-allocation", str(alloc_path),
    ])
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert cert["certified"] and cert["sound"]
    assert Fraction(cert["ratio_lower"]) > F(3, 2)
    assert load_instance(inst_path.read_text()).n == 2


def test_cli_adversary_run_recursive(tmp_path):
    cert_path = tmp_path / "cert.json"
    code = main([
        "adversary", "run", "--n", "3", "--eps", "1", "--policy", "mixture:23",
        "--budget", "50", "--out-certificate", str(cert_path),
    ])
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert cert["sound"] and cert["o1_ok"] and cert["o2_ok"]
    assert cert["certified"] and Fraction(cert["ratio_lower"]) > 2


def test_run_experiment_single_agent():
    inst = Instance(1, ((F(2),), (F(3),)))
    report = run_experiment(inst)
    assert report.passed
    for run in report.runs:
        assert all(a.ratio == 1 for a in run.agents)  # MMS_1 = total disutility


def test_cli_stacking_replay(tmp_path):
    inst_path = tmp_path / "inst.json"
    trace_path = tmp_path / "trace.jsonl"
    main(["gen", "--n", "3", "--m", "12", "--k", "2", "--D", "2", "--seed", "5",
          "--out", str(inst_path)])
    from fairdiv import allocator_to_stacking, run_online
    from fairdiv.allocator import PressureGreedyPolicy
    from fairdiv.stacking import stacking_trace_to_jsonl

    inst = load_instance(inst_path.read_text())
    _, trace = run_online(inst, PressureGreedyPolicy())
    res = allocator_to_stacking(trace, 3)
    trace_path.write_text(stacking_trace_to_jsonl(res.steps))
    assert main(["stacking", "replay", "--in", str(trace_path)]) == 0
    trace_path.write_text(trace_path.read_text().replace('"-1/2"', '"-1/3"', 1))
    assert main(["stacking", "replay", "--in", str(trace_path)]) == 1


def test_cli_usage_error():
    assert main(["run", "--policy", "pressure-greedy"]) == 2  # missing --in
    assert main(["gen", "--n", "2", "--m", "4", "--k", "3", "--D", "2", "--out", "-"]) == 2


def _one_line_error(capsys, argv) -> str:
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_cli_bad_mixture_seed_is_a_usage_error(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(Instance(2, ((F(1), F(1)),))))
    err = _one_line_error(capsys, ["run", "--in", str(inst_path), "--policy", "mixture:abc"])
    assert "mixture:abc" in err


def test_cli_stacking_replay_malformed_line(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    good = '{"A":[["-1/2","0"]],"B":[["0","1/2"]],"a":"1","b":"1","pieces_after":[]}'
    for bad in ['{"a": "1"}', "{not json"]:
        trace_path.write_text(good + "\n" + bad + "\n")
        assert "line 2: " in _one_line_error(capsys, ["stacking", "replay", "--in", str(trace_path)])


def test_cli_adversary_rejects_one_agent(capsys):
    err = _one_line_error(capsys, ["adversary", "run", "--n", "1", "--budget", "5"])
    assert "--n" in err


def test_cli_adversary_rejects_budget_below_one(capsys):
    for budget in ("0", "-5"):
        err = _one_line_error(capsys, ["adversary", "run", "--n", "2", "--budget", budget])
        assert "--budget" in err


def test_cli_run_and_mms_accept_an_empty_instance(tmp_path):
    inst = Instance(3, ())
    inst_path = tmp_path / "inst.json"
    inst_path.write_text('{"n":3,"items":[]}')
    out = {name: tmp_path / name for name in ("alloc.json", "trace.jsonl", "report.json", "mms.json")}
    assert main([
        "run", "--in", str(inst_path), "--out", str(out["alloc.json"]),
        "--trace", str(out["trace.jsonl"]), "--report", str(out["report.json"]),
    ]) == 0
    assert out["alloc.json"].read_text() == '{"assignment":[]}\n'
    assert out["trace.jsonl"].read_text() == ""
    assert out["report.json"].read_text() == (
        '{"instance":"%s","m":0,"n":3,"runs":[]}\n' % instance_digest(inst)
    )
    assert main(["mms", "--in", str(inst_path), "--out", str(out["mms.json"])]) == 0
    entries = json.loads(out["mms.json"].read_text())
    assert [e["agent"] for e in entries] == [1, 2, 3]
    for e in entries:
        assert e["lower_bound"] == e["upper_bound"] == e["exact_mms"] == "0"
        assert e["witness_partition"] == [[], [], []]
