import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fairdiv import (
    Allocation,
    FairdivError,
    GeneratorConfig,
    Instance,
    RatioCertificate,
    TwoAgentAdversary,
    generate_instance,
    instance_digest,
    instance_stats,
    instance_to_json,
    leq_two_plus_sqrt3,
    load_allocation,
    load_instance,
    make_recursive_adversary,
    parse_rational,
    play_game,
    run_experiment,
    verify_certificate,
)
from fairdiv.allocator import PressureGreedyPolicy, make_policy
from fairdiv.cli import main
from fairdiv.core import instance_json_parts
from fairdiv.mms import exact_search_limit, witness_max_bundle
from fairdiv.harness import NEAR_THRESHOLD_ABOVE, NEAR_THRESHOLD_BELOW, policy_zoo

from conftest import random_instance

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


def _looped_powers_of_two(D, k, seed):
    """The powers-of-two draw with the exponent found by doubling up to D."""
    max_exp = 0
    while F(2) ** (max_exp + 1) <= D:
        max_exp += 1
    if k > max_exp + 1:
        return None
    return [F(2) ** e for e in sorted(random.Random(seed).sample(range(max_exp + 1), k))]


def test_powers_of_two_grid_matches_the_doubling_loop():
    non_integer = (F(3, 2), F(7, 4), F(4095, 4), F(2**20 + 1, 2**10), F(10**30 - 1, 7), F(2**100, 3))
    for D in [F(d) for d in range(1, 2**12 + 1)] + list(non_integer):
        top = D.numerator.bit_length() - D.denominator.bit_length() + 1
        for k in (1, top, top + 1):
            cfg = GeneratorConfig(n=1, m=k, k=k, D=D, seed=int(D) % 7)
            expected = _looped_powers_of_two(D, k, cfg.seed)
            if expected is None:
                with pytest.raises(FairdivError, match="infeasible"):
                    generate_instance(cfg)
                continue
            assert sorted(set(generate_instance(cfg).agent_values(1))) == expected


def test_powers_of_two_grid_with_a_huge_spread():
    D = F(10**100000)
    start = time.perf_counter()
    inst = generate_instance(GeneratorConfig(n=1, m=2, k=2, D=D, seed=1))
    text = instance_to_json(inst)
    assert time.perf_counter() - start < 1.0
    for v in inst.agent_values(1):
        assert v <= D and v.denominator == 1 and v.numerator & (v.numerator - 1) == 0
    assert len(text) > 1000


def _listed_uniform_pool(D):
    """The uniform-rational grid listed value by value: {p/q in [1, D] : q <= 6}."""
    return sorted({F(p, q) for q in range(1, 7) for p in range(q, int(D * q) + 1)})


def test_uniform_rational_grid_matches_the_listed_pool():
    for D in (F(1), F(7, 6), F(3, 2), F(2), F(7, 3), F(13, 5), F(5), F(37, 6), F(20)):
        pool = _listed_uniform_pool(D)
        for k in (1, 2, 5, 12, 13, 40):
            for seed in range(4):
                cfg = GeneratorConfig(n=1, m=k, k=k, D=D, value_grid="uniform-rational", seed=seed)
                if len(pool) < k:
                    with pytest.raises(FairdivError, match=f"grid holds only {len(pool)} values"):
                        generate_instance(cfg)
                    continue
                expected = sorted(random.Random(seed).sample(pool, k))
                assert sorted(set(generate_instance(cfg).agent_values(1))) == expected


def test_uniform_rational_grid_with_a_huge_spread(capsys):
    D = F(10**9)
    inst = generate_instance(GeneratorConfig(n=2, m=4, k=4, D=D, value_grid="uniform-rational", seed=1))
    assert all(1 <= v <= D for i in (1, 2) for v in inst.agent_values(i))
    argv = ["gen", "--n", "1", "--m", "1", "--k", "1", "--grid", "uniform-rational", "--D", str(10**20)]
    assert "too large" in _one_line_error(capsys, argv)


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


class _WrongAgentPolicy(PressureGreedyPolicy):
    """Pressure-greedy that hands every ``every``-th item to the next agent,
    and with ``snapshots`` records its own pressure rows on every step, for
    the trace's replay to compare."""

    def __init__(self, every, snapshots):
        self.every, self.snapshots = every, snapshots

    def start(self, n, raw_values):
        super().start(n, raw_values)
        self.calls = 0

    def choose(self, codes):
        winner = super().choose(codes)
        self.calls += 1
        return winner % self.n + 1 if self.calls % self.every == 0 else winner

    def pressure_snapshot(self):
        return self.state.snapshot() if self.snapshots else None


# (trace-invariants, stacking-consistency, ratio-bound-8k+2, stacking margin),
# recorded when the validator and the reduction each replayed the trace
_WRONG_AGENT_PINS = [
    (False, False, None, None), (True, False, None, None), (True, True, True, "1/4"),
    (True, True, True, "1/4"), (False, False, None, None), (True, False, None, None),
    (False, True, None, "1/2"), (True, True, None, "1/2"), (True, True, None, "5/24"),
    (True, True, None, "5/24"), (False, False, True, None), (True, False, True, None),
    (True, True, True, "2/3"), (True, True, True, "2/3"), (False, True, None, "1/4"),
    (True, True, None, "1/4"), (False, False, None, None), (True, False, None, None),
    (True, True, None, "5/24"), (True, True, None, "5/24"),
]


def test_run_experiment_checks_a_misbehaving_pressure_greedy_policy():
    rng = random.Random(83)
    got = []
    for _ in range(10):
        inst = random_instance(rng, rng.randint(2, 4), rng.randint(2, 30), rng.randint(1, 3))
        every = rng.choice((1, 2, 5, 100))
        for snapshots in (True, False):
            run = run_experiment(inst, [_WrongAgentPolicy(every, snapshots)]).runs[0]
            margin = None if run.stacking_margin is None else str(run.stacking_margin)
            checks = run.checks
            got.append((checks["trace-invariants"], checks["stacking-consistency"],
                        checks.get("ratio-bound-8k+2"), margin))
    assert got == _WRONG_AGENT_PINS


def test_run_experiment_raises_on_out_of_range_types():
    class ZeroType(PressureGreedyPolicy):
        def last_types(self):
            return (0,) + super().last_types()[1:]

    inst = Instance(2, ((F(1), F(1)),) * 3)
    with pytest.raises(FairdivError, match="item 1: agent or type indices out of range"):
        run_experiment(inst, [ZeroType()])


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


def test_cli_adversary_run_writes_rationals_past_the_digit_limit(tmp_path):
    # a tiny eps makes the recursive game's disutilities thousands of digits long
    out = {name: tmp_path / name for name in ("cert.json", "inst.json", "alloc.json")}
    code = main([
        "adversary", "run", "--n", "3", "--eps", "1/" + "1" + "0" * 40, "--policy", "round-robin",
        "--budget", "150", "--out-certificate", str(out["cert.json"]),
        "--out-instance", str(out["inst.json"]), "--out-allocation", str(out["alloc.json"]),
    ])
    assert code == 0
    obj = json.loads(out["cert.json"].read_text())
    assert obj["sound"] and obj["rounds"] == 150
    assert max(len(obj[key]) for key in ("d_A", "mms_upper", "ratio_lower")) > 4300
    inst = load_instance(out["inst.json"].read_bytes())
    alloc = load_allocation(out["alloc.json"].read_bytes())
    cert = RatioCertificate(
        agent=obj["agent"],
        d_A=parse_rational(obj["d_A"]),
        mms_upper=parse_rational(obj["mms_upper"]),
        witness=tuple(tuple(bundle) for bundle in obj["witness"]),
        mms_source=obj["mms_source"],
        ratio_lower=parse_rational(obj["ratio_lower"]),
    )
    assert verify_certificate(inst, alloc, cert)


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
    res = allocator_to_stacking(trace)
    trace_path.write_text(stacking_trace_to_jsonl(res))
    assert main(["stacking", "replay", "--in", str(trace_path)]) == 0
    trace_path.write_text(trace_path.read_text().replace('"-1/2"', '"-1/3"', 1))
    assert main(["stacking", "replay", "--in", str(trace_path)]) == 1


def test_cli_usage_error():
    assert main(["run", "--policy", "pressure-greedy"]) == 2  # missing --in
    assert main(["gen", "--n", "2", "--m", "4", "--k", "3", "--D", "2", "--out", "-"]) == 2


def test_cli_main_calls_share_one_parser(tmp_path, capsys):
    from fairdiv import cli

    inst_path, report_path = tmp_path / "inst.json", tmp_path / "report.json"
    outputs = []
    for _ in range(2):
        assert main(["gen", "--n", "3", "--m", "8", "--k", "2", "--D", "4", "--seed", "4", "--out", str(inst_path)]) == 0
        assert main(["run", "--in", str(inst_path), "--policy", "round-robin", "--report", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["runs"][0]["policy"] == "round-robin"
        # a flag given to the last call is not the default of the next
        assert main(["run", "--in", str(inst_path), "--report", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["runs"][0]["policy"] == "pressure-greedy"
        assert main(["mms", "--in", str(inst_path)]) == 0
        assert main(["adversary", "run", "--n", "2", "--budget", "20", "--policy", "round-robin"]) == 0
        outputs.append(capsys.readouterr().out)
        # a bad flag is one error line and exit 2, and the next call still parses
        assert main(["gen", "--n", "2", "--m", "3", "--bogus"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:] and "--bogus" in lines[-1]
    assert outputs[0] == outputs[1]
    assert cli._parser() is cli._parser()


def test_python_m_fairdiv(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "fairdiv", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)

    gen = run("gen", "--n", "2", "--m", "3")
    assert gen.returncode == 0, gen.stderr
    assert load_instance(gen.stdout).m == 3
    bad = run("gen", "--n", "2", "--m", "3", "--bogus")
    assert bad.returncode == 2
    lines = bad.stderr.splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:], bad.stderr


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


@pytest.mark.parametrize(
    "content",
    [b"\xff", b"[" * 100000, b"1" * 5000],
    ids=["bad-utf8", "deep-nesting", "long-int"],
)
def test_cli_undecodable_files_are_usage_errors(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for argv in (["run", "--in"], ["mms", "--in"], ["stacking", "replay", "--in"]):
        assert "invalid JSON" in _one_line_error(capsys, argv + [str(path)])


def test_cli_mms_rejects_non_ascii_digits(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text('{"n": 1, "items": [{"d": ["\u0663"]}]}', encoding="utf-8")
    assert "not a rational string" in _one_line_error(capsys, ["mms", "--in", str(path)])


def test_cli_adversary_rejects_one_agent(capsys):
    err = _one_line_error(capsys, ["adversary", "run", "--n", "1", "--budget", "5"])
    assert "--n" in err


def test_cli_adversary_too_many_agents_is_a_usage_error(capsys):
    # the recursive game nests one adversary level per agent
    err = _one_line_error(capsys, ["adversary", "run", "--n", "1500", "--budget", "1"])
    assert "--n 1500" in err


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
        assert e["witness_partition"] == []


def _cli_outputs(out: Path) -> dict:
    """Run gen, run, mms and a two-agent adversary game with every output
    flag pointing into ``out``; each file's bytes by name."""
    paths = {name: out / name for name in (
        "inst.json", "alloc.json", "trace.jsonl", "report.json", "mms.json",
        "game_inst.json", "game_alloc.json", "cert.json")}
    p = {name: str(path) for name, path in paths.items()}
    for argv in (
        ["gen", "--n", "3", "--m", "12", "--k", "2", "--D", "4", "--seed", "7", "--out", p["inst.json"]],
        ["run", "--in", p["inst.json"], "--out", p["alloc.json"], "--trace", p["trace.jsonl"],
         "--report", p["report.json"]],
        ["mms", "--in", p["inst.json"], "--out", p["mms.json"]],
        ["adversary", "run", "--n", "2", "--budget", "50", "--policy", "round-robin",
         "--out-instance", p["game_inst.json"], "--out-allocation", p["game_alloc.json"],
         "--out-certificate", p["cert.json"]],
    ):
        assert main(argv) == 0, argv
    return {name: path.read_bytes() for name, path in paths.items()}


@pytest.mark.parametrize("longer", [True, False], ids=["longer-junk", "shorter-junk"])
def test_cli_overwrites_existing_files_byte_for_byte(tmp_path, capsys, longer):
    fresh_dir, reused_dir = tmp_path / "fresh", tmp_path / "reused"
    fresh_dir.mkdir()
    reused_dir.mkdir()
    fresh = _cli_outputs(fresh_dir)
    assert all(fresh.values())
    for name, data in fresh.items():
        (reused_dir / name).write_bytes(b"#" * (2 * len(data) + 1 if longer else len(data) // 2))
    assert _cli_outputs(reused_dir) == fresh  # no stale tail survives
    # "-" is still stdout, with the bytes a file gets
    capsys.readouterr()
    assert main(["mms", "--in", str(fresh_dir / "inst.json"), "--out", "-"]) == 0
    assert main(["run", "--in", str(fresh_dir / "inst.json")]) == 0
    assert capsys.readouterr().out.encode() == fresh["mms.json"] + fresh["report.json"]


def test_cli_writes_to_non_regular_targets(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--n", "3", "--m", "8", "--k", "2", "--D", "4", "--out", str(inst_path)]) == 0
    assert main(["run", "--in", str(inst_path), "--report", os.devnull]) == 0
    assert "Is a directory" in _one_line_error(capsys, ["run", "--in", str(inst_path), "--report", str(tmp_path)])
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["run", "--in", str(inst_path), "--report", str(fifo)]) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert main(["run", "--in", str(inst_path), "--report", "-"]) == 0
    assert got == [capsys.readouterr().out.encode()]


def _game_instance(n: int, eps: str, policy: str, budget: int) -> Instance:
    adv = TwoAgentAdversary(parse_rational(eps)) if n == 2 else make_recursive_adversary(n, parse_rational(eps), budget)
    return play_game(adv, make_policy(policy), budget).instance


_INSTANCE_WRITERS = {
    "gen-n3": (["gen", "--n", "3", "--m", "12", "--k", "2", "--D", "4", "--seed", "7"],
               lambda: generate_instance(GeneratorConfig(n=3, m=12, k=2, D=F(4), seed=7))),
    "gen-n1": (["gen", "--n", "1", "--m", "5", "--k", "3", "--D", "8", "--seed", "3"],
               lambda: generate_instance(GeneratorConfig(n=1, m=5, k=3, D=F(8), seed=3))),
    "adversary-n2": (["adversary", "run", "--n", "2", "--eps", "1/2", "--policy", "pressure-greedy",
                      "--budget", "50", "--out-certificate", os.devnull],
                     lambda: _game_instance(2, "1/2", "pressure-greedy", 50)),
    # an exhausted game: values past 1000 bits
    "adversary-n3": (["adversary", "run", "--n", "3", "--eps", "1", "--policy", "round-robin",
                      "--budget", "300", "--out-certificate", os.devnull],
                     lambda: _game_instance(3, "1", "round-robin", 300)),
}


@pytest.mark.parametrize("name", sorted(_INSTANCE_WRITERS))
def test_cli_instance_files_are_the_canonical_json(tmp_path, name):
    argv, make = _INSTANCE_WRITERS[name]
    flag = "--out" if argv[0] == "gen" else "--out-instance"
    expected = (instance_to_json(make()) + "\n").encode("ascii")
    path = tmp_path / "inst.json"
    assert main(argv + [flag, str(path)]) == 0
    assert path.read_bytes() == expected
    path.write_bytes(b"#" * (2 * len(expected) + 1))  # through the parts path, no stale tail survives
    assert main(argv + [flag, str(path)]) == 0
    assert path.read_bytes() == expected
    with contextlib.redirect_stdout(io.StringIO()) as out:  # a text stream only: no sys.stdout.buffer
        assert main(argv + [flag, "-"]) == 0
    assert out.getvalue().encode("ascii") == expected
    assert main(argv + [flag, os.devnull]) == 0


def _parts_and_json(inst: Instance) -> tuple:
    return instance_json_parts(inst) + [b"\n"], (instance_to_json(inst) + "\n").encode()


_TEXT = '{"key":"v\u00e9rit\u00e9 \u2264 1"}\n' * 3
_PARTS = {  # name: (parts and the bytes they make, the length of the longer file they overwrite)
    "empty-n3": (lambda: _parts_and_json(Instance(3, ())), 100),
    "empty-n1": (lambda: _parts_and_json(Instance(1, ())), 100),
    "non-ascii": (lambda: ([c.encode() for c in _TEXT], _TEXT.encode()), 1000),  # one part per character
    "69-parts": (lambda: _parts_and_json(random_instance(random.Random(7), n=3, m=22, k=2)), 10000),
}


@pytest.mark.parametrize("name", list(_PARTS))
def test_cli_write_of_parts(tmp_path, capsys, name):
    from fairdiv import cli

    make, old_size = _PARTS[name]
    parts, expected = make()
    assert old_size > len(expected)
    path = tmp_path / "out.json"
    path.write_bytes(b"#" * old_size)
    cli._write(str(path), parts)
    assert path.read_bytes() == expected
    capsys.readouterr()
    cli._write("-", parts)
    assert capsys.readouterr().out.encode() == expected


def test_cli_write_of_a_large_instance_to_a_slow_fifo(tmp_path):
    from fairdiv import cli

    parts = instance_json_parts(_game_instance(3, "1", "round-robin", 1000)) + [b"\n"]
    assert len(parts) > 3000 and sum(map(len, parts)) > 3_000_000
    fifo = tmp_path / "inst.fifo"
    os.mkfifo(fifo)
    chunks = []

    def read():
        with open(fifo, "rb", buffering=0) as fh:
            while chunk := fh.read(4096):
                chunks.append(chunk)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    cli._write(str(fifo), parts)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert b"".join(chunks) == b"".join(parts)


def _write_peak(path: str, parts: list) -> int:
    """The ``tracemalloc`` peak of one ``cli._write(path, parts)``."""
    import tracemalloc

    from fairdiv import cli

    tracemalloc.start()
    try:
        cli._write(path, parts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_write_of_parts_allocates_no_copy_of_the_file(tmp_path):
    parts = instance_json_parts(_game_instance(3, "1", "round-robin", 300)) + [b"\n"]
    size = sum(map(len, parts))
    assert size > 300_000
    peak = _write_peak(str(tmp_path / "inst.json"), parts)
    assert peak < size / 2, (peak, size)
    assert (tmp_path / "inst.json").read_bytes() == b"".join(parts)


def test_cli_write_to_stdout_allocates_no_copy_of_the_file():
    parts = instance_json_parts(_game_instance(3, "1", "round-robin", 300)) + [b"\n"]
    size = sum(map(len, parts))
    with open(os.devnull, "w", encoding="utf-8") as devnull, contextlib.redirect_stdout(devnull):
        peak = _write_peak("-", parts)
    assert peak < size / 2, (peak, size)


@pytest.mark.parametrize("eps", ["3", "5", "7/2"])
def test_cli_recursive_adversary_rejects_eps_of_n_or_more(capsys, eps):
    err = _one_line_error(capsys, ["adversary", "run", "--n", "3", "--eps", eps, "--budget", "10"])
    assert f"eps must lie in (0, 3), got {eps}" in err


def _count_allocations(monkeypatch) -> list:
    """The allocations built from here on, by their ``__post_init__``."""
    built = []
    post_init = Allocation.__post_init__
    monkeypatch.setattr(Allocation, "__post_init__", lambda self: built.append(self) or post_init(self))
    return built


@pytest.mark.parametrize("items", [12, 0])
@pytest.mark.parametrize("policy", ["pressure-greedy", "bi-value"])
def test_cli_run_builds_one_allocation(tmp_path, monkeypatch, policy, items):
    inst = random_instance(random.Random(113), n=3, m=items, k=2) if items else Instance(3, ())
    inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "alloc.json"
    inst_path.write_text(instance_to_json(inst) + "\n")
    built = _count_allocations(monkeypatch)
    assert main(["run", "--in", str(inst_path), "--policy", policy, "--out", str(alloc_path),
                 "--trace", str(tmp_path / "trace.jsonl"), "--report", str(tmp_path / "report.json")]) == 0
    assert len(built) == 1
    assert load_allocation(alloc_path.read_text()) == built[0]
    assert built[0].m == inst.m


@pytest.mark.parametrize("policy, exhausted", [("pressure-greedy", True), ("dump-to-one", False)])
def test_play_game_builds_one_allocation(monkeypatch, policy, exhausted):
    built = _count_allocations(monkeypatch)
    result = play_game(make_recursive_adversary(3, 1, 60), make_policy(policy), 60)
    assert result.budget_exhausted == exhausted  # an exhausted game certifies through certify_ratio
    assert built == [result.allocation]
