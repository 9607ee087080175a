import collections
import dataclasses
import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pbna import cli, kernels, network, obstruction, precoding
from gen import adversarial_net, cyclic_instance, forest_instance, net_to_json

REPO = Path(__file__).resolve().parent.parent
FOURBYFOUR = REPO / "networks" / "fourbyfour.json"
FOREST = REPO / "networks" / "forest.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args):
    # the child imports the pbna this process imported, whether or not PYTHONPATH names it
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    return subprocess.run(
        [sys.executable, "-m", "pbna", *args],
        capture_output=True, text=True, cwd=REPO, env=env,
    )


def test_pipeline_fourbyfour_json(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("pipeline", "--network", str(FOURBYFOUR), "--format", "json",
                   "--out", str(out), "--sessions", "20")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["cyclic"] is True
    assert report["sparsification"]["d_star"] == 1
    assert report["precoding"]["per_source_rate"] == "1/4"
    assert report["simulation"]["success_fraction"] == 1.0
    assert report["obstruction"]["claim"] == "infeasible"
    assert "1/3" in report["obstruction"]["statement"]


def test_pipeline_forest_text():
    proc = run_cli("pipeline", "--network", str(FOREST), "--sessions", "10")
    assert proc.returncode == 0, proc.stderr
    assert "d* = 0" in proc.stdout
    assert "rate=1/3" in proc.stdout  # L = 2, d* = 0


def test_malformed_file_exits_2_without_report(tmp_path):
    # the nested file exhausts the JSON decoder's recursion limit
    for content in ("{ this is not json", "[" * 200_000 + "]" * 200_000):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        out = tmp_path / "report.json"
        proc = run_cli("pipeline", "--network", str(bad), "--format", "json", "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert not out.exists()
        assert proc.stderr.startswith("error: network: invalid JSON: ")


def test_missing_file_exits_2(tmp_path):
    proc = run_cli("validate", "--network", str(tmp_path / "nope.json"))
    assert proc.returncode == 2


def test_assumption_violation_exits_3(tmp_path):
    # demanded pair with no path
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps({
        "nodes": ["S1", "S2", "D1"],
        "edges": [["S1", "D1"]],
        "sources": ["S1", "S2"],
        "destinations": ["D1"],
        "demands": [[2]],
    }))
    proc = run_cli("pipeline", "--network", str(bad))
    assert proc.returncode == 3
    assert "mincut" in proc.stderr


def test_constraint_violation_exits_4(tmp_path):
    path = tmp_path / "adversarial.json"
    path.write_text(net_to_json(adversarial_net()))
    proc = run_cli("pipeline", "--network", str(path))
    assert proc.returncode == 4
    assert "alignment" in proc.stderr
    assert "determinant appears to vanish" in proc.stderr


def test_reports_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        proc = run_cli("pipeline", "--network", str(FOURBYFOUR), "--format", "json",
                       "--out", str(out), "--seed", "5", "--sessions", "10")
        assert proc.returncode == 0, proc.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_validate_subcommand():
    proc = run_cli("validate", "--network", str(FOURBYFOUR))
    assert proc.returncode == 0
    assert "assumptions: OK" in proc.stdout


def test_igraph_subcommand_emits_dot():
    proc = run_cli("igraph", "--network", str(FOURBYFOUR))
    assert proc.returncode == 0
    assert "graph interference {" in proc.stdout
    assert '"S1" -- "W1";' in proc.stdout


def test_dstar_subcommand_text_includes_json():
    proc = run_cli("dstar", "--network", str(FOURBYFOUR))
    assert proc.returncode == 0
    assert "d* = 1" in proc.stdout
    assert '"d_star": 1' in proc.stdout


def test_precode_subcommand_json():
    proc = run_cli("precode", "--network", str(FOURBYFOUR), "--format", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["precoding"]["n"] == 4
    assert len(report["precoding"]["V"]) == 4
    assert all(v["ok"] for v in report["precoding"]["verdicts"])


def test_obstruct_subcommand_auto_cycle():
    proc = run_cli("obstruct", "--network", str(FOURBYFOUR), "--format", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["obstruction"]["verdict"] == "non-constant"
    assert report["obstruction"]["claim"] == "infeasible"


def test_obstruct_subcommand_explicit_cycle():
    proc = run_cli("obstruct", "--network", str(FOURBYFOUR),
                   "--cycle", "S1,W1,S2,W2,S3,W3,S4,W4")
    assert proc.returncode == 0
    assert "non-constant" in proc.stdout


def test_obstruct_on_forest_reports_acyclic():
    proc = run_cli("obstruct", "--network", str(FOREST))
    assert proc.returncode == 0
    assert "acyclic" in proc.stdout


def test_obstruct_bad_explicit_cycle_exits_2():
    proc = run_cli("obstruct", "--network", str(FOREST), "--cycle", "S1,W1,S2,W2")
    assert proc.returncode == 2
    assert "obstruction" in proc.stderr


# "²" and "١" pass str.isdigit, and int() rejects the first and reads the second as 1
@pytest.mark.parametrize("cycle", ["S\u00b2,W1,S2,W2", "S\u0661,W1,S2,W2", "S0,W1,S2,W2", "S1,W0,S2,W2", "S1,,S2,W2"])
def test_obstruct_rejects_bad_cycle_labels(cycle, capsys):
    code = cli.main(["obstruct", "--network", str(FOURBYFOUR), "--cycle", cycle])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE
    assert captured.out == ""
    assert captured.err.startswith("error: config: bad cycle node "), captured.err


def test_simulate_subcommand_traces(tmp_path):
    out = tmp_path / "sim.json"
    proc = run_cli("simulate", "--network", str(FOREST), "--sessions", "5",
                   "--format", "json", "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert len(report["traces"]) == 5
    assert all(all(t["success"]) for t in report["traces"])


def test_nonprime_q_rejected():
    proc = run_cli("validate", "--network", str(FOURBYFOUR), "--q", "10")
    assert proc.returncode == 2
    assert "prime" in proc.stderr


def test_q_beyond_int64_contract_rejected(capsys):
    # 4294967311 is prime, but products of two residues overflow int64
    code = cli.main(["pipeline", "--network", str(FOURBYFOUR), "--q", "4294967311"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE
    assert captured.out == ""
    assert "gf:" in captured.err and "2**31" in captured.err


def test_wrong_decode_exits_5_after_writing_report(monkeypatch, capsys):
    real = cli.run_session

    def one_wrong(*args, **kwargs):
        t = real(*args, **kwargs)
        return dataclasses.replace(t, success=(False,) + t.success[1:])

    monkeypatch.setattr(cli, "run_session", one_wrong)
    for command in ("pipeline", "simulate"):
        code = cli.main([command, "--network", str(FOREST), "--sessions", "1", "--format", "json"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DECODE
        sim = json.loads(captured.out)["simulation"]
        assert sim["successes"] == sim["decode_checks"] - 1
        assert "simulate:" in captured.err


def test_decode_failure_exit_code_mapping():
    # unreachable in a verified pipeline; exercise the mapping directly
    from pbna.simulate import DecodeFailure

    def boom(cfg):
        raise DecodeFailure("synthetic")

    old = cli._COMMANDS["pipeline"]
    cli._COMMANDS["pipeline"] = boom
    try:
        code = cli.main(["pipeline", "--network", str(FOURBYFOUR)])
    finally:
        cli._COMMANDS["pipeline"] = old
    assert code == cli.EXIT_DECODE


def test_runconfig_validates_counts():
    with pytest.raises(ValueError):
        cli.RunConfig(network_path="x", max_attempts=0)


def test_stages_compose_to_pipeline_result():
    args = ["--network", str(FOURBYFOUR), "--format", "json", "--seed", "3", "--sessions", "10"]
    stage = json.loads(run_cli("dstar", *args).stdout)
    full = json.loads(run_cli("pipeline", *args).stdout)
    assert stage["sparsification"] == full["sparsification"]
    precode = json.loads(run_cli("precode", *args).stdout)
    assert precode["precoding"] == full["precoding"]


GOLDEN_CASES = [
    *(pytest.param(command, f"networks/{network_name}.json", (), cli.EXIT_OK, id=f"{command}-{network_name}")
      for command in cli._COMMANDS for network_name in ("fourbyfour", "forest")),
    # 12 attempts, an alignment failure among them
    pytest.param("precode", "networks/fourbyfour.json", ("--q", "31", "--seed", "1"), cli.EXIT_OK,
                 id="precode-fourbyfour-q31-seed1"),
    pytest.param("pipeline", "networks/forest.json", ("--q", "31", "--seed", "6"), cli.EXIT_OK,
                 id="pipeline-forest-q31-seed6"),
    # every attempt has a zero transfer at a used pair; no alignment check runs
    pytest.param("precode", "networks/fourbyfour.json", ("--q", "7", "--seed", "3"), cli.EXIT_CONSTRAINTS,
                 id="precode-fourbyfour-q7-seed3"),
    # (D1, S1) has mincut 2 and the demanded (D2, S3) mincut 0: exit 3, report written
    pytest.param("validate", "tests/violating.json", (), cli.EXIT_ASSUMPTIONS, id="validate-violating"),
    pytest.param("validate", "tests/violating.json", ("--format", "text"), cli.EXIT_ASSUMPTIONS,
                 id="validate-violating-text"),
]


@pytest.mark.parametrize("command, network, options, exit_code", GOLDEN_CASES)
def test_report_matches_golden(command, network, options, exit_code, request, monkeypatch, capsys):
    # goldens hold `pbna <command> --network <network> --format json --sessions 5
    # <options>` (a later --format wins), run from the repository root (the config
    # echoes the path): stdout as <id>.json, or <id>.txt for a text report, and
    # stderr as <id>.stderr; a missing file stands for empty output
    monkeypatch.chdir(REPO)
    code = cli.main([command, "--network", network, "--format", "json", "--sessions", "5", *options])
    captured = capsys.readouterr()
    assert code == exit_code, captured.err
    name = request.node.callspec.id
    out, err = GOLDEN / f"{name}.{'txt' if 'text' in options else 'json'}", GOLDEN / f"{name}.stderr"
    assert captured.out == (out.read_text(encoding="utf-8") if out.exists() else "")
    assert captured.err == (err.read_text(encoding="utf-8") if err.exists() else "")


# sha256 of `pbna pipeline --network forest160.json --format json --sessions 2` on
# gen.forest_instance(np.random.default_rng(160), size=160): a 3,629,389-byte report whose
# 25,600-row mincut table any change to validation or emission must keep byte for byte
K160_PIPELINE_SHA256 = "0363086b92bd426e8348bc85b9b972167c7d908ae03bd3cae8b6b3fecc1cffeb"


def test_k160_forest_pipeline_report_is_pinned(tmp_path, monkeypatch, capsys):
    net, _ = forest_instance(np.random.default_rng(160), size=160)
    (tmp_path / "forest160.json").write_text(net_to_json(net))
    monkeypatch.chdir(tmp_path)
    code = cli.main(["pipeline", "--network", "forest160.json", "--format", "json", "--sessions", "2"])
    out = capsys.readouterr().out.encode()
    assert code == cli.EXIT_OK
    assert len(out) == 3_629_389
    assert hashlib.sha256(out).hexdigest() == K160_PIPELINE_SHA256


# sha256 of `pbna pipeline --network cyclic160.json --format json --sessions 2` on
# gen.cyclic_instance(np.random.default_rng(160), 160): K = M = 160, L = 2, 776 interference
# edges at density 0.03, d* = 4 after 2 augmentations, so the report pins find_dstar's
# removal and the shortest cycle the obstruction section names
K160_CYCLIC_PIPELINE_SHA256 = "107afc9c0532bc1fe7d4fac752cd39376afb118cdddb4cacf88a9ed9d66dc3db"


def test_k160_cyclic_pipeline_report_is_pinned(tmp_path, monkeypatch, capsys):
    net, _ = cyclic_instance(np.random.default_rng(160), 160)
    (tmp_path / "cyclic160.json").write_text(net_to_json(net))
    monkeypatch.chdir(tmp_path)
    code = cli.main(["pipeline", "--network", "cyclic160.json", "--format", "json", "--sessions", "2"])
    out = capsys.readouterr().out.encode()
    assert code == cli.EXIT_OK
    assert len(out) == 3_702_476
    assert hashlib.sha256(out).hexdigest() == K160_CYCLIC_PIPELINE_SHA256


@pytest.mark.parametrize("seed", range(8))
def test_exit_4_names_the_failure_reason(seed, capsys):
    # over F_2 every attempt has a zero transfer at a used pair, so no alignment check ever
    # runs and the message must not blame a vanishing decoding determinant
    code = cli.main(["precode", "--network", str(FOREST), "--q", "2", "--zero-trials", "20", "--seed", str(seed)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONSTRAINTS
    assert err == "error: precoding: no valid assignment found in 20 attempts (zero_at_assignment: 20)\n"


def test_empty_demand_set_exits_2(tmp_path):
    path = tmp_path / "no_demand.json"
    path.write_text(json.dumps({"nodes": ["S1", "D1"], "edges": [["S1", "D1"]], "sources": ["S1"],
                                "destinations": ["D1"], "demands": [[]]}))
    proc = run_cli("pipeline", "--network", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: network:")
    assert "at least one source" in proc.stderr


def test_internal_value_error_is_not_reported_as_config(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "find_dstar", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli.main(["pipeline", "--network", str(FOREST)])


@pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--ratio-trials", "1"), ("--sessions", "0"),
                                           ("--attempts", "0"), ("--zero-trials", "0")])
def test_out_of_range_option_exits_2_with_config_prefix(option, value, capsys):
    code = cli.main(["obstruct", "--network", str(FOURBYFOUR), option, value])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE
    assert captured.out == ""
    assert captured.err.startswith(f"error: config: {option} must be at least ")


@pytest.mark.parametrize("network_path", [FOREST, FOURBYFOUR], ids=["forest", "fourbyfour"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_command_runs_each_stage_once(command, network_path, monkeypatch, capsys):
    calls = collections.Counter()
    results = {}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            results[name] = real(*args, **kwargs)
            return results[name]
        return wrapper

    for name in ("load_network_file", "build_igraph", "find_dstar", "plan_with_resampling", "cycle_ratio"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    counting_realize = counting("realize", network.realize)
    for module in (cli, network, obstruction, precoding):
        monkeypatch.setattr(module, "realize", counting_realize)
    assert cli.main([command, "--network", str(network_path), "--format", "json", "--sessions", "2"]) == cli.EXIT_OK
    capsys.readouterr()
    assert calls["load_network_file"] == calls["build_igraph"] == 1
    assert calls["find_dstar"] <= 1 and calls["plan_with_resampling"] <= 1 and calls["cycle_ratio"] <= 1
    ratio_trials = len(results["cycle_ratio"].evaluations) if "cycle_ratio" in results else 0
    attempts = results["plan_with_resampling"].attempts if "plan_with_resampling" in results else 0
    assert calls["realize"] == 1 + ratio_trials + attempts  # the probe, the ratio trials, the precoding attempts


@pytest.mark.parametrize("seed", [12, 25])
@pytest.mark.parametrize("command", ["precode", "simulate", "pipeline"])
def test_probe_that_missed_an_edge_exits_3(command, seed, capsys):
    # a one-trial probe over F_3 drops real interference edges on these seeds; the plan's
    # realizations prove them nonzero, so the run stops before decoding against the wrong graph
    code = cli.main([command, "--network", str(FOREST), "--q", "3", "--zero-trials", "1", "--seed", str(seed),
                     "--format", "json"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_ASSUMPTIONS
    assert captured.out == ""
    assert captured.err.startswith("error: probe: the interference graph misses (D")
    assert "--zero-trials" in captured.err


def test_unwritable_out_path_is_reported_as_output_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert cli.main(["validate", "--network", str(FOREST), "--out", str(out)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: output: ")
    assert str(out) in err
    assert "network file" not in err


def test_unreadable_network_still_says_network_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["validate", "--network", str(missing), "--out", str(tmp_path / "r.json")]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: network file: ")


def test_obstruct_rejects_explicit_cycle_missing_from_interference_graph(tmp_path, capsys):
    # interference edges: S2-W1, S3-W1, S2-W2 (acyclic); S3-W2 has an
    # identically zero transfer, so S2,W2,S3,W1 is not a cycle
    path = tmp_path / "acyclic.json"
    path.write_text(json.dumps({
        "nodes": ["S1", "S2", "S3", "D1", "D2"],
        "edges": [["S1", "D1"], ["S1", "D2"], ["S2", "D1"], ["S2", "D2"], ["S3", "D1"]],
        "sources": ["S1", "S2", "S3"],
        "destinations": ["D1", "D2"],
        "demands": [[1], [1]],
    }))
    code = cli.main(["obstruct", "--network", str(path), "--cycle", "S2,W2,S3,W1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE
    assert captured.out == ""
    assert captured.err.startswith("error: obstruction: ")
    assert "(S3, W2)" in captured.err


def test_readme_python_api_example_runs(monkeypatch, capsys):
    # the package root exports what the README's example calls, and the example prints what it says
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(REPO)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    expected = code.rsplit("#", 1)[1].strip()
    assert printed.strip() == expected == "(1, 4) 40 True"


def test_pipeline_fires_the_benchmark_trace_hooks(tmp_path, monkeypatch):
    # pipebench's tracer wraps pipeline boundaries by module attribute and reads counters off
    # their results; a rename or a changed result field must fail here, not only in the benchmark
    monkeypatch.syspath_prepend(str(REPO / "pipebench"))
    from spans import Tracer

    argv = ["pipeline", "--network", str(FOURBYFOUR), "--format", "json", "--out"]
    assert cli.main(argv + [str(tmp_path / "untraced.json")]) == cli.EXIT_OK
    # the tracer reads kernels.propagate's arguments by position; count them here by name
    propagate = kernels.propagate
    madds = []

    def counted(*args):
        call = inspect.signature(propagate).bind(*args).arguments
        madds.append(call["coeffs"].shape[0] * (len(call["inj_edge"]) + len(call["pair_in"])) * call["n_cols"])
        return propagate(*args)

    monkeypatch.setattr(kernels, "propagate", counted)
    with Tracer() as tracer:
        code = cli.main(argv + [str(tmp_path / "traced.json")])
    assert code == cli.EXIT_OK
    report = (tmp_path / "traced.json").read_bytes()
    assert report == (tmp_path / "untraced.json").read_bytes()
    counts = tracer.counters
    for name in ("sparsify.find_dstar", "network.mincut", "obstruction.cycle_ratio", "precoding.plan"):
        assert counts[name + "_calls"] > 0, name
    assert counts["sparsify.d_star"] == 1
    assert counts["precoding.attempts"] >= 1
    assert counts["simulate.decode_checks"] == 4 * json.loads(report)["simulation"]["sessions"]
    assert counts["kernels.propagate_calls"] == len(madds) > 0
    assert type(counts["kernels.propagate_madds"]) is int
    assert counts["kernels.propagate_madds"] == sum(madds)


_FUZZ_CHARS = 'ab{}[],:"\\\n\t\x00 \u00e9\u20ac\u2028\U0001f600'
_EMITTER_BRANCHES = ("_compact_text", "_flat_text", "_flat_run_text", "_nested_text", "_mincut_table_text")


def _fuzz_scalar(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return "".join(rng.choice(_FUZZ_CHARS) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, rng.uniform(-1e6, 1e6)])
    if kind == 2:
        return rng.randrange(-10**20, 10**20)
    return rng.choice([True, False, None])


def _fuzz_flat(rng: random.Random, kind):
    n = rng.randrange(1, 5)
    if kind is dict:
        return {"".join(rng.choice(_FUZZ_CHARS) for _ in range(rng.randrange(4))): _fuzz_scalar(rng)
                for _ in range(n)}
    return kind(_fuzz_scalar(rng) for _ in range(n))


def _fuzz_report(rng: random.Random) -> network.ValidationReport:
    """A 1x1 to 4x4 mincut table, square or not, with cuts of 0, 1, 2 and far above."""
    m, k = rng.randrange(1, 5), rng.randrange(1, 5)
    mincut = np.array([[rng.choice([0, 1, 1, 2, 10, 2**40]) for _ in range(k)] for _ in range(m)], dtype=np.int64)
    demanded = np.array([[rng.random() < 0.5 for _ in range(k)] for _ in range(m)])
    return network.ValidationReport(mincut, demanded)


def _mincut_rows(obj):
    """``json.dumps`` default hook: a ValidationReport as the list of row dicts it stands for."""
    if not isinstance(obj, network.ValidationReport):
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    return [
        {"destination": f"D{i + 1}", "source": f"S{j + 1}", "mincut": cut, "demanded": demanded,
         "ok": cut == 1 if demanded else cut <= 1}
        for i, (cuts, flags) in enumerate(zip(obj.mincut.tolist(), obj.demanded.tolist()))
        for j, (cut, demanded) in enumerate(zip(cuts, flags))
    ]


def _fuzz_value(rng: random.Random, depth: int):
    """A random nested value that reaches every emission branch: scalars and empty containers,
    mincut tables, flat containers, runs of flat dicts or flat lists, and mixed containers."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice([_fuzz_scalar, lambda _: [], lambda _: {}, lambda _: (), _fuzz_report])(rng)
    if roll < 0.5:
        return _fuzz_flat(rng, rng.choice([dict, list, tuple]))
    n = rng.randrange(1, 5)
    if roll < 0.7:
        kinds = [dict] if rng.random() < 0.5 else [list, tuple]
        run = [_fuzz_flat(rng, rng.choice(kinds)) for _ in range(n)]
        return run if rng.random() < 0.8 else tuple(run)
    children = [_fuzz_value(rng, depth - 1) for _ in range(n)]
    if rng.random() < 0.5:
        return {rng.choice(_FUZZ_CHARS) + str(t): child for t, child in enumerate(children)}
    return children if rng.random() < 0.8 else tuple(children)


def test_emitter_matches_json_dumps_on_random_values(monkeypatch):
    calls = {name: [] for name in _EMITTER_BRANCHES}
    for name in _EMITTER_BRANCHES:
        def recording(*args, _name=name, _real=getattr(cli, name)):
            calls[_name].append(args)
            return _real(*args)

        monkeypatch.setattr(cli, name, recording)
    rng = random.Random(71)
    for _ in range(10_000):
        value = _fuzz_value(rng, 3)
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True, default=_mincut_rows), value
    assert min(map(len, calls.values())) >= 100, {name: len(args) for name, args in calls.items()}
    tables = calls["_mincut_table_text"]
    shapes = {report.mincut.shape for report, _ in tables}
    assert (1, 1) in shapes and any(m != k for m, k in shapes)
    cuts = {cut for report, _ in tables for cut in report.mincut.flat}
    assert {0, 1, 2} <= cuts and max(cuts) >= 10
    assert {(bool(d), bool(ok)) for report, _ in tables for d, ok in zip(report.demanded.flat, report.pair_ok.flat)} \
        == {(False, False), (False, True), (True, False), (True, True)}
    assert {depth for _, depth in tables} - {2}


def test_json_reports_match_json_dumps_on_a_k48_forest(tmp_path, monkeypatch, capsys):
    net, _ = forest_instance(np.random.default_rng(48), size=48)
    path = tmp_path / "forest48.json"
    path.write_text(net_to_json(net))
    reports = []
    real = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda obj, depth=0: reports.append(obj) or real(obj, depth))
    for command in cli._COMMANDS:
        del reports[:]
        code = cli.main([command, "--network", str(path), "--format", "json", "--sessions", "3"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK, command
        assert out == json.dumps(reports[0], indent=2, sort_keys=True, default=_mincut_rows) + "\n", command


@pytest.mark.parametrize("command", ["validate", "pipeline"])
def test_text_reports_never_render_the_mincut_rows(command, monkeypatch, capsys):
    calls = []
    real = cli._mincut_table_text
    monkeypatch.setattr(cli, "_mincut_table_text", lambda *args: calls.append(args) or real(*args))
    assert cli.main([command, "--network", str(FOREST), "--format", "text"]) == cli.EXIT_OK
    assert calls == []
    assert cli.main([command, "--network", str(FOREST), "--format", "json"]) == cli.EXIT_OK
    assert len(calls) == 1
