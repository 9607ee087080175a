import json
import subprocess
import sys
from pathlib import Path

import pytest

from pbna import cli, network, obstruction, precoding
from pbna.simulate import SessionTrace
from gen import adversarial_net, net_to_json

REPO = Path(__file__).resolve().parent.parent
FOURBYFOUR = REPO / "networks" / "fourbyfour.json"
FOREST = REPO / "networks" / "forest.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pbna", *args],
        capture_output=True, text=True, cwd=REPO,
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
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    out = tmp_path / "report.json"
    proc = run_cli("pipeline", "--network", str(bad), "--format", "json", "--out", str(out))
    assert proc.returncode == 2
    assert not out.exists()
    assert "parse" in proc.stderr.lower() or "network" in proc.stderr.lower()


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
        return SessionTrace(t.messages, t.transmitted, t.received, t.decoded, (False,) + t.success[1:])

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


@pytest.mark.parametrize("network_name", ["fourbyfour", "forest"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_report_matches_golden(command, network_name, monkeypatch, capsys):
    # goldens hold `pbna <command> --network networks/<name>.json --format json
    # --sessions 5`, run from the repository root (the config echoes the path)
    monkeypatch.chdir(REPO)
    code = cli.main([command, "--network", f"networks/{network_name}.json", "--format", "json",
                     "--sessions", "5"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK, captured.err
    assert captured.out == (GOLDEN / f"{command}-{network_name}.json").read_text(encoding="utf-8")


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


@pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--ratio-trials", "1"), ("--sessions", "0")])
def test_out_of_range_option_exits_2_with_config_prefix(option, value, capsys):
    code = cli.main(["obstruct", "--network", str(FOURBYFOUR), option, value])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE
    assert captured.out == ""
    assert captured.err.startswith("error: config: ")


def test_pipeline_draws_one_zero_function_probe(monkeypatch, capsys):
    calls = []
    real = network.realize

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    for module in (cli, network, obstruction, precoding):
        monkeypatch.setattr(module, "realize", counting)
    assert cli.main(["pipeline", "--network", str(FOREST), "--sessions", "1", "--format", "json"]) == 0
    attempts = json.loads(capsys.readouterr().out)["precoding"]["attempts"]
    assert len(calls) == 1 + attempts  # the probe, then one realization per precoding attempt


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
