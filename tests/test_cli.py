import collections
import dataclasses
import hashlib
import inspect
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pbna import cli, gf, kernels, network, obstruction, precoding
from pbna.interference import build_igraph
from gen import (adversarial_net, cyclic_instance, forest_instance, hub_relay_net, net_to_json, random_dag_net,
                 random_multiterminal_dag)
from oracles import mincut_by_networkx, mincut_table, rows_of_table, verdicts_by_ranks

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
    assert report["schema_version"] == 3
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
    # D2's decode system is singular in every attempt; the message states that and no more
    assert proc.stderr == "error: precoding: no valid assignment found in 20 attempts; every attempt failed at (D2, S3)\n"


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
    assert report["schema_version"] == 3
    assert "verdicts" not in report["precoding"]


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


def test_obstruct_explicit_cycle_may_start_at_a_destination(capsys):
    # the cycle is reported in the order given, and a rotation leaves the ratio unchanged
    reports = {}
    for cycle in ("W1,S2,W2,S3,W3,S4,W4,S1", "S1,W1,S2,W2,S3,W3,S4,W4"):
        code = cli.main(["obstruct", "--network", str(FOURBYFOUR), "--cycle", cycle, "--format", "json"])
        assert code == cli.EXIT_OK
        reports[cycle] = json.loads(capsys.readouterr().out)["obstruction"]
        assert reports[cycle]["cycle"] == cycle.split(",")
        assert reports[cycle]["verdict"] == "non-constant"
    first, second = reports.values()
    assert first["evaluations"] == second["evaluations"]
    assert first["evaluations"] == [354235247, 1138278633, 646459973, 1699750707, 726739437]


def test_obstruct_on_forest_reports_acyclic():
    proc = run_cli("obstruct", "--network", str(FOREST))
    assert proc.returncode == 0
    assert "acyclic" in proc.stdout


def test_obstruct_bad_explicit_cycle_exits_2():
    proc = run_cli("obstruct", "--network", str(FOREST), "--cycle", "S1,W1,S2,W2")
    assert proc.returncode == 2
    assert "obstruction" in proc.stderr


@pytest.mark.parametrize("cycle, message", [
    ("S9,W1,S2,W2", "S9 is out of range: the network has sources S1..S4"),
    ("S1,W9,S2,W2", "W9 is out of range: the network has destinations W1..W4"),
])
def test_obstruct_names_out_of_range_cycle_labels(cycle, message, capsys):
    code = cli.main(["obstruct", "--network", str(FOURBYFOUR), "--cycle", cycle])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE
    assert captured.out == ""
    assert captured.err == f"error: obstruction: {message}\n"


# "²" and "١" pass str.isdigit, and int() rejects the first and reads the second as 1; an empty
# --cycle is one empty label, not a request for the shortest cycle
@pytest.mark.parametrize("cycle", ["S\u00b2,W1,S2,W2", "S\u0661,W1,S2,W2", "S0,W1,S2,W2", "S1,W0,S2,W2", "S1,,S2,W2", ""])
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


def test_decode_failure_exit_code_mapping(monkeypatch, capsys):
    # D3 also decodes its interference representative, so its system has two equal
    # columns and no unique solution: a failed decode, reported and mapped to exit 5
    real = cli.plan_with_resampling

    def rank_deficient(*args, **kwargs):
        plan = real(*args, **kwargs)
        demands = list(plan.new_demands)
        demands[2] = demands[2] | {min(plan.new_interference[2])}
        return dataclasses.replace(plan, new_demands=tuple(demands))

    monkeypatch.setattr(cli, "plan_with_resampling", rank_deficient)
    for command in ("pipeline", "simulate"):
        code = cli.main([command, "--network", str(FOURBYFOUR), "--sessions", "3", "--format", "json"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DECODE
        sim = json.loads(captured.out)["simulation"]
        assert (sim["decode_checks"], sim["successes"]) == (12, 9)
        assert captured.err == "error: simulate: 3 of 12 decodes failed\n"


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
    # 3 attempts, the first two failing verification
    pytest.param("precode", "networks/fourbyfour.json", ("--q", "31", "--seed", "1"), cli.EXIT_OK,
                 id="precode-fourbyfour-q31-seed1"),
    pytest.param("pipeline", "networks/forest.json", ("--q", "31", "--seed", "6"), cli.EXIT_OK,
                 id="pipeline-forest-q31-seed6"),
    # 4 attempts, the first three failing verification; the plan decodes although some
    # transfers it does not invert vanish at some slot
    pytest.param("precode", "networks/fourbyfour.json", ("--q", "7", "--seed", "3"), cli.EXIT_OK,
                 id="precode-fourbyfour-q7-seed3"),
    # over F_2 some decode system is singular in each of the 20 attempts, yet the network decodes at q = 7
    pytest.param("precode", "networks/fourbyfour.json", ("--q", "2", "--seed", "3"),
                 cli.EXIT_CONSTRAINTS, id="precode-fourbyfour-q2-seed3"),
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


def test_every_golden_file_is_read_by_a_case():
    # a missing golden stands for empty output, so a renamed or dropped case would leave its
    # old file behind unchecked
    read = set()
    for case in GOLDEN_CASES:
        read |= {f"{case.id}.{'txt' if 'text' in case.values[2] else 'json'}", f"{case.id}.stderr"}
    assert sorted({path.name for path in GOLDEN.iterdir()} - read) == []


EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
# (exit code, sha256 of stdout, sha256 of stderr) of `pbna <command> --network <network>
# --format text --sessions 5`, run from the repository root; JSON schema changes leave these alone
TEXT_REPORT_PINS = {
    ("validate", "fourbyfour"): (0, "0b01211a0c67e8ff410a89f98ffde032231e609d50a2f04a4fa80b05c1228a62", EMPTY_SHA256),
    ("igraph", "fourbyfour"): (0, "2a93573f824991a46be2e7bc55ae84cbc049247d375cb3a09b6045ab9df9507c", EMPTY_SHA256),
    ("dstar", "fourbyfour"): (0, "889fd20d94022ff9493a54cf91231c1046027f8a1423cddfec443b818e61f4a1", EMPTY_SHA256),
    ("precode", "fourbyfour"): (0, "6c53efa46e1ae312236d857d39e1d8b533614d857e58b08234de4291c69b33ce", EMPTY_SHA256),
    ("obstruct", "fourbyfour"): (0, "f66493867e3d835314fc46772708e6d1332a3c7b2efa5766d764d479cd029602", EMPTY_SHA256),
    ("simulate", "fourbyfour"): (0, "0ed370b1dcf2b570077883136ed861b9c808c201214350e47d02c5fb2ec5b21d", EMPTY_SHA256),
    ("pipeline", "fourbyfour"): (0, "842b2a5fed907072b7b8c31961bbcec6353e4037bab060586ffccf5355be8afb", EMPTY_SHA256),
    ("validate", "forest"): (0, "0b01211a0c67e8ff410a89f98ffde032231e609d50a2f04a4fa80b05c1228a62", EMPTY_SHA256),
    ("igraph", "forest"): (0, "5a6e4e524dc1a8081d3ed7a60c1421211e4823ea6455d9db2af5586d5fa2f7d9", EMPTY_SHA256),
    ("dstar", "forest"): (0, "d5f45cd2e8a6172ee469fd6cc078a19990b47a5554ce4996f2a529bbea2d152f", EMPTY_SHA256),
    ("precode", "forest"): (0, "4285e22f9f91f0a299b77b8a7e17c7fc552494da927ecfaecfb0ded70d9f9b85", EMPTY_SHA256),
    ("obstruct", "forest"): (0, "cc488b503b779e6bc2797e656d8f1e5af49122a78aebc1f60bb7b8aad2002049", EMPTY_SHA256),
    ("simulate", "forest"): (0, "23075e039ec81d831eb072929e351f39659244b65a8498b68a2b6c0d77b66d2d", EMPTY_SHA256),
    ("pipeline", "forest"): (0, "986826f7b64c095b02eefa37ca0703c96f87340c066a1eee99803a890f724546", EMPTY_SHA256),
}


def test_text_reports_are_pinned(monkeypatch, capsys):
    assert {command for command, _ in TEXT_REPORT_PINS} == set(cli._COMMANDS)
    monkeypatch.chdir(REPO)
    for (command, network_name), pin in TEXT_REPORT_PINS.items():
        code = cli.main([command, "--network", f"networks/{network_name}.json", "--format", "text", "--sessions", "5"])
        captured = capsys.readouterr()
        got = (code, hashlib.sha256(captured.out.encode()).hexdigest(), hashlib.sha256(captured.err.encode()).hexdigest())
        assert got == pin, (command, network_name, captured.out)


# sha256 of `pbna pipeline --network forest160.json --format json --sessions 2` on
# gen.forest_instance(np.random.default_rng(160), size=160): an 11,910-byte report whose
# interference edges are the pairs joined by a path less the demanded ones
K160_PIPELINE_SHA256 = "a80b22935eafba134af17d6e068823fac86b457ee9b9a675cb6e16c24c70fda2"


def test_k160_forest_pipeline_report_is_pinned(tmp_path, monkeypatch, capsys):
    net, _ = forest_instance(np.random.default_rng(160), size=160)
    (tmp_path / "forest160.json").write_text(net_to_json(net))
    monkeypatch.chdir(tmp_path)
    code = cli.main(["pipeline", "--network", "forest160.json", "--format", "json", "--sessions", "2"])
    out = capsys.readouterr().out.encode()
    assert code == cli.EXIT_OK
    assert len(out) == 11_910
    assert hashlib.sha256(out).hexdigest() == K160_PIPELINE_SHA256


# sha256 of `pbna pipeline --network cyclic160.json --format json --sessions 2` on
# gen.cyclic_instance(np.random.default_rng(160), 160): K = M = 160, L = 2, 776 interference
# edges at density 0.03, d* = 4 after 1 augmentation, so the report pins find_dstar's
# removal and the shortest cycle the obstruction section names.  The degree count rules
# out d = 3, so find_dstar scans only d = 4: independence_checks reads 776, one scan.
# The removal is the complement of the capped forest the scan and one augmentation keep
# at d = 4, extended to a spanning tree
K160_CYCLIC_PIPELINE_SHA256 = "9d501afc805de5c3ceaba5e2ea4b340889ddabc583f888fca4844b8210c1db19"


def test_k160_cyclic_pipeline_report_is_pinned(tmp_path, monkeypatch, capsys):
    net, _ = cyclic_instance(np.random.default_rng(160), 160)
    (tmp_path / "cyclic160.json").write_text(net_to_json(net))
    monkeypatch.chdir(tmp_path)
    code = cli.main(["pipeline", "--network", "cyclic160.json", "--format", "json", "--sessions", "2"])
    out = capsys.readouterr().out.encode()
    assert code == cli.EXIT_OK
    assert len(out) == 32_943
    assert hashlib.sha256(out).hexdigest() == K160_CYCLIC_PIPELINE_SHA256


def test_pinned_reports_pass_the_benchmark_checks(tmp_path, monkeypatch, capsys):
    # pipebench/checks.py decides whether a benchmark call was correct; a re-pinned report that
    # it would call incorrect must fail here, not first in the benchmark
    monkeypatch.syspath_prepend(str(REPO / "pipebench"))
    from checks import report_problems

    forest_l = network.load_network_file(FOREST).demand_size
    fourbyfour_l = network.load_network_file(FOURBYFOUR).demand_size
    for name, demand_size, expected in (("pipeline-forest", forest_l, {"forest": True}),
                                        ("pipeline-forest-q31-seed6", forest_l, {"forest": True}),
                                        ("pipeline-fourbyfour", fourbyfour_l, {"d_star": 1})):
        report = json.loads((GOLDEN / f"{name}.json").read_text())
        assert report_problems(cli.EXIT_OK, report, demand_size, **expected) == [], name
    monkeypatch.chdir(tmp_path)
    for name, (net, interference), pin, expected in (
            ("forest160", forest_instance(np.random.default_rng(160), size=160), K160_PIPELINE_SHA256,
             {"forest": True}),
            ("cyclic160", cyclic_instance(np.random.default_rng(160), 160), K160_CYCLIC_PIPELINE_SHA256,
             {"forest": False, "d_star": 4})):
        (tmp_path / f"{name}.json").write_text(net_to_json(net))
        code = cli.main(["pipeline", "--network", f"{name}.json", "--format", "json", "--sessions", "2"])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == pin, name
        assert report_problems(code, json.loads(out), net.demand_size, interference=interference, **expected) == [], name


def _rows_implied_by(network_file: dict, report: dict) -> list[dict]:
    """Each destination's alignment dimensions as an accepted plan fixes them, from JSON alone.

    The decoded sources at D_i are its demands plus ``extra_decode[i]``; the
    sparsified graph keeps the interference edges at W_i whose source is not
    in ``extra_decode[i]``, and they align into one dimension.
    """
    extra_decode = report["sparsification"]["extra_decode"]
    kept_at = {w for source, w in report["interference_graph"]["edges"] if source not in extra_decode[int(w[1:]) - 1]}
    return [
        {"destination": f"D{i + 1}", "dim_u": len({f"S{j}" for j in demands} | set(extra_decode[i])),
         "dim_w": int(f"W{i + 1}" in kept_at), "dim_intersection": 0, "ok": True, "r_det_nonzero": True}
        for i, demands in enumerate(network_file["demands"])
    ]


def test_reports_imply_the_measured_ranks(tmp_path, monkeypatch, capsys):
    # a report writes no alignment rows: an accepted plan fixes them from the demands, extra_decode
    # and the interference edges, and on every written report those rows must equal the four-rank
    # oracle's dimensions on the plan.  A precode report holds neither input, so its rows come from
    # the igraph and dstar reports of the same configuration
    runs = []

    class RecordedRun(cli.Run):
        def __init__(self, cfg):
            super().__init__(cfg)
            runs.append(self)

    monkeypatch.setattr(cli, "Run", RecordedRun)
    path, out = tmp_path / "net.json", tmp_path / "report.json"
    rng = np.random.default_rng(113)
    draws = (random_dag_net, random_multiterminal_dag, hub_relay_net)
    written = {"default q": 0, "q = 31": 0}
    seen = {"no interferer": 0, "two or more interferers": 0, "attempts > 1": 0}
    draw = 0
    while written["default q"] < 300 or written["q = 31"] < 80:
        net = draws[draw % 3](rng)
        draw += 1
        if not network.validate_assumptions(net).ok:
            continue
        field = "default q" if written["default q"] < 300 else "q = 31"
        path.write_text(net_to_json(net))
        out.unlink(missing_ok=True)
        command = ("precode", "pipeline")[draw % 2]
        options = ["--network", str(path), "--format", "json", "--sessions", "2", "--seed", str(draw),
                   *(("--q", "31") if field == "q = 31" else ())]
        code = cli.main([command, *options, "--out", str(out)])
        capsys.readouterr()
        if code == cli.EXIT_CONSTRAINTS:
            assert not out.exists()
            continue
        assert code == cli.EXIT_OK, (draw, command, field)
        plan = runs[-1].plan
        report = json.loads(out.read_text())
        assert "verdicts" not in report["precoding"]
        if command == "precode":
            for sibling in ("igraph", "dstar"):
                assert cli.main([sibling, *options]) == cli.EXIT_OK
                sections = json.loads(capsys.readouterr().out)
                assert sections.pop("config") == report["config"]
                report.update(sections)
        assert "removed_edges" not in report["sparsification"]
        extra_decode = report["sparsification"]["extra_decode"]
        extra = [[source, f"W{i + 1}"] for i, ed in enumerate(extra_decode) for source in ed]
        assert all(edge in report["interference_graph"]["edges"] for edge in extra), (draw, command, field)
        want = [dict(v._asdict(), destination=f"D{v.destination + 1}") for v in verdicts_by_ranks(plan)]
        assert _rows_implied_by(json.loads(path.read_text()), report) == want, (draw, command, field)
        written[field] += 1
        seen["no interferer"] += sum(not f for f in plan.new_interference)
        seen["two or more interferers"] += sum(len(f) >= 2 for f in plan.new_interference)
        seen["attempts > 1"] += plan.attempts > 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("seed", range(8))
def test_exit_4_names_the_failure_reason(seed, tmp_path, capsys):
    # on a K = 48 forest over F_7 every attempt fails verification; 20 random draws cannot show
    # that a decoding determinant vanishes identically, and the message must not claim it
    net, _ = forest_instance(np.random.default_rng(48), size=48)
    path = tmp_path / "forest48.json"
    path.write_text(net_to_json(net))
    code = cli.main(["precode", "--network", str(path), "--q", "7", "--seed", str(seed)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONSTRAINTS
    assert err.startswith("error: precoding: no valid assignment found in 20 attempts"), err
    for claim in ("determinant", "vanish", "unachievable", "zero_at_assignment"):
        assert claim not in err


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


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 14.9 GiB for an array with shape (100000000, 20) and data type int64",
     "Unable to allocate 14.9 GiB for an array with shape (100000000, 20) and data type int64"),
    ("", "out of memory"),  # the interpreter's own MemoryError carries no message
])
def test_memory_error_exits_2_with_memory_prefix(message, shown, monkeypatch, capsys):
    # a huge trial count makes realize ask for a (trials, coefficients) array it
    # cannot get; stand in for that failure without allocating anything
    def too_big(*args, **kwargs):
        raise MemoryError(message)

    # the probe's realization, then the ratio's one realization after a probe that ran
    for module, command, options in ((cli, "igraph", ()), (obstruction, "obstruct", ("--ratio-trials", "100000000"))):
        with monkeypatch.context() as patch:
            patch.setattr(module, "realize", too_big)
            code = cli.main([command, "--network", str(FOURBYFOUR), *options])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE, command
        assert captured.out == ""
        assert captured.err == f"error: memory: {shown}\n"


def test_every_command_exits_with_a_documented_code_on_random_networks(tmp_path, capsys):
    # each run ends in 0, 2, 3, 4 or 5 with no exception escaping; every nonzero exit prints an
    # error line, but validate's 3, which writes its report instead
    rng = np.random.default_rng(41)
    path = tmp_path / "net.json"
    draws = (random_dag_net, random_multiterminal_dag, hub_relay_net,
             lambda r: cyclic_instance(r, int(r.integers(3, 7)), density=0.4)[0])
    seen = collections.Counter()
    for draw in range(200):
        path.write_text(net_to_json(draws[draw % len(draws)](rng)))
        for command in cli._COMMANDS:
            q = (2, 3, 7, 31, gf.DEFAULT_Q)[int(rng.integers(5))]
            code = cli.main([command, "--network", str(path), "--q", str(q), "--seed", str(int(rng.integers(1000))),
                             "--attempts", "3", "--sessions", "3", "--format", "json"])
            err = capsys.readouterr().err
            assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_ASSUMPTIONS, cli.EXIT_CONSTRAINTS, cli.EXIT_DECODE)
            silent = code == cli.EXIT_OK or (command, code) == ("validate", cli.EXIT_ASSUMPTIONS)
            assert (err == "") == silent and (silent or err.startswith("error: ")), (command, code, err)
            if (command, code) == ("pipeline", cli.EXIT_ASSUMPTIONS):
                assert err.startswith("error: network: mincut assumptions violated for: (D"), err
            seen[command, code] += 1
    assert seen["pipeline", cli.EXIT_ASSUMPTIONS] and seen["validate", cli.EXIT_ASSUMPTIONS], seen
    assert seen["pipeline", cli.EXIT_OK] and seen["precode", cli.EXIT_CONSTRAINTS], seen


@pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--ratio-trials", "1"), ("--sessions", "0"),
                                           ("--attempts", "0")])
def test_out_of_range_option_exits_2_with_config_prefix(option, value, capsys):
    code = cli.main(["obstruct", "--network", str(FOURBYFOUR), option, value])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE
    assert captured.out == ""
    assert captured.err.startswith(f"error: config: {option} must be at least ")


def test_igraph_text_is_dot_listing_every_edge(capsys):
    assert cli.main(["igraph", "--network", str(FOURBYFOUR)]) == cli.EXIT_OK
    dot = capsys.readouterr().out
    assert dot.startswith("graph interference {")
    assert dot.count(" -- ") == 8
    assert '"S1" -- "W1";' in dot
    assert dot.endswith("}\ncyclic: True\n")


def test_zero_trials_is_not_an_option(capsys):
    # the probe's slot count and field are fixed, so there is no knob for them
    with pytest.raises(SystemExit) as info:
        cli.main(["igraph", "--network", str(FOURBYFOUR), "--zero-trials", "3"])
    captured = capsys.readouterr()
    assert info.value.code == cli.EXIT_PARSE
    assert captured.out == ""
    assert "error: unrecognized arguments: --zero-trials 3" in captured.err


def _count_stage_calls(monkeypatch) -> tuple[collections.Counter, dict]:
    """Count the calls of each stage a Run makes, and of realize wherever it is looked up; keep each last result."""
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
    return calls, results


@pytest.mark.parametrize("network_path", [FOREST, FOURBYFOUR], ids=["forest", "fourbyfour"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_command_runs_each_stage_once(command, network_path, monkeypatch, capsys):
    calls, results = _count_stage_calls(monkeypatch)
    assert cli.main([command, "--network", str(network_path), "--format", "json", "--sessions", "2"]) == cli.EXIT_OK
    capsys.readouterr()
    # validate reads its interference warning off the mincut rows, so it draws no coefficients
    probes = 0 if command == "validate" else 1
    assert calls["load_network_file"] == 1 and calls["build_igraph"] == probes
    assert calls["find_dstar"] <= 1 and calls["plan_with_resampling"] <= 1 and calls["cycle_ratio"] <= 1
    attempts = results["plan_with_resampling"].attempts if "plan_with_resampling" in results else 0
    # the probe, one realization whose slots are the ratio trials, the precoding attempts
    assert calls["realize"] == probes + calls["cycle_ratio"] + attempts


GRAPH_COMMANDS = ["igraph", "dstar", "obstruct", "precode", "simulate", "pipeline"]


@pytest.mark.parametrize("seed", [12, 25])
@pytest.mark.parametrize("command", GRAPH_COMMANDS)
def test_probe_that_missed_an_edge_exits_3(command, seed, monkeypatch, capsys):
    # a probe whose row at a pair a path joins is all zero stands for a miss, which over
    # F_(2^31-1) is too rare to draw; the graph is checked against the pairs a path joins, so
    # every command that builds it stops before it uses it
    net = network.load_network_file(FOREST)
    i, j = (int(side[seed % 3]) for side in net.interference)  # a joined, non-demanded pair
    calls, _ = _count_stage_calls(monkeypatch)
    counting_realize = cli.realize

    def missing_one_edge(*args):
        realization = counting_realize(*args)
        transfer = realization.transfer.copy()
        transfer[net.row(i, j)] = 0
        return dataclasses.replace(realization, transfer=transfer)

    monkeypatch.setattr(cli, "realize", missing_one_edge)
    code = cli.main([command, "--network", str(FOREST), "--seed", str(seed), "--format", "json"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_ASSUMPTIONS
    assert captured.out == ""
    assert captured.err.startswith("error: probe: the interference graph misses (D")
    assert captured.err.startswith(f"error: probe: the interference graph misses (D{i + 1}, S{j + 1}): ")
    assert "--seed" in captured.err
    # the probe's realize is the only one that ran
    assert calls == {"load_network_file": 1, "build_igraph": 1, "realize": 1}


def _graph_answer(command, path, *options, capsys):
    """The graph-derived content of igraph's, dstar's or obstruct's report; the command must exit 0."""
    code = cli.main([command, "--network", str(path), "--format", "json", *options])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OK, (command, path.name, options, captured.err)
    report = json.loads(captured.out)
    if command == "igraph":
        return report["interference_graph"], report["cyclic"]
    if command == "dstar":
        return report["sparsification"]
    # the ratio evaluations and their verdict depend on q and seed; the cycle does not
    return report["obstruction"] and report["obstruction"]["cycle"], report["cyclic"]


def test_graph_commands_at_every_q_give_the_default_q_answer(tmp_path, capsys):
    # the graph is a property of the topology, so the probe runs over the default field whatever
    # --q is: at a small q every graph-building command answers exactly as at the default q
    (tmp_path / "forest48.json").write_text(net_to_json(forest_instance(np.random.default_rng(48), size=48)[0]))
    # dense enough for cycles: d* = 3
    (tmp_path / "cyclic40.json").write_text(net_to_json(cyclic_instance(np.random.default_rng(40), 40, density=0.1)[0]))
    paths = [*sorted((REPO / "networks").glob("*.json")), tmp_path / "forest48.json", tmp_path / "cyclic40.json"]
    for path, command in itertools.product(paths, ("igraph", "dstar", "obstruct")):
        expected = _graph_answer(command, path, capsys=capsys)
        for q, seed in itertools.product((2, 3, 7, 31), range(40)):
            assert _graph_answer(command, path, "--q", str(q), "--seed", str(seed), capsys=capsys) == expected, \
                (command, path.name, q, seed)


def test_validate_interference_warning_does_not_depend_on_q_or_seed(tmp_path, capsys):
    # the warning lists the destinations no non-demanded source reaches; a zero-function probe
    # at small q once missed interference and warned about destinations that have it
    net, _ = forest_instance(np.random.default_rng(48), size=48)
    (tmp_path / "forest48.json").write_text(net_to_json(net))
    for path in (FOREST, tmp_path / "forest48.json"):
        def empty_interference(*options):
            assert cli.main(["validate", "--network", str(path), "--format", "json", *options]) == cli.EXIT_OK
            return json.loads(capsys.readouterr().out)["assumptions"]["empty_interference"]

        expected = empty_interference()
        for q, seed in itertools.product((2, 3, 7), range(40)):
            assert empty_interference("--q", str(q), "--seed", str(seed)) == expected, (path, q, seed)


def test_interference_warning_equals_the_default_q_probe(tmp_path):
    # reading the warning off the mincut table left every default-q report as it was
    (tmp_path / "forest160.json").write_text(net_to_json(forest_instance(np.random.default_rng(160), size=160)[0]))
    (tmp_path / "cyclic160.json").write_text(net_to_json(cyclic_instance(np.random.default_rng(160), 160)[0]))
    for path in (FOREST, FOURBYFOUR, REPO / "tests" / "violating.json", *tmp_path.iterdir()):
        run = cli.Run(cli.RunConfig(network_path=str(path)))
        graph = build_igraph(run.net, network.realize(run.net, 3, 0))
        probe = [f"D{i + 1}" for i in range(graph.n_destinations) if not graph.interferers(i)]
        assert cli._assumptions_section(run)["empty_interference"] == probe, path


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


def test_json_reports_match_json_dumps_on_a_k48_forest(tmp_path, capsys):
    net, _ = forest_instance(np.random.default_rng(48), size=48)
    path = tmp_path / "forest48.json"
    path.write_text(net_to_json(net))
    for command in cli._COMMANDS:
        code = cli.main([command, "--network", str(path), "--format", "json", "--sessions", "3"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK, command
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n", command
        assert out.count("\n") == 1, command


def _fuzz_value(rng: random.Random, depth: int):
    """A random JSON value: nested dicts and lists of ints, floats, bools, None and strings
    that hold newlines, quotes, backslashes and non-ASCII characters."""
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return rng.choice([
            lambda: rng.randrange(-10**20, 10**20), lambda: rng.uniform(-1e6, 1e6), lambda: rng.random() < 0.5,
            lambda: None, lambda: "".join(rng.choice('ab\n"\\\u00e9\u2192 ') for _ in range(rng.randrange(6))),
        ])()
    children = [_fuzz_value(rng, depth - 1) for _ in range(rng.randrange(5))]
    if roll < 0.7:
        return {rng.choice("zyxDS\n") + str(t): child for t, child in enumerate(children)}
    return children


def test_emitter_matches_json_dumps_on_random_values(tmp_path, capsys):
    cfg = cli.RunConfig(network_path="unused.json", fmt="json")
    out_cfg = cli.RunConfig(network_path="unused.json", fmt="json", out=str(tmp_path / "report.json"))
    rng = random.Random(71)
    for _ in range(2_000):
        value = {"schema_version": cli.SCHEMA_VERSION, "payload": _fuzz_value(rng, 3)}
        cli._emit(cfg, value, "unused text")
        out = capsys.readouterr().out
        assert out == json.dumps(value, sort_keys=True) + "\n", value
        assert out.count("\n") == 1 and json.loads(out) == value
        cli._emit(out_cfg, value, "unused text")
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == out
        assert capsys.readouterr().out == f"report written to {out_cfg.out}\n"


@pytest.mark.parametrize("command", ["validate", "pipeline"])
def test_text_reports_never_render_the_mincut_rows(command, monkeypatch, capsys):
    # the text report of a run whose mincut rows are emptied is the text report of the real run;
    # validate writes the rows into its JSON report, pipeline writes no mincut key at all
    reports = {}
    for rows in ("real", "emptied"):
        if rows == "emptied":
            monkeypatch.setattr(cli, "_mincut_rows", lambda report: [])
        for fmt in ("text", "json"):
            assert cli.main([command, "--network", str(FOREST), "--format", fmt]) == cli.EXIT_OK
            reports[rows, fmt] = capsys.readouterr().out
    assert reports["real", "text"] == reports["emptied", "text"]
    if command == "validate":
        assert json.loads(reports["real", "json"])["assumptions"]["mincuts"]
        assert reports["real", "json"] != reports["emptied", "json"]
    else:
        assert "mincuts" not in json.loads(reports["real", "json"])["assumptions"]
        assert reports["real", "json"] == reports["emptied", "json"]


def test_pipeline_report_implies_the_mincut_table(tmp_path, capsys):
    # pipeline writes no mincut rows: on a valid network with an exact interference graph they are
    # the demanded pairs plus the graph's edges, each with mincut 1 and ok, as validate lists them
    path = tmp_path / "net.json"
    rng = np.random.default_rng(37)
    draws = (random_dag_net, random_multiterminal_dag, hub_relay_net)
    seen = {"reports": 0, "interference edges": 0, "demanded pairs": 0}
    draw = 0
    while seen["reports"] < 300:
        net = draws[draw % 3](rng)
        draw += 1
        if not network.validate_assumptions(net).ok:
            continue
        network_file = net_to_json(net)
        path.write_text(network_file)
        options = ["--network", str(path), "--format", "json", "--sessions", "1", "--seed", str(draw)]
        code = cli.main(["pipeline", *options])
        out = capsys.readouterr().out
        if code == cli.EXIT_CONSTRAINTS:
            continue
        assert code == cli.EXIT_OK, draw
        report = json.loads(out)
        assert "mincuts" not in report["assumptions"]
        # (destination, source) numbers from 1: the file's demands are 1-based source indices
        demands = json.loads(network_file)["demands"]
        demanded = {(i + 1, j): True for i, sources in enumerate(demands) for j in sources}
        edges = {(int(w[1:]), int(source[1:])): False for source, w in report["interference_graph"]["edges"]}
        rebuilt = [{"demanded": d, "destination": f"D{i}", "mincut": 1, "ok": True, "source": f"S{j}"}
                   for (i, j), d in sorted({**demanded, **edges}.items())]
        assert cli.main(["validate", *options]) == cli.EXIT_OK
        assert rebuilt == json.loads(capsys.readouterr().out)["assumptions"]["mincuts"], draw
        seen["reports"] += 1
        seen["interference edges"] += len(report["interference_graph"]["edges"])
        seen["demanded pairs"] += len(demanded)
    assert min(seen.values()) >= 300, seen


def test_a_network_that_joins_no_pair(tmp_path, capsys, monkeypatch):
    # P = 0: a realization is one zero row, the graph has no edge, and no destination decodes
    net = network.Network(("S1", "S2", "D1", "D2"), (), ("S1", "S2"), ("D1", "D2"), ([0], [1]))
    assert net.joined.tolist() == []
    assert net.row([0, 1, 1], [1, 0, -1]).tolist() == [0, 0, 0]
    assert network.realize(net, 3, 0).transfer.tolist() == [[0, 0, 0]]
    path = tmp_path / "edgeless.json"
    path.write_text(net_to_json(net))

    def run(command):
        code = cli.main([command, "--network", str(path), "--format", "json"])
        out, err = capsys.readouterr()
        return code, json.loads(out) if out else err

    code, report = run("igraph")
    assert code == cli.EXIT_OK
    assert not report["cyclic"]
    assert report["interference_graph"] == {"destinations": 2, "edges": [], "empty_destinations": ["W1", "W2"],
                                            "sources": 2}
    code, report = run("dstar")
    assert code == cli.EXIT_OK
    assert report["sparsification"] == {"components": [], "d_star": 0, "extra_decode": [[], []],
                                        "independence_checks": 0}
    # no path joins either demanded pair, so precode and simulate exit 3 before any precoding draw
    draws = []
    monkeypatch.setattr(precoding, "realize", lambda *args: draws.append(args))
    for command in ("precode", "simulate"):
        assert run(command) == (cli.EXIT_ASSUMPTIONS, "error: network: mincut assumptions violated for: "
                                "(D1, S1) mincut=0, (D2, S2) mincut=0 (every demanded pair needs mincut exactly 1, "
                                "others at most 1)\n")
    assert draws == []


def test_mincut_table_lists_the_pairs_joined_by_a_path_or_demanded(tmp_path, capsys):
    nx = pytest.importorskip("networkx")
    path = tmp_path / "net.json"
    rng = np.random.default_rng(18)
    seen = {"unreachable_demanded": 0, "colocated": 0, "parallel": 0, "at_least_2": 0}
    for _ in range(400):
        net = random_multiterminal_dag(rng)
        path.write_text(net_to_json(net))
        code = cli.main(["validate", "--network", str(path), "--format", "json"])
        section = json.loads(capsys.readouterr().out)["assumptions"]
        table = mincut_table(net, mincut_by_networkx)
        rows = rows_of_table(net, table)
        assert network.validate_assumptions(net).rows == rows, net_to_json(net)
        ok = all(row[4] for row in rows)
        assert code == (cli.EXIT_OK if ok else cli.EXIT_ASSUMPTIONS)
        g = nx.MultiDiGraph(list(net.edges))
        g.add_nodes_from(net.nodes)
        # a co-located pair has only the empty path, and mincut 0
        reached = {(i, j) for i, t in enumerate(net.destinations) for j, s in enumerate(net.sources)
                   if s != t and nx.has_path(g, s, t)}
        demanded = {(i, j) for i, sources in enumerate(net.demands) for j in sources}
        # the pairs the probe is checked against are this reach relation, numbered in row-major order
        assert [divmod(key, net.n_sources) for key in net.joined.tolist()] == sorted(reached), net_to_json(net)
        assert [int(net.row(i, j)) for i, j in sorted(reached)] == list(range(len(reached))), net_to_json(net)
        assert [row[:2] for row in rows] == sorted(reached | demanded), net_to_json(net)
        assert section["mincuts"] == [{"demanded": d, "destination": f"D{i + 1}", "mincut": cut, "ok": pair_ok,
                                       "source": f"S{j + 1}"} for i, j, cut, d, pair_ok in rows]
        assert section["ok"] == ok
        assert section["violations"] == [{"demanded": d, "destination": f"D{i + 1}", "mincut": cut,
                                          "source": f"S{j + 1}"} for i, j, cut, d, pair_ok in rows if not pair_ok]
        seen["unreachable_demanded"] += len(demanded - reached)
        seen["colocated"] += len(set(net.sources) & set(net.destinations))
        seen["parallel"] += len(set(net.edges)) < len(net.edges)
        seen["at_least_2"] += int((table >= 2).sum())
    assert all(seen.values()), seen
