#!/usr/bin/env python3
"""End-to-end benchmark of ``pbna pipeline``, with a separate traced run per layer.

Run from the repository root:

    python3 pipebench/run.py --workload forest_k48 --seed 0 --seconds 30 --trace 0

Each workload is a closed loop in this one process.  It draws a few instances
from the seed and calls ``pbna.cli.main(["pipeline", ...])`` in-process on them
in turn, until ``--seconds`` have passed.  Every call writes its instance as a
network file with freshly named relays, so no two calls read the same file,
and every report is checked.  ``--trace 0`` reports the end-to-end metrics,
measured untraced.  It samples the host's speed with a small fixed reference
workload throughout each call (see ``reference.py``); ``pipeline_s`` is the
median over the calls of each call's time over the mean reference time during
it, scaled to a fixed reference speed.  ``--trace 1`` makes every call
untraced and then traced (see ``spans.py``) and reports the per-layer
metrics.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.  Network files, reports and the recorded spans go
to ``.pipebench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

from checks import report_problems
from instances import generate
from reference import REFERENCE_UNIT_S, SpeedSampler
from spans import LAYERS, TraceError, Tracer, inclusive_seconds, self_seconds

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".pipebench"
RELAY_FRACTION = 0.3
INSTANCES_PER_RUN = 3


@dataclass(frozen=True)
class Workload:
    size: int  # K = M
    demand_size: int  # L
    density: float
    forest: bool
    sessions: int
    graph_seed: str | None  # one interference graph for every seed; only routes and coding seeds vary


# Each workload makes one stage dominate pipeline time at the seed commit, in calls of about a
# second or less, so that a run holds dozens of calls.
WORKLOADS = {
    # validate: K*M = 2,304 mincut pairs on ~180 nodes; d* search is trivial on a forest.
    "forest_k48": Workload(48, 4, 0.1, True, 2, None),
    # find_dstar: a dense cyclic graph (~105 edges, d*=4) makes the greedy scan stall and fall
    # back to matroid-intersection augmentation.  Its cost swings several-fold from graph to
    # graph, so the graph is fixed and the seed varies the routes and the coding randomness.
    "cyclic_k20": Workload(20, 2, 0.3, False, 2, "cyclic_k20:graph:5"),
    # simulate: 80 sessions, each a Python propagation per slot and one exact solve per destination.
    "sessions_k16": Workload(16, 4, 0.1, True, 80, None),
}

PREFLIGHT = (
    ("networks/fourbyfour.json", {"forest": False, "d_star": 1}),
    ("networks/forest.json", {"forest": True}),
)

SETUP_STARTS = 7
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import pbna.cli; from pbna import kernels; kernels.warmup()"

# per-layer metric -> span name whose inclusive time it reports
SPAN_TIMES = {
    "network.load_s": "network.load",
    "network.validate_s": "network.validate",
    "network.mincut_s": "network.mincut",
    "network.realize_s": "network.realize",
    "interference.build_igraph_s": "interference.build_igraph",
    "interference.shortest_cycle_s": "interference.shortest_cycle",
    "obstruction.cycle_ratio_s": "obstruction.cycle_ratio",
    "sparsify.find_dstar_s": "sparsify.find_dstar",
    "precoding.plan_s": "precoding.plan",
    "simulate.run_session_s": "simulate.run_session",
    "simulate.propagate_symbols_s": "simulate.propagate_symbols",
    "gf.solve_s": "gf.solve",
    "gf.rank_s": "gf.rank",
    "kernels.row_reduce_s": "kernels.row_reduce",
    "kernels.propagate_s": "kernels.propagate",
}
# tracer counters reported as per-layer metrics under their own names
SPAN_COUNTS = (
    "network.mincut_calls", "network.realize_calls", "interference.edges",
    "sparsify.independence_checks", "sparsify.augmentations", "sparsify.d_star", "precoding.attempts",
    "simulate.decode_checks", "simulate.decode_failures", "gf.solve_calls", "gf.rank_calls",
    "kernels.row_reduce_calls", "kernels.propagate_calls", "kernels.propagate_madds",
)
# spans that fire on every instance of a workload; a refactor that drops one is caught
REQUIRED_SPANS = ("sparsify.find_dstar", "network.mincut")
REQUIRED_CYCLIC_SPANS = ("obstruction.cycle_ratio",)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return {"cli.report_bytes": "bytes", "precoding.useful_ratio": "ratio"}.get(metric, "count")


@dataclass
class Outcome:
    code: int
    seconds: float  # without the time the speed sampler took
    report: bytes | None
    unit_s: float | None = None  # mean reference unit time during the call


def run_pipeline(cli, net_path: Path, out_path: Path, sessions: int, seed: int,
                 tracer: Tracer | None = None, sampler: SpeedSampler | None = None) -> Outcome:
    """One in-process ``pipeline`` call, timed from reading the network to the report written."""
    # paths relative to the working directory keep the report, and its digest, independent of
    # where the checkout lives
    argv = ["pipeline", "--network", os.path.relpath(net_path), "--format", "json", "--out", os.path.relpath(out_path),
            "--sessions", str(sessions), "--seed", str(seed)]
    out_path.unlink(missing_ok=True)
    with redirect_stdout(io.StringIO()), (tracer.span("cli.main") if tracer else nullcontext()):
        mark = sampler.mark() if sampler else None
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an unmapped internal error fails this call, not the run
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - t0
    units, spent = sampler.since(mark) if sampler else ([], 0.0)
    report = out_path.read_bytes() if out_path.exists() else None
    return Outcome(code, seconds - spent, report, statistics.fmean(units) if units else None)


def problems_of(outcome: Outcome, demand_size: int, **expect) -> list[str]:
    try:
        report = json.loads(outcome.report) if outcome.report else None
        return report_problems(outcome.code, report, demand_size, **expect)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]


def layer_metrics(tracer: Tracer, untraced_s: float, report_bytes: int) -> dict:
    spans = tracer.spans
    incl = inclusive_seconds(spans)
    own = self_seconds(spans)
    counts = tracer.counters
    row = {f"{layer}.self_s": own[layer] for layer in LAYERS}
    row.update({m: incl[name] for m, name in SPAN_TIMES.items()})
    row.update({m: counts[m] for m in SPAN_COUNTS})
    row["simulate.sessions"] = counts["simulate.run_session_calls"]
    row["precoding.useful_ratio"] = 1 / counts["precoding.attempts"] if counts["precoding.attempts"] else 0.0
    row["cli.report_bytes"] = report_bytes
    row["trace.pipeline_s"] = incl["cli.main"]
    row["trace.overhead_s"] = incl["cli.main"] - untraced_s
    row["trace.spans"] = len(spans)
    return row


def check_spans_fired(tracer: Tracer, cyclic: bool) -> None:
    required = REQUIRED_SPANS + (REQUIRED_CYCLIC_SPANS if cyclic else ())
    silent = [name for name in required if tracer.counters[name + "_calls"] == 0]
    if silent:
        raise TraceError(f"traced spans recorded zero calls: {', '.join(silent)}")


def measure_setup() -> float:
    """Median wall time of fresh interpreters that import the CLI and warm the kernels."""
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def preflight(cli) -> list[str]:
    """Correctness gates on the shipped networks; returns the failures."""
    failures = []
    for rel, expect in PREFLIGHT:
        path = ROOT / rel
        demand_size = len(json.loads(path.read_text())["demands"][0])
        outcome = run_pipeline(cli, path, WORK / "preflight.json", 20, 0)
        failures += [f"{rel}: {p}" for p in problems_of(outcome, demand_size, **expect)]
    return failures


def measure_call(cli, name: str, w: Workload, seed: int, i: int, repeat: int,
                 tracer: Tracer | None, sampler: SpeedSampler | None) -> tuple[dict, dict | None]:
    """Generate, run and check call ``repeat`` on instance ``i``; with a tracer, run it a second time traced.

    Returns the call's record and, when traced, its per-layer metrics.
    """
    tag = f"{name}:{seed}:{i}"
    inst = generate(w.size, w.size, w.demand_size, w.density, RELAY_FRACTION, w.forest,
                    graph_seed=w.graph_seed or tag, route_seed=f"{tag}:routes", relay_tag=repeat)
    net_path, out_path = WORK / f"{name}.network.json", WORK / f"{name}.report.json"
    net_path.write_text(inst.to_json())
    pipeline_seed = seed * 1000 + i
    outcome = run_pipeline(cli, net_path, out_path, w.sessions, pipeline_seed, sampler=sampler)
    problems = problems_of(outcome, w.demand_size, interference=inst.interference, forest=w.forest)
    spars = json.loads(outcome.report)["sparsification"] if not problems else None
    record = {
        "instance": i, "repeat": repeat, "pipeline_seed": pipeline_seed,
        "pipeline_s": outcome.seconds, "unit_s": outcome.unit_s,
        "nodes": len(inst.mapping["nodes"]), "edges": len(inst.mapping["edges"]),
        "interference_edges": len(inst.interference),
        "components": len(spars["components"]) if spars else None,
        "d_star": spars["d_star"] if spars else None,
        "sha256": hashlib.sha256(outcome.report).hexdigest() if outcome.report else None,
        "problems": problems,
    }
    row = None
    if tracer is not None:
        tracer.reset()
        traced = run_pipeline(cli, net_path, out_path, w.sessions, pipeline_seed, tracer)
        check_spans_fired(tracer, cyclic=not w.forest)
        if traced.report != outcome.report:
            problems.append("traced report differs from the untraced one")
        row = layer_metrics(tracer, outcome.seconds, len(traced.report or b""))
        record["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    print(f"instance {i} call {repeat}: nodes={record['nodes']} edges={record['edges']} "
          f"interference_edges={record['interference_edges']} components={record['components']} "
          f"d_star={record['d_star']} pipeline_s={outcome.seconds:.4f} sha256={record['sha256']}"
          + (f" FAILED: {'; '.join(problems)}" if problems else ""), flush=True)
    return record, row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    name, w, traced = args.workload, WORKLOADS[args.workload], bool(args.trace)

    src = ROOT / "src"
    if not (src / "pbna" / "cli.py").is_file():
        print(f"error: no pbna sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pbna.cli as cli
    from pbna import kernels

    if Path(cli.__file__).resolve().parent != src / "pbna":
        print(f"error: imported pbna from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    setup_s = None if traced else measure_setup()
    kernels.warmup()

    gate_failures = preflight(cli)
    for failure in gate_failures:
        print(f"preflight FAILED: {failure}")

    records, rows = [], []
    tracer = Tracer() if traced else None
    sampler = None if traced else SpeedSampler()
    with tracer or nullcontext(), sampler or nullcontext():
        start = time.perf_counter()
        while len(records) < INSTANCES_PER_RUN or time.perf_counter() - start < args.seconds:
            repeat, i = divmod(len(records), INSTANCES_PER_RUN)
            record, row = measure_call(cli, name, w, args.seed, i, repeat, tracer, sampler)
            records.append(record)
            rows.append(row)

    # the calls on one instance differ only in relay names, which the report does not show
    first_sha = {r["instance"]: r["sha256"] for r in records if r["repeat"] == 0}
    for r in records:
        if r["sha256"] != first_sha[r["instance"]]:
            r["problems"].append("report differs from the first call on this instance")
    failed = sum(1 for r in records if r["problems"])
    if traced:
        # per-call means, so the layers' self times add up to trace.pipeline_s
        metrics = {m: statistics.fmean(row[m] for row in rows) for m in rows[0]}
        print("stage shares of traced pipeline_s: " + " ".join(
            f"{m}={metrics[m] / metrics['trace.pipeline_s']:.3f}"
            for m in ("network.validate_s", "sparsify.find_dstar_s", "simulate.run_session_s")))
    else:
        # a call too short to hold a timer tick (one that fails at once) takes the run's mean unit
        run_unit = statistics.fmean(sampler.units) if sampler.units else REFERENCE_UNIT_S
        metrics = {
            "pipeline_s": statistics.median(
                r["pipeline_s"] / (r["unit_s"] or run_unit) * REFERENCE_UNIT_S for r in records),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(f"{name}: {len(records)} calls on {INSTANCES_PER_RUN} instances, {failed} failed; "
          f"median of all untraced calls {statistics.median(r['pipeline_s'] for r in records):.4f} s"
          + ("" if traced else f"; {len(sampler.units)} reference units, mean {run_unit:.6f} s"))
    (WORK / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": name, "workload_params": asdict(w), "seed": args.seed,
                    "preflight_failures": gate_failures, "calls": records, "metrics": metrics}) + "\n")
    print(json.dumps({
        "correct": failed == 0 and not gate_failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except TraceError as exc:
        print(f"error: trace guard: {exc}", file=sys.stderr)
        sys.exit(3)
