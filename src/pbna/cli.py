"""Command-line front-end: validate -> igraph -> dstar -> precode -> simulate.

Every stage is independently invocable; ``pipeline`` composes them into one
consolidated report.  Reports render as human text or as deterministic JSON
(schema_version 1, sorted keys) so identical (file, config) pairs are
byte-identical.

Exit codes: 0 ok, 2 parse error, 3 assumption violation, 4 constraint
violation (no valid alignment), 5 decode failure (a decode system had no
unique solution, or a decode ran but recovered the wrong message).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .gf import DEFAULT_Q, InvalidModulus, check_modulus
from .interference import InterferenceGraph, build_igraph, has_cycle, shortest_cycle, to_dot
from .network import AssumptionViolation, Network, ParseError, load_network_file, realize, validate_assumptions
from .obstruction import CycleRatio, NotACycle, check_cycle, cycle_ratio, infeasibility_report
from .precoding import ConstraintViolation, PrecodingPlan, plan_with_resampling
from .simulate import DecodeFailure, rate_report, run_session
from .sparsify import SparsificationResult, find_dstar

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ASSUMPTIONS = 3
EXIT_CONSTRAINTS = 4
EXIT_DECODE = 5

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A command-line option is out of range."""


class OutputError(OSError):
    """The report could not be written to ``--out``."""


@dataclass
class RunConfig:
    """Resolved command-line options shared by all subcommands."""

    network_path: str
    q: int = DEFAULT_Q
    seed: int = 0
    max_attempts: int = 20
    zero_test_trials: int = 3
    ratio_trials: int = 5
    fmt: str = "text"
    out: str | None = None
    sessions: int = 100
    cycle: str | None = None

    def __post_init__(self) -> None:
        check_modulus(self.q)
        for name, low in (("seed", 0), ("max_attempts", 1), ("zero_test_trials", 1), ("ratio_trials", 2),
                          ("sessions", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"--{name.replace('_', '-')} must be at least {low}")


def _src(j: int) -> str:
    return f"S{j + 1}"


def _dst(i: int) -> str:
    return f"D{i + 1}"


def _cycle_labels(cycle) -> list[str]:
    return [(_src(idx) if kind == "x" else f"W{idx + 1}") for kind, idx in cycle]


# ---------------------------------------------------------------------------
# report sections (JSON-ready dicts)


def _config_section(cfg: RunConfig) -> dict:
    return {
        "network": cfg.network_path,
        "q": cfg.q,
        "seed": cfg.seed,
        "max_attempts": cfg.max_attempts,
        "zero_test_trials": cfg.zero_test_trials,
        "ratio_trials": cfg.ratio_trials,
    }


def _assumptions_section(report, graph: InterferenceGraph) -> dict:
    return {
        "ok": report.ok,
        "mincuts": [
            {"destination": _dst(p.destination), "source": _src(p.source),
             "mincut": p.mincut, "demanded": p.demanded, "ok": p.ok}
            for p in report.pairs
        ],
        "violations": [
            {"destination": _dst(p.destination), "source": _src(p.source), "mincut": p.mincut,
             "demanded": p.demanded}
            for p in report.violations
        ],
        "empty_interference": [_dst(i) for i in graph.empty_destinations()],
    }


def _igraph_section(graph: InterferenceGraph) -> dict:
    return {
        "sources": graph.n_sources,
        "destinations": graph.n_destinations,
        "edges": [[_src(j), f"W{i + 1}"] for j, i in sorted(graph.edges, key=lambda e: (e[1], e[0]))],
        "empty_destinations": [f"W{i + 1}" for i in graph.empty_destinations()],
    }


def _sparsification_section(spars: SparsificationResult) -> dict:
    removed = sorted(
        (j, i) for i, ed in enumerate(spars.extra_decode) for j in ed
    )
    return {
        "d_star": spars.d_star,
        "components": [
            {"sources": c.sources, "destinations": c.destinations, "edges": c.edges, "d": c.d}
            for c in spars.components
        ],
        "removed_edges": [[_src(j), f"W{i + 1}"] for j, i in removed],
        "extra_decode": [sorted(_src(j) for j in ed) for ed in spars.extra_decode],
        "independence_checks": spars.independence_checks,
    }


def _precoding_section(plan: PrecodingPlan) -> dict:
    return {
        "n": plan.n,
        "a": plan.a,
        "b": plan.b,
        "attempts": plan.attempts,
        "per_source_rate": f"{plan.a}/{plan.n}",
        "V": {_src(j): [int(x) for x in plan.V[j]] for j in range(plan.V.shape[0])},
        "verdicts": [
            {"destination": _dst(v.destination), "dim_u": v.dim_u, "dim_w": v.dim_w,
             "dim_intersection": v.dim_intersection, "ok": v.ok, "r_det_nonzero": v.r_det_nonzero}
            for v in plan.verdicts
        ],
    }


def _obstruction_section(obs, ratio: CycleRatio) -> dict:
    return {
        "cycle": _cycle_labels(ratio.cycle),
        "evaluations": [e for e in ratio.evaluations],
        "verdict": ratio.verdict,
        "four_by_four_cycle": obs.four_by_four_cycle,
        "claim": obs.claim,
        "statement": obs.statement,
    }


def _simulation_section(rr) -> dict:
    def frac(pair):
        return None if pair is None else f"{pair[0]}/{pair[1]}"

    return {
        "sessions": rr.sessions,
        "decode_checks": rr.decode_checks,
        "successes": rr.successes,
        "success_fraction": rr.success_fraction,
        "per_source_rate": frac(rr.per_source_rate),
        "sum_rate": frac(rr.sum_rate),
        "reference_rate": frac(rr.reference_rate),
        "sum_rate_ceiling": frac(rr.sum_rate_ceiling),
        "matches_reference": rr.matches_reference,
    }


# ---------------------------------------------------------------------------
# text rendering


def _text_assumptions(section: dict) -> str:
    lines = [f"assumptions: {'OK' if section['ok'] else 'VIOLATED'}"]
    for v in section["violations"]:
        kind = "demanded" if v["demanded"] else "interfering"
        lines.append(f"  violation: {kind} pair ({v['destination']}, {v['source']}) has mincut {v['mincut']}")
    if section["empty_interference"]:
        lines.append("  warning: no interference at " + ", ".join(section["empty_interference"]))
    return "\n".join(lines)


def _text_sparsification(section: dict) -> str:
    lines = ["sparsification:"]
    lines.append("  comp   K   M  |F|   d")
    for t, c in enumerate(section["components"]):
        lines.append(f"  {t + 1:>4} {c['sources']:>3} {c['destinations']:>3} {c['edges']:>4} {c['d']:>3}")
    lines.append(f"  d* = {section['d_star']}")
    for i, ed in enumerate(section["extra_decode"]):
        if ed:
            lines.append(f"  extra decode at {_dst(i)}: " + ", ".join(ed))
    return "\n".join(lines)


def _text_precoding(section: dict) -> str:
    lines = [f"precoding: n={section['n']} rate={section['per_source_rate']} attempts={section['attempts']}"]
    for src, vec in section["V"].items():
        lines.append(f"  V[{src}] = {vec}")
    for v in section["verdicts"]:
        lines.append(
            f"  {v['destination']}: dim_u={v['dim_u']} dim_w={v['dim_w']} "
            f"dim_int={v['dim_intersection']} ok={v['ok']}"
        )
    return "\n".join(lines)


def _text_simulation(section: dict) -> str:
    return (
        f"simulation: sessions={section['sessions']} "
        f"success={section['successes']}/{section['decode_checks']} "
        f"rate={section['per_source_rate']} sum_rate={section['sum_rate']} "
        f"ceiling={section['sum_rate_ceiling']}"
    )


def _text_obstruction(section: dict) -> str:
    lines = [
        "obstruction: cycle " + " - ".join(section["cycle"]),
        f"  ratio verdict: {section['verdict']} (claim: {section['claim']})",
        f"  {section['statement']}",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared stage runners


def _emit(cfg: RunConfig, report: dict, text: str) -> None:
    if cfg.fmt == "json":
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        payload = text if text.endswith("\n") else text + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise OutputError(exc.errno, exc.strerror, exc.filename) from exc
        print(f"report written to {cfg.out}")
    else:
        sys.stdout.write(payload)


def _probe_graph(net: Network, cfg: RunConfig) -> InterferenceGraph:
    """The run's one zero-function probe; it also decides which destinations lack interference."""
    probe = realize(net, cfg.zero_test_trials, cfg.seed, cfg.q)
    return build_igraph(net, probe, allow_empty=True)


def _parse_cycle_arg(net: Network, graph: InterferenceGraph, arg: str):
    """An explicit ``--cycle``: well formed, and a cycle of this run's interference graph."""
    nodes = []
    for tok in arg.split(","):
        tok = tok.strip()
        if len(tok) < 2 or tok[0] not in "SW" or not tok[1:].isdigit():
            raise ParseError(f"bad cycle node {tok!r}; expected S<k> or W<k> labels")
        idx = int(tok[1:]) - 1
        nodes.append(("x" if tok[0] == "S" else "y", idx))
    cyc = check_cycle(net, nodes)
    for t, u in enumerate(cyc):
        v = cyc[(t + 1) % len(cyc)]
        j, i = (u[1], v[1]) if u[0] == "x" else (v[1], u[1])
        if (j, i) not in graph.edges:
            raise NotACycle(f"(S{j + 1}, W{i + 1}) is not an edge of the interference graph")
    return cyc


def _decode_exit(rr) -> int:
    """Exit status after the report is out: 5 when any decode came out wrong."""
    if rr.successes < rr.decode_checks:
        print(f"error: simulate: {rr.decode_checks - rr.successes} of {rr.decode_checks} decodes "
              "recovered the wrong message", file=sys.stderr)
        return EXIT_DECODE
    return EXIT_OK


def _run_sessions(net: Network, plan: PrecodingPlan, cfg: RunConfig):
    # one (S, K) draw gives the same rows as S draws of K messages from one generator
    messages = np.random.default_rng(cfg.seed).integers(0, cfg.q, size=(cfg.sessions, net.n_sources), dtype=np.int64)
    return run_session(net, plan.realization, plan, messages)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(cfg: RunConfig) -> int:
    net = load_network_file(cfg.network_path)
    report = validate_assumptions(net)
    section = _assumptions_section(report, _probe_graph(net, cfg))
    _emit(cfg, {"schema_version": SCHEMA_VERSION, "config": _config_section(cfg), "assumptions": section},
          _text_assumptions(section))
    return EXIT_OK if report.ok else EXIT_ASSUMPTIONS


def cmd_igraph(cfg: RunConfig) -> int:
    net = load_network_file(cfg.network_path)
    graph = _probe_graph(net, cfg)
    section = _igraph_section(graph)
    text = to_dot(graph) + f"cyclic: {has_cycle(graph)}"
    report = {"schema_version": SCHEMA_VERSION, "config": _config_section(cfg),
              "interference_graph": section, "cyclic": has_cycle(graph)}
    _emit(cfg, report, text)
    return EXIT_OK


def cmd_dstar(cfg: RunConfig) -> int:
    net = load_network_file(cfg.network_path)
    graph = _probe_graph(net, cfg)
    spars = find_dstar(graph, demands=net.demands)
    section = _sparsification_section(spars)
    report = {"schema_version": SCHEMA_VERSION, "config": _config_section(cfg), "sparsification": section}
    text = _text_sparsification(section) + "\n" + json.dumps(section, sort_keys=True)
    _emit(cfg, report, text)
    return EXIT_OK


def cmd_precode(cfg: RunConfig) -> int:
    net = load_network_file(cfg.network_path)
    graph = _probe_graph(net, cfg)
    spars = find_dstar(graph, demands=net.demands)
    plan = plan_with_resampling(net, spars, cfg.max_attempts, cfg.seed, cfg.q)
    section = _precoding_section(plan)
    report = {"schema_version": SCHEMA_VERSION, "config": _config_section(cfg), "precoding": section}
    _emit(cfg, report, _text_precoding(section))
    return EXIT_OK


def cmd_obstruct(cfg: RunConfig) -> int:
    net = load_network_file(cfg.network_path)
    graph = _probe_graph(net, cfg)
    if cfg.cycle:
        cyc = _parse_cycle_arg(net, graph, cfg.cycle)
    else:
        cyc = shortest_cycle(graph)
        if cyc is None:
            report = {"schema_version": SCHEMA_VERSION, "config": _config_section(cfg),
                      "obstruction": None, "cyclic": False}
            _emit(cfg, report, "interference graph is acyclic; no obstruction to test")
            return EXIT_OK
    ratio = cycle_ratio(net, cyc, cfg.ratio_trials, cfg.seed, cfg.q)
    obs = infeasibility_report(net, ratio, graph)
    section = _obstruction_section(obs, ratio)
    report = {"schema_version": SCHEMA_VERSION, "config": _config_section(cfg),
              "obstruction": section, "cyclic": True}
    _emit(cfg, report, _text_obstruction(section))
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    net = load_network_file(cfg.network_path)
    graph = _probe_graph(net, cfg)
    spars = find_dstar(graph, demands=net.demands)
    plan = plan_with_resampling(net, spars, cfg.max_attempts, cfg.seed, cfg.q)
    trace = _run_sessions(net, plan, cfg)
    rr = rate_report(trace, plan)
    section = _simulation_section(rr)
    m = net.n_destinations
    decoded = [{_src(j): v.tolist() for j, v in d.items()} for d in trace.decoded]
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_section(cfg),
        "simulation": section,
        "traces": [
            {
                "messages": trace.messages[s].tolist(),
                "received": trace.received[s].tolist(),
                "decoded": [{label: v[s] for label, v in d.items()} for d in decoded],
                "success": list(trace.success[s * m:(s + 1) * m]),
            }
            for s in range(len(trace.messages))
        ],
    }
    _emit(cfg, report, _text_simulation(section))
    return _decode_exit(rr)


def cmd_pipeline(cfg: RunConfig) -> int:
    net = load_network_file(cfg.network_path)
    validation = validate_assumptions(net)
    validation.require_ok()

    graph = _probe_graph(net, cfg)
    assumptions = _assumptions_section(validation, graph)
    cyclic = has_cycle(graph)
    obstruction_sec = None
    if cyclic:
        cyc = shortest_cycle(graph)
        ratio = cycle_ratio(net, cyc, cfg.ratio_trials, cfg.seed, cfg.q)
        obs = infeasibility_report(net, ratio, graph)
        obstruction_sec = _obstruction_section(obs, ratio)

    spars = find_dstar(graph, demands=net.demands)
    plan = plan_with_resampling(net, spars, cfg.max_attempts, cfg.seed, cfg.q)
    rr = rate_report(_run_sessions(net, plan, cfg), plan)

    report = {
        "schema_version": SCHEMA_VERSION,
        "config": _config_section(cfg),
        "assumptions": assumptions,
        "interference_graph": _igraph_section(graph),
        "cyclic": cyclic,
        "obstruction": obstruction_sec,
        "sparsification": _sparsification_section(spars),
        "precoding": _precoding_section(plan),
        "simulation": _simulation_section(rr),
    }
    parts = [
        _text_assumptions(assumptions),
        f"interference graph: {len(graph.edges)} edges, cyclic={cyclic}",
    ]
    if obstruction_sec:
        parts.append(_text_obstruction(obstruction_sec))
    parts.append(_text_sparsification(report["sparsification"]))
    parts.append(_text_precoding(report["precoding"]))
    parts.append(_text_simulation(report["simulation"]))
    _emit(cfg, report, "\n".join(parts))
    return _decode_exit(rr)


_COMMANDS = {
    "validate": cmd_validate,
    "igraph": cmd_igraph,
    "dstar": cmd_dstar,
    "precode": cmd_precode,
    "obstruct": cmd_obstruct,
    "simulate": cmd_simulate,
    "pipeline": cmd_pipeline,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pbna", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--network", required=True, help="path to the network JSON file")
        p.add_argument("--q", type=int, default=DEFAULT_Q, help="prime field modulus below 2**31")
        p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
        p.add_argument("--attempts", type=int, default=20, help="resampling budget for precoding")
        p.add_argument("--zero-trials", type=int, default=3, help="evaluations for zero-function tests")
        p.add_argument("--ratio-trials", type=int, default=5, help="evaluations for ratio constancy tests")
        p.add_argument("--sessions", type=int, default=100, help="simulated sessions (simulate/pipeline)")
        p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
        p.add_argument("--out", default=None, help="write the report to this path")
        if name == "obstruct":
            p.add_argument("--cycle", default=None,
                           help="explicit cycle as comma-separated labels, e.g. S1,W1,S2,W2")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            network_path=args.network,
            q=args.q,
            seed=args.seed,
            max_attempts=args.attempts,
            zero_test_trials=args.zero_trials,
            ratio_trials=args.ratio_trials,
            fmt=args.fmt,
            out=args.out,
            sessions=args.sessions,
            cycle=getattr(args, "cycle", None),
        )
        return _COMMANDS[args.command](cfg)
    except OutputError as exc:
        print(f"error: output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: network file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AssumptionViolation as exc:
        print(f"error: network: {exc} (every demanded pair needs mincut exactly 1, others at most 1)",
              file=sys.stderr)
        return EXIT_ASSUMPTIONS
    except ConstraintViolation as exc:
        print(f"error: precoding: {exc} (a required decoding determinant appears to vanish identically)",
              file=sys.stderr)
        return EXIT_CONSTRAINTS
    except DecodeFailure as exc:
        print(f"error: simulate: {exc}", file=sys.stderr)
        return EXIT_DECODE
    except (ParseError, InvalidModulus, NotACycle, ConfigError) as exc:
        module = {ParseError: "network", InvalidModulus: "gf", NotACycle: "obstruction", ConfigError: "config"}
        prefix = next(name for cls, name in module.items() if isinstance(exc, cls))
        print(f"error: {prefix}: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
