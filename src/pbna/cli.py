"""Command-line front-end: validate -> igraph -> dstar -> precode -> simulate.

Every subcommand is a list of report sections read off one ``Run``: the
scheme's chain (network, mincut validation, zero-function probe, cycle
obstruction, d* sparsification, precoding plan, simulated sessions) with
each stage computed on first use and kept, so a command runs only the
stages its sections need and each of those once.  ``pipeline`` lists every
section.  Reports render as human text or as deterministic JSON
(schema_version 3: one line, sorted keys, and, in validate's report only,
mincut rows for the pairs joined by a path or demanded) so identical (file,
config) pairs are byte-identical.  A report restates nothing it implies: it
writes no per-destination alignment rows, which every accepted plan fixes
from the demands and extra_decode, no removed-edge list, which is
extra_decode flattened, and in pipeline no mincut rows, which are the
demanded pairs plus the interference edges, each with mincut 1 and ok.

Exit codes: 0 ok, 2 parse error (also a run that asks for more memory than
it can get, e.g. a huge --zero-trials or --ratio-trials), 3 assumption
violation (also, in every command that builds the interference graph, a
pair a path joins whose zero-function probe row is all zero),
4 constraint violation (no precoding attempt decoded at every destination
within --attempts), 5 some simulated decode failed, by no unique solution
or a wrong message (the report is written first).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .gf import DEFAULT_Q, InvalidModulus, check_modulus
from .interference import InterferenceGraph, MissedInterference, build_igraph, has_cycle, shortest_cycle, to_dot
from .network import AssumptionViolation, Network, ParseError, load_network_file, realize, validate_assumptions
from .obstruction import NotACycle, cycle_edges, cycle_ratio, infeasibility_report
from .precoding import A, B, ConstraintViolation, plan_with_resampling
from .simulate import rate_report, run_session
from .sparsify import find_dstar

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ASSUMPTIONS = 3
EXIT_CONSTRAINTS = 4
EXIT_DECODE = 5

SCHEMA_VERSION = 3


class ConfigError(ValueError):
    """A command-line option is out of range."""


class OutputError(OSError):
    """The report could not be written to ``--out``."""


@dataclass
class RunConfig:
    """Resolved command-line options shared by all subcommands; the parser's dests are these fields.

    The defaults live here alone: the parser sets only the options given.
    """

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
        for name, flag, low in (("seed", "--seed", 0), ("max_attempts", "--attempts", 1),
                                ("zero_test_trials", "--zero-trials", 1), ("ratio_trials", "--ratio-trials", 2),
                                ("sessions", "--sessions", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{flag} must be at least {low}")


class Run:
    """One command's pass through the scheme's chain; each stage is computed on first use, then kept."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    @functools.cached_property
    def net(self) -> Network:
        return load_network_file(self.cfg.network_path)

    @functools.cached_property
    def validation(self):
        return validate_assumptions(self.net)

    @functools.cached_property
    def graph(self) -> InterferenceGraph:
        """The run's one zero-function probe."""
        return build_igraph(self.net, realize(self.net, self.cfg.zero_test_trials, self.cfg.seed, self.cfg.q))

    @functools.cached_property
    def cyclic(self) -> bool:
        return has_cycle(self.graph)

    @functools.cached_property
    def obstruction(self):
        """(cycle ratio, infeasibility report) on ``--cycle`` or a shortest cycle; None when acyclic."""
        if self.cfg.cycle is not None:
            cyc = _parse_cycle_arg(self.net, self.graph, self.cfg.cycle)
        elif self.cyclic:
            cyc = shortest_cycle(self.graph)
        else:
            return None
        ratio = cycle_ratio(self.net, cyc, self.cfg.ratio_trials, self.cfg.seed, self.cfg.q)
        return ratio, infeasibility_report(self.net, ratio, self.graph)

    @functools.cached_property
    def sparsification(self):
        return find_dstar(self.graph)

    @functools.cached_property
    def plan(self):
        return plan_with_resampling(self.net, self.sparsification, self.cfg.max_attempts, self.cfg.seed, self.cfg.q)

    @functools.cached_property
    def trace(self):
        # one (S, K) draw gives the same rows as S draws of K messages from one generator
        messages = np.random.default_rng(self.cfg.seed).integers(
            0, self.cfg.q, size=(self.cfg.sessions, self.net.n_sources), dtype=np.int64)
        return run_session(self.plan, messages)

    @functools.cached_property
    def rates(self):
        return rate_report(self.trace, self.plan)

    @property
    def decode_exit(self) -> int:
        """5 when any simulated decode failed, else 0."""
        return EXIT_DECODE if self.rates.successes < self.rates.decode_checks else EXIT_OK


def _parse_cycle_arg(net: Network, graph: InterferenceGraph, arg: str) -> tuple[int, ...]:
    """An explicit ``--cycle`` as node ids: well formed, and a cycle of this run's interference graph."""
    nodes = []
    for tok in arg.split(","):
        tok = tok.strip()
        kind, digits = tok[:1], tok[1:]
        # str.isdigit alone also accepts digits such as "²" and "١"
        if kind not in ("S", "W") or not (digits.isascii() and digits.isdigit()) or int(digits) == 0:
            raise ConfigError(f"bad cycle node {tok!r}; expected S<k> or W<k> labels, k from 1")
        side, count, first = (("sources", net.n_sources, 0) if kind == "S"
                              else ("destinations", net.n_destinations, net.n_sources))
        if int(digits) > count:
            raise NotACycle(f"{kind}{int(digits)} is out of range: the network has {side} {kind}1..{kind}{count}")
        nodes.append(first + int(digits) - 1)
    for j, i in cycle_edges(net, tuple(nodes)):
        if (j, i) not in graph.edges:
            raise NotACycle(f"(S{j + 1}, W{i + 1}) is not an edge of the interference graph")
    return tuple(nodes)


def _src(j: int) -> str:
    return f"S{j + 1}"


def _dst(i: int) -> str:
    return f"D{i + 1}"


# ---------------------------------------------------------------------------
# report sections (JSON-ready values read off a run)


def _config_section(cfg: RunConfig) -> dict:
    return {
        "network": cfg.network_path,
        "q": cfg.q,
        "seed": cfg.seed,
        "max_attempts": cfg.max_attempts,
        "zero_test_trials": cfg.zero_test_trials,
        "ratio_trials": cfg.ratio_trials,
    }


def _assumptions_section(run: Run) -> dict:
    report = run.validation
    # a destination that no non-demanded source reaches has no interference
    interfered = ((report.mincut > 0) & ~report.demanded).any(axis=1)
    return {
        "ok": report.ok,
        "violations": [
            {"destination": _dst(i), "source": _src(j), "mincut": int(report.mincut[i, j]),
             "demanded": bool(report.demanded[i, j])}
            for i, j in report.violations
        ],
        "empty_interference": [_dst(i) for i in np.flatnonzero(~interfered).tolist()],
    }


def _mincut_rows(report) -> list:
    # one row per pair with a path or a demand, destination-major; every other pair has mincut 0 and is ok
    listed = np.nonzero((report.mincut > 0) | report.demanded)
    columns = (*listed, report.mincut[listed], report.demanded[listed], report.pair_ok[listed])
    return [{"demanded": demanded, "destination": _dst(i), "mincut": cut, "ok": ok, "source": _src(j)}
            for i, j, cut, demanded, ok in zip(*(column.tolist() for column in columns))]


def _igraph_section(run: Run) -> dict:
    graph = run.graph
    return {
        "sources": graph.n_sources,
        "destinations": graph.n_destinations,
        "edges": [[_src(j), f"W{i + 1}"] for j, i in sorted(graph.edges, key=lambda e: (e[1], e[0]))],
        "empty_destinations": [f"W{i + 1}" for i in graph.empty_destinations()],
    }


def _sparsification_section(run: Run) -> dict:
    spars = run.sparsification
    return {
        "d_star": spars.d_star,
        "components": [
            {"sources": c.sources, "destinations": c.destinations, "edges": c.edges, "d": c.d}
            for c in spars.components
        ],
        "extra_decode": [sorted(_src(j) for j in ed) for ed in spars.extra_decode],
        "independence_checks": spars.independence_checks,
    }


def _precoding_section(run: Run) -> dict:
    plan = run.plan
    return {
        "n": plan.n,
        "a": A,
        "b": B,
        "attempts": plan.attempts,
        "per_source_rate": f"{A}/{plan.n}",
        "V": {_src(j): row for j, row in enumerate(plan.V.tolist())},
    }


def _obstruction_section(run: Run) -> dict | None:
    if run.obstruction is None:
        return None
    ratio, obs = run.obstruction
    return {
        "cycle": [_src(v) if v < run.net.n_sources else f"W{v - run.net.n_sources + 1}" for v in ratio.cycle],
        "evaluations": list(ratio.evaluations),
        "verdict": ratio.verdict,
        "four_by_four_cycle": obs.four_by_four_cycle,
        "claim": obs.claim,
        "statement": obs.statement,
    }


def _simulation_section(run: Run) -> dict:
    def frac(pair):
        return f"{pair[0]}/{pair[1]}"

    rr = run.rates
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


def _traces_section(run: Run) -> list:
    trace, m = run.trace, run.net.n_destinations
    decoded = [{_src(j): v.tolist() for j, v in d.items()} for d in trace.decoded]
    return [
        {
            "messages": trace.messages[s].tolist(),
            "received": trace.received[s].tolist(),
            "decoded": [{label: v[s] for label, v in d.items()} for d in decoded],
            "success": list(trace.success[s * m:(s + 1) * m]),
        }
        for s in range(len(trace.messages))
    ]


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


def _emit(cfg: RunConfig, report: dict, text: str) -> None:
    if cfg.fmt == "json":
        payload = json.dumps(report, sort_keys=True) + "\n"
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


# ---------------------------------------------------------------------------
# subcommands: each returns (report sections, text report, exit status)


def cmd_validate(run: Run):
    section = {**_assumptions_section(run), "mincuts": _mincut_rows(run.validation)}
    return {"assumptions": section}, _text_assumptions(section), EXIT_OK if run.validation.ok else EXIT_ASSUMPTIONS


def cmd_igraph(run: Run):
    sections = {"interference_graph": _igraph_section(run), "cyclic": run.cyclic}
    return sections, to_dot(run.graph) + f"cyclic: {run.cyclic}", EXIT_OK


def cmd_dstar(run: Run):
    section = _sparsification_section(run)
    text = _text_sparsification(section) + "\n" + json.dumps(section, sort_keys=True)
    return {"sparsification": section}, text, EXIT_OK


def cmd_precode(run: Run):
    section = _precoding_section(run)
    return {"precoding": section}, _text_precoding(section), EXIT_OK


def cmd_obstruct(run: Run):
    section = _obstruction_section(run)
    text = _text_obstruction(section) if section else "interference graph is acyclic; no obstruction to test"
    return {"obstruction": section, "cyclic": run.cyclic}, text, EXIT_OK


def cmd_simulate(run: Run):
    section = _simulation_section(run)
    return {"simulation": section, "traces": _traces_section(run)}, _text_simulation(section), run.decode_exit


def cmd_pipeline(run: Run):
    # valid and exact, the graph implies the mincut rows: its edges and the demanded pairs, each mincut 1 and ok
    run.validation.require_ok()
    sections = {
        "assumptions": _assumptions_section(run),
        "interference_graph": _igraph_section(run),
        "cyclic": run.cyclic,
        "obstruction": _obstruction_section(run),
        "sparsification": _sparsification_section(run),
        "precoding": _precoding_section(run),
        "simulation": _simulation_section(run),
    }
    parts = [
        _text_assumptions(sections["assumptions"]),
        f"interference graph: {len(run.graph.edges)} edges, cyclic={run.cyclic}",
        sections["obstruction"] and _text_obstruction(sections["obstruction"]),
        _text_sparsification(sections["sparsification"]),
        _text_precoding(sections["precoding"]),
        _text_simulation(sections["simulation"]),
    ]
    return sections, "\n".join(part for part in parts if part), run.decode_exit


_COMMANDS = {
    "validate": cmd_validate,
    "igraph": cmd_igraph,
    "dstar": cmd_dstar,
    "precode": cmd_precode,
    "obstruct": cmd_obstruct,
    "simulate": cmd_simulate,
    "pipeline": cmd_pipeline,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and shared by later ones."""
    parser = argparse.ArgumentParser(prog="pbna", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage", argument_default=argparse.SUPPRESS)
        p.add_argument("--network", required=True, dest="network_path", metavar="NETWORK",
                       help="path to the network JSON file")
        p.add_argument("--q", type=int, help="prime field modulus below 2**31")
        p.add_argument("--seed", type=int, help="seed for all randomness")
        p.add_argument("--attempts", type=int, dest="max_attempts", metavar="ATTEMPTS",
                       help="resampling budget for precoding")
        p.add_argument("--zero-trials", type=int, dest="zero_test_trials", metavar="ZERO_TRIALS",
                       help="evaluations for zero-function tests")
        p.add_argument("--ratio-trials", type=int, help="evaluations for ratio constancy tests")
        p.add_argument("--sessions", type=int, help="simulated sessions (simulate/pipeline)")
        p.add_argument("--format", choices=("text", "json"), dest="fmt")
        p.add_argument("--out", help="write the report to this path")
        if name == "obstruct":
            p.add_argument("--cycle", help="explicit cycle as comma-separated labels, e.g. S1,W1,S2,W2")
    return parser


# (exception class, stderr prefix, exit code, hint) per typed error; the first row whose class
# matches wins, so OutputError comes before its base class OSError
_ERRORS = (
    (OutputError, "output", EXIT_PARSE, ""),
    (OSError, "network file", EXIT_PARSE, ""),
    (AssumptionViolation, "network", EXIT_ASSUMPTIONS, " (every demanded pair needs mincut exactly 1, others at most 1)"),
    (MissedInterference, "probe", EXIT_ASSUMPTIONS, " (rerun with a larger --zero-trials or --q)"),
    (ConstraintViolation, "precoding", EXIT_CONSTRAINTS, ""),
    (MemoryError, "memory", EXIT_PARSE, ""),
    (ParseError, "network", EXIT_PARSE, ""),
    (InvalidModulus, "gf", EXIT_PARSE, ""),
    (NotACycle, "obstruction", EXIT_PARSE, ""),
    (ConfigError, "config", EXIT_PARSE, ""),
)


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        cfg = RunConfig(**args)
        run = Run(cfg)
        sections, text, code = _COMMANDS[command](run)
        _emit(cfg, {"schema_version": SCHEMA_VERSION, "config": _config_section(cfg), **sections}, text)
        if code == EXIT_DECODE:
            rr = run.rates
            print(f"error: simulate: {rr.decode_checks - rr.successes} of {rr.decode_checks} decodes failed",
                  file=sys.stderr)
        return code
    except tuple(row[0] for row in _ERRORS) as exc:
        cls, prefix, code, hint = next(row for row in _ERRORS if isinstance(exc, row[0]))
        detail = str(exc) or ("out of memory" if cls is MemoryError else "")
        print(f"error: {prefix}: {detail}{hint}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
