"""Cycle obstruction: constancy test of the alternating transfer ratio.

Around a cycle of the interference graph, the product of transfer values on
edges traversed from the destination side to the source side, divided by the
product on edges traversed the other way, is a rational function of the
coding coefficients.  If it is non-constant, the 2x2-session configuration
whose interference graph is a single 8-cycle cannot reach per-source rate 1/3
in finitely many slots.  Constancy is tested black-box: evaluate at
independent random assignments, the slots of one realization, and compare
(one-sided; "constant" can be wrong with probability at most
(deg/q)**(valid evaluations - 1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .gf import DEFAULT_Q
from .interference import Edge, InterferenceGraph, connected_components
from .network import Network, realize


class NotACycle(ValueError):
    """The supplied node sequence is not a cycle of the interference graph."""


@dataclass(frozen=True)
class CycleRatio:
    """Alternating-ratio evaluations around one cycle.

    cycle is the interference graph's node ids, source j as j and
    destination i as K + i, in the order walked.  evaluations has one entry
    per trial, trial t read off slot t of one realization; None marks trials
    skipped because a denominator factor vanished.  verdict is
    "non-constant", "constant", or "undefined" (fewer than two usable
    evaluations).
    """

    cycle: tuple[int, ...]
    evaluations: tuple[int | None, ...]
    verdict: str


def cycle_edges(net: Network, cycle: tuple[int, ...]) -> tuple[Edge, ...]:
    """The (j, i) edge from each node of a cycle of node ids to the next, in walk order.

    NotACycle unless the nodes are distinct ids in 0..K+M-1, at least 4 and
    an even number of them, alternating between sources and destinations,
    with no demanded pair adjacent.  Whether each edge is an interference
    edge is left to the caller.
    """
    k, n = net.n_sources, net.n_sources + net.n_destinations
    if len(cycle) < 4 or len(cycle) % 2 != 0:
        raise NotACycle("a cycle needs an even number of nodes, at least 4")
    if len(set(cycle)) != len(cycle):
        raise NotACycle("cycle nodes must be distinct")
    for v in cycle:
        if not 0 <= v < n:
            raise NotACycle(f"node {v} is out of range: the graph has node ids 0..{n - 1}")
    steps = list(zip(cycle, cycle[1:] + cycle[:1]))
    if any((u < k) == (v < k) for u, v in steps):
        raise NotACycle("cycle must alternate source and destination nodes")
    edges = tuple((u, v - k) if u < k else (v, u - k) for u, v in steps)
    for j, i in edges:
        if j in net.demands[i]:
            raise NotACycle(f"(S{j + 1}, W{i + 1}) is a demanded pair, not interference")
    return edges


def cycle_ratio(net: Network, cycle, trials: int = 5, seed: int = 0, q: int = DEFAULT_Q) -> CycleRatio:
    """Evaluate the alternating ratio at ``trials`` independent assignments.

    Trial t is slot t of one ``trials``-slot realization, whose seed is the
    first draw of ``default_rng(seed)``.  Walking the cycle of node ids in
    order, an edge left from a destination (an id of at least K) contributes
    its transfer value to the numerator, an edge left from a source to the
    denominator.
    """
    if trials < 2:
        raise ValueError("constancy testing needs at least 2 trials")
    cycle = tuple(cycle)
    edges = cycle_edges(net, cycle)
    realization = realize(net, trials, int(np.random.default_rng(seed).integers(0, 2**63)), q)
    num = den = np.ones(trials, dtype=np.int64)
    for u, m in zip(cycle, realization.at([i for _, i in edges], [j for j, _ in edges])):
        if u >= net.n_sources:
            num = num * m % q
        else:
            den = den * m % q
    # q is prime, so a zero product is a vanished factor; every other trial is inverted in one batch
    usable = den != 0
    inv = iter(kernels.inverse(den[usable], q).tolist())
    evaluations = [n * next(inv) % q if ok else None for n, ok in zip(num.tolist(), usable.tolist())]

    valid = [e for e in evaluations if e is not None]
    if len(valid) < 2:
        verdict = "undefined"
    elif any(e != valid[0] for e in valid[1:]):
        verdict = "non-constant"
    else:
        verdict = "constant"
    return CycleRatio(cycle, tuple(evaluations), verdict)


@dataclass(frozen=True)
class ObstructionReport:
    four_by_four_cycle: bool
    claim: str  # "infeasible" | "advisory" | "none"
    statement: str


def _is_four_by_four_cycle(net: Network, graph: InterferenceGraph) -> bool:
    if net.n_sources != 4 or net.n_destinations != 4 or net.demand_size != 2:
        return False
    # a 2-regular bipartite graph on 8 nodes is one 8-cycle or two 4-cycles
    return all(len(nbrs) == 2 for nbrs in graph.incidence) and len(connected_components(graph)) == 1


def infeasibility_report(net: Network, ratio: CycleRatio, graph: InterferenceGraph) -> ObstructionReport:
    """Interpret a cycle-ratio verdict for this network's configuration.

    The hard infeasibility statement is only issued for the 4-source,
    4-destination, two-demands configuration whose interference graph is a
    single 8-cycle; other cyclic configurations get an advisory.
    """
    matched = _is_four_by_four_cycle(net, graph)
    if ratio.verdict == "non-constant" and matched:
        claim = "infeasible"
        statement = (
            "Per-source rate 1/3 is not achievable in any finite number of slots: "
            "the alternating transfer ratio around the interference cycle is "
            "non-constant, which forces rank-deficient decoding at every "
            "destination under 3-slot precoding. Decoding one extra session per "
            "destination (d* = 1) achieves per-source rate 1/4 instead."
        )
    elif ratio.verdict == "non-constant":
        claim = "advisory"
        statement = (
            "Non-constant alternating transfer ratio detected around an "
            "interference cycle. The hard rate bound is established only for the "
            "4x4 single-cycle configuration; treat this as an obstruction "
            "advisory and sparsify (decode extra sessions) to restore an acyclic "
            "interference graph."
        )
    else:
        claim = "none"
        statement = (
            f"Alternating transfer ratio verdict is '{ratio.verdict}'; the "
            "obstruction hypothesis is not established for this network."
        )
    return ObstructionReport(matched, claim, statement)
