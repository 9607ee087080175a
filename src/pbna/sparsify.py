"""Minimal extra-decode sparsification of the interference graph.

Finds the smallest per-destination removal quota d* such that deleting at
most d* interference edges at every destination node leaves the graph
acyclic, together with the witnessing removal.  The search scans edges in a
fixed label order, greedily collecting a set that is independent in both the
bond (cographic) matroid -- edge sets whose removal keeps every component
connected -- and the partition matroid that allows at most d edges per
destination node, raising d until the kept edges form a spanning forest.

The common independent sets of two matroids do not form a matroid, so the
greedy scan can stall at a maximal set below the maximum (rare, but real:
see tests for counterexamples).  When that happens, find_dstar finishes the
job exactly with matroid-intersection augmenting paths (Cunningham 1986)
before deciding that the current quota is infeasible.  The exchange graph's
bond arcs come from one bridge pass (Tarjan 1974) per augmentation round:
H = G - I's bridge forest gives every arc, each removed edge y costing only
the length of the forest path between its endpoints, so a round costs
O(V + E + |I|·V).  The greedy scan tests each candidate with one search
that stops as soon as it reaches the candidate's far endpoint.

The result is the sparsified graph h_bar and each destination's
extra-decode set; precoding.plan_with_resampling derives the decode and
interference sets from them.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass

from .interference import Edge, InterferenceGraph, bridge_forest, connected_components, edge_mask, reaches


def default_labeling(g: InterferenceGraph) -> tuple[Edge, ...]:
    """Deterministic edge order: lexicographic by (destination, source)."""
    return tuple(sorted(g.edges, key=lambda e: (e[1], e[0])))


def _greedy_scan(g: InterferenceGraph, labeling: tuple[Edge, ...], d: int) -> tuple[Edge, ...]:
    """Scan ``labeling`` once, keeping each edge that stays independent in both matroids.

    The chosen set keeps every component connected, so e = (j, i) can join
    it iff e is no bridge of G - chosen, i.e. j still reaches destination
    node K + i in G - chosen - e: one search that stops on reaching it.

    A rejected edge stays masked.  It is a bridge of G - chosen, and it
    stays a bridge as chosen grows, since deleting edges makes no new cycle.
    A later candidate's detour from j to K + i closes a cycle with that
    candidate, so it never crosses a bridge: masking rejected edges changes
    no answer and only makes the searches smaller.
    """
    ids = g.index.ids
    mask = bytearray(len(ids))  # the chosen and the rejected edges
    chosen: list[Edge] = []
    per_dest: dict[int, int] = {}
    for e in labeling:
        j, i = e
        if per_dest.get(i, 0) + 1 > d:
            continue
        mask[ids[e]] = 1
        if not reaches(g, j, g.n_sources + i, mask):
            continue
        chosen.append(e)
        per_dest[i] = per_dest.get(i, 0) + 1
    return tuple(chosen)


def _augment_to_maximum(g: InterferenceGraph, pool: tuple[Edge, ...], d: int, start) -> tuple[Edge, ...]:
    """Maximum common independent set via exchange-graph augmenting paths.

    Grows ``start`` (a common independent set of the bond and partition
    matroids over ``pool``) by one element per shortest augmenting path until
    none exists; by the matroid intersection theorem the result is maximum.

    Bond independence is read off the bridges of H = G - I: since
    ``current`` (I) keeps every component connected, I + x does iff x is
    not a bridge of H, and I - y + x does iff x is not a bridge of H + y.
    Those are H's non-bridges, which are all sources and so already
    visited, plus the bridges on H's bridge-forest path between y's
    endpoints.  So one bridge pass per round gives the sources and every
    arc, and each popped y costs only its path length.  ``pool`` holds the
    edges of one component of g.
    """
    ids, edges = g.index.ids, g.index.edges
    current = set(start)
    while True:
        ins = sorted(current)
        outs = sorted(e for e in pool if e not in current)
        ins_at: dict[int, list[Edge]] = {}  # removed edges per destination, in ins order
        for y in ins:
            ins_at.setdefault(y[1], []).append(y)
        deg = {i: len(ys) for i, ys in ins_at.items()}
        forest = bridge_forest(g, edge_mask(g, current))
        sources = [e for e in outs if not forest.is_bridge[ids[e]]]
        sinks = {e for e in outs if deg.get(e[1], 0) + 1 <= d}
        if not sources or not sinks:
            return tuple(sorted(current))
        prev: dict[Edge, Edge | None] = {e: None for e in sources}
        queue = deque(sources)
        goal = None
        for e in sources:
            if e in sinks:
                goal = e
                break
        while queue and goal is None:
            u = queue.popleft()
            if u in current:  # swaps I - u + x that keep bond independence
                arcs = [edges[e] for e in forest.path(u[0], g.n_sources + u[1])]
            else:  # swaps I - y + u that keep partition independence: u is no sink, so its
                # destination is full and only dropping a removed edge there makes room
                arcs = ins_at.get(u[1], ())
            for v in arcs:
                if v in prev:
                    continue
                prev[v] = u
                if v in sinks:
                    goal = v
                    queue.clear()
                    break
                queue.append(v)
        if goal is None:
            return tuple(sorted(current))
        node: Edge | None = goal
        while node is not None:
            current.symmetric_difference_update({node})
            node = prev[node]


@dataclass(frozen=True)
class ComponentStats:
    sources: int
    destinations: int
    edges: int
    d: int


@dataclass(eq=False)
class SparsificationResult:
    """Outcome of the minimal extra-decode search.

    ``removed`` is the union of the per-component maximum independent sets;
    the kept edges (the graph's edges minus ``removed``) form a spanning tree
    of every component.  ``h_bar`` removes further kept edges until every
    destination node has lost exactly min(d_star, degree) edges; those losses
    define the per-destination extra-decode sets.  ``independence_checks`` counts greedy
    membership tests; ``augmentations`` counts the rare exact-fallback passes
    that rescued a stalled greedy scan.
    """

    d_star: int
    removed: frozenset[Edge]
    h_bar: InterferenceGraph
    extra_decode: tuple[frozenset[int], ...]
    components: tuple[ComponentStats, ...]
    independence_checks: int
    augmentations: int


def find_dstar(g: InterferenceGraph, labeling=None) -> SparsificationResult:
    """Find d* and the sparsified acyclic graph for a (possibly disconnected) g.

    Each component is searched independently, iterating the quota d upward
    from max(0, ceil((f-k-m+1)/m)) until the greedy independent set reaches
    size f-k-m+1 (complement a spanning tree); d* is the maximum over
    components.
    """
    label_order = tuple(labeling) if labeling is not None else default_labeling(g)
    if set(label_order) != set(g.edges) or len(label_order) != len(g.edges):
        raise ValueError("labeling must be a permutation of the edge set")

    checks = 0
    augmentations = 0
    removed: set[Edge] = set()
    stats = []
    for comp in connected_components(g):
        members = set(comp)
        comp_labels = tuple(e for e in label_order if ("x", e[0]) in members)
        f = len(comp_labels)
        if f == 0:
            continue
        k = sum(1 for kind, _ in comp if kind == "x")
        m = sum(1 for kind, _ in comp if kind == "y")
        target = f - k - m + 1
        max_degree = max(Counter(i for _, i in comp_labels).values())
        d = max(0, math.ceil(target / m))
        while True:
            chosen = _greedy_scan(g, comp_labels, d)
            checks += f
            if len(chosen) < target:
                # Greedy stalled below the bond-matroid rank; the common
                # independent sets of two matroids are not themselves a
                # matroid, so settle quota-d feasibility exactly.
                chosen = _augment_to_maximum(g, comp_labels, d, chosen)
                augmentations += 1
            if len(chosen) == target:
                break
            d += 1
            if d >= max_degree:
                # d* < max degree: keeping any spanning tree removes at most deg - 1 edges at each node
                raise AssertionError(f"quota {d} reached the max destination degree {max_degree} "
                                     "without a spanning tree")
        removed.update(chosen)
        stats.append(ComponentStats(k, m, f, d))

    d_star = max((s.d for s in stats), default=0)

    # Trim, in one pass: every destination node loses exactly min(d_star, degree)
    # edges in total.  Extra deletions come from the spanning forest in label
    # order; removing forest edges keeps the graph acyclic, and since each edge
    # touches exactly one destination node the quotas never interact.
    extra: list[set[int]] = [set() for _ in range(g.n_destinations)]
    for j, i in removed:
        extra[i].add(j)
    for j, i in label_order:
        if len(extra[i]) < d_star:
            extra[i].add(j)

    return SparsificationResult(
        d_star=d_star,
        removed=frozenset(removed),
        h_bar=g.replace_edges((j, i) for j, i in g.edges if j not in extra[i]),
        extra_decode=tuple(map(frozenset, extra)),
        components=tuple(stats),
        independence_checks=checks,
        augmentations=augmentations,
    )
