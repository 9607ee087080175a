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
bond arcs come from bridge sets (Tarjan 1974), at most one bridge pass per
removed edge, so an augmentation of a removal set I costs O(|I|·(V+E)).
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass

from .interference import InterferenceGraph, bridges, component_count, connected_components


Edge = tuple[int, int]


def default_labeling(g: InterferenceGraph) -> tuple[Edge, ...]:
    """Deterministic edge order: lexicographic by (destination, source)."""
    return tuple(sorted(g.edges, key=lambda e: (e[1], e[0])))


def _greedy_scan(g: InterferenceGraph, labeling: tuple[Edge, ...], d: int) -> tuple[Edge, ...]:
    base_components = component_count(g)
    chosen: list[Edge] = []
    per_dest: dict[int, int] = {}
    for e in labeling:
        if per_dest.get(e[1], 0) + 1 > d:
            continue
        if component_count(g, set(chosen) | {e}) != base_components:
            continue
        chosen.append(e)
        per_dest[e[1]] = per_dest.get(e[1], 0) + 1
    return tuple(chosen)


def _augment_to_maximum(g: InterferenceGraph, pool: tuple[Edge, ...], d: int, start) -> tuple[Edge, ...]:
    """Maximum common independent set via exchange-graph augmenting paths.

    Grows ``start`` (a common independent set of the bond and partition
    matroids over ``pool``) by one element per shortest augmenting path until
    none exists; by the matroid intersection theorem the result is maximum.

    Bond independence is read off bridge sets: since ``current`` (I) keeps
    every component connected, I + x does iff x is not a bridge of G - I,
    and I - y + x does iff x is not a bridge of G - (I - y).  So one bridge
    pass gives the sources, and one more gives y's outgoing arcs when the
    search first leaves y; nodes it never reaches cost nothing.
    """
    current = set(start)
    while True:
        ins = sorted(current)
        outs = sorted(e for e in pool if e not in current)
        ins_at: dict[int, list[Edge]] = {}  # removed edges per destination, in ins order
        for y in ins:
            ins_at.setdefault(y[1], []).append(y)
        deg = {i: len(ys) for i, ys in ins_at.items()}
        cut = bridges(g, current)
        sources = [e for e in outs if e not in cut]
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
                cut = bridges(g, current - {u})
                arcs = [x for x in outs if x not in cut]
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
    its complement ``spanning_forest`` is a spanning tree of every component.
    ``h_bar`` removes further spanning-forest edges until every destination
    node has lost exactly min(d_star, degree) edges; those losses define the
    per-destination extra-decode sets.  ``independence_checks`` counts greedy
    membership tests; ``augmentations`` counts the rare exact-fallback passes
    that rescued a stalled greedy scan.
    """

    d_star: int
    removed: frozenset[Edge]
    spanning_forest: frozenset[Edge]
    h_bar: InterferenceGraph
    extra_decode: tuple[frozenset[int], ...]
    new_interference: tuple[frozenset[int], ...]
    new_demands: tuple[frozenset[int], ...] | None
    components: tuple[ComponentStats, ...]
    independence_checks: int
    augmentations: int


def find_dstar(g: InterferenceGraph, labeling=None, demands=None) -> SparsificationResult:
    """Find d* and the sparsified acyclic graph for a (possibly disconnected) g.

    Each component is searched independently, iterating the quota d upward
    from max(0, ceil((f-k-m+1)/m)) until the greedy independent set reaches
    size f-k-m+1 (complement a spanning tree); d* is the maximum over
    components.  When ``demands`` is given, the enlarged per-destination
    decode sets are filled in alongside the extra-decode sets.
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
    spanning_forest = frozenset(g.edges - removed)

    # Trim: every destination node loses exactly min(d_star, degree) edges in
    # total.  Extra deletions come from the spanning forest in label order;
    # removing forest edges keeps the graph acyclic, and since each edge
    # touches exactly one destination node the quotas never interact.
    final_removed = set(removed)
    for i in range(g.n_destinations):
        degree = len(g.interferers(i))
        need = min(d_star, degree) - sum(1 for e in final_removed if e[1] == i)
        for e in label_order:
            if need <= 0:
                break
            if e[1] == i and e not in final_removed:
                final_removed.add(e)
                need -= 1

    h_bar = g.replace_edges(g.edges - final_removed)
    extra = tuple(
        frozenset(j for j, ii in final_removed if ii == i) for i in range(g.n_destinations)
    )
    new_interference = tuple(frozenset(h_bar.interferers(i)) for i in range(g.n_destinations))
    new_demands = None
    if demands is not None:
        new_demands = tuple(frozenset(demands[i]) | extra[i] for i in range(g.n_destinations))
    return SparsificationResult(
        d_star=d_star,
        removed=frozenset(removed),
        spanning_forest=spanning_forest,
        h_bar=h_bar,
        extra_decode=extra,
        new_interference=new_interference,
        new_demands=new_demands,
        components=tuple(stats),
        independence_checks=checks,
        augmentations=augmentations,
    )
