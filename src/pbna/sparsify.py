"""Minimal extra-decode sparsification of the interference graph.

Finds the smallest per-destination removal quota d* such that deleting at
most d* interference edges at every destination node leaves the graph
acyclic, together with the witnessing removal.  The search asks about the
kept edges.  In a component, a removal that leaves no cycle keeps a forest,
and a forest extends to a spanning tree, which keeps an edge at every
destination.  So quota d is feasible iff some forest keeps c_i = max(deg_i -
d, 1) edges at every destination W_i: the largest common independent set of
the graphic matroid (forests) and the partition matroid that allows c_i
edges at W_i reaches sum c_i.  d starts at the least quota the degrees
allow, sum c_i <= k + m - 1, the size of a spanning tree of a component
with k sources and m destinations; a tree component gets d = 0 and no
search.

Each quota runs one Kruskal scan by union-find (``_forest``) in reverse
label order, keeping each edge that joins two trees while its destination
has room.  The order is reversed because, for one matroid, the greedy that
removes edges in label order while the rest stays connected removes exactly
the complement of the greedy forest in reverse label order.

The common independent sets of two matroids do not form a matroid, so the
scan can stall at a maximal forest below the maximum (rare, but real: see
tests for counterexamples).  When that happens, find_dstar finishes the job
exactly with shortest augmenting paths (Cunningham 1986) before deciding
that the current quota is infeasible.  A round makes one breadth-first pass
over the forest; an outside edge's exchange arcs are the forest edges on the
tree path between its ends, and an inside edge's are the outside edges at
its destination, so a round costs O(V + E) plus the tree paths it walks.

The removal is the component minus the forest extended, uncapped, to a
spanning tree, which keeps at least c_i edges at every W_i.  It goes straight
into each destination's extra-decode set, and a trim in label order fills
every set to min(d*, deg_i) sources; h_bar is g without those edges.
precoding.plan_with_resampling derives the decode and interference sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .interference import Edge, InterferenceGraph, components, connected_components


def default_labeling(g: InterferenceGraph) -> tuple[Edge, ...]:
    """Deterministic edge order: lexicographic by (destination, source)."""
    return tuple(sorted(g.edges, key=lambda e: (e[1], e[0])))


def _forest(g: InterferenceGraph, edges, room: dict[int, int] | None = None) -> tuple[Edge, ...]:
    """Kruskal by union-find: each edge, in the given order, that joins two trees of the edges kept before it.

    With ``room``, a cap per destination, an edge is kept only while its
    destination has fewer kept edges than its cap.
    """
    k = g.n_sources
    root = list(range(len(g.incidence)))
    left = None if room is None else dict(room)

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    kept = []
    for e in edges:
        j, i = e
        if left is not None and not left[i]:
            continue
        a, b = find(j), find(k + i)
        if a != b:
            root[a] = b
            kept.append(e)
            if left is not None:
                left[i] -= 1
    return tuple(kept)


def _tree_path(parent: list[int], up: list[int], visit: list[int], u: int, v: int) -> list[int] | None:
    """Edge ids on the forest path between nodes u and v, or None when no tree holds both.

    ``parent`` and ``up`` are ``components``' arrays and ``visit`` each
    node's position in its visit order.  The walk climbs the end that comes
    later in visit order: an ancestor always comes earlier, so that end lies
    below the meeting point, unless it is a root, which comes before every
    other node of its tree.
    """
    path = []
    while u != v:
        if visit[u] < visit[v]:
            u, v = v, u
        if parent[u] == u:
            return None
        path.append(up[u])
        u = parent[u]
    return path


def _augment_to_maximum(g: InterferenceGraph, pool: tuple[Edge, ...], cap: dict[int, int], start) -> tuple[Edge, ...]:
    """Maximum forest of ``pool`` with at most ``cap[i]`` edges at each destination i, by augmenting paths.

    Grows ``start`` (such a capped forest) by one edge per shortest
    augmenting path until none exists, or until it reaches sum(cap), past
    which none can; by the matroid intersection theorem the result is
    maximum.  ``pool`` holds every edge of one component of g.

    Each round makes one ``components`` pass over the forest I, every edge
    outside it masked, and searches backward: from the outside edges whose
    destination has room, to an outside edge that joins two trees of I.
    I - y + x is a forest iff y lies on the tree path between x's ends, and
    it keeps the caps, for an x whose destination is full, iff y is at x's
    destination: the outside ones in its ``incidence`` list.  A path's flips
    add a used edge only at its first edge's destination, since every other
    flip swaps two edges at one.  Ascending edge ids are ascending edges.
    """
    ids, edges, incidence, k = g.ids, g.edge_list, g.incidence, g.n_sources
    pool_ids = sorted(ids[e] for e in pool)
    outside = bytearray(b"\x01") * len(edges)
    for e in start:
        outside[ids[e]] = 0
    used = Counter(i for _, i in start)  # inside edges per destination
    size, most = len(start), sum(cap.values())
    while size < most:
        parent, up, orders = components(g, outside)
        visit = [0] * len(parent)
        for n, v in enumerate(v for order in orders for v in order):
            visit[v] = n
        queue = [x for x in pool_ids if outside[x] and used[edges[x][1]] < cap[edges[x][1]]]
        prev = dict.fromkeys(queue, -1)
        goal = -1
        for u in queue:  # the list doubles as the queue
            j, i = edges[u]
            if outside[u]:
                arcs = _tree_path(parent, up, visit, j, k + i)
                if arcs is None:  # u joins two trees of I
                    goal = u
                    break
            else:
                arcs = [x for _, x in incidence[k + i] if outside[x]]
            for v in arcs:
                if v not in prev:
                    prev[v] = u
                    queue.append(v)
        if goal < 0:
            break
        while goal >= 0:
            outside[goal] ^= 1
            first, goal = goal, prev[goal]
        used[edges[first][1]] += 1
        size += 1
    return tuple(edges[x] for x in pool_ids if not outside[x])


@dataclass(frozen=True)
class ComponentStats:
    sources: int
    destinations: int
    edges: int
    d: int


@dataclass(eq=False)
class SparsificationResult:
    """Outcome of the minimal extra-decode search.

    Each component's removal is the complement of a spanning tree that
    keeps at least max(deg - d, 1) edges at every destination.  ``h_bar``
    removes further kept edges until every destination node has lost
    exactly min(d_star, degree) edges; those losses define the
    per-destination extra-decode sets.  ``independence_checks`` adds f, the
    component's edge count, per quota scanned (once for a tree component,
    which needs no scan): every scanned candidate counts, the ones without
    room too.
    ``augmentations`` counts every call of the exact fallback after a scan
    stalled below sum(cap), including the calls that only prove a quota
    infeasible.  Quotas below the degree count are never scanned, so they
    add to neither counter.
    """

    d_star: int
    h_bar: InterferenceGraph
    extra_decode: tuple[frozenset[int], ...]
    components: tuple[ComponentStats, ...]
    independence_checks: int
    augmentations: int


def _degree_count_quota(degrees, target: int) -> int:
    """The least quota d with sum(min(d, deg - 1)) >= target over the destination ``degrees``.

    With target f - k - m + 1, this is sum(max(deg - d, 1)) <= k + m - 1:
    no smaller quota leaves room for a spanning tree's caps (see the module
    docstring).  d = max(degrees) - 1 always passes: its sum f - m is at
    least f - k - m + 1.
    """
    return next(d for d in range(max(degrees)) if sum(min(d, deg - 1) for deg in degrees) >= target)


def find_dstar(g: InterferenceGraph) -> SparsificationResult:
    """Find d* and the sparsified acyclic graph for a (possibly disconnected) g.

    Each component is searched independently, iterating the quota d upward
    from ``_degree_count_quota`` until the capped forest reaches sum(cap);
    d* is the maximum over components.
    """
    label_order = default_labeling(g)

    checks = 0
    augmentations = 0
    extra: list[set[int]] = [set() for _ in range(g.n_destinations)]
    stats = []
    comps = connected_components(g)
    which = {v: c for c, comp in enumerate(comps) for v in comp}
    buckets: list[list[Edge]] = [[] for _ in comps]
    for e in label_order:  # each component's edges in label order, in one pass
        buckets[which[e[0]]].append(e)
    for comp, comp_labels in zip(comps, map(tuple, buckets)):
        f = len(comp_labels)
        if f == 0:
            continue
        k = sum(1 for v in comp if v < g.n_sources)
        m = len(comp) - k
        degrees = Counter(i for _, i in comp_labels)
        max_degree = max(degrees.values())
        d = _degree_count_quota(degrees.values(), f - k - m + 1)
        while True:
            checks += f
            if d == 0:  # a tree component keeps every edge
                break
            cap = {i: max(deg - d, 1) for i, deg in degrees.items()}
            kept = _forest(g, comp_labels[::-1], cap)
            if len(kept) < sum(cap.values()):
                # The scan stalled; the common independent sets of two
                # matroids are not themselves a matroid, so settle quota-d
                # feasibility exactly.
                kept = _augment_to_maximum(g, comp_labels, cap, kept)
                augmentations += 1
            if len(kept) == sum(cap.values()):
                for j, i in set(comp_labels).difference(_forest(g, kept + comp_labels[::-1])):
                    extra[i].add(j)
                break
            d += 1
            if d >= max_degree:
                # d* < max degree: keeping any spanning tree removes at most deg - 1 edges at each node
                raise AssertionError(f"quota {d} reached the max destination degree {max_degree} "
                                     "without a spanning tree")
        stats.append(ComponentStats(k, m, f, d))

    d_star = max((s.d for s in stats), default=0)

    # Trim, in one pass: every destination node loses exactly min(d_star, degree)
    # edges in total.  Extra deletions come from the spanning forest in label
    # order; removing forest edges keeps the graph acyclic, and since each edge
    # touches exactly one destination node the quotas never interact.
    for j, i in label_order:
        if len(extra[i]) < d_star:
            extra[i].add(j)

    return SparsificationResult(
        d_star=d_star,
        h_bar=InterferenceGraph(g.n_sources, g.n_destinations, ((j, i) for j, i in g.edges if j not in extra[i])),
        extra_decode=tuple(map(frozenset, extra)),
        components=tuple(stats),
        independence_checks=checks,
        augmentations=augmentations,
    )
