"""Minimal extra-decode sparsification of the interference graph.

Finds the smallest per-destination removal quota d* such that deleting at
most d* interference edges at every destination node leaves the graph
acyclic, together with the witnessing removal.  The search scans edges in a
fixed label order, greedily collecting a set that is independent in both the
bond (cographic) matroid -- edge sets whose removal keeps every component
connected -- and the partition matroid that allows at most d edges per
destination node, raising d until the kept edges form a spanning forest.
d starts at the least quota that the destination degrees allow: a
spanning forest keeps an edge at every destination, so at quota d a
destination of degree deg loses at most min(d, deg - 1) edges.

The common independent sets of two matroids do not form a matroid, so the
greedy scan can stall at a maximal set below the maximum (rare, but real:
see tests for counterexamples).  When that happens, find_dstar finishes the
job exactly with matroid-intersection augmenting paths (Cunningham 1986)
before deciding that the current quota is infeasible.  The exchange graph's
bond arcs come from one bridge certificate per augmentation round: a BFS
forest of H = G - I whose tree edges are flagged as covered by H's other
edges, the uncovered ones being H's bridges.  It gives every arc, each
removed edge y costing only the length of the tree path between its
endpoints, so a round costs O(V + E + |I|·V), and the rounds stop once I
reaches the bond rank.

The greedy scan keeps a spanning forest of the graph minus the edges it has
taken or rejected, built once per scan by union-find, as a certificate of
connectivity (the replacement-edge idea of decremental connectivity: Even
and Shiloach 1981, Holm, de Lichtenberg and Thorup 2001).  A candidate off
the forest is accepted at O(1); only a forest edge costs a search, two tree
searches in lockstep and a scan of the smaller side for a replacement edge,
so a scan costs O(f) plus O(V + E) per forest candidate at worst.  At
quota 0 the scan builds nothing.

The result is the sparsified graph h_bar and each destination's
extra-decode set; precoding.plan_with_resampling derives the decode and
interference sets from them.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from .interference import Edge, InterferenceGraph, components, connected_components


def default_labeling(g: InterferenceGraph) -> tuple[Edge, ...]:
    """Deterministic edge order: lexicographic by (destination, source)."""
    return tuple(sorted(g.edges, key=lambda e: (e[1], e[0])))


def _spanning_forest(g: InterferenceGraph, labeling: tuple[Edge, ...]) -> bytearray:
    """Tree flags by edge id: a spanning forest of the labeled edges, by union-find over ``labeling`` in reverse.

    The last edges enter the forest first, so the first candidates of a scan
    tend to lie off it and need no search.
    """
    ids, k = g.ids, g.n_sources
    root = list(range(len(g.incidence)))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    in_tree = bytearray(len(ids))
    for e in reversed(labeling):
        a, b = find(e[0]), find(k + e[1])
        if a != b:
            root[a] = b
            in_tree[ids[e]] = 1
    return in_tree


def _replacement_edge(g: InterferenceGraph, s: int, t: int, in_tree: bytearray, mask: bytearray) -> int:
    """Id of an edge that rejoins nodes s and t after their tree edge left the forest, or -1 if none does.

    Two tree searches, from s and from t, advance one node at a time in
    lockstep until one of them runs out: that side is the smaller of the two
    trees, and any unmasked non-tree edge that leaves it joins them again.
    """
    incidence = g.incidence
    side = bytearray(len(incidence))
    side[s], side[t] = 1, 2
    a, b = [s], [t]
    next_a = next_b = 0
    while next_a < len(a) and next_b < len(b):
        for v, e in incidence[a[next_a]]:
            if in_tree[e] and not side[v]:
                side[v] = 1
                a.append(v)
        next_a += 1
        for v, e in incidence[b[next_b]]:
            if in_tree[e] and not side[v]:
                side[v] = 2
                b.append(v)
        next_b += 1
    smaller, mark = (a, 1) if next_a == len(a) else (b, 2)
    for u in smaller:
        for v, e in incidence[u]:
            if not mask[e] and not in_tree[e] and side[v] != mark:
                return e
    return -1


def _greedy_scan(g: InterferenceGraph, labeling: tuple[Edge, ...], d: int) -> tuple[Edge, ...]:
    """Scan ``labeling`` once, keeping each edge that stays independent in both matroids.

    The chosen set keeps every component connected, so e can join it iff e
    is no bridge of G - chosen.  A spanning forest T of G - chosen - rejected
    certifies that: e off T lies on a cycle of T + e and is accepted with no
    search; e in T is accepted iff a replacement edge rejoins the two trees
    T - e leaves, and the replacement takes e's place in T.  ``labeling``
    holds every edge of the components it touches.

    A rejected edge stays masked.  It is a bridge of G - chosen, and it
    stays a bridge as chosen grows, since deleting edges makes no new cycle,
    so no later replacement can cross it.  At d = 0 every candidate misses
    the quota, so no forest is built.
    """
    if d == 0:
        return ()
    ids, k = g.ids, g.n_sources
    in_tree = _spanning_forest(g, labeling)
    mask = bytearray(len(ids))  # the chosen and the rejected edges
    chosen: list[Edge] = []
    per_dest: dict[int, int] = {}
    for e in labeling:
        j, i = e
        if per_dest.get(i, 0) >= d:
            continue
        x = ids[e]
        mask[x] = 1
        if in_tree[x]:
            in_tree[x] = 0
            y = _replacement_edge(g, j, k + i, in_tree, mask)
            if y < 0:
                continue
            in_tree[y] = 1
        chosen.append(e)
        per_dest[i] = per_dest.get(i, 0) + 1
    return tuple(chosen)


def _bridge_certificate(g: InterferenceGraph, mask: bytearray) -> tuple[bytearray, Callable[[int, int], list[int]]]:
    """The bridges of H = g minus the edges in ``mask``, certified by one BFS forest of H.

    Every non-tree edge covers the tree path between its ends, and the
    bridges are the tree edges that none covers.  A path is walked by
    climbing both ends to their meeting point, moving the end that comes
    later in visit order (an ancestor always comes earlier), while a
    union-find jump skips the stretches already covered, so the covering
    pass flags each tree edge once.  Returns the bridge flags by edge id and
    ``path(u, v)``: the ids of the bridges on the tree path between nodes u
    and v of one component of H, ascending.  Adding an edge (u, v) to H
    makes exactly these bridges non-bridges (Westbrook and Tarjan,
    Algorithmica 1992).
    """
    parent, up, orders = components(g, mask)
    visit = [0] * len(up)  # position in visit order
    for n, v in enumerate(v for order in orders for v in order):
        visit[v] = n
    jump = list(range(len(up)))  # leads up from a node past covered tree edges

    def lowest_open(v: int) -> int:
        while jump[v] != v:
            jump[v] = jump[jump[v]]
            v = jump[v]
        return v

    is_bridge = bytearray(len(mask))
    for e in up:
        if e >= 0:
            is_bridge[e] = 1
    incidence = g.incidence
    for j in range(g.n_sources):
        for v, e in incidence[j]:
            if mask[e] or up[v] == e or up[j] == e:
                continue
            a, b = lowest_open(j), lowest_open(v)
            while a != b:
                if visit[a] < visit[b]:
                    a, b = b, a
                is_bridge[up[a]] = 0
                jump[a] = parent[a]
                a = lowest_open(a)

    def path(u: int, v: int) -> list[int]:
        a, b = lowest_open(u), lowest_open(v)
        found = []
        while a != b:
            if visit[a] < visit[b]:
                a, b = b, a
            found.append(up[a])
            a = lowest_open(parent[a])
        found.sort()
        return found

    return is_bridge, path


def _augment_to_maximum(g: InterferenceGraph, pool: tuple[Edge, ...], d: int, start) -> tuple[Edge, ...]:
    """Maximum common independent set via exchange-graph augmenting paths.

    Grows ``start`` (a common independent set of the bond and partition
    matroids over ``pool``) by one element per shortest augmenting path until
    none exists, or until it reaches the bond rank f - (k + m) + 1 of
    ``pool``'s component, past which none can; by the matroid intersection
    theorem the result is maximum.  ``pool`` holds the edges of one
    component of g, and d must be at least 1: a destination with no removed
    edge never counts as full, so at d = 0 every outside edge would be a
    sink.  find_dstar never calls it at d = 0: it starts at d = 0 only for
    a target of 0, which the empty scan already meets.

    Bond independence is read off the bridges of H = G - I: since
    ``current`` (I) keeps every component connected, I + x does iff x is
    not a bridge of H, and I - y + x does iff x is not a bridge of H + y.
    Those are H's non-bridges, which are all sources and so already
    visited, plus the bridges on the BFS-tree path between y's endpoints.
    So one ``_bridge_certificate`` per round (one BFS pass and one covering
    pass over the whole graph) gives the sources and every arc, and each
    popped y costs only its path length.  The rounds run on edge ids, and
    ascending ids are ascending edges.
    """
    ids, edges, k = g.ids, g.edge_list, g.n_sources
    pool_ids = sorted(ids[e] for e in pool)
    rank = len(pool) - len({j for j, _ in pool}) - len({i for _, i in pool}) + 1
    current = bytearray(len(edges))
    for e in start:
        current[ids[e]] = 1
    size = len(start)
    while size < rank:
        outs = []
        ins_at: dict[int, list[int]] = {}  # removed edge ids per destination, ascending
        for x in pool_ids:
            if current[x]:
                ins_at.setdefault(edges[x][1], []).append(x)
            else:
                outs.append(x)
        is_bridge, path = _bridge_certificate(g, current)
        sources = [x for x in outs if not is_bridge[x]]
        full = {i for i, ys in ins_at.items() if len(ys) >= d}
        sinks = {x for x in outs if edges[x][1] not in full}
        if not sources or not sinks:
            break
        prev = dict.fromkeys(sources, -1)
        goal = next((x for x in sources if x in sinks), -1)
        queue = sources if goal < 0 else []
        for u in queue:  # the list doubles as the queue
            j, i = edges[u]
            if current[u]:  # swaps I - u + x that keep bond independence
                arcs = path(j, k + i)
            else:  # swaps I - y + u that keep partition independence: u is no sink, so its
                # destination is full and only dropping a removed edge there makes room
                arcs = ins_at.get(i, ())
            for v in arcs:
                if v in prev:
                    continue
                prev[v] = u
                if v in sinks:
                    goal = v
                    break
                queue.append(v)
            if goal >= 0:
                break
        if goal < 0:
            break
        while goal >= 0:
            current[goal] ^= 1
            goal = prev[goal]
        size += 1
    return tuple(edges[x] for x in pool_ids if current[x])


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
    define the per-destination extra-decode sets.  ``independence_checks`` adds
    f, the component's edge count, per greedy scan: every scanned candidate
    counts, quota-skipped ones too.  ``augmentations`` counts every call
    of the exact fallback after a greedy scan stalled below the bond rank,
    including the calls that only prove a quota infeasible.  Quotas below
    the degree count are never scanned, so they add to neither counter.
    """

    d_star: int
    removed: frozenset[Edge]
    h_bar: InterferenceGraph
    extra_decode: tuple[frozenset[int], ...]
    components: tuple[ComponentStats, ...]
    independence_checks: int
    augmentations: int


def _degree_count_quota(degrees, target: int) -> int:
    """The least quota d with sum(min(d, deg - 1)) >= target over the destination ``degrees``.

    No smaller quota can reach the bond rank ``target`` (see the module
    docstring).  d = max(degrees) - 1 always passes: its sum f - m is at
    least f - k - m + 1.
    """
    return next(d for d in range(max(degrees)) if sum(min(d, deg - 1) for deg in degrees) >= target)


def find_dstar(g: InterferenceGraph) -> SparsificationResult:
    """Find d* and the sparsified acyclic graph for a (possibly disconnected) g.

    Each component is searched independently, iterating the quota d upward
    from ``_degree_count_quota`` until the greedy independent set reaches
    size f-k-m+1 (complement a spanning tree); d* is the maximum over
    components.
    """
    label_order = default_labeling(g)

    checks = 0
    augmentations = 0
    removed: set[Edge] = set()
    stats = []
    for comp in connected_components(g):
        members = set(comp)
        comp_labels = tuple(e for e in label_order if e[0] in members)
        f = len(comp_labels)
        if f == 0:
            continue
        k = sum(1 for v in comp if v < g.n_sources)
        m = len(comp) - k
        target = f - k - m + 1
        degrees = Counter(i for _, i in comp_labels).values()
        max_degree = max(degrees)
        d = _degree_count_quota(degrees, target)
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
        h_bar=InterferenceGraph(g.n_sources, g.n_destinations, ((j, i) for j, i in g.edges if j not in extra[i])),
        extra_decode=tuple(map(frozenset, extra)),
        components=tuple(stats),
        independence_checks=checks,
        augmentations=augmentations,
    )
