"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive -- trial division, extended Euclid,
one-matrix Gaussian elimination with Fermat inverses, Laplace expansion,
subset enumeration, path enumeration, an edge-by-edge walk -- and shares no
code with the implementations under test; coding coefficients are looked up
through the network's layout index arrays.  The graph oracles walk g.edges
with their own ``bfs_tree`` (neighbours in sorted edge order, as in the
package) and union-find ``component_count``: ``independence_check``, a
membership predicate for the bond and partition matroids whose intersection
decides a quota on the removed side; ``greedy_scan_by_component_counts`` and
``augment_by_component_counts``, the removed side's greedy scan and
exchange-graph augmentation with one full component count per independence
test; ``forest_scan_by_component_counts``, find_dstar's capped Kruskal scan
with one component count per edge; ``max_capped_forest``, the largest capped
forest by subset enumeration; and ``shortest_cycle_by_full_bfs``, one
complete breadth-first tree per edge.
``find_dstar_with_removal`` returns find_dstar's result with the removal it
makes before the trim, recorded from its uncapped scans rather than rebuilt.
``augment_by_rebuilt_exchanges`` is the capped-forest augmentation
find_dstar once ran, which rebuilt its used counts and per-destination
outside edges from the pool every round.  It shares the package's
``components`` pass and tree paths, so it pins only where the exchange arcs
and caps are read from: the augmenting paths must stay the same.
``bfs_forest`` builds decompose's forest as {node: parent} trees, and
``precoding_by_tree_walk`` is the walk build_precoding once made down them,
one link at a time with egcd inverses; ``integer_forest`` turns such trees
into decompose's (parent, up, orders) arrays, so other roots can be fed to
build_precoding.
``transfer_by_unit_columns`` is the dense propagation ``realize`` once ran:
every source injects its unit vector through every edge of the per-edge
schedule, so each edge carries K columns.
``verdicts_by_ranks`` takes each alignment dimension from its own ``gf.rank``
call, to check verify_alignment's two-rank mask and the rows that a
report implies through its demands and extra_decode, and
``solve_full_width`` returns ``gf.solve``'s (x, unique), so a solve can be
compared with it.
``monic_rows`` scales rows to a leading 1, so ``kernels.row_reduce``'s
unnormalized echelon form can be compared with ``row_reduce_one``'s RREF.
``segment_verdict`` decides a cycle ratio's constancy exactly, from each
pair's ``dominator_chain`` (the edges on every source-to-destination path,
found by deleting one edge at a time), for comparison with the randomized
``cycle_ratio``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque, namedtuple

import numpy as np

from pbna import gf, sparsify
from pbna.interference import Edge, InterferenceGraph, components
from pbna.precoding import A, B
from pbna.sparsify import _tree_path

Node = tuple[str, int]  # the reference walks' own node names: ("x", source j) or ("y", destination i)
# the exact dimension checks at one destination, named as the rows test_cli rebuilds from a report
Verdict = namedtuple("Verdict", "destination dim_u dim_w dim_intersection ok r_det_nonzero")


def is_prime_by_trial_division(n: int) -> bool:
    """Primality by trying every divisor d with d * d <= n."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def egcd_inverse(a: int, q: int) -> int:
    """Modular inverse via the extended Euclidean algorithm."""
    old_r, r = a % q, q
    old_s, s = 1, 0
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
    assert old_r == 1, "not invertible"
    return old_s % q


def pad_stack(mats) -> np.ndarray:
    """Stack matrices with one row count into (B, rows, widest), zero-padded on the right."""
    mats = [np.asarray(m, dtype=np.int64) for m in mats]
    out = np.zeros((len(mats), mats[0].shape[0], max(m.shape[1] for m in mats)), dtype=np.int64)
    for b, m in enumerate(mats):
        out[b, :, :m.shape[1]] = m
    return out


def row_reduce_one(a, q, pivots):
    """In-place reduced row echelon form of ``a`` modulo q; returns the rank.

    ``pivots[r]`` receives the pivot column of pivot row r (rows beyond the
    rank are left untouched, callers should pre-fill with -1).
    """
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), q - 2, q)
        a[r] = a[r] * inv % q
        factors = a[:, c].copy()
        factors[r] = 0
        hit = np.nonzero(factors)[0]
        if hit.size:
            a[hit] = (a[hit] - factors[hit, None] * a[r][None, :]) % q
        pivots[r] = c
        r += 1
    return r


def monic_rows(a, q):
    """A copy of ``a`` with every nonzero row divided by its first nonzero entry, by Fermat inverses.

    Two echelon forms whose rows are nonzero multiples of each other, like
    ``kernels.row_reduce``'s and ``row_reduce_one``'s, agree after this.
    """
    out = np.asarray(a, dtype=np.int64) % q
    for idx in np.ndindex(out.shape[:-1]):
        nz = np.flatnonzero(out[idx])
        if nz.size:
            out[idx] = out[idx] * pow(int(out[idx][nz[0]]), q - 2, q) % q
    return out


def solve_full_width(a, y, q: int, widths):
    """``gf.solve`` on a (B, rows, cols) stack and (B, rows, s) right-hand sides, one system at a time.

    Each [A | Y] is reduced over its full width, right-hand sides included, by
    ``row_reduce_one``.  Returns (x, unique) like ``gf.solve``: unique[b, s]
    when A_b has full column rank and column s of Y_b is zero below rank(A_b)
    after the reduction, and x[b] read off the pivot rows of A_b.
    """
    n_items, rows, cols = a.shape
    x = np.zeros((n_items, cols, y.shape[2]), dtype=np.int64)
    unique = np.zeros((n_items, y.shape[2]), dtype=bool)
    for b in range(n_items):
        aug = np.concatenate([a[b], y[b]], axis=1) % q
        piv = np.full(rows, -1, dtype=np.int64)
        row_reduce_one(aug, q, piv)
        rank_a = int(np.count_nonzero((piv >= 0) & (piv < cols)))
        for s in range(y.shape[2]):
            unique[b, s] = rank_a == widths[b] and not aug[rank_a:, cols + s].any()
        for r in range(rank_a):
            x[b, piv[r]] = aug[r, cols:]
    return x, unique


def det_mod(rows, q: int) -> int:
    """Determinant by Laplace expansion along the first row, mod q."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % q
    total = 0
    for c in range(n):
        minor = [row[:c] + row[c + 1:] for row in rows[1:]]
        term = rows[0][c] * det_mod(minor, q)
        total += -term if c % 2 else term
    return total % q


def rank_by_minors(mat, q: int) -> int:
    """Largest r such that some r x r minor has nonzero determinant mod q."""
    rows = [[int(x) % q for x in row] for row in mat]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    for r in range(min(n_rows, n_cols), 0, -1):
        for row_idx in itertools.combinations(range(n_rows), r):
            for col_idx in itertools.combinations(range(n_cols), r):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                if det_mod(sub, q) != 0:
                    return r
    return 0


def _has_path(n_nodes: int, edges, s: int, t: int) -> bool:
    adj = [[] for _ in range(n_nodes)]
    for a, b in edges:
        adj[a].append(b)
    seen = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == t:
            return True
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return s == t


def mincut_by_enumeration(net, j: int, i: int) -> int:
    """Smallest edge set whose removal disconnects source j from destination i."""
    idx = {v: k for k, v in enumerate(net.nodes)}
    edges = [(idx[t], idx[h]) for t, h in net.edges]
    s, t = idx[net.sources[j]], idx[net.destinations[i]]
    if s == t:
        return 0
    for size in range(len(edges) + 1):
        for cut in itertools.combinations(range(len(edges)), size):
            kept = [e for k, e in enumerate(edges) if k not in cut]
            if not _has_path(len(net.nodes), kept, s, t):
                return size
    return len(edges)


def _one_path(n_nodes: int, edges, s: int, t: int) -> list[int]:
    """The edge ids of one s -> t path, in path order, by breadth-first search; t must be reachable."""
    out = [[] for _ in range(n_nodes)]
    for e, (a, _) in enumerate(edges):
        out[a].append(e)
    via = {s: None}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for e in out[u]:
            if edges[e][1] not in via:
                via[edges[e][1]] = e
                queue.append(edges[e][1])
    path = []
    while t != s:
        path.append(via[t])
        t = edges[via[t]][0]
    return path[::-1]


def dominator_chain(net, j: int, i: int) -> tuple[int, ...]:
    """The edges that lie on every path from source j to destination i, in the order paths cross them.

    An edge lies on every path when removing it leaves none.  Such edges lie
    in particular on one path found first, and every path crosses them in
    that path's order.
    """
    idx = {v: k for k, v in enumerate(net.nodes)}
    edges = [(idx[t], idx[h]) for t, h in net.edges]
    s, t = idx[net.sources[j]], idx[net.destinations[i]]
    return tuple(e for e in _one_path(len(net.nodes), edges, s, t)
                 if not _has_path(len(net.nodes), edges[:e] + edges[e + 1:], s, t))


def segment_verdict(net, cycle) -> str:
    """The alternating ratio's verdict around a cycle of node ids, read off the transfer functions' factors.

    On a network that passes validation every cycle pair (j, i) has mincut 1,
    so its dominator chain e_1, ..., e_r is not empty, and m_ij is the
    product of one irreducible segment polynomial per consecutive pair of
    (s_j, e_1, ..., e_r, d_i), in disjoint variables; the last factor is 1
    when e_r enters d_i, so it is left out.  By unique factorization the
    ratio is constant exactly when the numerator's multiset of segments
    equals the denominator's.  As in ``cycle_ratio``, an edge walked from a
    destination (an id of at least K) is in the numerator.
    """
    k = net.n_sources
    segments = {True: Counter(), False: Counter()}
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        j, i = (u, v - k) if u < k else (v, u - k)
        chain = dominator_chain(net, j, i)
        ends = [("source", j), *(("edge", e) for e in chain), ("destination", i)]
        if net.edges[chain[-1]][1] == net.destinations[i]:
            ends.pop()
        segments[u >= k].update(zip(ends, ends[1:]))
    return "constant" if segments[True] == segments[False] else "non-constant"


def enumerate_paths(net, j: int):
    """All directed edge-index paths from source j to any node, grouped by endpoint."""
    start = net.sources[j]
    out_edges: dict[str, list[int]] = {v: [] for v in net.nodes}
    for e, (tail, _) in enumerate(net.edges):
        out_edges[tail].append(e)
    paths_to: dict[str, list[tuple[int, ...]]] = {v: [] for v in net.nodes}
    stack = [(start, ())]
    while stack:
        node, path = stack.pop()
        if path:
            paths_to[node].append(path)
        for e in out_edges[node]:
            stack.append((net.edges[e][1], path + (e,)))
    return paths_to


def coefficient_indices(net):
    """Coefficient positions from the layout arrays: {(j, e): c} for injections, {(e_in, e_out): c} for pairs."""
    lay = net.layout
    inj = {(int(j), int(e)): int(c) for j, e, c in zip(lay.inj_col, lay.inj_edge, lay.inj_cidx)}
    pair = {(int(a), int(b)): int(c) for a, b, c in zip(lay.pair_in, lay.pair_out, lay.pair_cidx)}
    return inj, pair


def injection_value(realization, k: int, j: int, e: int) -> int:
    """Slot-k coefficient with which source j injects into its out-edge e."""
    inj, _ = coefficient_indices(realization.network)
    return int(realization.coding_assignments[k, inj[(j, e)]])


def pair_value(realization, k: int, e_in: int, e_out: int) -> int:
    """Slot-k coefficient with which in-edge e_in feeds out-edge e_out at their shared node."""
    _, pair = coefficient_indices(realization.network)
    return int(realization.coding_assignments[k, pair[(e_in, e_out)]])


def transfer_by_paths(net, realization, i: int, j: int, k: int) -> int:
    """Transfer value as the sum over paths of products of path coefficients."""
    q = realization.q
    inj, pair = coefficient_indices(net)
    coeff = realization.coding_assignments[k]
    paths = enumerate_paths(net, j)[net.destinations[i]]
    total = 0
    for path in paths:
        prod = int(coeff[inj[(j, path[0])]])
        for e_in, e_out in zip(path, path[1:]):
            prod = prod * int(coeff[pair[(e_in, e_out)]]) % q
        total = (total + prod) % q
    return total


def transfer_by_unit_columns(realization) -> np.ndarray:
    """(M, K, n) transfers from the per-edge schedule, source j injecting the unit vector e_j in every slot."""
    net, n = realization.network, realization.slot_count
    units = np.broadcast_to(np.eye(net.n_sources, dtype=np.int64)[:, :, None], (net.n_sources, net.n_sources, n))
    return net.layout.propagate(realization.coding_assignments, units, realization.q)


def propagate_symbols_by_edges(net, realization, k: int, source_symbols) -> np.ndarray:
    """Propagate one slot's source symbols through the DAG, edge by edge.

    Every out-edge carries the coded combination of its tail's in-edge
    symbols plus, at a source, the injected message symbol; a destination
    observes the sum of its in-edge symbols.  Plain Python ints throughout.
    """
    q = realization.q
    inj, pair = coefficient_indices(net)
    coeff = realization.coding_assignments[k]
    # edges by their tails in a topological order of this oracle's own Kahn pass, then by index
    out_edges: dict[str, list[int]] = {v: [] for v in net.nodes}
    for e, (t, _) in enumerate(net.edges):
        out_edges[t].append(e)
    indeg = Counter(h for _, h in net.edges)
    ready = deque(v for v in net.nodes if not indeg[v])
    edge_order = []
    while ready:
        v = ready.popleft()
        edge_order += out_edges[v]
        for e in out_edges[v]:
            h = net.edges[e][1]
            indeg[h] -= 1
            if not indeg[h]:
                ready.append(h)
    in_edges: dict[str, list[int]] = {v: [] for v in net.nodes}
    for e in edge_order:
        in_edges[net.edges[e][1]].append(e)
    source_of = {s: j for j, s in enumerate(net.sources)}

    val: dict[int, int] = {}
    for e in edge_order:
        tail = net.edges[e][0]
        acc = 0
        j = source_of.get(tail)
        if j is not None:
            acc = int(coeff[inj[(j, e)]]) * int(source_symbols[j]) % q
        for e_in in in_edges[tail]:
            acc = (acc + int(coeff[pair[(e_in, e)]]) * val[e_in]) % q
        val[e] = acc
    return np.array([sum(val[e] for e in in_edges[d]) % q for d in net.destinations], dtype=np.int64)


def bipartite_has_cycle_bruteforce(g) -> bool:
    """Cycle detection by checking every edge subset for being a single cycle.

    A subset is a cycle iff every touched node has degree exactly 2 and the
    subset is connected; the graph has a cycle iff some subset qualifies.
    """
    edges = sorted(g.edges)
    for size in range(4, len(edges) + 1, 2):
        for combo in itertools.combinations(edges, size):
            deg: dict[tuple[str, int], int] = {}
            for j, i in combo:
                deg[("x", j)] = deg.get(("x", j), 0) + 1
                deg[("y", i)] = deg.get(("y", i), 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            nodes = list(deg)
            adj = {u: [] for u in nodes}
            for j, i in combo:
                adj[("x", j)].append(("y", i))
                adj[("y", i)].append(("x", j))
            seen = {nodes[0]}
            queue = deque([nodes[0]])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
            if len(seen) == len(nodes):
                return True
    return False


def _forest_after_removal(g, removed) -> bool:
    node_id: dict[tuple[str, int], int] = {}
    kept = [e for e in g.edges if e not in removed]
    for j, i in g.edges:
        node_id.setdefault(("x", j), len(node_id))
        node_id.setdefault(("y", i), len(node_id))
    parent = list(range(len(node_id)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, i in kept:
        ra, rb = find(node_id[("x", j)]), find(node_id[("y", i)])
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def dstar_exact_removal(g) -> int:
    """Oracle for the variant removing exactly min(d, degree) edges per node.

    Enumerates, per quota d, every way of choosing exactly min(d, deg_i)
    edges at each destination node, and asks whether some choice leaves the
    graph acyclic.  Deleting more edges never creates a cycle, so this is
    also the smallest quota for removing *at most* d edges per node: the d*
    that find_dstar computes.
    """
    by_dest: dict[int, list[tuple[int, int]]] = {}
    for j, i in sorted(g.edges):
        by_dest.setdefault(i, []).append((j, i))
    max_deg = max((len(v) for v in by_dest.values()), default=0)
    for d in range(max_deg + 1):
        options = [
            list(itertools.combinations(edges, min(d, len(edges))))
            for edges in by_dest.values()
        ]
        for pick in itertools.product(*options):
            removed = set(itertools.chain.from_iterable(pick))
            if _forest_after_removal(g, removed):
                return d
    return max_deg


def bfs_tree(g: InterferenceGraph, start: Node, removed=frozenset()) -> dict[Node, Node | None]:
    """Breadth-first {node: parent} tree from ``start`` over g's edges not in ``removed``.

    Neighbours are visited in sorted edge order; the tree lists nodes in
    visit order, the start mapped to None.
    """
    adj: dict[Node, list[Node]] = {start: []}
    for j, i in sorted(g.edges - set(removed)):
        adj.setdefault(("x", j), []).append(("y", i))
        adj.setdefault(("y", i), []).append(("x", j))
    tree: dict[Node, Node | None] = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in tree:
                tree[v] = u
                queue.append(v)
    return tree


def bfs_forest(g: InterferenceGraph) -> list[dict[Node, Node | None]]:
    """One ``bfs_tree`` per component that holds a source, from its smallest source, in ascending root order."""
    trees: list[dict[Node, Node | None]] = []
    for j in range(g.n_sources):
        if not any(("x", j) in tree for tree in trees):
            trees.append(bfs_tree(g, ("x", j)))
    return trees


def integer_forest(g: InterferenceGraph, trees) -> tuple[list[int], list[int], list[list[int]]]:
    """{node: parent} trees as decompose's arrays: every node's parent (itself at a root or
    outside the trees) and tree-edge id (-1 there), and each tree's nodes in its dict order."""
    k = g.n_sources

    def node_id(v: Node) -> int:
        return v[1] if v[0] == "x" else k + v[1]

    parent, up = list(range(k + g.n_destinations)), [-1] * (k + g.n_destinations)
    for tree in trees:
        for v, u in tree.items():
            if u is not None:
                parent[node_id(v)] = node_id(u)
                up[node_id(v)] = g.ids[(v[1], u[1]) if v[0] == "x" else (u[1], v[1])]
    return parent, up, [[node_id(v) for v in tree] for tree in trees]


def precoding_by_tree_walk(trees, realization, seed: int) -> np.ndarray:
    """Precoding vectors by walking {node: parent} trees link by link, in dict order.

    Each root draws its random vector as it is reached; every other node
    takes its parent's vector times the link's transfer row, walked from a
    source down to a destination node, or times its egcd inverse, walked from
    a destination node down to a source, a vanished entry staying 0.
    """
    q, n = realization.q, realization.slot_count
    rng = np.random.default_rng(seed)
    V = np.zeros((realization.transfer.shape[1], n), dtype=np.int64)
    for tree in trees:
        scale: dict[Node, np.ndarray] = {}
        for node, parent in tree.items():
            if parent is None:
                scale[node] = rng.integers(1, q, size=n, dtype=np.int64)
            elif node[0] == "y":
                scale[node] = scale[parent] * realization.transfer[node[1], parent[1]] % q
            else:
                row = [egcd_inverse(int(m), q) if m else 0 for m in realization.transfer[parent[1], node[1]]]
                scale[node] = scale[parent] * np.array(row, dtype=np.int64) % q
            if node[0] == "x":
                V[node[1]] = scale[node]
    return V


def component_count(g: InterferenceGraph, removed=frozenset()) -> int:
    """Number of connected components of g with the edges in ``removed`` deleted (union-find)."""
    k = g.n_sources
    root = list(range(k + g.n_destinations))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    count = len(root)
    for j, i in g.edges:
        if (j, i) not in removed:
            a, b = find(j), find(k + i)
            if a != b:
                root[a] = b
                count -= 1
    return count


def independence_check(g, candidate, d: int) -> bool:
    """Membership test for the intersected matroid.

    True iff removing ``candidate`` leaves every component of g connected
    (bond-matroid independence) and at most d candidate edges touch any one
    destination node (partition-matroid independence).
    """
    cand = set(candidate)
    per_dest: dict[int, int] = {}
    for _, i in cand:
        per_dest[i] = per_dest.get(i, 0) + 1
        if per_dest[i] > d:
            return False
    return component_count(g, cand) == component_count(g)


def greedy_scan_by_component_counts(g: InterferenceGraph, labeling: tuple[Edge, ...], d: int) -> tuple[Edge, ...]:
    """The removed side's greedy scan, with one full component count per scanned edge.

    Takes each edge, in ``labeling`` order, whose removal together with the
    edges taken before it leaves every component connected, at most d per
    destination.
    """
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


def forest_scan_by_component_counts(g: InterferenceGraph, edges, room=None) -> tuple[Edge, ...]:
    """find_dstar's Kruskal scan with one full component count per edge.

    Keeps each edge, in the given order, whose addition lowers the component
    count of the kept edges while its destination has kept fewer than
    ``room[i]`` (no cap without ``room``).
    """
    kept: list[Edge] = []
    per_dest: dict[int, int] = {}
    for e in edges:
        if room is not None and per_dest.get(e[1], 0) >= room[e[1]]:
            continue
        if component_count(g, g.edges - set(kept) - {e}) == component_count(g, g.edges - set(kept)):
            continue
        kept.append(e)
        per_dest[e[1]] = per_dest.get(e[1], 0) + 1
    return tuple(kept)


def find_dstar_with_removal(g: InterferenceGraph):
    """find_dstar(g) and its pre-trim removal, as (result, removal), observed rather than recomputed.

    Wraps whatever ``sparsify._forest`` is at call time, so a swapped-in scan
    still composes.  find_dstar makes an uncapped call only to extend a
    component's capped forest to a spanning tree, and that call's edges minus
    its result are the component's removal.
    """
    scan, removal = sparsify._forest, set()

    def recording(g, edges, room=None):
        kept = scan(g, edges, room)
        if room is None:
            removal.update(set(edges).difference(kept))
        return kept

    sparsify._forest = recording
    try:
        return sparsify.find_dstar(g), frozenset(removal)
    finally:
        sparsify._forest = scan


def max_capped_forest(g: InterferenceGraph, pool, cap) -> int:
    """Size of the largest forest within ``pool`` that keeps at most ``cap[i]`` edges at each destination i.

    Tries every subset, largest first, from sum(cap), which no such forest
    exceeds; ``pool`` holds at most 11 edges.
    """
    pool = sorted(pool)
    assert len(pool) <= 11, "exhaustive search over at most 11 edges"
    base = component_count(g, g.edges)
    for size in range(min(len(pool), sum(cap.values())), 0, -1):
        for subset in itertools.combinations(pool, size):
            per_dest: dict[int, int] = {}
            for _, i in subset:
                per_dest[i] = per_dest.get(i, 0) + 1
            within_caps = all(n <= cap[i] for i, n in per_dest.items())
            if within_caps and component_count(g, g.edges - set(subset)) == base - size:
                return size
    return 0


def shortest_cycle_by_full_bfs(g: InterferenceGraph) -> tuple[int, ...] | None:
    """Shortest cycle as an alternating sequence of g's node ids, or None if acyclic.

    For every edge, BFS the shortest path between its endpoints in the graph
    without that edge; the best closure wins.  Rotated to start at the
    smallest source on the cycle for deterministic output, then written as
    node ids (source j is j, destination i is K + i).
    """
    best: list[Node] | None = None
    for j, i in sorted(g.edges):
        a: Node = ("x", j)
        b: Node = ("y", i)
        prev = bfs_tree(g, a, removed={(j, i)})
        if b not in prev:
            continue
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        if best is None or len(path) < len(best):
            best = path[::-1]
    if best is None:
        return None
    starts = [k for k, (kind, _) in enumerate(best) if kind == "x"]
    k0 = min(starts, key=lambda k: best[k][1])
    return tuple(idx if kind == "x" else g.n_sources + idx for kind, idx in best[k0:] + best[:k0])


def augment_by_component_counts(g, pool, d: int, start):
    """The exchange-graph augmentation on the removed side: bond matroid against at most d per destination.

    One full component count per bond-independence test
    (O(|I|·|out|·(V+E)) per augmentation), kept as the reference that
    find_dstar's forest side must agree with: quota d is feasible iff this
    reaches the bond rank f - k - m + 1.

    Grows ``start`` (a common independent set of the bond and partition
    matroids over ``pool``) by one element per shortest augmenting path until
    none exists; by the matroid intersection theorem the result is maximum.
    """
    base_components = component_count(g)

    def bond_ok(removal) -> bool:
        return component_count(g, removal) == base_components

    current = set(start)
    while True:
        ins = sorted(current)
        outs = sorted(e for e in pool if e not in current)
        deg = {}
        for _, i in current:
            deg[i] = deg.get(i, 0) + 1
        sources = [e for e in outs if bond_ok(current | {e})]
        sinks = {e for e in outs if deg.get(e[1], 0) + 1 <= d}
        if not sources or not sinks:
            return tuple(sorted(current))
        arcs = {e: [] for e in ins + outs}
        for y in ins:
            swapped_base = current - {y}
            for x in outs:
                if bond_ok(swapped_base | {x}):
                    arcs[y].append(x)  # exchange keeps bond independence
                extra = 1 if x[1] == y[1] else 0
                if deg.get(x[1], 0) + 1 - extra <= d:
                    arcs[x].append(y)  # exchange keeps partition independence
        prev = {e: None for e in sources}
        queue = deque(sources)
        goal = None
        for e in sources:
            if e in sinks:
                goal = e
                break
        while queue and goal is None:
            u = queue.popleft()
            for v in arcs[u]:
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
        node = goal
        while node is not None:
            current.symmetric_difference_update({node})
            node = prev[node]


def augment_by_rebuilt_exchanges(g: InterferenceGraph, pool, cap: dict[int, int], start) -> tuple[Edge, ...]:
    """find_dstar's augmentation to a maximum capped forest, with its per-round rebuilds.

    Each round counts the inside edges per destination and lists the outside
    edges per destination afresh from ``pool``; otherwise the search is
    ``sparsify._augment_to_maximum``'s, so both must grow ``start`` along the
    same shortest augmenting paths.
    """
    ids, edges, k = g.ids, g.edge_list, g.n_sources
    pool_ids = sorted(ids[e] for e in pool)
    outside = bytearray(b"\x01") * len(edges)
    for e in start:
        outside[ids[e]] = 0
    size, most = len(start), sum(cap.values())
    while size < most:
        parent, up, orders = components(g, outside)
        visit = [0] * len(parent)
        for n, v in enumerate(v for order in orders for v in order):
            visit[v] = n
        used = Counter(edges[x][1] for x in pool_ids if not outside[x])
        outs_at: dict[int, list[int]] = {}  # outside edge ids per destination, ascending
        for x in pool_ids:
            if outside[x]:
                outs_at.setdefault(edges[x][1], []).append(x)
        queue = [x for x in pool_ids if outside[x] and used[edges[x][1]] < cap[edges[x][1]]]
        prev = dict.fromkeys(queue, -1)
        goal = -1
        for u in queue:
            j, i = edges[u]
            if outside[u]:
                arcs = _tree_path(parent, up, visit, j, k + i)
                if arcs is None:
                    goal = u
                    break
            else:
                arcs = outs_at.get(i, ())
            for v in arcs:
                if v not in prev:
                    prev[v] = u
                    queue.append(v)
        if goal < 0:
            break
        while goal >= 0:
            outside[goal] ^= 1
            goal = prev[goal]
        size += 1
    return tuple(edges[x] for x in pool_ids if not outside[x])


def verdicts_by_ranks(plan) -> list[Verdict]:
    """Alignment verdicts for the plan's decode sets from four separate rank reductions per destination.

    rank(U), rank(W), rank([U | W]) and rank([U | w_rep]) each get their own
    ``gf.rank`` call, on columns diag(m_ij) V_j built one source at a time;
    ``ok`` requires all four conditions, the decode system's full rank too.
    """
    r = plan.realization
    q = r.q
    verdicts = []
    for i in range(r.network.n_destinations):
        desired = sorted(plan.new_demands[i])
        interf = sorted(plan.new_interference[i])
        u_cols = np.stack([r.transfer[i, j, :] * plan.V[j] % q for j in desired], axis=1)
        dim_u = int(gf.rank(u_cols[None], q)[0])
        if interf:
            w_cols = np.stack([r.transfer[i, j, :] * plan.V[j] % q for j in interf], axis=1)
            dim_w = int(gf.rank(w_cols[None], q)[0])
            dim_int = dim_u + dim_w - int(gf.rank(np.concatenate([u_cols, w_cols], axis=1)[None], q)[0])
            rep = np.concatenate([u_cols, w_cols[:, :1]], axis=1)
            r_det_nonzero = bool(gf.rank(rep[None], q)[0] == rep.shape[1])
        else:
            dim_w = 0
            dim_int = 0
            r_det_nonzero = dim_u == len(desired)
        ok = dim_u == len(desired) * A and dim_w <= B and dim_int == 0 and r_det_nonzero
        verdicts.append(Verdict(i, dim_u, dim_w, dim_int, ok, r_det_nonzero))
    return verdicts
