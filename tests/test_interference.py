import numpy as np
import pytest

from pbna import interference as ig
from pbna import sparsify as sp
from pbna.network import Network, realize
from gen import dense_bipartite, forest_instance, random_bipartite
from oracles import bipartite_has_cycle_bruteforce, shortest_cycle_by_full_bfs


def graph_of(net: Network, trials: int = 3, seed: int = 0):
    return ig.build_igraph(net, realize(net, trials, seed))


def test_fourbyfour_is_the_eight_cycle(fourbyfour):
    g = graph_of(fourbyfour)
    expected = {(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (0, 3)}
    assert set(g.edges) == expected
    assert ig.has_cycle(g)


def test_single_interference_edge():
    net = Network(("S1", "S2", "D1"), (("S1", "D1"), ("S2", "D1")),
                  ("S1", "S2"), ("D1",), (frozenset({0}),))
    g = graph_of(net)
    assert set(g.edges) == {(1, 0)}
    assert g.interferers(0) == (1,)


def test_empty_interference_raises_unless_allowed():
    net = Network(("S1", "D1"), (("S1", "D1"),), ("S1",), ("D1",), (frozenset({0}),))
    g = graph_of(net)
    assert g.edges == frozenset()
    assert g.empty_destinations() == (0,)


def test_has_cycle_tree_and_disjoint_edges():
    tree = ig.InterferenceGraph(3, 1, frozenset({(0, 0), (1, 0), (2, 0)}))
    assert not ig.has_cycle(tree)
    two_edges = ig.InterferenceGraph(2, 2, frozenset({(0, 0), (1, 1)}))
    assert not ig.has_cycle(two_edges)


def test_has_cycle_matches_bruteforce_on_random_graphs():
    rng = np.random.default_rng(99)
    seen_cyclic = 0
    for _ in range(60):
        g = random_bipartite(rng, max_edges=10)
        expect = bipartite_has_cycle_bruteforce(g)
        assert ig.has_cycle(g) == expect
        seen_cyclic += expect
    assert seen_cyclic > 5


def _depths(parent, order) -> dict:
    """Depth of every node of one visit order; a KeyError means a child came before its parent."""
    depth = {}
    for v in order:
        depth[v] = 0 if parent[v] == v else depth[parent[v]] + 1
    return depth


def test_decompose_single_edge():
    g = ig.InterferenceGraph(2, 1, frozenset({(1, 0)}))
    # the isolated source S1, then the S2-W1 tree; W1 is node 2, reached over edge 0
    assert ig.decompose(g) == ([0, 1, 1], [-1, -1, 0], [[0], [1, 2]])


def test_decompose_path():
    g = ig.InterferenceGraph(2, 1, frozenset({(0, 0), (1, 0)}))
    # S1 -(edge 0)- W1 -(edge 1)- S2
    assert ig.decompose(g) == ([0, 2, 0], [-1, 1, 0], [[0, 2, 1]])


def test_decompose_star():
    g = ig.InterferenceGraph(3, 1, frozenset({(0, 0), (1, 0), (2, 0)}))
    # S1 -(edge 0)- W1, then S2 and S3 below W1 over edges 1 and 2
    assert ig.decompose(g) == ([0, 3, 3, 0], [-1, 1, 2, 0], [[0, 3, 1, 2]])


def test_decompose_rejects_cycles():
    g = ig.InterferenceGraph(2, 2, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    with pytest.raises(ig.CyclicGraph):
        ig.decompose(g)


def test_decompose_partitions_nodes_and_levels_alternate():
    rng = np.random.default_rng(4)
    for _ in range(40):
        g = random_bipartite(rng, max_edges=8)
        if ig.has_cycle(g):
            continue
        k = g.n_sources
        parent, up, orders = ig.decompose(g)
        seen_x: list[int] = []
        # destinations without an interferer form their own components and carry no tree
        seen_y: list[int] = list(g.empty_destinations())
        for order in orders:
            seen_x.extend(v for v in order if v < k)
            seen_y.extend(v - k for v in order if v >= k)
            depth = _depths(parent, order)
            for v, d in depth.items():
                assert (v < k) == (d % 2 == 0)
            # every tree edge is a graph edge joining consecutive levels
            for v in order[1:]:
                u = parent[v]
                assert g.index.edges[up[v]] == ((v, u - k) if v < k else (u, v - k))
                assert depth[v] == depth[u] + 1
        assert sorted(seen_x) == list(range(g.n_sources))
        assert sorted(seen_y) == list(range(g.n_destinations))


def test_edges_shrink_when_demands_grow():
    rng = np.random.default_rng(55)
    for _ in range(10):
        net, _ = forest_instance(rng)
        g = graph_of(net)
        # add one interfering source to every demand set (sizes stay equal)
        extra = []
        for i in range(net.n_destinations):
            options = [j for j in range(net.n_sources) if j not in net.demands[i]]
            extra.append(options[0] if options else None)
        if any(e is None for e in extra):
            continue
        bigger = Network(net.nodes, net.edges, net.sources, net.destinations,
                         tuple(net.demands[i] | {extra[i]} for i in range(net.n_destinations)))
        g2 = graph_of(bigger)
        assert g2.edges <= g.edges
        for i, j in enumerate(extra):
            assert (j, i) not in g2.edges


def test_shortest_cycle_on_eight_cycle(fourbyfour):
    g = graph_of(fourbyfour)
    cyc = ig.shortest_cycle(g)
    assert cyc is not None and len(cyc) == 8
    assert cyc[0] == ("x", 0)
    # consecutive nodes are joined by interference edges
    for t in range(8):
        u, v = cyc[t], cyc[(t + 1) % 8]
        j, i = (u[1], v[1]) if u[0] == "x" else (v[1], u[1])
        assert (j, i) in g.edges


def test_shortest_cycle_none_on_forest():
    g = ig.InterferenceGraph(3, 2, frozenset({(0, 0), (1, 0), (2, 1)}))
    assert ig.shortest_cycle(g) is None


def test_to_dot_lists_every_edge(fourbyfour):
    g = graph_of(fourbyfour)
    dot = ig.to_dot(g)
    assert dot.startswith("graph interference {")
    assert dot.count(" -- ") == 8
    assert '"S1" -- "W1";' in dot


def test_components_discovered_in_ascending_root_order():
    rng = np.random.default_rng(12)
    for _ in range(30):
        g = random_bipartite(rng, max_edges=8)
        if ig.has_cycle(g):
            continue
        parent, up, orders = ig.decompose(g)
        roots = [order[0] for order in orders]
        assert roots == sorted(roots)
        for root, order in zip(roots, orders):
            assert parent[root] == root and up[root] == -1
            assert root == min(v for v in order if v < g.n_sources)


# ---------------------------------------------------------------------------
# traversal layer against networkx


def _mask(g: ig.InterferenceGraph, removed) -> bytearray:
    """The edges in ``removed``, all of them g's, as a mask over g's edge ids."""
    mask = bytearray(len(g.index.edges))
    for edge in removed:
        mask[g.index.ids[edge]] = 1
    return mask


def _refs(g: ig.InterferenceGraph) -> list:
    """Every node's NodeRef, by node id: sources, then destinations."""
    return [("x", j) for j in range(g.n_sources)] + [("y", i) for i in range(g.n_destinations)]


def _nx_graph(g: ig.InterferenceGraph, removed=frozenset()):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(_refs(g))
    h.add_edges_from((("x", j), ("y", i)) for j, i in g.edges - set(removed))
    return nx, h


def test_shortest_cycle_matches_networkx_girth():
    rng = np.random.default_rng(2024)
    seen_cyclic = 0
    for _ in range(250):
        g = random_bipartite(rng, max_sources=7, max_dests=7, max_edges=16)
        nx, h = _nx_graph(g)
        cyc = ig.shortest_cycle(g)
        girth = nx.girth(h)
        if cyc is None:
            assert girth == float("inf")
            continue
        seen_cyclic += 1
        assert len(cyc) == girth
        assert len(set(cyc)) == len(cyc)
        for t, u in enumerate(cyc):
            v = cyc[(t + 1) % len(cyc)]
            assert u[0] != v[0]
            assert ((u[1], v[1]) if u[0] == "x" else (v[1], u[1])) in g.edges
    assert seen_cyclic > 50


def test_connected_components_match_networkx_under_removals():
    rng = np.random.default_rng(77)
    counts, cyclic = set(), set()
    for _ in range(250):
        g = random_bipartite(rng, max_sources=7, max_dests=7, max_edges=16)
        edges = sorted(g.edges)
        for removed in [{e for e in edges if rng.random() < 0.4} for _ in range(3)] + [set()]:
            nx, h = _nx_graph(g, removed)
            rest = g.replace_edges(g.edges - removed)
            components = ig.connected_components(rest)
            # ascending order of the smallest member, each component's node ids sorted
            refs = _refs(g)
            assert components == sorted(sorted(refs.index(v) for v in c) for c in nx.connected_components(h))
            assert ig.has_cycle(rest) == (not nx.is_forest(h))
            counts.add(len(components))
            cyclic.add(ig.has_cycle(rest))
    assert len(counts) > 5 and cyclic == {True, False}


def test_decompose_matches_networkx():
    rng = np.random.default_rng(3141)
    forests = cyclic = 0
    for _ in range(300):
        g = random_bipartite(rng, max_sources=7, max_dests=7, max_edges=10)
        nx, h = _nx_graph(g)
        if not nx.is_forest(h):
            with pytest.raises(ig.CyclicGraph):
                ig.decompose(g)
            cyclic += 1
            continue
        forests += 1
        parent, up, orders = ig.decompose(g)
        refs = _refs(g)
        with_source = sorted((c for c in nx.connected_components(h) if any(v[0] == "x" for v in c)),
                             key=lambda c: min(c))
        assert [{refs[v] for v in order} for order in orders] == with_source
        for order, comp in zip(orders, with_source):
            root = order[0]
            assert refs[root] == min(v for v in comp if v[0] == "x")
            lengths = nx.shortest_path_length(h, refs[root])
            for v in order:
                assert (parent[v] == v) == (v == root) == (up[v] == -1)
                if v != root:
                    assert h.has_edge(refs[parent[v]], refs[v])
                    j, i = g.index.edges[up[v]]
                    assert {("x", j), ("y", i)} == {refs[parent[v]], refs[v]}
            assert {refs[v]: d for v, d in _depths(parent, order).items()} == lengths
    assert forests > 100 and cyclic > 50


def _bridges(g: ig.InterferenceGraph, removed=frozenset()) -> set:
    """The bridges of g minus ``removed``, as flagged by find_dstar's BFS-forest certificate."""
    is_bridge, _ = sp._bridge_certificate(g, _mask(g, removed))
    return {edge for edge, flag in zip(g.index.edges, is_bridge) if flag}


def test_bridges_match_networkx_under_removals():
    rng = np.random.default_rng(1974)
    disconnected = isolated = bridgeless = 0
    for _ in range(250):
        g = random_bipartite(rng, max_sources=7, max_dests=7, max_edges=30)
        share = rng.choice([0.0, 0.15, 0.4])
        removed = {e for e in sorted(g.edges) if rng.random() < share}
        nx, h = _nx_graph(g, removed)
        expected = {(u[1], v[1]) if u[0] == "x" else (v[1], u[1]) for u, v in nx.bridges(h)}
        found = _bridges(g, removed)
        assert found == expected
        disconnected += not nx.is_connected(h)
        isolated += nx.number_of_isolates(h) > 0
        bridgeless += h.number_of_edges() > 0 and not found
    assert disconnected > 50 and isolated > 50 and bridgeless > 10


def test_bridges_do_not_recurse_on_long_paths():
    # a 4,000-node path S1-W1-S2-W2-...; a recursive DFS would exceed
    # Python's default recursion limit of 1,000 frames
    n = 2000
    path = {(j, j) for j in range(n)} | {(j + 1, j) for j in range(n - 1)}
    g = ig.InterferenceGraph(n, n, frozenset(path))
    assert _bridges(g) == path
    # S1 to W_n crosses every edge of the 4,000-node BFS tree, all of them bridges
    _, bridge_path = sp._bridge_certificate(g, _mask(g, ()))
    assert bridge_path(0, 2 * n - 1) == list(range(len(path)))
    assert _bridges(g.replace_edges(path | {(0, n - 1)})) == set()


def test_shortest_cycle_matches_one_full_bfs_per_edge():
    # The early-exit, depth-bounded searches must name exactly the cycle that
    # one complete breadth-first tree per edge names, rotation included.
    rng = np.random.default_rng(1978)
    graphs = [random_bipartite(rng, max_sources=7, max_dests=7, max_edges=16) for _ in range(250)]
    graphs += [dense_bipartite(rng) for _ in range(100)]
    assert [ig.shortest_cycle(g) for g in graphs] == [shortest_cycle_by_full_bfs(g) for g in graphs]
    assert sum(ig.has_cycle(g) for g in graphs) >= 150


def _bond_removal(rng, nx, g):
    """A random edge set whose removal keeps every component of g connected.

    Each edge is tried with probability 1/2, so G minus the set usually
    keeps cycles, and with them 2-edge-connected classes of several nodes.
    """
    h = nx.Graph()
    h.add_nodes_from(_refs(g))
    h.add_edges_from((("x", j), ("y", i)) for j, i in g.edges)
    components = nx.number_connected_components(h)
    removal = set()
    for j, i in sorted(g.edges, key=lambda e: rng.random()):
        if rng.random() < 0.5:
            continue
        h.remove_edge(("x", j), ("y", i))
        if nx.number_connected_components(h) == components:
            removal.add((j, i))
        else:
            h.add_edge(("x", j), ("y", i))
    return removal


def test_bridge_forest_arcs_match_networkx():
    # For I keeping every component connected and H = G - I: the exchange
    # arcs out of y in I are the x outside I that are no bridge of H + y,
    # i.e. H's non-bridges plus the bridges on the BFS-tree path of y's ends.
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(1992)
    graphs = [random_bipartite(rng, max_sources=7, max_dests=7, max_edges=20) for _ in range(150)]
    graphs += [dense_bipartite(rng) for _ in range(50)]
    checked = with_path = mixed = 0
    for g in graphs:
        removal = _bond_removal(rng, nx, g)
        outs = g.edges - removal
        mask = _mask(g, removal)
        is_bridge, bridge_path = sp._bridge_certificate(g, mask)
        _, h = _nx_graph(g, removal)
        cut = {(u[1], v[1]) if u[0] == "x" else (v[1], u[1]) for u, v in nx.bridges(h)}
        assert {e for e in outs if is_bridge[g.index.ids[e]]} == cut
        # H has a bridge and a tree edge that some non-tree edge covers
        tree = {e for e in ig.components(g, mask)[1] if e >= 0}
        mixed += bool(cut) and any(not is_bridge[e] for e in tree)
        for j, i in sorted(removal):
            path = bridge_path(j, g.n_sources + i)
            assert path == sorted(set(path))
            h.add_edge(("x", j), ("y", i))
            still = {(u[1], v[1]) if u[0] == "x" else (v[1], u[1]) for u, v in nx.bridges(h)}
            h.remove_edge(("x", j), ("y", i))
            arcs = {e for e in outs if e not in cut} | {g.index.edges[e] for e in path}
            assert arcs == {x for x in outs if x not in still}
            assert {g.index.edges[e] for e in path} <= cut
            checked += 1
            with_path += bool(path)
    assert checked > 500 and with_path > 300 and mixed >= 40
