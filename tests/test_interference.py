import numpy as np
import pytest

from pbna import interference as ig
from pbna import sparsify as sp
from pbna.network import Network, realize
from gen import (cyclic_instance, dense_bipartite, forest_instance, random_bipartite, random_dag_net,
                 random_multiterminal_dag)
from oracles import bipartite_has_cycle_bruteforce, edge_ids, find_dstar_with_removal, shortest_cycle_by_full_bfs


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
    assert g.interferers(0) == ()


def test_has_cycle_tree_and_disjoint_edges():
    tree = ig.InterferenceGraph(3, 1, frozenset({(0, 0), (1, 0), (2, 0)}))
    assert not ig.has_cycle(tree)
    two_edges = ig.InterferenceGraph(2, 2, frozenset({(0, 0), (1, 1)}))
    assert not ig.has_cycle(two_edges)


def test_integer_view_matches_the_edge_set():
    # The view built at construction: edge ids follow sorted edge order, and
    # incidence lists each node's edges by ascending id.
    rng = np.random.default_rng(2028)
    graphs = [ig.InterferenceGraph(3, 2, iter(()))]
    graphs += [random_bipartite(rng, max_sources=7, max_dests=7, max_edges=20) for _ in range(120)]
    graphs += [dense_bipartite(rng) for _ in range(40)]
    for size in (12, 20, 30):
        net, drawn = cyclic_instance(rng, size, density=0.1)
        graphs.append(graph_of(net))
        assert graphs[-1].edges == drawn
    seen = {"isolated": 0, "several_components": 0}
    for g in graphs:
        k = g.n_sources
        assert isinstance(g.edges, frozenset)
        assert g.edge_list == tuple(sorted(g.edges))
        assert edge_ids(g, g.edge_list) == tuple(range(len(g.edges)))
        assert len(g.incidence) == k + g.n_destinations
        for v, pairs in enumerate(g.incidence):
            assert pairs == [(k + i if v == j else j, x) for x, (j, i) in enumerate(sorted(g.edges)) if v in (j, k + i)]
        seen["isolated"] += any(not pairs for pairs in g.incidence)
        seen["several_components"] += sum(len(c) > 1 for c in ig.connected_components(g)) >= 2
    assert graphs[0].edge_list == () and graphs[0].incidence == ([],) * 5
    assert min(seen.values()) >= 20, seen


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
    assert ig.decompose(g, bytes(len(g.edge_list))) == ([0, 1, 1], [-1, -1, 0], [[0], [1, 2]])


def test_decompose_path():
    g = ig.InterferenceGraph(2, 1, frozenset({(0, 0), (1, 0)}))
    # S1 -(edge 0)- W1 -(edge 1)- S2
    assert ig.decompose(g, bytes(len(g.edge_list))) == ([0, 2, 0], [-1, 1, 0], [[0, 2, 1]])


def test_decompose_star():
    g = ig.InterferenceGraph(3, 1, frozenset({(0, 0), (1, 0), (2, 0)}))
    # S1 -(edge 0)- W1, then S2 and S3 below W1 over edges 1 and 2
    assert ig.decompose(g, bytes(len(g.edge_list))) == ([0, 3, 3, 0], [-1, 1, 2, 0], [[0, 3, 1, 2]])


def test_decompose_rejects_cycles():
    g = ig.InterferenceGraph(2, 2, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    with pytest.raises(ig.CyclicGraph):
        ig.decompose(g, bytes(len(g.edge_list)))


def test_decompose_partitions_nodes_and_levels_alternate():
    rng = np.random.default_rng(4)
    for _ in range(40):
        g = random_bipartite(rng, max_edges=8)
        if ig.has_cycle(g):
            continue
        k = g.n_sources
        parent, up, orders = ig.decompose(g, bytes(len(g.edge_list)))
        seen_x: list[int] = []
        # destinations without an interferer form their own components and carry no tree
        seen_y = [i for i in range(g.n_destinations) if not g.interferers(i)]
        for order in orders:
            seen_x.extend(v for v in order if v < k)
            seen_y.extend(v - k for v in order if v >= k)
            depth = _depths(parent, order)
            for v, d in depth.items():
                assert (v < k) == (d % 2 == 0)
            # every tree edge is a graph edge joining consecutive levels
            for v in order[1:]:
                u = parent[v]
                assert g.edge_list[up[v]] == ((v, u - k) if v < k else (u, v - k))
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


def test_probe_graph_is_reachability_minus_demands():
    # A transfer function is identically zero iff no path joins the pair, so
    # the probe at the default q must find exactly the pairs that networkx
    # connects by a path, less the demanded ones; a destination at the
    # source's own node is joined by no path of edges, so it is unreached.
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(2020)
    seen = {"parallel edges": 0, "destination at a source": 0, "source reached from another": 0}
    for draw in range(840):
        if draw % 4 == 0:
            net = random_multiterminal_dag(rng, min_nodes=4, max_nodes=10)
        elif draw % 4 == 1:
            net = random_dag_net(rng, max_extra_nodes=5, max_edges=10)
        elif draw % 4 == 2:
            net = forest_instance(rng)[0]
        else:
            net = cyclic_instance(rng, int(rng.integers(3, 8)), density=0.3)[0]
        h = nx.MultiDiGraph()
        h.add_nodes_from(net.nodes)
        h.add_edges_from(net.edges)
        reached = {(j, i) for j, s in enumerate(net.sources) for i, d in enumerate(net.destinations)
                   if s != d and nx.has_path(h, s, d)}
        assert graph_of(net).edges == {(j, i) for j, i in reached if j not in net.demands[i]}, draw
        seen["parallel edges"] += len(set(net.edges)) < len(net.edges)
        seen["destination at a source"] += bool(set(net.sources) & set(net.destinations))
        seen["source reached from another"] += any(s != t and nx.has_path(h, s, t)
                                                   for s in net.sources for t in net.sources)
    assert min(seen.values()) >= 50, seen


def test_shortest_cycle_on_eight_cycle(fourbyfour):
    g = graph_of(fourbyfour)
    cyc = ig.shortest_cycle(g)
    # S1, W4, S4, W3, S3, W2, S2, W1 as node ids: consecutive nodes are joined by interference edges
    assert cyc == (0, 7, 3, 6, 2, 5, 1, 4)
    assert all(_edge(g, u, v) in g.edges for u, v in zip(cyc, cyc[1:] + cyc[:1]))


def test_shortest_cycle_none_on_forest():
    g = ig.InterferenceGraph(3, 2, frozenset({(0, 0), (1, 0), (2, 1)}))
    assert ig.shortest_cycle(g) is None


def test_components_discovered_in_ascending_root_order():
    rng = np.random.default_rng(12)
    for _ in range(30):
        g = random_bipartite(rng, max_edges=8)
        if ig.has_cycle(g):
            continue
        parent, up, orders = ig.decompose(g, bytes(len(g.edge_list)))
        roots = [order[0] for order in orders]
        assert roots == sorted(roots)
        for root, order in zip(roots, orders):
            assert parent[root] == root and up[root] == -1
            assert root == min(v for v in order if v < g.n_sources)


# ---------------------------------------------------------------------------
# traversal layer against networkx


def _mask(g: ig.InterferenceGraph, removed) -> bytearray:
    """The edges in ``removed``, all of them g's, as a mask over g's edge ids."""
    mask = bytearray(len(g.edge_list))
    for x in edge_ids(g, removed):
        mask[x] = 1
    return mask


def _edge(g: ig.InterferenceGraph, u: int, v: int) -> tuple[int, int]:
    """The (source, destination) pair of two node ids, one of each side, in either order."""
    k = g.n_sources
    return (u, v - k) if u < k else (v, u - k)


def _nx_graph(g: ig.InterferenceGraph, removed=frozenset()):
    """g minus ``removed`` as a networkx graph over g's node ids."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(len(g.incidence)))
    h.add_edges_from((j, g.n_sources + i) for j, i in g.edges - set(removed))
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
        assert cyc[0] == min(cyc) < g.n_sources
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            assert (u < g.n_sources) != (v < g.n_sources)
            assert _edge(g, u, v) in g.edges
    assert seen_cyclic > 50


def test_connected_components_match_networkx_under_removals():
    rng = np.random.default_rng(77)
    counts, cyclic = set(), set()
    for _ in range(250):
        g = random_bipartite(rng, max_sources=7, max_dests=7, max_edges=16)
        edges = sorted(g.edges)
        for removed in [{e for e in edges if rng.random() < 0.4} for _ in range(3)] + [set()]:
            nx, h = _nx_graph(g, removed)
            rest = ig.InterferenceGraph(g.n_sources, g.n_destinations, g.edges - removed)
            components = ig.connected_components(rest)
            # ascending order of the smallest member, each component's node ids sorted
            assert components == sorted(sorted(c) for c in nx.connected_components(h))
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
                ig.decompose(g, bytes(len(g.edge_list)))
            cyclic += 1
            continue
        forests += 1
        parent, up, orders = ig.decompose(g, bytes(len(g.edge_list)))
        with_source = sorted((c for c in nx.connected_components(h) if min(c) < g.n_sources), key=min)
        assert [set(order) for order in orders] == with_source
        for order, comp in zip(orders, with_source):
            root = order[0]
            assert root == min(comp)
            lengths = nx.shortest_path_length(h, root)
            for v in order:
                assert (parent[v] == v) == (v == root) == (up[v] == -1)
                if v != root:
                    assert h.has_edge(parent[v], v)
                    assert g.edge_list[up[v]] == _edge(g, parent[v], v)
            assert _depths(parent, order) == lengths
    assert forests > 100 and cyclic > 50


def _forest_walk(g: ig.InterferenceGraph, forest):
    """One components pass over ``forest``, g's other edges masked: parent and tree-edge arrays, visit positions."""
    parent, up, orders = ig.components(g, _mask(g, g.edges - set(forest)))
    visit = [0] * len(parent)
    for n, v in enumerate(v for order in orders for v in order):
        visit[v] = n
    return parent, up, visit


def test_bridges_match_networkx_under_removals():
    # A components pass over G - R gives a spanning forest I of it; the
    # bridges of G - R are the edges of I that no tree path of an unmasked
    # edge outside I covers.  This checks the masked pass and the forest-path
    # walk together against networkx's bridges.
    rng = np.random.default_rng(1974)
    disconnected = isolated = bridgeless = 0
    for _ in range(250):
        g = random_bipartite(rng, max_sources=7, max_dests=7, max_edges=30)
        share = rng.choice([0.0, 0.15, 0.4])
        removed = {e for e in sorted(g.edges) if rng.random() < share}
        nx, h = _nx_graph(g, removed)
        forest = {g.edge_list[e] for e in ig.components(g, _mask(g, removed))[1] if e >= 0}
        _, tree = _nx_graph(g, g.edges - forest)
        assert nx.is_forest(tree) and nx.number_connected_components(tree) == nx.number_connected_components(h)
        walk = _forest_walk(g, forest)
        covered = set()
        for j, i in sorted(g.edges - removed - forest):
            covered.update(g.edge_list[e] for e in sp._tree_path(*walk, j, g.n_sources + i))
        found = forest - covered
        assert found == {_edge(g, u, v) for u, v in nx.bridges(h)}
        disconnected += not nx.is_connected(h)
        isolated += nx.number_of_isolates(h) > 0
        bridgeless += h.number_of_edges() > 0 and not found
    assert disconnected > 50 and isolated > 50 and bridgeless > 10


def test_forest_paths_do_not_recurse_on_long_paths():
    # a 4,000-node path S1-W1-S2-W2-...-Sn-Wn, closed into a cycle by (S1, Wn),
    # with a pendant source S(n+1) at W1; a recursive DFS would exceed
    # Python's default recursion limit of 1,000 frames
    n = 2000
    path = {(j, j) for j in range(n)} | {(j + 1, j) for j in range(n - 1)}
    g = ig.InterferenceGraph(n + 1, n, frozenset(path | {(0, n - 1), (n, 0)}))
    res, removal = find_dstar_with_removal(g)
    assert res.d_star == 1 and len(removal) == 1
    # S1 to Wn crosses every edge of the 4,000-node path
    assert sorted(sp._tree_path(*_forest_walk(g, path), 0, 2 * n)) == sorted(edge_ids(g, path))
    # From the path, at two kept edges per destination: W1 is full, Wn has room
    # for (S1, Wn), which closes the whole path, and the pendant edge joins S(n+1)
    # once an edge at W1 leaves.  The one augmenting path walks all 3,999 edges.
    cap = dict.fromkeys(range(n), 2)
    grown = {g.edge_list[x] for x in sp._augment_to_maximum(g, sp.default_labeling(g), cap, edge_ids(g, path))}
    assert len(grown) == 2 * n and {(0, n - 1), (n, 0)} <= grown
    assert len(path - grown) == 1 and (path - grown) <= {(0, 0), (1, 0)}
    assert not ig.has_cycle(ig.InterferenceGraph(n + 1, n, grown))


def test_shortest_cycle_matches_one_full_bfs_per_edge():
    # The early-exit, depth-bounded searches must name exactly the cycle that
    # one complete breadth-first tree per edge names, rotation included.
    rng = np.random.default_rng(1978)
    graphs = [random_bipartite(rng, max_sources=7, max_dests=7, max_edges=16) for _ in range(250)]
    graphs += [dense_bipartite(rng) for _ in range(100)]
    assert [ig.shortest_cycle(g) for g in graphs] == [shortest_cycle_by_full_bfs(g) for g in graphs]
    assert sum(ig.has_cycle(g) for g in graphs) >= 150


def test_bridge_forest_arcs_match_networkx():
    # find_dstar's augmentation reads an outside edge x's exchange arcs, the
    # edges y of the forest I for which I - y + x is a forest, off one
    # components pass over I: they are the edges on the tree path between x's
    # ends, i.e. the edges of I that are no bridge of I + x, and an x whose
    # ends lie in two trees has none and joins them.  Every path must be
    # networkx's path in I, over random forests of random graphs.
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(1992)
    graphs = [random_bipartite(rng, max_sources=7, max_dests=7, max_edges=30) for _ in range(250)]
    graphs += [dense_bipartite(rng) for _ in range(50)]
    seen = {"checked": 0, "with_path": 0, "joins": 0, "isolated": 0, "mixed": 0, "spanning": 0}
    for g in graphs:
        share = rng.choice([0.4, 0.8, 1.0])
        weighted = nx.Graph()
        weighted.add_weighted_edges_from((j, g.n_sources + i, rng.random()) for j, i in sorted(g.edges)
                                         if rng.random() < share)
        forest = {_edge(g, u, v) for u, v in nx.minimum_spanning_edges(weighted, data=False)}
        walk = _forest_walk(g, forest)
        _, h = _nx_graph(g, g.edges - forest)
        joins = closes = 0
        for j, i in sorted(g.edges - forest):
            found = sp._tree_path(*walk, j, g.n_sources + i)
            u, v = j, g.n_sources + i
            if nx.has_path(h, u, v):
                nodes = nx.shortest_path(h, u, v)
                assert sorted(found) == sorted(edge_ids(g, [_edge(g, a, b) for a, b in zip(nodes, nodes[1:])]))
                h.add_edge(u, v)
                bridges = {_edge(g, a, b) for a, b in nx.bridges(h)}
                h.remove_edge(u, v)
                assert {g.edge_list[e] for e in found} == forest - bridges
                closes += 1
            else:
                assert found is None
                joins += 1
            seen["checked"] += 1
        seen["with_path"] += closes
        seen["joins"] += joins
        seen["isolated"] += nx.number_of_isolates(h) > 0
        seen["mixed"] += joins > 0 and closes > 0
        seen["spanning"] += closes > 0 and not joins
    assert seen["checked"] > 500 and seen["with_path"] > 300, seen
    assert seen["joins"] > 50 and seen["isolated"] > 50 and seen["mixed"] >= 40 and seen["spanning"] > 10, seen
