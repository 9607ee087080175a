import numpy as np
import pytest

from pbna import interference as ig
from pbna.network import Network, realize
from gen import forest_instance, random_bipartite
from oracles import bipartite_has_cycle_bruteforce


def graph_of(net: Network, trials: int = 3, seed: int = 0, allow_empty: bool = True):
    return ig.build_igraph(net, realize(net, trials, seed), allow_empty=allow_empty)


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
    with pytest.raises(ig.EmptyInterference):
        graph_of(net, allow_empty=False)
    g = graph_of(net, allow_empty=True)
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


def test_decompose_single_edge():
    g = ig.InterferenceGraph(2, 1, frozenset({(1, 0)}))
    forest = ig.decompose(g)
    # S2-W1 tree plus the isolated source S1
    by_root = {c.root: c for c in forest.components}
    assert set(by_root) == {0, 1}
    assert by_root[1].levels == ((("x", 1),), (("y", 0),))
    assert by_root[0].levels == ((("x", 0),),)


def test_decompose_path():
    g = ig.InterferenceGraph(2, 1, frozenset({(0, 0), (1, 0)}))
    forest = ig.decompose(g)
    (comp,) = forest.components
    assert comp.root == 0
    assert comp.levels == ((("x", 0),), (("y", 0),), (("x", 1),))


def test_decompose_star():
    g = ig.InterferenceGraph(3, 1, frozenset({(0, 0), (1, 0), (2, 0)}))
    (comp,) = ig.decompose(g).components
    assert comp.root == 0
    assert comp.levels == ((("x", 0),), (("y", 0),), (("x", 1), ("x", 2)))


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
        forest = ig.decompose(g)
        seen_x: list[int] = []
        seen_y: list[int] = list(forest.isolated_y)
        for comp in forest.components:
            seen_x.extend(comp.x_nodes)
            seen_y.extend(comp.y_nodes)
            for depth, level in enumerate(comp.levels):
                for kind, _ in level:
                    assert kind == ("x" if depth % 2 == 0 else "y")
            # every tree edge joins consecutive levels
            for j, i in comp.edges:
                assert abs(comp.depth[("x", j)] - comp.depth[("y", i)]) == 1
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
        roots = [c.root for c in ig.decompose(g).components]
        assert roots == sorted(roots)
        for comp in ig.decompose(g).components:
            assert comp.root == min(comp.x_nodes)


# ---------------------------------------------------------------------------
# traversal layer against networkx


def _nx_graph(g: ig.InterferenceGraph, removed=frozenset()):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.adjacency)
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


def test_component_count_matches_networkx_under_removals():
    rng = np.random.default_rng(77)
    for _ in range(250):
        g = random_bipartite(rng, max_sources=7, max_dests=7, max_edges=16)
        edges = sorted(g.edges)
        for _ in range(3):
            removed = {e for e in edges if rng.random() < 0.4}
            nx, h = _nx_graph(g, removed)
            assert ig.component_count(g, removed) == nx.number_connected_components(h)
        nx, h = _nx_graph(g)
        assert ig.component_count(g) == nx.number_connected_components(h)
        assert ig.has_cycle(g) == (not nx.is_forest(h))


def test_bridges_match_networkx_under_removals():
    rng = np.random.default_rng(1974)
    disconnected = isolated = bridgeless = 0
    for _ in range(250):
        g = random_bipartite(rng, max_sources=7, max_dests=7, max_edges=30)
        share = rng.choice([0.0, 0.15, 0.4])
        removed = {e for e in sorted(g.edges) if rng.random() < share}
        nx, h = _nx_graph(g, removed)
        expected = {(u[1], v[1]) if u[0] == "x" else (v[1], u[1]) for u, v in nx.bridges(h)}
        found = ig.bridges(g, removed)
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
    assert ig.bridges(g) == path
    assert ig.bridges(g.replace_edges(path | {(0, n - 1)})) == set()
