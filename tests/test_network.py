import collections
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pbna import cli
from pbna import network as ng
from pbna.gf import DEFAULT_Q, InvalidModulus
from gen import (cyclic_instance, forest_instance, fourbyfour_net, hub_relay_net, net_to_json, net_to_mapping,
                 random_dag_net, random_multiterminal_dag)
from oracles import (dense_transfer, enumerate_paths, injection_value, mincut_by_enumeration, mincut_by_networkx,
                     mincut_table, pair_value, rows_of_table, table_of_rows, transfer_by_paths, transfer_by_unit_columns)


def single_edge_net() -> ng.Network:
    return ng.Network(("S1", "D1"), (("S1", "D1"),), ("S1",), ("D1",), (frozenset({0}),))


# ---------------------------------------------------------------------------
# loading


def test_load_fourbyfour_roundtrip(fourbyfour):
    net = ng.load_network(net_to_json(fourbyfour))
    assert net.n_sources == 4
    assert net.n_destinations == 4
    assert net.demand_size == 2
    assert net.demands == fourbyfour.demands


def test_load_single_edge():
    text = json.dumps({
        "nodes": ["S1", "D1"],
        "edges": [["S1", "D1"]],
        "sources": ["S1"],
        "destinations": ["D1"],
        "demands": [[1]],
    })
    net = ng.load_network(text)
    assert net.n_sources == net.n_destinations == net.demand_size == 1


def test_load_unknown_node_rejected():
    text = json.dumps({
        "nodes": ["S1", "D1"],
        "edges": [["S1", "GHOST"]],
        "sources": ["S1"],
        "destinations": ["D1"],
        "demands": [[1]],
    })
    with pytest.raises(ng.ParseError):
        ng.load_network(text)


def test_load_unknown_key_rejected():
    text = json.dumps({
        "nodes": ["S1", "D1"], "edges": [], "sources": ["S1"],
        "destinations": ["D1"], "demands": [[1]], "extra": 1,
    })
    with pytest.raises(ng.ParseError):
        ng.load_network(text)


def test_load_invalid_json_rejected():
    with pytest.raises(ng.ParseError):
        ng.load_network(b"{nope")


def test_load_demand_index_out_of_range():
    text = json.dumps({
        "nodes": ["S1", "D1"], "edges": [["S1", "D1"]], "sources": ["S1"],
        "destinations": ["D1"], "demands": [[2]],
    })
    with pytest.raises(ng.ParseError):
        ng.load_network(text)


def test_load_duplicate_demand_index_rejected():
    text = json.dumps({
        "nodes": ["S1", "S2", "D1"], "edges": [["S1", "D1"], ["S2", "D1"]],
        "sources": ["S1", "S2"], "destinations": ["D1"], "demands": [[1, 1]],
    })
    with pytest.raises(ng.ParseError, match="repeats"):
        ng.load_network(text)


def test_realize_rejects_modulus_beyond_int64_contract(fourbyfour):
    with pytest.raises(InvalidModulus):
        ng.realize(fourbyfour, 3, 0, q=4294967311)
    with pytest.raises(InvalidModulus):
        ng.realize(fourbyfour, 3, 0, q=10)


def test_cycle_rejected():
    with pytest.raises(ng.CycleError):
        ng.Network(("A", "B", "D1", "S1"), (("A", "B"), ("B", "A"), ("S1", "D1")),
                   ("S1",), ("D1",), (frozenset({0}),))


@pytest.mark.parametrize("which", ["forest.json", "fourbyfour.json", "multiterminal"])
def test_topo_order_is_networkx_lexicographic_by_position(which):
    nx = pytest.importorskip("networkx")
    if which == "multiterminal":
        rng = np.random.default_rng(1962)
        nets = [random_multiterminal_dag(rng, min_nodes=4, max_nodes=14) for _ in range(300)]
    else:
        nets = [ng.load_network_file(Path(__file__).resolve().parent.parent / "networks" / which)]
    seen = {"parallel edges": 0, "source is a destination": 0, "tails of two depths into a node": 0}
    for net in nets:
        position = {v: k for k, v in enumerate(net.nodes)}
        g = nx.MultiDiGraph()
        g.add_nodes_from(range(len(net.nodes)))
        g.add_edges_from((position[t], position[h]) for t, h in net.edges)
        order = list(nx.lexicographical_topological_sort(g))
        rank = {v: t for t, v in enumerate(order)}
        # the coefficient order: edges grouped by tail in that order, then by index
        by_tail = sorted(range(len(net.edges)), key=lambda e: (rank[position[net.edges[e][0]]], e))
        assert net.edge_order == tuple(by_tail)
        # depth[v]: the edges on the longest path into v, by a DP over that order
        depth = [0] * len(net.nodes)
        for v in order:
            for _, h in g.out_edges(v):
                depth[h] = max(depth[h], depth[v] + 1)
        assert net.depth == tuple(depth)
        seen["tails of two depths into a node"] += any(len({depth[t] for t, _ in g.in_edges(v)}) > 1 for v in g)
        # the integer view names the same edges, out-edge lists and terminals
        assert [(net.nodes[net.tail[e]], net.nodes[net.head[e]]) for e in range(len(net.edges))] == list(net.edges)
        assert net.out == tuple(tuple(e for e, (t, _) in enumerate(net.edges) if t == v) for v in net.nodes)
        assert net.into == tuple(tuple(e for e, (_, h) in enumerate(net.edges) if h == v) for v in net.nodes)
        assert tuple(net.nodes[v] for v in net.source_ids) == net.sources
        assert tuple(net.nodes[v] for v in net.destination_ids) == net.destinations
        assert net.destination_of == tuple(net.destinations.index(v) if v in net.destinations else -1
                                           for v in net.nodes)
        seen["parallel edges"] += len(set(net.edges)) < len(net.edges)
        seen["source is a destination"] += bool(set(net.sources) & set(net.destinations))
    if which == "multiterminal":
        assert min(seen.values()) >= 30, seen


_TWO_HOPS = {"nodes": ["S1", "R", "D1"], "edges": [["S1", "R"], ["R", "D1"]], "sources": ["S1"],
             "destinations": ["D1"], "demands": [[1]]}


@pytest.mark.parametrize("change, cls, message", [
    ({"nodes": ["S1", "R", "D1", "R"]}, ng.ParseError, "duplicate node ids"),
    ({"edges": [["S1", "R"], ["GHOST", "D1"]]}, ng.ParseError, "edge ('GHOST', 'D1') references an unknown node"),
    ({"edges": [["S1", "GHOST"], ["R", "D1"]]}, ng.ParseError, "edge ('S1', 'GHOST') references an unknown node"),
    ({"edges": [["S1", "R"], ["R", "R"], ["R", "D1"]]}, ng.CycleError, "self-loop at node 'R'"),
    ({"sources": ["GHOST"]}, ng.ParseError, "sources entry 'GHOST' is not a declared node"),
    ({"destinations": ["GHOST"]}, ng.ParseError, "destinations entry 'GHOST' is not a declared node"),
    ({"sources": ["S1", "S1"]}, ng.ParseError, "duplicate entries in sources"),
    ({"destinations": ["D1", "D1"], "demands": [[1], [1]]}, ng.ParseError, "duplicate entries in destinations"),
    ({"edges": [["S1", "R"], ["R", "D1"], ["D1", "R"]]}, ng.CycleError, "directed graph has a cycle"),
    # the Python API once turned demands [[0, 0]] into {0}, a network with L = 1; its messages
    # name the file's 1-based indices
    ({"demands": [[1, 1]]}, ng.ParseError, "demand entry [1, 1] repeats a source index"),
    ({"demands": [[2]]}, ng.ParseError, "demand source index 2 out of range 1..1"),
    ({"demands": [[0]]}, ng.ParseError, "demand source index 0 out of range 1..1"),
])
def test_construction_errors_are_pinned(change, cls, message, tmp_path, capsys):
    spec = {**_TWO_HOPS, **change}
    with pytest.raises(ng.ParseError) as info:
        ng.Network(tuple(spec["nodes"]), tuple(map(tuple, spec["edges"])), tuple(spec["sources"]),
                   tuple(spec["destinations"]), [[j - 1 for j in d] for d in spec["demands"]])
    assert type(info.value) is cls and str(info.value) == message
    path = tmp_path / "net.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["validate", "--network", str(path)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"error: network: {message}\n"


@pytest.mark.parametrize("command", ["validate", "dstar"])
def test_duplicate_file_keys_are_pinned(command, tmp_path, capsys):
    # a second "demands" listing must not silently replace the first
    text = (Path(__file__).resolve().parent.parent / "networks" / "fourbyfour.json").read_text()
    text = text.rstrip().removesuffix("}") + ',\n  "demands": [[1, 2], [1, 2], [1, 2], [1, 2]]\n}\n'
    message = "duplicate key 'demands' in network file"
    with pytest.raises(ng.ParseError) as info:
        ng.load_network(text)
    assert type(info.value) is ng.ParseError and str(info.value) == message
    path = tmp_path / "net.json"
    path.write_text(text)
    assert cli.main([command, "--network", str(path)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"error: network: {message}\n"


def test_demand_sizes_must_match():
    with pytest.raises(ng.DemandSizeError):
        ng.Network(("S1", "S2", "D1", "D2"), (("S1", "D1"), ("S2", "D2")),
                   ("S1", "S2"), ("D1", "D2"), (frozenset({0}), frozenset({0, 1})))


def test_empty_demand_sets_rejected():
    with pytest.raises(ng.DemandSizeError, match="at least one source"):
        ng.Network(("S1", "D1"), (("S1", "D1"),), ("S1",), ("D1",), (frozenset(),))
    with pytest.raises(ng.DemandSizeError):
        ng.load_network(json.dumps({"nodes": ["S1", "D1"], "edges": [["S1", "D1"]], "sources": ["S1"],
                                    "destinations": ["D1"], "demands": [[]]}))


# ---------------------------------------------------------------------------
# mincut


def test_mincut_direct_edge():
    assert ng.mincut(single_edge_net(), 0) == {0: 1}


def test_mincut_no_path():
    net = ng.Network(("S1", "D1", "X"), (("S1", "X"),), ("S1",), ("D1",), (frozenset({0}),))
    assert ng.mincut(net, 0) == {}  # an unreached destination is left out: its mincut is 0


def test_mincut_two_disjoint_paths():
    net = ng.Network(
        ("S1", "A", "B", "D1"),
        (("S1", "A"), ("A", "D1"), ("S1", "B"), ("B", "D1")),
        ("S1",), ("D1",), (frozenset({0}),),
    )
    assert ng.mincut(net, 0) == {0: 2}
    assert mincut_by_enumeration(net, 0, 0) == 2
    # The first breadth-first path is S1-X-Y-D1.  It blocks both S1-P-Y-D1 and S1-X-Q-D1, so the
    # second path, S1-P-Y-X-Q-D1, must cancel the flow on X -> Y by crossing it backward.
    net = ng.Network(
        ("S1", "X", "P", "Y", "Q", "D1"),
        (("S1", "X"), ("S1", "P"), ("X", "Y"), ("X", "Q"), ("P", "Y"), ("Y", "D1"), ("Q", "D1")),
        ("S1",), ("D1",), (frozenset({0}),),
    )
    assert ng.mincut(net, 0) == {0: 2}
    assert mincut_by_enumeration(net, 0, 0) == 2


def test_mincut_matches_enumeration_on_random_dags():
    rng = np.random.default_rng(7)
    for _ in range(50):
        net = random_dag_net(rng)
        assert ng.mincut(net, 0).get(0, 0) == mincut_by_enumeration(net, 0, 0)


def _checked_mincuts(net, oracle):
    """The oracle's dense (M, K) mincut table, asserted to give validate_assumptions' rows."""
    table = mincut_table(net, oracle)
    assert ng.validate_assumptions(net).rows == rows_of_table(net, table), net_to_mapping(net)
    return table


def test_validate_mincuts_match_enumeration_on_multiterminal_dags():
    rng = np.random.default_rng(11)
    seen = {"unreachable": 0, "at_least_3": 0, "shared_node": 0, "parallel": 0, "into_source": 0}
    for _ in range(200):
        net = random_multiterminal_dag(rng)
        seen["shared_node"] += bool(set(net.sources) & set(net.destinations))
        seen["parallel"] += len(set(net.edges)) < len(net.edges)
        seen["into_source"] += any(h in net.sources for _, h in net.edges)
        for (i, j), cut in np.ndenumerate(_checked_mincuts(net, mincut_by_enumeration)):
            colocated = net.sources[j] == net.destinations[i]
            seen["unreachable"] += cut == 0 and not colocated
            seen["at_least_3"] += cut >= 3
    assert all(seen.values()), seen


def test_validate_mincuts_match_networkx_on_larger_dags():
    pytest.importorskip("networkx")
    rng = np.random.default_rng(12)
    largest = 0
    for _ in range(100):
        net = random_multiterminal_dag(rng, min_nodes=20, max_nodes=40, edge_prob=0.12)
        largest = max(largest, int(_checked_mincuts(net, mincut_by_networkx).max()))
    assert largest >= 3


def test_mincut_keeps_no_state_between_calls():
    net = random_multiterminal_dag(np.random.default_rng(4), min_nodes=12, max_nodes=12, edge_prob=0.5)
    sources = list(range(net.n_sources))
    runs = [
        {j: ng.mincut(net, j) for j in order}
        for order in (sources, sources[::-1], sources, sources[::-1])
    ]
    assert all(run == runs[0] for run in runs)
    assert max(max(cuts.values(), default=0) for cuts in runs[0].values()) >= 2  # flows that leave residual state


def test_mincut_columns_match_networkx_and_enumeration(monkeypatch):
    pytest.importorskip("networkx")
    flows = []
    real_flow = ng._max_flow

    def counting_flow(net_, src, dst):
        flows.append((src, dst))
        return real_flow(net_, src, dst)

    monkeypatch.setattr(ng, "_max_flow", counting_flow)
    rng = np.random.default_rng(16)
    seen = {"unreachable": 0, "at_least_3": 0, "shared_node": 0, "parallel": 0, "into_source": 0}
    for _ in range(400):
        net = random_multiterminal_dag(rng)
        seen["shared_node"] += bool(set(net.sources) & set(net.destinations))
        seen["parallel"] += len(set(net.edges)) < len(net.edges)
        seen["into_source"] += any(h in net.sources for _, h in net.edges)
        for j in range(net.n_sources):
            flows.clear()
            cuts = ng.mincut(net, j)
            assert len(flows) == sum(cut >= 2 for cut in cuts.values())  # the dominator pass settles every cut below 2
            for i in range(net.n_destinations):
                cut = cuts.get(i, 0)
                expect = mincut_by_enumeration(net, j, i)
                assert cut == expect == mincut_by_networkx(net, j, i), (net_to_mapping(net), i, j)
                assert (i in cuts) == (cut > 0)  # exactly the destinations a path reaches are listed
                seen["unreachable"] += cut == 0 and net.sources[j] != net.destinations[i]
                seen["at_least_3"] += cut >= 3
    assert all(seen.values()), seen


def test_mincut_on_deep_dags():
    # a chain: every node is dominated by the edge into it
    chain = [f"V{k}" for k in range(4000)]
    net = ng.Network(tuple(chain), tuple(zip(chain, chain[1:])), (chain[0],), tuple(chain[1:]),
                     (frozenset({0}),) * (len(chain) - 1))
    assert ng.mincut(net, 0) == dict.fromkeys(range(len(chain) - 1), 1)
    # a ladder: each rail step A<k> -> A<k+1> is doubled by a detour through the rung R<k>, so the
    # dominator tree is the rail, 2,000 deep; every rail node past A0 has mincut 2 and every rung 1
    rail = [f"A{k}" for k in range(2001)]
    rungs = [f"R{k}" for k in range(2000)]
    edges = [e for k in range(2000) for e in ((rail[k], rail[k + 1]), (rail[k], rungs[k]), (rungs[k], rail[k + 1]))]
    picked = rail[1::250] + [rail[-1]] + rungs[::500]
    net = ng.Network(tuple(rail + rungs), tuple(edges), (rail[0],), tuple(picked), (frozenset({0}),) * len(picked))
    wide = len(rail[1::250]) + 1
    assert ng.mincut(net, 0) == {i: 2 if i < wide else 1 for i in range(len(picked))}


@pytest.mark.parametrize("which", ["forest.json", "multiterminal"])
def test_validate_calls_mincut_once_per_source(which, monkeypatch):
    # the benchmark times validation through the module attribute pbna.network.mincut
    if which == "forest.json":
        net = ng.load_network_file(Path(__file__).resolve().parent.parent / "networks" / "forest.json")
    else:
        # D1 is S1's own node, D2 is unreachable, and both sources reach D3 with mincut 2 and D4 with 1
        net = random_multiterminal_dag(np.random.default_rng(9), min_nodes=8, max_nodes=8)
    calls, flows = [], []
    real_mincut, real_flow = ng.mincut, ng._max_flow

    def counting_mincut(net_, j):
        calls.append(j)
        return real_mincut(net_, j)

    def counting_flow(net_, src, dst):
        flows.append((src, dst))
        return real_flow(net_, src, dst)

    monkeypatch.setattr(ng, "mincut", counting_mincut)
    monkeypatch.setattr(ng, "_max_flow", counting_flow)
    ng.validate_assumptions(net)
    assert calls == list(range(net.n_sources))
    position = {v: k for k, v in enumerate(net.nodes)}
    wide = [(position[net.sources[j]], position[net.destinations[i]])
            for j in range(net.n_sources) for i in range(net.n_destinations)
            if mincut_by_enumeration(net, j, i) >= 2]
    assert sorted(flows) == sorted(wide)
    assert bool(wide) == (which == "multiterminal")


class _Unreadable:
    """Stands in for ``tail`` or ``head``; iterating fails, and so does indexing an edge in ``hidden``."""

    def __init__(self, values, hidden):
        self.values, self.hidden = values, hidden

    def __iter__(self):
        raise AssertionError("an edge table was iterated")

    def __getitem__(self, e):
        if e in self.hidden:
            raise AssertionError(f"edge {e} was read")
        return self.values[e]


class _NoOrder:
    """Stands in for ``edge_order`` or ``depth``, which follow the whole topological order; any read fails."""

    def __init__(self, name):
        self.name = name

    def __getattr__(self, attr):
        raise AssertionError(f"{self.name}.{attr} was read")

    def __iter__(self):
        raise AssertionError(f"{self.name} was iterated")

    def __getitem__(self, key):
        raise AssertionError(f"{self.name} was indexed")


def test_validation_walks_only_what_each_source_reaches():
    # S1 reaches D1 by two disjoint paths and D2 by one; S2 reaches D2 by one edge and D3 by two
    # parallel ones.  D4 ends a 3,000-node chain that no source reaches, and the chain comes after
    # the sources in topological order, so a pass that walked the order would cross it.  S1-D1 and
    # S2-D3 run max-flow, which must not read the chain's edges either.
    chain = [f"C{k}" for k in range(3000)]
    nodes = ("S1", "S2", "A", "B", "D1", "D2", "D3", *chain, "D4")
    edges = (("S1", "A"), ("S1", "B"), ("A", "D1"), ("B", "D1"), ("A", "D2"), ("S2", "D2"), ("S2", "D3"),
             ("S2", "D3"), *zip(chain, chain[1:] + ["D4"]))
    net = ng.Network(nodes, edges, ("S1", "S2"), ("D1", "D2", "D3", "D4"), (frozenset({0}),) * 4)
    assert net.reached == ((0, 2, 3, 4, 5), (1, 5, 6))
    assert len(net.edge_order) == len(edges) and len(net.depth) == len(nodes)
    net.edge_order, net.depth = _NoOrder("edge_order"), _NoOrder("depth")
    chain_edges = range(8, len(edges))
    net.tail, net.head = _Unreadable(net.tail, chain_edges), _Unreadable(net.head, chain_edges)
    assert table_of_rows(net, ng.validate_assumptions(net).rows).tolist() == [[2, 0], [1, 1], [0, 2], [0, 0]]


# ---------------------------------------------------------------------------
# validation


def test_demands_are_stored_as_given():
    # the file's 1-based demand lists become 0-based source index sets, one per destination, in order
    path = Path(__file__).resolve().parent.parent / "networks" / "fourbyfour.json"
    given = json.loads(path.read_text())["demands"]
    assert ng.load_network_file(path).demands == tuple(frozenset(j - 1 for j in d) for d in given)


def test_validate_fourbyfour_all_unit_mincuts(fourbyfour):
    report = ng.validate_assumptions(fourbyfour)
    assert report.ok
    assert [row[:2] for row in report.rows] == [(i, j) for i in range(4) for j in range(4)]
    assert all(cut == 1 and ok for _, _, cut, _, ok in report.rows)
    assert report.violations == ()
    report.require_ok()


def test_validate_flags_unreachable_demanded_pair():
    net = ng.Network(("S1", "S2", "D1", "D2"), (("S1", "D1"), ("S2", "D2")),
                     ("S1", "S2"), ("D1", "D2"), (frozenset({1}), frozenset({0})))
    # D1 demands S2 but only S1 reaches it, and D2 demands S1 but only S2 reaches it
    report = ng.validate_assumptions(net)
    assert not report.ok
    assert report.rows == ((0, 0, 1, False, True), (0, 1, 0, True, False), (1, 0, 0, True, False),
                           (1, 1, 1, False, True))
    assert report.violations == ((0, 1, 0, True, False), (1, 0, 0, True, False))
    with pytest.raises(ng.AssumptionViolation, match=r"\(D1, S2\) mincut=0, \(D2, S1\) mincut=0$"):
        report.require_ok()


def test_validation_holds_no_table_of_every_pair():
    # validation keeps one row per joined or demanded pair; its peak stays below one (M, K) int64 table
    net = forest_instance(np.random.default_rng(400), size=400)[0]
    tracemalloc.start()
    try:
        report = ng.validate_assumptions(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < net.n_destinations * net.n_sources * 8, peak
    assert len(report.rows) < net.n_destinations * net.n_sources // 50


def test_validate_flags_mincut_two():
    net = ng.Network(
        ("S1", "A", "B", "D1"),
        (("S1", "A"), ("A", "D1"), ("S1", "B"), ("B", "D1")),
        ("S1",), ("D1",), (frozenset({0}),),
    )
    report = ng.validate_assumptions(net)
    assert not report.ok
    assert report.rows == report.violations == ((0, 0, 2, True, False),)


def test_validate_flags_empty_interference(tmp_path, capsys):
    # the warning comes from the igraph probe the validate command draws
    path = tmp_path / "single.json"
    path.write_text(net_to_json(single_edge_net()))
    assert cli.main(["validate", "--network", str(path), "--format", "json"]) == cli.EXIT_OK
    section = json.loads(capsys.readouterr().out)["assumptions"]
    assert section["ok"]  # mincuts fine; empty interference is a warning
    assert section["empty_interference"] == ["D1"]


# ---------------------------------------------------------------------------
# realization and transfer values


def test_single_edge_transfer_is_path_product():
    net = single_edge_net()
    r = ng.realize(net, 3, seed=1)
    for k in range(3):
        assert int(dense_transfer(r)[0, 0, k]) == injection_value(r, k, 0, 0)


def test_two_hop_transfer_is_path_product():
    net = ng.Network(("S1", "R", "D1"), (("S1", "R"), ("R", "D1")),
                     ("S1",), ("D1",), (frozenset({0}),))
    r = ng.realize(net, 2, seed=3)
    for k in range(2):
        expect = injection_value(r, k, 0, 0) * pair_value(r, k, 0, 1) % r.q
        assert int(dense_transfer(r)[0, 0, k]) == expect


def test_disconnected_pair_transfer_zero():
    net = ng.Network(("S1", "S2", "D1"), (("S1", "D1"),), ("S1", "S2"), ("D1",),
                     (frozenset({0}),))
    r = ng.realize(net, 4, seed=9)
    assert (dense_transfer(r)[0, 1, :] == 0).all()
    assert (dense_transfer(ng.realize(net, 3, 0))[0, 1, :] == 0).all()
    assert not (dense_transfer(ng.realize(net, 3, 0))[0, 0, :] == 0).all()


def test_row_lookup_matches_path_enumeration_at_every_pair():
    # realize keeps one row per joined pair, then a zero row; every (destination, source) pair,
    # joined or not, reads row net.row(i, j), which must be its sum over paths
    rng = np.random.default_rng(42)
    seen = collections.Counter()
    for draw in range(330):
        if draw % 3 == 0:
            net = random_dag_net(rng, max_extra_nodes=4, max_edges=10)
        elif draw % 3 == 1:
            net = random_multiterminal_dag(rng, min_nodes=4, max_nodes=7)
        else:
            net = hub_relay_net(rng)
        q = (2, 3, 7, 2**31 - 1)[draw % 4]
        r = ng.realize(net, int(rng.integers(1, 4)), seed=int(rng.integers(2**32)), q=q)
        assert r.transfer.shape == (len(net.joined) + 1, r.slot_count)
        assert not r.transfer[-1].any()
        for i, j in itertools.product(range(net.n_destinations), range(net.n_sources)):
            paths = len(enumerate_paths(net, j)[net.destinations[i]])
            assert (net.row(i, j) < len(net.joined)) == (paths > 0), (draw, i, j)
            row = r.at(i, j).tolist()
            assert row == [transfer_by_paths(net, r, i, j, k) for k in range(r.slot_count)], (draw, i, j)
            seen["unjoined pair"] += paths == 0
            seen["pair joined by two paths"] += paths >= 2
    assert min(seen.values()) >= 300, seen


def test_layout_and_realization_hold_no_array_of_every_pair():
    # K = M = 1,500 with one direct route per destination: 1,500 joined pairs of 2.25 million, and
    # the layout and a realization hold rows for the joined ones only (one (M, K) int64 table is 18 MB)
    k = 1500
    sources, destinations = tuple(f"S{j + 1}" for j in range(k)), tuple(f"D{i + 1}" for i in range(k))
    net = ng.Network(sources + destinations, tuple(zip(sources, destinations)), sources, destinations,
                     tuple(frozenset({i}) for i in range(k)))
    tracemalloc.start()
    try:
        assert net.layout.reach.n_values == k
        r = ng.realize(net, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.transfer.shape == (k + 1, 3)
    assert peak < 8 * 2**20, peak


def _sources_reaching_tails(net):
    """Per edge, the sources that are its tail or have a networkx path to its tail."""
    import networkx as nx

    g = nx.MultiDiGraph()
    g.add_nodes_from(net.nodes)
    g.add_edges_from(net.edges)
    return [[j for j, s in enumerate(net.sources) if s == t or nx.has_path(g, s, t)] for t, _ in net.edges]


def test_transfer_matches_path_enumeration_oracle():
    # every (i, j, k) of the (edge, source) propagation against K unit columns through every edge
    # and against the sum over paths of coefficient products
    rng = np.random.default_rng(13)
    seen = collections.Counter()
    for draw in range(400):
        if draw % 2:
            net = random_dag_net(rng, max_extra_nodes=4, max_edges=10)
        else:
            net = random_multiterminal_dag(rng, min_nodes=4, max_nodes=7)
        q = (2, 3, 7, 2**31 - 1)[draw // 2 % 4]
        r = ng.realize(net, int(rng.integers(1, 4)), seed=int(rng.integers(2**32)), q=q)
        transfer = dense_transfer(r)
        assert np.array_equal(transfer, transfer_by_unit_columns(r))
        for i, j, k in np.ndindex(transfer.shape):
            assert int(transfer[i, j, k]) == transfer_by_paths(net, r, i, j, k)
        tails = {t for t, _ in net.edges}
        heads = {h for _, h in net.edges}
        seen["shared edge"] += any(len(srcs) >= 2 for srcs in _sources_reaching_tails(net))
        seen["parallel edges"] += len(set(net.edges)) < len(net.edges)
        seen["destination without in-edges"] += any(d not in heads for d in net.destinations)
        seen["source without out-edges"] += any(s not in tails for s in net.sources)
    assert min(seen.values()) >= 20, seen


def test_reached_is_each_source_and_its_descendants_in_topological_order():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(31)
    seen = collections.Counter()
    for draw in range(480):
        if draw % 4 == 0:
            net = random_multiterminal_dag(rng, min_nodes=4, max_nodes=10)
        elif draw % 4 == 1:
            net = random_dag_net(rng, max_extra_nodes=5, max_edges=10)
        elif draw % 4 == 2:
            net = forest_instance(rng)[0]
        else:
            net = cyclic_instance(rng, int(rng.integers(3, 8)), density=0.3)[0]
        g = nx.MultiDiGraph()
        g.add_nodes_from(net.nodes)
        g.add_edges_from(net.edges)
        position = {v: k for k, v in enumerate(net.nodes)}
        order = list(nx.lexicographical_topological_sort(nx.relabel_nodes(g, position)))
        assert len(net.reached) == net.n_sources
        for j, s in enumerate(net.sources):
            want = {position[v] for v in nx.descendants(g, s) | {s}}
            assert net.reached[j] == tuple(v for v in order if v in want), (net_to_mapping(net), j)
        sources = set(net.sources)
        seen["source with in-edges"] += any(h in sources for _, h in net.edges)
        seen["source reached from another"] += any(
            any(net.source_ids[k] in net.reached[j] for k in range(net.n_sources) if k != j)
            for j in range(net.n_sources))
        seen["parallel edges"] += len(set(net.edges)) < len(net.edges)
        seen["node no source reaches"] += len(set().union(*net.reached)) < len(net.nodes)
        seen["destination at a source"] += bool(sources & set(net.destinations))
    assert len(seen) == 5 and min(seen.values()) >= 20, seen


def test_reach_schedule_has_one_entry_per_reaching_source():
    rng = np.random.default_rng(71)
    for _ in range(60):
        net = random_multiterminal_dag(rng, min_nodes=4, max_nodes=9)
        assert net.layout.reach.n_values == sum(map(len, _sources_reaching_tails(net)))
        assert net.layout.reach.n_values == sum(len(net.out[v]) for nodes in net.reached for v in nodes)
    # private routes: each edge is reached by the one source whose route it is on
    for net in (forest_instance(rng, size=12)[0], cyclic_instance(rng, 12, density=0.3)[0]):
        assert net.layout.reach.n_values == len(net.edges)
        assert sum(map(len, _sources_reaching_tails(net))) == len(net.edges)


def test_mincut_zero_implies_zero_function():
    rng = np.random.default_rng(29)
    for _ in range(30):
        net = random_dag_net(rng)
        if 0 not in ng.mincut(net, 0):
            assert (dense_transfer(ng.realize(net, 3, 0))[0, 0, :] == 0).all()


def test_realize_reproducible():
    net = fourbyfour_net()
    a = ng.realize(net, 3, seed=42)
    b = ng.realize(net, 3, seed=42)
    assert np.array_equal(a.coding_assignments, b.coding_assignments)
    assert np.array_equal(dense_transfer(a), dense_transfer(b))
    c = ng.realize(net, 3, seed=43)
    assert not np.array_equal(dense_transfer(a), dense_transfer(c))


def test_transfer_invariant_under_relabeling():
    # renaming nodes (structure, list positions unchanged) must not change values
    net = fourbyfour_net()
    mapping = {name: f"node_{idx}" for idx, name in enumerate(net.nodes)}
    renamed = ng.Network(
        tuple(mapping[v] for v in net.nodes),
        tuple((mapping[t], mapping[h]) for t, h in net.edges),
        tuple(mapping[s] for s in net.sources),
        tuple(mapping[d] for d in net.destinations),
        net.demands,
    )
    a = ng.realize(net, 2, seed=5)
    b = ng.realize(renamed, 2, seed=5)
    assert np.array_equal(dense_transfer(a), dense_transfer(b))


def test_forest_instances_pass_validation():
    rng = np.random.default_rng(101)
    for _ in range(10):
        net, _ = forest_instance(rng)
        assert ng.validate_assumptions(net).ok


def test_zero_test_error_bound_is_negligible():
    # one-sided error of the 3-trial zero test for transfer degree <= 100:
    # a nonzero polynomial of degree D vanishes at a uniform point with
    # probability <= D/q, independently per trial
    assert (100 / DEFAULT_Q) ** 3 < 1e-20
