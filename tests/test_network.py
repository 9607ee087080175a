import json
from pathlib import Path

import numpy as np
import pytest

from pbna import cli
from pbna import network as ng
from pbna.gf import DEFAULT_Q, InvalidModulus
from gen import forest_instance, fourbyfour_net, net_to_json, random_dag_net, random_multiterminal_dag
from oracles import injection_value, mincut_by_enumeration, pair_value, transfer_by_paths


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
    assert ng.mincut(single_edge_net(), 0, 0) == 1


def test_mincut_no_path():
    net = ng.Network(("S1", "D1", "X"), (("S1", "X"),), ("S1",), ("D1",), (frozenset({0}),))
    assert ng.mincut(net, 0, 0) == 0


def test_mincut_two_disjoint_paths():
    net = ng.Network(
        ("S1", "A", "B", "D1"),
        (("S1", "A"), ("A", "D1"), ("S1", "B"), ("B", "D1")),
        ("S1",), ("D1",), (frozenset({0}),),
    )
    assert ng.mincut(net, 0, 0) == 2
    assert ng.mincut(net, 0, 0) == mincut_by_enumeration(net, 0, 0)


def test_mincut_matches_enumeration_on_random_dags():
    rng = np.random.default_rng(7)
    for _ in range(50):
        net = random_dag_net(rng)
        assert ng.mincut(net, 0, 0) == mincut_by_enumeration(net, 0, 0)


def _checked_pairs(net, oracle):
    """validate_assumptions' pair checks, each mincut asserted equal to the oracle's."""
    pairs = ng.validate_assumptions(net).pairs
    for p in pairs:
        assert p.mincut == oracle(net, p.source, p.destination), (net.to_mapping(), p)
    return pairs


def test_validate_mincuts_match_enumeration_on_multiterminal_dags():
    rng = np.random.default_rng(11)
    seen = {"unreachable": 0, "at_least_3": 0, "shared_node": 0, "parallel": 0, "into_source": 0}
    for _ in range(200):
        net = random_multiterminal_dag(rng)
        seen["shared_node"] += bool(set(net.sources) & set(net.destinations))
        seen["parallel"] += len(set(net.edges)) < len(net.edges)
        seen["into_source"] += any(h in net.sources for _, h in net.edges)
        for p in _checked_pairs(net, mincut_by_enumeration):
            colocated = net.sources[p.source] == net.destinations[p.destination]
            seen["unreachable"] += p.mincut == 0 and not colocated
            seen["at_least_3"] += p.mincut >= 3
    assert all(seen.values()), seen


def _networkx_mincut(net, j, i):
    import networkx as nx

    s, t = net.sources[j], net.destinations[i]
    if s == t:
        return 0
    g = nx.DiGraph()
    g.add_nodes_from(net.nodes)
    for tail, head in net.edges:
        cap = g.edges[tail, head]["capacity"] + 1 if g.has_edge(tail, head) else 1
        g.add_edge(tail, head, capacity=cap)
    return nx.maximum_flow_value(g, s, t)


def test_validate_mincuts_match_networkx_on_larger_dags():
    pytest.importorskip("networkx")
    rng = np.random.default_rng(12)
    largest = 0
    for _ in range(100):
        net = random_multiterminal_dag(rng, min_nodes=20, max_nodes=40, edge_prob=0.12)
        largest = max([largest] + [p.mincut for p in _checked_pairs(net, _networkx_mincut)])
    assert largest >= 3


def test_mincut_keeps_no_state_between_calls():
    net = random_multiterminal_dag(np.random.default_rng(4), min_nodes=12, max_nodes=12, edge_prob=0.5)
    pairs = [(j, i) for i in range(net.n_destinations) for j in range(net.n_sources)]
    runs = [
        {(j, i): ng.mincut(net, j, i) for j, i in order}
        for order in (pairs, pairs[::-1], pairs, pairs[::-1])
    ]
    assert all(run == runs[0] for run in runs)
    assert max(runs[0].values()) >= 2  # flows that leave residual state behind


@pytest.mark.parametrize("which", ["forest.json", "multiterminal"])
def test_validate_calls_mincut_once_per_connected_pair(which, monkeypatch):
    # the benchmark times validation through the module attribute pbna.network.mincut
    if which == "forest.json":
        net = ng.load_network_file(Path(__file__).resolve().parent.parent / "networks" / "forest.json")
    else:
        # D1 is S1's own node, D2 is unreachable, D3 and D4 are connected
        net = random_multiterminal_dag(np.random.default_rng(3), min_nodes=8, max_nodes=8)
    calls = []
    real = ng.mincut

    def counting(net_, j, i):
        calls.append((j, i))
        return real(net_, j, i)

    monkeypatch.setattr(ng, "mincut", counting)
    ng.validate_assumptions(net)
    connected = [(j, i) for i in range(net.n_destinations) for j in range(net.n_sources)
                 if mincut_by_enumeration(net, j, i) > 0]
    assert calls == connected
    if which == "multiterminal":
        assert len(connected) < net.n_sources * net.n_destinations


# ---------------------------------------------------------------------------
# validation


def test_validate_fourbyfour_all_unit_mincuts(fourbyfour):
    report = ng.validate_assumptions(fourbyfour)
    assert report.ok
    assert len(report.pairs) == 16
    assert all(p.mincut == 1 for p in report.pairs)
    report.require_ok()


def test_validate_flags_unreachable_demanded_pair():
    net = ng.Network(("S1", "S2", "D1", "D2"), (("S1", "D1"), ("S2", "D2")),
                     ("S1", "S2"), ("D1", "D2"), (frozenset({1}), frozenset({0})))
    # D1 demands S2 but only S1 reaches it
    report = ng.validate_assumptions(net)
    assert not report.ok
    assert any(v.demanded and v.mincut == 0 for v in report.violations)
    with pytest.raises(ng.AssumptionViolation):
        report.require_ok()


def test_validate_flags_mincut_two():
    net = ng.Network(
        ("S1", "A", "B", "D1"),
        (("S1", "A"), ("A", "D1"), ("S1", "B"), ("B", "D1")),
        ("S1",), ("D1",), (frozenset({0}),),
    )
    report = ng.validate_assumptions(net)
    assert not report.ok
    assert report.violations[0].mincut == 2


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
        assert int(r.transfer[0, 0, k]) == injection_value(r, k, 0, 0)


def test_two_hop_transfer_is_path_product():
    net = ng.Network(("S1", "R", "D1"), (("S1", "R"), ("R", "D1")),
                     ("S1",), ("D1",), (frozenset({0}),))
    r = ng.realize(net, 2, seed=3)
    for k in range(2):
        expect = injection_value(r, k, 0, 0) * pair_value(r, k, 0, 1) % r.q
        assert int(r.transfer[0, 0, k]) == expect


def test_disconnected_pair_transfer_zero():
    net = ng.Network(("S1", "S2", "D1"), (("S1", "D1"),), ("S1", "S2"), ("D1",),
                     (frozenset({0}),))
    r = ng.realize(net, 4, seed=9)
    assert (r.transfer[0, 1, :] == 0).all()
    assert (ng.realize(net, 3, 0).transfer[0, 1, :] == 0).all()
    assert not (ng.realize(net, 3, 0).transfer[0, 0, :] == 0).all()


def test_transfer_matches_path_enumeration_oracle():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(40):
        net = random_dag_net(rng, max_extra_nodes=4, max_edges=10)
        r = ng.realize(net, 2, seed=int(rng.integers(2**32)))
        for k in range(2):
            assert int(r.transfer[0, 0, k]) == transfer_by_paths(net, r, 0, 0, k)
            checked += 1
    assert checked >= 80


def test_mincut_zero_implies_zero_function():
    rng = np.random.default_rng(29)
    for _ in range(30):
        net = random_dag_net(rng)
        if ng.mincut(net, 0, 0) == 0:
            assert (ng.realize(net, 3, 0).transfer[0, 0, :] == 0).all()


def test_realize_reproducible():
    net = fourbyfour_net()
    a = ng.realize(net, 3, seed=42)
    b = ng.realize(net, 3, seed=42)
    assert np.array_equal(a.coding_assignments, b.coding_assignments)
    assert np.array_equal(a.transfer, b.transfer)
    c = ng.realize(net, 3, seed=43)
    assert not np.array_equal(a.transfer, c.transfer)


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
    assert np.array_equal(a.transfer, b.transfer)


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
