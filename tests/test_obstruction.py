import itertools
from collections import Counter

import networkx as nx
import numpy as np
import pytest

import oracles
from pbna import obstruction as ob
from pbna.gf import DEFAULT_Q
from pbna.interference import CyclicGraph, build_igraph, decompose, shortest_cycle
from pbna.network import realize, validate_assumptions
from gen import fourbyfour_constant_ratio_net, fourbyfour_net, hub_relay_net, sixcycle_net

# S1, W1, S2, W2, S3, W3, S4, W4 as node ids: source j is j, destination i is 4 + i
EIGHT_CYCLE = (0, 4, 1, 5, 2, 6, 3, 7)


def test_generic_fourbyfour_ratio_non_constant(fourbyfour):
    ratio = ob.cycle_ratio(fourbyfour, EIGHT_CYCLE, trials=5, seed=0)
    assert ratio.verdict == "non-constant"
    assert len(ratio.evaluations) == 5


def test_shared_path_ratio_is_constant_one():
    net = fourbyfour_constant_ratio_net()
    ratio = ob.cycle_ratio(net, EIGHT_CYCLE, trials=5, seed=0)
    assert ratio.verdict == "constant"
    assert all(e in (None, 1) for e in ratio.evaluations)
    assert sum(e is not None for e in ratio.evaluations) >= 2


def test_trials_below_two_rejected(fourbyfour):
    with pytest.raises(ValueError):
        ob.cycle_ratio(fourbyfour, EIGHT_CYCLE, trials=1)


def test_not_a_cycle_rejections(fourbyfour):
    with pytest.raises(ob.NotACycle):
        ob.cycle_ratio(fourbyfour, EIGHT_CYCLE[:2], trials=2)  # too short
    with pytest.raises(ob.NotACycle):
        ob.cycle_ratio(fourbyfour, EIGHT_CYCLE[:3], trials=2)  # odd length
    with pytest.raises(ob.NotACycle, match="distinct"):
        ob.cycle_ratio(fourbyfour, (0, 4, 0, 4), trials=2)
    not_alternating = (0, 1, 4, 5)
    with pytest.raises(ob.NotACycle, match="alternate"):
        ob.cycle_ratio(fourbyfour, not_alternating, trials=2)
    demanded = (2, 4, 1, 5)  # (S3, W1) is demanded at D1
    with pytest.raises(ob.NotACycle, match=r"\(S3, W1\) is a demanded pair"):
        ob.cycle_ratio(fourbyfour, demanded, trials=2)
    for out_of_range in ((0, 4, 1, 8), (-1, 4, 1, 5)):  # ids run 0..7
        with pytest.raises(ob.NotACycle, match=r"out of range: the graph has node ids 0\.\.7"):
            ob.cycle_ratio(fourbyfour, out_of_range, trials=2)


def test_cycle_edges_walk_the_cycle_in_order(fourbyfour):
    # the edge from each node to the next, whichever side the walk starts on
    edges = ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (0, 3))
    assert ob.cycle_edges(fourbyfour, EIGHT_CYCLE) == edges
    assert ob.cycle_edges(fourbyfour, EIGHT_CYCLE[1:] + EIGHT_CYCLE[:1]) == edges[1:] + edges[:1]


def test_rotation_invariance(fourbyfour):
    base = ob.cycle_ratio(fourbyfour, EIGHT_CYCLE, trials=3, seed=7)
    rotated = ob.cycle_ratio(fourbyfour, EIGHT_CYCLE[2:] + EIGHT_CYCLE[:2], trials=3, seed=7)
    assert base.evaluations == rotated.evaluations


def test_reflection_inverts(fourbyfour):
    q = 2147483647
    base = ob.cycle_ratio(fourbyfour, EIGHT_CYCLE, trials=3, seed=7)
    reflected = ob.cycle_ratio(fourbyfour, EIGHT_CYCLE[:1] + tuple(reversed(EIGHT_CYCLE[1:])),
                               trials=3, seed=7)
    for a, b in zip(base.evaluations, reflected.evaluations):
        if a is not None and b is not None:
            assert a * b % q == 1


def test_infeasibility_statement_on_fourbyfour(fourbyfour):
    graph = build_igraph(fourbyfour, realize(fourbyfour, 3, 0))
    ratio = ob.cycle_ratio(fourbyfour, EIGHT_CYCLE, trials=5, seed=0)
    rep = ob.infeasibility_report(fourbyfour, ratio, graph)
    assert rep.four_by_four_cycle
    assert rep.claim == "infeasible"
    assert "1/3" in rep.statement and "1/4" in rep.statement


def test_constant_verdict_makes_no_claim():
    net = fourbyfour_constant_ratio_net()
    graph = build_igraph(net, realize(net, 3, 0))
    ratio = ob.cycle_ratio(net, EIGHT_CYCLE, trials=5, seed=0)
    rep = ob.infeasibility_report(net, ratio, graph)
    assert rep.four_by_four_cycle
    assert rep.claim == "none"


def test_six_cycle_gets_advisory_only():
    net = sixcycle_net()
    graph = build_igraph(net, realize(net, 3, 0))
    cyc = shortest_cycle(graph)
    assert cyc is not None and len(cyc) == 6
    ratio = ob.cycle_ratio(net, cyc, trials=5, seed=0)
    assert ratio.verdict == "non-constant"
    rep = ob.infeasibility_report(net, ratio, graph)
    assert not rep.four_by_four_cycle
    assert rep.claim == "advisory"


def test_pipeline_refuses_precoding_on_cyclic_graph(fourbyfour):
    # success at n = L+1 despite a cycle can never be produced by this
    # pipeline: decomposition refuses cyclic graphs outright
    graph = build_igraph(fourbyfour, realize(fourbyfour, 3, 0))
    with pytest.raises(CyclicGraph):
        decompose(graph, bytes(len(graph.edge_list)))


def test_nonconstant_rate_over_seeds(fourbyfour):
    non_constant = sum(
        ob.cycle_ratio(fourbyfour, EIGHT_CYCLE, trials=5, seed=s).verdict == "non-constant"
        for s in range(30)
    )
    assert non_constant == 30


def _cycles(net, limit: int = 30) -> list[tuple[int, ...]]:
    """Up to ``limit`` cycles of at most 10 nodes of the default-q interference graph, as node ids."""
    k = net.n_sources
    graph = nx.Graph([(j, k + i) for j, i in build_igraph(net, realize(net, 3, 0)).edges])
    return [tuple(c) for c in itertools.islice(nx.simple_cycles(graph, length_bound=10), limit)]


def test_segment_verdict_agrees_with_cycle_ratio():
    # the exact verdict compares the segments between the dominator edges of each pair's transfer function
    nets = [fourbyfour_net(), fourbyfour_constant_ratio_net(), sixcycle_net()]
    nets += [hub_relay_net(np.random.default_rng(seed)) for seed in range(700)]
    seen = Counter()
    for net in nets:
        assert validate_assumptions(net).ok
        flow = nx.MultiDiGraph(net.edges)
        doubled = [edge for edge, copies in Counter(net.edges).items() if copies > 1]
        for cycle in _cycles(net):
            pairs = ob.cycle_edges(net, cycle)
            chains = [oracles.dominator_chain(net, j, i) for j, i in pairs]
            verdict = oracles.segment_verdict(net, cycle)
            assert ob.cycle_ratio(net, cycle, trials=6).verdict == verdict, (net, cycle)
            seen[verdict] += 1
            seen["dominator shared by two pairs"] += max(Counter(e for c in chains for e in c).values()) > 1
            seen["last edge enters the destination"] += any(
                net.edges[c[-1]][1] == net.destinations[i] for c, (_, i) in zip(chains, pairs))
            seen["parallel edges"] += any(
                nx.has_path(flow, net.sources[j], a) and nx.has_path(flow, b, net.destinations[i])
                for j, i in pairs for a, b in doubled)
    assert sum(seen[v] for v in ("constant", "non-constant")) >= 2000, seen
    assert min(seen[v] for v in ("constant", "non-constant")) >= 100, seen
    assert min(seen.values()) >= 20, seen


def _cyclic_hub_relay_nets(count: int):
    nets = (hub_relay_net(np.random.default_rng(seed)) for seed in itertools.count())
    return list(itertools.islice((net for net in nets if _cycles(net, 1)), count))


def test_cycle_ratio_evaluates_each_slot_of_one_realization(monkeypatch):
    # every trial recomputed from the realization cycle_ratio drew, as sums over paths with egcd inverses
    drawn = []

    def capture(*args):
        drawn.append(realize(*args))
        return drawn[-1]

    monkeypatch.setattr(ob, "realize", capture)
    nets = [fourbyfour_net(), fourbyfour_constant_ratio_net(), sixcycle_net(), *_cyclic_hub_relay_nets(200)]
    vanished = 0  # trials whose denominator vanished
    for net in nets:
        for cycle in _cycles(net, 2):
            for q in (DEFAULT_Q, 3, 5):
                drawn.clear()
                ratio = ob.cycle_ratio(net, cycle, trials=5, q=q)
                (r,) = drawn
                assert r.slot_count == 5 and r.q == q
                expected = []
                for t in range(5):
                    num = den = 1
                    for u, (j, i) in zip(cycle, ob.cycle_edges(net, cycle)):
                        m = oracles.transfer_by_paths(net, r, i, j, t)
                        num, den = (num * m % q, den) if u >= net.n_sources else (num, den * m % q)
                    expected.append(None if den == 0 else num * oracles.egcd_inverse(den, q) % q)
                assert ratio.evaluations == tuple(expected), (net, cycle, q)
                vanished += expected.count(None)
    assert vanished >= 20
