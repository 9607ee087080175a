import pytest

from pbna import obstruction as ob
from pbna.interference import CyclicGraph, build_igraph, decompose, shortest_cycle
from pbna.network import realize
from gen import fourbyfour_constant_ratio_net, sixcycle_net

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
        decompose(graph)


def test_nonconstant_rate_over_seeds(fourbyfour):
    non_constant = sum(
        ob.cycle_ratio(fourbyfour, EIGHT_CYCLE, trials=5, seed=s).verdict == "non-constant"
        for s in range(30)
    )
    assert non_constant == 30
