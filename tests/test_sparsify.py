import math

import numpy as np
import pytest

from pbna import interference as ig, sparsify as sp
from pbna.interference import InterferenceGraph, build_igraph, has_cycle
from pbna.network import realize
from gen import dense_bipartite, forest_instance, random_bipartite
from oracles import (augment_by_component_counts, component_count, dstar_exact_removal, greedy_scan_by_component_counts,
                     independence_check)


def eight_cycle() -> InterferenceGraph:
    return InterferenceGraph(4, 4, frozenset(
        {(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (0, 3)}
    ))


def four_cycle() -> InterferenceGraph:
    return InterferenceGraph(2, 2, frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))


def star() -> InterferenceGraph:
    return InterferenceGraph(3, 1, frozenset({(0, 0), (1, 0), (2, 0)}))


# ---------------------------------------------------------------------------
# independence_check


def test_independence_empty_set():
    assert independence_check(eight_cycle(), set(), 0)
    assert independence_check(eight_cycle(), set(), 3)


def test_independence_single_cycle_edge():
    g = eight_cycle()
    for e in g.edges:
        assert independence_check(g, {e}, 1)


def test_independence_partition_constraint():
    g = eight_cycle()
    assert not independence_check(g, {(0, 0), (1, 0)}, 1)  # both at W1
    assert independence_check(g, {(0, 0), (1, 0)}, 2) is False  # disconnects the cycle
    assert not independence_check(g, {(0, 0), (2, 1)}, 1)  # disconnects


def test_independence_keeps_tree_connected():
    g = star()
    for e in g.edges:
        assert not independence_check(g, {e}, 1)


# ---------------------------------------------------------------------------
# greedy scan, observed through find_dstar (augmentations == 0 means the
# greedy scan alone reached the spanning tree)


def test_greedy_on_tree_removes_nothing():
    res = sp.find_dstar(star())
    assert res.removed == frozenset()
    assert res.augmentations == 0


def test_greedy_on_eight_cycle_takes_first_label():
    g = eight_cycle()
    res = sp.find_dstar(g)
    assert res.removed == {sp.default_labeling(g)[0]}
    assert res.augmentations == 0


def test_greedy_on_four_cycle():
    res = sp.find_dstar(four_cycle())
    assert len(res.removed) == 1
    assert res.augmentations == 0


# ---------------------------------------------------------------------------
# find_dstar


def test_dstar_zero_on_forest():
    g = InterferenceGraph(3, 2, frozenset({(0, 0), (1, 0), (2, 1)}))
    result = sp.find_dstar(g)
    assert result.d_star == 0
    assert all(not e for e in result.extra_decode)
    assert result.h_bar.edges == g.edges


def test_dstar_eight_cycle(fourbyfour):
    g = build_igraph(fourbyfour, realize(fourbyfour, 3, 0))
    result = sp.find_dstar(g)
    assert result.d_star == 1
    assert result.d_star == dstar_exact_removal(g)
    assert not has_cycle(result.h_bar)
    # every destination decodes exactly one extra source, demands grow to 3
    assert all(len(e) == 1 for e in result.extra_decode)
    assert all(len(fourbyfour.demands[i] | e) == 3 for i, e in enumerate(result.extra_decode))
    assert all(len(result.h_bar.interferers(i)) == 1 for i in range(4))


def test_dstar_two_disjoint_cycles():
    edges = {(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 2), (2, 3), (3, 3)}
    g = InterferenceGraph(4, 4, frozenset(edges))
    result = sp.find_dstar(g)
    assert result.d_star == 1
    assert result.d_star == dstar_exact_removal(g)


def test_brute_force_small_cases():
    k23 = InterferenceGraph(2, 3, frozenset((j, i) for j in range(2) for i in range(3)))
    for g, expected in ((eight_cycle(), 1), (star(), 0), (k23, 1)):
        assert dstar_exact_removal(g) == expected
        assert sp.find_dstar(g).d_star == expected


def test_dstar_matches_bruteforce_on_random_graphs():
    rng = np.random.default_rng(1234)
    for _ in range(60):
        g = random_bipartite(rng, max_edges=12)
        assert sp.find_dstar(g).d_star == dstar_exact_removal(g)


def test_dstar_within_paper_bound_on_random_graphs():
    # The paper's 0 <= d* < K - L: keeping a spanning tree leaves every
    # destination node at least one edge, so d* <= max_i deg(W_i) - 1.
    rng = np.random.default_rng(5150)
    positive = 0
    for _ in range(150):
        g = random_bipartite(rng, max_sources=6, max_dests=5, max_edges=12)
        res = sp.find_dstar(g)
        assert res.d_star == dstar_exact_removal(g)
        if g.edges:
            assert res.d_star <= max(len(g.interferers(i)) for i in range(g.n_destinations)) - 1
        positive += res.d_star >= 1
    assert positive >= 30


def test_stalled_search_stops_at_the_degree_bound(monkeypatch):
    # With the scan and the augmentation forced to find nothing, the quota
    # loop must give up once d reaches the max destination degree.
    k52 = InterferenceGraph(5, 2, frozenset((j, i) for j in range(5) for i in range(2)))
    quotas = []

    def nothing(g, labeling, d):
        quotas.append(d)
        return ()

    monkeypatch.setattr(sp, "_greedy_scan", nothing)
    monkeypatch.setattr(sp, "_augment_to_maximum", lambda g, pool, d, start: tuple(start))
    with pytest.raises(AssertionError, match="max destination degree 5"):
        sp.find_dstar(k52)
    assert quotas == [2, 3, 4]


def test_labeling_invariance_of_greedy_size():
    rng = np.random.default_rng(777)
    for _ in range(20):
        g = random_bipartite(rng, max_edges=10)
        base = sp.find_dstar(g)
        labeling = list(sp.default_labeling(g))
        for _ in range(10):
            rng.shuffle(labeling)
            shuffled = sp.find_dstar(g, labeling=tuple(labeling))
            assert shuffled.d_star == base.d_star
            assert len(shuffled.removed) == len(base.removed)


def test_result_invariants_on_random_graphs():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        g = random_bipartite(rng, max_edges=12)
        res = sp.find_dstar(g)
        assert not has_cycle(res.h_bar)
        for i in range(g.n_destinations):
            degree = len(g.interferers(i))
            assert len(res.extra_decode[i]) == min(res.d_star, degree)
        if g.edges:
            assert res.d_star == max(len(e) for e in res.extra_decode)
        # complement of the greedy removal spans every component
        assert component_count(g, res.removed) == component_count(g)


def test_independence_check_budget():
    rng = np.random.default_rng(31415)
    for _ in range(25):
        g = random_bipartite(rng, max_edges=12)
        res = sp.find_dstar(g)
        # per component the d-loop runs at most (k-1)/m + 2 times, f checks each
        budget = 0
        for c in res.components:
            budget += math.floor((c.sources - 1) / c.destinations + 2) * c.edges
        assert res.independence_checks <= max(budget, 0) + sum(c.edges for c in res.components)


def test_rejects_bad_labeling():
    g = star()
    with pytest.raises(ValueError):
        sp.find_dstar(g, labeling=((0, 0),))


def stalling_graph() -> InterferenceGraph:
    return InterferenceGraph(4, 3, frozenset(
        {(0, 0), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)}
    ))


def test_greedy_stall_is_rescued_by_augmentation():
    # Known counterexample to "common independent sets form a matroid": with
    # the default labeling the greedy at d=1 stalls at 2 of 3 removable edges,
    # yet a quota-1 spanning-tree solution exists (e.g. drop (1,0), (2,1),
    # (0,2)).  find_dstar must still return 1 via the exact fallback.
    g = stalling_graph()
    res = sp.find_dstar(g)
    assert res.d_star == 1 == dstar_exact_removal(g)
    assert res.augmentations >= 1  # the greedy scan stalled at d = 1
    assert len(res.removed) == 3
    # the rescued removal is still independent in both matroids: complement
    # is a spanning tree and no destination loses more than d* edges
    assert independence_check(g, res.removed, res.d_star)
    kept = g.edges - res.removed
    assert len(kept) == 4 + 3 - 1
    assert not has_cycle(g.replace_edges(kept))


def _outcome(res: sp.SparsificationResult):
    return (res.removed, res.h_bar.edges, res.extra_decode, res.d_star,
            res.augmentations, res.independence_checks)


def test_bridge_oracles_build_the_component_count_exchange_graph(monkeypatch):
    # Same exchange graph, same BFS, so the same augmenting paths: every
    # result field must match the per-pair component-count construction.
    rng = np.random.default_rng(1986)
    graphs = [random_bipartite(rng, max_sources=7, max_dests=7, max_edges=20) for _ in range(120)]
    for _ in range(100):
        k, m = (int(n) for n in rng.integers(8, 15, size=2))
        density = rng.uniform(0.15, 0.4)
        graphs.append(InterferenceGraph(k, m, frozenset(
            (j, i) for j in range(k) for i in range(m) if rng.random() < density
        )))
    bridged = [sp.find_dstar(g) for g in graphs]
    monkeypatch.setattr(sp, "_augment_to_maximum", augment_by_component_counts)
    counted = [sp.find_dstar(g) for g in graphs]
    assert [_outcome(r) for r in bridged] == [_outcome(r) for r in counted]
    assert sum(r.augmentations >= 1 for r in bridged) >= 20


def test_augmentation_makes_no_connectivity_test(monkeypatch):
    # Every replacement search find_dstar makes must come from the greedy scan.
    calls = {"greedy": 0, "other": 0}
    in_greedy = []
    real_replacement, real_scan = sp._replacement_edge, sp._greedy_scan

    def counting(*args, **kwargs):
        calls["greedy" if in_greedy else "other"] += 1
        return real_replacement(*args, **kwargs)

    def scan(*args, **kwargs):
        in_greedy.append(True)
        try:
            return real_scan(*args, **kwargs)
        finally:
            in_greedy.pop()

    monkeypatch.setattr(sp, "_replacement_edge", counting)
    monkeypatch.setattr(sp, "_greedy_scan", scan)
    res = sp.find_dstar(stalling_graph())
    assert res.augmentations >= 1
    assert calls["greedy"] > 0
    assert calls["other"] == 0


def test_each_augmentation_round_makes_one_bridge_pass(monkeypatch):
    # A round either augments by one edge or ends the search, and no round
    # runs once the result reaches the bond rank f - (k + m) + 1 of the
    # pool's component.  So a call that reaches the rank makes
    # len(result) - len(start) rounds, and any other call makes one more;
    # each must cost exactly one Tarjan pass, and nothing outside the
    # augmentation may make one.
    passes = rounds = 0
    kinds = {"at_rank": 0, "below_rank": 0}
    real_tarjan, real_augment = ig._tarjan, sp._augment_to_maximum

    def counting(*args, **kwargs):
        nonlocal passes
        passes += 1
        return real_tarjan(*args, **kwargs)

    def augment(g, pool, d, start):
        nonlocal rounds
        before = passes
        result = real_augment(g, pool, d, start)
        rank = len(pool) - len({j for j, _ in pool}) - len({i for _, i in pool}) + 1
        made = len(result) - len(start) + (len(result) < rank)
        assert passes - before == made
        kinds["at_rank" if len(result) == rank else "below_rank"] += 1
        rounds += made
        return result

    monkeypatch.setattr(ig, "_tarjan", counting)
    monkeypatch.setattr(sp, "_augment_to_maximum", augment)
    augmented = sum(sp.find_dstar(g).augmentations for g in _corpus(1992, sparse=0, dense=60))
    assert passes == rounds
    assert augmented >= 20 and rounds > augmented
    assert kinds["at_rank"] >= 10 and kinds["below_rank"] >= 10


def _corpus(seed: int, sparse: int, dense: int) -> list[InterferenceGraph]:
    """``sparse`` small random_bipartite graphs, then ``dense`` 8-15 node graphs."""
    rng = np.random.default_rng(seed)
    return ([random_bipartite(rng, max_sources=7, max_dests=7, max_edges=20) for _ in range(sparse)]
            + [dense_bipartite(rng) for _ in range(dense)])


def test_most_extra_decoded_sources_at_one_destination_is_d_star():
    # rate_report's reference slot count max_i |new_demands[i]| + 1 is L + d* + 1
    # because some destination decodes exactly d* extra sources and none more
    d_stars = []
    for g in _corpus(3000, sparse=150, dense=150):
        s = sp.find_dstar(g)
        assert max(map(len, s.extra_decode)) == s.d_star
        d_stars.append(s.d_star)
    assert sum(d > 0 for d in d_stars) >= 100


def test_greedy_scan_matches_the_component_count_scan(monkeypatch):
    # The spanning-forest certificate must accept exactly the edges that one
    # full component count per candidate accepts, in any label order.  A
    # replacement search runs only for a candidate in the forest, so each
    # scan's non-tree accepts are its accepts minus its replacements.
    found = {"replaced": 0, "bridge": 0}
    real_replacement = sp._replacement_edge

    def counting(*args, **kwargs):
        y = real_replacement(*args, **kwargs)
        found["replaced" if y >= 0 else "bridge"] += 1
        return y

    monkeypatch.setattr(sp, "_replacement_edge", counting)
    rng = np.random.default_rng(625)
    graphs = _corpus(1324, sparse=220, dense=100)
    cyclic = sum(has_cycle(g) for g in graphs)
    seen = {"non_tree_accept": 0, "replaced": 0, "bridge": 0, "quota_skip": 0}
    cases = 0
    for g in graphs:
        shuffled = list(sp.default_labeling(g))
        rng.shuffle(shuffled)
        for labeling in (sp.default_labeling(g), tuple(shuffled)):
            for d in range(5):
                found.update(replaced=0, bridge=0)
                chosen = sp._greedy_scan(g, labeling, d)
                assert chosen == greedy_scan_by_component_counts(g, labeling, d)
                cases += 1
                seen["non_tree_accept"] += len(chosen) > found["replaced"]
                seen["replaced"] += found["replaced"] > 0
                seen["bridge"] += found["bridge"] > 0
                seen["quota_skip"] += len(labeling) > len(chosen) + found["bridge"]
    assert cases >= 2000 and cyclic >= 50
    assert min(seen.values()) >= 100, seen


def test_quota_zero_scan_builds_no_forest_on_forest_graphs(monkeypatch):
    # An acyclic component needs no removal, so find_dstar scans it only at
    # d = 0, where every candidate misses the quota: no union-find, no tree
    # search.
    calls: dict[str, list[tuple]] = {}

    def record(name):
        real = getattr(sp, name)
        calls[name] = []

        def recorded(*args):
            calls[name].append(args)
            return real(*args)

        monkeypatch.setattr(sp, name, recorded)

    for name in ("_greedy_scan", "_spanning_forest", "_replacement_edge"):
        record(name)
    for size in (16, 48):
        _, edges = forest_instance(np.random.default_rng(size), size=size)
        res = sp.find_dstar(InterferenceGraph(size, size, edges))
        assert res.d_star == 0 and not res.removed and res.augmentations == 0
    assert len(calls["_greedy_scan"]) >= 2
    assert all(d == 0 for _, _, d in calls["_greedy_scan"])
    assert calls["_spanning_forest"] == calls["_replacement_edge"] == []


def test_find_dstar_matches_the_component_count_search(monkeypatch):
    # The whole search, with the greedy scan and the augmentation both
    # replaced by their one-component-count-per-test oracles, must give every
    # result field unchanged; small graphs are also checked exhaustively.
    graphs = _corpus(1226, sparse=150, dense=180)
    fast = [sp.find_dstar(g) for g in graphs]
    for g, res in zip(graphs, fast):
        if len(g.edges) <= 12:
            assert res.d_star == dstar_exact_removal(g)
    monkeypatch.setattr(sp, "_greedy_scan", greedy_scan_by_component_counts)
    monkeypatch.setattr(sp, "_augment_to_maximum", augment_by_component_counts)
    counted = [sp.find_dstar(g) for g in graphs]
    assert [_outcome(r) for r in fast] == [_outcome(r) for r in counted]
    assert len(graphs) >= 300
    assert sum(r.augmentations >= 1 for r in fast) >= 100
