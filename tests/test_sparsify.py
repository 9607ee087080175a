import math
from collections import Counter

import numpy as np
import pytest

from pbna import sparsify as sp
from pbna.interference import CyclicGraph, InterferenceGraph, build_igraph, connected_components, decompose, has_cycle
from pbna.network import realize
from gen import cyclic_instance, dense_bipartite, forest_instance, hub_bipartite, random_bipartite
from oracles import (augment_by_component_counts, augment_by_rebuilt_exchanges, component_count, dstar_exact_removal,
                     edge_ids, find_dstar_with_removal, forest_scan_by_component_counts,
                     greedy_scan_by_component_counts, independence_check, max_capped_forest, sparsified_graph)


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
# greedy scan, observed through find_dstar's removal before the trim
# (augmentations == 0 means the greedy scan alone reached the spanning tree)


def test_greedy_on_tree_removes_nothing():
    res, removal = find_dstar_with_removal(star())
    assert removal == frozenset()
    assert res.augmentations == 0


def test_greedy_on_eight_cycle_takes_first_label():
    g = eight_cycle()
    res, removal = find_dstar_with_removal(g)
    assert removal == {g.edge_list[sp.default_labeling(g)[0]]}
    assert res.augmentations == 0


def test_greedy_on_four_cycle():
    res, removal = find_dstar_with_removal(four_cycle())
    assert len(removal) == 1
    assert res.augmentations == 0


# ---------------------------------------------------------------------------
# find_dstar


def test_dstar_zero_on_forest():
    g = InterferenceGraph(3, 2, frozenset({(0, 0), (1, 0), (2, 1)}))
    result = sp.find_dstar(g)
    assert result.d_star == 0
    assert all(not e for e in result.extra_decode)
    assert result.graph is g and sparsified_graph(result).edges == g.edges


def test_dstar_eight_cycle(fourbyfour):
    g = build_igraph(fourbyfour, realize(fourbyfour, 3, 0))
    result = sp.find_dstar(g)
    assert result.d_star == 1
    assert result.d_star == dstar_exact_removal(g)
    h_bar = sparsified_graph(result)
    assert not has_cycle(h_bar)
    # every destination decodes exactly one extra source, demands grow to 3
    assert all(len(e) == 1 for e in result.extra_decode)
    assert all(len(fourbyfour.demands[i] | e) == 3 for i, e in enumerate(result.extra_decode))
    assert all(len(h_bar.interferers(i)) == 1 for i in range(4))


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


def test_degree_count_never_exceeds_the_exhaustive_dstar():
    # find_dstar starts each component at the degree count's quota, so that
    # count must be a lower bound on the component's exhaustive d*.
    rng = np.random.default_rng(4096)
    graphs = [random_bipartite(rng, max_sources=6, max_dests=6, max_edges=14) for _ in range(100)]
    graphs += [hub_bipartite(rng) for _ in range(200)]
    seen = {"equal": 0, "below": 0}
    for g in graphs:
        for comp in connected_components(g):
            members = set(comp)
            edges = [e for e in g.edges if e[0] in members]
            if not edges:
                continue
            target = len(edges) - len(comp) + 1
            start = sp._degree_count_quota(Counter(i for _, i in edges).values(), target)
            exact = dstar_exact_removal(InterferenceGraph(g.n_sources, g.n_destinations, edges))
            assert start <= exact
            if target > 0:
                seen["equal" if start == exact else "below"] += 1
    assert min(seen.values()) >= 20, seen


def test_stalled_search_stops_at_the_degree_bound(monkeypatch):
    # With the scan and the augmentation forced to find nothing, the quota
    # loop must give up once d reaches the max destination degree.
    k52 = InterferenceGraph(5, 2, frozenset((j, i) for j in range(5) for i in range(2)))
    caps = []

    def nothing(g, edges, room=None):
        caps.append(sorted(room.values()))
        return ()

    monkeypatch.setattr(sp, "_forest", nothing)
    monkeypatch.setattr(sp, "_augment_to_maximum", lambda g, pool, cap, start: tuple(start))
    with pytest.raises(AssertionError, match="max destination degree 5"):
        sp.find_dstar(k52)
    assert caps == [[3, 3], [2, 2], [1, 1]]  # quotas 2, 3 and 4


def test_labeling_invariance_of_greedy_size():
    rng = np.random.default_rng(777)
    reordered = 0
    for _ in range(20):
        g = random_bipartite(rng, max_edges=10)
        base, base_removal = find_dstar_with_removal(g)
        labeling = list(sp.default_labeling(g))
        with pytest.MonkeyPatch.context() as mp:
            for _ in range(10):
                rng.shuffle(labeling)
                mp.setattr(sp, "default_labeling", lambda g, order=tuple(labeling): order)
                shuffled, removal = find_dstar_with_removal(g)
                assert shuffled.d_star == base.d_star
                assert len(removal) == len(base_removal)
                reordered += removal != base_removal
    assert reordered > 0  # the shuffled orders reach the scan


def test_result_invariants_on_random_graphs():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        g = random_bipartite(rng, max_edges=12)
        res, removal = find_dstar_with_removal(g)
        assert not has_cycle(sparsified_graph(res))
        for i in range(g.n_destinations):
            degree = len(g.interferers(i))
            assert len(res.extra_decode[i]) == min(res.d_star, degree)
        if g.edges:
            assert res.d_star == max(len(e) for e in res.extra_decode)
        # complement of the greedy removal spans every component
        assert component_count(g, removal) == component_count(g)


def test_trim_tops_each_removal_up_with_the_first_labels_outside_it():
    # extra_decode[i] is the removal at W_i plus W_i's first edges in label
    # order outside it, min(d*, deg_i) sources in all
    rng = np.random.default_rng(1776)
    graphs = [random_bipartite(rng, max_edges=12) for _ in range(200)] + [dense_bipartite(rng) for _ in range(150)]
    seen = {"stalled": 0, "deg <= d*": 0, "trimmed": 0}
    for g in graphs:
        res, removal = find_dstar_with_removal(g)
        labels = [g.edge_list[x] for x in sp.default_labeling(g)]
        for i in range(g.n_destinations):
            own = {j for j, d in removal if d == i}
            want = min(res.d_star, len(g.interferers(i)))
            assert len(own) <= want
            trimmed = [j for j, d in labels if d == i and j not in own][:want - len(own)]
            assert res.extra_decode[i] == own | set(trimmed)
            assert len(res.extra_decode[i]) == want
            seen["deg <= d*"] += 0 < len(g.interferers(i)) <= res.d_star
            seen["trimmed"] += bool(trimmed)
        seen["stalled"] += res.augmentations > 0
    assert min(seen.values()) >= 10, seen


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


def _caps(g: InterferenceGraph, pool, d: int) -> dict[int, int]:
    """Each destination's kept-edge cap max(deg - d, 1) at quota d, the degrees counted within ``pool``'s edge ids.

    At d = 0 the caps are the degrees, which no forest of ``pool`` can exceed.
    """
    return {i: max(deg - d, 1) for i, deg in Counter(g.edge_list[x][1] for x in pool).items()}


def _pool(g: InterferenceGraph, members) -> tuple[int, ...]:
    """The edge ids of the component whose node ids are ``members``, in label order."""
    return tuple(x for x in sp.default_labeling(g) if g.edge_list[x][0] in members)


def _forest_feasible(g: InterferenceGraph, pool, d: int) -> bool:
    """Quota d on the forest side: the scan, rescued by the augmentation, reaches sum(cap)."""
    cap = _caps(g, pool, d)
    return len(sp._augment_to_maximum(g, pool, cap, sp._forest(g, pool[::-1], cap))) == sum(cap.values())


def stalling_graph() -> InterferenceGraph:
    return InterferenceGraph(4, 2, frozenset(
        {(0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)}
    ))


def test_greedy_stall_is_rescued_by_augmentation():
    # Known counterexample to "common independent sets form a matroid": at
    # d = 1 the caps are 2 at W1 and 3 at W2, a spanning tree's 5 edges.  The
    # scan in reverse label order fills W2 with (3,1), (2,1) and (1,1) before
    # it reaches S1's only edge (0,1), so it stalls at 4 edges, yet a quota-1
    # spanning tree exists (e.g. keep (0,1), (1,1), (2,1), (1,0), (3,0)).
    # find_dstar must still return 1 via the exact fallback.
    g = stalling_graph()
    cap = _caps(g, sp.default_labeling(g), 1)
    assert len(sp._forest(g, sp.default_labeling(g)[::-1], cap)) == 4 < sum(cap.values()) == 5
    res, removal = find_dstar_with_removal(g)
    assert res.d_star == 1 == dstar_exact_removal(g)
    assert res.augmentations == 1  # the scan stalled at d = 1
    assert len(removal) == 2
    # the rescued removal is independent in both matroids: its complement
    # is a spanning tree and no destination loses more than d* edges
    assert independence_check(g, removal, res.d_star)
    kept = g.edges - removal
    assert len(kept) == 4 + 2 - 1
    assert not has_cycle(InterferenceGraph(g.n_sources, g.n_destinations, kept))


def _outcome(res: sp.SparsificationResult, removal):
    return (removal, sparsified_graph(res).edges, res.extra_decode, res.d_star,
            res.augmentations, res.independence_checks)


def test_forest_side_is_feasible_iff_the_bond_oracle_reaches_the_bond_rank():
    # Quota d is one question asked from two sides: can a removal of at most
    # d edges per destination keep every component connected (bond matroid),
    # and can a forest keep max(deg - d, 1) edges at every destination
    # (graphic matroid)?  At every quota from the degree count to the
    # component's d, both must give the same answer: no below d, yes at d.
    rng = np.random.default_rng(1986)
    graphs = [random_bipartite(rng, max_sources=7, max_dests=7, max_edges=20) for _ in range(1000)]
    graphs += [hub_bipartite(rng) for _ in range(300)]
    for _ in range(100):
        k, m = (int(n) for n in rng.integers(8, 15, size=2))
        density = rng.uniform(0.15, 0.4)
        graphs.append(InterferenceGraph(k, m, frozenset(
            (j, i) for j in range(k) for i in range(m) if rng.random() < density
        )))
    seen = {"infeasible": 0, "feasible": 0, "stalled": 0}
    for g in graphs:
        res = sp.find_dstar(g)
        with_edges = [set(comp) for comp in connected_components(g) if len(comp) > 1]
        for members, stats in zip(with_edges, res.components, strict=True):
            pool = _pool(g, members)
            pairs = [g.edge_list[x] for x in pool]
            rank = stats.edges - stats.sources - stats.destinations + 1
            if rank == 0:
                continue
            start = sp._degree_count_quota(Counter(i for _, i in pairs).values(), rank)
            for d in range(start, stats.d + 1):
                bond = augment_by_component_counts(g, pairs, d, greedy_scan_by_component_counts(g, pairs, d))
                assert _forest_feasible(g, pool, d) == (len(bond) == rank) == (d == stats.d)
                seen["feasible" if d == stats.d else "infeasible"] += 1
                cap = _caps(g, pool, d)
                seen["stalled"] += len(sp._forest(g, pool[::-1], cap)) < sum(cap.values())
    assert len(graphs) >= 1000
    assert min(seen.values()) >= 20, seen


def test_augmentation_reaches_the_exhaustive_maximum_capped_forest():
    # From the scan's forest and from nothing, the augmenting paths must
    # reach the largest capped forest that subset enumeration finds, at
    # every quota from 1 to the component's max degree - 1, feasible or not.
    rng = np.random.default_rng(2543)
    seen = {"stalled": 0, "below_sum": 0, "at_sum": 0}
    graphs = 0
    while graphs < 1500:
        k, m = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        g = InterferenceGraph(k, m, frozenset((j, i) for j in range(k) for i in range(m) if rng.random() < 0.6))
        if len(g.edges) > 11:
            continue
        graphs += 1
        for comp in connected_components(g):
            pool = _pool(g, set(comp))
            if not pool:
                continue
            for d in range(1, max(_caps(g, pool, 0).values())):
                cap = _caps(g, pool, d)
                best = max_capped_forest(g, [g.edge_list[x] for x in pool], cap)
                start = sp._forest(g, pool[::-1], cap)
                assert len(sp._augment_to_maximum(g, pool, cap, start)) == best
                assert len(sp._augment_to_maximum(g, pool, cap, ())) == best
                seen["stalled"] += len(start) < best
                seen["at_sum" if best == sum(cap.values()) else "below_sum"] += 1
    assert seen["stalled"] >= 20 and seen["below_sum"] >= 100 and seen["at_sum"] >= 100, seen


def test_augmentation_paths_match_the_per_round_rebuild():
    # Reading an inside edge's exchange arcs off its destination's incidence
    # list, and counting used edges once, must find the very paths that the
    # per-round rebuild found: the identical edge tuple, from the scan's
    # forest and from nothing, at every quota from 1 to the component's max
    # degree - 1.  The corpora come with both K = 160 pinned instances'
    # interference graphs.
    rng = np.random.default_rng(2024)
    graphs = _corpus(1226, sparse=150, dense=180) + [hub_bipartite(rng) for _ in range(100)]
    graphs.append(InterferenceGraph(160, 160, forest_instance(np.random.default_rng(160), size=160)[1]))
    graphs.append(InterferenceGraph(160, 160, cyclic_instance(np.random.default_rng(160), 160)[1]))
    augmented = 0
    for g in graphs:
        for comp in connected_components(g):
            pool = _pool(g, set(comp))
            if not pool:
                continue
            for d in range(1, max(_caps(g, pool, 0).values())):
                cap = _caps(g, pool, d)
                for start in (sp._forest(g, pool[::-1], cap), ()):
                    grown = sp._augment_to_maximum(g, pool, cap, start)
                    assert grown == augment_by_rebuilt_exchanges(g, pool, cap, start)
                    augmented += len(grown) > len(start)
    assert augmented >= 100


def test_masking_the_extra_decoded_edges_decomposes_as_the_sparsified_graph():
    # Precoding decomposes g with its extra-decoded edges masked, not a graph of
    # its own: the parents, visit orders and tree-edge pairs must be those of
    # H-bar built as a separate graph, whose edge ids are renumbered.  A mask
    # that leaves a cycle (no mask on a cyclic g, or one masked edge put back
    # between two nodes H-bar connects) must raise CyclicGraph.
    rng = np.random.default_rng(45)
    graphs = _corpus(4545, sparse=150, dense=150) + [hub_bipartite(rng) for _ in range(100)]
    graphs.append(InterferenceGraph(160, 160, forest_instance(np.random.default_rng(160), size=160)[1]))
    graphs.append(InterferenceGraph(160, 160, cyclic_instance(np.random.default_rng(160), 160)[1]))
    seen = {"masked": 0, "renumbered": 0, "edge put back": 0}
    for g in graphs:
        spars = sp.find_dstar(g)
        h_bar = sparsified_graph(spars)
        mask = bytearray(j in spars.extra_decode[i] for j, i in g.edge_list)
        parent, up, orders = decompose(g, mask)
        h_parent, h_up, h_orders = decompose(h_bar, bytes(len(h_bar.edge_list)))
        assert (parent, orders) == (h_parent, h_orders)
        assert [g.edge_list[x] for x in up if x >= 0] == [h_bar.edge_list[x] for x in h_up if x >= 0]
        assert [x < 0 for x in up] == [x < 0 for x in h_up]
        seen["masked"] += any(mask)
        seen["renumbered"] += up != h_up
        if has_cycle(g):
            with pytest.raises(CyclicGraph):
                decompose(g, bytearray(len(mask)))
        masked = g.edges - h_bar.edges
        closing = [x for x in edge_ids(g, sorted(masked))
                   if component_count(g, masked - {g.edge_list[x]}) == component_count(g, masked)]
        if closing:
            with pytest.raises(CyclicGraph):
                decompose(g, mask[:closing[0]] + b"\x00" + mask[closing[0] + 1:])
            seen["edge put back"] += 1
    assert min(seen.values()) >= 100, seen


def test_augmentation_makes_no_connectivity_test(monkeypatch):
    # Every union-find forest find_dstar builds must come from its scans and
    # its final extension: the augmentation reads every exchange off its one
    # components pass per round.
    calls = {"outside": 0, "inside": 0}
    in_augmentation = []
    real_forest, real_augment = sp._forest, sp._augment_to_maximum

    def counting(*args, **kwargs):
        calls["inside" if in_augmentation else "outside"] += 1
        return real_forest(*args, **kwargs)

    def augment(*args, **kwargs):
        in_augmentation.append(True)
        try:
            return real_augment(*args, **kwargs)
        finally:
            in_augmentation.pop()

    monkeypatch.setattr(sp, "_forest", counting)
    monkeypatch.setattr(sp, "_augment_to_maximum", augment)
    res = sp.find_dstar(stalling_graph())
    assert res.augmentations >= 1
    assert calls["outside"] == 2  # the d = 1 scan and the extension to a spanning tree
    assert calls["inside"] == 0


def test_each_augmentation_round_makes_one_components_pass(monkeypatch):
    # A round either augments by one edge or ends the search, and no round
    # runs once the forest reaches sum(cap).  So a call that reaches it makes
    # len(result) - len(start) rounds, and any other call makes one more;
    # each must make exactly one components pass, and nothing else in
    # sparsify may make one.  Some call must make more than one round, so
    # that counting passes per round is not counting calls.
    passes = rounds = calls = 0
    kinds = {"at_rank": 0, "below_rank": 0}
    real_components, real_augment = sp.components, sp._augment_to_maximum

    def counting(*args, **kwargs):
        nonlocal passes
        passes += 1
        return real_components(*args, **kwargs)

    def augment(g, pool, cap, start):
        nonlocal rounds, calls
        calls += 1
        before = passes
        result = real_augment(g, pool, cap, start)
        made = len(result) - len(start) + (len(result) < sum(cap.values()))
        assert passes - before == made
        kinds["at_rank" if len(result) == sum(cap.values()) else "below_rank"] += 1
        rounds += made
        return result

    monkeypatch.setattr(sp, "components", counting)
    monkeypatch.setattr(sp, "_augment_to_maximum", augment)
    augmented = 0
    for g in _corpus(1992, sparse=0, dense=90):
        res = sp.find_dstar(g)
        augmented += res.augmentations
        for pool, d, start in _quotas_below_dstar(g, res):
            sp._augment_to_maximum(g, pool, _caps(g, pool, d), start)
    assert passes == rounds
    assert augmented >= 20 and rounds > calls
    assert kinds["at_rank"] >= 10 and kinds["below_rank"] >= 10


def _quotas_below_dstar(g: InterferenceGraph, res: sp.SparsificationResult):
    """(pool, d - 1, the scan's forest at d - 1) for each component whose d is at least 2.

    find_dstar never searches the quotas that the degree count rules out,
    so an augmentation at an infeasible quota is run at d - 1 here, from
    the forest the scan gives at that quota.
    """
    with_edges = [set(comp) for comp in connected_components(g) if len(comp) > 1]
    for members, stats in zip(with_edges, res.components, strict=True):
        if stats.d >= 2:
            pool = _pool(g, members)
            yield pool, stats.d - 1, sp._forest(g, pool[::-1], _caps(g, pool, stats.d - 1))


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


def test_greedy_scan_matches_the_component_count_scan():
    # The union-find scan must keep exactly the edges that one full component
    # count per edge keeps, in any order and under any caps.  Without caps it
    # (caps at the degrees, quota 0) it keeps the complement of the removed
    # side's greedy in reverse order: the equality that lets find_dstar's
    # forest-side scan pick the removal the bond-side scan picked whenever the
    # caps do not bind.
    rng = np.random.default_rng(625)
    graphs = _corpus(1324, sparse=220, dense=100)
    cyclic = sum(has_cycle(g) for g in graphs)
    seen = {"kept": 0, "closes_cycle": 0, "no_room": 0, "complement": 0}
    cases = 0
    for g in graphs:
        shuffled = list(sp.default_labeling(g))
        rng.shuffle(shuffled)
        for labeling in (sp.default_labeling(g), tuple(shuffled)):
            pairs = [g.edge_list[x] for x in labeling]
            removed = greedy_scan_by_component_counts(g, pairs, len(g.edges))  # a quota that never binds
            kept = sp._forest(g, labeling[::-1], _caps(g, labeling, 0))
            assert set(kept) == set(edge_ids(g, g.edges - set(removed)))
            seen["complement"] += bool(removed)
            for d in range(5):
                cap = _caps(g, labeling, d)
                kept = sp._forest(g, labeling, cap)
                assert kept == forest_scan_by_component_counts(g, labeling, cap)
                cases += 1
                kept = {g.edge_list[x] for x in kept}
                held = Counter(i for _, i in kept)
                last = {e[1]: n for n, e in enumerate(pairs) if e in kept}
                skipped = [(n, e[1]) for n, e in enumerate(pairs) if e not in kept]
                seen["kept"] += bool(kept)
                # a skipped edge after its full destination's last kept edge found no room;
                # one at a destination that never filled closed a cycle
                seen["no_room"] += any(held[i] == cap[i] and n > last[i] for n, i in skipped)
                seen["closes_cycle"] += any(held[i] < cap[i] for _, i in skipped)
    assert cases >= 2000 and cyclic >= 50
    assert min(seen.values()) >= 100, seen


def test_quota_zero_scan_builds_no_forest_on_forest_graphs(monkeypatch):
    # An acyclic component needs no removal, so find_dstar gives it d = 0
    # with no scan, no augmentation and no components pass, though it still
    # counts its f edges as checks.
    calls: dict[str, list[tuple]] = {}

    def record(name):
        real = getattr(sp, name)
        calls[name] = []

        def recorded(*args):
            calls[name].append(args)
            return real(*args)

        monkeypatch.setattr(sp, name, recorded)

    for name in ("_forest", "_augment_to_maximum", "components"):
        record(name)
    for size in (16, 48):
        _, edges = forest_instance(np.random.default_rng(size), size=size)
        res, removal = find_dstar_with_removal(InterferenceGraph(size, size, edges))
        assert res.d_star == 0 and not removal and res.augmentations == 0
        assert res.independence_checks == len(edges)
    assert calls == {"_forest": [], "_augment_to_maximum": [], "components": []}


def test_find_dstar_matches_the_component_count_search(monkeypatch):
    # The whole search, with the union-find scan replaced by its
    # one-component-count-per-edge oracle, must give every result field
    # unchanged; small graphs are also checked exhaustively.  At each
    # component's d - 1 the augmentation must stay below sum(cap), and the
    # removed side's oracle below the bond rank, since d is the least
    # feasible quota.
    graphs = _corpus(1226, sparse=150, dense=180)
    fast = [find_dstar_with_removal(g) for g in graphs]
    augmented = 0
    for g, (res, _) in zip(graphs, fast):
        if len(g.edges) <= 12:
            assert res.d_star == dstar_exact_removal(g)
        below = list(_quotas_below_dstar(g, res))
        for pool, d, start in below:
            cap = _caps(g, pool, d)
            assert len(sp._augment_to_maximum(g, pool, cap, start)) < sum(cap.values())
            pairs = [g.edge_list[x] for x in pool]
            rank = len(pairs) - len({j for j, _ in pairs}) - len({i for _, i in pairs}) + 1
            assert len(augment_by_component_counts(g, pairs, d, greedy_scan_by_component_counts(g, pairs, d))) < rank
        augmented += res.augmentations >= 1 or len(below) > 0
    monkeypatch.setattr(sp, "_forest", forest_scan_by_component_counts)
    counted = [find_dstar_with_removal(g) for g in graphs]
    assert [_outcome(*r) for r in fast] == [_outcome(*r) for r in counted]
    assert len(graphs) >= 300
    assert augmented >= 100


def _disjoint_union(rng: np.random.Generator, blocks) -> InterferenceGraph:
    """The blocks side by side, with sources and destinations renumbered at random, so components interleave."""
    k, m = sum(b.n_sources for b in blocks), sum(b.n_destinations for b in blocks)
    src, dst = rng.permutation(k), rng.permutation(m)
    edges, k0, m0 = [], 0, 0
    for b in blocks:
        edges += [(int(src[k0 + j]), int(dst[m0 + i])) for j, i in b.edges]
        k0, m0 = k0 + b.n_sources, m0 + b.n_destinations
    return InterferenceGraph(k, m, edges)


def test_find_dstar_is_its_per_component_results_on_many_components():
    # Each component is searched on its own, so on a graph of many components
    # find_dstar must give the results of find_dstar run on each component's
    # own graph: d* their maximum, the removals' union, the component stats in
    # the order of the components' smallest ids and the counters' sums.
    rng = np.random.default_rng(3141)
    seen = {"augmented": 0, "cyclic components": 0, "isolated nodes": 0}
    for _ in range(40):
        blocks = [dense_bipartite(rng) if rng.random() < 0.3 else random_bipartite(rng, max_edges=12)
                  for _ in range(int(rng.integers(25, 40)))]
        g = _disjoint_union(rng, blocks)
        res, removal = find_dstar_with_removal(g)
        comps = [comp for comp in connected_components(g) if len(comp) > 1]
        assert len(comps) >= 20
        parts, removals = zip(*(find_dstar_with_removal(InterferenceGraph(g.n_sources, g.n_destinations,
                                                                          ((j, i) for j, i in g.edges if j in comp)))
                                for comp in map(set, comps)))
        assert res.d_star == max(p.d_star for p in parts)
        assert removal == frozenset().union(*removals)
        assert res.components == tuple(s for p in parts for s in p.components)
        assert res.independence_checks == sum(p.independence_checks for p in parts)
        assert res.augmentations == sum(p.augmentations for p in parts)
        seen["augmented"] += res.augmentations > 0
        seen["cyclic components"] += sum(p.d_star > 0 for p in parts)
        seen["isolated nodes"] += len(comps) < len(connected_components(g))
    assert seen["augmented"] >= 20 and seen["cyclic components"] >= 400 and seen["isolated nodes"] >= 30, seen
