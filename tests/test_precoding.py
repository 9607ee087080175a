import dataclasses
from pathlib import Path

import numpy as np
import pytest

from pbna import gf
from pbna import precoding as pc
from pbna.interference import InterferenceGraph, MissedInterference, build_igraph, decompose, has_cycle
from pbna.network import (AssumptionViolation, Network, ValidationReport, load_network_file, realize,
                          validate_assumptions)
from pbna.simulate import run_session
from pbna.sparsify import find_dstar
from gen import (adversarial_net, cyclic_instance, forest_instance, fourbyfour_net, random_bipartite,
                 random_dag_net, random_multiterminal_dag, seeded_messages,
                 sixcycle_net)
from oracles import (bfs_forest, bfs_tree, decode_sources, dense_transfer, integer_forest, precoding_by_tree_walk,
                     realization_of_table, sparsified_graph, verdicts_by_ranks)


def path_net() -> Network:
    """Demands {S3}; S1 and S2 interfere at D1, giving the path S1-W1-S2."""
    return Network(
        ("S1", "S2", "S3", "D1"),
        (("S1", "D1"), ("S2", "D1"), ("S3", "D1")),
        ("S1", "S2", "S3"), ("D1",), (frozenset({2}),),
    )


def star_net() -> Network:
    """Demands {S4}; S1, S2, S3 all interfere at D1 (a 3-leaf star)."""
    return Network(
        ("S1", "S2", "S3", "S4", "D1"),
        (("S1", "D1"), ("S2", "D1"), ("S3", "D1"), ("S4", "D1")),
        ("S1", "S2", "S3", "S4"), ("D1",), (frozenset({3}),),
    )


def build_plan(net: Network, seed: int = 0, q: int = gf.DEFAULT_Q) -> pc.PrecodingPlan:
    graph = build_igraph(net, realize(net, 3, seed, q))
    spars = find_dstar(graph)
    return pc.plan_with_resampling(net, spars, seed=seed, q=q)


def walked_up_links(g: InterferenceGraph) -> tuple[np.ndarray, np.ndarray]:
    """(destination, source) arrays of the tree links build_precoding inverts:
    those walked from a destination node down to a source, in walk order."""
    _, up, orders = decompose(g, bytes(len(g.edge_list)))
    links = [g.edge_list[up[v]] for order in orders for v in order[1:] if v < g.n_sources]
    src, dest = np.array(links, dtype=np.int64).reshape(-1, 2).T
    return dest, src


# ---------------------------------------------------------------------------
# build_precoding


def test_path_vector_follows_parity_rule():
    net = path_net()
    q = gf.DEFAULT_Q
    realization = realize(net, 2, seed=5, q=q)
    graph = build_igraph(net, realization)
    forest = decompose(graph, bytes(len(graph.edge_list)))
    V = pc.build_precoding(graph, forest, realization, seed=8)
    theta = V[0]  # the root keeps its raw random vector
    transfer = dense_transfer(realization)
    for k in range(2):
        m11 = int(transfer[0, 0, k])
        m12 = int(transfer[0, 1, k])
        expect = m11 * pow(m12, q - 2, q) % q * int(theta[k]) % q
        assert int(V[1, k]) == expect
    # the isolated demanded source gets its own vector
    assert (V[2] != 0).all()
    # the walked-up (D1, S2) link vanishing at slot 0 zeroes S2's vector there, and only there
    realization.transfer[net.row(0, 1), 0] = 0
    V0 = pc.build_precoding(graph, forest, realization, seed=8)
    assert V0[1, 0] == 0 and V0[1, 1] == V[1, 1]


def test_star_columns_coincide():
    net = star_net()
    realization = realize(net, 2, seed=11)
    graph = build_igraph(net, realization)
    V = pc.build_precoding(graph, decompose(graph, bytes(len(graph.edge_list))), realization, seed=3)
    q = realization.q
    cols = [dense_transfer(realization)[0, j, :] * V[j] % q for j in (0, 1, 2)]
    assert np.array_equal(cols[0], cols[1])
    assert np.array_equal(cols[0], cols[2])


def test_padding_reads_the_zero_row_where_the_key_before_it_is_joined():
    # D2's -1 padding has key 1 * K - 1 = 1, the key of joined pair (D1, S2)
    net = Network(("S1", "S2", "D1", "D2"), (("S1", "D1"), ("S2", "D1"), ("S1", "D2")),
                  ("S1", "S2"), ("D1", "D2"), (frozenset({0}), frozenset({0})))
    plan = pc.PrecodingPlan(np.ones((2, 3), dtype=np.int64), realize(net, 3, seed=4), (frozenset({0}),) * 2,
                            (frozenset({1}), frozenset()))
    assert plan.table[:2].tolist() == [[0, 1], [0, -1]]
    assert net.joined.tolist() == [0, 1, 2]
    assert net.row(1, -1) == len(net.joined)
    cols = plan.systems[:2]
    assert cols[0, :, 1].all()  # (D1, S2)'s row, which the padding must not read
    assert not cols[1, :, 1].any()


def test_decode_systems_are_read_only_and_follow_the_plans_fields(fourbyfour):
    plan = build_plan(fourbyfour)
    for derived in (plan.table, plan.systems):
        assert not derived.flags.writeable
        with pytest.raises(ValueError):
            derived[0] = 0
    # plan.systems is already gathered; a copy with one more decoded source at D1 gathers its own
    extra = next(j for j in range(fourbyfour.n_sources) if j not in plan.new_demands[0])
    wider = dataclasses.replace(plan, new_demands=(plan.new_demands[0] | {extra},) + plan.new_demands[1:])
    sources = decode_sources(wider)[0]
    assert extra in sources and len(sources) == (plan.table[0] >= 0).sum() + 1
    q, transfer = plan.realization.q, dense_transfer(plan.realization)
    want = np.stack([transfer[0, j] * plan.V[j] % q for j in sources], axis=1)
    assert np.array_equal(wider.systems[0, :, :len(sources)], want)
    assert not wider.systems[0, :, len(sources):].any()


def _oracle_cases(rng: np.random.Generator):
    """(graph, realization) pairs on forests, cycling q through 3, 7 and 2^31 - 1.

    random_bipartite forests get random transfer values with about one entry
    in eight zeroed, so links vanish at every q; forest_instance graphs and
    sparsified cyclic_instance graphs get their networks' realizations.
    """
    fields = (3, 7, gf.DEFAULT_Q)
    cases = []
    while len(cases) < 180:
        g = random_bipartite(rng, max_sources=8, max_dests=8, max_edges=11)
        q, n = fields[len(cases) % 3], int(rng.integers(1, 5))
        shape = (g.n_destinations, g.n_sources, n)
        transfer = rng.integers(0, q, size=shape, dtype=np.int64) * (rng.random(shape) >= 0.125)
        if not has_cycle(g):
            cases.append((g, realization_of_table(transfer, q)))
    for t in range(120):
        net = forest_instance(rng)[0] if t % 2 else cyclic_instance(rng, int(rng.integers(8, 21)))[0]
        h_bar = sparsified_graph(find_dstar(build_igraph(net, realize(net, 3, seed=t))))
        cases.append((h_bar, realize(net, int(rng.integers(1, 5)), seed=t, q=fields[t % 3])))
    return cases


def test_build_precoding_matches_the_dict_tree_walk():
    # the walk down {node: parent} trees that build_precoding replaced is the reference, bit for bit
    rng = np.random.default_rng(26)
    seen = {"root-only tree": 0, "destination-only component": 0, "vanished walked-up link": 0, "depth >= 4": 0}
    cases = _oracle_cases(rng)
    for t, (g, realization) in enumerate(cases):
        forest, trees = decompose(g, bytes(len(g.edge_list))), bfs_forest(g)
        assert forest == integer_forest(g, trees)
        seed = int(rng.integers(2**31))
        assert np.array_equal(pc.build_precoding(g, forest, realization, seed),
                              precoding_by_tree_walk(trees, realization, seed)), t
        parent, _, orders = forest
        depth = [0] * len(parent)
        for v in (v for order in orders for v in order[1:]):
            depth[v] = depth[parent[v]] + 1
        dest, src = walked_up_links(g)
        seen["root-only tree"] += any(len(order) == 1 for order in orders)
        seen["destination-only component"] += any(not g.interferers(i) for i in range(g.n_destinations))
        seen["vanished walked-up link"] += not dense_transfer(realization)[dest, src].all()
        seen["depth >= 4"] += max(depth) >= 4
    assert len(cases) >= 300
    assert min(seen.values()) >= 20, seen


def test_every_vector_nonzero_on_random_forests():
    rng = np.random.default_rng(0)
    for _ in range(8):
        net, _ = forest_instance(rng)
        plan = build_plan(net, seed=int(rng.integers(2**31)))
        assert (plan.V != 0).any(axis=1).all()


def test_a_vanished_walked_up_link_costs_no_attempt_by_itself():
    # with q = 3 tree-link transfers often vanish at some slot; build_precoding inverts only
    # the nonzero entries of a walked-up row, and verification alone judges the attempt, so
    # a plan whose inverted link vanished somewhere is accepted whenever it decodes
    net = path_net()
    spars = find_dstar(build_igraph(net, realize(net, 3, seed=0)))
    dest, src = walked_up_links(sparsified_graph(spars))
    assert list(zip(dest.tolist(), src.tolist())) == [(0, 1)]  # S2 hangs below W1, below the root S1
    vanished = 0
    for seed in range(40):
        plan = pc.plan_with_resampling(net, spars, max_attempts=200, seed=seed, q=3)
        trace = run_session(plan, np.arange(net.n_sources)[None] % 3)
        assert all(trace.success), seed
        vanished += not dense_transfer(plan.realization)[0, 1].all()
    assert vanished >= 1


def test_a_demanded_pair_that_no_path_joins_stops_the_plan_before_any_draw(monkeypatch):
    # No attempt can decode a demanded pair that no path joins, so plan_with_resampling names every
    # such pair (the validation report's demanded rows with mincut 0) and draws no realization;
    # any other network gets its one attempt here.
    rng = np.random.default_rng(45)
    edgeless = Network(("S1", "S2", "D1", "D2"), (), ("S1", "S2"), ("D1", "D2"), (frozenset({0}), frozenset({1})))
    nets = [edgeless, load_network_file(Path(__file__).resolve().parent / "violating.json")]
    nets += [random_multiterminal_dag(rng) for _ in range(60)] + [random_dag_net(rng) for _ in range(150)]
    draws = []
    monkeypatch.setattr(pc, "realize", lambda *args: draws.append(args) or realize(*args))
    seen = {"stopped": 0, "drawn": 0}
    for net in nets:
        spars = find_dstar(build_igraph(net, realize(net, 3, seed=0)))
        unjoined = tuple(row for row in validate_assumptions(net).rows if row[3] and row[2] == 0)
        draws.clear()
        if unjoined:
            with pytest.raises(AssumptionViolation) as exc_info:
                pc.plan_with_resampling(net, spars, max_attempts=2000)
            assert str(exc_info.value) == str(AssumptionViolation(ValidationReport(unjoined)))
            assert draws == []
        else:
            try:
                pc.plan_with_resampling(net, spars, max_attempts=1)
            except pc.ConstraintViolation:
                pass
            assert len(draws) == 1
        seen["stopped" if unjoined else "drawn"] += 1
    assert min(seen.values()) >= 20, seen


def test_resampling_needs_at_least_one_attempt(fourbyfour):
    spars = find_dstar(build_igraph(fourbyfour, realize(fourbyfour, 3, seed=0)))
    with pytest.raises(ValueError, match="at least 1"):
        pc.plan_with_resampling(fourbyfour, spars, max_attempts=0)


# ---------------------------------------------------------------------------
# verify_alignment


def test_verify_alignment_ok_and_dims(fourbyfour):
    plan = build_plan(fourbyfour, seed=2)
    assert pc.verify_alignment(plan).tolist() == [True] * 4
    for v in verdicts_by_ranks(plan):
        assert v.dim_u == 3  # L + d* = 2 + 1 decoded sources
        assert v.dim_w == 1
        assert v.dim_intersection == 0
        assert v.r_det_nonzero and v.ok


def test_dim_w_is_one_with_two_interferers():
    net = star_net()
    plan = build_plan(net, seed=4)
    (v,) = verdicts_by_ranks(plan)
    assert v.dim_w == 1 and v.ok
    assert pc.verify_alignment(plan).tolist() == [True]


def test_corrupted_vector_fails_verification():
    net = star_net()
    plan = build_plan(net, seed=6)
    realization = plan.realization
    bad_v = plan.V.copy()
    bad_v[1, 0] = (bad_v[1, 0] + 1) % realization.q
    bad = dataclasses.replace(plan, V=bad_v)
    assert any(v.dim_w > 1 or v.dim_intersection > 0 for v in verdicts_by_ranks(bad))
    assert pc.verify_alignment(bad).tolist() == [False]


def corrupted_vectors(plan: pc.PrecodingPlan, kind: int, rng: np.random.Generator) -> np.ndarray:
    """A copy of plan.V broken at one destination so that verification must fail there.

    kind 1 nudges one interferer's vector (interference spans two dimensions),
    kind 2 aligns an interferer with a decoded source (the spans intersect),
    kind 3 aligns two decoded sources or zeroes the only one (dim_u drops),
    kind 4 draws every vector from {0, 1, 2}, kind 5 zeroes the smallest
    interferer's vector (the decode system loses a column while the spans
    still align).  Kind 0 leaves V as it is.
    """
    r = plan.realization
    q = r.q
    transfer = dense_transfer(r)
    V = plan.V.copy()
    i = int(rng.integers(r.network.n_destinations))
    desired = sorted(plan.new_demands[i])
    interf = sorted(plan.new_interference[i])

    def aligned_with(d, j):
        # V_j with diag(m_ij) V_j = diag(m_id) V_d; relevant transfer values are nonzero on a verified plan
        inv = np.array([pow(int(m), q - 2, q) for m in transfer[i, j]], dtype=np.int64)
        return transfer[i, d] * V[d] % q * inv % q

    if kind == 1 and len(interf) >= 2:
        j = interf[int(rng.integers(len(interf)))]
        V[j, int(rng.integers(plan.n))] += 1 + int(rng.integers(q - 1))
    elif kind == 2 and interf:
        j = interf[int(rng.integers(len(interf)))]
        V[j] = aligned_with(desired[int(rng.integers(len(desired)))], j)
    elif kind == 3:
        if len(desired) >= 2:
            d, j = rng.choice(desired, size=2, replace=False)
            V[j] = aligned_with(int(d), int(j))
        else:
            V[desired[0]] = 0
    elif kind == 4:
        V = rng.integers(0, 3, size=V.shape, dtype=np.int64)
    elif kind == 5 and interf:
        V[interf[0]] = 0
    return V % q


def test_verdicts_match_four_rank_oracle():
    rng = np.random.default_rng(53)
    bases = [build_plan(fourbyfour_net(), seed=s) for s in range(4)]
    bases.append(build_plan(fourbyfour_net(), seed=1, q=31))
    while len(bases) < 45:
        net, _ = forest_instance(rng)
        bases.append(build_plan(net, seed=int(rng.integers(2**31))))
    seen = {"dim_w > 1": 0, "dim_int > 0": 0, "dim_u < |desired|": 0, "aligned but singular": 0}
    plans = 0
    for base in bases:
        for kind in range(6):
            plan = dataclasses.replace(base, V=corrupted_vectors(base, kind, rng))
            got = pc.verify_alignment(plan)
            want = verdicts_by_ranks(plan)
            assert got.dtype == bool and got.tolist() == [v.ok for v in want]
            plans += 1
            for v in want:
                seen["dim_w > 1"] += v.dim_w > 1
                seen["dim_int > 0"] += v.dim_intersection > 0
                seen["dim_u < |desired|"] += v.dim_u < len(plan.new_demands[v.destination])
                aligned = v.dim_u == len(plan.new_demands[v.destination]) and v.dim_w <= 1 and v.dim_intersection == 0
                seen["aligned but singular"] += aligned and not v.ok
    assert plans >= 250
    assert min(seen.values()) >= 10, seen


def test_decode_matrix_full_rank_on_success():
    rng = np.random.default_rng(77)
    for _ in range(6):
        net, _ = forest_instance(rng)
        plan = build_plan(net, seed=int(rng.integers(2**31)))
        q = plan.realization.q
        transfer = dense_transfer(plan.realization)
        for i in range(net.n_destinations):
            cols = [transfer[i, j, :] * plan.V[j] % q for j in sorted(plan.new_demands[i])]
            interf = sorted(plan.new_interference[i])
            if interf:
                cols.append(transfer[i, interf[0], :] * plan.V[interf[0]] % q)
            decode = np.stack(cols, axis=1)
            assert gf.rank(decode[None], q).tolist() == [decode.shape[1]]


# ---------------------------------------------------------------------------
# plan_with_resampling


def test_tree_instance_succeeds_first_attempt():
    rng = np.random.default_rng(12)
    for _ in range(5):
        net, _ = forest_instance(rng)
        plan = build_plan(net, seed=int(rng.integers(2**31)))
        assert plan.attempts == 1
        assert plan.n == net.demand_size + 1  # d* = 0 on a forest
        assert pc.verify_alignment(plan).all()


def test_fourbyfour_reaches_rate_one_fourth(fourbyfour):
    plan = build_plan(fourbyfour, seed=0)
    assert plan.n == 4
    assert plan.rate == (1, 4)
    assert pc.verify_alignment(plan).all()


def test_adversarial_network_raises_constraint_violation():
    net = adversarial_net()
    graph = build_igraph(net, realize(net, 3, 0))
    spars = find_dstar(graph)
    assert spars.d_star == 0
    with pytest.raises(pc.ConstraintViolation) as exc_info:
        pc.plan_with_resampling(net, spars, max_attempts=20, seed=0)
    err = exc_info.value
    assert len(err.attempt_failures) == 20
    # destination D2 (index 1) fails with representative S3 (index 2) in every attempt
    assert all((1, 2) in failed for failed in err.attempt_failures)
    assert (1, 2) in err.persistent
    assert str(err).startswith("no valid assignment found in 20 attempts; every attempt failed at ")


def test_probe_that_missed_an_edge_raises_missed_interference():
    # at q = 3 a one-trial probe drops real interference edges; build_igraph checks the probe
    # against the pairs a path joins, so it names exactly the dropped edges and builds no graph
    net = load_network_file(Path(__file__).resolve().parent.parent / "networks" / "forest.json")
    true_edges = build_igraph(net, realize(net, 3, seed=0)).edges
    for seed in (12, 25):
        realization = realize(net, 1, seed, q=3)
        live = np.argwhere(dense_transfer(realization).any(axis=2)).tolist()
        probed = {(j, i) for i, j in live if j not in net.demands[i]}
        assert probed < true_edges
        with pytest.raises(MissedInterference) as exc_info:
            build_igraph(net, realization)
        pairs = exc_info.value.pairs
        assert {(j, i) for i, j in pairs} == true_edges - probed
        assert all(f"(D{i + 1}, S{j + 1})" in str(exc_info.value) for i, j in pairs)


def test_every_accepted_plan_decodes_at_small_q():
    # verification is the one acceptance rule, so at any q a plan it returns decodes every
    # session at every destination; the graph comes from a default-q probe, so a probe miss
    # at the small q cannot stand in for a result
    networks = Path(__file__).resolve().parent.parent / "networks"
    rng = np.random.default_rng(97)
    nets = [load_network_file(path) for path in sorted(networks.glob("*.json"))] + [fourbyfour_net(), sixcycle_net()]
    nets += [forest_instance(rng)[0] for _ in range(10)] + [cyclic_instance(rng, 12)[0] for _ in range(10)]
    seen = {"plans at q <= 7": 0, "exhausted": 0, "plans with a vanished walked-up link": 0}
    for n, net in enumerate(nets):
        spars = find_dstar(build_igraph(net, realize(net, 3, seed=0)))
        dest, src = walked_up_links(sparsified_graph(spars))
        for q in (2, 3, 7, 31):
            for seed in range(10):
                try:
                    plan = pc.plan_with_resampling(net, spars, seed=seed, q=q)
                except pc.ConstraintViolation:
                    seen["exhausted"] += 1
                    continue
                trace = run_session(plan, seeded_messages(net, q, range(seed, seed + 3)))
                assert all(trace.success), (n, q, seed)
                seen["plans at q <= 7"] += q <= 7
                seen["plans with a vanished walked-up link"] += not dense_transfer(plan.realization)[dest, src].all()
    assert seen["plans at q <= 7"] >= 20 and seen["exhausted"] > 0, seen
    assert seen["plans with a vanished walked-up link"] >= 10, seen


# ---------------------------------------------------------------------------
# structural invariants


def test_alignment_identity_scalar_multiples():
    rng = np.random.default_rng(21)
    plans = []
    for _ in range(6):
        net, _ = forest_instance(rng)
        plans.append((net, build_plan(net, seed=int(rng.integers(2**31)))))
    plans.append((fourbyfour_net(), build_plan(fourbyfour_net(), seed=1)))
    checked = 0
    for net, plan in plans:
        q = plan.realization.q
        transfer = dense_transfer(plan.realization)
        for i in range(net.n_destinations):
            interf = sorted(plan.new_interference[i])
            if len(interf) < 2:
                continue
            cols = [transfer[i, j, :] * plan.V[j] % q for j in interf]
            base = cols[0]
            pivot = int(np.nonzero(base)[0][0])
            for other in cols[1:]:
                scalar = int(other[pivot]) * pow(int(base[pivot]), q - 2, q) % q
                assert scalar != 0
                assert np.array_equal(other, base * scalar % q)
                checked += 1
    assert checked > 0


def test_root_choice_does_not_change_verdicts():
    net = star_net()
    realization = realize(net, 2, seed=31)
    graph = build_igraph(net, realization)
    # demanded set unchanged, no extra decode
    sets = ((net.demands[0],), (frozenset(graph.interferers(0)),))
    forest_a = decompose(graph, bytes(len(graph.edge_list)))
    plan_a = pc.PrecodingPlan(pc.build_precoding(graph, forest_a, realization, 1), realization, *sets)
    verdicts_a = pc.verify_alignment(plan_a)
    oracle_a = verdicts_by_ranks(plan_a)
    for other_root in (1, 2):
        # the star's tree rooted at another source, then the isolated S4's own tree
        forest_b = integer_forest(graph, (bfs_tree(graph, ("x", other_root)), bfs_tree(graph, ("x", 3))))
        assert [set(order) for order in forest_b[2]] == [set(order) for order in forest_a[2]]
        assert forest_b[2][0][0] == other_root
        plan_b = pc.PrecodingPlan(pc.build_precoding(graph, forest_b, realization, 1), realization, *sets)
        assert np.array_equal(pc.verify_alignment(plan_b), verdicts_a)
        assert verdicts_by_ranks(plan_b) == oracle_a


def test_verdict_independent_of_representative():
    net = star_net()
    plan = build_plan(net, seed=9)
    q = plan.realization.q
    transfer = dense_transfer(plan.realization)
    desired = sorted(plan.new_demands[0])
    interf = sorted(plan.new_interference[0])
    assert len(interf) >= 2
    u_cols = np.stack([transfer[0, j, :] * plan.V[j] % q for j in desired], axis=1)
    ranks = []
    for rep in interf:
        w = (transfer[0, rep, :] * plan.V[rep] % q)[:, None]
        ranks.append(int(gf.rank(np.concatenate([u_cols, w], axis=1)[None], q)[0]))
    assert len(set(ranks)) == 1
