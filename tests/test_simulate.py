import dataclasses

import numpy as np
import pytest

from pbna import kernels
from pbna import simulate as sim
from pbna.interference import build_igraph
from pbna.network import Network, realize
from pbna.precoding import PrecodingPlan, decode_sources, plan_with_resampling, verify_alignment
from pbna.sparsify import find_dstar
from gen import forest_instance, random_dag_net, random_multiterminal_dag, seeded_messages
from oracles import dense_transfer, propagate_symbols_by_edges, solve_full_width


def build_plan(net, seed=0):
    graph = build_igraph(net, realize(net, 3, seed))
    spars = find_dstar(graph)
    return plan_with_resampling(net, spars, seed=seed)


def l2_forest_net() -> Network:
    """Two destinations, L=2 demands, one interference edge each (a forest)."""
    return Network(
        ("S1", "S2", "S3", "D1", "D2"),
        (("S1", "D1"), ("S2", "D1"), ("S3", "D1"), ("S2", "D2"), ("S3", "D2"), ("S1", "D2")),
        ("S1", "S2", "S3"), ("D1", "D2"),
        (frozenset({0, 1}), frozenset({1, 2})),
    )


def test_all_zero_messages_decode_to_zero(fourbyfour):
    plan = build_plan(fourbyfour)
    trace = sim.run_session(plan, np.zeros((1, 4), dtype=np.int64))
    assert (trace.received == 0).all()
    assert trace.success == (True,) * 4
    for i in range(4):
        assert sorted(trace.decoded[i]) == sorted(plan.new_demands[i])
        assert all(v.tolist() == [0] for v in trace.decoded[i].values())


def test_single_edge_smoke_with_handmade_plan():
    # degenerate single-slot plan used purely as plumbing: x = z, y = m*z
    net = Network(("S1", "D1"), (("S1", "D1"),), ("S1",), ("D1",), (frozenset({0}),))
    realization = realize(net, 1, seed=2)
    plan = PrecodingPlan(
        V=np.ones((1, 1), dtype=np.int64),
        realization=realization,
        new_demands=(frozenset({0}),),
        new_interference=(frozenset(),),
    )
    trace = sim.run_session(plan, [[123456]])
    assert trace.decoded[0][0].tolist() == [123456]
    assert trace.success == (True,)


def test_hundred_random_tuples_all_decode(fourbyfour):
    plan = build_plan(fourbyfour)
    rng = np.random.default_rng(5)
    msg = rng.integers(0, plan.realization.q, size=(100, 4), dtype=np.int64)
    trace = sim.run_session(plan, msg)
    assert len(trace.success) == 400 and all(trace.success)
    for i in range(4):
        assert sorted(trace.decoded[i]) == sorted(plan.new_demands[i])
        for j, got in trace.decoded[i].items():
            assert got.tolist() == msg[:, j].tolist()


def test_received_matches_algebraic_model(fourbyfour):
    plan = build_plan(fourbyfour)
    realization = plan.realization
    q = realization.q
    rng = np.random.default_rng(17)
    msg = rng.integers(0, q, size=(3, 4), dtype=np.int64)
    trace = sim.run_session(plan, msg)
    transfer = dense_transfer(realization)
    for s in range(3):
        for i in range(4):
            expect = np.zeros(plan.n, dtype=np.int64)
            for j in range(4):
                expect = (expect + transfer[i, j, :] * plan.V[j] % q * msg[s, j]) % q
            assert np.array_equal(trace.received[s, i], expect)


def test_raw_propagation_matches_transfer_on_random_dags():
    # transfer-consistency oracle: python edge walk vs the transfer values
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 100:
        net = random_dag_net(rng, max_extra_nodes=4, max_edges=9)
        realization = realize(net, 1, seed=int(rng.integers(2**32)))
        x = rng.integers(0, realization.q, size=1, dtype=np.int64)
        got = propagate_symbols_by_edges(net, realization, 0, x)
        expect = dense_transfer(realization)[0, 0, 0] * x[0] % realization.q
        assert int(got[0]) == int(expect)
        assert int(sim.propagate_symbols(net, realization, x.reshape(1, 1, 1))[0, 0, 0]) == int(expect)
        checked += 1


def test_batched_propagation_matches_edge_walk_on_multiterminal_dags():
    rng = np.random.default_rng(29)
    parallel = shared = 0
    for _ in range(150):
        net = random_multiterminal_dag(rng, min_nodes=4, max_nodes=9)
        parallel += len(set(net.edges)) < len(net.edges)
        shared += bool(set(net.sources) & set(net.destinations))
        n_slots = int(rng.integers(1, 5))
        q = int(rng.choice([7, 251, 2147483647]))
        realization = realize(net, n_slots, seed=int(rng.integers(2**32)), q=q)
        sessions = int(rng.integers(1, 6))
        transmitted = rng.integers(0, q, size=(sessions, net.n_sources, n_slots), dtype=np.int64)
        got = sim.propagate_symbols(net, realization, transmitted)
        assert got.shape == (sessions, net.n_destinations, n_slots)
        for s in range(sessions):
            for k in range(n_slots):
                expect = propagate_symbols_by_edges(net, realization, k, transmitted[s, :, k])
                assert np.array_equal(got[s, :, k], expect)
    assert parallel >= 10 and shared >= 10


def test_session_blocks_match_single_session_batches(fourbyfour, monkeypatch):
    plan = build_plan(fourbyfour)
    realization = plan.realization
    msg = np.random.default_rng(37).integers(0, realization.q, size=(sim.SESSION_BLOCK + 44, 4), dtype=np.int64)
    calls = []
    real = kernels.propagate

    def counted(*args):
        calls.append(args[10])
        return real(*args)

    monkeypatch.setattr(kernels, "propagate", counted)
    batch = sim.run_session(plan, msg)
    assert calls == [sim.SESSION_BLOCK, 44]
    assert all(batch.success)
    for s in range(len(msg)):
        one = sim.run_session(plan, msg[s:s + 1])
        assert np.array_equal(batch.messages[s], one.messages[0])
        assert np.array_equal(batch.received[s], one.received[0])
        for i in range(4):
            assert batch.decoded[i].keys() == one.decoded[i].keys()
            assert all(batch.decoded[i][j][s] == one.decoded[i][j][0] for j in one.decoded[i])
        assert batch.success[4 * s:4 * s + 4] == one.success
    transmitted = batch.messages[:, :, None] * plan.V % realization.q
    assert np.array_equal(batch.received, sim.propagate_symbols(fourbyfour, realization, transmitted))


def test_receive_is_linear_in_messages(fourbyfour):
    plan = build_plan(fourbyfour)
    realization = plan.realization
    q = realization.q
    rng = np.random.default_rng(31)
    z1 = rng.integers(0, q, size=4, dtype=np.int64)
    z2 = rng.integers(0, q, size=4, dtype=np.int64)
    t = sim.run_session(plan, np.stack([z1, z2, (z1 + z2) % q]))
    assert np.array_equal(t.received[2], (t.received[0] + t.received[1]) % q)


def test_rate_report_forest_is_one_over_l_plus_one():
    net = l2_forest_net()
    plan = build_plan(net)
    assert plan.n == 3  # L = 2, d* = 0
    trace = sim.run_session(plan, seeded_messages(net, plan.realization.q, range(10)))
    report = sim.rate_report(trace, plan)
    assert report.per_source_rate == (1, 3)
    assert report.success_fraction == 1.0
    assert report.sum_rate == (3, 3)
    assert report.sum_rate_ceiling == (3, 3)
    assert report.matches_reference


def test_rate_report_fourbyfour(fourbyfour):
    plan = build_plan(fourbyfour)
    trace = sim.run_session(plan, seeded_messages(fourbyfour, plan.realization.q, range(5)))
    report = sim.rate_report(trace, plan)
    assert report.per_source_rate == (1, 4)
    assert report.sum_rate == (4, 4)
    assert report.sum_rate_ceiling == (4, 3)
    assert report.success_fraction == 1.0


def test_run_session_rejects_an_empty_batch(fourbyfour):
    plan = build_plan(fourbyfour)
    with pytest.raises(ValueError, match=r"got shape \(0, 4\)"):
        sim.run_session(plan, np.zeros((0, 4), dtype=np.int64))


def test_rate_report_reads_its_reference_off_the_decode_sets(fourbyfour):
    # n = L + d* + 1 = 4 matches the reference; one more decoded source at a
    # destination asks for 5 slots, and the same 4-slot plan falls short of it
    plan = build_plan(fourbyfour)
    trace = sim.run_session(plan, seeded_messages(fourbyfour, plan.realization.q, range(3)))
    report = sim.rate_report(trace, plan)
    assert (report.reference_rate, report.matches_reference) == ((1, 4), True)
    extra = next(j for j in range(4) if j not in plan.new_demands[0])
    wider = dataclasses.replace(plan, new_demands=(plan.new_demands[0] | {extra},) + plan.new_demands[1:])
    report = sim.rate_report(trace, wider)
    assert report.per_source_rate == (1, 4)
    assert (report.reference_rate, report.matches_reference) == ((1, 5), False)


def test_success_on_random_forest_instances():
    rng = np.random.default_rng(41)
    for _ in range(5):
        net, _ = forest_instance(rng)
        plan = build_plan(net, seed=int(rng.integers(2**31)))
        trace = sim.run_session(plan, seeded_messages(net, plan.realization.q, range(20)))
        assert len(trace.success) == 20 * net.n_destinations and all(trace.success)


@pytest.mark.parametrize("which", ["fourbyfour", "forest_k12"])
def test_verify_and_decode_reduce_every_destination_in_one_stack(which, fourbyfour, monkeypatch):
    net = fourbyfour if which == "fourbyfour" else forest_instance(np.random.default_rng(67), size=12)[0]
    plan = build_plan(net)
    msg = seeded_messages(net, plan.realization.q, range(10))
    calls = []
    original = kernels.row_reduce

    def counting(a, q, *args):
        calls.append(a.shape)
        return original(a, q, *args)

    monkeypatch.setattr(kernels, "row_reduce", counting)
    ok = verify_alignment(plan)
    # every [U | w_rep], then every W, in one batch
    assert len(calls) == 1 and ok.all()
    trace = sim.run_session(plan, msg)
    assert len(calls) == 2 and all(trace.success)
    assert [shape[0] for shape in calls] == [2 * net.n_destinations, net.n_destinations]


def failed_pairs_by_oracle(plan, received):
    """(session, destination) pairs whose decode system, solved alone by the oracle, has no unique solution."""
    q = plan.realization.q
    transfer = dense_transfer(plan.realization)
    failed = set()
    for i, sources in enumerate(decode_sources(plan)):
        a = np.stack([transfer[i, j] * plan.V[j] % q for j in sources], axis=1)
        for s in range(len(received)):
            _, unique = solve_full_width(a[None], received[None, s, i, :, None], q, [a.shape[1]])
            if not unique[0, 0]:
                failed.add((s, i))
    return failed


def assert_batch_fails_like_the_session_loop(net, plan, msg):
    """The failed (session, destination) pairs of one batch: those of one session per batch, and the oracle's."""
    trace = sim.run_session(plan, msg)
    assert trace.success == sum((sim.run_session(plan, msg[s:s + 1]).success for s in range(len(msg))), ())
    m = net.n_destinations
    failed = {(s, i) for s in range(len(msg)) for i in range(m) if not trace.success[s * m + i]}
    assert failed == failed_pairs_by_oracle(plan, trace.received)
    return failed


def test_decode_failure_rank_deficient_plan_matches_session_loop(fourbyfour):
    plan = build_plan(fourbyfour)
    # D3 also decodes its interference representative: two equal columns
    rep = min(plan.new_interference[2])
    demands = list(plan.new_demands)
    demands[2] = demands[2] | {rep}
    broken = dataclasses.replace(plan, new_demands=tuple(demands))
    msg = np.random.default_rng(43).integers(0, plan.realization.q, size=(6, 4), dtype=np.int64)
    msg[0] = 0  # D3 reads the right (zero) messages off its pivot rows, and still fails
    assert assert_batch_fails_like_the_session_loop(fourbyfour, broken, msg) == {(s, 2) for s in range(6)}


def test_decode_failure_inconsistent_later_session_matches_session_loop(fourbyfour):
    plan = build_plan(fourbyfour)
    # D1 and D3 drop their interference column, so a received vector leaves the span
    # exactly when that interferer sends a nonzero message
    rep1, rep3 = min(plan.new_interference[0]), min(plan.new_interference[2])
    assert rep1 != rep3
    interference = list(plan.new_interference)
    interference[0] = interference[2] = frozenset()
    broken = dataclasses.replace(plan, new_interference=tuple(interference))
    msg = np.random.default_rng(47).integers(1, plan.realization.q, size=(5, 4), dtype=np.int64)
    msg[:3, rep1] = 0  # D1 fails from session 3 on
    msg[:2, rep3] = 0  # D3 fails from session 2 on
    failed = assert_batch_fails_like_the_session_loop(fourbyfour, broken, msg)
    assert failed == {(s, 0) for s in range(3, 5)} | {(s, 2) for s in range(2, 5)}
