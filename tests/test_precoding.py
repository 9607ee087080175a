import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbna
from pbna import gf
from pbna import precoding as pc
from pbna.interference import build_igraph, decompose
from pbna.network import Network, NetworkRealization, realize
from pbna.sparsify import find_dstar
from gen import adversarial_net, forest_instance, fourbyfour_net


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
    graph = build_igraph(net, realize(net, 3, seed, q), allow_empty=True)
    spars = find_dstar(graph, demands=net.demands)
    return pc.plan_with_resampling(net, spars, seed=seed, q=q)


def fake_realization(q: int, values) -> NetworkRealization:
    net = Network(("S1", "D1"), (("S1", "D1"),), ("S1",), ("D1",), (frozenset({0}),))
    transfer = np.asarray(values, dtype=np.int64).reshape(1, 1, -1)
    coeffs = np.zeros((transfer.shape[2], net.layout.n_coeffs), dtype=np.int64)
    return NetworkRealization(net, q, transfer.shape[2], coeffs, transfer)


# ---------------------------------------------------------------------------
# signed_transfer


def test_signed_transfer_down():
    r = fake_realization(7, [5])
    assert pc.signed_transfer((0, 0), "down", r, 0) == 5


def test_signed_transfer_up_inverts():
    r = fake_realization(7, [5])
    assert pc.signed_transfer((0, 0), "up", r, 0) == 3  # 5 * 3 = 15 = 1 mod 7


def test_signed_transfer_up_zero_raises():
    r = fake_realization(7, [0])
    with pytest.raises(pc.ZeroAtAssignment):
        pc.signed_transfer((0, 0), "up", r, 0)


def test_signed_transfer_bad_parity():
    r = fake_realization(7, [5])
    with pytest.raises(ValueError):
        pc.signed_transfer((0, 0), "sideways", r, 0)


# ---------------------------------------------------------------------------
# build_precoding


def test_path_vector_follows_parity_rule():
    net = path_net()
    q = gf.DEFAULT_Q
    realization = realize(net, 2, seed=5, q=q)
    graph = build_igraph(net, realization)
    forest = decompose(graph)
    plan = pc.build_precoding(net, forest, realization, seed=8)
    theta = plan.V[0]  # the root keeps its raw random vector
    for k in range(2):
        m11 = int(realization.transfer[0, 0, k])
        m12 = int(realization.transfer[0, 1, k])
        expect = m11 * pow(m12, q - 2, q) % q * int(theta[k]) % q
        assert int(plan.V[1, k]) == expect
    # the isolated demanded source gets its own vector
    assert (plan.V[2] != 0).all()


def test_star_columns_coincide():
    net = star_net()
    realization = realize(net, 2, seed=11)
    graph = build_igraph(net, realization)
    plan = pc.build_precoding(net, decompose(graph), realization, seed=3)
    q = realization.q
    cols = [realization.transfer[0, j, :] * plan.V[j] % q for j in (0, 1, 2)]
    assert np.array_equal(cols[0], cols[1])
    assert np.array_equal(cols[0], cols[2])


def test_every_vector_nonzero_on_random_forests():
    rng = np.random.default_rng(0)
    for _ in range(8):
        net, _ = forest_instance(rng)
        plan = build_plan(net, seed=int(rng.integers(2**31)))
        assert (plan.V != 0).any(axis=1).all()


def test_build_raises_on_vanishing_tree_edge():
    # with q = 3 some seed quickly produces a zero transfer value on a tree edge
    net = path_net()
    raised = 0
    for seed in range(40):
        realization = realize(net, 2, seed=seed, q=3)
        graph_edges = [(0, 0), (1, 0)]
        if not any((realization.transfer[i, j, :] == 0).any() for j, i in graph_edges):
            continue
        graph = build_igraph(net, realize(net, 6, seed=123, q=3))
        try:
            pc.build_precoding(net, decompose(graph), realization, seed=1)
        except pc.ZeroAtAssignment:
            raised += 1
    assert raised > 0


def test_zero_vector_check_survives_optimize_flag():
    # an empty forest leaves V all zero; python -O must not strip the check
    code = (
        "from pbna.interference import ForestDecomposition\n"
        "from pbna.network import Network, realize\n"
        "from pbna.precoding import build_precoding\n"
        "net = Network(('S1', 'D1'), (('S1', 'D1'),), ('S1',), ('D1',), (frozenset({0}),))\n"
        "build_precoding(net, ForestDecomposition((), ()), realize(net, 2, 0), 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pbna.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "AssertionError: a precoding vector came out identically zero" in proc.stderr


# ---------------------------------------------------------------------------
# verify_alignment


def test_verify_alignment_ok_and_dims(fourbyfour):
    plan = build_plan(fourbyfour, seed=2)
    assert all(v.ok for v in plan.verdicts)
    for v in plan.verdicts:
        assert v.dim_u == 3  # L + d* = 2 + 1 decoded sources
        assert v.dim_w == 1
        assert v.dim_intersection == 0
        assert v.r_det_nonzero


def test_dim_w_is_one_with_two_interferers():
    net = star_net()
    plan = build_plan(net, seed=4)
    (v,) = plan.verdicts
    assert v.dim_w == 1 and v.ok


def test_corrupted_vector_fails_verification():
    net = star_net()
    plan = build_plan(net, seed=6)
    realization = plan.realization
    bad_v = plan.V.copy()
    bad_v[1, 0] = (bad_v[1, 0] + 1) % realization.q
    plan.V = bad_v
    verdicts = pc.verify_alignment(plan, realization, net, plan.new_demands, plan.new_interference)
    assert any(v.dim_w > 1 or v.dim_intersection > 0 for v in verdicts)
    assert not all(v.ok for v in verdicts)


def test_decode_matrix_full_rank_on_success():
    rng = np.random.default_rng(77)
    for _ in range(6):
        net, _ = forest_instance(rng)
        plan = build_plan(net, seed=int(rng.integers(2**31)))
        realization = plan.realization
        q = realization.q
        for i in range(net.n_destinations):
            cols = [realization.transfer[i, j, :] * plan.V[j] % q for j in sorted(plan.new_demands[i])]
            interf = sorted(plan.new_interference[i])
            if interf:
                cols.append(realization.transfer[i, interf[0], :] * plan.V[interf[0]] % q)
            stacked = np.stack(cols, axis=1)
            assert gf.rank(stacked, q) == stacked.shape[1]


# ---------------------------------------------------------------------------
# plan_with_resampling


def test_tree_instance_succeeds_first_attempt():
    rng = np.random.default_rng(12)
    for _ in range(5):
        net, _ = forest_instance(rng)
        plan = build_plan(net, seed=int(rng.integers(2**31)))
        assert plan.attempts == 1
        assert plan.n == net.demand_size + 1  # d* = 0 on a forest
        assert all(v.ok for v in plan.verdicts)


def test_fourbyfour_reaches_rate_one_fourth(fourbyfour):
    plan = build_plan(fourbyfour, seed=0)
    assert plan.n == 4
    assert plan.rate == (1, 4)
    assert all(v.ok for v in plan.verdicts)


def test_adversarial_network_raises_constraint_violation():
    net = adversarial_net()
    graph = build_igraph(net, realize(net, 3, 0))
    spars = find_dstar(graph, demands=net.demands)
    assert spars.d_star == 0
    with pytest.raises(pc.ConstraintViolation) as exc_info:
        pc.plan_with_resampling(net, spars, max_attempts=20, seed=0)
    err = exc_info.value
    assert len(err.attempt_failures) == 20
    # destination D2 (index 1) persistently fails with representative S3 (index 2)
    assert (1, 2) in err.persistent


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
        realization = plan.realization
        q = realization.q
        for i in range(net.n_destinations):
            interf = sorted(plan.new_interference[i])
            if len(interf) < 2:
                continue
            cols = [realization.transfer[i, j, :] * plan.V[j] % q for j in interf]
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
    default_forest = decompose(graph)
    plan_a = pc.build_precoding(net, default_forest, realization, seed=1)
    sets = (net.demands[0] | set(), )  # demanded set unchanged, no extra decode
    new_demands = (net.demands[0],)
    new_interference = (frozenset(graph.interferers(0)),)
    verdicts_a = pc.verify_alignment(plan_a, realization, net, new_demands, new_interference)
    for other_root in (1, 2):
        forest_b = decompose(graph, roots={0: other_root})
        plan_b = pc.build_precoding(net, forest_b, realization, seed=1)
        verdicts_b = pc.verify_alignment(plan_b, realization, net, new_demands, new_interference)
        assert verdicts_a == verdicts_b


def test_verdict_independent_of_representative():
    net = star_net()
    plan = build_plan(net, seed=9)
    realization = plan.realization
    q = realization.q
    desired = sorted(plan.new_demands[0])
    interf = sorted(plan.new_interference[0])
    assert len(interf) >= 2
    u_cols = np.stack([realization.transfer[0, j, :] * plan.V[j] % q for j in desired], axis=1)
    ranks = []
    for rep in interf:
        w = (realization.transfer[0, rep, :] * plan.V[rep] % q)[:, None]
        ranks.append(gf.rank(np.concatenate([u_cols, w], axis=1), q))
    assert len(set(ranks)) == 1
