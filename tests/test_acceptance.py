"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All tolerances are exact (integer field arithmetic); the only numeric budgets
are wall-clock limits.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from pbna import gf, sparsify
from pbna.interference import InterferenceGraph, build_igraph, connected_components, has_cycle
from pbna.network import mincut, realize
from pbna.obstruction import cycle_ratio, infeasibility_report
from pbna.precoding import ConstraintViolation, plan_with_resampling, verify_alignment
from pbna.simulate import propagate_symbols, rate_report, run_session
from pbna.sparsify import default_labeling, find_dstar
from gen import adversarial_net, forest_instance, fourbyfour_net, random_bipartite, random_dag_net, seeded_messages
from oracles import (dense_transfer, dstar_exact_removal, find_dstar_with_removal, mincut_by_enumeration,
                     propagate_symbols_by_edges, verdicts_by_ranks)

Q = gf.DEFAULT_Q


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL — {summary}")
        raise
    print(f"ACCEPTANCE {num}: PASS — {summary}")


def _build_plan(net, seed):
    graph = build_igraph(net, realize(net, 3, seed, Q))
    spars = find_dstar(graph)
    return graph, spars, plan_with_resampling(net, spars, max_attempts=20, seed=seed, q=Q)


@pytest.fixture(scope="module")
def forest_plans():
    rng = np.random.default_rng(8101)
    plans = []
    while len(plans) < 24:
        net, forest_edges = forest_instance(rng)
        graph, spars, plan = _build_plan(net, seed=int(rng.integers(2**31)))
        assert not has_cycle(graph)
        plans.append((net, graph, spars, plan))
    return plans


@pytest.fixture(scope="module")
def fourbyfour_stack():
    net = fourbyfour_net()
    return (net, *_build_plan(net, seed=0))


def test_criterion_1_forest_rate(forest_plans):
    with criterion(1, "rate 1/(L+1) with 100% decode on >= 20 forest networks in < 10 s"):
        t0 = time.monotonic()
        seen_l = set()
        assert len(forest_plans) >= 20
        for net, graph, spars, plan in forest_plans:
            l_size = net.demand_size
            seen_l.add(l_size)
            assert l_size in (1, 2, 3) and net.n_sources <= 6 and net.n_destinations <= 6
            assert spars.d_star == 0
            assert plan.n == l_size + 1
            assert verify_alignment(plan).all()
            trace = run_session(plan, seeded_messages(net, Q, range(100)))
            report = rate_report(trace, plan)
            assert report.per_source_rate == (1, l_size + 1)
            assert report.successes == report.decode_checks  # 100% decode
        assert seen_l == {1, 2, 3}
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_fourbyfour_cycle(fourbyfour_stack):
    with criterion(2, "4x4 cycle: 8-cycle graph, d* = 1 (= brute force), rate 1/4, 100% decode in < 5 s"):
        t0 = time.monotonic()
        net, graph, spars, plan = fourbyfour_stack
        expected_cycle = {(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (0, 3)}
        assert set(graph.edges) == expected_cycle
        assert spars.d_star == 1
        assert dstar_exact_removal(graph) == 1
        assert plan.n == 4
        trace = run_session(plan, seeded_messages(net, Q, range(100)))
        report = rate_report(trace, plan)
        assert report.per_source_rate == (1, 4)
        assert report.successes == report.decode_checks
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_obstruction_hypothesis(fourbyfour_stack):
    with criterion(3, "4x4 ratio non-constant in >= 99/100 seeded runs, infeasibility statement emitted"):
        net, graph, _, _ = fourbyfour_stack
        cycle = (0, 4, 1, 5, 2, 6, 3, 7)  # S1, W1, S2, W2, S3, W3, S4, W4
        ratios = [cycle_ratio(net, cycle, trials=5, seed=s, q=Q) for s in range(100)]
        non_constant = sum(r.verdict == "non-constant" for r in ratios)
        assert non_constant >= 99
        report = infeasibility_report(net, ratios[0], graph)
        assert report.claim == "infeasible"
        assert "1/3" in report.statement


def test_criterion_4_dstar_oracle_agreement():
    with criterion(4, "find_dstar == exhaustive d* oracle on 200 random bipartite graphs in < 30 s"):
        t0 = time.monotonic()
        rng = np.random.default_rng(412)
        disconnected = 0
        for _ in range(200):
            g = random_bipartite(rng, max_edges=12)
            comps_with_edges = sum(
                1 for comp in connected_components(g)
                if any(j in comp for j, _ in g.edges)
            )
            disconnected += comps_with_edges > 1
            assert find_dstar(g).d_star == dstar_exact_removal(g)
        assert disconnected > 10  # the pool genuinely includes disconnected graphs
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_5_size_law_under_labelings():
    with criterion(5, "final independent set has size |F|-K-M+1 on connected instances, 10 labelings each"):
        rng = np.random.default_rng(515)
        tested = 0
        while tested < 25:
            g = random_bipartite(rng, max_sources=4, max_dests=4, max_edges=11)
            if not g.edges:
                continue
            comps = connected_components(g)
            if len(comps) != 1:
                continue
            target = len(g.edges) - g.n_sources - g.n_destinations + 1
            if target < 0:
                continue
            labeling = list(default_labeling(g))
            with pytest.MonkeyPatch.context() as mp:
                for _ in range(10):
                    rng.shuffle(labeling)
                    mp.setattr(sparsify, "default_labeling", lambda g, order=tuple(labeling): order)
                    _, removal = find_dstar_with_removal(g)
                    assert len(removal) == target
                    # complement is a spanning tree: correct size and acyclic
                    kept = g.edges - removal
                    assert len(kept) == g.n_sources + g.n_destinations - 1
                    assert not has_cycle(InterferenceGraph(g.n_sources, g.n_destinations, kept))
            tested += 1


def test_criterion_6_alignment_identity(forest_plans, fourbyfour_stack):
    with criterion(6, "interference columns are exact scalar multiples (dim_W = 1) on every plan"):
        stacks = [(net, plan) for net, _, _, plan in forest_plans]
        stacks.append((fourbyfour_stack[0], fourbyfour_stack[3]))
        pairs_checked = 0
        for net, plan in stacks:
            realization = plan.realization
            verdicts = verdicts_by_ranks(plan)
            for i in range(net.n_destinations):
                interf = sorted(plan.new_interference[i])
                if len(interf) < 2:
                    continue
                assert verdicts[i].dim_w == 1
                cols = [dense_transfer(realization)[i, j, :] * plan.V[j] % Q for j in interf]
                base = cols[0]
                pivot = int(np.nonzero(base)[0][0])
                for other in cols[1:]:
                    scalar = int(other[pivot]) * pow(int(base[pivot]), Q - 2, Q) % Q
                    assert scalar != 0
                    assert np.array_equal(other, base * scalar % Q)
                    pairs_checked += 1
        assert pairs_checked >= 10


def test_criterion_7_transfer_consistency():
    with criterion(7, "raw propagation equals the algebraic transfer model on 100 random triples"):
        rng = np.random.default_rng(717)
        done = 0
        while done < 100:
            if done % 2 == 0:
                net = random_dag_net(rng, max_extra_nodes=4, max_edges=9)
            else:
                net, _ = forest_instance(rng)
            realization = realize(net, 2, seed=int(rng.integers(2**32)), q=Q)
            x = rng.integers(0, Q, size=net.n_sources, dtype=np.int64)
            batched = propagate_symbols(net, realization, np.repeat(x[None, :, None], 2, axis=2))
            transfer = dense_transfer(realization)
            for k in range(2):
                got = propagate_symbols_by_edges(net, realization, k, x)
                for i in range(net.n_destinations):
                    expect = 0
                    for j in range(net.n_sources):
                        expect = (expect + int(transfer[i, j, k]) * int(x[j])) % Q
                    assert int(got[i]) == expect
                assert np.array_equal(batched[0, :, k], got)
            done += 1


def test_criterion_8_mincut_oracle():
    with criterion(8, "max-flow mincut matches exhaustive edge-cut enumeration on 50 random DAGs"):
        rng = np.random.default_rng(818)
        for _ in range(50):
            net = random_dag_net(rng, max_extra_nodes=4, max_edges=8)
            assert mincut(net, 0).get(0, 0) == mincut_by_enumeration(net, 0, 0)


def test_criterion_9_constraint_violation_detection():
    with criterion(9, "adversarial network raises ConstraintViolation in >= 95/100 seeded runs"):
        net = adversarial_net()
        graph = build_igraph(net, realize(net, 3, 0, Q))
        spars = find_dstar(graph)
        violations = 0
        for seed in range(100):
            try:
                plan_with_resampling(net, spars, max_attempts=20, seed=seed, q=Q)
            except ConstraintViolation:
                violations += 1
        assert violations >= 95
