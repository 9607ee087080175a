"""End-to-end slot-level simulation: encode, propagate, decode, report rates.

Raw propagation here walks the DAG edge by edge in plain Python, independent
of the batched transfer kernel, so traces double as a consistency check of
the algebraic model: the received vector must equal sum_j diag(m_ij) V_j z_j
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .network import Network, NetworkRealization
from .precoding import PrecodingPlan


class DecodeFailure(Exception):
    """Decode system was rank-deficient or inconsistent (should not happen on verified plans)."""


@dataclass(eq=False)
class SessionTrace:
    """One transmission round: K messages in, per-destination decodes out."""

    messages: np.ndarray  # (K,)
    transmitted: np.ndarray  # (K, n) slot symbols per source
    received: np.ndarray  # (M, n) slot symbols per destination
    decoded: tuple[dict, ...]  # per destination: {source j: recovered symbol}
    success: tuple[bool, ...]


def propagate_symbols(net: Network, realization: NetworkRealization, k: int, source_symbols) -> np.ndarray:
    """Propagate one slot's source symbols through the DAG, edge by edge.

    Every out-edge carries the coded combination of its tail's in-edge
    symbols plus, at a source, the injected message symbol; a destination
    observes the sum of its in-edge symbols.
    """
    q = realization.q
    lay = net.layout
    coeff = realization.coding_assignments[k]
    source_of = {s: j for j, s in enumerate(net.sources)}
    in_edges = lay.in_edges

    val: dict[int, int] = {}
    for e in lay.edge_order:
        tail = net.edges[e][0]
        acc = 0
        j = source_of.get(tail)
        if j is not None:
            acc = int(coeff[lay.inj_index[(j, e)]]) * int(source_symbols[j]) % q
        for e_in in in_edges[tail]:
            acc = (acc + int(coeff[lay.pair_index[(e_in, e)]]) * val[e_in]) % q
        val[e] = acc

    received = np.zeros(net.n_destinations, dtype=np.int64)
    for i, d in enumerate(net.destinations):
        received[i] = sum(val[e] for e in in_edges[d]) % q
    return received


def run_session(net: Network, realization: NetworkRealization, plan: PrecodingPlan,
                messages=None, seed: int = 0) -> SessionTrace:
    """Encode messages with the plan, propagate every slot, decode everywhere.

    ``messages`` defaults to a uniform random tuple drawn from ``seed``.
    Each destination solves for its decoded sources plus one aggregated
    interference coordinate (the interference columns coincide by
    construction), then keeps the source coordinates.
    """
    if plan.new_demands is None or plan.new_interference is None:
        raise ValueError("plan is missing decode sets; build it via plan_with_resampling or fill them in")
    q = realization.q
    if messages is None:
        messages = np.random.default_rng(seed).integers(0, q, size=net.n_sources, dtype=np.int64)
    z = np.asarray(messages, dtype=np.int64) % q
    if z.shape != (net.n_sources,):
        raise ValueError(f"need one message per source, got shape {z.shape}")

    transmitted = plan.V * z[:, None] % q
    received = np.zeros((net.n_destinations, plan.n), dtype=np.int64)
    for k in range(plan.n):
        received[:, k] = propagate_symbols(net, realization, k, transmitted[:, k])

    decoded = []
    success = []
    for i in range(net.n_destinations):
        desired = sorted(plan.new_demands[i])
        interf = sorted(plan.new_interference[i])
        cols = [realization.transfer[i, j, :] * plan.V[j] % q for j in desired]
        if interf:
            rep = interf[0]
            cols.append(realization.transfer[i, rep, :] * plan.V[rep] % q)
        system = np.stack(cols, axis=1)
        try:
            sol = gf.solve(system, received[i], q)
        except (gf.NoSolution, gf.RankDeficient) as exc:
            raise DecodeFailure(f"destination D{i + 1}: {exc}") from exc
        got = {j: int(sol[t]) for t, j in enumerate(desired)}
        decoded.append(got)
        success.append(all(got[j] == int(z[j]) for j in desired))
    return SessionTrace(z, transmitted, received, tuple(decoded), tuple(success))


@dataclass(frozen=True)
class RateReport:
    """Achieved rates and decode statistics over a batch of sessions."""

    sessions: int
    decode_checks: int
    successes: int
    success_fraction: float | None
    per_source_rate: tuple[int, int] | None  # exact fraction (a, n)
    sum_rate: tuple[int, int] | None  # (K*a, n)
    reference_rate: tuple[int, int]  # 1 / (L + d* + 1)
    sum_rate_ceiling: tuple[int, int]  # K / (L + 1)
    matches_reference: bool | None


def rate_report(traces, plan: PrecodingPlan) -> RateReport:
    """Summarize decode success and compare achieved vs reference rates."""
    net = plan.realization.network
    k_sources = net.n_sources
    l_size = net.demand_size
    reference = (1, plan.n)  # n = L + d* + 1 by construction
    ceiling = (k_sources, l_size + 1)
    sessions = len(traces)
    if sessions == 0:
        return RateReport(0, 0, 0, None, None, None, reference, ceiling, None)
    checks = sum(len(t.success) for t in traces)
    successes = sum(sum(t.success) for t in traces)
    per_source = (plan.a, plan.n)
    return RateReport(
        sessions=sessions,
        decode_checks=checks,
        successes=successes,
        success_fraction=successes / checks if checks else None,
        per_source_rate=per_source,
        sum_rate=(k_sources * plan.a, plan.n),
        reference_rate=reference,
        sum_rate_ceiling=ceiling,
        matches_reference=per_source == reference,
    )
