"""End-to-end slot-level simulation: encode, propagate, decode, report rates.

A batch of sessions travels through the DAG together: every session's slot
symbols are injected at the sources and propagated through the coded edges
by the transfer kernel, and never computed from the transfer values, so each
decode doubles as a check of the algebraic model.  The decode matrix of a
destination is the same for every session, and every destination's system
has the same n rows, so one exact stacked reduction decodes every
destination for all sessions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .network import Network, NetworkRealization, propagate_inputs
from .precoding import A, PrecodingPlan, signal_columns

# Sessions per kernel call, so the (edges, sessions, slots) edge tensor stays bounded.
SESSION_BLOCK = 256


class DecodeFailure(Exception):
    """Decode system was rank-deficient or inconsistent (should not happen on verified plans)."""


@dataclass(eq=False)
class SessionTrace:
    """S transmission rounds: K messages in per session, per-destination decodes out."""

    messages: np.ndarray  # (S, K)
    received: np.ndarray  # (S, M, n) slot symbols per destination
    decoded: tuple[dict[int, np.ndarray], ...]  # per destination: {source j: (S,) recovered symbols}
    success: tuple[bool, ...]  # per (session, destination), session-major


def propagate_symbols(net: Network, realization: NetworkRealization, transmitted) -> np.ndarray:
    """Propagate every session's slot symbols through the DAG.

    ``transmitted`` is (S, K, n): the symbol source j sends in slot k of
    session s.  Every out-edge carries the coded combination of its tail's
    in-edge symbols plus, at a source, the injected symbol; a destination
    observes the sum of its in-edge symbols.  Returns (S, M, n).
    """
    q = realization.q
    sessions = transmitted.shape[0]
    received = np.zeros((sessions, net.n_destinations, realization.slot_count), dtype=np.int64)
    for lo in range(0, sessions, SESSION_BLOCK):
        block = transmitted[lo:lo + SESSION_BLOCK].transpose(1, 0, 2)  # (K, b, n)
        got = propagate_inputs(net, realization.coding_assignments, block, q)
        received[lo:lo + SESSION_BLOCK] = got.transpose(1, 0, 2)
    return received


def run_session(plan: PrecodingPlan, messages) -> SessionTrace:
    """Encode a batch of sessions with the plan, propagate every slot, decode everywhere.

    ``messages`` is (S, K), one symbol per source for each of S sessions.
    Each destination solves for its decoded sources plus one aggregated
    interference coordinate (the interference columns coincide by
    construction), then keeps the source coordinates; one stacked reduction
    solves every destination's system for all sessions.  A decode system
    without a unique solution raises DecodeFailure for the first failing
    (session, destination) pair in session-major order.
    """
    realization = plan.realization
    net = realization.network
    q = realization.q
    z = np.asarray(messages, dtype=np.int64) % q
    if z.ndim != 2 or z.shape[1] != net.n_sources:
        raise ValueError(f"need one message per source for each session, got shape {z.shape}")

    transmitted = z[:, :, None] * plan.V[None, :, :] % q
    received = propagate_symbols(net, realization, transmitted)

    n_dest = net.n_destinations
    desired = [sorted(plan.new_demands[i]) for i in range(n_dest)]
    # the prefix of verify_alignment's [U | W] whose full rank r_det_nonzero records
    systems = [signal_columns(plan, i, desired[i] + sorted(plan.new_interference[i])[:1]) for i in range(n_dest)]
    try:
        sol = gf.solve(gf.stack(systems), received.transpose(1, 2, 0), q, widths=[a.shape[1] for a in systems])
    except gf.SolveError as exc:
        # solve raises for the smallest (column, system) pair: the first failing (session, destination)
        raise DecodeFailure(f"destination D{exc.item + 1}: {exc}") from exc
    decoded = []
    ok = np.ones((z.shape[0], n_dest), dtype=bool)
    for i in range(n_dest):
        got = sol[i, :len(desired[i])]
        decoded.append(dict(zip(desired[i], got)))
        ok[:, i] = (got == z[:, desired[i]].T).all(axis=0)
    return SessionTrace(z, received, tuple(decoded), tuple(ok.ravel().tolist()))


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


def rate_report(trace: SessionTrace, plan: PrecodingPlan) -> RateReport:
    """Summarize decode success over a batch and compare achieved vs reference rates."""
    net = plan.realization.network
    k_sources = net.n_sources
    l_size = net.demand_size
    reference = (1, plan.n)  # n = L + d* + 1 by construction
    ceiling = (k_sources, l_size + 1)
    sessions = len(trace.messages)
    if sessions == 0:
        return RateReport(0, 0, 0, None, None, None, reference, ceiling, None)
    checks = len(trace.success)
    successes = trace.success.count(True)
    per_source = plan.rate
    return RateReport(
        sessions=sessions,
        decode_checks=checks,
        successes=successes,
        success_fraction=successes / checks if checks else None,
        per_source_rate=per_source,
        sum_rate=(k_sources * A, plan.n),
        reference_rate=reference,
        sum_rate_ceiling=ceiling,
        matches_reference=per_source == reference,
    )
