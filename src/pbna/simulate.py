"""End-to-end slot-level simulation: encode, propagate, decode, report rates.

A batch of sessions travels through the DAG together: every session's slot
symbols are injected at the sources and propagated through the coded edges
by the transfer kernel, and never computed from the transfer values, so each
decode doubles as a check of the algebraic model.  The decode matrix of a
destination is the same for every session, so each destination solves for
all sessions in one exact reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .network import Network, NetworkRealization, propagate_inputs
from .precoding import PrecodingPlan, signal_columns

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
    construction), then keeps the source coordinates.  A decode system
    without a unique solution raises DecodeFailure for the first failing
    (session, destination) pair in session-major order.
    """
    if plan.new_demands is None or plan.new_interference is None:
        raise ValueError("plan is missing decode sets; build it via plan_with_resampling or fill them in")
    realization = plan.realization
    net = realization.network
    q = realization.q
    z = np.asarray(messages, dtype=np.int64) % q
    if z.ndim != 2 or z.shape[1] != net.n_sources:
        raise ValueError(f"need one message per source for each session, got shape {z.shape}")

    transmitted = z[:, :, None] * plan.V[None, :, :] % q
    received = propagate_symbols(net, realization, transmitted)

    decoded = []
    ok = np.ones((z.shape[0], net.n_destinations), dtype=bool)
    failures = []
    for i in range(net.n_destinations):
        desired = sorted(plan.new_demands[i])
        interf = sorted(plan.new_interference[i])
        try:
            # the prefix of verify_alignment's [U | W] whose full rank r_det_nonzero records
            sol = gf.solve(signal_columns(plan, i, desired + interf[:1]), received[:, i, :].T, q)
        except gf.SolveError as exc:
            failures.append((exc.column, i, exc))
            continue
        got = sol[:len(desired)]
        decoded.append(dict(zip(desired, got)))
        ok[:, i] = (got == z[:, desired].T).all(axis=0)
    if failures:
        _, i, exc = min(failures, key=lambda f: f[:2])
        raise DecodeFailure(f"destination D{i + 1}: {exc}") from exc
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
