"""End-to-end slot-level simulation: encode, propagate, decode, report rates.

A batch of sessions travels through the DAG together: every session's slot
symbols are injected at the sources and propagated through the coded edges
by the transfer kernel, and never computed from the transfer values, so each
decode doubles as a check of the algebraic model.  The decode matrix of a
destination is the same for every session, and every destination's system
has the same n rows, so one gather builds their stack and one exact
reduction of it decodes every destination for all sessions.  A decode
fails when its system has no unique solution or its solution is the wrong
message; either way it is one ``False`` in the trace's ``success``, never
an exception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .network import Network, NetworkRealization
from .precoding import A, PrecodingPlan, decode_sources, signal_stack, source_table

# Sessions per kernel call, so the (edges, sessions, slots) edge tensor stays bounded.
SESSION_BLOCK = 256


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
        got = net.layout.propagate(realization.coding_assignments, block, q)
        received[lo:lo + SESSION_BLOCK] = got.transpose(1, 0, 2)
    return received


def run_session(plan: PrecodingPlan, messages) -> SessionTrace:
    """Encode a batch of sessions with the plan, propagate every slot, decode everywhere.

    ``messages`` is (S, K), one symbol per source for each of S >= 1 sessions.
    Each destination solves for its decoded sources plus one aggregated
    interference coordinate (the interference columns coincide by
    construction), then keeps the source coordinates; one reduction of the
    stack of every destination's system solves them for all sessions.  A
    (session, destination) pair succeeds when its system has a unique
    solution and that solution recovers every decoded message.
    """
    realization = plan.realization
    net = realization.network
    q = realization.q
    z = np.asarray(messages, dtype=np.int64) % q
    if z.ndim != 2 or z.shape[1] != net.n_sources or z.shape[0] == 0:
        raise ValueError(f"need one message per source for each of one or more sessions, got shape {z.shape}")

    transmitted = z[:, :, None] * plan.V[None, :, :] % q
    received = propagate_symbols(net, realization, transmitted)

    desired = [sorted(d) for d in plan.new_demands]
    # the systems verify_alignment found of full column rank; only gf.solve reads their pivot table
    systems = source_table(decode_sources(plan))
    sol, unique = gf.solve(signal_stack(plan, systems), received.transpose(1, 2, 0), q, (systems >= 0).sum(axis=1))
    wanted = source_table(desired)
    # (S, M, u): every decoded source coordinate against its message; padding compares as equal
    ok = ((sol[:, :wanted.shape[1]].transpose(2, 0, 1) == z[:, wanted]) | (wanted < 0)).all(axis=2) & unique.T
    decoded = tuple(dict(zip(d, sol[i, :len(d)])) for i, d in enumerate(desired))
    return SessionTrace(z, received, decoded, tuple(ok.ravel().tolist()))


@dataclass(frozen=True)
class RateReport:
    """Achieved rates and decode statistics over a non-empty batch of sessions.

    ``reference_rate`` is read off the plan's decode sets, not its slot count
    (see rate_report), so ``matches_reference`` is a check of the plan's n.
    """

    sessions: int
    decode_checks: int
    successes: int
    success_fraction: float
    per_source_rate: tuple[int, int]  # exact fraction (a, n)
    sum_rate: tuple[int, int]  # (K*a, n)
    reference_rate: tuple[int, int]  # 1 / (L + d* + 1)
    sum_rate_ceiling: tuple[int, int]  # K / (L + 1)
    matches_reference: bool


def rate_report(trace: SessionTrace, plan: PrecodingPlan) -> RateReport:
    """Summarize decode success over a batch and compare the achieved rate with the reference.

    The reference slot count is max_i |new_demands[i]| + 1, which is
    L + d* + 1: an extra-decoded source is an interferer, outside the L
    demanded ones, and d* = max_i |extra_decode[i]|, since find_dstar trims
    min(d*, degree) edges at every destination and d* is below the largest
    degree.
    """
    net = plan.realization.network
    k_sources = net.n_sources
    reference = (1, max(map(len, plan.new_demands)) + 1)
    checks = len(trace.success)
    successes = trace.success.count(True)
    return RateReport(
        sessions=len(trace.messages),
        decode_checks=checks,
        successes=successes,
        success_fraction=successes / checks,
        per_source_rate=plan.rate,
        sum_rate=(k_sources * A, plan.n),
        reference_rate=reference,
        sum_rate_ceiling=(k_sources, net.demand_size + 1),
        matches_reference=plan.rate == reference,
    )
