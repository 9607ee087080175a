"""Precoding vectors from interference-forest paths, and alignment verification.

Operating point: one message symbol per source (a = 1), one interference
dimension per destination (b = 1), over n = L + d* + 1 slots.  Each tree root
gets a fresh random nonzero vector; every other source's vector is the root
vector scaled per slot by the product of signed transfer values along the
unique tree path to the root (plain transfer values on edges walked from an
even BFS level down to an odd one, inverses on edges walked back up).  On
that construction all interference columns at a destination coincide exactly,
so verification reduces to exact rank checks at the sampled assignment;
failures are retried with fresh randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .gf import DEFAULT_Q
from .interference import ForestDecomposition, decompose
from .network import Network, NetworkRealization, realize
from .sparsify import SparsificationResult


class ZeroAtAssignment(Exception):
    """A needed transfer value vanished at the sampled assignment; resample."""


class ConstraintViolation(Exception):
    """All resampling attempts failed; evidence of a structural violation.

    attempt_failures holds one (reason, details) record per attempt;
    persistent holds the destinations (with their interference
    representative) that failed in every alignment-checked attempt.
    """

    def __init__(self, attempt_failures, persistent):
        self.attempt_failures = tuple(attempt_failures)
        self.persistent = tuple(persistent)
        if persistent:
            what = ", ".join(
                f"(D{i + 1}, {f'S{k + 1}' if k >= 0 else 'no interferer'})" for i, k in persistent
            )
            msg = f"alignment unachievable after {len(self.attempt_failures)} attempts; persistent failures at {what}"
        else:
            msg = f"no valid assignment found in {len(self.attempt_failures)} attempts"
        super().__init__(msg)


@dataclass(frozen=True)
class AlignmentVerdict:
    """Exact dimension checks at one destination."""

    destination: int
    dim_u: int
    dim_w: int
    dim_intersection: int
    ok: bool
    r_det_nonzero: bool


@dataclass(eq=False)
class PrecodingPlan:
    """Per-source precoding vectors plus the realization they were built on."""

    n: int
    V: np.ndarray  # (K, n), row j is the length-n vector of source j; a tree root's row is its raw random vector
    realization: NetworkRealization
    a: int = 1
    b: int = 1
    verdicts: tuple[AlignmentVerdict, ...] = ()
    new_demands: tuple[frozenset[int], ...] | None = None
    new_interference: tuple[frozenset[int], ...] | None = None
    attempts: int = 0

    @property
    def rate(self) -> tuple[int, int]:
        """Per-source rate as the exact fraction (a, n)."""
        return (self.a, self.n)


def build_precoding(forest: ForestDecomposition, realization: NetworkRealization, seed: int) -> PrecodingPlan:
    """Construct all precoding vectors for one realized assignment.

    Raises ZeroAtAssignment when any tree-edge transfer value vanishes at
    some slot (every such value is a factor of the nonzero-certificate
    polynomial, so the whole plan must be resampled).
    """
    q = realization.q
    n = realization.slot_count
    transfer = realization.transfer
    rng = np.random.default_rng(seed)

    for comp in forest.components:
        for j, i in comp.edges:
            if (transfer[i, j, :] == 0).any():
                raise ZeroAtAssignment(f"transfer (D{i + 1}, S{j + 1}) vanishes at the sampled assignment")

    V = np.zeros((realization.network.n_sources, n), dtype=np.int64)
    for comp in forest.components:
        theta = rng.integers(1, q, size=n, dtype=np.int64)
        scale = {("x", comp.root): np.ones(n, dtype=np.int64)}
        for level in comp.levels[1:]:
            for node in level:
                parent = comp.parent[node]
                if node[0] == "y":
                    # downward edge (parent source, this destination node): its transfer row
                    factor = transfer[node[1], parent[1]]
                else:
                    # upward edge (this source, parent destination node): the row's inverses, nonzero by the check above
                    factor = np.array([pow(m, -1, q) for m in transfer[parent[1], node[1]].tolist()], dtype=np.int64)
                scale[node] = scale[parent] * factor % q
        for j in comp.x_nodes:
            V[j] = scale[("x", j)] * theta % q

    if not (V != 0).any(axis=1).all():
        raise AssertionError("a precoding vector came out identically zero")
    return PrecodingPlan(n=n, V=V, realization=realization)


def signal_columns(plan: PrecodingPlan, i: int, sources) -> np.ndarray:
    """Received directions of ``sources`` at destination i: column t is diag(m_ij) V_j for j = sources[t]."""
    js = list(sources)
    return (plan.realization.transfer[i, js] * plan.V[js] % plan.realization.q).T


def verify_alignment(plan: PrecodingPlan, new_demands, new_interference) -> list[AlignmentVerdict]:
    """Exact rank checks of the alignment conditions at every destination.

    dim_u must equal the number of decoded sources, all interference must
    collapse to at most one dimension, and the two spans must intersect
    trivially; the representative full-rank test uses the smallest-index
    interferer.  One stacked reduction of every destination's [U | W] gives
    rank(U), rank([U | w_rep]) and rank([U | W]) as pivot counts, and one
    more stacked reduction gives every rank(W).
    """
    q = plan.realization.q
    n_dest = plan.realization.network.n_destinations
    desired = [sorted(new_demands[i]) for i in range(n_dest)]
    interf = [sorted(new_interference[i]) for i in range(n_dest)]
    cols = [signal_columns(plan, i, desired[i] + interf[i]) for i in range(n_dest)]
    all_pivots = gf.pivot_columns(gf.stack(cols), q)
    dims_w = gf.rank(gf.stack([c[:, len(d):] for c, d in zip(cols, desired)]), q)
    verdicts = []
    for i, pivots in enumerate(all_pivots):
        u = len(desired[i])
        dim_u = int(np.count_nonzero(pivots < u))
        dim_w = int(dims_w[i])
        if interf[i]:
            dim_int = dim_u + dim_w - len(pivots)
            r_det_nonzero = int(np.count_nonzero(pivots <= u)) == u + 1
        else:
            dim_int = 0
            r_det_nonzero = dim_u == u
        ok = dim_u == u * plan.a and dim_w <= plan.b and dim_int == 0
        verdicts.append(AlignmentVerdict(i, dim_u, dim_w, dim_int, ok, r_det_nonzero))
    return verdicts


def plan_with_resampling(net: Network, sparsification: SparsificationResult, max_attempts: int = 20, seed: int = 0, q: int = DEFAULT_Q) -> PrecodingPlan:
    """Realize, precode, and verify with fresh randomness until success.

    Success certifies the sampled assignment satisfies every alignment
    condition exactly.  Exhausting ``max_attempts`` raises
    ConstraintViolation carrying the per-attempt failure pattern -- strong
    evidence that some required determinant is identically zero.
    """
    n = net.demand_size + sparsification.d_star + 1
    forest = decompose(sparsification.h_bar)
    if sparsification.new_demands is not None:
        new_demands = sparsification.new_demands
    else:
        new_demands = tuple(
            net.demands[i] | sparsification.extra_decode[i] for i in range(net.n_destinations)
        )
    new_interference = sparsification.new_interference
    relevant = [
        (i, j)
        for i in range(net.n_destinations)
        for j in sorted(new_demands[i] | new_interference[i])
    ]

    rng = np.random.default_rng(seed)
    attempt_failures = []
    failing_sets = []
    for attempt in range(1, max_attempts + 1):
        r_seed = int(rng.integers(0, 2**63))
        p_seed = int(rng.integers(0, 2**63))
        realization = realize(net, n, r_seed, q)
        zeros = [(i, j) for i, j in relevant if (realization.transfer[i, j, :] == 0).any()]
        if zeros:
            attempt_failures.append(("zero_at_assignment", tuple(zeros)))
            continue
        plan = build_precoding(forest, realization, p_seed)
        verdicts = verify_alignment(plan, new_demands, new_interference)
        if all(v.ok for v in verdicts):
            plan.verdicts = tuple(verdicts)
            plan.new_demands = new_demands
            plan.new_interference = new_interference
            plan.attempts = attempt
            return plan
        failed = tuple(
            (v.destination, min(new_interference[v.destination], default=-1))
            for v in verdicts
            if not v.ok
        )
        attempt_failures.append(("alignment", failed))
        failing_sets.append(set(failed))

    persistent = sorted(set.intersection(*failing_sets)) if failing_sets else []
    raise ConstraintViolation(attempt_failures, persistent)
