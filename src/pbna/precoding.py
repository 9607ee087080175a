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
    """Per-source precoding vectors plus the randomness that produced them."""

    n: int
    V: np.ndarray  # (K, n), row j is the length-n vector of source j; a tree root's row is its raw random vector
    realization: NetworkRealization
    forest: ForestDecomposition
    a: int = 1
    b: int = 1
    verdicts: tuple[AlignmentVerdict, ...] = ()
    new_demands: tuple[frozenset[int], ...] | None = None
    new_interference: tuple[frozenset[int], ...] | None = None
    attempts: int = 0
    seed: int | None = None

    @property
    def rate(self) -> tuple[int, int]:
        """Per-source rate as the exact fraction (a, n)."""
        return (self.a, self.n)


def signed_transfer(h_edge: tuple[int, int], parity: str, realization: NetworkRealization, k: int) -> int:
    """Transfer value of one interference edge at slot k, with orientation.

    ``h_edge`` is (destination i, source j).  Edges walked downward (source
    above the destination node in the BFS tree) contribute the plain value;
    edges walked upward contribute its inverse, which requires it nonzero.
    """
    i, j = h_edge
    m = int(realization.transfer[i, j, k])
    if parity == "down":
        return m
    if parity != "up":
        raise ValueError(f"parity must be 'down' or 'up', got {parity!r}")
    if m == 0:
        raise ZeroAtAssignment(f"transfer (D{i + 1}, S{j + 1}) is 0 at slot {k}, cannot invert")
    return pow(m, realization.q - 2, realization.q)


def build_precoding(net: Network, h_bar_forest: ForestDecomposition, realization: NetworkRealization, seed: int) -> PrecodingPlan:
    """Construct all precoding vectors for one realized assignment.

    Raises ZeroAtAssignment when any tree-edge transfer value vanishes at
    some slot (every such value is a factor of the nonzero-certificate
    polynomial, so the whole plan must be resampled).
    """
    q = realization.q
    n = realization.slot_count
    rng = np.random.default_rng(seed)

    for comp in h_bar_forest.components:
        for j, i in comp.edges:
            if (realization.transfer[i, j, :] == 0).any():
                raise ZeroAtAssignment(f"transfer (D{i + 1}, S{j + 1}) vanishes at the sampled assignment")

    V = np.zeros((net.n_sources, n), dtype=np.int64)
    for comp in h_bar_forest.components:
        theta = rng.integers(1, q, size=n, dtype=np.int64)
        scale = {("x", comp.root): np.ones(n, dtype=np.int64)}
        for level in comp.levels[1:]:
            for node in level:
                parent = comp.parent[node]
                if node[0] == "y":
                    # downward edge (parent source, this destination node)
                    factors = [signed_transfer((node[1], parent[1]), "down", realization, k) for k in range(n)]
                else:
                    # upward edge (this source, parent destination node)
                    factors = [signed_transfer((parent[1], node[1]), "up", realization, k) for k in range(n)]
                scale[node] = scale[parent] * np.asarray(factors, dtype=np.int64) % q
        for j in comp.x_nodes:
            V[j] = scale[("x", j)] * theta % q

    plan = PrecodingPlan(n=n, V=V, realization=realization, forest=h_bar_forest, seed=seed)
    if not all((V[j] != 0).any() for j in range(net.n_sources)):
        raise AssertionError("a precoding vector came out identically zero")
    return plan


def _signal_column(plan: PrecodingPlan, realization: NetworkRealization, i: int, j: int) -> np.ndarray:
    """Received direction of source j at destination i: diag(m_ij) V_j."""
    return realization.transfer[i, j, :] * plan.V[j] % realization.q


def verify_alignment(plan: PrecodingPlan, realization: NetworkRealization, net: Network, new_demands, new_interference) -> list[AlignmentVerdict]:
    """Exact rank checks of the alignment conditions at every destination.

    dim_u must equal the number of decoded sources, all interference must
    collapse to at most one dimension, and the two spans must intersect
    trivially; the representative full-rank test uses the smallest-index
    interferer.
    """
    q = realization.q
    verdicts = []
    for i in range(net.n_destinations):
        desired = sorted(new_demands[i])
        interf = sorted(new_interference[i])
        u_cols = np.stack([_signal_column(plan, realization, i, j) for j in desired], axis=1)
        dim_u = gf.rank(u_cols, q)
        if interf:
            w_cols = np.stack([_signal_column(plan, realization, i, j) for j in interf], axis=1)
            dim_w = gf.rank(w_cols, q)
            dim_int = dim_u + dim_w - gf.rank(np.concatenate([u_cols, w_cols], axis=1), q)
            rep = np.concatenate([u_cols, w_cols[:, :1]], axis=1)
            r_det_nonzero = gf.rank(rep, q) == rep.shape[1]
        else:
            dim_w = 0
            dim_int = 0
            r_det_nonzero = dim_u == len(desired)
        ok = dim_u == len(desired) * plan.a and dim_w <= plan.b and dim_int == 0
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
        plan = build_precoding(net, forest, realization, p_seed)
        verdicts = verify_alignment(plan, realization, net, new_demands, new_interference)
        if all(v.ok for v in verdicts):
            plan.verdicts = tuple(verdicts)
            plan.new_demands = new_demands
            plan.new_interference = new_interference
            plan.attempts = attempt
            plan.seed = seed
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
