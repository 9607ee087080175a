"""Precoding vectors from interference-forest paths, and alignment verification.

Operating point: one message symbol per source (a = A = 1), one interference
dimension per destination (b = B = 1), over n = L + d* + 1 slots.  Each BFS
tree of the sparsified graph gets a fresh random nonzero vector at its root;
every other source's vector is the root vector scaled per slot by the
product of signed transfer values along the unique tree path to the root
(plain transfer values on edges walked from a source down to a destination
node, inverses on edges walked from a destination node down to a source).
On that construction all interference columns at a destination coincide
exactly, so verification reduces to exact rank checks at the sampled
assignment; failures are retried with fresh randomness.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import gf
from .gf import DEFAULT_Q
from .interference import NodeRef, Tree, decompose, edge_between
from .network import Network, NetworkRealization, pairs_in, realize
from .sparsify import SparsificationResult


# message symbols per source and interference dimensions per destination
A = B = 1


class MissedInterference(Exception):
    """A sampled realization has a nonzero transfer at pairs the interference graph calls zero.

    pairs holds those (destination, source) pairs: the zero-function probe
    that built the graph missed their interference, so no plan on that
    graph can be trusted.
    """

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        what = ", ".join(f"(D{i + 1}, S{j + 1})" for i, j in self.pairs)
        super().__init__(f"the interference graph misses {what}: nonzero transfers at a sampled assignment")


class ConstraintViolation(Exception):
    """All resampling attempts failed; evidence of a structural violation.

    attempt_failures holds one (reason, details) record per attempt, and the
    message counts them by reason; persistent holds the destinations (with
    their interference representative) that failed in every alignment-checked
    attempt.
    """

    def __init__(self, attempt_failures, persistent):
        self.attempt_failures = tuple(attempt_failures)
        self.persistent = tuple(persistent)
        tally = Counter(reason for reason, _ in self.attempt_failures)
        counts = "(" + ", ".join(f"{reason}: {n}" for reason, n in sorted(tally.items())) + ")"
        if persistent:
            what = ", ".join(
                f"(D{i + 1}, {f'S{k + 1}' if k >= 0 else 'no interferer'})" for i, k in persistent
            )
            msg = f"alignment unachievable after {len(self.attempt_failures)} attempts {counts}; persistent failures at {what}"
        else:
            msg = f"no valid assignment found in {len(self.attempt_failures)} attempts {counts}"
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


@dataclass(frozen=True, eq=False)
class PrecodingPlan:
    """Per-source precoding vectors, the realization they were built on, and the decode sets.

    new_demands[i] holds the sources destination i decodes (its demands plus
    its extra-decode set) and new_interference[i] the ones that interfere
    there; a plan from plan_with_resampling also carries its verdicts and
    the attempt that produced it.
    """

    V: np.ndarray  # (K, n), row j is the length-n vector of source j; a tree root's row is its raw random vector
    realization: NetworkRealization
    new_demands: tuple[frozenset[int], ...]
    new_interference: tuple[frozenset[int], ...]
    verdicts: tuple[AlignmentVerdict, ...] = ()
    attempts: int = 0

    @property
    def n(self) -> int:
        return self.realization.slot_count

    @property
    def rate(self) -> tuple[int, int]:
        """Per-source rate as the exact fraction (a, n)."""
        return (A, self.n)


def build_precoding(forest: tuple[Tree, ...], realization: NetworkRealization, seed: int) -> np.ndarray:
    """All precoding vectors, as the (K, n) array V, for one realized assignment.

    ``forest`` holds decompose's trees; each is walked in its dict order, so
    a node's scale is known before its children's.  Every tree-edge transfer
    value must be nonzero at every slot; plan_with_resampling drops the
    attempts where one vanishes.
    """
    q = realization.q
    n = realization.slot_count
    rng = np.random.default_rng(seed)
    V = np.zeros((realization.network.n_sources, n), dtype=np.int64)
    for tree in forest:
        scale: dict[NodeRef, np.ndarray] = {}
        for node, parent in tree.items():
            if parent is None:
                scale[node] = rng.integers(1, q, size=n, dtype=np.int64)
            else:
                j, i = edge_between(node, parent)
                row = realization.transfer[i, j]
                if node[0] == "x":
                    # walked from a destination node down to a source: the row's inverses
                    row = np.array([pow(m, -1, q) for m in row.tolist()], dtype=np.int64)
                scale[node] = scale[parent] * row % q
            if node[0] == "x":
                V[node[1]] = scale[node]

    if not (V != 0).any(axis=1).all():
        raise AssertionError("a precoding vector came out identically zero")
    return V


def signal_columns(plan: PrecodingPlan, i: int, sources) -> np.ndarray:
    """Received directions of ``sources`` at destination i: column t is diag(m_ij) V_j for j = sources[t]."""
    js = list(sources)
    return (plan.realization.transfer[i, js] * plan.V[js] % plan.realization.q).T


def verify_alignment(plan: PrecodingPlan) -> list[AlignmentVerdict]:
    """Exact rank checks of the alignment conditions at every destination, for the plan's decode sets.

    dim_u must equal the number of decoded sources, all interference must
    collapse to at most one dimension, and the two spans must intersect
    trivially; the representative full-rank test uses the smallest-index
    interferer.  One stacked reduction of every destination's [U | W] gives
    rank(U), rank([U | w_rep]) and rank([U | W]) as pivot counts, and one
    more stacked reduction gives every rank(W).
    """
    q = plan.realization.q
    n_dest = plan.realization.network.n_destinations
    desired = [sorted(plan.new_demands[i]) for i in range(n_dest)]
    interf = [sorted(plan.new_interference[i]) for i in range(n_dest)]
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
        ok = dim_u == u * A and dim_w <= B and dim_int == 0
        verdicts.append(AlignmentVerdict(i, dim_u, dim_w, dim_int, ok, r_det_nonzero))
    return verdicts


def plan_with_resampling(net: Network, sparsification: SparsificationResult, max_attempts: int = 20, seed: int = 0, q: int = DEFAULT_Q) -> PrecodingPlan:
    """Realize, precode, and verify with fresh randomness until success.

    Destination i decodes its demands plus its extra-decode set and sees the
    sparsified graph's interferers at i as interference; the plan carries
    both sets.  Success certifies the sampled assignment satisfies every alignment
    condition exactly.  An attempt whose realization has a nonzero transfer
    at a pair in neither set proves the graph wrong and raises
    MissedInterference; one with a zero transfer at a pair in them is
    dropped.  Exhausting ``max_attempts`` raises ConstraintViolation
    carrying the per-attempt failure pattern -- strong evidence that some
    required determinant is identically zero.
    """
    n = net.demand_size + sparsification.d_star + 1
    h_bar = sparsification.h_bar
    forest = decompose(h_bar)
    new_demands = tuple(net.demands[i] | sparsification.extra_decode[i] for i in range(net.n_destinations))
    new_interference = tuple(frozenset(h_bar.interferers(i)) for i in range(net.n_destinations))
    used = net.demand_mask.copy()
    for i in range(net.n_destinations):
        used[i, list(sparsification.extra_decode[i] | new_interference[i])] = True

    rng = np.random.default_rng(seed)
    attempt_failures = []
    failing_sets = []
    for attempt in range(1, max_attempts + 1):
        r_seed = int(rng.integers(0, 2**63))
        p_seed = int(rng.integers(0, 2**63))
        realization = realize(net, n, r_seed, q)
        missed = pairs_in(realization.transfer.any(axis=2) & ~used)
        if missed:
            raise MissedInterference(missed)
        zeros = pairs_in(~realization.transfer.all(axis=2) & used)
        if zeros:
            attempt_failures.append(("zero_at_assignment", zeros))
            continue
        plan = PrecodingPlan(build_precoding(forest, realization, p_seed), realization, new_demands, new_interference)
        verdicts = verify_alignment(plan)
        if all(v.ok for v in verdicts):
            return dataclasses.replace(plan, verdicts=tuple(verdicts), attempts=attempt)
        failed = tuple(
            (v.destination, min(new_interference[v.destination], default=-1))
            for v in verdicts
            if not v.ok
        )
        attempt_failures.append(("alignment", failed))
        failing_sets.append(set(failed))

    persistent = sorted(set.intersection(*failing_sets)) if failing_sets else []
    raise ConstraintViolation(attempt_failures, persistent)
