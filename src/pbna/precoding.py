"""Precoding vectors from interference-forest paths, and alignment verification.

Operating point: one message symbol per source (a = A = 1), one interference
dimension per destination (b = B = 1), over n = L + d* + 1 slots.  Each BFS
tree of the sparsified graph gets a fresh random nonzero vector at its root;
every other source's vector is the root vector scaled per slot by the
product of signed transfer values along the unique tree path to the root
(plain transfer values on edges walked from a source down to a destination
node, inverses on edges walked from a destination node down to a source).
A link whose transfer vanishes at a slot, walked either way, zeroes the
vectors below it there; otherwise all interference columns at a destination
coincide exactly.  One rule accepts an attempt: exact rank checks at the
sampled assignment show that every destination decodes.  Any other attempt
is retried with fresh randomness.

Every inverse an attempt needs comes from one ``kernels.inverse`` call,
made before the walk down the trees.  Verification and decoding gather every
destination's received directions into one (M, n, w) stack, through a
padded table of source indices, and reduce it in one pass.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import gf, kernels
from .gf import DEFAULT_Q
from .interference import InterferenceGraph, decompose
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
    """No resampling attempt decoded at every destination.

    attempt_failures holds one record per attempt: the (destination,
    interference representative) pairs that failed verification, with -1 for
    a destination without interferers.  persistent holds the pairs that
    failed in every attempt.  Random draws cannot show that a determinant
    vanishes identically, so the message states only what the attempts showed.
    """

    def __init__(self, attempt_failures):
        self.attempt_failures = tuple(attempt_failures)
        self.persistent = tuple(sorted(set.intersection(*map(set, self.attempt_failures))))
        msg = f"no valid assignment found in {len(self.attempt_failures)} attempts"
        if self.persistent:
            msg += "; every attempt failed at " + ", ".join(
                f"(D{i + 1}, {f'S{k + 1}' if k >= 0 else 'no interferer'})" for i, k in self.persistent
            )
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


def build_precoding(g: InterferenceGraph, forest: tuple[list[int], list[int], list[list[int]]], realization: NetworkRealization, seed: int) -> np.ndarray:
    """All precoding vectors, as the (K, n) array V, for one realized assignment.

    ``forest`` is decompose(g): every node's BFS parent and tree-edge id,
    and the visit orders that the walk follows.  A link's row may vanish at
    some slot, walked up or down: only its nonzero entries are inverted, so
    a zero stays zero and zeroes the vectors below it at that slot, and
    verification judges whether every destination still decodes.
    """
    q = realization.q
    n = realization.slot_count
    k = g.n_sources
    rng = np.random.default_rng(seed)
    parent, up, orders = forest
    below = [v for order in orders for v in order[1:]]  # every link's lower node, in walk order
    src, dest = np.array([g.index.edges[up[v]] for v in below], dtype=np.int64).reshape(-1, 2).T
    factor = realization.transfer[dest, src]  # one row per link
    # links walked from a destination node down to a source
    inverted = (np.array(below, dtype=np.int64) < k)[:, None] & (factor != 0)
    factor[inverted] = kernels.inverse(factor[inverted], q)  # all of the attempt's inverses in one batch
    rows = iter(factor)
    scale = np.zeros((len(parent), n), dtype=np.int64)
    for order in orders:
        scale[order[0]] = rng.integers(1, q, size=n, dtype=np.int64)
        for v in order[1:]:
            scale[v] = scale[parent[v]] * next(rows) % q
    return scale[:k]


def decode_sources(plan: PrecodingPlan) -> list[list[int]]:
    """Per destination, the sources its decoder solves for: its decoded sources, then its smallest
    interferer, if any, whose column every other interference column is a multiple of on an ok plan."""
    return [sorted(d) + sorted(f)[:1] for d, f in zip(plan.new_demands, plan.new_interference)]


def source_table(sources) -> np.ndarray:
    """One list of source indices per destination, as an (M, w) table padded on the right with -1."""
    w = max(map(len, sources))
    return np.array([js + [-1] * (w - len(js)) for js in sources], dtype=np.int64)


def signal_stack(plan: PrecodingPlan, table: np.ndarray) -> np.ndarray:
    """Received directions at every destination, as one (M, n, w) stack, by one gather.

    Column t of matrix i is diag(m_ij) V_j for the source j = table[i, t] of
    an (M, w) ``source_table``; its -1 padding gives zero columns.
    """
    # -1 gathers the last source, and the mask zeroes it
    cols = plan.realization.transfer[np.arange(len(table))[:, None], table] * plan.V[table] % plan.realization.q
    cols[table < 0] = 0
    return cols.transpose(0, 2, 1)


def verify_alignment(plan: PrecodingPlan) -> list[AlignmentVerdict]:
    """Exact rank checks of the alignment conditions at every destination, for the plan's decode sets.

    ``ok`` means the destination decodes: decode_sources' system [U | w_rep]
    has full column rank (``r_det_nonzero``) and dim_w <= B.  These imply the
    rest: U's columns are independent, so dim_u counts the decoded sources,
    and W is empty or span(w_rep), so it meets U trivially (dim_intersection 0).
    One gather builds [U | W] per destination, w_rep first, padded to a
    common width, then W; reducing the first gives rank(U), rank([U | w_rep])
    and rank([U | W]) as pivot counts, and reducing W gives every rank(W).
    """
    q = plan.realization.q
    decode = decode_sources(plan)
    interf = [sorted(f) for f in plan.new_interference]
    uw = source_table([cols + f[1:] for cols, f in zip(decode, interf)])
    width = uw.shape[1]
    cols = signal_stack(plan, np.concatenate([uw, source_table(interf)], axis=1))
    pivots = np.full(cols.shape[:2], -1, dtype=np.int64)
    rank_uw = kernels.row_reduce(cols[:, :, :width], q, pivots)
    dim_w = gf.rank(cols[:, :, width:], q)
    u = np.array([len(d) for d in plan.new_demands])
    n_decode = np.array([len(d) for d in decode])
    dim_u = np.count_nonzero((pivots >= 0) & (pivots < u[:, None]), axis=1)
    # with no interferer W is empty, so rank([U | W]) = dim_u and the intersection is trivial
    dim_int = dim_u + dim_w - rank_uw
    r_det_nonzero = np.count_nonzero((pivots >= 0) & (pivots < n_decode[:, None]), axis=1) == n_decode
    ok = r_det_nonzero & (dim_w <= B)
    return [AlignmentVerdict(i, *v) for i, v in enumerate(zip(
        dim_u.tolist(), dim_w.tolist(), dim_int.tolist(), ok.tolist(), r_det_nonzero.tolist()))]


def plan_with_resampling(net: Network, sparsification: SparsificationResult, max_attempts: int = 20, seed: int = 0, q: int = DEFAULT_Q) -> PrecodingPlan:
    """Realize, precode, and verify with fresh randomness until every destination decodes.

    Destination i decodes its demands plus its extra-decode set and sees the
    sparsified graph's interferers at i as interference; the plan carries
    both sets.  The one acceptance rule: every verdict of verify_alignment
    is ``ok``.  An attempt with a nonzero transfer at a pair in neither set
    proves the graph wrong and raises MissedInterference; any other attempt
    that fails verification is retried.  Exhausting the ``max_attempts``
    (at least 1) raises ConstraintViolation with each attempt's failing
    destinations.  Random coefficients decode only with high probability,
    so at small q this can happen on a network that a larger q serves.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    n = net.demand_size + sparsification.d_star + 1
    h_bar = sparsification.h_bar
    forest = decompose(h_bar)
    new_demands = tuple(net.demands[i] | sparsification.extra_decode[i] for i in range(net.n_destinations))
    new_interference = tuple(frozenset(h_bar.interferers(i)) for i in range(net.n_destinations))
    used = net.demand_mask.copy()
    extra = [sparsification.extra_decode[i] | new_interference[i] for i in range(net.n_destinations)]
    used[[i for i, js in enumerate(extra) for _ in js], [j for js in extra for j in js]] = True

    rng = np.random.default_rng(seed)
    attempt_failures = []
    for attempt in range(1, max_attempts + 1):
        r_seed = int(rng.integers(0, 2**63))
        p_seed = int(rng.integers(0, 2**63))
        realization = realize(net, n, r_seed, q)
        missed = pairs_in(realization.transfer.any(axis=2) & ~used)
        if missed:
            raise MissedInterference(missed)
        plan = PrecodingPlan(build_precoding(h_bar, forest, realization, p_seed), realization, new_demands, new_interference)
        verdicts = verify_alignment(plan)
        if all(v.ok for v in verdicts):
            return dataclasses.replace(plan, verdicts=tuple(verdicts), attempts=attempt)
        attempt_failures.append(tuple(
            (v.destination, min(new_interference[v.destination], default=-1))
            for v in verdicts
            if not v.ok
        ))
    raise ConstraintViolation(attempt_failures)
