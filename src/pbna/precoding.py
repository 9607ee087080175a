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
coincide exactly.  One rule accepts an attempt: at every destination the
decode system [U | w_rep] (the decoded sources' columns, then one
interference column) has full column rank and the interference columns W
have rank at most B, by exact rank checks at the sampled assignment.  Any
other attempt is retried with fresh randomness.

Every inverse an attempt needs comes from one ``kernels.inverse`` call,
made before the walk down the trees.  A plan gathers its decode systems
once, as one (2M, n, w) stack of every destination's [U | w_rep], then every
W: verification ranks it in one pass, and decoding solves its first half.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import gf, kernels
from .gf import DEFAULT_Q
from .interference import InterferenceGraph, decompose
from .network import AssumptionViolation, Network, NetworkRealization, ValidationReport, realize
from .sparsify import SparsificationResult


# message symbols per source and interference dimensions per destination
A = B = 1


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


@dataclass(frozen=True, eq=False)
class PrecodingPlan:
    """Per-source precoding vectors, the realization they were built on, and the decode sets.

    new_demands[i] holds the sources destination i decodes (its demands plus
    its extra-decode set) and new_interference[i] the ones that interfere
    there; a plan from plan_with_resampling also carries the attempt that
    produced it.  ``table`` and ``systems`` are derived from these fields on
    first read, so a ``dataclasses.replace`` copy derives its own.
    """

    V: np.ndarray  # (K, n), row j is the length-n vector of source j; a tree root's row is its raw random vector
    realization: NetworkRealization
    new_demands: tuple[frozenset[int], ...]
    new_interference: tuple[frozenset[int], ...]
    attempts: int = 0

    @property
    def n(self) -> int:
        return self.realization.slot_count

    @property
    def rate(self) -> tuple[int, int]:
        """Per-source rate as the exact fraction (a, n)."""
        return (A, self.n)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Read-only (2M, w) source indices, padded with -1: row i lists destination i's decoded sources, then its
        smallest interferer, if any (every other interference column is a multiple of its column on an ok plan);
        row M + i lists destination i's interferers."""
        rows = [sorted(d) + sorted(f)[:1] for d, f in zip(self.new_demands, self.new_interference)]
        rows += [sorted(f) for f in self.new_interference]
        w = max(map(len, rows))
        table = np.array([js + [-1] * (w - len(js)) for js in rows], dtype=np.int64)
        table.flags.writeable = False
        return table

    @functools.cached_property
    def systems(self) -> np.ndarray:
        """Read-only (2M, n, w) stack of every [U | w_rep], then every W, by one gather: column t of matrix i is
        diag(m_ij) V_j for j = table[i, t] at destination i mod M; -1 padding reads ``Network.row``'s zero row."""
        r, table = self.realization, self.table
        transfer = r.at(np.arange(len(table))[:, None] % len(self.new_demands), table)
        stack = (transfer * self.V[table] % r.q).transpose(0, 2, 1)
        stack.flags.writeable = False
        return stack


def build_precoding(g: InterferenceGraph, forest: tuple[list[int], list[int], list[list[int]]], realization: NetworkRealization, seed: int) -> np.ndarray:
    """All precoding vectors, as the (K, n) array V, for one realized assignment.

    ``forest`` is decompose(g, mask): every node's BFS parent and tree-edge
    id, and the visit orders that the walk follows.  A link's row may vanish
    at some slot, walked up or down: only its nonzero entries are inverted,
    so a zero stays zero and zeroes the vectors below it at that slot, and
    verification judges whether every destination still decodes.
    """
    q = realization.q
    n = realization.slot_count
    k = g.n_sources
    rng = np.random.default_rng(seed)
    parent, up, orders = forest
    below = [v for order in orders for v in order[1:]]  # every link's lower node, in walk order
    links = [g.edge_list[up[v]] for v in below]  # (source, destination)
    factor = realization.at([i for _, i in links], [j for j, _ in links])
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


def verify_alignment(plan: PrecodingPlan) -> np.ndarray:
    """The (M,) mask of destinations that decode, by exact rank checks of the plan's decode sets.

    Destination i decodes when its system [U | w_rep] has full column rank
    and its interference columns W have rank at most B.  That implies every
    alignment condition: U's columns are independent, and W is empty or
    span(w_rep), so it meets span(U) only at 0.  One rank reduction of the
    plan's ``systems``, every [U | w_rep] then every W, decides them all.
    """
    m = len(plan.new_demands)
    ranks = gf.rank(plan.systems, plan.realization.q)
    return (ranks[:m] == (plan.table[:m] >= 0).sum(axis=1)) & (ranks[m:] <= B)


def plan_with_resampling(net: Network, sparsification: SparsificationResult, max_attempts: int = 20, seed: int = 0, q: int = DEFAULT_Q) -> PrecodingPlan:
    """Realize, precode, and verify with fresh randomness until every destination decodes.

    Destination i decodes its demands plus its extra-decode set and sees its
    other interferers in the sparsified graph as interference; the plan
    carries both sets.  The one acceptance rule: verify_alignment's mask is
    all True; any other attempt is retried.  The graph must be exact, as
    build_igraph returns it.  A demanded pair that no path joins raises
    AssumptionViolation before any draw.  Exhausting the ``max_attempts``
    (at least 1) raises ConstraintViolation with each attempt's failing
    destinations, each with its smallest interferer.  Random coefficients
    decode only with high probability, so at small q this can happen on a
    network that a larger q serves.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    dest, src = zip(*((i, j) for i, demand in enumerate(net.demands) for j in sorted(demand)))
    lost = [(i, j, 0, True, False) for i, j, p in zip(dest, src, net.row(dest, src).tolist()) if p == len(net.joined)]
    if lost:  # no path joins these demanded pairs, so no attempt can decode them
        raise AssumptionViolation(ValidationReport(tuple(lost)))
    n = net.demand_size + sparsification.d_star + 1
    g, extra = sparsification.graph, sparsification.extra_decode
    forest = decompose(g, bytearray(j in extra[i] for j, i in g.edge_list))
    new_demands = tuple(net.demands[i] | extra[i] for i in range(net.n_destinations))
    new_interference = tuple(frozenset(g.interferers(i)) - extra[i] for i in range(net.n_destinations))

    rng = np.random.default_rng(seed)
    attempt_failures = []
    for attempt in range(1, max_attempts + 1):
        r_seed = int(rng.integers(0, 2**63))
        p_seed = int(rng.integers(0, 2**63))
        realization = realize(net, n, r_seed, q)
        plan = PrecodingPlan(build_precoding(g, forest, realization, p_seed), realization, new_demands, new_interference, attempt)
        ok = verify_alignment(plan)
        if ok.all():
            return plan
        attempt_failures.append(tuple((i, min(new_interference[i], default=-1)) for i in np.flatnonzero(~ok).tolist()))
    raise ConstraintViolation(attempt_failures)
