"""Network model: DAG with groupcast demands, mincut checks, transfer evaluation.

A network is a directed acyclic multigraph with K ordered source nodes, M
ordered destination nodes, and per-destination demand sets of equal size L.
Random linear coding assigns one coefficient to every adjacent
(in-edge, out-edge) pair at each node plus one injection coefficient per
(source, out-edge) pair; a destination observes the sum of the symbols on its
in-edges.  Source-to-destination transfer functions are never materialized as
polynomials -- they are evaluated at concrete coefficient assignments by
forward propagation in topological order.

Every pass over the network walks one integer view that construction builds:
node k is ``nodes[k]``, edge e runs ``tail[e] -> head[e]``, and each node has
lists of its out-edge and in-edge ids.  Construction's one Kahn pass over the
topological order yields the rest, and no other pass walks that order: the
reach relation ``Network.reached``, which feeds the mincut passes, the coding
layout and the ``joined`` mask the probe is checked against; the coefficient
order ``edge_order``; and the node depths ``depth`` that set the schedules'
rounds.  ``_max_flow`` searches the residual graph through the same edge
lists, so no pass builds an adjacency of its own.

The network file format is UTF-8 JSON with exactly the keys "nodes", "edges"
(pairs [tail, head]), "sources", "destinations", and "demands" (arrays of
1-based source indices, one array per destination).
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .gf import DEFAULT_Q, check_modulus


class ParseError(ValueError):
    """Network file or network structure is malformed."""


class CycleError(ParseError):
    """The directed graph has a cycle (no topological order exists)."""


class DemandSizeError(ParseError):
    """Demand sets are empty or do not all have the same size."""


class AssumptionViolation(Exception):
    """Mincut assumptions do not hold; carries the validation report."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        pairs = ", ".join(f"(D{i + 1}, S{j + 1}) mincut={report.mincut[i, j]}" for i, j in report.violations)
        super().__init__(f"mincut assumptions violated for: {pairs}")


@dataclass(eq=False)
class Network:
    """Immutable groupcast network; validated on construction.

    demands holds 0-based source index sets, one per destination.  The same
    pass builds the integer view the network's passes walk, node k being
    ``nodes[k]``: edge e runs ``tail[e] -> head[e]``, ``out[v]`` and ``into[v]``
    list node v's out-edges and in-edges in ascending order, ``source_ids``
    and ``destination_ids`` are the terminals' nodes, ``destination_of[v]`` is
    node v's position in ``destinations`` or -1.  One Kahn pass, which takes
    the ready node of smallest position first, yields the rest and is the only
    walk of the topological order: ``reached[j]`` lists the nodes source j
    reaches (its own first), in that order; ``edge_order`` lists the edges by
    their tails' place in it, then by index; and ``depth[v]`` counts the edges
    on the longest path into node v.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    sources: tuple[str, ...]
    destinations: tuple[str, ...]
    demands: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        self.nodes = tuple(self.nodes)
        self.edges = tuple((t, h) for t, h in self.edges)
        self.sources = tuple(self.sources)
        self.destinations = tuple(self.destinations)
        self.demands = tuple(frozenset(d) for d in self.demands)

        position = {v: k for k, v in enumerate(self.nodes)}
        if len(position) != len(self.nodes):
            raise ParseError("duplicate node ids")
        out: list[list[int]] = [[] for _ in self.nodes]
        into: list[list[int]] = [[] for _ in self.nodes]
        for e, (t, h) in enumerate(self.edges):
            if t not in position or h not in position:
                raise ParseError(f"edge ({t!r}, {h!r}) references an unknown node")
            if t == h:
                raise CycleError(f"self-loop at node {t!r}")
            out[position[t]].append(e)
            into[position[h]].append(e)
        self.tail = tuple(position[t] for t, _ in self.edges)
        self.head = tuple(position[h] for _, h in self.edges)
        self.out = tuple(map(tuple, out))
        self.into = tuple(map(tuple, into))
        for group, name in ((self.sources, "sources"), (self.destinations, "destinations")):
            if len(set(group)) != len(group):
                raise ParseError(f"duplicate entries in {name}")
            for node in group:
                if node not in position:
                    raise ParseError(f"{name} entry {node!r} is not a declared node")
        self.source_ids = tuple(position[v] for v in self.sources)
        self.destination_ids = tuple(position[v] for v in self.destinations)
        destination_of = [-1] * len(self.nodes)
        for i, v in enumerate(self.destination_ids):
            destination_of[v] = i
        self.destination_of = tuple(destination_of)
        if len(self.demands) != len(self.destinations):
            raise ParseError("need exactly one demand set per destination")
        if not self.demands:
            raise ParseError("at least one destination is required")
        if not all(self.demands):
            raise DemandSizeError("each destination must demand at least one source")
        sizes = {len(d) for d in self.demands}
        if len(sizes) != 1:
            raise DemandSizeError(f"demand sets must share one size, got sizes {sorted(sizes)}")
        for dem in self.demands:
            for j in dem:
                if not 0 <= j < len(self.sources):
                    raise ParseError(f"demand source index {j} out of range")

        # Kahn's algorithm; the heap hands out the ready node of smallest position, so the
        # order depends only on structure, not on node names.  Bit j of mask[v] says that v
        # is s_j's node or s_j reaches it.
        head = self.head
        indeg = list(map(len, self.into))
        ready = [v for v, d in enumerate(indeg) if d == 0]  # ascending, so already a heap
        mask = [0] * len(self.nodes)
        for j, v in enumerate(self.source_ids):
            mask[v] = 1 << j
        reached: list[list[int]] = [[] for _ in self.sources]
        edge_order: list[int] = []
        depth = [0] * len(self.nodes)
        while ready:
            v = heapq.heappop(ready)
            bits, d = mask[v], depth[v] + 1
            edge_order += out[v]
            for e in out[v]:
                h = head[e]
                mask[h] |= bits
                if depth[h] < d:
                    depth[h] = d
                indeg[h] -= 1
                if indeg[h] == 0:
                    heapq.heappush(ready, h)
            while bits:
                low = bits & -bits
                reached[low.bit_length() - 1].append(v)
                bits ^= low
        if len(edge_order) != len(self.edges):  # a node on a cycle never gets ready, nor its out-edges
            raise CycleError("directed graph has a cycle")
        self.reached = tuple(map(tuple, reached))
        self.edge_order = tuple(edge_order)
        self.depth = tuple(depth)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_destinations(self) -> int:
        return len(self.destinations)

    @property
    def demand_size(self) -> int:
        return len(self.demands[0])

    @cached_property
    def layout(self) -> "CodingLayout":
        return _build_layout(self)

    @cached_property
    def demand_mask(self) -> np.ndarray:
        """(M, K) read-only bool array, True where destination i demands source j."""
        mask = np.zeros((self.n_destinations, self.n_sources), dtype=bool)
        mask[np.repeat(np.arange(self.n_destinations), self.demand_size), [j for d in self.demands for j in d]] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def joined(self) -> np.ndarray:
        """(M, K) read-only bool array, True where a path joins source j to destination i: ``mincut > 0``."""
        after = [nodes[1:] for nodes in self.reached]  # less s_j's own node, which no path of edges joins to itself
        mask = np.zeros((self.n_destinations + 1, self.n_sources), dtype=bool)  # row M takes the other nodes
        mask[np.asarray(self.destination_of)[[v for nodes in after for v in nodes]],
             np.repeat(np.arange(self.n_sources), list(map(len, after)))] = True
        mask.flags.writeable = False
        return mask[:-1]


def pairs_in(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The (destination, source) pairs set in an (M, K) mask, in row-major order."""
    return tuple(map(tuple, np.argwhere(mask).tolist()))


_FILE_KEYS = {"nodes", "edges", "sources", "destinations", "demands"}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key that appears twice is an error, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r} in network file")
        obj[key] = value
    return obj


def load_network(data: bytes | str) -> Network:
    """Parse and validate a network from its JSON file content."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"network file is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(data, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # the decoder recurses once per nesting level
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    unknown = set(obj) - _FILE_KEYS
    if unknown:
        raise ParseError(f"unknown keys in network file: {sorted(unknown)}")
    missing = _FILE_KEYS - set(obj)
    if missing:
        raise ParseError(f"missing keys in network file: {sorted(missing)}")

    def str_list(key: str) -> list[str]:
        val = obj[key]
        if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
            raise ParseError(f"{key!r} must be an array of strings")
        return val

    nodes = str_list("nodes")
    sources = str_list("sources")
    destinations = str_list("destinations")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise ParseError("'edges' must be an array of [tail, head] pairs")
    for item in edges:
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(x, str) for x in item)):
            raise ParseError(f"bad edge entry {item!r}; expected [tail, head] strings")
    demands_raw = obj["demands"]
    if not isinstance(demands_raw, list):
        raise ParseError("'demands' must be an array of arrays of 1-based source indices")
    demands = []
    for entry in demands_raw:
        if not (isinstance(entry, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in entry)):
            raise ParseError(f"bad demand entry {entry!r}; expected integers")
        if len(set(entry)) != len(entry):
            raise ParseError(f"demand entry {entry!r} repeats a source index")
        for idx in entry:
            if not 1 <= idx <= len(sources):
                raise ParseError(f"demand source index {idx} out of range 1..{len(sources)}")
        demands.append([idx - 1 for idx in entry])
    return Network(nodes, edges, sources, destinations, demands)  # Network normalizes the lists


def load_network_file(path) -> Network:
    with open(path, "rb") as fh:
        return load_network(fh.read())


def mincut(net: Network, j: int) -> np.ndarray:
    """Max-flow value from source j to every destination, as an (M,) int64 column.

    Edges have unit capacity, so parallel edges add capacity.  By Menger's
    theorem a reached destination has mincut 1 exactly when one edge lies on
    every path to it from the source: when an edge dominates it in the DAG with
    every edge subdivided.  One pass over ``net.reached[j]``, the nodes the
    source reaches in topological order, builds that dominator tree (Cooper,
    Harvey and Kennedy, "A Simple, Fast Dominance Algorithm", 2001).  A node
    with exactly one reached in-edge (a parallel edge counts as a second) is
    dominated by that edge.  Otherwise its immediate dominator is the lowest
    common ancestor of its in-edges' tails, and an edge dominates it exactly
    when one dominates that ancestor.  An unreached destination, or one at the
    source's own node, gets 0 and an edge-dominated one gets 1.  Only the rest,
    which have two edge-disjoint paths, run ``_max_flow``.
    """
    head, out, destination_of = net.head, net.out, net.destination_of
    src = net.source_ids[j]
    reached = net.reached[j]
    entered = dict.fromkeys(reached, 0)  # reached in-edges seen so far; stays 0 at the source
    idom = {}  # nearest dominating node: the LCA of the tails seen so far
    depth = {src: 0}  # in the dominator tree, rooted at the source
    edge_dom = {src: False}  # one edge lies on every path from the source
    cuts = np.zeros(net.n_destinations, dtype=np.int64)
    for u in reached:
        if u != src:
            # every tail of u comes earlier in the order, so idom[u] is final
            d = idom[u]
            depth[u] = depth[d] + 1
            edge_dom[u] = entered[u] == 1 or edge_dom[d]
            if destination_of[u] >= 0:
                cuts[destination_of[u]] = 1 if edge_dom[u] else _max_flow(net, src, u)
        for e in out[u]:
            v = head[e]
            if entered[v]:
                x, y = idom[v], u
                while x != y:  # a node no shallower than the other is not its ancestor
                    if depth[x] < depth[y]:
                        y = idom[y]
                    else:
                        x = idom[x]
                idom[v] = x
            else:
                idom[v] = u
            entered[v] += 1
    return cuts


def _max_flow(net: Network, src: int, dst: int) -> int:
    """Max-flow value from node index src to node index dst with unit edge capacities.

    Edmonds-Karp on the network's own edge lists: ``flow`` marks the edges
    that carry flow, and each breadth-first search crosses an ``out`` edge
    without flow forward and an ``into`` edge with flow backward.  It visits
    only what src reaches, so a call costs O(flow * (reached nodes + their
    edges)); parallel edges add capacity.
    """
    tail, head, out, into = net.tail, net.head, net.out, net.into
    flow = bytearray(len(net.edges))
    while True:
        via = {src: None}  # the edge that first entered each node, and the node it came from
        queue = deque([src])
        while queue and dst not in via:
            u = queue.popleft()
            for ends, edges, full in ((head, out[u], 0), (tail, into[u], 1)):
                for e in edges:
                    if flow[e] == full and ends[e] not in via:
                        via[ends[e]] = e, u
                        queue.append(ends[e])
        if dst not in via:
            return sum(flow[e] for e in out[src])  # no path enters src, so all flow leaves it
        v = dst
        while v != src:
            e, v = via[v]
            flow[e] ^= 1


@dataclass(eq=False)
class Schedule:
    """Index arrays of one ``kernels.propagate`` schedule over ``n_values`` propagated values.

    ``inj_edge[t]`` starts as source ``inj_col[t]``'s input times coefficient
    ``inj_cidx[t]``.  Pair p adds value ``pair_in[p]`` times coefficient
    ``pair_cidx[p]`` into value ``pair_out[p]``; the pairs are sorted by round,
    then by out-value, and round r is ``round_ptr[r]:round_ptr[r + 1]``.  A
    pair's round is one less than the number of edges on the longest path
    into its out-edge's tail, so every pair into a value runs in one round,
    after the rounds that write its in-value.  Target d sums the values
    ``dest_edges[dest_ptr[d]:dest_ptr[d + 1]]``.
    """

    n_values: int
    inj_edge: np.ndarray
    inj_col: np.ndarray
    inj_cidx: np.ndarray
    pair_in: np.ndarray
    pair_out: np.ndarray
    pair_cidx: np.ndarray
    round_ptr: np.ndarray
    dest_ptr: np.ndarray
    dest_edges: np.ndarray

    def propagate(self, coeffs: np.ndarray, inputs: np.ndarray, q: int) -> np.ndarray:
        """Target values (n_targets, n_cols, n_slots) for source inputs (K, n_cols, n_slots)."""
        return kernels.propagate(
            coeffs,
            self.inj_edge, self.inj_col, self.inj_cidx,
            self.pair_in, self.pair_out, self.pair_cidx,
            self.dest_ptr, self.dest_edges,
            self.n_values, inputs.shape[1], q, inputs,
            self.round_ptr,
        )


@dataclass(eq=False)
class CodingLayout(Schedule):
    """Coefficient layout of one network, with its two propagation schedules.

    Coefficient order is the network's ``edge_order``, the edges by their
    tails' topological order, then by index: for each edge, first its source
    injection (if the tail is a source), then one coefficient per in-edge of
    the tail, in that same edge order.  Rounds come from the network's
    ``depth``, so the builder walks no order of its own.  The layout itself
    is the per-edge schedule: one value per edge, one target per destination.
    ``reach`` is the schedule over (edge, source) entries, one for each
    source that is the edge's tail or reaches an in-edge of its tail.  Each
    coding pair there becomes one pair per source reaching its in-edge, with
    the same coefficient, and target i * K + j sums the entries of source j
    on destination i's in-edges.  So ``reach`` with unit inputs yields every
    transfer value while carrying only entries that can be nonzero.
    """

    n_coeffs: int
    reach: Schedule


def _build_layout(net: Network) -> CodingLayout:
    n_nodes, k_sources = len(net.nodes), net.n_sources
    source_node, order, depth = _int64(net.source_ids), _int64(net.edge_order), _int64(net.depth)
    tail, head = _int64(net.tail), _int64(net.head)
    into = order[np.argsort(head[order], kind="stable")]  # in-edges grouped by head, in that order
    indeg = np.bincount(head, minlength=n_nodes)
    in_ptr = np.cumsum(indeg) - indeg
    source_at = np.full(n_nodes, -1, dtype=np.int64)
    source_at[source_node] = np.arange(k_sources)

    # Coefficients, edge by edge in that order: the injection when the tail is a source, then
    # one per in-edge of the tail.  A pair runs in the round one less than its out-edge's
    # tail's depth, after every round that writes its in-edge.
    tails = tail[order]
    injects = source_at[tails] >= 0
    fan_in = indeg[tails]
    width = injects + fan_in  # coefficients per edge
    first = np.cumsum(width) - width
    inj_edge, inj_col, inj_cidx = order[injects], source_at[tails[injects]], first[injects]
    pair_in = into[_runs(in_ptr[tails], fan_in)]
    pair_out = np.repeat(order, fan_in)
    pair_cidx = _runs(first + injects, fan_in)
    rounds = depth[tail[pair_out]] - 1
    dest_node = _int64(net.destination_ids)
    dest_edges = into[_runs(in_ptr[dest_node], indeg[dest_node])]
    dest_ptr = np.concatenate(([0], np.cumsum(indeg[dest_node])))
    edge_schedule = _schedule(len(tail), inj_edge, inj_col, inj_cidx, pair_in, pair_out, pair_cidx, rounds,
                              dest_ptr, dest_edges)

    # (node, source) keys node * K + j, one per node in reached[j], ascending; an edge's entries
    # are its tail's keys, and entries are numbered edge by edge in coefficient order
    reach_len = list(map(len, net.reached))
    keys = np.sort(np.concatenate(net.reached) * k_sources + np.repeat(np.arange(k_sources), reach_len))
    node_size = np.bincount(keys // k_sources, minlength=n_nodes)
    node_ptr = np.cumsum(node_size) - node_size
    size = node_size[tail]
    base = np.zeros(len(tail), dtype=np.int64)
    base[order] = np.cumsum(node_size[tails]) - node_size[tails]
    entry_src = keys[_runs(node_ptr[tails], node_size[tails])] % k_sources

    def entry(e, j):
        return base[e] + np.searchsorted(keys, tail[e] * k_sources + j) - node_ptr[tail[e]]

    # one pair per source reaching the in-edge; target i * K + j sums entry (e, j) over in-edges e of i
    fan = size[pair_in]
    reach_pair_in = _runs(base[pair_in], fan)
    reach_pair_out = np.repeat(pair_out, fan)
    slot_size = size[dest_edges]
    slot_entries = _runs(base[dest_edges], slot_size)
    targets = np.repeat(np.repeat(np.arange(net.n_destinations), indeg[dest_node]), slot_size) * k_sources
    targets += entry_src[slot_entries]
    counts = np.bincount(targets, minlength=net.n_destinations * k_sources)
    reach_schedule = _schedule(
        len(entry_src), entry(inj_edge, inj_col), inj_col, inj_cidx,
        reach_pair_in, entry(reach_pair_out, entry_src[reach_pair_in]), np.repeat(pair_cidx, fan),
        np.repeat(rounds, fan),
        np.concatenate(([0], np.cumsum(counts))), slot_entries[np.argsort(targets, kind="stable")],
    )
    return CodingLayout(**vars(edge_schedule), n_coeffs=int(width.sum()), reach=reach_schedule)


def _int64(xs) -> np.ndarray:
    return np.asarray(xs, dtype=np.int64)


def _runs(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The runs ``starts[t] .. starts[t] + sizes[t] - 1``, concatenated."""
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def _schedule(n_values, inj_edge, inj_col, inj_cidx, pair_in, pair_out, pair_cidx, rounds, dest_ptr,
              dest_edges) -> Schedule:
    """A ``Schedule`` with its pairs sorted by round, then by out-value."""
    order = np.lexsort((pair_out, rounds))
    rounds = rounds[order]
    return Schedule(
        n_values=n_values,
        inj_edge=inj_edge,
        inj_col=inj_col,
        inj_cidx=inj_cidx,
        pair_in=pair_in[order],
        pair_out=pair_out[order],
        pair_cidx=pair_cidx[order],
        round_ptr=np.append(np.flatnonzero(np.diff(rounds, prepend=-1)), len(rounds)),
        dest_ptr=dest_ptr,
        dest_edges=dest_edges,
    )


@dataclass(eq=False)
class NetworkRealization:
    """One concrete assignment of all coding coefficients per slot.

    transfer[i, j, k] is the transfer value from source j to destination i
    under the slot-k assignment.  Fully reproducible from (network, q, seed).
    """

    network: Network
    q: int
    slot_count: int
    coding_assignments: np.ndarray  # (slot_count, n_coeffs)
    transfer: np.ndarray  # (M, K, slot_count)


def realize(net: Network, n: int, seed: int, q: int = DEFAULT_Q) -> NetworkRealization:
    """Draw all coding coefficients uniformly at random, independently per slot.

    The transfer values come from one propagation over the layout's
    (edge, source) schedule with unit inputs: entry (e, j) carries the
    transfer value from source j to edge e, and target (i, j) sums it over
    destination i's in-edges.  Entries exist only where source j reaches the
    edge, so every other transfer value is 0 without being carried.
    """
    check_modulus(q)
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, q, size=(n, net.layout.n_coeffs), dtype=np.int64)
    units = np.ones((net.n_sources, 1, n), dtype=np.int64)
    transfer = net.layout.reach.propagate(coeffs, units, q).reshape(net.n_destinations, net.n_sources, n)
    return NetworkRealization(net, q, n, coeffs, transfer)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Mincut of every (destination, source) pair, as (M, K) arrays.

    mincut[i, j] is the max-flow value from source j to destination i, which
    by Menger's theorem is the fewest edges whose removal cuts every path
    between them; column j is ``mincut(net, j)``.  demanded is the network's
    demand mask.  A pair is ok with mincut exactly 1 when demanded and at
    most 1 otherwise; violations lists the other pairs.  A report's mincut
    table lists only the pairs with mincut > 0 or demanded: no path joins
    any other pair (or its source is its destination), so it has mincut 0
    and is ok.
    """

    mincut: np.ndarray  # (M, K) int64
    demanded: np.ndarray  # (M, K) bool

    @cached_property
    def pair_ok(self) -> np.ndarray:
        return np.where(self.demanded, self.mincut == 1, self.mincut <= 1)

    @property
    def ok(self) -> bool:
        return bool(self.pair_ok.all())

    @property
    def violations(self) -> tuple[tuple[int, int], ...]:
        return pairs_in(~self.pair_ok)

    def require_ok(self) -> None:
        if not self.ok:
            raise AssumptionViolation(self)


def validate_assumptions(net: Network) -> ValidationReport:
    """Check the unit-mincut regime for every (destination, source) pair.

    One ``mincut`` call per source gives that source's column: its dominator
    pass settles every pair with mincut 0 or 1, and only pairs joined by two
    edge-disjoint paths run a max-flow.
    """
    cuts = np.stack([mincut(net, j) for j in range(net.n_sources)], axis=1)
    return ValidationReport(cuts, net.demand_mask)
