"""Network model: DAG with groupcast demands, mincut checks, transfer evaluation.

A network is a directed acyclic multigraph with K ordered source nodes, M
ordered destination nodes, and per-destination demand sets of equal size L.
Random linear coding assigns one coefficient to every adjacent
(in-edge, out-edge) pair at each node plus one injection coefficient per
(source, out-edge) pair; a destination observes the sum of the symbols on its
in-edges.  Source-to-destination transfer functions are never materialized as
polynomials -- they are evaluated at concrete coefficient assignments by
forward propagation in topological order.

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
        cuts = report.mincut.tolist()
        pairs = ", ".join(f"(D{i + 1}, S{j + 1}) mincut={cuts[i][j]}" for i, j in report.violations)
        super().__init__(f"mincut assumptions violated for: {pairs}")


@dataclass(eq=False)
class Network:
    """Immutable groupcast network; validated on construction.

    demands holds 0-based source index sets, one per destination.
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

        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ParseError("duplicate node ids")
        for t, h in self.edges:
            if t not in known or h not in known:
                raise ParseError(f"edge ({t!r}, {h!r}) references an unknown node")
            if t == h:
                raise CycleError(f"self-loop at node {t!r}")
        for group, name in ((self.sources, "sources"), (self.destinations, "destinations")):
            if len(set(group)) != len(group):
                raise ParseError(f"duplicate entries in {name}")
            for node in group:
                if node not in known:
                    raise ParseError(f"{name} entry {node!r} is not a declared node")
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
        self._topo_order = self._topological_order()

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def n_destinations(self) -> int:
        return len(self.destinations)

    @property
    def demand_size(self) -> int:
        return len(self.demands[0])

    @property
    def topo_order(self) -> tuple[str, ...]:
        return self._topo_order

    def _topological_order(self) -> tuple[str, ...]:
        # Kahn's algorithm over the arc lists (node index = position, forward
        # arcs even); the heap hands out the ready node of smallest position,
        # so the order depends only on structure, not on node names.
        head, out = self.arcs.head, self.arcs.out
        indeg = [sum(a & 1 for a in arcs) for arcs in out]
        ready = [v for v, d in enumerate(indeg) if d == 0]  # ascending, so already a heap
        order: list[str] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(self.nodes[v])
            for a in out[v]:
                if not a & 1:
                    indeg[head[a]] -= 1
                    if indeg[head[a]] == 0:
                        heapq.heappush(ready, head[a])
        if len(order) != len(self.nodes):
            raise CycleError("directed graph has a cycle")
        return tuple(order)

    @cached_property
    def layout(self) -> "CodingLayout":
        return _build_layout(self)

    @cached_property
    def arcs(self) -> "ArcLists":
        return _build_arcs(self)

    @cached_property
    def demand_mask(self) -> np.ndarray:
        """(M, K) read-only bool array, True where destination i demands source j."""
        mask = np.zeros((self.n_destinations, self.n_sources), dtype=bool)
        for i, dem in enumerate(self.demands):
            mask[i, list(dem)] = True
        mask.flags.writeable = False
        return mask


def pairs_in(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The (destination, source) pairs set in an (M, K) mask, in row-major order."""
    return tuple(map(tuple, np.argwhere(mask).tolist()))


_FILE_KEYS = {"nodes", "edges", "sources", "destinations", "demands"}


@dataclass(frozen=True)
class ArcLists:
    """Residual-graph skeleton of a network, shared read-only by every mincut.

    Edge e is arc 2e (tail to head) and its reverse is arc 2e + 1, so an
    arc's partner is ``a ^ 1``.  head[a] is the node index arc a points to,
    and out[v] lists the arcs that start at node v: the forward arcs of its
    out-edges and the reverse arcs of its in-edges.
    """

    index: dict[str, int]
    head: tuple[int, ...]
    out: tuple[tuple[int, ...], ...]


def _build_arcs(net: Network) -> ArcLists:
    index = {v: k for k, v in enumerate(net.nodes)}
    head: list[int] = []
    out: list[list[int]] = [[] for _ in net.nodes]
    for tail, h in net.edges:
        a = len(head)
        head.extend((index[h], index[tail]))
        out[index[tail]].append(a)
        out[index[h]].append(a + 1)
    return ArcLists(index, tuple(head), tuple(tuple(arcs) for arcs in out))


def load_network(data: bytes | str) -> Network:
    """Parse and validate a network from its JSON file content."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"network file is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(data)
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
    edges_raw = obj["edges"]
    if not isinstance(edges_raw, list):
        raise ParseError("'edges' must be an array of [tail, head] pairs")
    edges = []
    for item in edges_raw:
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(x, str) for x in item)):
            raise ParseError(f"bad edge entry {item!r}; expected [tail, head] strings")
        edges.append((item[0], item[1]))
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
        demands.append(frozenset(idx - 1 for idx in entry))
    return Network(tuple(nodes), tuple(edges), tuple(sources), tuple(destinations), tuple(demands))


def load_network_file(path) -> Network:
    with open(path, "rb") as fh:
        return load_network(fh.read())


def mincut(net: Network, j: int, i: int) -> int:
    """Max-flow value from source j to destination i with unit edge capacities.

    Edmonds-Karp: breadth-first augmenting paths over the network's arc
    lists, so a call costs O(flow * (V + E)); parallel edges add capacity.
    Each call keeps its residual capacities to itself.  An unreachable
    destination (or co-located pair) yields 0.
    """
    s = net.sources[j]
    t = net.destinations[i]
    if s == t:
        return 0
    arcs = net.arcs
    head, out = arcs.head, arcs.out
    src, dst = arcs.index[s], arcs.index[t]
    residual = [1, 0] * len(net.edges)
    flow = 0
    while True:
        via = [-1] * len(out)  # arc that first reached each node
        via[src] = len(head)  # any non-negative mark: the source is reached
        queue = deque([src])
        while queue and via[dst] < 0:
            u = queue.popleft()
            for a in out[u]:
                v = head[a]
                if residual[a] and via[v] < 0:
                    via[v] = a
                    queue.append(v)
        if via[dst] < 0:
            return flow
        v = dst
        while v != src:
            a = via[v]
            residual[a] -= 1
            residual[a ^ 1] += 1
            v = head[a ^ 1]
        flow += 1


def _reached(arcs: ArcLists, src: int) -> list[bool]:
    """Which nodes a path of one or more edges leads to from node index src."""
    head, out = arcs.head, arcs.out
    seen = [False] * len(out)
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for a in out[u]:
            v = head[a]
            if not a & 1 and not seen[v]:
                seen[v] = True
                queue.append(v)
    return seen


@dataclass(eq=False)
class CodingLayout:
    """Index layout of the coding-coefficient vector for one network.

    Coefficient order follows edges in topological processing order: for each
    edge, first its source injection (if the tail is a source), then one
    coefficient per in-edge of the tail.  The ``pair_*`` arrays are already in
    a valid propagation order.
    """

    n_coeffs: int
    inj_edge: np.ndarray
    inj_col: np.ndarray
    inj_cidx: np.ndarray
    pair_in: np.ndarray
    pair_out: np.ndarray
    pair_cidx: np.ndarray
    dest_ptr: np.ndarray
    dest_edges: np.ndarray


def _build_layout(net: Network) -> CodingLayout:
    topo_pos = {v: k for k, v in enumerate(net.topo_order)}
    n_edges = len(net.edges)
    edge_order = sorted(range(n_edges), key=lambda e: (topo_pos[net.edges[e][0]], e))
    in_edges: dict[str, list[int]] = {v: [] for v in net.nodes}
    for e in edge_order:
        in_edges[net.edges[e][1]].append(e)
    source_of = {s: j for j, s in enumerate(net.sources)}

    inj_edge, inj_col, inj_cidx = [], [], []
    pair_in, pair_out, pair_cidx = [], [], []
    cidx = 0
    for e in edge_order:
        tail = net.edges[e][0]
        if tail in source_of:
            inj_edge.append(e)
            inj_col.append(source_of[tail])
            inj_cidx.append(cidx)
            cidx += 1
        for e_in in in_edges[tail]:
            pair_in.append(e_in)
            pair_out.append(e)
            pair_cidx.append(cidx)
            cidx += 1

    dest_ptr = [0]
    dest_edges: list[int] = []
    for d in net.destinations:
        dest_edges.extend(in_edges[d])
        dest_ptr.append(len(dest_edges))

    def as_arr(xs):
        return np.asarray(xs, dtype=np.int64)

    return CodingLayout(
        n_coeffs=cidx,
        inj_edge=as_arr(inj_edge),
        inj_col=as_arr(inj_col),
        inj_cidx=as_arr(inj_cidx),
        pair_in=as_arr(pair_in),
        pair_out=as_arr(pair_out),
        pair_cidx=as_arr(pair_cidx),
        dest_ptr=as_arr(dest_ptr),
        dest_edges=as_arr(dest_edges),
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


def propagate_inputs(net: Network, coeffs: np.ndarray, inputs: np.ndarray, q: int) -> np.ndarray:
    """Destination values (M, n_cols, n_slots) for what the sources inject, ``inputs`` (K, n_cols, n_slots)."""
    lay = net.layout
    return kernels.propagate(
        np.ascontiguousarray(coeffs, dtype=np.int64),
        lay.inj_edge, lay.inj_col, lay.inj_cidx,
        lay.pair_in, lay.pair_out, lay.pair_cidx,
        lay.dest_ptr, lay.dest_edges,
        len(net.edges), inputs.shape[1], q, inputs,
    )


def realize(net: Network, n: int, seed: int, q: int = DEFAULT_Q) -> NetworkRealization:
    """Draw all coding coefficients uniformly at random, independently per slot.

    The transfer values come from one propagation in which source j injects
    the unit vector e_j in every slot, so column j at a destination is the
    transfer value from source j.
    """
    check_modulus(q)
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(0, q, size=(n, net.layout.n_coeffs), dtype=np.int64)
    unit = np.broadcast_to(np.eye(net.n_sources, dtype=np.int64)[:, :, None], (net.n_sources, net.n_sources, n))
    return NetworkRealization(net, q, n, coeffs, propagate_inputs(net, coeffs, unit, q))


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Mincut of every (destination, source) pair, as (M, K) arrays.

    mincut[i, j] is the max-flow value from source j to destination i and
    demanded the network's demand mask.  A pair is ok with mincut exactly 1
    when demanded and at most 1 otherwise; violations lists the other pairs.
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

    One reachability pass per source finds the connected pairs; only those
    need a max-flow, every other pair has mincut 0.
    """
    arcs = net.arcs
    reached = np.array([_reached(arcs, arcs.index[s]) for s in net.sources], dtype=bool)  # (K, nodes)
    cuts = np.zeros((net.n_destinations, net.n_sources), dtype=np.int64)
    for i, j in pairs_in(reached[:, [arcs.index[t] for t in net.destinations]].T):
        cuts[i, j] = mincut(net, j, i)
    return ValidationReport(cuts, net.demand_mask)
