"""Bipartite interference graph: construction, cycle tests, forest decomposition.

The graph has one node per source (the X side) and one node W_i per
destination (the Y side); an edge (j, i) means source j interferes at
destination i, i.e. j is not demanded there but its transfer function is not
identically zero.  Results leave this module with nodes addressed as
("x", j) / ("y", i) pairs with 0-based indices.

Underneath, every traversal runs on one cached integer index
(``InterferenceGraph.index``): source j is node j, destination i is node
K + i, edge ids follow sorted edge order, and a set of deleted edges is a
``bytearray`` mask over edge ids.  There is one traversal per question: one
component pass (``_components``) serves ``connected_components``,
``has_cycle`` and ``decompose``; ``_tarjan`` is the one bridge pass, read
through ``bridge_forest``; and ``shortest_cycle`` runs its own
depth-bounded searches.  find_dstar's greedy scan keeps its own spanning
forest on the same index (see ``sparsify``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .network import Network, NetworkRealization, pairs_in

NodeRef = tuple[str, int]  # ("x", source index) or ("y", destination index)
Tree = dict[NodeRef, NodeRef | None]  # {node: parent}, the root mapped to None
Edge = tuple[int, int]  # (source j, destination i)


class CyclicGraph(Exception):
    """Forest decomposition was requested for a graph with cycles."""


class GraphIndex(NamedTuple):
    """Integer view of an interference graph.

    ``nodes[v]`` is node v's NodeRef: sources 0..K-1, then destination i at
    K + i.  ``edges[k]`` is edge k, in sorted order, so ascending edge ids are
    ascending (source, destination) pairs; ``ids`` inverts it.
    ``incidence[v]`` lists v's (neighbour, edge id) pairs by ascending edge id.
    """

    nodes: tuple[NodeRef, ...]
    edges: tuple[Edge, ...]
    ids: dict[Edge, int]
    incidence: tuple[list[tuple[int, int]], ...]


@dataclass(frozen=True)
class InterferenceGraph:
    n_sources: int
    n_destinations: int
    edges: frozenset[Edge]

    def interferers(self, i: int) -> tuple[int, ...]:
        """Sources with an edge at destination i, ascending."""
        return tuple(j for j, _ in self.index.incidence[self.n_sources + i])

    def empty_destinations(self) -> tuple[int, ...]:
        """Destinations with no interferer.

        The alignment constraints there are vacuous, so reports list them as
        warnings, not as violations.
        """
        return tuple(i for i in range(self.n_destinations) if not self.interferers(i))

    def replace_edges(self, edges) -> "InterferenceGraph":
        return InterferenceGraph(self.n_sources, self.n_destinations, frozenset(edges))

    @cached_property
    def index(self) -> GraphIndex:
        """The integer index every traversal runs on, built once per graph.

        cached_property writes the instance __dict__, so it works on the
        frozen dataclass and stays out of eq/hash.
        """
        k = self.n_sources
        nodes = tuple([("x", j) for j in range(k)] + [("y", i) for i in range(self.n_destinations)])
        edges = tuple(sorted(self.edges))
        incidence: tuple[list[tuple[int, int]], ...] = tuple([] for _ in nodes)
        for e, (j, i) in enumerate(edges):
            incidence[j].append((k + i, e))
            incidence[k + i].append((j, e))
        return GraphIndex(nodes, edges, {edge: e for e, edge in enumerate(edges)}, incidence)


def build_igraph(net: Network, realization: NetworkRealization) -> InterferenceGraph:
    """Assemble the interference graph from a realization's transfer values.

    An all-zero transfer row across the realization's slots is taken as
    evidence that the pair's transfer function is identically zero (one-sided
    Monte Carlo, error probability at most (deg/q)**slots).  Destinations
    left without an interferer are listed by ``empty_destinations``.
    """
    live = realization.transfer.any(axis=2) & ~net.demand_mask  # (M, K)
    return InterferenceGraph(net.n_sources, net.n_destinations, frozenset((j, i) for i, j in pairs_in(live)))


def edge_between(u: NodeRef, v: NodeRef) -> tuple[int, int]:
    """The (source j, destination i) edge joining two adjacent nodes."""
    return (u[1], v[1]) if u[0] == "x" else (v[1], u[1])


def _tarjan(g: InterferenceGraph, mask: bytearray) -> tuple[bytearray, list[int], list[int]]:
    """One low-link pass (Tarjan 1974) over the edges not in ``mask``.

    Returns the bridge flags by edge id, the nodes in depth-first preorder
    and each node's tree edge (-1 at a root).  An edge is a bridge iff
    deleting it splits its component.  O(V + E), kept iterative so that deep
    graphs do not hit the recursion limit.
    """
    incidence = g.index.incidence
    disc = [-1] * len(incidence)
    low = [0] * len(incidence)
    up = [-1] * len(incidence)
    is_bridge = bytearray(len(mask))
    preorder: list[int] = []
    for root in range(len(incidence)):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = len(preorder)
        preorder.append(root)
        stack = [(root, iter(incidence[root]))]
        while stack:
            u, nbrs = stack[-1]
            for v, e in nbrs:
                # the graph is simple, so the tree edge is the only way back to the parent
                if mask[e] or e == up[u]:
                    continue
                if disc[v] < 0:
                    up[v] = e
                    disc[v] = low[v] = len(preorder)
                    preorder.append(v)
                    stack.append((v, iter(incidence[v])))
                    break
                if disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] > disc[p]:
                        is_bridge[up[u]] = 1
    return is_bridge, preorder, up


class BridgeForest(NamedTuple):
    """The bridges of H = g minus a masked edge set, and the forest they span.

    Contracting each 2-edge-connected class of H to a point turns H's bridges
    into a forest: class c hangs from class ``parent[c]`` by bridge
    ``up_edge[c]`` at ``depth[c]`` (roots: -1, -1, 0).  ``cls[v]`` is node
    v's class and ``is_bridge`` flags H's bridges by edge id.
    """

    is_bridge: bytearray
    cls: list[int]
    parent: list[int]
    up_edge: list[int]
    depth: list[int]

    def path(self, u: int, v: int) -> list[int]:
        """Ids of the bridges on the forest path between nodes u and v, ascending.

        u and v must lie in one component of H.  Adding an edge (u, v) to H
        makes exactly these bridges non-bridges (Westbrook and Tarjan,
        Algorithmica 1992).
        """
        a, b = self.cls[u], self.cls[v]
        found = []
        while a != b:
            if self.depth[a] < self.depth[b]:
                a, b = b, a
            found.append(self.up_edge[a])
            a = self.parent[a]
        found.sort()
        return found


def bridge_forest(g: InterferenceGraph, mask: bytearray) -> BridgeForest:
    """The bridge forest of g minus the edges in ``mask``, from one ``_tarjan`` pass.

    The bridges are tree edges of the depth-first forest, and cutting them
    leaves one subtree per 2-edge-connected class, entered at its first node
    in preorder; so one preorder sweep labels the classes and links them.
    """
    is_bridge, preorder, up = _tarjan(g, mask)
    edges, k = g.index.edges, g.n_sources
    cls = [0] * len(up)
    parent: list[int] = []
    up_edge: list[int] = []
    depth: list[int] = []
    for v in preorder:
        e = up[v]
        if e >= 0:
            j, i = edges[e]
            above = cls[k + i if v < k else j]
            if not is_bridge[e]:
                cls[v] = above
                continue
            parent.append(above)
            depth.append(depth[above] + 1)
        else:
            parent.append(-1)
            depth.append(0)
        up_edge.append(e)
        cls[v] = len(up_edge) - 1
    return BridgeForest(is_bridge, cls, parent, up_edge, depth)


def _components(g: InterferenceGraph) -> tuple[list[int], list[list[int]]]:
    """One breadth-first visit per component of g.

    Start ids are scanned in order, so each component is visited from its
    smallest node id, and the components come in ascending order of it.
    Returns every node's BFS parent (a start is its own parent) and each
    component's nodes in visit order.
    """
    incidence = g.index.incidence
    parent = [-1] * len(incidence)
    orders = []
    for start in range(len(incidence)):
        if parent[start] >= 0:
            continue
        parent[start] = start
        order = [start]
        for u in order:  # the visit order doubles as the queue
            for v, _ in incidence[u]:
                if parent[v] < 0:
                    parent[v] = u
                    order.append(v)
        orders.append(order)
    return parent, orders


def connected_components(g: InterferenceGraph) -> list[list[NodeRef]]:
    """Components in ascending order of their smallest member, X side first."""
    nodes = g.index.nodes
    return [[nodes[v] for v in sorted(order)] for order in _components(g)[1]]


def has_cycle(g: InterferenceGraph) -> bool:
    """True iff g is not a forest, i.e. has more than V - C edges."""
    return len(g.edges) > len(g.index.nodes) - len(_components(g)[1])


def decompose(g: InterferenceGraph) -> tuple[Tree, ...]:
    """Split an acyclic interference graph into rooted BFS trees.

    One tree per component that holds a source, rooted at its smallest
    source, in ascending root order: a {node: parent} dict that lists every
    node after its parent, the root mapped to None.  Components without a
    source are single destination nodes and carry no tree.  Raises
    CyclicGraph when the graph has a cycle.
    """
    nodes = g.index.nodes
    parent, orders = _components(g)
    if len(g.edges) > len(nodes) - len(orders):
        raise CyclicGraph("interference graph has a cycle; sparsify first")
    # sources have the smallest ids, so a component holding one starts at its smallest
    return tuple({nodes[v]: None if parent[v] == v else nodes[parent[v]] for v in order}
                 for order in orders if order[0] < g.n_sources)


def shortest_cycle(g: InterferenceGraph) -> tuple[NodeRef, ...] | None:
    """Shortest cycle as an alternating node sequence, or None if acyclic.

    For every edge in sorted order, BFS the shortest path between its
    endpoints in the graph without that edge; the first strictly shortest
    closure wins.  Each BFS stops when it discovers the far endpoint, and
    gives up at the depth where it could no longer beat the best closure so
    far (the far endpoint lies at odd depth, the graph being bipartite).
    Rotated to start at the smallest source on the cycle for deterministic
    output.
    """
    index = g.index
    incidence = index.incidence
    best: list[int] | None = None
    for skip, (j, i) in enumerate(index.edges):
        a, b = j, g.n_sources + i
        # a closure beats best iff its path a..b has fewer nodes, i.e. b at depth <= len(best) - 3
        limit = len(incidence) if best is None else len(best) - 3
        parent = [-1] * len(incidence)
        parent[a] = a
        frontier = [a]
        depth = 0
        while frontier and depth < limit and parent[b] < 0:
            depth += 1
            reached = []
            for u in frontier:
                for v, e in incidence[u]:
                    if parent[v] < 0 and e != skip:
                        parent[v] = u
                        if v == b:
                            break
                        reached.append(v)
                if parent[b] >= 0:
                    break
            frontier = reached
        if parent[b] < 0:
            continue
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        best = path[::-1]
    if best is None:
        return None
    k0 = min((k for k, v in enumerate(best) if v < g.n_sources), key=best.__getitem__)
    return tuple(index.nodes[v] for v in best[k0:] + best[:k0])


def to_dot(g: InterferenceGraph) -> str:
    """DOT text with the two bipartite ranks and the interference edge list."""
    lines = ["graph interference {", "  rankdir=LR;"]
    lines.append("  { rank=source; " + " ".join(f'"S{j + 1}";' for j in range(g.n_sources)) + " }")
    lines.append("  { rank=sink; " + " ".join(f'"W{i + 1}";' for i in range(g.n_destinations)) + " }")
    for j, i in sorted(g.edges, key=lambda e: (e[1], e[0])):
        lines.append(f'  "S{j + 1}" -- "W{i + 1}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
