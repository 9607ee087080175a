"""Bipartite interference graph: construction, cycle tests, forest decomposition.

The graph has one node per source (the X side) and one node W_i per
destination (the Y side); an edge (j, i) means source j interferes at
destination i, i.e. j is not demanded there but its transfer function is not
identically zero.  Traversal results are node ids of the view below:
``connected_components`` gives sorted id lists, ``decompose`` the BFS
forest as id arrays and ``shortest_cycle`` a tuple of ids.

Underneath, every traversal walks one integer view that the graph builds at
construction (``edge_list`` and ``incidence``): source j is node j,
destination i is node K + i, edge ids follow sorted edge order, and a set of
deleted edges is a ``bytearray`` mask over edge ids.  A run builds one graph:
find_dstar works in its edge ids, and precoding masks its extra-decoded edges.
One breadth-first component pass (``components``) serves
``connected_components``, ``has_cycle`` and ``decompose``, and, with every
edge outside a forest masked, gives find_dstar's augmentation that forest's
tree paths (see ``sparsify``); ``shortest_cycle`` runs its own depth-bounded
searches, and find_dstar's scans union-find on the same view.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import Network, NetworkRealization

Edge = tuple[int, int]  # (source j, destination i)


class CyclicGraph(Exception):
    """Forest decomposition was requested for a graph with cycles."""


class MissedInterference(Exception):
    """The zero-function probe gave an all-zero transfer row at (destination, source) ``pairs`` a path joins."""

    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        what = ", ".join(f"(D{i + 1}, S{j + 1})" for i, j in self.pairs)
        super().__init__(f"the interference graph misses {what}: a path joins each, yet every probe evaluation was 0")


@dataclass(eq=False)
class InterferenceGraph:
    """Bipartite interference graph; the same pass builds the integer view every traversal walks.

    ``edges`` may be any iterable of edges and is normalized to a frozenset;
    the graph is not mutated afterwards, or the view would go stale.  Node v
    is source v for v < K and destination v - K otherwise.  ``edge_list[x]``
    is edge x, in sorted order, so ascending edge ids are ascending (source,
    destination) pairs.  ``incidence[v]`` lists v's (neighbour, edge id)
    pairs by ascending edge id.
    """

    n_sources: int
    n_destinations: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        self.edges = frozenset(self.edges)
        k = self.n_sources
        self.edge_list = tuple(sorted(self.edges))
        self.incidence = tuple([] for _ in range(k + self.n_destinations))
        for x, (j, i) in enumerate(self.edge_list):
            self.incidence[j].append((k + i, x))
            self.incidence[k + i].append((j, x))

    def interferers(self, i: int) -> tuple[int, ...]:
        """Sources with an edge at destination i, ascending."""
        return tuple(j for j, _ in self.incidence[self.n_sources + i])


def build_igraph(net: Network, realization: NetworkRealization) -> InterferenceGraph:
    """Assemble the interference graph, the non-demanded pairs a path joins, checked against a realization.

    No pair outside ``Network.joined`` has a transfer that is not identically
    zero, so the edges are ``Network.interference``.  A joined pair's transfer
    row can still vanish at every slot, with probability at most
    (deg/q)**slots: MissedInterference then names every such pair, so a
    returned graph is exact.
    """
    i, j = net.interference
    live = realization.at(i, j).any(axis=1)
    if not live.all():
        raise MissedInterference(zip(i[~live].tolist(), j[~live].tolist()))
    return InterferenceGraph(net.n_sources, net.n_destinations, zip(j.tolist(), i.tolist()))


def components(g: InterferenceGraph, mask: bytes | None = None) -> tuple[list[int], list[int], list[list[int]]]:
    """One breadth-first visit per component of g minus the edges in ``mask``.

    Start ids are scanned in order, so each component is visited from its
    smallest node id, and the components come in ascending order of it.
    Returns every node's BFS parent (a start is its own parent), its tree
    edge id (-1 at a start) and each component's nodes in visit order, in
    which an ancestor always comes before its descendants.  When the mask
    leaves a forest, its trees are the BFS trees, so find_dstar's
    augmentation walks the forest's paths up these arrays.
    """
    incidence = g.incidence
    if mask is None:
        mask = bytes(len(g.edge_list))
    parent = [-1] * len(incidence)
    up = [-1] * len(incidence)
    orders = []
    for start in range(len(incidence)):
        if parent[start] >= 0:
            continue
        parent[start] = start
        order = [start]
        for u in order:  # the visit order doubles as the queue
            for v, e in incidence[u]:
                if parent[v] < 0 and not mask[e]:
                    parent[v] = u
                    up[v] = e
                    order.append(v)
        orders.append(order)
    return parent, up, orders


def connected_components(g: InterferenceGraph) -> list[list[int]]:
    """Components as sorted node id lists, in ascending order of their smallest id."""
    return [sorted(order) for order in components(g)[2]]


def has_cycle(g: InterferenceGraph) -> bool:
    """True iff g is not a forest, i.e. has more than V - C edges."""
    return len(g.edges) > len(g.incidence) - len(components(g)[2])


def decompose(g: InterferenceGraph, mask: bytes) -> tuple[list[int], list[int], list[list[int]]]:
    """Split g minus the edges in ``mask``, which must leave no cycle, into rooted BFS trees.

    Returns ``components``' arrays, every node's BFS parent and tree-edge
    id, with the visit orders of the components that hold a source only:
    each is rooted at its smallest source, in ascending root order, and
    lists every node after its parent.  Components without a source are
    single destination nodes and carry no tree.  Raises CyclicGraph when the
    unmasked edges hold a cycle.
    """
    parent, up, orders = components(g, mask)
    if len(g.edge_list) - sum(mask) > len(parent) - len(orders):
        raise CyclicGraph("interference graph has a cycle; sparsify first")
    # sources have the smallest ids, so a component holding one starts at its smallest
    return parent, up, [order for order in orders if order[0] < g.n_sources]


def shortest_cycle(g: InterferenceGraph) -> tuple[int, ...] | None:
    """Shortest cycle as an alternating sequence of node ids, or None if acyclic.

    For every edge in sorted order, BFS the shortest path between its
    endpoints in the graph without that edge; the first strictly shortest
    closure wins.  Each BFS stops when it discovers the far endpoint, and
    gives up at the depth where it could no longer beat the best closure so
    far (the far endpoint lies at odd depth, the graph being bipartite).
    Rotated to start at its smallest id, which is its smallest source, for
    deterministic output.  The searches share one ``parent`` list, and each
    resets only the nodes it reached, so it costs only what it visits.
    """
    incidence = g.incidence
    best: list[int] | None = None
    parent = [-1] * len(incidence)
    for skip, (j, i) in enumerate(g.edge_list):
        a, b = j, g.n_sources + i
        # a closure beats best iff its path a..b has fewer nodes, i.e. b at depth <= len(best) - 3
        limit = len(incidence) if best is None else len(best) - 3
        parent[a] = a
        seen, frontier = [a], [a]
        depth = 0
        while frontier and depth < limit and parent[b] < 0:
            depth += 1
            reached = []
            for u in frontier:
                for v, e in incidence[u]:
                    if parent[v] < 0 and e != skip:
                        parent[v] = u
                        reached.append(v)
                        if v == b:
                            break
                if parent[b] >= 0:
                    break
            seen += reached
            frontier = reached
        if parent[b] >= 0:
            path = [b]
            while path[-1] != a:
                path.append(parent[path[-1]])
            best = path[::-1]
        for v in seen:
            parent[v] = -1
    if best is None:
        return None
    k0 = best.index(min(best))
    return tuple(best[k0:] + best[:k0])

