"""Bipartite interference graph: construction, cycle tests, forest decomposition.

The graph has one node per source (the X side) and one node W_i per
destination (the Y side); an edge (j, i) means source j interferes at
destination i, i.e. j is not demanded there but its transfer function is not
identically zero.  Nodes are addressed as ("x", j) / ("y", i) pairs with
0-based indices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .network import Network, NetworkRealization, pairs_in

NodeRef = tuple[str, int]  # ("x", source index) or ("y", destination index)
Tree = dict[NodeRef, NodeRef | None]  # {node: parent}, the root mapped to None


class CyclicGraph(Exception):
    """Forest decomposition was requested for a graph with cycles."""


@dataclass(frozen=True)
class InterferenceGraph:
    n_sources: int
    n_destinations: int
    edges: frozenset[tuple[int, int]]  # (source j, destination i)

    def interferers(self, i: int) -> tuple[int, ...]:
        """Sources with an edge at destination i, ascending."""
        return tuple(j for _, j in self.adjacency[("y", i)])

    def empty_destinations(self) -> tuple[int, ...]:
        """Destinations with no interferer.

        The alignment constraints there are vacuous, so reports list them as
        warnings, not as violations.
        """
        return tuple(i for i in range(self.n_destinations) if not self.interferers(i))

    def replace_edges(self, edges) -> "InterferenceGraph":
        return InterferenceGraph(self.n_sources, self.n_destinations, frozenset(edges))

    @cached_property
    def adjacency(self) -> dict[NodeRef, list[NodeRef]]:
        """Neighbours of every node, keyed sources first, in sorted edge order.

        Built once per graph; cached_property writes the instance __dict__,
        so it works on the frozen dataclass and stays out of eq/hash.
        """
        adj: dict[NodeRef, list[NodeRef]] = {}
        for j in range(self.n_sources):
            adj[("x", j)] = []
        for i in range(self.n_destinations):
            adj[("y", i)] = []
        for j, i in sorted(self.edges):
            adj[("x", j)].append(("y", i))
            adj[("y", i)].append(("x", j))
        return adj


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


def _bfs(g: InterferenceGraph, start: NodeRef, removed=frozenset()) -> Tree:
    """Breadth-first tree from ``start``, skipping the edges in ``removed``.

    Returns {node: parent} in visit order, the start mapped to None.
    """
    adj = g.adjacency
    parent: Tree = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in parent and not (removed and edge_between(u, v) in removed):
                parent[v] = u
                queue.append(v)
    return parent


def bridges(g: InterferenceGraph, removed=frozenset()) -> set[tuple[int, int]]:
    """Bridges of g with the edges in ``removed`` deleted (Tarjan 1974).

    An edge is a bridge iff deleting it splits its component.  One
    depth-first pass with low-links over the cached adjacency, O(V + E),
    kept iterative so that deep graphs do not hit the recursion limit.
    """
    adj = g.adjacency
    order: dict[NodeRef, int] = {}
    low: dict[NodeRef, int] = {}
    found: set[tuple[int, int]] = set()
    for root in adj:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            u, parent, nbrs = stack[-1]
            for v in nbrs:
                # the graph is simple, so the tree edge is the only way back to the parent
                if v == parent or (removed and edge_between(u, v) in removed):
                    continue
                if v not in order:
                    order[v] = low[v] = len(order)
                    stack.append((v, u, iter(adj[v])))
                    break
                if order[v] < low[u]:
                    low[u] = order[v]
            else:
                stack.pop()
                if parent is not None:
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] > order[parent]:
                        found.add(edge_between(parent, u))
    return found


def component_count(g: InterferenceGraph, removed=frozenset()) -> int:
    """Number of connected components of g with the edges in ``removed`` deleted."""
    seen: set[NodeRef] = set()
    count = 0
    for start in g.adjacency:
        if start not in seen:
            count += 1
            seen.update(_bfs(g, start, removed))
    return count


def connected_components(g: InterferenceGraph) -> list[list[NodeRef]]:
    """Components in ascending order of their smallest member, X side first.

    Scanning start nodes in adjacency order (sources, then destinations,
    each ascending) discovers them in exactly that order.
    """
    seen: set[NodeRef] = set()
    comps = []
    for start in g.adjacency:
        if start not in seen:
            comp = sorted(_bfs(g, start))
            seen.update(comp)
            comps.append(comp)
    return comps


def has_cycle(g: InterferenceGraph) -> bool:
    """True iff g is not a forest, i.e. has more than V - C edges."""
    return len(g.edges) > len(g.adjacency) - component_count(g)


def decompose(g: InterferenceGraph) -> tuple[Tree, ...]:
    """Split an acyclic interference graph into rooted BFS trees.

    One ``_bfs`` tree per component that holds a source, rooted at its
    smallest source, in ascending root order: a {node: parent} dict that
    lists every node after its parent, the root mapped to None.  Components
    without a source are single destination nodes and carry no tree.  Raises
    CyclicGraph when the graph has a cycle.
    """
    trees: list[Tree] = []
    seen: set[NodeRef] = set()
    for j in range(g.n_sources):
        if ("x", j) not in seen:
            trees.append(_bfs(g, ("x", j)))
            seen.update(trees[-1])
    # every edge lies in a tree's component, and each component is a tree iff it has one edge fewer than nodes
    if len(g.edges) > sum(len(tree) - 1 for tree in trees):
        raise CyclicGraph("interference graph has a cycle; sparsify first")
    return tuple(trees)


def shortest_cycle(g: InterferenceGraph) -> tuple[NodeRef, ...] | None:
    """Shortest cycle as an alternating node sequence, or None if acyclic.

    For every edge, BFS the shortest path between its endpoints in the graph
    without that edge; the best closure wins.  Rotated to start at the
    smallest source on the cycle for deterministic output.
    """
    best: list[NodeRef] | None = None
    for j, i in sorted(g.edges):
        a: NodeRef = ("x", j)
        b: NodeRef = ("y", i)
        prev = _bfs(g, a, removed={(j, i)})
        if b not in prev:
            continue
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        if best is None or len(path) < len(best):
            best = path[::-1]
    if best is None:
        return None
    starts = [k for k, (kind, _) in enumerate(best) if kind == "x"]
    k0 = min(starts, key=lambda k: best[k][1])
    return tuple(best[k0:] + best[:k0])


def to_dot(g: InterferenceGraph) -> str:
    """DOT text with the two bipartite ranks and the interference edge list."""
    lines = ["graph interference {", "  rankdir=LR;"]
    lines.append("  { rank=source; " + " ".join(f'"S{j + 1}";' for j in range(g.n_sources)) + " }")
    lines.append("  { rank=sink; " + " ".join(f'"W{i + 1}";' for i in range(g.n_destinations)) + " }")
    for j, i in sorted(g.edges, key=lambda e: (e[1], e[0])):
        lines.append(f'  "S{j + 1}" -- "W{i + 1}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
