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

from .network import Network, NetworkRealization

NodeRef = tuple[str, int]  # ("x", source index) or ("y", destination index)


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
    live = realization.transfer.any(axis=2)  # (M, K)
    for i, demanded in enumerate(net.demands):
        live[i, sorted(demanded)] = False
    dests, srcs = live.nonzero()
    edges = frozenset(zip(srcs.tolist(), dests.tolist()))
    return InterferenceGraph(net.n_sources, net.n_destinations, edges)


def _edge(u: NodeRef, v: NodeRef) -> tuple[int, int]:
    """The (source j, destination i) edge joining two adjacent nodes."""
    return (u[1], v[1]) if u[0] == "x" else (v[1], u[1])


def _bfs(g: InterferenceGraph, start: NodeRef, removed=frozenset()) -> dict[NodeRef, NodeRef | None]:
    """Breadth-first tree from ``start``, skipping the edges in ``removed``.

    Returns {node: parent} in visit order, the start mapped to None.
    """
    adj = g.adjacency
    parent: dict[NodeRef, NodeRef | None] = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in parent and not (removed and _edge(u, v) in removed):
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
                if v == parent or (removed and _edge(u, v) in removed):
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
                        found.add(_edge(parent, u))
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


@dataclass(eq=False)
class TreeComponent:
    """One tree of the forest, with BFS levels from the chosen root source."""

    x_nodes: tuple[int, ...]
    y_nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    root: int  # source index
    levels: tuple[tuple[NodeRef, ...], ...]
    parent: dict  # NodeRef -> NodeRef, root excluded
    depth: dict  # NodeRef -> int


@dataclass(eq=False)
class ForestDecomposition:
    """Trees (each containing at least one source) plus isolated Y nodes."""

    components: tuple[TreeComponent, ...]
    isolated_y: tuple[int, ...]


def decompose(g: InterferenceGraph, roots: dict[int, int] | None = None) -> ForestDecomposition:
    """Split an acyclic interference graph into rooted BFS trees.

    The root of each tree defaults to its smallest source index; ``roots``
    may override per component (keyed by that smallest index).  Raises
    CyclicGraph when the graph has a cycle.
    """
    comps = connected_components(g)
    if len(g.edges) > len(g.adjacency) - len(comps):
        raise CyclicGraph("interference graph has a cycle; sparsify first")
    components = []
    isolated_y = []
    for comp in comps:
        xs = tuple(idx for kind, idx in comp if kind == "x")
        ys = tuple(idx for kind, idx in comp if kind == "y")
        if not xs:
            isolated_y.extend(ys)
            continue
        root = min(xs)
        if roots and root in roots:
            root = roots[root]
            if ("x", root) not in set(comp):
                raise ValueError(f"root override S{root + 1} is not in this component")
        tree = _bfs(g, ("x", root))
        depth: dict[NodeRef, int] = {}
        parent: dict[NodeRef, NodeRef] = {}
        levels: list[list[NodeRef]] = []
        for v, u in tree.items():
            depth[v] = 0 if u is None else depth[u] + 1
            if u is not None:
                parent[v] = u
            if depth[v] == len(levels):
                levels.append([])
            levels[depth[v]].append(v)
        components.append(
            TreeComponent(
                x_nodes=xs,
                y_nodes=ys,
                edges=tuple(sorted(_edge(u, v) for v, u in parent.items())),
                root=root,
                levels=tuple(tuple(sorted(lv)) for lv in levels),
                parent=parent,
                depth=depth,
            )
        )
    return ForestDecomposition(tuple(components), tuple(sorted(isolated_y)))


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
