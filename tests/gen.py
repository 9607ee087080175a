"""Deterministic instance generators shared across the test suite."""

from __future__ import annotations

import json

import numpy as np

from pbna.interference import InterferenceGraph
from pbna.network import Network


def fourbyfour_net() -> Network:
    """Four sources and four destinations through one shared relay.

    Every (source, destination) pair has mincut exactly 1, demands pair each
    destination with two sources so that the interference graph is a single
    8-cycle, and the relay's per-pair coupling coefficients keep the
    alternating cycle ratio non-constant.
    """
    nodes = ("S1", "S2", "S3", "S4", "R", "D1", "D2", "D3", "D4")
    edges = tuple(
        [(s, "R") for s in ("S1", "S2", "S3", "S4")] + [("R", d) for d in ("D1", "D2", "D3", "D4")]
    )
    demands = (frozenset({2, 3}), frozenset({0, 3}), frozenset({0, 1}), frozenset({1, 2}))
    return Network(nodes, edges, ("S1", "S2", "S3", "S4"), ("D1", "D2", "D3", "D4"), demands)


def fourbyfour_constant_ratio_net() -> Network:
    """Same demand pattern, but all traffic squeezed through one shared edge.

    Every transfer value factors as (per-source) * (per-destination), so the
    alternating ratio around the 8-cycle is identically 1.
    """
    nodes = ("S1", "S2", "S3", "S4", "A", "B", "D1", "D2", "D3", "D4")
    edges = tuple(
        [(s, "A") for s in ("S1", "S2", "S3", "S4")]
        + [("A", "B")]
        + [("B", d) for d in ("D1", "D2", "D3", "D4")]
    )
    demands = (frozenset({2, 3}), frozenset({0, 3}), frozenset({0, 1}), frozenset({1, 2}))
    return Network(nodes, edges, ("S1", "S2", "S3", "S4"), ("D1", "D2", "D3", "D4"), demands)


def sixcycle_net() -> Network:
    """Three unicast-style sessions through a shared relay: a 6-cycle graph."""
    nodes = ("S1", "S2", "S3", "R", "D1", "D2", "D3")
    edges = tuple([(s, "R") for s in ("S1", "S2", "S3")] + [("R", d) for d in ("D1", "D2", "D3")])
    demands = (frozenset({0}), frozenset({1}), frozenset({2}))
    return Network(nodes, edges, ("S1", "S2", "S3"), ("D1", "D2", "D3"), demands)


def adversarial_net() -> Network:
    """Network engineered so one alignment determinant vanishes identically.

    Sources S2 and S3 share the path A -> B fanning out to both destinations,
    so at D2 the interference direction of S3 coincides exactly with the
    desired direction of S2 at every coefficient assignment.
    """
    nodes = ("S1", "S2", "S3", "A", "B", "D1", "D2")
    edges = (
        ("S1", "D1"),
        ("S2", "A"),
        ("S3", "A"),
        ("A", "B"),
        ("B", "D1"),
        ("B", "D2"),
    )
    demands = (frozenset({0}), frozenset({1}))
    return Network(nodes, edges, ("S1", "S2", "S3"), ("D1", "D2"), demands)


def net_to_mapping(net: Network) -> dict:
    """JSON-ready mapping in the network file format (1-based demands)."""
    return {
        "nodes": list(net.nodes),
        "edges": [[t, h] for t, h in net.edges],
        "sources": list(net.sources),
        "destinations": list(net.destinations),
        "demands": [sorted(j + 1 for j in dem) for dem in net.demands],
    }


def net_to_json(net: Network) -> str:
    return json.dumps(net_to_mapping(net), indent=2, sort_keys=True) + "\n"


def forest_instance(rng: np.random.Generator, size: int | None = None):
    """Random groupcast network whose interference graph is a forest.

    ``size`` fixes K = M; by default both are drawn small.

    Demanded and interfering pairs get private routes (a direct edge or a
    fresh 2-hop relay), so every connected pair has mincut exactly 1 and the
    interference pattern is exactly the generated forest.
    """
    k_sources = int(rng.integers(2, 7)) if size is None else size
    m_dests = int(rng.integers(1, 7)) if size is None else size
    l_size = int(rng.integers(1, min(3, k_sources - 1) + 1))
    demands = tuple(
        frozenset(int(x) for x in rng.choice(k_sources, size=l_size, replace=False))
        for _ in range(m_dests)
    )

    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(u):
        parent.setdefault(u, u)
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def joins(j, i) -> bool:
        return find(("x", j)) != find(("y", i))

    def union(j, i):
        parent[find(("x", j))] = find(("y", i))

    forest: set[tuple[int, int]] = set()
    # one interference edge per destination first, when some acyclic pick exists
    for i in range(m_dests):
        options = [j for j in range(k_sources) if j not in demands[i] and joins(j, i)]
        if options:
            j = int(rng.choice(options))
            forest.add((j, i))
            union(j, i)
    candidates = [
        (j, i)
        for j in range(k_sources)
        for i in range(m_dests)
        if j not in demands[i] and (j, i) not in forest
    ]
    rng.shuffle(candidates)
    for j, i in candidates:
        if joins(j, i) and rng.random() < 0.5:
            forest.add((j, i))
            union(j, i)

    nodes = [f"S{j + 1}" for j in range(k_sources)] + [f"D{i + 1}" for i in range(m_dests)]
    edges: list[tuple[str, str]] = []
    relay = 0
    for i in range(m_dests):
        for j in sorted(demands[i] | {j for j, ii in forest if ii == i}):
            if rng.random() < 0.3:
                relay += 1
                mid = f"R{relay}"
                nodes.append(mid)
                edges.append((f"S{j + 1}", mid))
                edges.append((mid, f"D{i + 1}"))
            else:
                edges.append((f"S{j + 1}", f"D{i + 1}"))
    net = Network(
        tuple(nodes),
        tuple(edges),
        tuple(f"S{j + 1}" for j in range(k_sources)),
        tuple(f"D{i + 1}" for i in range(m_dests)),
        demands,
    )
    return net, frozenset(forest)


def cyclic_instance(rng: np.random.Generator, size: int, demand_size: int = 2, density: float = 0.03):
    """Random groupcast network whose interference graph is a random bipartite graph.

    K = M = ``size``; every destination demands ``demand_size`` sources, and
    each other (source, destination) pair interferes independently with
    probability ``density``.  Routes are private as in ``forest_instance``, so
    the interference graph the pipeline finds is exactly the drawn one.
    """
    demands = tuple(
        frozenset(int(x) for x in rng.choice(size, size=demand_size, replace=False))
        for _ in range(size)
    )
    interference = frozenset(
        (j, i) for i in range(size) for j in range(size)
        if j not in demands[i] and rng.random() < density
    )
    nodes = [f"S{j + 1}" for j in range(size)] + [f"D{i + 1}" for i in range(size)]
    edges: list[tuple[str, str]] = []
    for i in range(size):
        for j in sorted(demands[i] | {j for j, ii in interference if ii == i}):
            if rng.random() < 0.3:
                mid = f"R{len(nodes) - 2 * size + 1}"
                nodes.append(mid)
                edges.append((f"S{j + 1}", mid))
                edges.append((mid, f"D{i + 1}"))
            else:
                edges.append((f"S{j + 1}", f"D{i + 1}"))
    net = Network(
        tuple(nodes),
        tuple(edges),
        tuple(f"S{j + 1}" for j in range(size)),
        tuple(f"D{i + 1}" for i in range(size)),
        demands,
    )
    return net, interference


def hub_relay_net(rng: np.random.Generator) -> Network:
    """Random groupcast network whose interference routes share bottleneck edges.

    K = 3-5 sources, M = 3-5 destinations demanding L = 1 or 2 sources each.
    Each of 1-2 hubs is one edge H<h>a -> H<h>b.  A source feeds at most one
    hub and a destination hears each hub with probability 0.6, so every pair
    joined through a hub crosses that hub's edge, and a cycle among such
    pairs has a constant alternating ratio.  A pair not joined through a hub
    gets a private route when it is demanded, or with probability 0.3.
    A hub is reached and left by a direct edge, a relay, a doubled edge or a
    diamond of two relays; a private route is a direct edge, a relay, or two
    relays joined by a doubled edge.  So every pair has mincut at most 1 and
    the network passes validation.
    """
    k, m, l_size = (int(n) for n in rng.integers((3, 3, 1), (6, 6, 3)))
    demands = tuple(frozenset(int(x) for x in rng.choice(k, size=l_size, replace=False)) for _ in range(m))
    n_hubs = int(rng.integers(1, 3))
    hub_of = [int(rng.integers(n_hubs)) if rng.random() < 0.8 else -1 for _ in range(k)]
    hears = [{h for h in range(n_hubs) if rng.random() < 0.6} for _ in range(m)]
    nodes = [f"S{j + 1}" for j in range(k)] + [f"D{i + 1}" for i in range(m)]
    edges = [(f"H{h + 1}a", f"H{h + 1}b") for h in range(n_hubs)]
    nodes += [v for edge in edges for v in edge]

    def relay() -> str:
        nodes.append(f"R{len(nodes) - k - m - 2 * n_hubs + 1}")
        return nodes[-1]

    def route(a: str, b: str, kinds) -> None:
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "edge":
            edges.append((a, b))
        elif kind == "double":
            edges.extend([(a, b)] * 2)
        elif kind == "relay":
            r = relay()
            edges.extend([(a, r), (r, b)])
        elif kind == "diamond":
            for r in (relay(), relay()):
                edges.extend([(a, r), (r, b)])
        else:  # two relays joined by a doubled edge
            r1, r2 = relay(), relay()
            edges.extend([(a, r1), (r1, r2), (r1, r2), (r2, b)])

    hub_kinds = ("edge", "relay", "double", "diamond")
    for j, h in enumerate(hub_of):
        if h >= 0:
            route(f"S{j + 1}", f"H{h + 1}a", hub_kinds)
    for i in range(m):
        for h in sorted(hears[i]):
            route(f"H{h + 1}b", f"D{i + 1}", hub_kinds)
        for j in range(k):
            if hub_of[j] not in hears[i] and (j in demands[i] or rng.random() < 0.3):
                route(f"S{j + 1}", f"D{i + 1}", ("edge", "relay", "relay-double"))
    return Network(tuple(nodes), tuple(edges), tuple(f"S{j + 1}" for j in range(k)),
                   tuple(f"D{i + 1}" for i in range(m)), demands)


def random_dag_net(rng: np.random.Generator, max_extra_nodes: int = 4, max_edges: int = 8):
    """Small arbitrary DAG with one source and one destination, for oracles.

    Edges only go from lower to higher node index, so the graph is acyclic by
    construction; mincuts of any value can appear.
    """
    n_mid = int(rng.integers(0, max_extra_nodes + 1))
    names = ["S1"] + [f"N{t + 1}" for t in range(n_mid)] + ["D1"]
    n = len(names)
    possible = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(possible)
    n_edges = int(rng.integers(1, max_edges + 1))
    chosen = possible[: min(n_edges, len(possible))]
    # duplicate an edge occasionally to exercise parallel edges
    if chosen and rng.random() < 0.2:
        chosen.append(chosen[0])
    edges = tuple((names[a], names[b]) for a, b in chosen)
    return Network(tuple(names), edges, ("S1",), ("D1",), (frozenset({0}),))


def random_bipartite(rng: np.random.Generator, max_sources: int = 5, max_dests: int = 5,
                     max_edges: int = 12) -> InterferenceGraph:
    """Random bipartite interference graph, disconnected cases included."""
    k = int(rng.integers(1, max_sources + 1))
    m = int(rng.integers(1, max_dests + 1))
    all_pairs = [(j, i) for j in range(k) for i in range(m)]
    rng.shuffle(all_pairs)
    n_edges = int(rng.integers(0, min(max_edges, len(all_pairs)) + 1))
    return InterferenceGraph(k, m, frozenset(all_pairs[:n_edges]))


def dense_bipartite(rng: np.random.Generator) -> InterferenceGraph:
    """Random bipartite graph on 8-15 sources and 8-15 destinations.

    Each pair is an edge with one density drawn from [0.15, 0.45), so most
    of these graphs are cyclic and many stall find_dstar's greedy scan.
    """
    k, m = (int(n) for n in rng.integers(8, 16, size=2))
    density = rng.uniform(0.15, 0.45)
    return InterferenceGraph(k, m, frozenset(
        (j, i) for j in range(k) for i in range(m) if rng.random() < density
    ))


def hub_bipartite(rng: np.random.Generator) -> InterferenceGraph:
    """A dense bipartite core on 2-4 sources and 2-4 destinations, with one or two hub destinations.

    Each hub has one edge into the core and one or two pendant sources.
    Every hub edge is a bridge, so a hub adds to find_dstar's degree count
    yet can lose no edge; where the core's own count is tight, the count
    falls below d*.
    """
    k, m = (int(n) for n in rng.integers(2, 5, size=2))
    density = rng.uniform(0.7, 1.0)
    edges = [(j, i) for j in range(k) for i in range(m) if rng.random() < density]
    hubs = int(rng.integers(1, 3))
    for hub in range(m, m + hubs):
        edges.append((int(rng.integers(k)), hub))
        for _ in range(int(rng.integers(1, 3))):
            edges.append((k, hub))
            k += 1
    return InterferenceGraph(k, m + hubs, edges)


def random_multiterminal_dag(rng: np.random.Generator, min_nodes: int = 4, max_nodes: int = 7,
                             edge_prob: float = 0.4) -> Network:
    """Random DAG with 1-4 sources and 1-4 destinations, for mincut oracles.

    Edges go from lower to higher position in a hidden random order, so the
    graph is acyclic but neither node names nor file order reveal it.
    Sources and destinations are drawn from all nodes, so edges run into
    sources and out of destinations, some pairs are unreachable, and one node
    is both a source and a destination about half the time.  Parallel edges
    (up to three copies) make mincuts of 3 and more common.
    """
    n = int(rng.integers(min_nodes, max_nodes + 1))
    names = [f"N{t + 1}" for t in rng.permutation(n)]
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_prob:
                extra = int(rng.integers(1, 3))
                copies = 1 + extra if rng.random() < 0.15 else 1
                edges += [(names[a], names[b])] * copies
    order = rng.permutation(len(edges))
    edges = [edges[k] for k in order]
    k_sources = int(rng.integers(1, min(4, n - 1) + 1))
    m_dests = int(rng.integers(1, min(4, n - 1) + 1))
    picks = [names[k] for k in rng.permutation(n)]
    sources = picks[:k_sources]
    if rng.random() < 0.5:
        # share exactly one node between the two groups
        destinations = [sources[int(rng.integers(k_sources))]] + picks[k_sources:k_sources + m_dests - 1]
    else:
        destinations = picks[k_sources:k_sources + m_dests]
    l_size = int(rng.integers(1, k_sources + 1))
    demands = tuple(
        frozenset(int(x) for x in rng.choice(k_sources, size=l_size, replace=False)) for _ in destinations
    )
    return Network(tuple(names), tuple(edges), tuple(sources), tuple(destinations), demands)


def seeded_messages(net: Network, q: int, seeds) -> np.ndarray:
    """One session per seed: the K messages ``default_rng(seed)`` draws first, stacked (S, K)."""
    return np.array([np.random.default_rng(s).integers(0, q, size=net.n_sources, dtype=np.int64) for s in seeds],
                    dtype=np.int64).reshape(-1, net.n_sources)
