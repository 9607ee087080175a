"""Seeded groupcast instances with a known interference graph.

Every connected (source, destination) pair gets a private route: a direct
edge, or a fresh two-hop relay on a random ``relay_fraction`` share of the
routes.  No two routes share a node other than their ends, so each connected
pair has mincut exactly 1, every other pair has mincut 0, and the
interference graph the pipeline finds is exactly the generated one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """A network in the ``networks/*.json`` file format and its interference edges."""

    mapping: dict
    interference: frozenset[tuple[int, int]]  # (source j, destination i), 0-based

    def to_json(self) -> str:
        return json.dumps(self.mapping, indent=2, sort_keys=True) + "\n"


def _forest_edges(rng: random.Random, candidates, density: float) -> set[tuple[int, int]]:
    """Keep each candidate with probability ``density`` unless it closes a cycle."""
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(u):
        parent.setdefault(u, u)
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    kept = set()
    for j, i in candidates:
        if rng.random() >= density:
            continue
        a, b = find(("x", j)), find(("y", i))
        if a != b:
            parent[a] = b
            kept.add((j, i))
    return kept


def generate(k_sources: int, m_dests: int, demand_size: int, density: float,
             relay_fraction: float, forest: bool, graph_seed, route_seed, relay_tag: int = 0) -> Instance:
    """Draw one instance; the same arguments always give the same instance.

    ``graph_seed`` draws the demands and the interference graph,
    ``route_seed`` which routes get a relay.  The relay count is fixed, so
    the node count, which sets the cost of mincut validation, does not swing
    with the seed.  In forest mode each
    non-demanded pair, visited in random order, interferes with probability
    ``density`` unless it would close a cycle, so the interference graph is a
    forest.  Otherwise each non-demanded pair interferes independently with
    probability ``density`` (a random bipartite graph).

    A nonzero ``relay_tag`` renames every relay (``R7`` becomes ``R7.3``), so
    one instance can be written as distinct files that need the same work;
    relay names do not appear in the report.
    """
    if not 1 <= demand_size < k_sources:
        raise ValueError("need 1 <= demand_size < k_sources")
    rng = random.Random(graph_seed)
    demands = [frozenset(rng.sample(range(k_sources), demand_size)) for _ in range(m_dests)]
    candidates = [(j, i) for i in range(m_dests) for j in range(k_sources) if j not in demands[i]]
    if forest:
        rng.shuffle(candidates)
        interference = _forest_edges(rng, candidates, density)
    else:
        interference = {pair for pair in candidates if rng.random() < density}

    routes = [(j, i) for i in range(m_dests) for j in sorted(demands[i] | {j for j, ii in interference if ii == i})]
    relayed = set(random.Random(route_seed).sample(routes, round(relay_fraction * len(routes))))
    nodes = [f"S{j + 1}" for j in range(k_sources)] + [f"D{i + 1}" for i in range(m_dests)]
    edges = []
    for j, i in routes:
        if (j, i) in relayed:
            relay = f"R{len(nodes) - k_sources - m_dests + 1}" + (f".{relay_tag}" if relay_tag else "")
            nodes.append(relay)
            edges += [[f"S{j + 1}", relay], [relay, f"D{i + 1}"]]
        else:
            edges.append([f"S{j + 1}", f"D{i + 1}"])
    mapping = {
        "nodes": nodes,
        "edges": edges,
        "sources": nodes[:k_sources],
        "destinations": nodes[k_sources:k_sources + m_dests],
        "demands": [sorted(j + 1 for j in dem) for dem in demands],
    }
    return Instance(mapping, frozenset(interference))
