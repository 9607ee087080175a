"""Correctness checks on one ``pipeline --format json`` report.

The exit code alone is not enough: ``pipeline`` exits 0 even after failed
decodes, so every check reads the report itself.
"""

from __future__ import annotations


def _label_index(label: str) -> int:
    return int(label[1:]) - 1


def _acyclic(edges) -> bool:
    parent: dict = {}

    def find(u):
        parent.setdefault(u, u)
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for j, i in edges:
        a, b = find(("x", j)), find(("y", i))
        if a == b:
            return False
        parent[a] = b
    return True


def report_problems(code: int, report: dict | None, demand_size: int, *, interference=None,
                    forest: bool | None = None, d_star: int | None = None) -> list[str]:
    """Every way the run falls short; an empty list means the instance passed.

    ``interference`` is the expected edge set as 0-based (source, destination)
    pairs, ``forest`` whether the interference graph is acyclic, ``d_star``
    the expected quota.  None skips that check.
    """
    if code != 0:
        return [f"exit code {code}"]
    if report is None:
        return ["no report written"]
    problems = []
    sim = report["simulation"]
    if sim["decode_checks"] < 1 or sim["successes"] != sim["decode_checks"]:
        problems.append(f"decoded {sim['successes']}/{sim['decode_checks']}")

    edges = {(_label_index(s), _label_index(w)) for s, w in report["interference_graph"]["edges"]}
    if interference is not None and edges != set(interference):
        problems.append(f"interference graph has {len(edges)} edges, "
                        f"{len(edges ^ set(interference))} differ from the generated ones")
    if forest is not None and report["cyclic"] == forest:
        problems.append(f"cyclic={report['cyclic']} on a {'forest' if forest else 'cyclic'} instance")

    spars = report["sparsification"]
    got = spars["d_star"]
    if forest and got != 0:
        problems.append(f"d*={got} on a forest")
    if d_star is not None and got != d_star:
        problems.append(f"d*={got}, expected {d_star}")
    rate = f"1/{demand_size + got + 1}"
    for section in ("precoding", "simulation"):
        if report[section]["per_source_rate"] != rate:
            problems.append(f"{section} rate {report[section]['per_source_rate']}, expected {rate}")

    extra = {(_label_index(s), i) for i, srcs in enumerate(spars["extra_decode"]) for s in srcs}
    if not extra <= edges:
        problems.append("extra decodes include a pair that is not an interference edge")
    if not _acyclic(edges - extra):
        problems.append("h_bar has a cycle")
    worst = max((len(srcs) for srcs in spars["extra_decode"]), default=0)
    if worst > got:
        problems.append(f"a destination loses {worst} edges > d*={got}")
    return problems
