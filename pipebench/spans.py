"""In-memory spans around the pipeline's layer boundaries.

The tracer replaces public functions at the module attribute their callers
look them up through (``pbna.cli.find_dstar``, ``pbna.network.mincut``, ...)
with wrappers that record one span per call: name, start, end and the index
of the enclosing span.  Nothing under ``src/`` changes; the originals are put
back when the tracer closes.  A span's name is ``<layer>.<function>``, the
layer being the module under ``src/pbna/`` that defines the function.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


class TraceError(RuntimeError):
    """A boundary the benchmark traces is missing or never fired."""


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the instance's span list, -1 for the root

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _propagate_madds(args, _result) -> dict:
    # slots x (injections + coding pairs) x columns
    coeffs, inj_edge, pair_in, n_cols = args[0], args[1], args[4], args[10]
    return {"kernels.propagate_madds": coeffs.shape[0] * (len(inj_edge) + len(pair_in)) * n_cols}


def _session_counts(_args, trace) -> dict:
    return {"simulate.decode_checks": len(trace.success),
            "simulate.decode_failures": trace.success.count(False)}


# (module, attribute, span name, counters derived from the call's arguments and result)
BOUNDARIES = (
    ("pbna.cli", "load_network_file", "network.load", None),
    ("pbna.cli", "validate_assumptions", "network.validate", None),
    ("pbna.network", "mincut", "network.mincut", None),
    ("pbna.cli", "realize", "network.realize", None),
    ("pbna.network", "realize", "network.realize", None),
    ("pbna.precoding", "realize", "network.realize", None),
    ("pbna.obstruction", "realize", "network.realize", None),
    ("pbna.cli", "build_igraph", "interference.build_igraph",
     lambda a, g: {"interference.edges": len(g.edges)}),
    ("pbna.cli", "has_cycle", "interference.has_cycle", None),
    ("pbna.cli", "shortest_cycle", "interference.shortest_cycle", None),
    ("pbna.sparsify", "connected_components", "interference.connected_components", None),
    ("pbna.precoding", "decompose", "interference.decompose", None),
    ("pbna.cli", "cycle_ratio", "obstruction.cycle_ratio", None),
    ("pbna.cli", "infeasibility_report", "obstruction.infeasibility_report", None),
    ("pbna.cli", "find_dstar", "sparsify.find_dstar",
     lambda a, s: {"sparsify.independence_checks": s.independence_checks,
                   "sparsify.augmentations": s.augmentations, "sparsify.d_star": s.d_star}),
    ("pbna.cli", "plan_with_resampling", "precoding.plan",
     lambda a, p: {"precoding.attempts": p.attempts}),
    ("pbna.precoding", "build_precoding", "precoding.build", None),
    ("pbna.precoding", "verify_alignment", "precoding.verify", None),
    ("pbna.cli", "run_session", "simulate.run_session", _session_counts),
    ("pbna.simulate", "propagate_symbols", "simulate.propagate_symbols", None),
    ("pbna.cli", "rate_report", "simulate.rate_report", None),
    ("pbna.gf", "solve", "gf.solve", None),
    ("pbna.gf", "rank", "gf.rank", None),
    ("pbna.kernels", "row_reduce", "kernels.row_reduce", None),
    ("pbna.kernels", "propagate", "kernels.propagate", _propagate_madds),
)

LAYERS = ("cli", "network", "interference", "obstruction", "sparsify", "precoding", "simulate", "gf", "kernels")


class Tracer:
    """Wraps every boundary on entry and restores the originals on exit.

    ``spans`` and ``counters`` hold what the current instance recorded;
    ``reset`` starts the next instance.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, name, count in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if not callable(original):
                    raise TraceError(f"{module_name}.{attr} is missing; the traced boundary {name} is gone")
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, count))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()

    @contextmanager
    def span(self, name: str):
        """Record one span around a call: every wrapper's and the benchmark's root call."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original, name: str, count):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            self.counters[name + "_calls"] += 1
            if count is not None:
                self.counters.update(count(args, result))
            return result

        return traced


def inclusive_seconds(spans: list[Span]) -> Counter:
    """Total duration of the calls into each span name."""
    out: Counter = Counter()
    for s in spans:
        out[s.name] += s.end - s.start
    return out


def self_seconds(spans: list[Span]) -> Counter:
    """Per-layer self time: each span's duration minus its children's.

    Children nest inside their parent on one thread, so the self times of all
    layers add up to the root span's duration.
    """
    out: Counter = Counter({layer: 0.0 for layer in LAYERS})
    for s in spans:
        out[s.layer] += s.end - s.start
        if s.parent >= 0:
            out[spans[s.parent].layer] -= s.end - s.start
    return out
