"""In-memory span recorder that wraps rauzylab's public functions from outside.

Each layer is one module of the package.  ``install`` replaces every listed
callable with a timing wrapper, in its defining module and in every module
that bound it by ``from .x import name``, so no call escapes the spans.  A
name that a later version of the package no longer has is skipped, and the
metrics that depend on it are left out of ``Recorder.metrics``.

Spans nest: each wrapper pushes a frame, and on return adds its duration to
its parent's child time, so a layer's self time is the sum over its spans of
duration minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

#: wrapped callables per layer; "Class.method" names are wrapped on the class
WRAPPED = {
    "oracle": ("legal_subwords", "is_legal", "generation_set", "verify_fibonacci_identity"),
    "words": ("WordSet.from_iterable", "subwords"),
    "complexity": (
        "complexity",
        "first_difference",
        "extension_table",
        "specials_report",
        "branching_excess",
        "verify_bispecial_identity",
        "verify_no_weak_bispecials",
    ),
    "rauzy": (
        "build_rauzy",
        "projection",
        "strongly_connected",
        "strongly_connected_components",
        "export_dot",
        "check_thread",
    ),
    "cohomology": (
        "coboundary_matrix",
        "h1_rank",
        "pullback_matrices",
        "verify_commutation",
        "induced_h1_map",
        "quotient_h0",
        "quotient_h1",
        "stage_report",
        "direct_limit_report",
    ),
    "rational": (
        "RationalMatrix.rank",
        "RationalMatrix.__matmul__",
        "RationalMatrix.hstack",
        "RationalMatrix.transpose",
        "RationalMatrix.from_int_rows",
    ),
    "kernels": ("rank_int64", "exact_integer_rank"),
}

#: the layer of the root span: argument parsing, orchestration and rendering
ROOT = "cli"

#: counters that must repeat exactly across traced runs of the same code
DETERMINISTIC = (
    "oracle.cold_calls",
    "words.sorted_items",
    "complexity.extension_tables",
    "rational.rank_calls",
    "rational.rank_cells",
    "rational.rank_nnz",
    "rauzy.edges",
)


class Recorder:
    """Aggregated spans and counters of one traced run."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans, each [layer, seconds covered by children]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.entries: dict[str, int] = {}  # calls into a layer from another layer
        self.counts: dict[str, int] = {}
        self.wrapped: set[str] = set()
        self.layers: set[str] = {ROOT}
        self._cold: set = set()
        self._built: dict[int, object] = {}

    def span(self, layer: str, name: str, fn, args, kwargs):
        stack = self.stack
        outer = stack[-1][0] if stack else None
        frame = [layer, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + elapsed
            self.self_time[layer] = self.self_time.get(layer, 0.0) + elapsed - frame[1]
            if outer != layer:
                self.entries[layer] = self.entries.get(layer, 0) + 1

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; one whose wrapped function is gone is absent."""
        out: dict[str, float] = {f"{layer}.self_s": self.self_time.get(layer, 0.0) for layer in self.layers}
        have = self.wrapped.__contains__
        if have("oracle.legal_subwords"):
            out["oracle.calls"] = self.calls.get("oracle.legal_subwords", 0) + self.calls.get("oracle.is_legal", 0)
            out["oracle.cold_calls"] = self.counts.get("oracle.cold_calls", 0)
        if have("words.WordSet.from_iterable"):
            out["words.sorted_items"] = self.counts.get("words.sorted_items", 0)
        if have("complexity.extension_table"):
            out["complexity.extension_tables"] = self.calls.get("complexity.extension_table", 0)
        if have("rauzy.build_rauzy"):
            out["rauzy.edges"] = self.counts.get("rauzy.edges", 0)
        if have("rational.RationalMatrix.rank"):
            rank_calls = self.calls.get("rational.RationalMatrix.rank", 0)
            out["rational.rank_calls"] = rank_calls
            out["rational.rank_cells"] = self.counts.get("rational.rank_cells", 0)
            out["rational.rank_nnz"] = self.counts.get("rational.rank_nnz", 0)
            if "kernels" in self.layers:
                kernel_calls = self.entries.get("kernels", 0)
                out["kernels.rank_calls"] = kernel_calls
                # no rank computed means no cache hit
                out["rational.rank_cache_hit_ratio"] = 1 - kernel_calls / rank_calls if rank_calls else 0.0
        if have("rational.RationalMatrix.__matmul__"):
            out["rational.matmul_s"] = self.total.get("rational.RationalMatrix.__matmul__", 0.0)
        return out


def _first_call_per_length(rec: Recorder, args, result) -> None:
    rule, arg = args[0], args[1]
    key = (rule, arg if isinstance(arg, int) else len(arg))
    if key not in rec._cold:
        rec._cold.add(key)
        rec.count("oracle.cold_calls", 1)


def _sorted_items(rec: Recorder, args, result) -> None:
    rec.count("words.sorted_items", len(result))


def _built_edges(rec: Recorder, args, result) -> None:
    # a graph object not seen before was built, not served from a cache
    if id(result) not in rec._built:
        rec._built[id(result)] = result
        rec.count("rauzy.edges", len(result.edges))


def _ranked_size(rec: Recorder, args, result) -> None:
    matrix = args[0]
    rec.count("rational.rank_cells", matrix.rows * matrix.cols)
    rec.count("rational.rank_nnz", sum(len(row) - row.count(0) for row in matrix.entries))


#: counters taken on return from a wrapped call, outside its span
OBSERVERS = {
    "oracle.legal_subwords": _first_call_per_length,
    "oracle.is_legal": _first_call_per_length,
    "words.WordSet.from_iterable": _sorted_items,
    "rauzy.build_rauzy": _built_edges,
    "rational.RationalMatrix.rank": _ranked_size,
}


def _wrapper(rec: Recorder, layer: str, name: str, fn):
    observe = OBSERVERS.get(name)

    def traced(*args, **kwargs):
        result = rec.span(layer, name, fn, args, kwargs)
        if observe is not None:
            start = perf_counter()
            observe(rec, args, result)
            if rec.stack:
                # counting is tracer work: charge it to no layer's self time
                rec.stack[-1][1] += perf_counter() - start
        return result

    return functools.update_wrapper(traced, fn)


def _rebind(namespaces, original, replacement) -> None:
    """Point every name bound to ``original`` at ``replacement``."""
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            if value is original:
                setattr(namespace, attr, replacement)


def install() -> Recorder:
    """Wrap the listed callables of the imported ``rauzylab``; returns the recorder."""
    rec = Recorder()
    layers = {}
    for layer in WRAPPED:
        try:
            layers[layer] = importlib.import_module(f"rauzylab.{layer}")
        except ImportError:
            continue
    modules = [m for n, m in list(sys.modules.items()) if n == "rauzylab" or n.startswith("rauzylab.")]
    for layer, module in layers.items():
        rec.layers.add(layer)
        for qualname in WRAPPED[layer]:
            full = f"{layer}.{qualname}"
            cls_name, _, attr = qualname.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name, None)
                raw = vars(cls).get(attr) if isinstance(cls, type) else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(_wrapper(rec, layer, full, raw.__func__))
                else:
                    new = _wrapper(rec, layer, full, raw)
                _rebind([cls], raw, new)  # aliases such as from_int_array share the object
            else:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                _rebind(modules, fn, _wrapper(rec, layer, full, fn))
            rec.wrapped.add(full)
    return rec
