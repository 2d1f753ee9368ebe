"""Outside-in layer trace of girthlab.

``Tracer.install()`` replaces each public function listed in ``WRAPPED`` by
a wrapper that records a span (name, start, end, parent) in memory. A module
that did ``from .x import f`` holds its own reference to ``f``, so the
wrapper is put into every ``girthlab.*`` namespace that binds the original.
Spans of one layer that call each other nest, and a layer's self time is the
sum over its spans of duration minus the time covered by child spans.

Nothing in girthlab itself is changed: a function that girthlab renames or
removes shows up in ``Tracer.missing``, and work done by code outside every
listed function shows up as ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import numpy as np

WRAPPED = {
    "canonical": ("canonical_labeling", "canonical_key", "canonical_graph",
                  "canonical_last_edge", "last_edge_under", "are_isomorphic"),
    "search": ("turan_number", "zarankiewicz_ab", "zarankiewicz_number",
               "solve_polygon_order", "verify_upper_bounds",
               "discrepancy_witness"),
    "walks": ("walk_count", "closed_walk_count", "nonreturning_count",
              "path_count", "paths_from_vertex", "check_blakley_roy",
              "check_godsil", "check_hoory_bipartite",
              "check_closed_walk_bound", "check_path_lower_bound"),
    "spectral": ("eigenvalues_symmetric", "adjacency_matrix",
                 "degree_variance", "spectral_summary", "check_mixing_regular",
                 "check_mixing_bipartite", "check_mixing_near_regular",
                 "pseudorandomness_report"),
    "graph": ("relabel", "induced_subgraph", "neighborhood_layers",
              "bipartition", "is_bipartite", "as_bipartite", "girth",
              "diameter", "cycle_spectrum", "contains_cycle", "is_family_free",
              "odd_cycle_run", "max_bipartite_local", "peel_min_degree",
              "e_between", "chromatic_number"),
    # The suite functions are reached through verify._SUITE_FUNCS, which holds
    # direct references, so each suite's span is its run_verify span.
    "verify": ("run_verify",),
    "geometry": ("pg2_incidence", "gq_w3", "incidence_graph",
                 "polarity_graph", "absolute_points", "augment_distance_two"),
    "stability": ("truncate_degrees", "best_root", "extract_bipartite",
                  "check_degree_outlier_bound", "high_degree_edge_fraction"),
    "corpus": ("walks_corpus", "dense_corpus", "c4_free_corpus",
               "bipartite_corpus", "near_biregular_corpus", "small_corpus"),
    "formats": ("graph6_encode", "graph6_decode", "to_edge_json",
                "from_edge_json", "to_dot", "load_graph"),
}

WALK_FNS = ("walk_count", "closed_walk_count", "nonreturning_count",
            "path_count")
GRAPH_FNS = ("contains_cycle", "cycle_spectrum", "odd_cycle_run", "girth",
             "chromatic_number")


class Tracer:
    """Spans and exact counters for the calls made while installed."""

    def __init__(self, wrapped=WRAPPED):
        self.wrapped = wrapped
        self.missing = []
        self._restore = []
        self.spans = []
        self._stack = []
        self.reset()

    def reset(self):
        """Forget the spans and counters of the previous pass."""
        self.spans.clear()
        self._stack.clear()
        self.canon_keys = []
        self.walk_graphs = []
        self.matrices = []
        self.search_nodes = {}

    # --- installation ------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"girthlab.{layer}")
                   for layer in self.wrapped]
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "girthlab" or name.startswith("girthlab.")]
        for module, (layer, names) in zip(modules, self.wrapped.items()):
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._restore.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    def _wrap(self, label, fn):
        spans, stack = self.spans, self._stack
        after = getattr(self, "_after_" + label.replace(".", "_"), None)
        name_of = _suite_label if label == "verify.run_verify" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_of(args, kwargs) if name_of else label,
                              start, end, parent)
            if after is not None:
                after(idx, args, result)
            return result

        return wrapper

    # --- exact counters, read from arguments and results --------------------

    def _after_canonical_canonical_labeling(self, idx, args, result):
        self.canon_keys.append((args[0].n, result[0]))

    def _after_canonical_canonical_key(self, idx, args, result):
        self.canon_keys.append(result)

    def _after_walks_walk_count(self, idx, args, result):
        self.walk_graphs.append((args[0].n, args[0].bits))

    def _after_spectral_eigenvalues_symmetric(self, idx, args, result):
        a = np.asarray(args[0], dtype=float)
        self.matrices.append((a.shape, a.tobytes()))

    def _after_search_result(self, idx, args, result):
        self.search_nodes[idx] = result.nodes

    _after_search_turan_number = _after_search_result
    _after_search_zarankiewicz_ab = _after_search_result
    _after_search_zarankiewicz_number = _after_search_result

    # --- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, wall: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset,
        for a traced pass that took `wall` seconds."""
        spans = self.spans
        covered = [0.0] * len(spans)
        top = 0.0
        for name, start, end, parent in spans:
            if parent < 0:
                top += end - start
            else:
                covered[parent] += end - start
        layer_self = {}
        calls = {}
        busy = {}
        outer_busy = {}  # spans not nested in a span of their own layer
        nodes = 0
        for i, (name, start, end, parent) in enumerate(spans):
            layer = name.split(".", 1)[0]
            dur = end - start
            layer_self[layer] = layer_self.get(layer, 0.0) + dur - covered[i]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            p = parent
            while p >= 0 and not spans[p][0].startswith(layer + "."):
                p = spans[p][3]
            if p < 0:
                outer_busy[layer] = outer_busy.get(layer, 0.0) + dur
                nodes += self.search_nodes.get(i, 0)
        search_busy = outer_busy.get("search", 0.0)
        eigen_n = [shape[0] for shape, _ in self.matrices]

        m = {
            "canonical.calls": len(self.canon_keys),
            "canonical.busy_s": outer_busy.get("canonical", 0.0),
            "canonical.self_s": layer_self.get("canonical", 0.0),
            "canonical.distinct_frac": _frac(len(set(self.canon_keys)),
                                             len(self.canon_keys)),
            "search.nodes": nodes,
            "search.self_s": layer_self.get("search", 0.0),
            "search.nodes_per_s": nodes / search_busy if search_busy else 0.0,
            "walks.self_s": layer_self.get("walks", 0.0),
        }
        for fn in WALK_FNS:
            m[f"walks.{fn}.calls"] = calls.get(f"walks.{fn}", 0)
            m[f"walks.{fn}.busy_s"] = busy.get(f"walks.{fn}", 0.0)
        m["walks.distinct_graph_frac"] = _frac(len(set(self.walk_graphs)),
                                               len(self.walk_graphs))
        m.update({
            "spectral.self_s": layer_self.get("spectral", 0.0),
            "spectral.eigen_calls": len(self.matrices),
            "spectral.eigen_s": busy.get("spectral.eigenvalues_symmetric", 0.0),
            "spectral.distinct_matrix_frac": _frac(len(set(self.matrices)),
                                                   len(self.matrices)),
            "spectral.eigen_n3": sum(n ** 3 for n in eigen_n),
            "graph.self_s": layer_self.get("graph", 0.0),
        })
        for fn in GRAPH_FNS:
            m[f"graph.{fn}.calls"] = calls.get(f"graph.{fn}", 0)
        for layer in ("verify", "geometry", "stability", "corpus", "formats"):
            m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        m["trace.unattributed_s"] = wall - top
        m["trace.missing_fns"] = len(self.missing)
        return m


def _suite_label(args, kwargs):
    suite = args[0] if args else kwargs.get("suite")
    return f"verify.run_verify[{suite}]"


def _frac(part: int, whole: int) -> float:
    """part / whole, and 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0
