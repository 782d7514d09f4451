"""Spans around the calls between pvcgap's modules, for `--trace 1` runs.

The wrappers live here, not in pvcgap: `installed()` replaces each target
function under every name a pvcgap module looks it up by, and puts the
originals back on exit.  That matters because `hierarchy` does
`from .moments import cond_weight`, so patching `pvcgap.moments` alone
would miss every call the scan makes.  Spans nest on one stack; a span's
self time is its duration minus the spans it encloses.  Work done inside
`--threads` pool workers is not seen; the parent's time in the pool is.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span); functions sharing a span add up
TARGETS = (
    ("pvcgap.moments", "_enumerate_on_off", "moments.crosscheck"),
    ("pvcgap.moments", "cond_weight", "moments.weight"),
    ("pvcgap.moments", "_weight_overlap_ok", "moments.weight"),
    ("pvcgap.moments", "moment", "moments.moment"),
    ("pvcgap.moments", "build_cond_matrix", "moments.matrix"),
    ("pvcgap.hierarchy", "verify_sa", "hierarchy.scan"),
    ("pvcgap.hierarchy", "verify_sap", "hierarchy.scan"),
    ("pvcgap.hierarchy", "verify_xyn_family", "hierarchy.scan"),
    ("pvcgap.hierarchy", "_scan_pair", "hierarchy.pair"),
    ("pvcgap.hierarchy", "generate_sa1_lp", "hierarchy.sa1_build"),
    ("pvcgap.linalg", "psd_check", "linalg.psd"),
    ("pvcgap.linalg", "schur_complement", "linalg.schur"),
    ("pvcgap.simplex", "lp_solve", "simplex.solve"),
    ("pvcgap.graphs", "brute_force_opt", "graphs.brute_force"),
    ("pvcgap.graphs", "build_pvc_lp", "graphs.lp_build"),
    ("pvcgap.graphs", "load_graph", "graphs.load"),
    ("pvcgap.lasserre", "lasserre1_refutes", "lasserre.refute"),
    ("pvcgap.sdp", "verify_hs_sdp", "sdp.verify"),
    ("pvcgap.sdp", "build_star_sdp_solution", "sdp.verify"),
)

# per-layer metric -> (unit, how to read it from one pass of the tracer)
LAYER_METRICS = {
    "moments.crosscheck_s": ("s", lambda t: t.self_s["moments.crosscheck"]),
    "moments.crosscheck_calls": ("count", lambda t: t.calls["moments.crosscheck"]),
    "moments.weight_s": ("s", lambda t: t.self_s["moments.weight"]),
    "moments.weight_calls": ("count", lambda t: t.calls["moments.weight"]),
    "moments.moment_s": ("s", lambda t: t.self_s["moments.moment"]),
    "moments.moment_calls": ("count", lambda t: t.calls["moments.moment"]),
    "moments.memo_misses": ("count", lambda t: t.counts["moments.memo_misses"]),
    "moments.memo_hit_ratio": ("ratio", lambda t: (
        1 - t.counts["moments.memo_misses"] / t.calls["moments.moment"]
        if t.calls["moments.moment"] else 0.0)),
    "moments.matrix_s": ("s", lambda t: t.self_s["moments.matrix"]),
    "moments.matrices": ("count", lambda t: t.calls["moments.matrix"]),
    "hierarchy.scan_self_s": ("s", lambda t: t.self_s["hierarchy.scan"] + t.self_s["hierarchy.pair"]),
    "hierarchy.pairs": ("count", lambda t: t.calls["hierarchy.pair"]),
    "hierarchy.rows_checked": ("count", lambda t: t.counts["hierarchy.rows_checked"]),
    "hierarchy.pool_s": ("s", lambda t: t.self_s["hierarchy.pool"]),
    "hierarchy.sa1_build_s": ("s", lambda t: t.self_s["hierarchy.sa1_build"]),
    "linalg.psd_s": ("s", lambda t: t.self_s["linalg.psd"]),
    "linalg.psd_calls": ("count", lambda t: t.calls["linalg.psd"]),
    "linalg.psd_dim_max": ("rows", lambda t: t.counts["linalg.psd_dim_max"]),
    "linalg.schur_s": ("s", lambda t: t.self_s["linalg.schur"]),
    "simplex.solve_s": ("s", lambda t: t.self_s["simplex.solve"]),
    "simplex.solves": ("count", lambda t: t.calls["simplex.solve"]),
    "simplex.lp_rows": ("count", lambda t: t.counts["simplex.lp_rows"]),
    "simplex.lp_vars": ("count", lambda t: t.counts["simplex.lp_vars"]),
    "graphs.brute_force_s": ("s", lambda t: t.self_s["graphs.brute_force"]),
    "graphs.lp_build_s": ("s", lambda t: t.self_s["graphs.lp_build"]),
    "graphs.load_s": ("s", lambda t: t.self_s["graphs.load"]),
    "lasserre.refute_self_s": ("s", lambda t: t.self_s["lasserre.refute"]),
    "sdp.verify_self_s": ("s", lambda t: t.self_s["sdp.verify"]),
    "certificates.emit_s": ("s", lambda t: t.self_s["certificates.emit"]),
    "certificates.bytes": ("bytes", lambda t: t.counts["certificates.bytes"]),
    "cli.self_s": ("s", lambda t: t.self_s["cli"]),
}


class Tracer:
    """Self time and calls per span, plus counters, for one pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = [0.0]  # time spent in enclosed spans, per open span
        self._undo = []

    def reset(self) -> None:
        # the wrappers hold these objects, so clear them in place
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def metrics(self) -> dict:
        return {name: read(self) for name, (_unit, read) in LAYER_METRICS.items()}

    def _open(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _close(self, name: str, t0: float) -> None:
        dt = perf_counter() - t0
        self.self_s[name] += dt - self._stack.pop()
        self._stack[-1] += dt
        self.calls[name] += 1

    def span(self, name: str, fn, before=None, after=None):
        """`fn` wrapped in a span; `after(args, result, before(args))` counts."""

        def traced(*args, **kwargs):
            mark = before(args) if before else None
            t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, t0)
            if after:
                after(args, result, mark)
            return result

        return traced

    def _memo_miss(self, args, _result, size) -> None:
        if len(args[0]._memo) > size:
            self.counts["moments.memo_misses"] += 1

    def _psd_dim(self, args, _result, _mark) -> None:
        self.counts["linalg.psd_dim_max"] = max(self.counts["linalg.psd_dim_max"], args[0].n)

    def _lp_size(self, args, _result, _mark) -> None:
        self.counts["simplex.lp_rows"] += args[0].n_rows
        self.counts["simplex.lp_vars"] += args[0].n_vars

    def _emitted(self, _args, text, _mark) -> None:
        self.counts["certificates.bytes"] += len(text.encode())

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                self._trace_t0 = tracer._open()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close("hierarchy.pool", self._trace_t0)

        return TracedPool

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, old, new) -> None:
        for name, module in list(sys.modules.items()):
            if name == "pvcgap" or name.startswith("pvcgap."):
                for attr, value in list(vars(module).items()):
                    if value is old:
                        self._replace(module, attr, new)

    @contextmanager
    def installed(self):
        hooks = {
            "moments.moment": (lambda args: len(args[0]._memo), self._memo_miss),
            "linalg.psd": (None, self._psd_dim),
            "simplex.solve": (None, self._lp_size),
        }
        try:
            for module, attr, name in TARGETS:
                fn = getattr(importlib.import_module(module), attr)
                self._replace_everywhere(fn, self.span(name, fn, *hooks.get(name, (None, None))))
            cert_cls = importlib.import_module("pvcgap.certificates").Certificate
            emit = cert_cls.canonical_json
            self._replace(cert_cls, "canonical_json",
                          self.span("certificates.emit", emit, after=self._emitted))
            hierarchy = importlib.import_module("pvcgap.hierarchy")
            self._replace(hierarchy, "ProcessPoolExecutor",
                          self._pool_class(hierarchy.ProcessPoolExecutor))
            yield self
        finally:
            while self._undo:
                owner, attr, old = self._undo.pop()
                setattr(owner, attr, old)
