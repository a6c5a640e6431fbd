"""Span tracing of scarr's public functions, applied from outside the package.

``install(tracer)`` replaces each function in ``WRAPPED`` by a timing wrapper
under every name a caller can look it up by: the defining module's attribute
and every ``from ... import`` copy in another ``scarr`` module (for example
``scarr.cli.load_dataset`` or ``scarr.prediction.kalman_filter``).  Spans are
kept in memory as ``[function index, start, end, parent span]`` rows, with
times from ``time.perf_counter``, and written out once the command ends.

Functions called millions of times (``cov_value``, ``ring_index``,
``covariate_value``) are not wrapped.  Their call counts are derived from the
arguments of the wrapped functions that call them (see ``NOTES``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

WRAPPED = {
    "data_model": ("load_dataset",),
    "covariates": (
        "segmentize", "site_static_covariates", "ring_ttv", "quadrant_ttv",
        "ring_landuse_area", "build_covariates",
    ),
    "step1": (
        "assemble_design", "fit_ols", "fit_gls", "cov_matrix",
        "backward_buffer_selection", "loocv_press",
    ),
    "step2": ("kalman_filter", "kalman_smoother", "log_likelihood", "fit_mle"),
    "prediction": (
        "build_dlm_inputs", "c_tilde_for_day", "predict_site", "predict_grid",
        "metrics",
    ),
    "cli": ("cmd_features", "cmd_fit_step1", "cmd_fit_step2", "cmd_predict",
            "cmd_validate"),
}

#: Functions whose only reported figure is their self time.
SELF_ONLY = {f"cli.{name}" for name in WRAPPED["cli"]}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _static_note(args, kwargs):
    site = _arg(args, kwargs, 1, "site")
    return [site.x, site.y]


def _length_note(name):
    """Note the length of the second argument, called ``name``."""
    return lambda args, kwargs: len(_arg(args, kwargs, 1, name))


def _c_tilde_note(args, kwargs):
    fit = _arg(args, kwargs, 0, "fit")
    return sum(1 for nm in fit.names if nm != "cmaq")


#: Per-call argument facts kept for the computed counts.
NOTES = {
    "covariates.site_static_covariates": _static_note,
    "covariates.ring_ttv": _length_note("sources"),
    "step1.cov_matrix": _length_note("coords"),
    "prediction.c_tilde_for_day": _c_tilde_note,
}


class Tracer:
    """In-memory span and note store for one process."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.notes = {}
        self._stack = []

    def wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        notes = self.notes.setdefault(name, []) if note else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                notes.append(note(args, kwargs))
            row = [index, clock(), 0.0, stack[-1] if stack else -1]
            span_id = len(spans)
            spans.append(row)
            stack.append(span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = clock()

        return traced

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "notes": self.notes}


def install(tracer: Tracer) -> None:
    """Patch every ``scarr`` module attribute bound to a wrapped function."""
    for mod in WRAPPED:
        importlib.import_module(f"scarr.{mod}")
    modules = [m for key, m in sys.modules.items()
               if key == "scarr" or key.startswith("scarr.")]
    for mod, funcs in WRAPPED.items():
        home = sys.modules[f"scarr.{mod}"]
        for fname in funcs:
            original = getattr(home, fname)
            traced = tracer.wrap(f"{mod}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)


def summarize(dumps) -> dict:
    """Per-layer metrics from the dumps of every traced process of one run.

    Self time is a span's duration minus the durations of its direct child
    spans, which lie inside it because calls nest.
    """
    calls, total, self_s = {}, {}, {}
    notes = {}
    pair_evals = 0
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        child = [0.0] * len(spans)
        for idx, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for span_id, (idx, start, end, _) in enumerate(spans):
            name = names[idx]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[span_id])
        for name, rows in dump["notes"].items():
            notes.setdefault(name, []).extend(rows)
        # one dataset per process, so every traffic-ring call sees one
        # segment list
        n_segments = max(dump["notes"].get("covariates.ring_ttv", [0]))
        pair_evals += len(dump["notes"].get(
            "covariates.site_static_covariates", [])) * n_segments

    out = {}
    for mod, funcs in WRAPPED.items():
        for fname in funcs:
            name = f"{mod}.{fname}"
            if name not in SELF_ONLY:
                out[f"{name}.calls"] = (calls.get(name, 0), "count")
                out[f"{name}.total_s"] = (total.get(name, 0.0), "s")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    static = notes.get("covariates.site_static_covariates", [])
    out["covariates.pair_evals"] = (pair_evals, "count")
    distinct = len({(x, y) for x, y in static})
    out["covariates.static_distinct_ratio"] = (
        distinct / len(static) if static else 1.0, "ratio")
    out["step1.cov_entries"] = (
        sum(n * (n - 1) // 2 for n in notes.get("step1.cov_matrix", [])), "count")
    out["prediction.covariate_value_calls"] = (
        sum(notes.get("prediction.c_tilde_for_day", [])), "count")
    return out


#: Per-layer metrics that are counts computed from span notes, not timings.
COMPUTED = (
    "covariates.pair_evals", "covariates.static_distinct_ratio",
    "step1.cov_entries",
    "prediction.covariate_value_calls",
)
