"""Span tracing of the library from outside its source.

`Tracer.install()` replaces the functions the program calls through module
attributes (`lowdp.pipeline.run_pmm`, `lowdp.psmm.linprog`, ...) with
wrappers that record a span (name, start, end, parent, trial) and the
counts taken at that boundary.  Spans are only recorded while a trial is
open; calls made outside trials, such as the output checks, pass straight
through.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _draws(args, kwargs, result):
    return {"draws": int(np.size(result))}


def _matrix_draws(args, kwargs, result):
    d = int(args[0])
    return {"draws": d * (d + 1) // 2}


def _lp_columns(args, kwargs, result):
    return {"columns": int(result.x.size), "nonzero": int((np.abs(result.x) > 1e-12).sum())}


# (module, attribute, span name, counter) for every wrapped call site
CALL_SITES = [
    ("lowdp.pipeline", "private_covariance", "pca.private_covariance", None),
    ("lowdp.pipeline", "select_dimension", "pca.select_dimension", None),
    ("lowdp.pipeline", "noisy_projection", "pca.noisy_projection", None),
    ("lowdp.pipeline", "run_pmm", "pmm.run_pmm", None),
    ("lowdp.pipeline", "run_psmm", "psmm.run_psmm", None),
    ("lowdp.pipeline", "projection_diagnostics", "metrics.projection_diagnostics", None),
    ("lowdp.pipeline", "sample_laplace", "noise.sample", _draws),
    ("lowdp.pca", "centered_covariance", "pca.centered_covariance", None),
    ("lowdp.pca", "sample_symmetric_laplace_matrix", "noise.sample", _matrix_draws),
    ("lowdp.pca", "sample_laplace", "noise.sample", _draws),
    ("lowdp.pmm", "sample_integer_laplace", "noise.sample", _draws),
    ("lowdp.pmm", "noisy_counts", "pmm.noisy_counts", lambda a, k, r: {"leaves": 1 << r.depth}),
    ("lowdp.pmm", "enforce_consistency", "pmm.enforce_consistency", None),
    (
        "lowdp.pmm",
        "sample_synthetic",
        "pmm.sample_synthetic",
        lambda a, k, r: {"nonempty_leaves": int((a[0].consistent[a[0].depth] > 0).sum())},
    ),
    ("lowdp.pmm", "max_leaf_side", "pmm.max_leaf_side", None),
    ("lowdp.psmm", "sample_integer_laplace", "noise.sample", _draws),
    ("lowdp.psmm", "build_lattice", "psmm.build_lattice", lambda a, k, r: {"anchors": r.size}),
    ("lowdp.psmm", "cell_counts", "psmm.cell_counts", None),
    ("lowdp.psmm", "project_to_probability", "psmm.project_to_probability", None),
    ("lowdp.psmm", "linprog", "psmm.highs", _lp_columns),
    ("lowdp.psmm", "measure_to_points", "psmm.measure_to_points", None),
    ("lowdp.metrics", "ground_distances", "metrics.ground_distances", None),
    ("lowdp.metrics", "linprog", "metrics.highs", _lp_columns),
    ("lowdp.metrics", "linear_sum_assignment", "metrics.assignment", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.trial = None
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        """Record one span; yields its record (None outside a trial)."""
        if self.trial is None:
            yield None
            return
        record = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "trial": self.trial,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def install(self):
        for module_name, attr, name, counter in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, counter))
            self._saved.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, original, name, counter):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self.trial is None:
                return original(*args, **kwargs)
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if counter is not None:
                    record["counts"].update(counter(args, kwargs, result))
            return result

        return traced

    def trial_totals(self, trial) -> dict:
        """Per span name: summed duration, summed self time, summed counts, calls."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s["trial"] == trial]
        child_time = {}
        for _, s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        totals = {}
        for i, s in spans:
            t = totals.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})
            duration = s["end"] - s["start"]
            t["s"] += duration
            t["self_s"] += duration - child_time.get(i, 0.0)
            t["calls"] += 1
            for key, value in s["counts"].items():
                t["counts"][key] = t["counts"].get(key, 0) + value
        return totals


def layer_metrics(per_trial: list) -> dict:
    """Per-layer metrics: medians over trials of each trial's figures.

    `per_trial` holds, for each trial, the `trial_totals` dict plus the
    entry "distinct_atom_ratio" the worker measured.
    A layer the workload does not run reads 0.
    """

    def per(t, name, field="s"):
        entry = t.get(name)
        return entry[field] if entry else 0.0

    def count(t, name, key):
        entry = t.get(name)
        return entry["counts"].get(key, 0) if entry else 0

    def ratio(a, b):
        return a / b if b else 0.0

    rows = []
    for t in per_trial:
        sampled = per(t, "metrics.wasserstein1_sampled")
        row = {
            "pipeline.generate_s": per(t, "pipeline.generate"),
            "pipeline.self_s": per(t, "pipeline.generate", "self_s"),
            "pca.private_covariance_s": per(t, "pca.private_covariance"),
            "pca.centered_covariance_s": per(t, "pca.centered_covariance"),
            "pca.noisy_projection_s": per(t, "pca.noisy_projection"),
            "noise.sample_s": per(t, "noise.sample"),
            "noise.draws": count(t, "noise.sample", "draws"),
            "pmm.run_pmm_s": per(t, "pmm.run_pmm"),
            "pmm.noisy_counts_s": per(t, "pmm.noisy_counts"),
            "pmm.enforce_consistency_s": per(t, "pmm.enforce_consistency"),
            "pmm.sample_synthetic_s": per(t, "pmm.sample_synthetic"),
            "pmm.max_leaf_side_s": per(t, "pmm.max_leaf_side"),
            "pmm.leaves": count(t, "pmm.noisy_counts", "leaves"),
            "pmm.nonempty_leaf_ratio": ratio(
                count(t, "pmm.sample_synthetic", "nonempty_leaves"), count(t, "pmm.noisy_counts", "leaves")
            ),
            "psmm.run_psmm_s": per(t, "psmm.run_psmm"),
            "psmm.build_lattice_s": per(t, "psmm.build_lattice"),
            "psmm.cell_counts_s": per(t, "psmm.cell_counts"),
            "psmm.project_to_probability_s": per(t, "psmm.project_to_probability"),
            "psmm.highs_s": per(t, "psmm.highs"),
            "psmm.lp_solves": per(t, "psmm.highs", "calls"),
            "psmm.lp_columns": count(t, "psmm.highs", "columns"),
            "psmm.lp_column_use_ratio": ratio(count(t, "psmm.highs", "nonzero"), count(t, "psmm.highs", "columns")),
            "psmm.measure_to_points_s": per(t, "psmm.measure_to_points"),
            "psmm.anchors": count(t, "psmm.build_lattice", "anchors"),
            "metrics.projection_diagnostics_s": per(t, "metrics.projection_diagnostics"),
            "metrics.wasserstein1_s": per(t, "metrics.wasserstein1"),
            "metrics.highs_s": per(t, "metrics.highs"),
            "metrics.lp_cells": count(t, "metrics.highs", "columns"),
            "metrics.plan_support_ratio": ratio(count(t, "metrics.highs", "nonzero"), count(t, "metrics.highs", "columns")),
            "metrics.distinct_atom_ratio": t["distinct_atom_ratio"],
            "metrics.wasserstein1_sampled_s": sampled,
            "metrics.ground_distances_s": per(t, "metrics.ground_distances"),
            "metrics.assignment_s": per(t, "metrics.assignment"),
            "metrics.sampled_other_s": (
                sampled - per(t, "metrics.ground_distances") - per(t, "metrics.assignment") if sampled else 0.0
            ),
        }
        rows.append(row)
    return {name: statistics.median(r[name] for r in rows) for name in rows[0]}
