"""Layer spans recorded from outside the library, for traced runs only.

``LayerTracer`` wraps the public functions listed in ``LAYERS`` and rebinds
every reference a ``contracta.*`` module holds to them, so calls between
modules go through the wrapper. Each call records a span (layer, start, end,
parent span, task, outcome); ``solve_lp`` and ``remove_redundancy`` also
record row counts. Leaving the ``with`` block restores the original
functions. Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from time import perf_counter

import numpy as np

LAYERS = (
    ("lp", "solve_lp"),
    ("polytope", "remove_redundancy"),
    ("polytope", "project"),
    ("polytope", "validate_cset"),
    ("polytope", "support"),
    ("polytope", "is_subset"),
    ("polytope", "vertices"),
    ("onestep", "one_step_set"),
    ("onestep", "is_lambda_contractive"),
    ("onestep", "iterate"),
    ("metric", "set_distance"),
    ("certificate", "compute_certificate"),
    ("numerics", "singular_extremes"),
    ("numerics", "spectral_norm"),
    ("numerics", "matrix_power"),
    ("planner", "epsilon_plan"),
    ("planner", "select_lambda"),
    ("planner", "approximate_cmax1"),
    ("seeds", "accept_user_seed"),
    ("scenario", "run_scenario_dict"),
    ("reproduce", "run"),
)
# Layers whose call count is left out of the reported metrics: one call per
# task, so the count says nothing the task count does not.
_SELF_ONLY = {"scenario.run_scenario_dict", "reproduce.run"}


class TaskCounts:
    """Per-task counts compared between two traced passes."""

    __slots__ = ("lp_calls", "lp_rows", "rr_rows_in", "rr_rows_out")

    def __init__(self):
        self.lp_calls = 0
        self.lp_rows = 0
        self.rr_rows_in: list[int] = []
        self.rr_rows_out: list[int] = []

    def key(self) -> tuple:
        return (self.lp_calls, self.lp_rows, tuple(self.rr_rows_in), tuple(self.rr_rows_out))


class LayerTracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in LAYERS]
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.spans: list[tuple | None] = []
        self.task = -1
        self.tasks: dict[int, TaskCounts] = {}
        self.lp_rows = []
        self.lp_nonoptimal = 0
        self.lp_cells = 0
        self.rr_rows_in = 0
        self.rr_rows_out = 0
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "contracta" or name.startswith("contracta."))
        ]
        for idx, (mod, fn) in enumerate(LAYERS):
            original = getattr(importlib.import_module(f"contracta.{mod}"), fn)
            wrapped = self._wrap(idx, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._restore.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def start_task(self, index: int) -> None:
        """Attribute the following calls, until the next ``start_task``, to
        task ``index``."""
        self.task = index
        self.tasks[index] = TaskCounts()

    def _wrap(self, idx: int, fn):
        after = {"lp.solve_lp": self._after_lp, "polytope.remove_redundancy": self._after_rr}.get(
            self.names[idx]
        )
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            frame = [0.0, sid]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            outcome = "ok"
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[idx] += 1
                self.self_s[idx] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                spans[sid] = (idx, start, end, parent, self.task, outcome)
            if after is not None:
                after(sid, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_lp(self, sid, args, kwargs, outcome) -> None:
        prob = args[0] if args else kwargs["prob"]
        nvars = np.size(prob.objective)
        rows = np.shape(prob.A)[0] if np.size(prob.A) else 0
        for bound in (prob.lower, prob.upper):
            if bound is not None:
                rows += int(np.count_nonzero(np.isfinite(bound)))
        self.lp_rows.append(rows)
        self.lp_cells += rows * (2 * nvars + rows + 1)
        if not outcome.optimal:
            self.lp_nonoptimal += 1
        counts = self.tasks[self.task]
        counts.lp_calls += 1
        counts.lp_rows += rows
        self.spans[sid] = self.spans[sid][:5] + (outcome.status.value,)

    def _after_rr(self, sid, args, kwargs, reduced) -> None:
        rows_in = (args[0] if args else kwargs["p"]).nfacets
        self.rr_rows_in += rows_in
        self.rr_rows_out += reduced.nfacets
        counts = self.tasks[self.task]
        counts.rr_rows_in.append(rows_in)
        counts.rr_rows_out.append(reduced.nfacets)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for idx, name in enumerate(self.names):
            if name not in _SELF_ONLY:
                out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.self_s"] = (self.self_s[idx], "s")
            if name == "lp.solve_lp":
                rows = self.lp_rows
                out["lp.solve_lp.rows_mean"] = (float(np.mean(rows)) if rows else 0.0, "rows")
                out["lp.solve_lp.rows_max"] = (max(rows, default=0), "rows")
                out["lp.solve_lp.cells_computed"] = (self.lp_cells, "cells")
                out["lp.solve_lp.nonoptimal"] = (self.lp_nonoptimal, "count")
            elif name == "polytope.remove_redundancy":
                out["polytope.remove_redundancy.rows_in"] = (self.rr_rows_in, "rows")
                out["polytope.remove_redundancy.rows_out"] = (self.rr_rows_out, "rows")
                ratio = self.rr_rows_out / self.rr_rows_in if self.rr_rows_in else 0.0
                out["polytope.remove_redundancy.kept_ratio"] = (ratio, "ratio")
        return out

    def total_self_s(self) -> float:
        return float(sum(self.self_s))

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: span, layer, start_s, end_s, parent, task, outcome."""
        origin = min((s[1] for s in self.spans if s is not None), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,layer,start_s,end_s,parent,task,outcome\n")
            for sid, span in enumerate(self.spans):
                idx, start, end, parent, task, outcome = span
                fh.write(
                    f"{sid},{self.names[idx]},{start - origin:.9f},{end - origin:.9f},"
                    f"{parent},{task},{outcome}\n"
                )
