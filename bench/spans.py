"""Spans around the package's public functions, from outside the package.

Each traced function is wrapped once and the wrapper is bound under the
function's name in every ``reclaim`` module that looks it up there (for
instance ``reclaim.cli.load_instance`` and
``reclaim.continuous.topological_order``). No program file changes; the
originals come back when the tracer is closed.

Spans (name, start, end, parent) stay in memory. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import logging
import sys
import time

# (module that defines it, function name, layer metric prefix)
TRACED = [
    ("reclaim.cli", "main", "cli"),
    ("reclaim.graph", "load_instance", "graph.load_instance"),
    ("reclaim.graph", "load_schedule", "graph.load_schedule"),
    ("reclaim.graph", "topological_order", "graph.topological_order"),
    ("reclaim.graph", "asap_times", "graph.asap_times"),
    ("reclaim.graph", "evaluate_schedule", "graph.evaluate_schedule"),
    ("reclaim.graph", "schedule_to_obj", "graph.schedule_to_obj"),
    ("reclaim.structure", "detect_structure", "structure.detect_structure"),
    ("reclaim.structure", "as_tree", "structure.as_tree"),
    ("reclaim.structure", "as_spg", "structure.as_spg"),
    ("reclaim.continuous", "solve_independent", "continuous.closed_form"),
    ("reclaim.continuous", "solve_chain", "continuous.closed_form"),
    ("reclaim.continuous", "solve_fork_join", "continuous.closed_form"),
    ("reclaim.continuous", "solve_tree", "continuous.closed_form"),
    ("reclaim.continuous", "solve_spg", "continuous.closed_form"),
    ("reclaim.continuous", "solve_dag", "continuous.solve_dag"),
    ("reclaim.continuous", "power_profile", "continuous.power_profile"),
    ("reclaim.vdd", "build_lp", "vdd.build_lp"),
    ("reclaim.vdd", "solve_vdd", "vdd.solve_vdd"),
    ("reclaim.simplex", "solve", "simplex.solve"),
    ("reclaim.discrete", "solve_exact", "discrete.solve_exact"),
    ("reclaim.discrete", "approx_incremental", "discrete.approx"),
    ("reclaim.discrete", "approx_discrete", "discrete.approx"),
]


class _Pivots(logging.Handler):
    """Reads the pivot count from the simplex's end-of-solve DEBUG record."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.count = 0

    def emit(self, record):
        if record.msg.startswith("simplex finished"):
            self.count += int(record.args[0])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.lp_variables = 0
        self.lp_rows = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._pivots = _Pivots()
        self._log_state = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        on_lp = name == "vdd.build_lp"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_lp:
                self.lp_variables += len(out.var_names)
                self.lp_rows += len(out.row_names)
            return out

        return traced

    def open(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "reclaim"]
        for home, attr, name in TRACED:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        # The CLI silences the package logger on every call; a level set on
        # the child logger still lets the simplex's DEBUG record through.
        log = logging.getLogger("reclaim.simplex")
        self._log_state = (log.level, log.propagate)
        log.setLevel(logging.DEBUG)
        log.propagate = False
        log.addHandler(self._pivots)

    def close(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()
        log = logging.getLogger("reclaim.simplex")
        log.removeHandler(self._pivots)
        log.setLevel(self._log_state[0])
        log.propagate = self._log_state[1]

    @property
    def pivots(self) -> int:
        return self._pivots.count

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Layer name -> (total self seconds, number of spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - inner, calls + 1)
        return out
