"""In-memory spans around the public functions of each panelur layer.

A `Tracer` replaces every ``panelur.*`` module attribute that *is* one of
the traced functions with a wrapper that records a span (name, start, end,
parent). Patching every alias, not just the defining module, keeps the spans
in place when a call site moves to another module. Spans stay in memory
while the benchmark runs and are written out once it ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

LAYERS = ("dgp", "panel", "factors", "lrv", "statistics", "harness", "cli")

# Public functions traced, as "<module>.<function>"; the module is the layer.
TRACED = (
    "dgp.simulate",
    "panel.difference",
    "factors.select_num_factors",
    "factors.estimate_factors",
    "lrv.estimate_lrv_set",
    "statistics.precision_matrix",
    "statistics.ump_statistics",
    "statistics.t_ump",
    "statistics.t_ump_emp",
    "statistics.bn_tests",
    "statistics.mp_tests",
    "harness.run",
    "harness.run_single",
    "cli.main",
    "cli.load_panel_csv",
)


class Tracer:
    """Records spans while installed; `uninstall` restores the originals."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._raised: list[BaseException] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # Count an exception once, in the innermost layer it leaves.
                if not any(exc is seen for seen in self._raised):
                    self._raised.append(exc)
                    self.errors[layer] += 1
                raise
            finally:
                spans[index] = (name, start, time.perf_counter_ns(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        originals = {}
        for name in TRACED:
            module, attr = name.split(".")
            originals[name] = getattr(importlib.import_module(f"panelur.{module}"), attr)
        wrappers = {name: self._wrap(name, fn) for name, fn in originals.items()}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "panelur" or key.startswith("panelur."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                for name, fn in originals.items():
                    if value is fn:
                        setattr(module, attr, wrappers[name])
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-function call counts and inclusive time, per-layer self time.

        A span's self time is its duration minus the durations of its direct
        children, which run inside it on the same thread.
        """
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total_ns[name] += end - start
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        for (name, start, end, _), children in zip(self.spans, child_ns):
            self_ns[name.split(".", 1)[0]] += end - start - children
        return {"calls": calls, "total_ns": total_ns, "layer_self_ns": self_ns,
                "errors": self.errors}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh)
