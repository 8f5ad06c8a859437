"""Spans and self times around the calls into each gevreylab layer.

The tracer replaces a function at every binding a caller looks up (the
defining module, every module that imported it by name, and the class for
methods) with a wrapper that times the call on one span stack.  Self time
is a call's duration minus the time covered by wrapped calls made inside
it, so the self times of all calls plus the time outside any span add up
to the traced wall time.

Stage calls are kept as spans with parent ids.  Kernel calls, which run
~10^5 times per pass, are aggregated per (function, parent stage span).
"""

from __future__ import annotations

import sys
import time

# (metric name, module, attribute path, kernel?)
TARGETS = [
    ("dsl.parse_problem", "gevreylab.dsl", "parse_problem", False),
    ("dsl.serialize", "gevreylab.dsl", "ProblemDocument.serialize", False),
    ("cli.cmd_check", "gevreylab.cli", "cmd_check", False),
    ("cli.cmd_solve", "gevreylab.cli", "cmd_solve", False),
    ("cli.cmd_estimate", "gevreylab.cli", "cmd_estimate", False),
    ("cli.cmd_examples", "gevreylab.cli", "cmd_examples", False),
    ("registry.run_example", "gevreylab.registry", "run_example", False),
    ("registry.verify", "gevreylab.registry", "ENTRIES.*.verify", False),
    ("diffops.check_divisibility", "gevreylab.diffops", "check_divisibility", False),
    ("diffops.faadibruno", "gevreylab.diffops", "faadibruno", False),
    ("diffops.apply", "gevreylab.diffops", "DiffOperator.apply", True),
    ("diffops.star", "gevreylab.diffops", "DiffOperator.star", True),
    ("solver.with_trunc", "gevreylab.solver", "ProblemSpec.with_trunc", False),
    ("solver.reduce_problem", "gevreylab.solver", "reduce_problem", False),
    ("solver.solve_implicit", "gevreylab.solver", "solve_implicit", False),
    ("solver.invert_series_matrix", "gevreylab.solver", "invert_series_matrix", False),
    ("solver.build_lifted", "gevreylab.solver", "build_lifted", False),
    ("solver.solve_lifted", "gevreylab.solver", "solve_lifted", False),
    ("solver._tail_monomial_coeff", "gevreylab.solver", "_tail_monomial_coeff", False),
    ("solver.solve_p_expansion", "gevreylab.solver", "solve_p_expansion", False),
    ("solver.solve_direct", "gevreylab.solver", "solve_direct", False),
    ("solver._solve_linear", "gevreylab.solver", "_solve_linear", False),
    ("solver.evaluate", "gevreylab.solver", "PExpansion.evaluate", False),
    ("solver.residual", "gevreylab.solver", "ProblemSpec.residual", False),
    ("solver.norms", "gevreylab.solver", "PExpansion.norms", False),
    ("solver.check_poincare", "gevreylab.solver", "check_poincare", False),
    ("series.mul", "gevreylab.series", "Series.__mul__", True),
    ("series.add", "gevreylab.series", "Series.__add__", True),
    ("series.diff", "gevreylab.series", "Series.diff", True),
    ("series.divide_exact", "gevreylab.series", "Series.divide_exact", True),
    ("series.homogeneous", "gevreylab.series", "Series.homogeneous", True),
    ("series.init", "gevreylab.series", "Series.__init__", True),
    ("series.to_json", "gevreylab.series", "Series.to_json", True),
    ("gevrey.theoretical_order", "gevreylab.gevrey", "theoretical_order", False),
    ("gevrey.estimate_order", "gevreylab.gevrey", "estimate_order", False),
]

LAYERS = ("dsl", "cli", "registry", "diffops", "solver", "series", "gevrey")


def _mul_pairs(a, b, *_):
    """Term pairs a product visits: len(a.terms) * len(b.terms)."""
    other = getattr(b, "terms", None)
    return len(a.terms) * len(other) if other is not None else 0


COUNTERS = {"series.mul": ("series.mul.pairs", _mul_pairs)}


class Tracer:
    """Collects spans, per-function calls and self times while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []      # frames: [child_time, stage_span_id]
        self.spans: list[dict] = []      # stage spans with parent ids
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.kernels: dict[tuple[str, int | None], list] = {}
        self.counters: dict[str, int] = {}
        self.covered_s = 0.0             # time inside outermost spans
        self.wrapped: list[str] = []     # names that were found and wrapped
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name: str, kernel: bool, counter=None):
        tracer = self
        clock = self.clock
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        counter_name, count = counter or (None, None)
        if counter_name:
            self.counters.setdefault(counter_name, 0)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][1] if stack else None
            if kernel:
                span_id = parent
            else:
                span_id = len(tracer.spans)
                tracer.spans.append({"id": span_id, "name": name,
                                     "parent": parent})
            if count is not None:
                tracer.counters[counter_name] += count(*args)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.covered_s += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                if kernel:
                    agg = tracer.kernels.setdefault((name, parent), [0, 0.0])
                    agg[0] += 1
                    agg[1] += own
                else:
                    span = tracer.spans[span_id]
                    span["start"] = start
                    span["end"] = end
                    span["self_s"] = own

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self, targets=TARGETS):
        """Wrap every target that exists; a missing one is skipped, so its
        metrics are absent rather than an error."""
        for name, module, path, kernel in targets:
            mod = sys.modules.get(module)
            if mod is None:
                continue
            if path.startswith("ENTRIES.*."):
                self._install_entries(mod, name, path.rsplit(".", 1)[1])
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None:
                continue
            fn = (owner.__dict__.get(attr) if owner_name
                  else getattr(owner, attr, None))
            if fn is None:
                continue
            wrapper = self.wrap(fn, name, kernel, COUNTERS.get(name))
            self.wrapped.append(name)
            if owner_name:
                self._patch(owner, attr, fn, wrapper)
            else:
                for other in list(sys.modules.values()):
                    if (getattr(other, "__name__", "").startswith("gevreylab")
                            and getattr(other, attr, None) is fn):
                        self._patch(other, attr, fn, wrapper)

    def _install_entries(self, mod, name, attr):
        entries = getattr(mod, "ENTRIES", None)
        if not entries:
            return
        for entry in entries.values():
            fn = getattr(entry, attr, None)
            if fn is not None:
                self._patch(entry, attr, fn, self.wrap(fn, name, False))
        self.wrapped.append(name)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def calls_by_root(self) -> dict[str, dict[str, int]]:
        """Stage calls grouped by the outermost span they ran under."""
        root = {}
        out: dict[str, dict[str, int]] = {}
        for span in self.spans:    # parents precede their children
            parent = span["parent"]
            root[span["id"]] = span["name"] if parent is None else root[parent]
            counts = out.setdefault(root[span["id"]], {})
            counts[span["name"]] = counts.get(span["name"], 0) + 1
        return out

    def kernel_table(self) -> list[dict]:
        """Kernel calls aggregated per (function, parent stage name)."""
        rows: dict[tuple[str, str], list] = {}
        for (name, parent), (calls, own) in self.kernels.items():
            stage = self.spans[parent]["name"] if parent is not None else None
            row = rows.setdefault((name, stage), [0, 0.0])
            row[0] += calls
            row[1] += own
        return [{"fn": fn, "stage": stage, "calls": c, "self_s": s}
                for (fn, stage), (c, s) in sorted(
                    rows.items(), key=lambda kv: -kv[1][1])]
