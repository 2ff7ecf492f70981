"""Span tracing from outside the package, by rebinding the names callers look up.

Only the traced run installs these wrappers. Each wrapper records a span
(name, start, end, parent span, episode id) in memory; counts that a layer's
return value carries (kernel cells, greedy evaluations, fit epochs) are read
at the same boundary. Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("kernels", "setfunctions", "maximize", "core", "baselines", "simulator", "cli")
BASELINE_SELECTORS = (
    "random_select",
    "uncertainty_select",
    "submodular_fl_select",
    "similar_select",
    "badge_select",
)


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, episode)
        self._stack: list[int] = []
        self.episode = -1
        self.counts: Counter = Counter()
        self.reports: list = []  # (branch, gamma_after, top-2 score margin) per round

    def span(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.episode)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- what each boundary counts -------------------------------------

    def _on_kernel(self, args, result):
        self.counts["kernels.build_kernel.cells"] += int(result.values.size)

    def _on_maximize(self, args, result):
        self.counts["maximize.picks"] += len(result.chosen)
        self.counts["maximize.evaluations"] += int(result.evaluations)

    def _on_pool_add(self, args, result):
        self.counts["core.pool_add.rows"] += len(args[2])

    def _on_fit(self, args, result):
        self.counts["simulator.fit_logistic.epochs"] += len(result.loss_history) - 1

    def _on_round(self, args, result):
        report = result[0]
        top = sorted(report.scores, reverse=True)
        margin = float(top[0] - top[1]) if len(top) > 1 else 0.0
        self.reports.append((report.decision.branch, float(report.gamma_after), margin))

    def _on_evaluate(self, args, result):
        self.episode += 1

    def _bindings(self):
        """(owner, attribute, span name or None for a bare counter, on_result)."""
        import streamline
        import streamline.baselines
        import streamline.cli
        import streamline.core
        import streamline.simulator

        core, sim, base, cli = streamline.core, streamline.simulator, streamline.baselines, streamline.cli
        out = [
            (core, "build_kernel", "kernels.build_kernel", self._on_kernel),
            (base, "build_kernel", "kernels.build_kernel", self._on_kernel),
            (core, "smidentify_scores", "setfunctions.smidentify_scores", None),
            (core, "maximize", "maximize", self._on_maximize),
            (base, "maximize", "maximize", self._on_maximize),
            (core, "smidentify", "core.smidentify", None),
            (core, "slice_aware_budget", "core.slice_aware_budget", None),
            (core, "scg_select", "core.scg_select", None),
            (core.SlicedLabeledPool, "add", "core.pool_add", self._on_pool_add),
            (streamline, "streamline_round", "core.streamline_round", self._on_round),
            (sim, "streamline_round", "core.streamline_round", self._on_round),
            (sim, "generate_stream", "simulator.generate_stream", None),
            (sim, "fit_logistic", "simulator.fit_logistic", self._on_fit),
            (sim, "logistic_loss_and_grad", None, None),
            (sim, "evaluate", "simulator.evaluate", self._on_evaluate),
            (cli, "run_experiment", "simulator.run_experiment", None),
            (cli, "run", "cli.run", None),
        ]
        out += [(sim, name, f"baselines.{name}", None) for name in BASELINE_SELECTORS]
        return out

    @contextmanager
    def active(self):
        """Rebind every traced name for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, on_result in self._bindings():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                if name is None:
                    wrapped = self.counter("simulator.loss_and_grad.calls", original)
                else:
                    wrapped = self.span(name, original, on_result)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- aggregation ------------------------------------------------------

    def summary(self, wall_s: float, untraced_wall_s: float, rounds_per_stream: int) -> dict:
        """Per-layer metrics over every span recorded so far."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy, selft, calls = defaultdict(float), defaultdict(float), Counter()
        layer_self = {layer: 0.0 for layer in LAYERS}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            own = (end - start) - child[idx]
            busy[name] += end - start
            selft[name] += own
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += own

        c = self.counts
        m = {
            "kernels.build_kernel.calls": calls["kernels.build_kernel"],
            "kernels.build_kernel.busy_s": busy["kernels.build_kernel"],
            "kernels.build_kernel.cells": c["kernels.build_kernel.cells"],
            "kernels.build_kernel.bytes_computed": 8 * c["kernels.build_kernel.cells"],
            "setfunctions.smidentify_scores.busy_s": busy["setfunctions.smidentify_scores"],
            "maximize.calls": calls["maximize"],
            "maximize.busy_s": busy["maximize"],
            "maximize.picks": c["maximize.picks"],
            "maximize.evaluations": c["maximize.evaluations"],
            "maximize.evals_per_pick": c["maximize.evaluations"] / max(c["maximize.picks"], 1),
        }
        for name in ("smidentify", "scg_select"):
            m[f"core.{name}.busy_s"] = busy[f"core.{name}"]
            m[f"core.{name}.self_s"] = selft[f"core.{name}"]
        m["core.slice_aware_budget.busy_s"] = busy["core.slice_aware_budget"]
        m["core.pool_add.busy_s"] = busy["core.pool_add"]
        m["core.pool_add.rows"] = c["core.pool_add.rows"]
        m["core.streamline_round.calls"] = calls["core.streamline_round"]
        m["core.streamline_round.self_s"] = selft["core.streamline_round"]
        m.update(self._budget_metrics(rounds_per_stream))
        for name in BASELINE_SELECTORS:
            m[f"baselines.{name}.calls"] = calls[f"baselines.{name}"]
            m[f"baselines.{name}.busy_s"] = busy[f"baselines.{name}"]
        fit_calls = calls["simulator.fit_logistic"]
        lg_calls = c["simulator.loss_and_grad.calls"]
        epochs = c["simulator.fit_logistic.epochs"]
        m.update(
            {
                "simulator.generate_stream.busy_s": busy["simulator.generate_stream"],
                "simulator.fit_logistic.calls": fit_calls,
                "simulator.fit_logistic.busy_s": busy["simulator.fit_logistic"],
                "simulator.fit_logistic.epochs": epochs,
                "simulator.fit_logistic.share": busy["simulator.fit_logistic"] / wall_s,
                "simulator.loss_and_grad.calls": lg_calls,
                # Each fit makes one loss/grad call before its first step;
                # every later call is one attempted step.
                "simulator.fit_logistic.accept_ratio": epochs / max(lg_calls - fit_calls, 1),
                "simulator.evaluate.busy_s": busy["simulator.evaluate"],
                "cli.run.busy_s": busy["cli.run"],
                "cli.run.self_s": selft["cli.run"],
            }
        )
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        m["trace.wall_s"] = wall_s
        m["trace.spans"] = len(self.spans)
        m["trace.overhead_ratio"] = wall_s / untraced_wall_s
        return m

    def _budget_metrics(self, rounds_per_stream: int) -> dict:
        """Rare-branch rounds, mean gamma left at stream ends, smallest top-2 margin."""
        rare = sum(1 for branch, _, _ in self.reports if branch == "rare")
        ends = [
            gamma
            for branch, gamma, _ in self.reports[rounds_per_stream - 1 :: rounds_per_stream]
            if branch != "fixed"
        ]
        margins = [margin for _, _, margin in self.reports]
        return {
            "core.budget.rare_rounds": rare,
            "core.budget.gamma_final": sum(ends) / len(ends) if ends else 0.0,
            "core.identify.margin_min": min(margins) if margins else 0.0,
        }
