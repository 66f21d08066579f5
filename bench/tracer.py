"""Span tracer that times fifolab's public functions from outside the package.

While a :class:`Tracer` is entered, each traced function is replaced by a
wrapper in every fifolab module that holds a reference to it, so a call is
timed wherever its caller looks the name up (``fifolab.analysis.dp_opt`` as
well as ``fifolab.offline.dp_opt``). Leaving the tracer restores the
originals. Spans stay in memory as ``[name, start, end, parent, counts]``
lists until :func:`layer_metrics` folds them into per-layer metrics, each
for one set-up and one pass over the inputs.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from types import ModuleType

# The package's layers and the public functions timed in each. theory and
# cli are left out: they take microseconds and sit on no hot path.
TRACED = {
    "model": ("format_instance", "parse_instance", "validate_instance"),
    "simulate": ("run", "format_trace", "replay_buffer_states"),
    "offline": ("feasible", "brute_force_opt", "opt_containing", "dp_opt"),
    "analysis": ("run_ropt", "verify_ropt", "build_ledger", "verify_ledger", "analyze"),
    "generators": ("random_instance",),
}
SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in TRACED.items() for name in names)


def _run_counts(trace) -> dict[str, int]:
    events = trace.events
    idle = sum(1 for e in events if e.kind.value == "idle")
    return {"events": len(events), "idle_events": idle, "steps": events[-1].step if events else 0}


# Work counts read from a function's result, at the boundary where the work happens.
COUNTERS = {
    "simulate.run": _run_counts,
    "simulate.format_trace": lambda text: {"bytes": len(text)},
}


class Tracer:
    """Wraps the functions in TRACED across the given fifolab modules."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[ModuleType, str, object, object]] = []
        for layer, names in TRACED.items():
            for name in names:
                original = getattr(modules[layer], name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules.values():
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))

    def __enter__(self) -> "Tracer":
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """One JSON list per line: name, start, end, parent span index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, _ in self.spans:
                out.write(json.dumps([name, start, end, parent]) + "\n")


def layer_metrics(spans: list[list], setup_spans: int, passes: float) -> dict[str, tuple[float, str]]:
    """Per-function time, self time and call count, plus work counts.

    Every figure is for one traced set-up plus one traced pass over the
    inputs: the first `setup_spans` spans (the traced set-up) count once and
    the rest are divided by `passes`, the number of traced passes, so the
    figures do not grow with the number of passes that fitted in the run.

    Self time is a span's duration minus the durations of its direct child
    spans; spans of one thread never overlap, so that is the uncovered part.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    own = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0.0)
    counts = {"events": 0.0, "idle_events": 0.0, "steps": 0.0, "bytes": 0.0}
    dp_in_analyze = recorded = 0.0
    for i, (name, start, end, parent, found) in enumerate(spans):
        weight = 1.0 if i < setup_spans else 1.0 / passes
        recorded += weight
        total[name] += (end - start) * weight
        own[name] += (end - start - child[i]) * weight
        calls[name] += weight
        for key, value in (found or {}).items():
            counts[key] += value * weight
        if name == "offline.dp_opt" and _has_ancestor(spans, parent, "analysis.analyze"):
            dp_in_analyze += weight
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.s"] = (total[name], "s")
        metrics[f"{name}.self_s"] = (own[name], "s")
        metrics[f"{name}.calls"] = (calls[name], "count")
    metrics["simulate.run.events"] = (counts["events"], "count")
    metrics["simulate.run.idle_events"] = (counts["idle_events"], "count")
    metrics["simulate.run.idle_share"] = (
        counts["idle_events"] / counts["steps"] if counts["steps"] else 0.0,
        "ratio",
    )
    metrics["simulate.format_trace.bytes"] = (counts["bytes"], "B")
    analyze_calls = calls["analysis.analyze"]
    metrics["offline.dp_opt.calls_per_analyze"] = (
        dp_in_analyze / analyze_calls if analyze_calls else 0.0,
        "ratio",
    )
    metrics["trace.spans"] = (recorded, "count")
    return metrics


def _has_ancestor(spans: list[list], index: int | None, name: str) -> bool:
    while index is not None:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
