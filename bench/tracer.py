"""Span tracing for the benchmark's traced runs, from outside the program.

`engine` and `cli` bind their callees with `from ... import`, so a call is
traced by replacing the name in the calling module while a `Tracer` is
active. Each call becomes one span (name, start, end, parent); spans stay in
memory and `per_layer` reduces them to the benchmark's per-layer metrics.
Leaving the `with` block puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

TRACED = {
    "fedpod.cli": ("parse_config", "execute_run", "run_experiment"),
    "fedpod.engine": (
        "generate_synthetic_cohort",
        "load_partition_csv",
        "synthesize_shards",
        "make_blob_shard",
        "compose_task",
        "train_local",
        "sample_timings",
        "detect_stragglers",
        "round_time",
        "compute_weights",
        "aggregate",
        "predict_labels",
        "dice_score",
    ),
}


def _cohort_counts(args, result) -> dict[str, int]:
    table = result[0] if isinstance(result, tuple) else result
    return {"samples": table.total}


def _train_counts(args, result) -> dict[str, int]:
    shard, cfg = args["shard"], args["cfg"]
    return {"sgd_steps": cfg.epochs * math.ceil(len(shard) / cfg.batch_size), "val_evals": cfg.epochs + 1}


# Work counts read from a traced call's bound arguments and its result.
PROBES = {
    "generate_synthetic_cohort": _cohort_counts,
    "load_partition_csv": _cohort_counts,
    "train_local": _train_counts,
    "aggregate": lambda args, result: {"updates": len(args["updates"])},
    "compute_weights": lambda args, result: {"fallback": int(bool(result.fallbacks))},
}

# Per-layer time metrics: the spans whose durations each one sums. Every
# span under `cli.run_experiment` belongs to exactly one of the engine-side
# layers, which is what lets `per_layer` account for the whole run.
LAYER_SPANS = {
    "cohort.build_s": ("engine.generate_synthetic_cohort", "engine.load_partition_csv", "engine.synthesize_shards"),
    "engine.val_shards_s": ("engine.make_blob_shard",),
    "selection.compose_task_s": ("engine.compose_task",),
    "params.train_local_s": ("engine.train_local",),
    "params.holdout_score_s": ("engine.predict_labels", "engine.dice_score"),
    "engine.timing_sim_s": ("engine.sample_timings", "engine.detect_stragglers", "engine.round_time"),
    "aggregation.compute_weights_s": ("engine.compute_weights",),
    "aggregation.aggregate_s": ("engine.aggregate",),
}
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def current_functions() -> dict[tuple[str, str], object]:
    """The objects the traced names are bound to right now."""
    return {
        (module, name): getattr(importlib.import_module(module), name)
        for module, names in TRACED.items()
        for name in names
    }


class Tracer:
    """Context manager that records one span per call to the `TRACED` names."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn, probe):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(span_name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.start, span.end = start, perf_counter()
                stack.pop()
            if probe is not None:
                span.counts = probe(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def __enter__(self) -> Tracer:
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            short = module_name.rsplit(".", 1)[-1]
            for name in names:
                original = getattr(module, name)
                self._installed.append((module, name, original))
                setattr(module, name, self._wrap(f"{short}.{name}", original, PROBES.get(name)))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._installed:
            module, name, original = self._installed.pop()
            setattr(module, name, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = {"name": span.name, "start": span.start, "end": span.end, "parent": span.parent}
                if span.counts:
                    record["counts"] = span.counts
                fh.write(json.dumps(record) + "\n")


def self_time(spans: list[Span], index: int) -> float:
    """A span's duration minus the part of it its child spans cover."""
    children = sorted((s.start, s.end) for s in spans if s.parent == index)
    covered, reach = 0.0, -math.inf
    for start, end in children:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return spans[index].duration - covered


def _tail(durations_us: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten samples beyond it."""
    ordered = sorted(durations_us)
    for pct in TAIL_LADDER:
        if len(ordered) * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct, _percentile(ordered, pct)
    return 100.0, _percentile(ordered, 100.0)


def _percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of sorted values; 0 when there are none."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def per_layer(spans: list[Span], scale: float) -> tuple[dict[str, float], list[str]]:
    """Reduce one traced run's spans to per-layer metrics, plus accounting failures.

    Every time is multiplied by `scale`, the run's host-speed correction.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(*names: str) -> float:
        return scale * sum(s.duration for name in names for s in by_name.get(name, ()))

    def count(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    failures = []
    runs = [i for i, s in enumerate(spans) if s.name == "cli.run_experiment"]
    executes = by_name.get("cli.execute_run", [])
    if len(runs) != 1 or len(executes) != 1:
        return {}, [f"expected one run_experiment and one execute_run span, got {len(runs)} and {len(executes)}"]
    run_span = spans[runs[0]]

    metrics = {name: total(*span_names) for name, span_names in LAYER_SPANS.items()}
    metrics["engine.self_s"] = scale * self_time(spans, runs[0])
    accounted = sum(metrics.values()) / scale
    if abs(accounted - run_span.duration) > 1e-6 * max(1.0, run_span.duration):
        failures.append(f"layers account for {accounted!r} s of a {run_span.duration!r} s run_experiment span")

    train_us = [scale * s.duration * 1e6 for s in by_name.get("engine.train_local", ())]
    compose_us = [scale * s.duration * 1e6 for s in by_name.get("engine.compose_task", ())]
    tail_pct, tail_us = _tail(train_us)
    sgd_steps = count("engine.train_local", "sgd_steps")
    metrics.update(
        {
            "cohort.samples": count("engine.generate_synthetic_cohort", "samples")
            + count("engine.load_partition_csv", "samples"),
            "engine.val_shards": len(by_name.get("engine.make_blob_shard", ())),
            "selection.compose_task_us_p50": _percentile(sorted(compose_us), 50.0),
            "params.train_local_calls": len(train_us),
            "params.train_local_us_p50": _percentile(sorted(train_us), 50.0),
            "params.train_local_us_tail": tail_us,
            "params.train_local_tail_pct": tail_pct,
            "params.sgd_steps": sgd_steps,
            "params.val_evals": count("engine.train_local", "val_evals"),
            "params.us_per_sgd_step": metrics["params.train_local_s"] * 1e6 / sgd_steps if sgd_steps else 0.0,
            "aggregation.updates_merged": count("engine.aggregate", "updates"),
            "aggregation.fallback_rounds": count("engine.compute_weights", "fallback"),
            "cli.parse_config_s": total("cli.parse_config"),
            "cli.write_artifacts_s": scale * (executes[0].duration - run_span.duration),
        }
    )
    return metrics, failures
