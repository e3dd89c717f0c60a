"""Layer boundaries of the traced run and the per-layer metrics.

:func:`instrument` wraps the public entry point of every layer, from
outside the program: class methods and module bindings are replaced for
the duration of a ``with`` block, registry entries through
``register(..., override=True)``, and all of them are restored when the
block exits, also when a wrapped call raised.

Span names are layer names (the module the work lives in).  ``run``
and ``slot`` are structural spans opened around a whole ``Engine.run``
and one stream slot; their self time is glue, reported as
``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, Iterator, Mapping, Sequence

from perfbench.tracing import Span, Tracer, patched, registry_patched

STRUCTURAL = ("run", "slot")
#: Layers whose busy time includes a nested layer's.
SUBLAYERS = {"clustering": ("kmeans",)}

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("collection.busy_s", "s", "lower"),
    ("collection.share", "ratio", "lower"),
    ("clustering.busy_s", "s", "lower"),
    ("clustering.share", "ratio", "lower"),
    ("kmeans.busy_s", "s", "lower"),
    ("kmeans.calls", "count", "lower"),
    ("kmeans.seedings", "count", "lower"),
    ("kmeans.iterations", "count", "lower"),
    ("offsets.busy_s", "s", "lower"),
    ("offsets.share", "ratio", "lower"),
    ("membership.busy_s", "s", "lower"),
    ("membership.share", "ratio", "lower"),
    ("bank.fit_s", "s", "lower"),
    ("bank.update_s", "s", "lower"),
    ("bank.forecast_s", "s", "lower"),
    ("bank.fits", "count", "lower"),
    ("bank.fallbacks", "count", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("metrics.busy_s", "s", "lower"),
    ("link.transfer_s", "s", "lower"),
    ("link.due_s", "s", "lower"),
    ("link.sent", "count", "lower"),
    ("link.lost", "count", "lower"),
    ("link.delivered_late", "count", "higher"),
    ("late.busy_s", "s", "lower"),
    ("late.applied", "count", "higher"),
    ("late.dropped", "count", "lower"),
    ("checkpoint.snapshot_s", "s", "lower"),
    ("checkpoint.write_s", "s", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("checkpoint.resume_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

#: Which end-to-end metric, on which workload, each layer should move.
#: Written down before measuring (choosing-metrics section 3).
EXPECTED_EFFECTS = {
    "collection": "run_s on no workload (< 1%); slot_p50_ms on "
                  "stream_lossy_resume only",
    "clustering": "run_s on batch_cold; slot_p50_ms on stream_warm at "
                  "about a third of that share",
    "kmeans": "run_s on batch_cold; slot_p50_ms on stream_warm at about "
              "a third of that share",
    "offsets": "slot_p50_ms/slot_p90_ms on stream_warm; run_s on "
               "batch_cold",
    "membership": "slot_p50_ms/slot_p90_ms on stream_warm; run_s on "
                  "batch_cold",
    "bank": "nothing on any workload; bank.fallbacks stays 0, guarded by "
            "forecast_rmse",
    "pipeline": "run_s on all workloads",
    "metrics": "run_s on batch_cold",
    "link": "slot_p90_ms on stream_lossy_resume",
    "late": "slot_p90_ms on stream_lossy_resume",
    "checkpoint": "ckpt_save_ms, ckpt_resume_ms and peak_rss_mb on "
                  "stream_lossy_resume",
}


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Record spans and counts at every layer boundary inside the block."""
    from repro import api
    from repro.checkpoint import Checkpoint
    from repro.core import pipeline
    from repro.forecasting.bank import BankForecastError, ForecasterBank
    from repro.registry import COLLECTION_BACKENDS
    from repro.scenarios.links import NetworkLink
    from repro.session import StreamSession

    # The package re-exports kmeans(), which hides the submodule name.
    dynamic = importlib.import_module("repro.clustering.dynamic")
    kmeans_module = importlib.import_module("repro.clustering.kmeans")

    def ingest_layer(session: Any, values: Any, node_ids: Any = None,
                     t: Any = None) -> str:
        late = t is not None and int(t) < session.time
        return "late" if late else "collection"

    def kmeans_done(result: Any) -> None:
        tracer.count("kmeans.calls")
        tracer.count("kmeans.iterations", int(result.iterations))

    def counted(fn: Any, counter: str) -> Any:
        @functools.wraps(fn)
        def call(*args: Any, **kwargs: Any) -> Any:
            tracer.count(counter)
            return fn(*args, **kwargs)
        return call

    def fallbacks_counted(fn: Any) -> Any:
        @functools.wraps(fn)
        def forecast(*args: Any, **kwargs: Any) -> Any:
            try:
                return fn(*args, **kwargs)
            except BankForecastError:
                tracer.count("bank.fallbacks")
                raise
        return forecast

    def bytes_written(path: Any) -> None:
        tracer.count("checkpoint.bytes", os.path.getsize(path))

    def traced(owner: Any, attr: str, label: Any, after: Any = None,
               inner: Any = None) -> Any:
        original = (
            vars(owner)[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        if inner is not None:
            original = inner(original)
        return patched(owner, attr, tracer.wrap(original, label, after))

    boundaries = [
        traced(api.Engine, "run", "run"),
        traced(api, "instantaneous_rmse_batch", "metrics"),
        traced(StreamSession, "ingest", ingest_layer),
        traced(pipeline.OnlinePipeline, "step", "pipeline"),
        traced(dynamic.DynamicClusterTracker, "update", "clustering"),
        traced(dynamic, "kmeans", "kmeans", after=kmeans_done),
        patched(kmeans_module, "kmeans_plus_plus_init", counted(
            kmeans_module.kmeans_plus_plus_init, "kmeans.seedings")),
        traced(pipeline, "estimate_offsets", "offsets"),
        traced(pipeline, "forecast_membership", "membership"),
        traced(ForecasterBank, "fit", "bank.fit",
               after=lambda _: tracer.count("bank.fits")),
        traced(ForecasterBank, "update", "bank.update"),
        traced(ForecasterBank, "forecast", "bank.forecast",
               inner=fallbacks_counted),
        traced(NetworkLink, "transfer", "link.transfer"),
        traced(NetworkLink, "due", "link.due"),
        traced(StreamSession, "snapshot", "checkpoint.snapshot"),
        traced(Checkpoint, "save", "checkpoint.write", after=bytes_written),
        traced(api.Engine, "resume", "checkpoint.resume"),
    ]
    with ExitStack() as stack:
        for name in COLLECTION_BACKENDS.available():
            stack.enter_context(registry_patched(
                COLLECTION_BACKENDS, name,
                lambda backend: tracer.wrap(backend, "collection"),
            ))
        for boundary in boundaries:
            stack.enter_context(boundary)
        yield tracer


def layer_metrics(
    spans: Sequence[Span],
    selfs: Sequence[float],
    counts: Mapping[str, int],
    counters: Mapping[str, int],
    run_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced episode.

    Args:
        spans: The episode's spans; ``selfs`` their self times.
        counts: Counts recorded at the boundaries during the episode.
        counters: The episode's link and late-arrival counter deltas.
        run_s: The episode's traced ``run_s``.
    """
    own: Dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, selfs):
        own[span.name] += seconds

    def busy(layer: str) -> float:
        return own[layer] + sum(own[sub] for sub in SUBLAYERS.get(layer, ()))

    attributed = sum(
        seconds for name, seconds in own.items() if name not in STRUCTURAL
    )
    return {
        "collection.busy_s": busy("collection"),
        "collection.share": busy("collection") / run_s,
        "clustering.busy_s": busy("clustering"),
        "clustering.share": busy("clustering") / run_s,
        "kmeans.busy_s": busy("kmeans"),
        "kmeans.calls": counts.get("kmeans.calls", 0),
        "kmeans.seedings": counts.get("kmeans.seedings", 0),
        "kmeans.iterations": counts.get("kmeans.iterations", 0),
        "offsets.busy_s": busy("offsets"),
        "offsets.share": busy("offsets") / run_s,
        "membership.busy_s": busy("membership"),
        "membership.share": busy("membership") / run_s,
        "bank.fit_s": busy("bank.fit"),
        "bank.update_s": busy("bank.update"),
        "bank.forecast_s": busy("bank.forecast"),
        "bank.fits": counts.get("bank.fits", 0),
        "bank.fallbacks": counts.get("bank.fallbacks", 0),
        "pipeline.self_s": own["pipeline"],
        "metrics.busy_s": busy("metrics"),
        "link.transfer_s": busy("link.transfer"),
        "link.due_s": busy("link.due"),
        "link.sent": counters.get("link.sent", 0),
        "link.lost": counters.get("link.lost", 0),
        "link.delivered_late": counters.get("link.delivered_late", 0),
        "late.busy_s": busy("late"),
        "late.applied": counters.get("late.applied", 0),
        "late.dropped": counters.get("late.dropped", 0),
        "checkpoint.snapshot_s": busy("checkpoint.snapshot"),
        "checkpoint.write_s": busy("checkpoint.write"),
        "checkpoint.bytes": counts.get("checkpoint.bytes", 0),
        "checkpoint.resume_s": busy("checkpoint.resume"),
        "trace.unattributed_s": run_s - attributed,
    }
