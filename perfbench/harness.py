"""Measurement loop: episodes until the run length is reached, medians.

With tracing off, every episode is timed bare, the episodes cycle over
the workload's traces, and the end-to-end metrics are reported.  With
tracing on, bare and traced episodes alternate on the first trace: the
traced ones give the per-layer metrics, and the ratio of their
``run_s`` to the bare ones' is ``trace.overhead``.

Every time is divided by the host factor measured around its episode
(:mod:`perfbench.hostspeed`); the report lines also give the factors and
the raw wall-clock ``run_s``.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Tuple

from perfbench import hostspeed, layers, workloads
from perfbench.tracing import Tracer, self_times, write_traces

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("slot_p50_ms", "ms"),
    ("slot_p90_ms", "ms"),
    ("forecast_rmse", "util"),
    ("collection_rmse", "util"),
    ("tx_frequency", "msg/node/slot"),
    ("peak_rss_mb", "MB"),
)

MIN_BARE = 3  # bare episodes, so that set-up and run_s are medians
MIN_TRACED = 2
MIN_SLOTS = 100  # so that at least ten slot samples lie above p90
WALL_LIMIT_S = 120.0  # start no episode after this; exit within 180 s


def stamp() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


@contextmanager
def _traced_region(tracer: Tracer, name: str, slot: int = -1) -> Iterator:
    tracer.slot = slot
    try:
        with tracer.span(name):
            yield
    finally:
        tracer.slot = -1


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    scales: Mapping[str, workloads.Scale] = workloads.FULL,
) -> Tuple[Dict[str, Any], List[str]]:
    """Measure one workload; returns the result object and report lines."""
    scale = scales[name]
    workload = workloads.ALL_WORKLOADS[name](scale, out_dir / "work")
    # A bare run covers every trace, plus the re-runs the workload's
    # digest check needs; a traced run stays on trace 0, so that its
    # bare and traced episodes time the same input.
    traces = 1 if trace else scale.traces
    min_bare = max(MIN_BARE, traces + workload.reruns)
    tracer = Tracer()
    setups: List[float] = []  # seconds at the reference host speed
    bare: List[workloads.Episode] = []
    traced: List[Tuple[int, workloads.Episode, Counter]] = []
    episodes: List[workloads.Episode] = []
    started = time.perf_counter()
    timed = 0.0
    host = [hostspeed.reference_seconds()]
    while True:
        enough = (
            timed >= seconds
            and len(bare) >= min_bare
            and (trace or sum(len(e.slot_s) for e in bare) >= MIN_SLOTS)
            and (not trace or len(traced) >= MIN_TRACED)
        )
        failing = any(e.failed for e in episodes)
        if enough or failing or time.perf_counter() - started > WALL_LIMIT_S:
            break
        index = len(episodes)
        with_trace = trace and index % 2 == 1
        begin = time.perf_counter()
        state = workload.setup(workloads.trace_seed(seed, index % traces))
        setup_s = time.perf_counter() - begin
        if with_trace:
            tracer.episode = index
            counts_before = Counter(tracer.counts)
            with layers.instrument(tracer):
                episode = workload.run(
                    state,
                    lambda region, slot=-1: _traced_region(
                        tracer, region, slot
                    ),
                )
            traced.append((index, episode, tracer.counts - counts_before))
        else:
            episode = workload.run(state)
            bare.append(episode)
        # Free the episode's session before the next set-up, so that
        # peak_rss_mb does not depend on when the cyclic GC runs.
        del state
        gc.collect()
        host.append(hostspeed.reference_seconds())
        episode.host_factor = (host[-2] + host[-1]) / 2 / hostspeed.REFERENCE_S
        setups.append(setup_s / episode.host_factor)
        episode.trace = index % traces
        episodes.append(episode)
        timed += episode.run_s

    checks = [workloads.Episode()]
    covered = {e.trace for e in bare}
    checks[0].op(
        len(covered) == traces,
        f"wall-clock limit hit after {len(episodes)} episodes, before "
        f"every one of the {traces} traces ran",
    )
    # Every episode of one trace must produce the same outputs, traced
    # or not (for batch_cold: a second run gives an identical digest).
    first: Dict[int, workloads.Episode] = {}
    for episode in episodes:
        earlier = first.setdefault(episode.trace, episode)
        if episode.digest != earlier.digest and not episode.failed:
            episode.op(False, f"output digest of trace {episode.trace} "
                              "differs between episodes")
    if hasattr(workload, "twin_check") and not episodes[0].failed:
        checks.append(workload.twin_check(
            workloads.trace_seed(seed, 0), episodes[0]
        ))

    attempted = sum(e.attempted for e in episodes + checks)
    failed = sum(e.failed for e in episodes + checks)
    errors = [err for e in episodes + checks for err in e.errors]
    factors = [e.host_factor for e in episodes]
    lines = [
        f"workload {name} seed {seed} trace {int(trace)}: "
        f"{len(episodes)} episodes ({len(bare)} bare, {len(traced)} "
        f"traced) over {traces} traces, stamp {stamp()}",
        f"failed_share {failed / attempted:.6f} "
        f"({failed} of {attempted} operations)",
        f"host factor median {statistics.median(factors):.4f} (range "
        f"{min(factors):.4f}-{max(factors):.4f}); times below are "
        "wall-clock divided by it",
    ]
    lines += [f"error: {err}" for err in errors[:20]]
    lines += [
        f"episode {i} trace {e.trace} host_factor {e.host_factor:.4f} "
        f"wall-clock run_s {e.run_s:.4f}"
        for i, e in enumerate(episodes)
    ]

    if trace:
        metrics = _per_layer(tracer, traced, bare)
        units = {metric: unit for metric, unit, _ in layers.PER_LAYER}
        if metrics:
            stem = out_dir / f"{name}-seed{seed}"
            lines += [f"traces written to {path}"
                      for path in write_traces(tracer, stem)]
            lines += [f"expected: {layer} -> {effect}"
                      for layer, effect in layers.EXPECTED_EFFECTS.items()]
    else:
        metrics = (
            {} if any(e.failed for e in bare) else _end_to_end(setups, bare)
        )
        units = dict(END_TO_END)
        raw = statistics.median(e.run_s for e in bare)
        lines.append(f"raw wall-clock run_s median {raw:.4f} s")
        saves = [s / e.host_factor for e in bare for s in e.save_s]
        resumes = [s / e.host_factor for e in bare for s in e.resume_s]
        if saves and resumes:
            lines.append(
                f"ckpt_save_ms {statistics.median(saves) * 1e3:.4f} ms, "
                f"ckpt_resume_ms {statistics.median(resumes) * 1e3:.4f} ms "
                f"(medians of {len(saves)} saves and {len(resumes)} "
                "resumes)"
            )
        if metrics:
            slots = [s / e.host_factor for e in bare for s in e.slot_s]
            above = sum(s * 1e3 > metrics["slot_p90_ms"] for s in slots)
            lines.append(
                f"slot samples {len(slots)} ({above} above p90), run_s "
                f"samples {len(bare)}, setup_s samples {len(setups)}"
            )
    lines += [f"{metric} {value:.6g} {units[metric]}"
              for metric, value in metrics.items()]
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }
    return result, lines


def _end_to_end(
    setups: List[float], bare: List[workloads.Episode]
) -> Dict[str, float]:
    slots = [s / e.host_factor for e in bare for s in e.slot_s]
    # The traces differ in cost and accuracy, so both are averaged over
    # the traces: run time as each trace's median episode, accuracy from
    # each trace's first episode, so that it repeats exactly for a seed.
    runs: Dict[int, List[float]] = {}
    accuracies: Dict[int, Dict[str, float]] = {}
    for episode in bare:
        runs.setdefault(episode.trace, []).append(
            episode.run_s / episode.host_factor
        )
        accuracies.setdefault(episode.trace, episode.accuracy)
    accuracy = {
        key: statistics.fmean(a[key] for a in accuracies.values())
        for key in ("forecast_rmse", "collection_rmse", "tx_frequency")
    }
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.fmean(
            statistics.median(times) for times in runs.values()
        ),
        "slot_p50_ms": statistics.median(slots) * 1e3,
        "slot_p90_ms": statistics.quantiles(slots, n=10)[8] * 1e3,
        **accuracy,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
    }


def _per_layer(
    tracer: Tracer,
    traced: List[Tuple[int, workloads.Episode, Counter]],
    bare: List[workloads.Episode],
) -> Dict[str, float]:
    if not traced or not bare or any(e.failed for _, e, _ in traced):
        return {}
    selfs = self_times(tracer.spans)
    rows = []
    for index, episode, counts in traced:
        mine = [i for i, s in enumerate(tracer.spans) if s.episode == index]
        factor = episode.host_factor
        rows.append(layers.layer_metrics(
            [tracer.spans[i] for i in mine],
            [selfs[i] / factor for i in mine],
            counts, episode.counters, episode.run_s / factor,
        ))
    overhead = statistics.median(
        e.run_s / e.host_factor for _, e, _ in traced
    ) / statistics.median(e.run_s / e.host_factor for e in bare)
    metrics = {}
    for metric, _, _ in layers.PER_LAYER:
        if metric == "trace.overhead":
            metrics[metric] = overhead
        else:
            metrics[metric] = statistics.median(row[metric] for row in rows)
    return metrics
