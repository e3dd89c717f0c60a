"""The benchmark's workloads.

Each workload builds its inputs from a seed alone (the program only
sees the generated trace), passes only inputs and deployment settings,
and keeps the default execution path: no ``shards=``, ``workers=``,
``pool=`` or ``vectorized=``.  Load comes from one closed-loop caller in
one thread: stream slots close in order through one session, so the
next slot is sent only after the previous one returns.

A workload runs in *episodes*.  ``setup`` generates one trace, builds
the engine (and session) and warms it up; ``run`` is the timed phase
and returns an :class:`Episode` with its timings, accuracy, counters
and correctness checks.  Every operation — a run, a slot, a save, a
resume — is checked and counted as attempted or failed.  A run of the
benchmark cycles its episodes over ``Scale.traces`` distinct traces
drawn from the run's seed (:func:`trace_seed`), so its accuracy and
timing figures average over several inputs rather than one.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Optional

import numpy as np

from perfbench.tracing import patched

Region = Callable[..., ContextManager]

HORIZON = 3  # forecast horizon H of the stream workloads


def no_region(name: str, slot: int = -1) -> ContextManager:
    return nullcontext()


def trace_seed(seed: int, index: int) -> int:
    """Generator seed of the ``index``-th trace of a benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class Scale:
    nodes: int
    slots: int  # trace length (batch) or timed slots per episode (stream)
    warmup: int = 0  # untimed slots ingested during set-up (stream)
    traces: int = 1  # distinct traces a run cycles its episodes over


@dataclass
class Episode:
    trace: int = 0  # index of the trace the episode ran on
    host_factor: float = 1.0  # see perfbench.hostspeed
    run_s: float = 0.0
    slot_s: List[float] = field(default_factory=list)
    save_s: List[float] = field(default_factory=list)
    resume_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    accuracy: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    digest: str = ""

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _rmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Instantaneous RMSE over nodes (paper Eq. 4), in float64."""
    diff = np.asarray(estimate, dtype=np.float64) - truth
    return float(np.sqrt(np.sum(diff * diff) / diff.shape[0]))


def _hash(hasher: Any, *parts: Any) -> None:
    for part in parts:
        if isinstance(part, np.ndarray):
            hasher.update(str(part.dtype).encode())
            hasher.update(np.ascontiguousarray(part).tobytes())
        else:
            hasher.update(repr(part).encode())


def _alibaba(nodes: int, slots: int, seed: int) -> np.ndarray:
    from repro.datasets.alibaba import load_alibaba_like

    return load_alibaba_like(nodes, slots, seed=seed).data


class BatchCold:
    """``Engine.run`` over a cold pipeline: the ROADMAP baseline shape."""

    name = "batch_cold"
    budget = 0.3
    #: One trace runs a second time in every invocation: that run's
    #: output digest has to equal the first's.
    reruns = 1

    def __init__(self, scale: Scale, workdir: Path) -> None:
        self.scale = scale

    def config(self) -> Any:
        from repro.core.config import PipelineConfig

        return PipelineConfig.small(
            budget=self.budget, initial_collection=20, retrain_interval=40
        )

    def setup(self, seed: int) -> Any:
        from repro.api import Engine

        trace = np.ascontiguousarray(
            _alibaba(self.scale.nodes, self.scale.slots, seed)[:, :, :1]
        )
        engine = Engine(self.config())
        # Warm-up: lazy registry loading and first-call costs.
        engine.run(trace[:30, :60])
        return engine, trace

    def run(self, state: Any, region: Region = no_region) -> Episode:
        from repro.core.pipeline import OnlinePipeline

        engine, trace = state
        episode = Episode()
        step = vars(OnlinePipeline)["step"]

        def timed_step(pipeline: Any, stored: Any) -> Any:
            started = time.perf_counter()
            output = step(pipeline, stored)
            episode.slot_s.append(time.perf_counter() - started)
            return output

        # Per-slot latency inside Engine.run: two clock reads per
        # OnlinePipeline.step, well under a microsecond per slot.
        with patched(OnlinePipeline, "step", timed_step):
            started = time.perf_counter()
            try:
                result = engine.run(trace)
            except Exception as exc:  # counted and reported; the run goes on
                episode.run_s = time.perf_counter() - started
                episode.op(False, f"Engine.run raised {exc!r}")
                return episode
            episode.run_s = time.perf_counter() - started

        slots = trace.shape[0]
        horizon = engine.config.forecasting.max_horizon
        frequency = float(result.decisions.mean())
        rmses = [*result.rmse_by_horizon.values(), result.intermediate_rmse]
        episode.op(
            frequency <= self.budget + 1.0 / slots,
            f"tx_frequency {frequency} above budget + 1/T",
        )
        episode.op(
            bool(np.isfinite(rmses).all()) and len(rmses) == horizon + 2,
            f"RMSE not finite or horizons missing: {rmses}",
        )
        episode.accuracy = {
            "forecast_rmse": float(np.mean(
                [result.rmse_by_horizon[h] for h in range(1, horizon + 1)]
            )),
            "collection_rmse": result.rmse_by_horizon[0],
            "tx_frequency": frequency,
        }
        hasher = hashlib.sha256()
        _hash(
            hasher, result.stored, result.decisions,
            sorted(result.rmse_by_horizon.items()), result.intermediate_rmse,
        )
        episode.digest = hasher.hexdigest()
        return episode


class _Stream:
    """Shared slot loop of the two streaming workloads."""

    name = ""
    reruns = 0
    resources = 1
    dtype = "float64"
    reorder_window = 0
    checkpoint_every = 0

    def __init__(self, scale: Scale, workdir: Path) -> None:
        self.scale = scale
        self.workdir = workdir

    def config(self) -> Any:
        from repro.core.config import (
            ClusteringConfig,
            ForecastingConfig,
            PipelineConfig,
            TransmissionConfig,
        )

        return PipelineConfig(
            transmission=TransmissionConfig(budget=0.3),
            clustering=ClusteringConfig(
                num_clusters=3, seed=0, warm_start=True
            ),
            # Forecasting from slot 5 on, so every timed slot is a full
            # serving slot (transmit, cluster, update, forecast); the AR
            # bank refits every 5 slots on its growing history, which
            # keeps its early, short-history fits from dominating the
            # forecast error.
            forecasting=ForecastingConfig(
                model="ar", initial_collection=5, retrain_interval=5,
                max_horizon=HORIZON,
            ),
            dtype=self.dtype,
        )

    def link(self, seed: int) -> Any:
        return None

    def setup(self, seed: int) -> Any:
        from repro.api import Engine

        scale = self.scale
        trace = _alibaba(
            scale.nodes, scale.warmup + scale.slots + HORIZON, seed
        )[:, :, :self.resources].astype(self.dtype)
        engine = Engine(self.config())
        session = engine.session(
            scale.nodes, self.resources,
            reorder_window=self.reorder_window, link=self.link(seed),
        )
        for t in range(scale.warmup):
            self._slot(session, trace[t])
        return engine, session, trace, seed

    @staticmethod
    def _slot(session: Any, values: np.ndarray) -> Any:
        """One slot: re-ingest the link's due deliveries, then the
        frontier."""
        if session.link is not None:
            for origin, ids, late in session.link.due(session.time):
                session.ingest(late, ids, t=origin)
        return session.ingest(values)

    @staticmethod
    def _counters(session: Any) -> Dict[str, int]:
        out = {"late.applied": session.late_applied,
               "late.dropped": session.late_dropped}
        if session.link is not None:
            totals = session.link.counters()
            out.update({
                "link.sent": totals["sent"],
                "link.lost": totals["dropped_loss"],
                "link.delivered_late": totals["delivered_late"],
            })
        return out

    @staticmethod
    def _check_slot(session: Any, output: Any) -> Optional[str]:
        forecasts = output.node_forecasts
        shape = (session.num_nodes, session.num_resources)
        if forecasts is None or sorted(forecasts) != list(
            range(1, HORIZON + 1)
        ):
            return "forecasts missing"
        for h, values in forecasts.items():
            if values.shape != shape or not np.isfinite(values).all():
                return f"forecast h={h} not finite with shape {shape}"
        messages = session.transport_stats.messages
        if messages != int(session.fleet.message_counts.sum()):
            return "transport_stats.messages != message_counts.sum()"
        link = session.link
        if link is not None:
            if not link.is_conserved:
                return "link lost track of messages (not conserved)"
            late = session.late_applied + session.late_dropped
            if late != link.counters()["delivered_late"]:
                return (f"late.applied + late.dropped = {late} != "
                        "link.delivered_late")
        return None

    def run(
        self,
        state: Any,
        region: Region = no_region,
        checkpoint: bool = True,
    ) -> Episode:
        """The timed slot loop; ``checkpoint=False`` skips the saves and
        resumes (the uninterrupted twin of a checkpointed run)."""
        engine, session, trace, seed = state
        episode = Episode()
        squares = np.zeros(HORIZON + 1)
        # Every slot's forecasts and counters go into the digest, so two
        # episodes agree only if they agree at every slot.
        hasher = hashlib.sha256()
        before = self._counters(session)
        every = self.checkpoint_every if checkpoint else 0
        for k in range(self.scale.slots):
            t = session.time
            with region("slot", t):
                started = time.perf_counter()
                try:
                    output = self._slot(session, trace[t])
                except Exception as exc:  # counted and reported; episode ends
                    episode.op(False, f"slot {t} raised {exc!r}")
                    return episode
                elapsed = time.perf_counter() - started
            episode.slot_s.append(elapsed)
            episode.run_s += elapsed
            problem = self._check_slot(session, output)
            episode.op(problem is None, f"slot {t}: {problem}")
            if problem is not None:
                return episode

            squares[0] += _rmse(session.fleet.stored, trace[t]) ** 2
            for h in range(1, HORIZON + 1):
                squares[h] += _rmse(
                    output.node_forecasts[h], trace[t + h]
                ) ** 2
                _hash(hasher, output.node_forecasts[h])
            _hash(hasher, sorted(self._counters(session).items()),
                  session.transport_stats.messages)

            if every and (k + 1) % every == 0:
                session = self._save_resume(engine, session, seed, episode)
                if session is None:
                    return episode

        rmse = np.sqrt(squares / self.scale.slots)
        episode.accuracy = {
            "forecast_rmse": float(rmse[1:].mean()),
            "collection_rmse": float(rmse[0]),
            "tx_frequency": session.empirical_frequency,
        }
        after = self._counters(session)
        episode.counters = {key: after[key] - before[key] for key in after}
        episode.digest = hasher.hexdigest()
        return episode

    def _save_resume(
        self, engine: Any, session: Any, seed: int, episode: Episode
    ) -> Any:
        """``save`` then ``Engine.resume`` (mmap) with a fresh link shell."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / f"{self.name}-{session.time}.zip"
        time_before = session.time
        messages_before = session.transport_stats.messages
        started = time.perf_counter()
        try:
            session.save(path)
        except Exception as exc:  # counted and reported; episode ends
            episode.op(False, f"save raised {exc!r}")
            return None
        elapsed = time.perf_counter() - started
        episode.save_s.append(elapsed)
        episode.run_s += elapsed
        episode.op(path.is_file(), f"save wrote no file at {path}")

        started = time.perf_counter()
        try:
            resumed = engine.resume(path, link=self.link(seed))
        except Exception as exc:  # counted and reported; episode ends
            episode.op(False, f"resume raised {exc!r}")
            return None
        elapsed = time.perf_counter() - started
        episode.resume_s.append(elapsed)
        episode.run_s += elapsed
        episode.op(
            resumed.time == time_before
            and resumed.transport_stats.messages == messages_before,
            "resumed session lost its frontier or counters",
        )
        # The resumed columns map the file copy-on-write; unlinking
        # keeps the mapping valid and the work directory small.
        path.unlink()
        return resumed


class StreamWarm(_Stream):
    """One warm serving session: the paper's per-slot steady state."""

    name = "stream_warm"


class StreamLossyResume(_Stream):
    """A two-resource session behind a lossy, late link, saved and
    resumed every 10 slots."""

    name = "stream_lossy_resume"
    resources = 2
    reorder_window = 2
    checkpoint_every = 10

    def link(self, seed: int) -> Any:
        from repro.scenarios.links import LinkConfig, NetworkLink

        nodes = self.scale.nodes
        return NetworkLink(nodes, LinkConfig(
            loss=0.02, burst_enter=0.02, burst_exit=0.3, burst_loss=0.8,
            latency=1,
            # Two shared uplinks sized to keep up: node i uses uplink
            # i % 2, so no uplink ever holds more than ceil(N / 2).
            uplinks=2, uplink_capacity=(nodes + 1) // 2,
            seed=seed,
        ))

    def twin_check(self, seed: int, chained: Episode) -> Episode:
        """Rerun ``chained``'s trace without checkpoints: every slot's
        forecasts and counters must be bit-identical."""
        twin = self.run(self.setup(seed), checkpoint=False)
        check = Episode()
        check.op(
            twin.failed == 0 and bool(chained.digest)
            and twin.digest == chained.digest,
            "resumed chain differs from its uninterrupted twin",
        )
        return check


class StreamLossyResumeF32(StreamLossyResume):
    """``stream_lossy_resume`` with float32 columns and banks.

    Known to fail its twin check: a float32 ``YuleWalkerBank`` forecasts
    with the float64 coefficients its fit returns, but restores them
    cast to float32, so forecasts after ``Engine.resume`` differ from
    the uninterrupted session in the last bit until the next refit.  It
    stays runnable, and out of :data:`WORKLOADS`, until the bank
    round-trips its state exactly.
    """

    name = "stream_lossy_resume_f32"
    dtype = "float32"


#: The measured workloads, in ``BENCHMARK.json`` order.
WORKLOADS = {
    cls.name: cls for cls in (BatchCold, StreamWarm, StreamLossyResume)
}
#: Every workload ``perfbench/run.py`` accepts.
ALL_WORKLOADS = {**WORKLOADS, StreamLossyResumeF32.name: StreamLossyResumeF32}

#: Sizes measured by the benchmark, and a tiny set for the smoke tests.
FULL = {
    "batch_cold": Scale(nodes=10_000, slots=80, traces=8),
    "stream_warm": Scale(nodes=100_000, slots=30, warmup=6, traces=4),
    "stream_lossy_resume": Scale(
        nodes=20_000, slots=25, warmup=6, traces=8
    ),
    "stream_lossy_resume_f32": Scale(
        nodes=20_000, slots=25, warmup=6, traces=8
    ),
}
TINY = {
    "batch_cold": Scale(nodes=300, slots=40, traces=2),
    "stream_warm": Scale(nodes=300, slots=12, warmup=6, traces=2),
    "stream_lossy_resume": Scale(nodes=300, slots=25, warmup=6, traces=2),
    "stream_lossy_resume_f32": Scale(
        nodes=300, slots=25, warmup=6, traces=2
    ),
}
