"""Unified public API: one engine, pluggable stages.

:class:`Engine` is the single entry point to the paper's system.  It
composes the registry-backed stages (collection backend, transmission
policy, dynamic clustering, and the per-group forecaster banks that
batch every cluster's model — see :mod:`repro.forecasting.bank`) and
subsumes the two historical entry points:

* **batch** — :meth:`Engine.run` drives a recorded trace through
  collection, clustering and forecasting and returns a
  :class:`RunResult` with the paper's RMSE metrics, transport stats and
  per-stage wall-clock timings (what :func:`repro.core.pipeline.
  run_pipeline` did).  ``run(trace, shards=K)`` additionally
  partitions the fleet into contiguous node shards for the collection
  stage, runs them one after another in process, and merges them into
  one columnar :class:`~repro.simulation.fleet.FleetState` —
  bit-identical to the single-shard run;
* **streaming** — :meth:`Engine.session` opens a long-lived, stateful
  :class:`~repro.session.StreamSession` with partial ingestion, a
  bounded late-arrival reorder window, on-demand forecasts and
  checkpoint/resume (:meth:`StreamSession.snapshot
  <repro.session.StreamSession.snapshot>` /
  :meth:`Engine.resume`).  :meth:`Engine.step` remains as a thin
  compatibility shim over a lazily created default session, advancing
  it one full slot at a time (what ``MonitoringSystem.tick`` did) —
  but the per-slot hot path now runs the batched slot kernels, not a
  per-node object loop.

Engines are constructible from plain data — a :class:`~repro.core.
config.PipelineConfig`, its :meth:`~repro.core.config.PipelineConfig.
to_dict` mapping, or a path to a JSON file of that mapping — via
:meth:`Engine.from_config`, so experiment drivers, the CLI and config
files all share one wiring path::

    from repro.api import Engine

    engine = Engine.from_config("config.json")
    result = engine.run(trace)                  # batch
    print(result.rmse_by_horizon, result.timings)

    engine = Engine.from_config(config, num_nodes=50, num_resources=1)
    session = engine.session()                  # streaming
    output = session.ingest(x_t)                # one (full) slot
    session.ingest(x_late, node_ids=[3, 9])    # a partial slot
    session.save("state.ckpt")                  # durable checkpoint
    session = Engine.from_config(config).resume("state.ckpt")
"""

from __future__ import annotations

import inspect
import json
import operator
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.checkpoint import Checkpoint, as_checkpoint, config_mismatch
from repro.core.config import PipelineConfig, TransmissionConfig
from repro.core.metrics import instantaneous_rmse_batch
from repro.core.pipeline import (
    ForecasterFactory,
    OnlinePipeline,
    PipelineResult,
    StepOutput,
)
from repro.forecasting.bank import resolved_bank_name
from repro.core.types import validate_trace
from repro.exceptions import CheckpointError, ConfigurationError, DataError
from repro.registry import COLLECTION_BACKENDS, TRANSMISSION_POLICIES
from repro.session import PolicyFactory, StreamSession
from repro.simulation.collection import CollectionResult
from repro.simulation.controller import CentralStore
from repro.simulation.fleet import (
    FleetState,
    merge_collection_shards,
    shard_slices,
)
from repro.simulation.node import LocalNode
from repro.simulation.transport import Channel, TransportStats


def _shard_aware_kwargs(
    backend: Any, node_offset: int, total_nodes: int
) -> dict:
    """Offset/fleet-size kwargs for backends that opt into them.

    Backends whose decisions depend on fleet-global state (the uniform
    backend draws stagger phases for the whole fleet) declare
    ``node_offset``/``total_nodes`` keyword parameters; purely per-node
    backends need nothing and get nothing.
    """
    try:
        params = inspect.signature(backend).parameters
    except (TypeError, ValueError):  # builtins / odd callables
        return {}
    if "node_offset" in params and "total_nodes" in params:
        return {"node_offset": node_offset, "total_nodes": total_nodes}
    return {}


@dataclass
class RunResult(PipelineResult):
    """A :class:`~repro.core.pipeline.PipelineResult` plus provenance.

    Attributes (beyond the inherited metrics):
        transport: Message/byte counters — the backend's own accounting
            when it produces one, otherwise derived from the decision
            matrix over the fleet's counter column (so batch runs always
            carry transport provenance).
        timings: Wall-clock seconds per stage: ``collection``,
            ``clustering``, ``training``, ``forecasting``, ``metrics``
            and ``total``.
        config: The resolved configuration the run used.
        collection: The collection-backend name the run used.
        bank: How the model layer actually executed: a vectorized bank
            name from :data:`repro.registry.FORECASTER_BANKS`, or
            ``"object"`` for the per-cluster adapter (always the case
            with a custom ``forecaster_factory``).
        fleet: Columnar :class:`~repro.simulation.fleet.FleetState`
            snapshot after the last slot — final stored values, clocks,
            last-transmit slots and per-node message counters.
        shards: How many node shards the collection stage ran as.
        late_applied: Late arrivals applied under the reorder window
            (session-backed runs; batch collection is always in-order,
            so 0 there).
        late_dropped: Late arrivals dropped (superseded or beyond the
            reorder window).
    """

    transport: Optional[TransportStats]
    timings: Dict[str, float]
    config: PipelineConfig
    collection: str
    bank: str = "object"
    fleet: Optional[FleetState] = None
    shards: int = 1
    late_applied: int = 0
    late_dropped: int = 0

    def summary(self) -> str:
        """Human-readable run summary (CLI/report friendly)."""
        lines = [
            f"collection={self.collection} "
            f"model={self.config.forecasting.model} "
            f"bank={self.bank} "
            f"K={self.config.clustering.num_clusters}",
            f"transmission frequency: {self.decisions.mean():.3f} "
            f"(budget {self.config.transmission.budget})",
            f"intermediate RMSE: {self.intermediate_rmse:.4f}",
        ]
        for horizon, rmse in sorted(self.rmse_by_horizon.items()):
            lines.append(f"  RMSE(h={horizon}) = {rmse:.4f}")
        stage_part = " ".join(
            f"{stage}={seconds:.2f}s"
            for stage, seconds in self.timings.items()
        )
        lines.append(f"timings: {stage_part}")
        return "\n".join(lines)


class Engine:
    """Unified batch + streaming engine over registry-backed stages.

    Args:
        config: Full pipeline configuration.
        collection: Collection backend for :meth:`run` — any name in
            :data:`repro.registry.COLLECTION_BACKENDS`.
        num_nodes: Fleet size for streaming.  Optional: inferred from
            the first :meth:`step` measurement when omitted.
        num_resources: Resource dimensionality d for streaming.
            Optional, inferred like ``num_nodes``.
        policy: Per-node transmission policy for :meth:`step` — any name
            in :data:`repro.registry.TRANSMISSION_POLICIES`.
        policy_factory: Override ``policy`` with a custom per-node
            factory (receives the node id).
        forecaster_factory: Override the forecasting model construction;
            receives ``(cluster_id, group_index)``.  A custom factory
            always runs through the :class:`~repro.forecasting.bank.
            ObjectBank` adapter; otherwise ``config.forecasting.bank``
            selects how the model layer executes (vectorized bank vs
            per-cluster objects — numerically identical either way).
    """

    def __init__(
        self,
        config: PipelineConfig = PipelineConfig(),
        *,
        collection: str = "adaptive",
        num_nodes: Optional[int] = None,
        num_resources: Optional[int] = None,
        policy: str = "adaptive",
        policy_factory: Optional[PolicyFactory] = None,
        forecaster_factory: Optional[ForecasterFactory] = None,
    ) -> None:
        if not isinstance(config, PipelineConfig):
            raise ConfigurationError(
                "config must be a PipelineConfig (use Engine.from_config "
                f"for mappings and JSON files), got {type(config).__name__}"
            )
        self.config = config
        self.collection = collection
        # Fail fast, with close-match suggestions, on unknown names.
        COLLECTION_BACKENDS.get(collection)
        self.policy: Optional[str] = None if policy_factory else policy
        if policy_factory is None:
            TRANSMISSION_POLICIES.get(policy)
        self._policy_factory = policy_factory
        self._forecaster_factory = forecaster_factory

        # Streaming state: Engine.step drives one lazily created
        # default StreamSession (Engine.session opens independent ones).
        self._session: Optional[StreamSession] = None
        self._stream_dims: Optional[Tuple[int, int]] = None
        if (num_nodes is None) != (num_resources is None):
            raise ConfigurationError(
                "pass num_nodes and num_resources together (or neither)"
            )
        if num_nodes is not None and num_resources is not None:
            self._stream_dims = (num_nodes, num_resources)
            self._session = self.session(num_nodes, num_resources)

    @classmethod
    def from_config(
        cls,
        config: Union[PipelineConfig, Mapping[str, Any], str, Path],
        **kwargs: Any,
    ) -> "Engine":
        """Build an engine from a config in any of its three forms.

        Args:
            config: A :class:`PipelineConfig`, a mapping in
                :meth:`PipelineConfig.to_dict` form, or a path to a JSON
                file holding that mapping.
            **kwargs: Forwarded to :class:`Engine` (``collection``,
                ``num_nodes``, ``policy``, …).
        """
        if isinstance(config, (str, Path)):
            path = config
            with open(path, "r", encoding="utf-8") as handle:
                config = json.load(handle)
            if not isinstance(config, Mapping):
                raise ConfigurationError(
                    f"config file {str(path)!r} must hold a JSON object "
                    f"in PipelineConfig.to_dict form, got "
                    f"{type(config).__name__}"
                )
        if isinstance(config, Mapping):
            config = PipelineConfig.from_dict(config)
        return cls(config, **kwargs)

    # ------------------------------------------------------------------
    # Streaming mode
    # ------------------------------------------------------------------

    def session(
        self,
        num_nodes: Optional[int] = None,
        num_resources: Optional[int] = None,
        *,
        reorder_window: int = 0,
        vectorized: Optional[bool] = None,
        link: Optional[Any] = None,
    ) -> StreamSession:
        """Open a new long-lived :class:`~repro.session.StreamSession`.

        Every call creates an independent deployment (own fleet state,
        transport counters, clustering history and forecaster banks)
        wired with this engine's config, policy and factories.

        Args:
            num_nodes: Fleet size; defaults to the engine's streaming
                dimensions when it was built with them.
            num_resources: Resource dimensionality; same default rule.
            reorder_window: Late-arrival tolerance in slots (see
                :meth:`StreamSession.ingest
                <repro.session.StreamSession.ingest>`).
            vectorized: Force the slot path (kernel vs object loop);
                default picks the batched kernel when the policy has
                one.
            link: Optional :class:`~repro.scenarios.links.LinkModel`
                interposed between transmissions and the channel.
        """
        if num_nodes is None and num_resources is None:
            if self._stream_dims is None:
                raise ConfigurationError(
                    "pass num_nodes and num_resources (the engine was "
                    "built without streaming dimensions)"
                )
            num_nodes, num_resources = self._stream_dims
        if num_nodes is None or num_resources is None:
            raise ConfigurationError(
                "pass num_nodes and num_resources together"
            )
        return StreamSession(
            self.config,
            num_nodes,
            num_resources,
            policy=self.policy or "adaptive",
            policy_factory=self._policy_factory,
            forecaster_factory=self._forecaster_factory,
            reorder_window=reorder_window,
            vectorized=vectorized,
            link=link,
        )

    def resume(
        self,
        source: Union[Checkpoint, str, Path],
        *,
        link: Optional[Any] = None,
        mmap: bool = True,
    ) -> StreamSession:
        """Reconstruct a session from a checkpoint, bit-identically.

        The resumed session continues exactly as the snapshotted one
        would have — forecasts, cluster assignments and transport
        counters match an uninterrupted run bit for bit.  It also
        becomes this engine's default session, so :meth:`step` carries
        on from the checkpoint.

        Args:
            source: A :class:`~repro.checkpoint.Checkpoint` or a path
                to one saved with ``save``.
            link: A :class:`~repro.scenarios.links.LinkModel` shell of
                the checkpoint's configuration; required when the
                checkpoint was taken from a linked session (the link's
                queues and generator resume from the checkpoint), sized
                to the checkpoint's fleet.
            mmap: When ``source`` is a path, map the array members
                copy-on-write and *adopt* them as the session's live
                columns instead of loading and copying — resuming never
                holds two copies of the state (the default; see
                :meth:`Checkpoint.load <repro.checkpoint.Checkpoint.
                load>`).  Irrelevant for an already-loaded checkpoint.

        Raises:
            CheckpointError: On format-version mismatch (raised by
                :meth:`Checkpoint.load <repro.checkpoint.Checkpoint.
                load>`), configuration or dtype mismatch, or missing
                custom factories.
        """
        checkpoint = as_checkpoint(source, mmap=mmap)
        # Normalize the stored config through PipelineConfig so older
        # checkpoints (written before newer top-level knobs like
        # ``dtype`` existed) compare against their resolved defaults
        # instead of spurious "<missing>" diffs.
        try:
            checkpoint_config = PipelineConfig.from_dict(
                checkpoint.config
            ).to_dict()
        except ConfigurationError as exc:
            raise CheckpointError(
                f"checkpoint configuration does not resolve: {exc}"
            ) from exc
        engine_config = self.config.to_dict()
        if checkpoint_config.get("dtype") != engine_config.get("dtype"):
            raise CheckpointError(
                f"checkpoint was written with "
                f"dtype={checkpoint_config.get('dtype')!r}, engine runs "
                f"dtype={engine_config.get('dtype')!r}; restoring across "
                "dtypes would silently cast the fleet state — rebuild "
                "the engine with the checkpoint's dtype"
            )
        diffs = config_mismatch(checkpoint_config, engine_config)
        if diffs:
            detail = "; ".join(
                f"{path}: checkpoint={a!r} engine={b!r}"
                for path, a, b in diffs[:5]
            )
            raise CheckpointError(
                f"checkpoint configuration disagrees with the engine's "
                f"({detail}); build the engine from the checkpoint's "
                "config (Engine.from_checkpoint) or match the configs"
            )
        meta = checkpoint.session
        if bool(meta["custom_policy_factory"]) != (
            self._policy_factory is not None
        ):
            raise CheckpointError(
                "checkpoint and engine disagree about a custom "
                "policy_factory; resume with an engine carrying the "
                "same factory the session was built with"
            )
        if meta["custom_forecaster_factory"] and (
            self._forecaster_factory is None
        ):
            raise CheckpointError(
                "checkpoint was taken with a custom forecaster_factory; "
                "resume with an engine carrying that factory"
            )
        if not meta["custom_policy_factory"] and meta["policy"] != self.policy:
            raise CheckpointError(
                f"checkpoint used transmission policy {meta['policy']!r}, "
                f"engine is configured for {self.policy!r}"
            )
        session = self.session(
            int(meta["num_nodes"]),
            int(meta["num_resources"]),
            reorder_window=int(meta["reorder_window"]),
            vectorized=bool(meta["vectorized"]),
            link=link,
        )
        session.restore(checkpoint)
        self._session = session
        self._stream_dims = (session.num_nodes, session.num_resources)
        return session

    @classmethod
    def from_checkpoint(
        cls, source: Union[Checkpoint, str, Path], **kwargs: Any
    ) -> "Engine":
        """Build an engine *from* a checkpoint and resume its session.

        The engine adopts the checkpoint's resolved config and policy;
        ``kwargs`` are forwarded to the constructor (e.g.
        ``collection``).  Checkpoints taken with custom factories
        cannot be rebuilt this way — construct the engine with the
        factories and call :meth:`resume`.
        """
        checkpoint = as_checkpoint(source, mmap=True)
        meta = checkpoint.session
        if meta["custom_policy_factory"] or meta["custom_forecaster_factory"]:
            raise CheckpointError(
                "checkpoint was taken with custom factories; build the "
                "engine with them and call Engine.resume instead"
            )
        engine = cls.from_config(
            checkpoint.config, policy=meta["policy"], **kwargs
        )
        engine.resume(checkpoint)
        return engine

    # -- default-session views (Engine.step compatibility) -------------

    @property
    def fleet(self) -> Optional[FleetState]:
        """The default session's columnar fleet state (None before one
        exists)."""
        return None if self._session is None else self._session.fleet

    @property
    def nodes(self) -> List[LocalNode]:
        """The default session's per-node views (empty before one
        exists).

        Under the vectorized slot path (the default for registered
        policies) the views' *policy objects* are construction-time
        artifacts: their per-object decision histories and counters do
        not advance — the authoritative per-node policy state is the
        fleet's ``policy_state`` column, and frequency accounting lives
        in :attr:`transport_stats` / :attr:`empirical_frequency`.
        """
        return [] if self._session is None else self._session.nodes

    @property
    def channel(self) -> Optional[Channel]:
        return None if self._session is None else self._session.channel

    @property
    def store(self) -> Optional[CentralStore]:
        return None if self._session is None else self._session.store

    @property
    def pipeline(self) -> Optional[OnlinePipeline]:
        return None if self._session is None else self._session.pipeline

    @property
    def time(self) -> int:
        """Number of streaming slots processed."""
        return 0 if self._session is None else self._session.time

    @property
    def transport_stats(self) -> TransportStats:
        """Cumulative streaming message/byte counters."""
        if self._session is None:
            return TransportStats()
        return self._session.transport_stats

    @property
    def empirical_frequency(self) -> float:
        """Fleet-average streaming transmission frequency so far."""
        if self._session is None:
            return 0.0
        return self._session.empirical_frequency

    def step(self, measurements: np.ndarray) -> StepOutput:
        """Advance the default streaming session by one full slot.

        A thin compatibility shim over :meth:`session` /
        :meth:`StreamSession.ingest
        <repro.session.StreamSession.ingest>`: the first call creates
        the default session (inferring ``N`` and ``d`` from the
        measurement shape when the engine was built without them), and
        each call ingests one full slot.  The slot itself runs the
        batched transmission slot kernels — bit-identical to the
        historical per-node object loop, at a fraction of the cost.
        One behavioral difference from the historical loop: the
        per-node *policy objects* reachable via :attr:`nodes` no longer
        advance their own decision histories (see :attr:`nodes`); use
        :attr:`transport_stats` / the fleet columns for per-node state.

        Args:
            measurements: Fresh true measurements ``x_t``, shape
                ``(N, d)`` (or ``(N,)`` when d = 1).

        Returns:
            The slot's :class:`StepOutput` (with per-slot transport
            delta and timings).
        """
        x = np.asarray(measurements, dtype=float)
        if x.ndim == 1:
            x = x[:, np.newaxis]
        if x.ndim != 2:
            raise DataError(f"measurements must be (N, d), got {x.shape}")
        if self._session is None:
            self._stream_dims = (x.shape[0], x.shape[1])
            self._session = self.session(x.shape[0], x.shape[1])
        session = self._session
        if x.shape != (session.num_nodes, session.num_resources):
            raise DataError(
                f"measurements must be ({session.num_nodes}, "
                f"{session.num_resources}), got {x.shape}"
            )
        return session.ingest(x)

    # ------------------------------------------------------------------
    # Batch mode
    # ------------------------------------------------------------------

    def _collect_sharded(
        self,
        data: np.ndarray,
        shards: int,
    ) -> Tuple[CollectionResult, FleetState]:
        """Run the collection stage over ``shards`` contiguous node
        ranges and merge into global arrays plus a fleet snapshot.

        Every registered backend's recurrence is independent per node
        column (fleet-global state like the uniform stagger phases is
        handled via the shard-aware kwargs), so the merged ``stored``
        and ``decisions`` are bit-identical to a single-shard run —
        clustering and forecasting downstream see exactly the same
        ``z_t`` matrix.
        """
        num_steps, num_nodes, dim = data.shape
        if shards == 1:
            collected = COLLECTION_BACKENDS.create(
                self.collection, data, self.config.transmission
            )
            fleet = FleetState.from_run(collected.stored, collected.decisions)
            # Engine-level transport provenance is always derived from
            # the decisions over the fleet's counter column — the same
            # reduction the sharded path performs, so RunResult.transport
            # is identical whatever the shard count (a backend's own
            # accounting, if any, stays visible on direct backend calls).
            collected.stats = TransportStats.from_node_counts(
                fleet.message_counts, dim
            )
            return collected, fleet
        backend = COLLECTION_BACKENDS.get(self.collection)
        parts = []
        for lo, hi in shard_slices(num_nodes, shards):
            part = backend(
                data[:, lo:hi],
                self.config.transmission,
                **_shard_aware_kwargs(backend, lo, num_nodes),
            )
            parts.append((part.stored, part.decisions))
        stored, decisions = merge_collection_shards(parts)
        fleet = FleetState.from_run(stored, decisions)
        # Transport-stats reduction over the fleet's own counter column
        # (shared array, not a copy).
        stats = TransportStats.from_node_counts(fleet.message_counts, dim)
        return (
            CollectionResult(stored=stored, decisions=decisions, stats=stats),
            fleet,
        )

    def run(
        self,
        trace: np.ndarray,
        *,
        horizons: Optional[Sequence[int]] = None,
        shards: int = 1,
    ) -> RunResult:
        """Run collection + clustering + forecasting over a full trace.

        Batch mode is stateless with respect to the engine: each call
        builds a fresh pipeline, so repeated runs are independent and
        reproducible (streaming state, if any, is untouched).

        Args:
            trace: True measurements, shape ``(T, N)`` or ``(T, N, d)``.
            horizons: Horizons to evaluate; default ``0..max_horizon``
                (``h = 0`` is the pure collection error).
            shards: Partition the fleet into this many contiguous node
                shards for the collection stage.  Results are
                bit-identical to ``shards=1`` for every registered
                backend (including :attr:`RunResult.transport`, merged
                by the shard reduction).

        Returns:
            The :class:`RunResult` with RMSE per horizon, transport
            stats, per-stage timings and the final fleet snapshot.
        """
        run_started = time.perf_counter()
        data = validate_trace(trace, dtype=self.config.np_dtype)
        num_steps, num_nodes, num_resources = data.shape
        config = self.config
        try:
            shards = int(operator.index(shards))
        except TypeError:
            raise ConfigurationError(
                f"shards must be an integer, got {shards!r}"
            ) from None
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if shards > num_nodes:
            raise ConfigurationError(
                f"cannot split {num_nodes} nodes into {shards} shards"
            )

        started = time.perf_counter()
        collected, fleet = self._collect_sharded(data, shards)
        collection_seconds = time.perf_counter() - started

        pipeline = OnlinePipeline(
            num_nodes,
            num_resources,
            config,
            forecaster_factory=self._forecaster_factory,
        )
        max_h = config.forecasting.max_horizon
        eval_horizons = list(horizons) if horizons is not None else list(
            range(0, max_h + 1)
        )
        for h in eval_horizons:
            if h < 0 or h > max_h:
                raise ConfigurationError(
                    f"horizon {h} outside [0, {max_h}]"
                )

        sq_sums: Dict[int, float] = {h: 0.0 for h in eval_horizons}
        sq_counts: Dict[int, int] = {h: 0 for h in eval_horizons}
        forecast_horizons = np.asarray(
            [h for h in eval_horizons if h != 0], dtype=int
        )
        # Per-slot centroid-of-assigned-cluster estimates, accumulated so
        # the intermediate RMSE is one batched operation at the end.
        centers_series = np.empty_like(collected.stored)
        groups = pipeline.groups
        forecast_start = -1
        metrics_seconds = 0.0

        for t in range(num_steps):
            output = pipeline.step(collected.stored[t])
            for g, assignment in enumerate(output.assignments):
                centers_series[t][:, groups[g]] = assignment.centroids[
                    assignment.labels
                ]

            if output.node_forecasts is not None:
                if forecast_start < 0:
                    forecast_start = t
                started = time.perf_counter()
                live = forecast_horizons[t + forecast_horizons < num_steps]
                if live.size:
                    # All horizons of this slot in one array op.
                    estimates = np.stack(
                        [output.node_forecasts[h] for h in live.tolist()]
                    )
                    errors = instantaneous_rmse_batch(
                        estimates, data[t + live]
                    )
                    for h, err in zip(live.tolist(), errors.tolist()):
                        sq_sums[h] += err**2
                        sq_counts[h] += 1
                metrics_seconds += time.perf_counter() - started

        # Batched accumulation over all slots at once: the pure
        # collection error (h = 0) and the intermediate RMSE — the
        # per-slot values match the streaming instantaneous_rmse
        # definition exactly.
        started = time.perf_counter()
        if 0 in sq_sums:
            errors = instantaneous_rmse_batch(collected.stored, data)
            sq_sums[0] = float(np.sum(errors**2))
            sq_counts[0] = num_steps
        group_sq = np.stack([
            instantaneous_rmse_batch(
                centers_series[:, :, group], collected.stored[:, :, group]
            )
            ** 2
            for group in groups
        ])  # (groups, T)
        intermediate_sq = group_sq.mean(axis=0)

        rmse_by_horizon = {}
        for h in eval_horizons:
            if sq_counts[h] > 0:
                rmse_by_horizon[h] = float(np.sqrt(sq_sums[h] / sq_counts[h]))
        metrics_seconds += time.perf_counter() - started

        timings = {"collection": collection_seconds}
        timings.update(pipeline.stage_seconds)
        timings["metrics"] = metrics_seconds
        timings["total"] = time.perf_counter() - run_started
        return RunResult(
            stored=collected.stored,
            decisions=collected.decisions,
            rmse_by_horizon=rmse_by_horizon,
            intermediate_rmse=float(np.sqrt(np.mean(intermediate_sq))),
            forecast_start=forecast_start,
            transport=collected.stats,
            timings=timings,
            config=config,
            collection=self.collection,
            bank=(
                "object"
                if self._forecaster_factory is not None
                else resolved_bank_name(config.forecasting)
            ),
            fleet=fleet,
            shards=shards,
        )


__all__ = ["Engine", "PolicyFactory", "RunResult", "StreamSession"]
