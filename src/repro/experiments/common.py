"""Shared machinery for the per-figure/table experiment modules.

Every experiment accepts scale parameters (``num_nodes``, ``num_steps``)
so the full harness runs on a laptop; the registry's defaults are the
scaled-down configurations recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.clustering.dynamic import DynamicClusterTracker
from repro.clustering.minimum_distance import MinimumDistanceClustering
from repro.clustering.static import StaticClustering
from repro.core.metrics import instantaneous_rmse, time_averaged_rmse
from repro.core.types import ClusterAssignment
from repro.datasets import (
    TraceDataset,
    load_alibaba_like,
    load_bitbrains_like,
    load_google_like,
)
from repro.exceptions import ConfigurationError
from repro.forecasting.membership import forecast_membership
from repro.forecasting.offsets import estimate_offsets
from repro.forecasting.window import WindowState

#: Dataset loaders in paper order.
DATASET_LOADERS: Dict[str, Callable[..., TraceDataset]] = {
    "alibaba": load_alibaba_like,
    "bitbrains": load_bitbrains_like,
    "google": load_google_like,
}

#: Resource types evaluated throughout Sec. VI.
RESOURCES = ("cpu", "memory")


def load_cluster_datasets(
    num_nodes: int, num_steps: int, *, seed_offset: int = 0
) -> Dict[str, TraceDataset]:
    """Load all three cluster datasets at the requested scale."""
    return {
        name: loader(num_nodes=num_nodes, num_steps=num_steps,
                     seed=idx * 101 + 7 + seed_offset)
        for idx, (name, loader) in enumerate(DATASET_LOADERS.items())
    }


def run_clustering(
    stored: np.ndarray,
    method: str,
    num_clusters: int,
    *,
    seed: int = 0,
    history_depth: int = 1,
    similarity: str = "intersection",
    full_trace: Optional[np.ndarray] = None,
) -> List[ClusterAssignment]:
    """Produce per-slot assignments of stored measurements by one method.

    Args:
        stored: Central-store values ``(T, N)`` (single resource).
        method: ``"proposed"`` (dynamic tracker), ``"minimum_distance"``
            or ``"static"``.
        num_clusters: K.
        seed: RNG seed.
        history_depth: M (only for ``"proposed"``).
        similarity: similarity measure (only for ``"proposed"``).
        full_trace: For ``"static"`` the offline baseline clusters on the
            *true* full time series (its unfair advantage); defaults to
            ``stored`` when not given.

    Returns:
        One :class:`ClusterAssignment` per slot.
    """
    num_steps = stored.shape[0]
    if method == "proposed":
        tracker = DynamicClusterTracker(
            num_clusters,
            history_depth=history_depth,
            similarity=similarity,
            seed=seed,
        )
        return [tracker.update(stored[t]) for t in range(num_steps)]
    if method == "minimum_distance":
        clusterer = MinimumDistanceClustering(num_clusters, seed=seed)
        return [clusterer.update(stored[t]) for t in range(num_steps)]
    if method == "static":
        reference = full_trace if full_trace is not None else stored
        static = StaticClustering(num_clusters, seed=seed).fit(reference)
        return [static.assign(stored[t], time=t) for t in range(num_steps)]
    raise ConfigurationError(f"unknown clustering method {method!r}")


def intermediate_rmse_of(
    stored: np.ndarray, assignments: Sequence[ClusterAssignment]
) -> float:
    """Time-averaged centroid-vs-stored RMSE over a run (Sec. VI-C)."""
    errors = []
    for t, assignment in enumerate(assignments):
        centers = assignment.centroids[assignment.labels][:, 0]
        errors.append(instantaneous_rmse(centers, stored[t]))
    return time_averaged_rmse(errors)


def rolling_forecast(
    series: np.ndarray,
    forecaster_factory: Callable[[], object],
    *,
    start: int,
    horizon: int,
    retrain_interval: int,
) -> Dict[int, float]:
    """Walk-forward forecasting of one series (used by Fig. 8).

    A model is fitted on ``series[:start]``, refitted every
    ``retrain_interval`` observations, and updated with each new value in
    between — matching the pipeline's training regime.  At every slot
    ``t ≥ start`` the model forecasts ``series[t + horizon]``.

    Returns:
        ``{target_time: prediction}`` for targets inside the series.
    """
    values = np.asarray(series, dtype=float)
    if start < 2 or start >= values.size:
        raise ConfigurationError(
            f"start={start} must be in [2, {values.size})"
        )
    model = forecaster_factory()
    model.fit(values[:start])
    predictions: Dict[int, float] = {}
    last_train = start - 1
    for t in range(start, values.size):
        model.update(float(values[t]))
        if t - last_train >= retrain_interval:
            model = forecaster_factory()
            model.fit(values[: t + 1])
            last_train = t
        target = t + horizon
        if target < values.size:
            predictions[target] = float(model.forecast(horizon)[horizon - 1])
    return predictions


def sample_hold_forecast_rmse(
    truth: np.ndarray,
    stored: np.ndarray,
    assignments: Sequence[ClusterAssignment],
    horizons: Sequence[int],
    *,
    membership_lookback: int = 5,
    start: int = 0,
    offset_mode: str = "clipped",
) -> Dict[int, float]:
    """RMSE(T, h) of the sample-and-hold forecaster on given clusterings.

    The forecasted centroid is held at its current value
    (``ĉ_{j,t+h} = c_{j,t}``); membership is the majority vote over
    ``[t − M', t]`` and the offset is Eq. 12 — i.e. the full Sec. V-C
    machinery with the S&H temporal model, advanced one slot at a time
    through one :class:`~repro.forecasting.window.WindowState` exactly
    as in the online pipeline.  Used by Figs. 10, 11 and
    Table III, which all fix the forecaster to sample-and-hold.

    Args:
        truth: True values ``(T, N)``.
        stored: Stored values ``(T, N)``.
        assignments: Per-slot assignments (from :func:`run_clustering`).
        horizons: Forecast steps ``h >= 1`` to evaluate.
        membership_lookback: The paper's M'.
        start: First slot to forecast from (e.g. after an initial
            collection phase).
        offset_mode: ``"clipped"`` (Eq. 12, the paper), ``"raw"``
            (offsets without α-clipping, i.e. α = 1) or ``"none"`` (no
            per-node offset; pure centroid estimation as in Sec. VI-C) —
            used by the ablation experiments.

    Returns:
        ``{h: RMSE(T, h)}``.
    """
    if offset_mode not in ("clipped", "raw", "none"):
        raise ConfigurationError(
            f"offset_mode must be 'clipped', 'raw' or 'none', got "
            f"{offset_mode!r}"
        )
    num_steps = truth.shape[0]
    label_window: List[np.ndarray] = []
    sq_sums = {h: 0.0 for h in horizons}
    counts = {h: 0 for h in horizons}
    window = membership_lookback + 1
    stored_window: List[np.ndarray] = []
    centroid_window: List[np.ndarray] = []
    state = WindowState()
    for t in range(num_steps):
        assignment = assignments[t]
        label_window.append(assignment.labels)
        stored_window.append(stored[t][:, np.newaxis])
        centroid_window.append(assignment.centroids)
        if len(stored_window) > window:
            label_window.pop(0)
            stored_window.pop(0)
            centroid_window.pop(0)
        if t < start:
            continue
        memberships = forecast_membership(
            label_window, membership_lookback, state
        )
        if offset_mode == "none":
            offsets = np.zeros(truth.shape[1])
        else:
            offsets = estimate_offsets(
                stored_window, centroid_window, memberships,
                membership_lookback, clip=(offset_mode == "clipped"),
                state=state,
            )[:, 0]
        held_centroids = assignment.centroids[:, 0]
        prediction = held_centroids[memberships] + offsets
        for h in horizons:
            if t + h >= num_steps:
                continue
            err = instantaneous_rmse(prediction, truth[t + h])
            sq_sums[h] += err**2
            counts[h] += 1
    return {
        h: float(np.sqrt(sq_sums[h] / counts[h]))
        for h in horizons
        if counts[h] > 0
    }
