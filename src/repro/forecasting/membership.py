"""Forecasting future cluster membership (Sec. V-C).

At time ``t`` the paper predicts that node ``i`` will belong, at any
future step ``t + h``, to the cluster it occupied most frequently during
the look-back interval ``[t − M', t]`` (ties broken toward the most
recent occupancy).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DataError
from repro.forecasting.window import WindowState


def forecast_membership(
    label_history: Sequence[np.ndarray],
    lookback: int,
    state: Optional[WindowState] = None,
) -> np.ndarray:
    """Majority-vote membership forecast.

    Args:
        label_history: Per-slot label arrays, oldest first; each has shape
            ``(N,)``.  Only the last ``lookback + 1`` entries (the paper's
            ``[t − M', t]`` window) are used.
        lookback: The look-back ``M'``.
        state: The group's :class:`~repro.forecasting.window.WindowState`,
            to advance by this call's newest slot.  Without it a fresh
            state is built from the whole window, with the same code.

    Returns:
        Array of shape ``(N,)``: the forecasted cluster of each node.
    """
    if lookback < 0:
        raise ConfigurationError(f"lookback must be >= 0, got {lookback}")
    if not label_history:
        raise DataError("label_history is empty")
    window = label_history[-(lookback + 1):]
    num_nodes = np.shape(window[0])[0]
    if any(np.shape(l) != (num_nodes,) for l in window):
        raise DataError("label arrays in history have inconsistent shapes")
    if state is None:
        state = WindowState()
    new = state.labels_to_absorb(lookback + 1, len(window), num_nodes)
    nodes = np.arange(num_nodes)
    for labels in window[len(window) - new:]:
        labels = np.asarray(labels, dtype=int)
        if labels.size and labels.min() < 0:
            raise DataError("cluster labels must be >= 0")
        top = int(labels.max(initial=0)) + 1
        if top > state.counts.shape[1]:
            state.grow_clusters(top)
        # Flat (node, cluster) indices into the counts.
        rows = nodes * state.counts.shape[1]
        counts = state.counts.reshape(-1)
        ring = state.labels
        if len(ring) == ring.maxlen:
            counts[rows + ring[0]] -= 1  # evict the oldest slot
        counts[rows + labels] += 1
        ring.append(labels.astype(state.label_dtype))
    # A node whose newest label is its current vote keeps it: that
    # cluster gained a count and is the most recent.  Every other node
    # is re-voted from its counts.
    changed = np.flatnonzero(labels != state.vote)
    if changed.size:
        counts = state.counts[changed]  # (n, K)
        tied = counts == counts.max(axis=1, keepdims=True)
        # Tie-break toward the most recently occupied cluster among the
        # maximal ones, which keeps the forecast stable under
        # oscillation: the newest slot holding a tied cluster names it.
        history = np.stack([row[changed] for row in state.labels])  # (W, n)
        column = np.arange(changed.size)
        newest = history.shape[0] - 1 - tied[column, history][::-1].argmax(
            axis=0
        )
        state.vote[changed] = history[newest, column]
    return state.vote.copy()


def membership_stability(label_history: Sequence[np.ndarray]) -> float:
    """Fraction of nodes whose cluster did not change across the window.

    A diagnostic used in tests and ablations: values near 1 mean cluster
    identities persist, which is when centroid forecasting is meaningful.
    """
    if len(label_history) < 2:
        return 1.0
    stacked = np.stack([np.asarray(l, dtype=int) for l in label_history])
    stable = np.all(stacked == stacked[0], axis=0)
    return float(np.mean(stable))
