"""Per-node offsets with α-clipping (Eq. 12, Sec. V-C).

The forecast for node ``i`` is the forecasted centroid of its predicted
cluster plus an offset

    ŝ_{i,t+h} = (1/(M'+1)) Σ_{m=0..M'} α_{t−m} · (z_{i,t−m} − c_{j,t−m})

where the scaling coefficient ``α ∈ (0, 1]`` is the largest value keeping
``c_j + α·(z_i − c_j)`` closest to centroid ``c_j`` among all centroids
(α = 1 when ``z_i`` already belongs to cluster ``j``).  The clipping
prevents the reconstructed value from crossing into a different cluster
than the one whose centroid is being forecast.

The α computation is vectorized over nodes: the boundary crossings of
one slot are evaluated rival by rival over all nodes at once instead of
through per-node Python-level dot products.  :func:`estimate_offsets`
keeps the window's α's in a
:class:`~repro.forecasting.window.WindowState`, so a streaming slot
computes only its newest slot's α's plus the rows of nodes whose
forecast cluster changed.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, DataError
from repro.forecasting.window import WindowState


def _validate_clusters(idx: np.ndarray, num_clusters: int) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= num_clusters):
        bad = int(idx[(idx < 0) | (idx >= num_clusters)][0])
        raise ConfigurationError(
            f"cluster {bad} outside [0, {num_clusters})"
        )


def alpha_clip_batch(
    values: np.ndarray, centroids: np.ndarray, clusters: np.ndarray
) -> np.ndarray:
    """Vectorized α-clipping for many nodes against one centroid set.

    For every node ``i`` this computes the largest ``α ∈ (0, 1]`` keeping
    ``c_j + α(z_i − c_j)`` closest to centroid ``j = clusters[i]`` — the
    same rule as :func:`alpha_clip`, evaluated for all nodes at once.

    Args:
        values: Stored measurements ``z``, shape ``(N, d)`` or ``(N,)``.
        centroids: All centroids, shape ``(K, d)`` or ``(K,)``.
        clusters: Target cluster index per node, shape ``(N,)``.

    Returns:
        α per node, shape ``(N,)``.
    """
    z = np.asarray(values, dtype=float)
    if z.ndim == 1:
        z = z[:, np.newaxis]
    cents = np.asarray(centroids, dtype=float)
    if cents.ndim == 1:
        cents = cents[:, np.newaxis]
    idx = np.asarray(clusters, dtype=int)
    _validate_clusters(idx, cents.shape[0])
    own = cents[idx]  # (N, d)
    return _clipped_alphas(z - own, cents, own)


def _clipped_alphas(
    direction: np.ndarray, centroids: np.ndarray, own: np.ndarray
) -> np.ndarray:
    """Boundary-crossing α's of ``n`` nodes, for one or more slots.

    ``direction`` is ``z − c_j`` per node, shape ``(..., n, d)``, ``own``
    the matching centroid ``c_j`` and ``centroids`` the ``(..., K, d)``
    centroids of each slot.  The rivals are visited one at a time, so
    the largest temporary is ``(..., n, d)``.
    """

    def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Σ_d a·b per node; for d = 1 the product itself, which differs
        # from ``sum`` only in the sign of a zero (never read below).
        product = a * b
        return product[..., 0] if product.shape[-1] == 1 else product.sum(-1)

    alphas = np.ones(direction.shape[:-1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(centroids.shape[-2]):
            rival = centroids[..., k:k + 1, :]
            # Rival displacement u = c_k − c_j.  Boundary:
            # ||α·direction||² == ||α·direction − u||²
            #   ⇔ α == ||u||² / (2 · direction·u), relevant only when the
            # direction actually moves toward the rival (projection > 0);
            # the own cluster has u = 0 and is excluded the same way:
            # projection <= 0 (or NaN) gets a +0 denominator, hence a
            # boundary of +inf or NaN, which ``fmin`` skips.
            u = rival - own
            denominator = np.abs(np.maximum(2.0 * dot(direction, u), 0.0))
            np.fmin(alphas, dot(u, u) / denominator, out=alphas)
    np.maximum(alphas, 1e-12, out=alphas)
    return np.where(dot(direction, direction) == 0.0, 1.0, alphas)


def alpha_clip(
    value: np.ndarray, centroids: np.ndarray, cluster: int
) -> float:
    """Largest α ∈ (0, 1] keeping ``c_j + α(z − c_j)`` in cluster ``j``.

    Args:
        value: The node's stored measurement ``z`` (d-vector or scalar).
        centroids: All centroids, shape ``(K, d)`` or ``(K,)``.
        cluster: Target cluster index ``j``.

    Returns:
        α = 1 when the point already lies in cluster ``j`` (or exactly on
        its centroid); otherwise the boundary-crossing α, floored at a
        small positive value so the offset never flips sign.
    """
    z = np.atleast_1d(np.asarray(value, dtype=float))
    return float(
        alpha_clip_batch(z[np.newaxis, :], centroids, np.asarray([cluster]))[0]
    )


def _slot_alphas(
    stored: np.ndarray, centroids: np.ndarray, clusters: np.ndarray,
    clip: bool,
) -> np.ndarray:
    """α of ``(..., n, d)`` values against ``clusters``, one slot per
    leading index (α = 1 without clipping)."""
    if not clip:
        return np.ones(stored.shape[:-1])
    own = np.take(centroids, clusters, axis=-2)
    return _clipped_alphas(stored - own, centroids, own)


def estimate_offsets(
    stored_history: Sequence[np.ndarray],
    centroid_history: Sequence[np.ndarray],
    memberships: np.ndarray,
    lookback: int,
    *,
    clip: bool = True,
    state: Optional[WindowState] = None,
) -> np.ndarray:
    """Compute the per-node offsets ``ŝ`` of Eq. 12.

    The α's live in the window state's ``(W, N)`` ring: each call
    computes the newest slot's α's and recomputes, slot by slot, only
    the rows of nodes whose forecast cluster changed.  The offsets are
    then summed oldest slot first, so every term and the summation
    order are those of the whole-window definition.

    Args:
        stored_history: Per-slot stored measurements ``z``, oldest first;
            each of shape ``(N, d)`` (or ``(N,)``).  Only the final
            ``lookback + 1`` slots are used.
        centroid_history: Per-slot centroid arrays ``(K, d)`` aligned with
            ``stored_history``.
        memberships: Shape ``(N,)`` — the forecasted cluster ``j`` per
            node (from :func:`~repro.forecasting.membership.forecast_membership`).
        lookback: The look-back ``M'``.
        clip: Apply the α-clipping of Eq. 12 (the paper's rule).  When
            False the raw deviation ``z − c`` is averaged instead (α = 1)
            — used by the clipping ablation.
        state: The group's :class:`~repro.forecasting.window.WindowState`,
            to advance by this call's newest slot.  Without it a fresh
            state is built from the whole window, with the same code.

    Returns:
        Offsets of shape ``(N, d)``, float64.
    """
    if lookback < 0:
        raise ConfigurationError(f"lookback must be >= 0, got {lookback}")
    if len(stored_history) != len(centroid_history):
        raise DataError(
            "stored_history and centroid_history lengths differ: "
            f"{len(stored_history)} vs {len(centroid_history)}"
        )
    if not stored_history:
        raise DataError("histories are empty")
    window = min(lookback + 1, len(stored_history))
    memberships = np.asarray(memberships, dtype=int)
    num_nodes = np.shape(stored_history[-window])[0]
    if memberships.shape != (num_nodes,):
        raise DataError(
            f"memberships must have shape ({num_nodes},), got {memberships.shape}"
        )
    stored = [
        np.asarray(s, dtype=float).reshape(num_nodes, -1)
        for s in stored_history[-window:]
    ]
    dim = stored[0].shape[1]
    cents = [
        np.asarray(c, dtype=float).reshape(-1, dim)
        for c in centroid_history[-window:]
    ]
    num_clusters = cents[0].shape[0]
    if any(c.shape[0] != num_clusters for c in cents):
        raise DataError("centroid arrays in history have inconsistent shapes")
    _validate_clusters(memberships, num_clusters)

    if state is None:
        state = WindowState()
    new = state.alphas_to_absorb(lookback + 1, window, num_nodes, clip)
    alphas = state.alphas
    for m in range(window - new, window):
        alphas.append(_slot_alphas(stored[m], cents[m], memberships, clip))
    # Rows computed against another cluster, in the slots already held.
    changed = () if new > 1 else np.flatnonzero(memberships != state.alpha_for)
    if len(changed) and window > 1:
        held = range(window - 1)
        recomputed = _slot_alphas(
            np.stack([stored[m][changed] for m in held]),
            np.stack([cents[m] for m in held]),
            memberships[changed],
            clip,
        )
        for m in held:
            alphas[m][changed] = recomputed[m]
    state.alpha_for[:] = memberships

    # Accumulate slot by slot (oldest first) so the floating-point
    # summation order matches the streaming definition exactly.
    offsets = np.zeros((num_nodes, dim))
    term = np.empty((num_nodes, dim))
    for m in range(window):
        own = np.take(cents[m], memberships, axis=0)
        np.subtract(stored[m], own, out=term)
        term *= alphas[m][:, np.newaxis]
        offsets += term
    offsets /= window
    return offsets
