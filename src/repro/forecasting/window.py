"""Incremental state of the look-back window ``[t − M', t]`` (Sec. V-C).

The membership vote and the α-clipped offsets of Eq. 12 both read the
last ``W = M' + 1`` slots, and each slot changes that window by one slot
at each end.  A :class:`WindowState` carries what the two computations
need to advance by one slot instead of re-reading the whole window:

* **the vote** — each node's count of every cluster over the window,
  the window's labels (so the oldest slot can be evicted and the
  most-recent tie-break read back), and each node's current vote;
* **the offsets** — a ``(W, N)`` float64 ring of α's, each computed
  against the cluster its node is currently forecast to
  (:attr:`alpha_for`); a node whose forecast cluster changes has its
  whole row recomputed.

The state is *derived*: it is never checkpointed.  A fresh state is
built from the window it is handed, one slot at a time, by the same
code that advances it, so the stateless calls of
:func:`~repro.forecasting.membership.forecast_membership` and
:func:`~repro.forecasting.offsets.estimate_offsets` (which build a
fresh state) and the incremental calls agree bit for bit.

Contract: each call that passes a state hands it the window advanced by
exactly one slot since the previous call with that state.  A state that
sees a different window size, fleet size or clipping mode starts over;
callers that change the window in any other way (restore, fleet churn)
must drop the state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.ring import SlotRing


class WindowState:
    """Per-resource-group vote counts and α ring of the M' window.

    Both halves start empty; :func:`forecast_membership` fills the vote
    half and :func:`estimate_offsets` the α half.
    """

    __slots__ = (
        "labels", "counts", "vote", "alphas", "alpha_for", "clip",
    )

    def __init__(self) -> None:
        #: The window's labels, oldest first, in the smallest unsigned
        #: dtype that holds every cluster index seen.
        self.labels: Optional[SlotRing] = None
        #: ``(N, K)`` count of each cluster per node over the window, in
        #: the smallest unsigned dtype that holds ``W`` (``M'`` is
        #: unbounded).
        self.counts: Optional[np.ndarray] = None
        #: ``(N,)`` current vote; −1 before the first vote.
        self.vote: Optional[np.ndarray] = None
        #: The window's α's, oldest first, each an ``(N,)`` float64 row.
        self.alphas: Optional[SlotRing] = None
        #: ``(N,)`` cluster each node's α row was computed against.
        self.alpha_for: Optional[np.ndarray] = None
        self.clip: Optional[bool] = None

    def labels_to_absorb(self, window: int, size: int, num_nodes: int) -> int:
        """How many trailing slots of a ``size``-slot label window are new.

        Resets the vote half (and returns ``size``) unless this window
        is the previous one advanced by exactly one slot.
        """
        ring = self.labels
        if (
            ring is None or ring.maxlen != window
            or self.vote.shape[0] != num_nodes
            or size != min(len(ring) + 1, window)
        ):
            self.labels = SlotRing(window)
            self.counts = np.zeros(
                (num_nodes, 1), dtype=np.min_scalar_type(window)
            )
            self.vote = np.full(num_nodes, -1, dtype=np.int64)
            return size
        return 1

    def alphas_to_absorb(
        self, window: int, size: int, num_nodes: int, clip: bool
    ) -> int:
        """How many trailing slots of a ``size``-slot stored window are
        new; resets the α half (and returns ``size``) like
        :meth:`labels_to_absorb`."""
        ring = self.alphas
        if (
            ring is None or ring.maxlen != window or self.clip != clip
            or self.alpha_for.shape[0] != num_nodes
            or size != min(len(ring) + 1, window)
        ):
            self.alphas = SlotRing(window)
            self.alpha_for = np.full(num_nodes, -1, dtype=np.int64)
            self.clip = clip
            return size
        return 1

    def grow_clusters(self, num_clusters: int) -> None:
        """Widen the counts (and, if needed, the label dtype) to
        ``num_clusters`` clusters."""
        counts = self.counts
        extra = num_clusters - counts.shape[1]
        self.counts = np.concatenate(
            [counts, np.zeros((counts.shape[0], extra), dtype=counts.dtype)],
            axis=1,
        )
        dtype = np.min_scalar_type(num_clusters - 1)
        ring = self.labels
        if len(ring) and ring[0].dtype != dtype:
            wider = SlotRing(ring.maxlen)
            for row in ring:
                wider.append(row.astype(dtype))
            self.labels = wider

    @property
    def label_dtype(self) -> np.dtype:
        return np.min_scalar_type(self.counts.shape[1] - 1)


__all__ = ["WindowState"]
