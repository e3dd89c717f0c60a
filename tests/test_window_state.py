"""The incremental M' window against the stateless calls.

:class:`~repro.forecasting.window.WindowState` advances the membership
vote and the Eq. 12 α's by one slot per slot.  These tests pin every
incremental result bit-identical to the stateless call on the same
window (which builds a fresh state slot by slot), through the online
pipeline — across vote flips, cluster relabels, fleet churn, checkpoint
restores on both load paths, float32 state and joint clustering — and
through the bare functions with clipping on and off.  They also pin the
restore checks on the arrays the state is rebuilt from.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.checkpoint import Checkpoint
from repro.core import pipeline as pipeline_module
from repro.core.config import (
    ClusteringConfig,
    ForecastingConfig,
    PipelineConfig,
    TransmissionConfig,
)
from repro.core.pipeline import OnlinePipeline
from repro.exceptions import CheckpointError
from repro.forecasting.membership import forecast_membership
from repro.forecasting.offsets import estimate_offsets
from repro.forecasting.window import WindowState

CENTERS = np.array([0.1, 0.5, 0.9])
EVENTS = (
    "step", "flip", "relabel", "grow", "compact", "shuffle", "load",
    "load_mmap",
)


class Oracle:
    """Checks each stateful call of the pipeline's bindings against the
    same call without a state, and that consecutive calls advance the
    same state instead of rebuilding it."""

    def __init__(self) -> None:
        self.advanced = 0
        # id(state) -> (state, label ring, α ring) after its last call.
        self._rings = {}
        self._membership = pipeline_module.forecast_membership
        self._offsets = pipeline_module.estimate_offsets

    def drop(self) -> None:
        """The pipeline was restored or reindexed: its states restart."""
        self._rings = {}

    def membership(self, labels, lookback, state=None):
        assert isinstance(state, WindowState)
        if id(state) in self._rings:
            # Advanced, not rebuilt: the rings are the same objects.
            _, labels_ring, alphas_ring = self._rings[id(state)]
            assert state.labels is labels_ring
            assert state.alphas is alphas_ring
            self.advanced += 1
        out = self._membership(labels, lookback, state)
        np.testing.assert_array_equal(out, self._membership(labels, lookback))
        return out

    def offsets(self, stored, cents, memberships, lookback, *, clip=True,
                state=None):
        assert isinstance(state, WindowState)
        out = self._offsets(
            stored, cents, memberships, lookback, clip=clip, state=state
        )
        fresh = self._offsets(stored, cents, memberships, lookback, clip=clip)
        assert out.dtype == fresh.dtype and out.tobytes() == fresh.tobytes()
        self._rings[id(state)] = (state, state.labels, state.alphas)
        return out

    def patched(self):
        return mock.patch.multiple(
            pipeline_module,
            forecast_membership=self.membership,
            estimate_offsets=self.offsets,
        )


def pipeline_config(lookback, dtype, joint, num_clusters=3):
    return PipelineConfig(
        clustering=ClusteringConfig(
            num_clusters=num_clusters, seed=0, scalar_per_resource=not joint
        ),
        forecasting=ForecastingConfig(
            model="sample_hold",
            max_horizon=2,
            initial_collection=3,
            retrain_interval=4,
            membership_lookback=lookback,
        ),
        dtype=dtype,
    )


def reload(pipeline, config, directory, mmap):
    """Round-trip the pipeline's state through a checkpoint file."""
    path = directory / "pipeline.zip"
    Checkpoint(
        config=config.to_dict(), session={},
        state={"pipeline": pipeline.get_state()},
    ).save(path)
    loaded = Checkpoint.load(path, mmap=mmap)
    fresh = OnlinePipeline(pipeline.num_nodes, pipeline.num_resources, config)
    fresh.set_state(loaded.state["pipeline"], adopt=loaded.claim_adoption())
    return fresh


class TestPipelineWindowMatchesStateless:
    @given(
        seed=st.integers(0, 10_000),
        lookback=st.sampled_from([1, 2, 4, 300]),
        dtype=st.sampled_from(["float64", "float32"]),
        shape=st.sampled_from([(1, False), (2, False), (2, True)]),
        events=st.lists(st.sampled_from(EVENTS), min_size=8, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_slot_bit_identical(
        self, tmp_path_factory, seed, lookback, dtype, shape, events
    ):
        dim, joint = shape
        rng = np.random.default_rng(seed)
        config = pipeline_config(lookback, dtype, joint)
        groups = rng.integers(0, 3, size=(int(rng.integers(6, 20)), dim))
        pipeline = OnlinePipeline(groups.shape[0], dim, config)
        oracle = Oracle()
        directory = tmp_path_factory.mktemp("window")
        with oracle.patched():
            for event in ["step"] * 3 + events + ["step"] * 2:
                if event == "flip":  # one node jumps to another cluster
                    node = int(rng.integers(groups.shape[0]))
                    groups[node] = (groups[node] + 1) % 3
                elif event == "relabel":  # a whole cluster moves
                    source, target = rng.choice(3, size=2, replace=False)
                    groups[groups == source] = target
                elif event == "grow":
                    count = int(rng.integers(1, 4))
                    pipeline.reindex_nodes(np.concatenate([
                        np.arange(groups.shape[0]), np.full(count, -1)
                    ]))
                    groups = np.concatenate(
                        [groups, rng.integers(0, 3, size=(count, dim))]
                    )
                    oracle.drop()
                elif event == "compact" and groups.shape[0] > 4:
                    keep = np.sort(rng.choice(
                        groups.shape[0], size=groups.shape[0] - 2,
                        replace=False,
                    ))
                    pipeline.reindex_nodes(keep)
                    groups = groups[keep]
                    oracle.drop()
                elif event == "shuffle":  # churn that keeps N
                    order = rng.permutation(groups.shape[0])
                    pipeline.reindex_nodes(order)
                    groups = groups[order]
                    oracle.drop()
                elif event.startswith("load"):
                    pipeline = reload(
                        pipeline, config, directory, event == "load_mmap"
                    )
                    oracle.drop()
                noise = rng.normal(0, 0.04, size=groups.shape)
                pipeline.step(CENTERS[groups] + noise)
        assert oracle.advanced > 0


@pytest.mark.parametrize("mmap", [False, True])
def test_set_state_replaces_a_live_window(tmp_path, mmap):
    """Loading another pipeline's state at the same slot forgets the
    window state built from this pipeline's own history."""
    config = pipeline_config(2, "float64", False)
    rng = np.random.default_rng(5)
    ours, theirs = (OnlinePipeline(10, 1, config) for _ in range(2))
    for _ in range(8):
        ours.step(rng.random((10, 1)))
        theirs.step(rng.random((10, 1)))
    restored = reload(theirs, config, tmp_path, mmap)
    loaded = Checkpoint.load(tmp_path / "pipeline.zip", mmap=mmap)
    ours.set_state(loaded.state["pipeline"], adopt=loaded.claim_adoption())
    for _ in range(3):
        values = rng.random((10, 1))
        mine, reference = ours.step(values), restored.step(values)
        for h in reference.node_forecasts:
            np.testing.assert_array_equal(
                mine.node_forecasts[h], reference.node_forecasts[h]
            )


def test_snapshots_do_not_change_a_continuing_session(tmp_path):
    """A snapshot frees the window states; the session rebuilds them and
    goes on exactly as one that never snapshotted."""
    config = pipeline_config(3, "float64", False)
    rng = np.random.default_rng(11)
    trace = rng.random((20, 12, 2))
    plain, saving = (Engine(config).session(12, 2) for _ in range(2))
    for t, values in enumerate(trace):
        if t % 4 == 3:
            saving.save(tmp_path / "ckpt.zip")
        expected, output = plain.ingest(values), saving.ingest(values)
        for h in expected.node_forecasts or {}:
            np.testing.assert_array_equal(
                output.node_forecasts[h], expected.node_forecasts[h]
            )


def random_stream(rng, slots, num_nodes, num_clusters, dim):
    """Labels, stored values and centroids with vote flips and whole
    cluster relabels (a permutation of the cluster indices)."""
    centers = rng.normal(size=(num_clusters, dim))
    labels = rng.integers(0, num_clusters, size=num_nodes)
    for _ in range(slots):
        event = rng.random()
        if event < 0.3:
            node = rng.integers(num_nodes)
            labels[node] = rng.integers(num_clusters)
        elif event < 0.4:
            permutation = rng.permutation(num_clusters)
            labels = permutation[labels]
            centers = centers[np.argsort(permutation)]
        cents = centers + rng.normal(0, 0.05, size=centers.shape)
        stored = cents[labels] + rng.normal(0, 0.6, size=(num_nodes, dim))
        yield labels.copy(), stored, cents


class TestFunctionsMatchStateless:
    @given(
        seed=st.integers(0, 10_000),
        lookback=st.sampled_from([0, 1, 3, 300]),
        clip=st.booleans(),
        dim=st.integers(1, 3),
        num_clusters=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_stream_bit_identical(self, seed, lookback, clip, dim,
                                  num_clusters):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 25))
        state = WindowState()
        labels_window, stored_window, cents_window = [], [], []
        stream = random_stream(rng, 20, num_nodes, num_clusters, dim)
        for labels, stored, cents in stream:
            labels_window.append(labels)
            stored_window.append(stored)
            cents_window.append(cents)
            votes = forecast_membership(labels_window, lookback, state)
            np.testing.assert_array_equal(
                votes, forecast_membership(labels_window, lookback)
            )
            offsets = estimate_offsets(
                stored_window, cents_window, votes, lookback, clip=clip,
                state=state,
            )
            fresh = estimate_offsets(
                stored_window, cents_window, votes, lookback, clip=clip
            )
            assert offsets.tobytes() == fresh.tobytes()

    def test_mismatched_window_rebuilds(self):
        state = WindowState()
        history = [np.array([0, 1, 1]), np.array([1, 1, 0])]
        forecast_membership(history, 3, state)
        # A different fleet size is not "one slot later": rebuilt.
        other = [np.array([2, 0]), np.array([2, 2])]
        np.testing.assert_array_equal(
            forecast_membership(other, 3, state), [2, 2]
        )

    @pytest.mark.parametrize(
        "lookback,dtype", [(1, np.uint8), (300, np.uint16),
                           (70_000, np.uint32)],
    )
    def test_counts_hold_the_window(self, lookback, dtype):
        state = WindowState()
        history = [np.array([0, 1])] * 3
        forecast_membership(history, lookback, state)
        assert state.counts.dtype == dtype

    def test_many_clusters_widen_the_label_ring(self):
        state = WindowState()
        history = [np.array([0, 1]), np.array([1, 1])]
        forecast_membership(history, 5, state)
        history.append(np.array([300, 1]))
        np.testing.assert_array_equal(
            forecast_membership(history, 5, state),
            forecast_membership(history, 5),
        )
        assert state.labels[0].dtype == np.uint16


def session_checkpoint(tmp_path):
    config = PipelineConfig(
        transmission=TransmissionConfig(budget=0.3),
        clustering=ClusteringConfig(num_clusters=2, seed=0),
        forecasting=ForecastingConfig(
            model="sample_hold", initial_collection=4, retrain_interval=4,
            membership_lookback=3,
        ),
    )
    engine = Engine(config)
    session = engine.session(8, 1)
    rng = np.random.default_rng(0)
    for _ in range(6):
        session.ingest(rng.random((8, 1)))
    return engine, session.save(tmp_path / "good.zip")


#: (member named in the error, how the crafted checkpoint breaks it)
CRAFTED = [
    ("stored_history.window", lambda s: s["stored_history"].update(
        window=s["stored_history"]["window"][:, :-1])),
    ("stored_history.window", lambda s: s["stored_history"].update(
        window=s["stored_history"]["window"].astype(np.float32))),
    ("label_history[0].window", lambda s: s["label_history"][0].update(
        window=s["label_history"][0]["window"].astype(float))),
    ("label_history[0].maxlen", lambda s: s["label_history"][0].update(
        maxlen=7)),
    ("trackers[0].labels", lambda s: s["trackers"][0].update(
        labels=s["trackers"][0]["labels"][:, 1:])),
    ("trackers[0].centroids", lambda s: s["trackers"][0].update(
        centroids=s["trackers"][0]["centroids"][:, :1])),
]


class TestRestoreFailsLoudly:
    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("member,crafted", CRAFTED)
    def test_crafted_checkpoint_names_the_member(self, tmp_path, member,
                                                 crafted, mmap):
        engine, path = session_checkpoint(tmp_path)
        checkpoint = Checkpoint.load(path, mmap=False)
        crafted(checkpoint.state["pipeline"])
        path = checkpoint.save(tmp_path / "crafted.zip")
        with pytest.raises(CheckpointError) as error:
            engine.resume(path, mmap=mmap)
        assert f"pipeline.{member}" in str(error.value)

    def test_rejected_state_leaves_the_pipeline_untouched(self, tmp_path):
        engine, path = session_checkpoint(tmp_path)
        checkpoint = Checkpoint.load(path, mmap=False)
        state = checkpoint.state["pipeline"]
        pipeline = OnlinePipeline(8, 1, engine.config)
        before = pipeline.get_state()
        state["trackers"][0]["labels"] = state["trackers"][0]["labels"][:, 1:]
        with pytest.raises(CheckpointError, match="trackers"):
            pipeline.set_state(state)
        assert pipeline.time == before["time"] == 0
        assert pipeline.get_state()["stored_history"]["window"] is None
