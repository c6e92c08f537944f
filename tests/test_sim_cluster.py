"""Tests for SimCluster and timeline tracing."""

import numpy as np
import pytest

from repro.comm import intra_host_groups, peer_groups
from repro.hardware import Cluster
from repro.sim import Phase, SimCluster, Timeline


@pytest.fixture
def sim():
    return SimCluster(Cluster(num_hosts=2, gpus_per_host=2, generation="A100"))


class TestTimeline:
    def test_totals_and_breakdown(self):
        tl = Timeline()
        tl.add(Phase.COMPUTE, "fwd", 0.010)
        tl.add(Phase.COMPUTE, "bwd", 0.020)
        tl.add(Phase.EMBEDDING_COMM, "a2a", 0.005)
        assert tl.total() == pytest.approx(0.035)
        assert tl.total(Phase.COMPUTE) == pytest.approx(0.030)
        assert tl.breakdown()[Phase.EMBEDDING_COMM] == pytest.approx(0.005)

    def test_percentages_sum_to_100(self):
        tl = Timeline()
        tl.add(Phase.COMPUTE, "x", 0.7)
        tl.add(Phase.OTHER, "y", 0.3)
        pct = tl.percentages()
        assert sum(pct.values()) == pytest.approx(100.0)
        assert pct[Phase.COMPUTE] == pytest.approx(70.0)

    def test_empty_percentages(self):
        assert Timeline().percentages() == {}

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline().add(Phase.COMPUTE, "x", -1.0)

    def test_format_table_mentions_phases(self):
        tl = Timeline()
        tl.add(Phase.COMPUTE, "x", 0.5)
        text = tl.format_table()
        assert "compute" in text and "total" in text


class TestSimClusterCollectives:
    def test_allreduce_moves_data_and_prices(self, sim):
        out = sim.allreduce(
            sim.world,
            {r: np.full(4, float(r)) for r in range(4)},
            phase=Phase.DENSE_SYNC,
            label="grads",
        )
        np.testing.assert_allclose(out[2], np.full(4, 6.0))
        assert sim.timeline.total(Phase.DENSE_SYNC) > 0

    def test_alltoall_records_bytes(self, sim):
        buffers = {r: [np.zeros(2) for _ in range(4)] for r in range(4)}
        sim.alltoall(sim.world, buffers, phase=Phase.EMBEDDING_COMM, label="emb")
        event = sim.timeline.events[-1]
        assert event.nbytes == 4 * 2 * 8  # four float64 buckets per rank
        assert event.world_size == 4

    def test_concurrent_alltoall_prices_max_not_sum(self, sim):
        buffers = {r: [np.zeros(128) for _ in range(2)] for r in range(4)}
        sim.alltoall_concurrent(
            peer_groups(sim.cluster), buffers, phase=Phase.EMBEDDING_COMM,
            label="peer",
        )
        t_concurrent = sim.timeline.total()

        sim2 = SimCluster(sim.cluster)
        for pg in peer_groups(sim2.cluster):
            sub = {r: buffers[r] for r in pg.ranks}
            sim2.alltoall(pg, sub, phase=Phase.EMBEDDING_COMM, label="seq")
        t_sequential = sim2.timeline.total()
        assert t_concurrent < t_sequential

    def test_concurrent_alltoall_rejects_overlapping_groups(self, sim):
        buffers = {r: [np.zeros(2) for _ in range(4)] for r in range(4)}
        with pytest.raises(ValueError, match="disjoint"):
            sim.alltoall_concurrent(
                [sim.world, sim.world], buffers, Phase.EMBEDDING_COMM, "bad"
            )

    def test_concurrent_allreduce_rejects_overlapping_groups(self, sim):
        """[host 0, world] used to return the world sum for ranks 0-1
        and price the max, as if the two reductions could overlap."""
        buffers = {r: np.full(2, float(r)) for r in range(4)}
        with pytest.raises(ValueError, match="allreduce groups must be disjoint"):
            sim.allreduce_concurrent(
                [intra_host_groups(sim.cluster)[0], sim.world],
                buffers, Phase.DENSE_SYNC, "bad",
            )
        assert len(sim.timeline) == 0

    def test_concurrent_allreduce_per_host(self, sim):
        out = sim.allreduce_concurrent(
            intra_host_groups(sim.cluster),
            {r: np.full(2, float(r)) for r in range(4)},
            phase=Phase.DENSE_SYNC,
            label="tm-sync",
        )
        np.testing.assert_allclose(out[0], [1.0, 1.0])  # ranks 0+1
        np.testing.assert_allclose(out[3], [5.0, 5.0])  # ranks 2+3

    def test_reducescatter_allgather(self, sim):
        rs = sim.reducescatter(
            sim.world,
            {r: np.arange(4, dtype=float) for r in range(4)},
            phase=Phase.EMBEDDING_COMM,
            label="rs",
        )
        np.testing.assert_allclose(rs[1], [4.0])
        ag = sim.allgather(sim.world, rs, phase=Phase.EMBEDDING_COMM, label="ag")
        np.testing.assert_allclose(ag[0], [0.0, 4.0, 8.0, 12.0])

    def test_allgather_prices_per_rank_input_payload(self, sim):
        """Regression: the event must record the pre-gather shard (the
        per-rank payload convention), not the W-times-larger gathered
        buffer, and time it accordingly."""
        shard = np.zeros(32)  # 256 B float64 per rank
        sim.allgather(
            sim.world,
            {r: shard.copy() for r in range(4)},
            phase=Phase.EMBEDDING_COMM,
            label="ag",
        )
        event = sim.timeline.events[-1]
        assert event.nbytes == shard.nbytes  # not 4 * shard.nbytes
        expected = sim.cost_model.allgather(sim.world, shard.nbytes).seconds
        assert event.seconds == pytest.approx(expected)
        # Same wire traffic as ReduceScatter over the gathered buffer.
        rs = sim.cost_model.reducescatter(sim.world, 4 * shard.nbytes)
        assert event.seconds == pytest.approx(rs.seconds)

    def test_compute_records_flops(self, sim):
        """Regression: SimCluster.compute used to drop its flops arg."""
        sim.compute(0.004, "tower module", flops=12_345)
        event = sim.timeline.events[-1]
        assert event.flops == 12_345
        assert sim.timeline.total_flops(Phase.COMPUTE) == 12_345
        assert sim.timeline.total_flops() == 12_345

    def test_alltoall_single(self, sim):
        out = sim.alltoall_single(
            sim.world,
            {r: np.arange(4, dtype=float) + 10 * r for r in range(4)},
            phase=Phase.EMBEDDING_COMM,
            label="a2a",
        )
        np.testing.assert_allclose(out[0], [0.0, 10.0, 20.0, 30.0])

    def test_shuffle_and_compute_events(self, sim):
        sim.shuffle(1 << 20, "peer permute")
        sim.compute(0.004, "tower module")
        assert sim.timeline.total(Phase.SHUFFLE) > 0
        assert sim.timeline.total(Phase.COMPUTE) == pytest.approx(0.004)

    @pytest.mark.parametrize(
        "name, buffer",
        [
            ("alltoall", [np.zeros(2) for _ in range(4)]),
            ("alltoall_single", np.zeros(4)),
            ("allreduce", np.zeros(4)),
            ("reducescatter", np.zeros(4)),
            ("allgather", np.zeros(4)),
        ],
    )
    @pytest.mark.parametrize("ranks", [[0, 1, 2], [0, 1, 2, 3, 4]])
    def test_membership_checked_before_pricing(self, sim, name, buffer, ranks):
        """A missing or extra rank used to add the timeline event first
        and only then fail inside the functional collective."""
        sim.compute(0.001, "before")
        events = len(sim.timeline.events)
        with pytest.raises(ValueError, match="process group membership"):
            getattr(sim, name)(
                sim.world, {r: buffer for r in ranks}, Phase.EMBEDDING_COMM, "bad"
            )
        assert len(sim.timeline.events) == events

    @pytest.mark.parametrize(
        "name, buffer",
        [
            ("alltoall_concurrent", [np.zeros(2) for _ in range(2)]),
            ("allreduce_concurrent", np.zeros(2)),
        ],
    )
    @pytest.mark.parametrize("ranks", [[0, 1, 3], [0, 1, 2, 3, 4]])
    def test_concurrent_membership_checked_before_pricing(
        self, name, buffer, ranks
    ):
        """The union of the groups is the membership: a missing rank
        (2) used to raise a bare KeyError, and a rank outside every
        group (4, of a third host) was silently ignored."""
        sim = SimCluster(Cluster(num_hosts=3, gpus_per_host=2))
        with pytest.raises(ValueError, match="process group membership"):
            getattr(sim, name)(
                intra_host_groups(sim.cluster)[:2],
                {r: buffer for r in ranks},
                Phase.EMBEDDING_COMM,
                "bad",
            )
        assert len(sim.timeline) == 0

    def test_geometry_passthroughs(self, sim):
        assert sim.world_size == 4
        assert sim.num_hosts == 2
        assert sim.gpus_per_host == 2
