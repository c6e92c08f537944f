"""SPTT semantic-preservation tests — the Table 3 claim, made exact.

The flat pipeline (Figure 4) and the SPTT pipeline (Figure 7) must
deliver *bit-identical* embeddings to every rank, and route *identical*
gradients back into every table, because SPTT only re-orchestrates
dataflow.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import CollectiveCostModel, peer_groups
from repro.core.dmt_pipeline import DistributedDMTTrainer
from repro.core.flat_pipeline import FlatEmbeddingExchange
from repro.core.partition import FeaturePartition
from repro.core.sptt import SPTTEmbeddingExchange
from repro.hardware import Cluster
from repro.nn import EmbeddingBagCollection
from repro.models import DMTDLRM, tiny_table_configs
from repro.models.configs import tiny_dlrm_arch
from repro.perf import IterationLatencyModel
from repro.perf.profiles import dmt_dlrm_profile
from repro.sim import Phase, SimCluster

#: (hosts, GPUs per host, towers): K = hosts / towers = 2, 4, 2, 4, 2.
K_HOST_GEOMETRIES = [(4, 2, 2), (4, 2, 1), (8, 2, 2), (8, 2, 4), (4, 1, 2)]


def make_setup(hosts=2, gpus=2, F=6, dim=4, rows=16, pooling=1, seed=0):
    cluster = Cluster(num_hosts=hosts, gpus_per_host=gpus, generation="A100")
    sim = SimCluster(cluster)
    ebc = EmbeddingBagCollection(
        tiny_table_configs(F, num_embeddings=rows, dim=dim, pooling=pooling),
        rng=np.random.default_rng(seed),
    )
    return sim, ebc


def make_ids(sim, F, B=3, rows=16, pooling=1, seed=1):
    rng = np.random.default_rng(seed)
    shape = (B, F) if pooling == 1 else (B, F, pooling)
    return {r: rng.integers(0, rows, size=shape) for r in range(sim.world_size)}


def sptt_plan_matching_flat(sptt):
    """Flat plan with the same feature->rank ownership as the SPTT plan."""
    plan = [0] * sptt.num_features
    for rank, feats in sptt.features_of.items():
        for f in feats:
            plan[f] = rank
    return plan


class TestSPTTForwardEquality:
    @pytest.mark.parametrize(
        "hosts,gpus,F",
        [(2, 2, 4), (2, 2, 6), (4, 2, 8), (2, 4, 8), (3, 2, 7), (2, 1, 4)],
    )
    def test_bitwise_equal_to_flat(self, hosts, gpus, F):
        sim_flat, ebc = make_setup(hosts, gpus, F)
        partition = FeaturePartition.contiguous(F, hosts)
        sim_sptt = SimCluster(sim_flat.cluster)
        sptt = SPTTEmbeddingExchange(sim_sptt, ebc, partition)
        flat = FlatEmbeddingExchange(sim_flat, ebc, sptt_plan_matching_flat(sptt))

        ids = make_ids(sim_flat, F)
        out_flat = flat.forward(ids)
        out_sptt = sptt.forward(ids)
        for r in range(sim_flat.world_size):
            np.testing.assert_array_equal(out_flat[r], out_sptt[r])

    def test_multi_hot_pooling_equal(self):
        sim_flat, ebc = make_setup(F=4, pooling=3)
        partition = FeaturePartition.contiguous(4, 2)
        sim_sptt = SimCluster(sim_flat.cluster)
        sptt = SPTTEmbeddingExchange(sim_sptt, ebc, partition)
        flat = FlatEmbeddingExchange(sim_flat, ebc, sptt_plan_matching_flat(sptt))
        ids = make_ids(sim_flat, 4, pooling=3)
        out_flat = flat.forward(ids)
        out_sptt = sptt.forward(ids)
        for r in out_flat:
            np.testing.assert_array_equal(out_flat[r], out_sptt[r])

    def test_scrambled_partition_equal(self):
        """Partition order must not matter for semantics."""
        F = 8
        sim_flat, ebc = make_setup(hosts=2, gpus=2, F=F)
        partition = FeaturePartition.from_groups([[7, 0, 3, 5], [2, 6, 1, 4]])
        sim_sptt = SimCluster(sim_flat.cluster)
        sptt = SPTTEmbeddingExchange(sim_sptt, ebc, partition)
        flat = FlatEmbeddingExchange(sim_flat, ebc, sptt_plan_matching_flat(sptt))
        ids = make_ids(sim_flat, F)
        out_flat = flat.forward(ids)
        out_sptt = sptt.forward(ids)
        for r in out_flat:
            np.testing.assert_array_equal(out_flat[r], out_sptt[r])

    def test_lookup_values_correct(self):
        """SPTT output actually contains the right table rows."""
        sim, ebc = make_setup(hosts=2, gpus=2, F=4)
        partition = FeaturePartition.contiguous(4, 2)
        sptt = SPTTEmbeddingExchange(sim, ebc, partition)
        ids = make_ids(sim, 4)
        out = sptt.forward(ids)
        for r, id_arr in ids.items():
            for b in range(id_arr.shape[0]):
                for f in range(4):
                    np.testing.assert_array_equal(
                        out[r][b, f], ebc.tables[f].weight.data[id_arr[b, f]]
                    )


class TestSPTTBackwardEquality:
    def test_gradients_match_flat(self):
        F, B = 6, 3
        sim_flat, ebc = make_setup(hosts=2, gpus=2, F=F)
        partition = FeaturePartition.contiguous(F, 2)
        sim_sptt = SimCluster(sim_flat.cluster)
        sptt = SPTTEmbeddingExchange(sim_sptt, ebc, partition)
        flat = FlatEmbeddingExchange(sim_flat, ebc, sptt_plan_matching_flat(sptt))
        ids = make_ids(sim_flat, F, B=B)
        rng = np.random.default_rng(5)
        grads = {
            r: rng.standard_normal((B, F, ebc.dim))
            for r in range(sim_flat.world_size)
        }

        flat.forward(ids)
        for t in ebc.tables:
            t.weight.zero_grad()
        flat.backward(grads)
        flat_grads = [t.weight.grad.copy() for t in ebc.tables]

        sptt.forward(ids)
        for t in ebc.tables:
            t.weight.zero_grad()
        sptt.backward(grads)
        sptt_grads = [t.weight.grad.copy() for t in ebc.tables]

        for f, (a, b) in enumerate(zip(flat_grads, sptt_grads)):
            np.testing.assert_array_equal(a, b, err_msg=f"table {f}")

    def test_backward_before_forward_raises(self):
        sim, ebc = make_setup(F=4)
        sptt = SPTTEmbeddingExchange(sim, ebc, FeaturePartition.contiguous(4, 2))
        with pytest.raises(RuntimeError):
            sptt.backward({r: np.zeros((2, 4, 4)) for r in range(4)})


class TestSPTTStructure:
    def test_tower_host_mismatch_rejected(self):
        sim, ebc = make_setup(hosts=2, gpus=2, F=6)
        with pytest.raises(ValueError, match="towers"):
            SPTTEmbeddingExchange(sim, ebc, FeaturePartition.contiguous(6, 3))

    def test_feature_count_mismatch_rejected(self):
        sim, ebc = make_setup(hosts=2, gpus=2, F=6)
        with pytest.raises(ValueError, match="features"):
            SPTTEmbeddingExchange(sim, ebc, FeaturePartition.contiguous(5, 2))

    def test_tables_assigned_within_tower_host(self):
        sim, ebc = make_setup(hosts=2, gpus=2, F=8)
        partition = FeaturePartition.contiguous(8, 2)
        sptt = SPTTEmbeddingExchange(sim, ebc, partition)
        for rank, feats in sptt.features_of.items():
            host = sim.cluster.host_of(rank)
            for f in feats:
                assert partition.group_of(f) == host

    def test_peer_alltoall_world_is_num_hosts(self):
        """§3.1.1: step (f) runs in worlds of size T = G // L."""
        sim, ebc = make_setup(hosts=4, gpus=2, F=8)
        sptt = SPTTEmbeddingExchange(sim, ebc, FeaturePartition.contiguous(8, 4))
        sptt.forward(make_ids(sim, 8))
        peer_events = [
            e for e in sim.timeline.events if e.label == "sptt.peer_a2a"
        ]
        assert len(peer_events) == 1
        assert peer_events[0].world_size == 4  # hosts, not 8 GPUs

    def test_intra_host_comm_cheaper_than_flat_output_dist(self):
        """The topology win: step (d) rides NVLink."""
        sim_flat, ebc = make_setup(hosts=2, gpus=2, F=8)
        partition = FeaturePartition.contiguous(8, 2)
        sim_sptt = SimCluster(sim_flat.cluster)
        sptt = SPTTEmbeddingExchange(sim_sptt, ebc, partition)
        flat = FlatEmbeddingExchange(sim_flat, ebc, sptt_plan_matching_flat(sptt))
        ids = make_ids(sim_flat, 8)
        flat.forward(ids)
        sptt.forward(ids)
        flat_output_dist = sum(
            e.seconds for e in sim_flat.timeline.events if e.label == "output_dist"
        )
        intra = sum(
            e.seconds
            for e in sim_sptt.timeline.events
            if e.label == "sptt.intra_host"
        )
        assert intra < flat_output_dist


def scrambled_partition(F, hosts, rng):
    """A random uneven partition: shuffled features cut at random points
    into ``hosts`` non-empty groups (a group may be smaller than L)."""
    cuts = np.sort(rng.choice(np.arange(1, F), size=hosts - 1, replace=False))
    return FeaturePartition.from_groups(
        [g.tolist() for g in np.split(rng.permutation(F), cuts)]
    )


def row_grads(ebc):
    """Pending row-wise gradients of every table, as (rows, grads) copies."""
    return [
        (t.weight.row_grad.rows.copy(), t.weight.row_grad.grads.copy())
        for t in ebc.tables
    ]


def assert_sptt_equals_flat(hosts, gpus, towers, F, batch, pooling, seed):
    """SPTT == flat on a scrambled uneven ``towers``-way partition:
    per-rank outputs and every table's pending row grads, bit for bit."""
    rng = np.random.default_rng(seed)
    sim_flat, ebc = make_setup(
        hosts=hosts, gpus=gpus, F=F, pooling=pooling, seed=seed
    )
    sim_sptt = SimCluster(sim_flat.cluster)
    sptt = SPTTEmbeddingExchange(sim_sptt, ebc, scrambled_partition(F, towers, rng))
    flat = FlatEmbeddingExchange(sim_flat, ebc, sptt_plan_matching_flat(sptt))
    ids = make_ids(sim_flat, F, B=batch, pooling=pooling, seed=seed + 1)
    grads = {r: rng.standard_normal((batch, F, ebc.dim)) for r in ids}

    out_flat = flat.forward(ids)
    flat.backward(grads)
    flat_grads = row_grads(ebc)
    for t in ebc.tables:
        t.weight.zero_grad()
    out_sptt = sptt.forward(ids)
    sptt.backward(grads)

    for r in out_flat:
        np.testing.assert_array_equal(out_flat[r], out_sptt[r])
    for f, ((rows_a, g_a), (rows_b, g_b)) in enumerate(
        zip(flat_grads, row_grads(ebc))
    ):
        np.testing.assert_array_equal(rows_a, rows_b, err_msg=f"table {f}")
        np.testing.assert_array_equal(g_a, g_b, err_msg=f"table {f}")


@settings(max_examples=25, deadline=None)
@given(
    hosts=st.integers(2, 3),
    gpus=st.integers(1, 3),
    extra=st.integers(0, 6),
    batch=st.integers(1, 4),
    pooling=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_sptt_flat_equality_property(hosts, gpus, extra, batch, pooling, seed):
    """Property: SPTT == flat, forward and backward, for arbitrary
    shapes, scrambled uneven partitions, ranks with no table, multi-hot
    ids and seeds."""
    # A feature per tower; a rank may own no table.
    assert_sptt_equals_flat(hosts, gpus, hosts, hosts + extra, batch, pooling, seed)


@pytest.mark.parametrize("hosts,gpus,towers", K_HOST_GEOMETRIES)
def test_table3_holds_for_every_k(hosts, gpus, towers):
    """Towers spanning K = H/T hosts: pass-through SPTT still equals the
    flat exchange bit for bit, forward and on every table's row grads."""
    assert_sptt_equals_flat(hosts, gpus, towers, 11, 3, 2, seed=hosts + towers)


class _RecordingCostModel(CollectiveCostModel):
    """Prices like the default model and records each group it prices."""

    def __init__(self):
        super().__init__()
        self.priced = []

    def alltoall(self, group, bytes_per_rank):
        self.priced.append(group.ranks)
        return super().alltoall(group, bytes_per_rank)


@pytest.mark.parametrize(
    "hosts,gpus,towers", K_HOST_GEOMETRIES + [(2, 2, 2), (2, 1, 2)]
)
def test_executed_geometry_is_the_priced_geometry(hosts, gpus, towers):
    """One DMT step runs step (d) and the tower AllReduce over the tower
    group ``IterationLatencyModel.dmt`` prices, and step (f) over its
    peer group; a one-rank tower (K*L == 1) has no AllReduce."""
    cluster = Cluster(num_hosts=hosts, gpus_per_host=gpus, generation="A100")
    cost = _RecordingCostModel()
    profile = replace(dmt_dlrm_profile(26), num_towers=towers)
    IterationLatencyModel(cost_model=cost).dmt(profile, cluster, 1024)
    _, priced_tower, priced_peer = cost.priced  # steps (a), (d), (f)

    F, B = 9, 2
    sim = SimCluster(cluster)
    model = DMTDLRM(
        4,
        tiny_table_configs(F, 16, 4),
        FeaturePartition.contiguous(F, towers),
        tiny_dlrm_arch(4),
        tower_dim=3,
        rng=np.random.default_rng(0),
    )
    trainer = DistributedDMTTrainer(sim, model)
    rng = np.random.default_rng(1)
    total = sim.world_size * B
    trainer.train_step(
        rng.standard_normal((total, 4)),
        rng.integers(0, 16, size=(total, F)),
        rng.integers(0, 2, size=total).astype(float),
    )
    assert trainer.exchange.tower_groups[0].ranks == priced_tower
    assert trainer.exchange.peer_groups[0].ranks == priced_peer

    KL = hosts * gpus // towers
    assert len(priced_tower) == KL and len(priced_peer) == towers

    def sizes(prefix):
        return [
            e.world_size for e in sim.timeline.events
            if e.label.startswith(prefix)
        ]

    assert sizes("sptt.intra_host") == [KL, KL]
    assert sizes("sptt.peer_a2a") == [towers, towers]
    assert sizes("tower_allreduce") == ([KL] if KL > 1 else [])


@pytest.mark.parametrize("hosts,gpus", [(2, 1), (2, 2), (4, 2), (2, 4), (3, 3)])
def test_peer_groups_are_strides_of_the_source_axis(hosts, gpus):
    """The exchange sends peer group j as the view ``[:, j::L]``: peer
    order must keep listing group j as ``j, j + L, j + 2L, ...``."""
    G = hosts * gpus
    cluster = Cluster(num_hosts=hosts, gpus_per_host=gpus)
    order = tuple(r for g in peer_groups(cluster) for r in g.ranks)
    for j in range(gpus):
        assert order[j * hosts : (j + 1) * hosts] == tuple(range(j, G, gpus))


class TestBufferContract:
    """docs/invariants.md, "Buffers across a collective": buckets are
    views, so what an exchange hands back must not be."""

    def test_mutating_a_tower_block_changes_nothing_else(self):
        F = 7
        sim, ebc = make_setup(hosts=2, gpus=2, F=F)
        sptt = SPTTEmbeddingExchange(
            sim, ebc, FeaturePartition.from_groups([[5, 0, 3], [1, 6, 2, 4]])
        )
        ids = make_ids(sim, F)
        weights = [t.weight.data.copy() for t in ebc.tables]
        reference = sptt.forward_to_towers(ids)

        towers = sptt.forward_to_towers(ids)
        towers[0][...] = np.nan
        for t, w in zip(ebc.tables, weights):
            np.testing.assert_array_equal(t.weight.data, w)
        for t in range(1, len(towers)):
            np.testing.assert_array_equal(towers[t], reference[t])
        again = sptt.forward_to_towers(ids)
        for t in range(len(towers)):
            np.testing.assert_array_equal(again[t], reference[t])

    def test_mutating_flat_embeddings_changes_nothing_else(self):
        sim, ebc = make_setup(hosts=2, gpus=2, F=6)
        flat = FlatEmbeddingExchange(sim, ebc)
        ids = make_ids(sim, 6)
        weights = [t.weight.data.copy() for t in ebc.tables]
        reference = flat.forward(ids)
        out = flat.forward(ids)
        out[0][...] = np.nan
        for t, w in zip(ebc.tables, weights):
            np.testing.assert_array_equal(t.weight.data, w)
        for r in range(1, sim.world_size):
            np.testing.assert_array_equal(out[r], reference[r])

    def test_backward_does_not_write_into_the_gradients_it_is_given(self):
        F = 7
        sim, ebc = make_setup(hosts=2, gpus=2, F=F)
        sptt = SPTTEmbeddingExchange(
            sim, ebc, FeaturePartition.from_groups([[5, 0, 3], [1, 6, 2, 4]])
        )
        towers = sptt.forward_to_towers(make_ids(sim, F))
        rng = np.random.default_rng(3)
        grads = [rng.standard_normal(t.shape) for t in towers]
        kept = [g.copy() for g in grads]
        sptt.backward_from_towers(grads)
        for g, k in zip(grads, kept):
            np.testing.assert_array_equal(g, k)


class TestMissingRankIsATypedError:
    """A dict that misses a rank is the collectives' membership
    ``ValueError`` — not ``KeyError: 3`` — raised before any event of
    the half-step is priced; so is a per-tower list that misses a
    tower."""

    @pytest.fixture
    def started(self):
        sim, ebc = make_setup(hosts=2, gpus=2, F=6)
        sptt = SPTTEmbeddingExchange(sim, ebc, FeaturePartition.contiguous(6, 2))
        towers = sptt.forward_to_towers(make_ids(sim, 6))
        sim.timeline.clear()
        return sim, sptt, towers

    def test_forward_to_towers(self):
        sim, ebc = make_setup(hosts=2, gpus=2, F=6)
        sptt = SPTTEmbeddingExchange(sim, ebc, FeaturePartition.contiguous(6, 2))
        ids = make_ids(sim, 6)
        del ids[3]
        with pytest.raises(ValueError, match=r"missing ranks \[3\]"):
            sptt.forward_to_towers(ids)
        assert len(sim.timeline) == 0

    def test_exchange_tower_outputs(self, started):
        sim, sptt, towers = started
        outputs = [t.reshape(t.shape[0], -1) for t in towers[:-1]]
        with pytest.raises(ValueError, match="one output per tower"):
            sptt.exchange_tower_outputs(outputs)
        assert len(sim.timeline) == 0

    def test_backward_tower_exchange(self, started):
        sim, sptt, towers = started
        grads = [np.zeros((len(towers[0]), 5))] * (len(towers) - 1)
        with pytest.raises(ValueError, match="one gradient per tower"):
            sptt.backward_tower_exchange(grads)
        assert len(sim.timeline) == 0

    def test_backward_from_towers(self, started):
        sim, sptt, towers = started
        grads = [np.zeros_like(t) for t in towers[:-1]]
        with pytest.raises(ValueError, match="one block gradient per tower"):
            sptt.backward_from_towers(grads)
        assert len(sim.timeline) == 0
