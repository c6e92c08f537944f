"""Tests for feature partitions and peer-order math.

The peer order of §3.1.1 is the flattened :func:`repro.comm.peer_groups`
of a cluster: every rank sorted by ``(g % L, g // L)``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import peer_groups
from repro.core.partition import FeaturePartition
from repro.hardware import Cluster


def peer_order(hosts, gpus, hosts_per_tower=1):
    """The cluster's ranks, peer group by peer group."""
    cluster = Cluster(num_hosts=hosts, gpus_per_host=gpus)
    return tuple(
        r for g in peer_groups(cluster, hosts_per_tower) for r in g.ranks
    )


class TestFeaturePartition:
    def test_paper_strided_example(self):
        """§5.2.3: 26 features, 8 towers -> [[0,8,16,24],[1,9,17,25],...]."""
        p = FeaturePartition.strided(26, 8)
        assert p.groups[0] == (0, 8, 16, 24)
        assert p.groups[1] == (1, 9, 17, 25)
        assert p.groups[2] == (2, 10, 18)
        assert p.groups[7] == (7, 15, 23)

    def test_contiguous_balanced(self):
        p = FeaturePartition.contiguous(26, 8)
        assert p.num_features == 26
        assert p.sizes() == (4, 4, 3, 3, 3, 3, 3, 3)
        assert p.balance_ratio() == pytest.approx(4 / 3)

    def test_pass_through_one_feature_per_tower(self):
        p = FeaturePartition.pass_through(5)
        assert p.num_towers == 5
        assert all(len(g) == 1 for g in p.groups)

    def test_single_tower(self):
        p = FeaturePartition.single_tower(7)
        assert p.num_towers == 1 and p.num_features == 7

    def test_group_of(self):
        p = FeaturePartition.strided(10, 3)
        for f in range(10):
            assert f in p.groups[p.group_of(f)]
        with pytest.raises(KeyError):
            p.group_of(10)

    def test_rejects_missing_or_duplicate_features(self):
        with pytest.raises(ValueError, match="exactly once"):
            FeaturePartition.from_groups([[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="exactly once"):
            FeaturePartition.from_groups([[0], [2]])

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="empty"):
            FeaturePartition.from_groups([[0, 1], []])

    def test_rejects_bad_tower_count(self):
        with pytest.raises(ValueError):
            FeaturePartition.strided(4, 5)
        with pytest.raises(ValueError):
            FeaturePartition.contiguous(4, 0)

    def test_iteration_and_len(self):
        p = FeaturePartition.strided(6, 2)
        assert len(p) == 2
        assert list(p) == [(0, 2, 4), (1, 3, 5)]


@settings(max_examples=30, deadline=None)
@given(
    f=st.integers(1, 40),
    data=st.data(),
)
def test_partition_constructors_cover_exactly(f, data):
    t = data.draw(st.integers(1, f))
    for ctor in (FeaturePartition.strided, FeaturePartition.contiguous):
        p = ctor(f, t)
        assert p.num_towers == t
        assert sorted(x for g in p.groups for x in g) == list(range(f))
        # near-balanced: sizes differ by at most 1
        assert max(p.sizes()) - min(p.sizes()) <= 1


class TestPeerOrder:
    def test_paper_example(self):
        """Figure 7's 2x2 cluster: peer order (0, 2, 1, 3)."""
        assert peer_order(2, 2) == (0, 2, 1, 3)

    def test_eight_by_four(self):
        assert peer_order(2, 4) == (0, 4, 1, 5, 2, 6, 3, 7)

    def test_single_host_identity(self):
        assert peer_order(1, 4) == (0, 1, 2, 3)

    def test_one_gpu_per_host_identity(self):
        assert peer_order(4, 1) == (0, 1, 2, 3)

    def test_blocks_group_by_local_index(self):
        order = peer_order(4, 4)
        hosts = 4
        for j in range(4):
            block = order[j * hosts : (j + 1) * hosts]
            assert all(r % 4 == j for r in block)
            assert [r // 4 for r in block] == list(range(hosts))

    def test_indivisible_world_raises(self):
        with pytest.raises(ValueError):
            peer_order(10, 4, hosts_per_tower=4)



@settings(max_examples=30, deadline=None)
@given(hosts=st.integers(1, 6), gpus=st.integers(1, 6))
def test_peer_order_is_permutation(hosts, gpus):
    order = peer_order(hosts, gpus)
    assert sorted(order) == list(range(hosts * gpus))
