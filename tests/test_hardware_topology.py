"""Tests for cluster topology and SPTT peer geometry."""

import pytest

from repro.comm import peer_groups
from repro.hardware import Cluster, LinkType


@pytest.fixture
def paper_example():
    """The 2-host, 2-GPU/host cluster from Figures 3/4/7."""
    return Cluster(num_hosts=2, gpus_per_host=2, generation="A100")


@pytest.fixture
def rack():
    return Cluster(num_hosts=8, gpus_per_host=8, generation="H100")


class TestGeometry:
    def test_world_size(self, rack):
        assert rack.world_size == 64
        assert len(rack) == 64

    def test_rank_to_host_mapping(self, rack):
        assert rack.host_of(0) == 0
        assert rack.host_of(7) == 0
        assert rack.host_of(8) == 1
        assert rack.host_of(63) == 7

    def test_local_rank(self, rack):
        assert rack.local_rank_of(0) == 0
        assert rack.local_rank_of(9) == 1
        assert rack.local_rank_of(63) == 7

    def test_gpu_lookup_consistent(self, rack):
        for rank in range(rack.world_size):
            gpu = rack.gpu(rank)
            assert gpu.global_rank == rank
            assert gpu.host_id == rack.host_of(rank)
            assert gpu.local_rank == rack.local_rank_of(rank)

    def test_iteration_covers_all_ranks_in_order(self, rack):
        assert [g.global_rank for g in rack] == list(range(64))

    def test_ranks_on_host(self, rack):
        assert rack.ranks_on_host(0) == tuple(range(8))
        assert rack.ranks_on_host(7) == tuple(range(56, 64))

    def test_invalid_rank_raises(self, rack):
        with pytest.raises(IndexError):
            rack.host_of(64)
        with pytest.raises(IndexError):
            rack.gpu(-1)

    def test_invalid_host_raises(self, rack):
        with pytest.raises(IndexError):
            rack.ranks_on_host(8)

    @pytest.mark.parametrize("hosts,gpus", [(0, 8), (8, 0), (-1, 8)])
    def test_invalid_shape_raises(self, hosts, gpus):
        with pytest.raises(ValueError):
            Cluster(num_hosts=hosts, gpus_per_host=gpus)


class TestLinks:
    def test_link_classification(self, paper_example):
        c = paper_example
        assert c.link_type(0, 0) is LinkType.LOCAL
        assert c.link_type(0, 1) is LinkType.SCALE_UP
        assert c.link_type(0, 2) is LinkType.SCALE_OUT
        assert c.link_type(1, 3) is LinkType.SCALE_OUT

    def test_link_bandwidth_ordering(self, paper_example):
        c = paper_example
        local = c.link_bandwidth(0, 0)
        nvlink = c.link_bandwidth(0, 1)
        nic = c.link_bandwidth(0, 2)
        assert local > nvlink > nic

    def test_link_symmetric(self, rack):
        assert rack.link_type(3, 12) == rack.link_type(12, 3)


class TestPeerGeometry:
    """Peer math from §3.1.1: peers of g are all g' with g' % L == g % L.

    The groups are built by :func:`repro.comm.peer_groups`; group ``l``
    is the peer group of every rank with local index ``l``."""

    def test_paper_example_peers(self, paper_example):
        groups = peer_groups(paper_example)
        assert [g.ranks for g in groups] == [(0, 2), (1, 3)]
        for rank, peers in ((0, (0, 2)), (1, (1, 3)), (2, (0, 2)), (3, (1, 3))):
            assert groups[paper_example.local_rank_of(rank)].ranks == peers

    def test_peer_groups_partition_cluster(self, rack):
        groups = peer_groups(rack)
        assert len(groups) == rack.gpus_per_host
        seen = sorted(r for g in groups for r in g.ranks)
        assert seen == list(range(rack.world_size))

    def test_peer_group_one_rank_per_host(self, rack):
        for group in peer_groups(rack):
            hosts = [rack.host_of(r) for r in group.ranks]
            assert hosts == list(range(rack.num_hosts))
            assert len(set(rack.local_rank_of(r) for r in group.ranks)) == 1

    def test_peers_include_self(self, rack):
        groups = peer_groups(rack)
        for rank in range(rack.world_size):
            assert rank in groups[rack.local_rank_of(rank)]

    def test_peer_group_size_is_num_hosts(self, rack):
        for group in peer_groups(rack):
            assert group.world_size == rack.num_hosts
