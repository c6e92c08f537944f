"""Tests for the one DMT price and its only §3.1.3 specialization,
K-host towers: the price on a fixed grid, and the tower and peer groups
it runs over."""

import hashlib
import itertools
from dataclasses import fields, replace

import pytest

from repro.comm import intra_host_groups, peer_groups
from repro.experiments.common import LOCAL_BATCH, SCALES
from repro.hardware import Cluster
from repro.perf import IterationBreakdown, IterationLatencyModel
from repro.perf.profiles import (
    dmt_dlrm_profile,
    dmt_profile_for_towers,
    dmt_xlrm_profile,
)

B = 16384

#: SHA-256 of the sorted breakdown table below.  Any change to how a
#: DMT iteration is priced moves it.
PINNED_BREAKDOWN_DIGEST = (
    "6b1376b8f7afd6738835a07fd9e5f31a69bfa9056d0658a170ac7bd85e421c35"
)


def _breakdown_table():
    """One line per priced iteration: a key, then the ``repr`` of every
    :class:`IterationBreakdown` field except ``name``."""
    values = [f.name for f in fields(IterationBreakdown) if f.name != "name"]

    def line(key, bd):
        return key + " " + " ".join(repr(getattr(bd, v)) for v in values)

    model = IterationLatencyModel()
    rows = []
    for k, base, hosts in itertools.product(
        (1, 2, 4),
        (dmt_dlrm_profile(26), dmt_xlrm_profile(16)),
        (8, 16, 64),
    ):
        profile = replace(base, num_towers=hosts // k)
        bd = model.dmt(profile, Cluster(hosts, 8, "A100"), B)
        rows.append(line(f"K{k}/{base.name}/{hosts}x8", bd))
    for kind, (gen, sizes) in itertools.product(("dlrm", "dcn"), SCALES.items()):
        for gpus in sizes:
            hosts = gpus // 8
            bd = model.dmt(
                dmt_profile_for_towers(kind, hosts),
                Cluster(hosts, 8, gen),
                LOCAL_BATCH,
            )
            rows.append(line(f"default/{kind}/{gen}/{gpus}", bd))
    return sorted(rows)


def test_pinned_breakdown_digest():
    """Every priced DMT iteration on the grid is pinned bit for bit."""
    table = "\n".join(_breakdown_table()).encode()
    assert hashlib.sha256(table).hexdigest() == PINNED_BREAKDOWN_DIGEST


def towers_profile(towers: int):
    return replace(
        dmt_dlrm_profile(26), num_towers=towers, name=f"DMT-{towers}T"
    )


@pytest.fixture
def model():
    return IterationLatencyModel()


class TestKHostGeometry:
    def test_supergroups_partition_cluster(self):
        cluster = Cluster(num_hosts=8, gpus_per_host=4)
        groups = intra_host_groups(cluster, hosts_per_tower=2)
        assert len(groups) == 4
        seen = sorted(r for g in groups for r in g.ranks)
        assert seen == list(range(32))
        assert all(g.hosts_spanned == 2 for g in groups)

    def test_khost_peer_groups_world_size(self):
        cluster = Cluster(num_hosts=8, gpus_per_host=4)
        peers = peer_groups(cluster, hosts_per_tower=2)
        assert len(peers) == 8  # K * L positions
        assert all(p.world_size == 4 for p in peers)  # H / K towers
        seen = sorted(r for p in peers for r in p.ranks)
        assert seen == list(range(32))

    def test_k1_matches_canonical_groups(self):
        cluster = Cluster(num_hosts=4, gpus_per_host=2)
        towers = intra_host_groups(cluster, hosts_per_tower=1)
        assert [g.ranks for g in towers] == [
            cluster.ranks_on_host(h) for h in range(4)
        ]
        assert [g.ranks for g in peer_groups(cluster, 1)] == [
            (0, 2, 4, 6),
            (1, 3, 5, 7),
        ]

    def test_indivisible_hosts_rejected(self):
        cluster = Cluster(num_hosts=6, gpus_per_host=2)
        for build in (intra_host_groups, peer_groups):
            with pytest.raises(ValueError, match="hosts not divisible by K=4"):
                build(cluster, 4)
        with pytest.raises(ValueError, match="4 towers do not divide 6 hosts"):
            IterationLatencyModel().dmt(towers_profile(4), cluster, B)
        assert len(intra_host_groups(cluster, 3)) == 2


class TestSpecializedModel:
    def test_khost_tradeoff_direction(self, model):
        """§3.1.3: larger K shrinks the peer world but raises step (d);
        with Figure 5's congestion curves the step-d cost dominates, so
        total embedding communication grows with K at this scale."""
        cluster = Cluster(64, 8, "A100")
        embs = [
            model.dmt(towers_profile(64 // k), cluster, B).emb_comm_total_s
            for k in (1, 2, 4)
        ]
        assert embs[0] < embs[1] < embs[2]

    def test_khost_tower_count_validation(self, model):
        cluster = Cluster(8, 8, "A100")
        for towers in (3, 5, 16):
            with pytest.raises(ValueError, match="towers do not divide"):
                model.dmt(towers_profile(towers), cluster, B)

    def test_options_validation(self, model):
        """The price takes no options: the tower span K follows from the
        profile's tower count, and towers no DMT can run are rejected."""
        cluster = Cluster(8, 8, "A100")
        with pytest.raises(TypeError):
            model.dmt(towers_profile(8), cluster, B, options=None)
        with pytest.raises(ValueError, match="no towers"):
            model.dmt(towers_profile(0), cluster, B)
        with pytest.raises(ValueError, match="local batch"):
            model.dmt(towers_profile(8), cluster, 0)
