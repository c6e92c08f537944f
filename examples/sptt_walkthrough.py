"""SPTT walkthrough: the paper's Figure 7 example, executed for real.

Reconstructs the exact setup of Figures 3/4/7 — two hosts with two
GPUs each, four sparse features, towers {orange, red} -> host 0 and
{blue, green} -> host 1 — then runs both the flat exchange and SPTT
and prints the per-step layouts, ending with a bit-exact equality
check (the semantic-preservation claim of Table 3).  The same check then
runs with towers spanning two hosts each (§3.1.3, K = 2 on 4x1).

Run:  python examples/sptt_walkthrough.py
"""

import numpy as np

from repro.comm import peer_groups
from repro.core.flat_pipeline import FlatEmbeddingExchange
from repro.core.partition import FeaturePartition
from repro.core.sptt import SPTTEmbeddingExchange
from repro.hardware import Cluster
from repro.models import tiny_table_configs
from repro.nn import EmbeddingBagCollection
from repro.sim import SimCluster

BATCH = 1  # one sample per GPU, like the paper's I_0..I_15 example
FEATURES = 4
ROWS = 8


def main() -> None:
    cluster = Cluster(num_hosts=2, gpus_per_host=2, generation="A100")
    print(f"cluster: {cluster}")
    order = tuple(r for g in peer_groups(cluster) for r in g.ranks)
    print(f"peer order (paper: (0, 2, 1, 3)): {order}")

    ebc = EmbeddingBagCollection(
        tiny_table_configs(FEATURES, ROWS, dim=2), rng=np.random.default_rng(0)
    )
    partition = FeaturePartition.from_groups([[0, 1], [2, 3]])
    print(f"towers: {partition.groups} (tower t lives on host t)")

    rng = np.random.default_rng(1)
    ids = {r: rng.integers(0, ROWS, size=(BATCH, FEATURES)) for r in range(4)}
    for r in range(4):
        print(f"  rank {r} local ids: {ids[r][0]}")

    # Flat paradigm (Figure 4).
    sim_flat = SimCluster(cluster)
    flat = FlatEmbeddingExchange(
        sim_flat, ebc, plan=[0, 1, 2, 3]
    )  # feature f owned by rank f, like the figures
    out_flat = flat.forward(ids)

    # SPTT (Figure 7).
    sim_sptt = SimCluster(cluster)
    sptt = SPTTEmbeddingExchange(sim_sptt, ebc, partition)
    towers = sptt.forward_to_towers(ids)
    print("\nafter steps (a)-(e), each rank holds its tower's features, in the")
    print("partition's own order, for every peer's batch (T*B rows x F_t x N),")
    print("as its column of its tower's one batch-ordered buffer:")
    for t, group in enumerate(sptt.tower_groups):
        print(
            f"  tower {t}: shape {towers[t].shape} over ranks {group.ranks} "
            f"(feature order {sptt.tower_feature_order[t]})"
        )
    sim_sptt.timeline.clear()  # re-run the full pipeline for a clean trace
    out_sptt = sptt.forward(ids)

    print("\nper-rank embedding outputs equal bit-for-bit:")
    for r in range(4):
        same = np.array_equal(out_flat[r], out_sptt[r])
        print(f"  rank {r}: {'OK' if same else 'MISMATCH'}")
        assert same

    print("\ncommunication events (flat):")
    for e in sim_flat.timeline.events:
        print(f"  {e.label:<24} {e.seconds * 1e6:8.1f} us  world={e.world_size}")
    print("communication events (SPTT):")
    for e in sim_sptt.timeline.events:
        print(f"  {e.label:<24} {e.seconds * 1e6:8.1f} us  world={e.world_size}")
    print(
        "\nnote the peer AlltoAll world size equals the number of hosts "
        "(2), not the number of GPUs (4) — the §3.1.2 benefit."
    )

    # §3.1.3: two towers on four one-GPU hosts, each spanning K = 2.
    wide = Cluster(num_hosts=4, gpus_per_host=1, generation="A100")
    sptt = SPTTEmbeddingExchange(SimCluster(wide), ebc, partition)
    plan = [0] * FEATURES
    for rank, feats in sptt.features_of.items():
        for f in feats:
            plan[f] = rank
    out_flat = FlatEmbeddingExchange(SimCluster(wide), ebc, plan).forward(ids)
    out_sptt = sptt.forward(ids)
    print(f"\nK = 2 on {wide}:")
    print(f"  tower groups {[g.ranks for g in sptt.tower_groups]}")
    for r in range(4):
        assert np.array_equal(out_flat[r], out_sptt[r])
    print("  per-rank embedding outputs equal flat bit-for-bit: OK")


if __name__ == "__main__":
    main()
