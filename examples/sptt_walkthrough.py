"""SPTT walkthrough: the paper's Figure 7 example, executed for real.

Reconstructs the exact setup of Figures 3/4/7 — two hosts with two
GPUs each, four sparse features, towers {orange, red} -> host 0 and
{blue, green} -> host 1 — then runs both the flat exchange and SPTT
and prints the per-step layouts, ending with a bit-exact equality
check (the semantic-preservation claim of Table 3).

Run:  python examples/sptt_walkthrough.py
"""

import numpy as np

from repro.core.flat_pipeline import FlatEmbeddingExchange
from repro.core.partition import FeaturePartition
from repro.core.peer import peer_order
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
    print(f"peer order (paper: (0, 2, 1, 3)): {peer_order(4, 2)}")

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
    print("partition's own order, for every peer's batch (H*B rows x F_t x N):")
    for r in range(4):
        host = cluster.host_of(r)
        print(
            f"  rank {r}: shape {towers[r].shape} "
            f"(tower {host}, feature order {sptt.tower_feature_order[host]})"
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


if __name__ == "__main__":
    main()
