"""Elastic restore: the same model on a different cluster shape.

The disaggregated-placement argument (and DisaggRec's independent
scaling of the embedding vs dense planes) implies the cluster a job
*resumes* on need not be the cluster it was saved from.  Rescaling keeps
the model: a ``T``-tower checkpoint resumes as the same ``T`` towers,
each spanning ``K = H/T`` hosts of the new cluster (a flat checkpoint
stays flat).  What changes is where each table lives, and that is
decided by the one placement rule both exchanges execute,
:func:`~repro.core.partition.feature_owners`:

1. **Owner maps** — the saved ``partition_groups`` (absent for a flat
   model) placed on the saved cluster and on the new one.
2. **Price the migration** — every table whose owner rank changes must
   cross the fabric once.  The moved payload is priced as an AlltoAll
   over the target cluster's global group through the calibrated
   :class:`~repro.comm.cost_model.CollectiveCostModel`, so "how
   expensive is rescaling this job" gets the same treatment as every
   other byte in the repo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.checkpoint.format import CheckpointMismatchError, read_manifest
from repro.comm.cost_model import CollectiveCostModel, CollectiveTiming
from repro.comm.process_group import global_group
from repro.core.partition import FeaturePartition, feature_owners
from repro.hardware import Cluster
from repro.nn.embedding import TableConfig

__all__ = ["ElasticRestorePlan", "plan_elastic_restore"]


@dataclass
class ElasticRestorePlan:
    """Everything an elastic restore decides, plus its price tag."""

    source_world: Optional[int]  # ranks the checkpoint was saved under
    target_world: int
    tables: List[TableConfig]
    num_towers: Optional[int]  # the saved (and kept) towers; None: flat
    total_bytes: int  # full embedding payload
    moved_bytes: int  # payload of the tables whose owner rank changes
    migration: CollectiveTiming  # priced redistribution collective

    @property
    def moved_fraction(self) -> float:
        return self.moved_bytes / self.total_bytes if self.total_bytes else 0.0

    def summary(self) -> Dict[str, Any]:
        return {
            "source_world": self.source_world,
            "target_world": self.target_world,
            "num_tables": len(self.tables),
            "num_towers": self.num_towers,
            "total_mb": self.total_bytes / 2**20,
            "moved_mb": self.moved_bytes / 2**20,
            "moved_fraction": self.moved_fraction,
            "migration_ms": self.migration.seconds * 1e3,
        }


def _owner_of(
    cluster: Cluster, num_features: int, partition: Optional[FeaturePartition]
) -> Dict[int, int]:
    """Feature -> the rank holding its table."""
    owners = feature_owners(cluster, num_features, partition)
    return {f: rank for rank, feats in owners.items() for f in feats}


def plan_elastic_restore(
    path: str,
    cluster: Cluster,
    cost_model: Optional[CollectiveCostModel] = None,
) -> ElasticRestorePlan:
    """Price moving a checkpoint's tables onto ``cluster``.

    Raises a typed checkpoint error when the manifest lacks table
    geometry, or when the saved towers do not divide ``cluster``'s
    hosts (the model cannot run there unchanged).
    """
    metadata = read_manifest(path)["metadata"]
    geometry = metadata.get("tables")
    if not geometry:
        raise CheckpointMismatchError(
            f"checkpoint at {path!r} records no embedding-table geometry; "
            f"cannot plan an elastic restore"
        )
    tables = [
        TableConfig(
            name=t["name"],
            num_embeddings=int(t["num_embeddings"]),
            dim=int(t["dim"]),
            pooling=int(t.get("pooling", 1)),
        )
        for t in geometry
    ]
    num_features = len(tables)
    groups = metadata.get("partition_groups")
    partition = FeaturePartition.from_groups(groups) if groups else None
    if partition is not None and cluster.num_hosts % partition.num_towers:
        raise CheckpointMismatchError(
            f"checkpoint at {path!r} holds a {partition.num_towers}-tower "
            f"model; {partition.num_towers} towers do not divide the "
            f"{cluster.num_hosts} hosts of the new cluster"
        )
    table_bytes = [t.storage_bytes for t in tables]
    total_bytes = sum(table_bytes)

    saved = metadata.get("cluster")
    source = Cluster(saved["num_hosts"], saved["gpus_per_host"]) if saved else None
    if source is None or (
        partition is not None and source.num_hosts % partition.num_towers
    ):
        # Unknown provenance, or a single-process run whose towers never
        # spanned its hosts: price the conservative full reshuffle.
        moved = total_bytes
    else:
        old = _owner_of(source, num_features, partition)
        new = _owner_of(cluster, num_features, partition)
        moved = sum(b for f, b in enumerate(table_bytes) if old[f] != new[f])
    model = cost_model if cost_model is not None else CollectiveCostModel()
    world = global_group(cluster)
    migration = model.alltoall(world, math.ceil(moved / world.world_size))
    return ElasticRestorePlan(
        source_world=source.world_size if source is not None else None,
        target_world=cluster.world_size,
        tables=tables,
        num_towers=partition.num_towers if partition is not None else None,
        total_bytes=total_bytes,
        moved_bytes=moved,
        migration=migration,
    )
