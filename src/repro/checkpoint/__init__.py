"""Fault-tolerant checkpoint/restore, elastic across cluster shapes.

Long-lived multi-plane jobs only earn the disaggregated-placement
argument if their state can be saved, restored **bit-identically**, and
re-placed when the cluster shape changes.  This package provides:

- :mod:`repro.checkpoint.format` — the versioned on-disk format
  (JSON manifest + CRC-checked ``.npy`` payloads) and the typed error
  taxonomy (:class:`CheckpointError` and friends);
- :mod:`repro.checkpoint.state` — the one writer and the one reader of
  training snapshots (:func:`save_training_checkpoint` /
  :func:`load_training_checkpoint`) covering model parameters, both
  optimizer states, trainer progress and data-loader RNG, plus
  :class:`CheckpointManager` (periodic auto-save with retention) and
  :func:`hottest_rows` (serving warm-start ranking);
- :mod:`repro.checkpoint.elastic` — :func:`plan_elastic_restore`:
  the same model on a new cluster (a ``T``-tower model keeps its ``T``
  towers at ``K = H/T``); the tables whose executed owner rank changes
  are priced as one migration through the collective cost model;
- :mod:`repro.checkpoint.delta` — the chain concerns of delta
  checkpoints for online training: a save with a ``base`` keeps only
  the rows a stream window touched, chained onto a full save, and a
  full save is a chain of one; :func:`resolve_delta_chain` walks a
  chain with typed :class:`CheckpointChainError` diagnostics for
  orphaned or cyclic chains.
"""

from repro.checkpoint.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    CheckpointChainError,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointNotFoundError,
    CheckpointVersionError,
    read_array,
    read_arrays,
    read_manifest,
    write_checkpoint,
)
from repro.checkpoint.state import (
    CheckpointManager,
    checkpoint_step,
    hottest_rows,
    accumulator_mass_by_table,
    load_training_checkpoint,
    save_training_checkpoint,
)
from repro.checkpoint.delta import (
    DELTA_KIND,
    checkpoint_nbytes,
    delta_touched_rows,
    resolve_delta_chain,
)
from repro.checkpoint.elastic import ElasticRestorePlan, plan_elastic_restore

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "CheckpointError",
    "CheckpointNotFoundError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "CheckpointMismatchError",
    "CheckpointChainError",
    "read_manifest",
    "read_array",
    "read_arrays",
    "write_checkpoint",
    "save_training_checkpoint",
    "load_training_checkpoint",
    "checkpoint_step",
    "hottest_rows",
    "accumulator_mass_by_table",
    "CheckpointManager",
    "DELTA_KIND",
    "resolve_delta_chain",
    "delta_touched_rows",
    "checkpoint_nbytes",
    "ElasticRestorePlan",
    "plan_elastic_restore",
]
