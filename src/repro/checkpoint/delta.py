"""Delta checkpoint chains: row-slice saves for online training.

A full training checkpoint at online cadence is waste: one stream
window touches a tiny fraction of the embedding plane, yet the plane is
almost all of the bytes.  A **delta checkpoint** — what
:func:`~repro.checkpoint.state.save_training_checkpoint` writes when
given a ``base`` — saves only what the window could have changed:

- the dense arch and tower parameters in full (they change every step
  and are tiny next to the tables);
- for each embedding table, the **touched rows** — row ids plus the
  current weight slices for exactly those rows — and the matching
  row slices of every sparse-optimizer slot, stored as
  ``delta/<key>/rows`` + ``delta/<key>/data`` beside the full-save key
  ``<key>`` they patch;
- the full dense optimizer state and the trainer's progress metadata
  (epoch/window counter, global step, loss history), so a restored tip
  resumes exactly like a full save would.

Each delta's manifest names its ``base`` — the previous delta or the
anchoring **full** save — by a path relative to the delta's parent
directory, so a chain directory can be moved wholesale; a full save is
a chain of one.  This module holds the chain concerns only:
:func:`resolve_delta_chain` walks tip → base with cycle and kind checks
(typed :class:`~repro.checkpoint.format.CheckpointChainError`s), and
:func:`_staged_arrays` replays a chain base-first into full-layout
arrays, which :func:`~repro.checkpoint.state.load_training_checkpoint`
validates before committing anything — a corrupt or orphaned link can
never leave a half-restored model.

Callers pass ``touched`` as a *superset* of the rows the window
modified (the online driver uses every row id the window's batches
looked up): saving an unmodified row just repeats the base's value, so
a superset keeps restores bit-identical while staying cheap.
Compaction — writing a fresh full checkpoint every N deltas — bounds
chain length and restore time; :class:`~repro.checkpoint.state.
CheckpointManager.pin` protects a chain's base from retention pruning,
which would otherwise orphan every delta hanging off it.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.checkpoint.format import (
    CheckpointChainError,
    CheckpointError,
    CheckpointMismatchError,
    read_array,
    read_manifest,
)

__all__ = [
    "DELTA_KIND",
    "resolve_delta_chain",
    "delta_touched_rows",
    "checkpoint_nbytes",
]

#: Manifest ``kind`` of a full save (the only kind a chain starts at).
_FULL_KIND = "training"
#: Manifest ``kind`` marking a delta.
DELTA_KIND = "training-delta"

_DELTA_PREFIX = "delta/"
#: Belt-and-braces bound on chain walks (cycles are caught by identity).
_MAX_CHAIN = 10_000


def delta_touched_rows(ids: np.ndarray, num_tables: int) -> Dict[int, np.ndarray]:
    """Per-table sorted unique row ids looked up by a window's batches.

    ``ids`` is the window's ``(num_samples, num_sparse)`` id matrix;
    every row a batch looked up could have been written by the sparse
    optimizer, so this is the canonical (superset-safe) ``touched``
    argument for a delta save.
    """
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[1] != num_tables:
        raise ValueError(
            f"ids must be (num_samples, {num_tables}), got {ids.shape}"
        )
    return {
        f: np.unique(ids[:, f]).astype(np.int64) for f in range(num_tables)
    }


def _delta_metadata(path: str, base: str) -> Dict[str, Any]:
    """Manifest fields chaining a delta at ``path`` onto ``base``.

    The base must exist and be a full or delta checkpoint; its kind and
    step are recorded so orphaning is detected at resolve time, not
    load time.
    """
    base_meta = read_manifest(base)["metadata"]
    base_kind = base_meta.get("kind")
    if base_kind not in (_FULL_KIND, DELTA_KIND):
        raise CheckpointChainError(
            f"delta base at {base!r} has kind {base_kind!r}; expected a "
            f"{_FULL_KIND} or {DELTA_KIND} checkpoint"
        )
    parent = os.path.dirname(os.path.abspath(path))
    return {
        "kind": DELTA_KIND,
        "base": os.path.relpath(os.path.abspath(base), start=parent),
        "base_kind": base_kind,
        "base_step": int(
            (base_meta.get("trainer") or {}).get("global_step", 0)
        ),
    }


def _put_rows(
    arrays: Dict[str, np.ndarray], key: str, value: np.ndarray, rows: np.ndarray
) -> None:
    """Save ``value[rows]`` as the delta slice patching ``key``."""
    arrays[f"{_DELTA_PREFIX}{key}/rows"] = rows
    arrays[f"{_DELTA_PREFIX}{key}/data"] = np.asarray(value)[rows].copy()


def resolve_delta_chain(path: str) -> List[str]:
    """The checkpoint chain ending at ``path``, base-first.

    Returns ``[full, delta_1, ..., path]`` (a bare full checkpoint
    resolves to ``[path]``).  Raises
    :class:`~repro.checkpoint.format.CheckpointChainError` on a
    missing/pruned base (an orphaned delta), a cycle, a non-checkpoint
    link, or inconsistent table geometry along the chain, and
    :class:`~repro.checkpoint.format.CheckpointMismatchError` when
    ``path`` itself is not a training checkpoint.
    """
    chain: List[str] = []
    seen: set = set()
    current = path
    tip_tables: Optional[List[dict]] = None
    for _ in range(_MAX_CHAIN):
        key = os.path.abspath(current)
        if key in seen:
            raise CheckpointChainError(
                f"delta chain at {path!r} loops back through {current!r}"
            )
        seen.add(key)
        try:
            metadata = read_manifest(current)["metadata"]
        except CheckpointError as exc:
            if current is path:
                raise  # the tip itself is broken: keep the precise error
            raise CheckpointChainError(
                f"delta chain at {path!r} is orphaned: base {current!r} "
                f"is missing or unreadable ({exc}); was it pruned out "
                f"from under the chain?"
            ) from exc
        kind = metadata.get("kind")
        if kind not in (_FULL_KIND, DELTA_KIND):
            if current is path:
                raise CheckpointMismatchError(
                    f"checkpoint at {path!r} is not a training checkpoint "
                    f"(kind={kind!r})"
                )
            raise CheckpointChainError(
                f"delta chain at {path!r}: link {current!r} has kind "
                f"{kind!r}; expected {_FULL_KIND} or {DELTA_KIND}"
            )
        tables = [dict(t) for t in metadata.get("tables", [])]
        if tip_tables is None:
            tip_tables = tables
        elif tables != tip_tables:
            raise CheckpointChainError(
                f"delta chain at {path!r}: link {current!r} has a "
                f"different embedding-table geometry than the tip; the "
                f"chain mixes incompatible models"
            )
        chain.append(current)
        if kind == _FULL_KIND:
            chain.reverse()
            return chain
        base = metadata.get("base")
        if not isinstance(base, str) or not base:
            raise CheckpointChainError(
                f"delta checkpoint at {current!r} names no base"
            )
        current = os.path.join(os.path.dirname(os.path.abspath(current)), base)
    raise CheckpointChainError(
        f"delta chain at {path!r} exceeds {_MAX_CHAIN} links"
    )


def _staged_arrays(
    chain: List[str], prefixes: Sequence[str]
) -> Dict[str, np.ndarray]:
    """The full-layout arrays at the tip of ``chain`` under ``prefixes``.

    ``chain`` is base-first, as :func:`resolve_delta_chain` returns it.
    Every link's arrays saved in full replace the staged ones; its
    ``delta/<key>/rows|data`` slices are scattered into ``<key>``.  Only
    keys starting with one of ``prefixes`` are read, so a caller pays
    for exactly the payloads it uses.
    """
    prefixes = tuple(prefixes)
    staged: Dict[str, np.ndarray] = {}
    for link in chain:
        manifest = read_manifest(link)
        for key in manifest["arrays"]:
            if key.startswith(prefixes):
                staged[key] = read_array(link, key, manifest)
                continue
            if not key.startswith(_DELTA_PREFIX) or not key.endswith("/rows"):
                continue
            target = key[len(_DELTA_PREFIX) : -len("/rows")]
            if not target.startswith(prefixes):
                continue
            if target not in staged:
                raise CheckpointChainError(
                    f"delta at {link!r} patches {target!r}, absent from "
                    f"its base checkpoint"
                )
            rows = read_array(link, key, manifest)
            if not rows.size:
                continue
            data = read_array(link, f"{_DELTA_PREFIX}{target}/data", manifest)
            try:
                staged[target][rows] = data
            except (IndexError, ValueError) as exc:
                raise CheckpointChainError(
                    f"delta at {link!r} does not fit {target!r} of its "
                    f"base checkpoint: {exc}"
                ) from exc
    return staged


def checkpoint_nbytes(path: str) -> int:
    """Total payload bytes of one checkpoint directory (manifest sizes,
    so the number a size-ratio report quotes is integrity-checked)."""
    manifest = read_manifest(path)
    return int(sum(e["nbytes"] for e in manifest["arrays"].values()))
