"""Delta checkpoints: chained row-slice saves for online training.

A full training checkpoint at online cadence is waste: one stream
window touches a tiny fraction of the embedding plane, yet the plane is
almost all of the bytes.  A **delta checkpoint** saves only what the
window could have changed:

- the dense arch and tower parameters in full (they change every step
  and are tiny next to the tables);
- for each embedding table, the **touched rows** — row ids plus the
  current weight slices for exactly those rows — and the matching
  row slices of the sparse optimizer's Adagrad accumulator;
- the full dense optimizer state and the trainer's progress metadata
  (epoch/window counter, global step, loss history), so a restored tip
  resumes exactly like a full save would.

Each delta's manifest names its ``base`` — the previous checkpoint in
the chain, another delta or the anchoring **full** save — by a path
relative to the delta's own parent directory, so a chain directory can
be moved wholesale.  :func:`resolve_delta_chain` walks tip → base with
cycle and kind checks (every failure is a typed
:class:`~repro.checkpoint.format.CheckpointChainError`), and
:func:`load_delta_checkpoint` replays the chain base-first into staged
state before committing anything — the same validate-then-commit
discipline as :func:`~repro.checkpoint.state.load_training_checkpoint`,
so a corrupt or orphaned link can never leave a half-restored model.

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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.checkpoint.format import (
    CheckpointChainError,
    CheckpointError,
    CheckpointMismatchError,
    read_array,
    read_manifest,
    write_checkpoint,
)
from repro.checkpoint.state import (
    _check_geometry,
    _join_optimizer_state,
    _model_geometry,
    _split_optimizer_state,
    _MODEL_PREFIX,
    _OPT_PREFIX,
    _OPT_ROLES,
)

__all__ = [
    "DELTA_KIND",
    "save_delta_checkpoint",
    "resolve_delta_chain",
    "load_delta_checkpoint",
    "delta_touched_rows",
    "checkpoint_nbytes",
]

#: Manifest ``kind`` marking a delta (vs ``"training"`` for a full save).
DELTA_KIND = "training-delta"

_DELTA_MODEL_PREFIX = "delta/model/"
_DELTA_ACCUM_PREFIX = "delta/opt/sparse/accum/"
#: Belt-and-braces bound on chain walks (cycles are caught by identity).
_MAX_CHAIN = 10_000


def _sparse_param_names(model: Any, trainer: Any) -> Dict[str, int]:
    """Map state-dict key → sparse-parameter index (table order).

    Identity match against the sparse optimizer's parameter list — the
    same objects, so the mapping cannot drift from whatever convention
    ``model.sparse_parameters()`` used."""
    sparse = {id(p): i for i, p in enumerate(trainer.sparse_opt.params)}
    names: Dict[str, int] = {}
    for name, param in model.named_parameters():
        idx = sparse.get(id(param))
        if idx is not None:
            names[name] = idx
    if len(names) != len(sparse):
        raise CheckpointMismatchError(
            f"only {len(names)} of {len(sparse)} sparse parameters are "
            f"reachable via model.named_parameters(); cannot save a "
            f"delta checkpoint"
        )
    return names


def delta_touched_rows(ids: np.ndarray, num_tables: int) -> Dict[int, np.ndarray]:
    """Per-table sorted unique row ids looked up by a window's batches.

    ``ids`` is the window's ``(num_samples, num_sparse)`` id matrix;
    every row a batch looked up could have been written by the sparse
    optimizer, so this is the canonical (superset-safe) ``touched``
    argument for :func:`save_delta_checkpoint`.
    """
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[1] != num_tables:
        raise ValueError(
            f"ids must be (num_samples, {num_tables}), got {ids.shape}"
        )
    return {
        f: np.unique(ids[:, f]).astype(np.int64) for f in range(num_tables)
    }


def save_delta_checkpoint(
    path: str,
    model: Any,
    trainer: Any,
    *,
    base: str,
    touched: Dict[int, np.ndarray],
    extra_metadata: Optional[Dict[str, Any]] = None,
) -> str:
    """Write a delta checkpoint at ``path`` chained onto ``base``.

    ``touched`` maps sparse-parameter index (table order) to the row
    ids to save — a superset of the rows actually modified since
    ``base``.  Tables absent from ``touched`` save zero rows.  The base
    must exist and be a loadable full or delta checkpoint; its kind and
    step are recorded so orphaning is detected at resolve time, not
    load time.
    """
    base_manifest = read_manifest(base)
    base_meta = base_manifest["metadata"]
    base_kind = base_meta.get("kind")
    if base_kind not in ("training", DELTA_KIND):
        raise CheckpointChainError(
            f"delta base at {base!r} has kind {base_kind!r}; expected a "
            f"training or {DELTA_KIND} checkpoint"
        )
    geometry = _model_geometry(model)
    sparse_names = _sparse_param_names(model, trainer)
    cards = {
        idx: geometry[idx]["num_embeddings"] for idx in range(len(geometry))
    }
    arrays: Dict[str, np.ndarray] = {}
    for name, param in model.named_parameters():
        idx = sparse_names.get(name)
        if idx is None:
            arrays[_MODEL_PREFIX + name] = param.data.copy()
            continue
        rows = np.asarray(touched.get(idx, ()), dtype=np.int64)
        rows = np.unique(rows)
        if rows.size and (rows[0] < 0 or rows[-1] >= cards[idx]):
            raise CheckpointMismatchError(
                f"touched rows for table {idx} out of range "
                f"[0, {cards[idx]})"
            )
        arrays[f"{_DELTA_MODEL_PREFIX}{name}/rows"] = rows
        arrays[f"{_DELTA_MODEL_PREFIX}{name}/data"] = param.data[rows].copy()

    trainer_state = trainer.state_dict()
    opt_meta: Dict[str, Any] = {}
    dense_state = trainer_state.pop("dense_opt")
    opt_meta["dense"] = _split_optimizer_state(
        _OPT_PREFIX + "dense", dense_state, arrays
    )
    sparse_state = trainer_state.pop("sparse_opt")
    sparse_meta = {k: v for k, v in sparse_state.items() if k != "slots"}
    slot_keys: Dict[str, List[str]] = {}
    name_by_idx = {idx: name for name, idx in sparse_names.items()}
    for slot, entries in sparse_state["slots"].items():
        keys = sorted(entries, key=int)
        slot_keys[slot] = keys
        for key in keys:
            idx = int(key)
            rows = arrays.get(
                f"{_DELTA_MODEL_PREFIX}{name_by_idx[idx]}/rows"
            )
            if rows is None:
                rows = np.asarray(
                    np.unique(np.asarray(touched.get(idx, ()), dtype=np.int64))
                )
            arrays[f"delta/opt/sparse/{slot}/{idx:05d}/rows"] = rows
            arrays[f"delta/opt/sparse/{slot}/{idx:05d}/data"] = np.asarray(
                entries[key]
            )[rows].copy()
    sparse_meta["slot_keys"] = slot_keys
    opt_meta["sparse"] = sparse_meta
    trainer_state["optimizers"] = opt_meta

    parent = os.path.dirname(os.path.abspath(path))
    metadata: Dict[str, Any] = {
        "kind": DELTA_KIND,
        "model_class": type(model).__name__,
        "tables": geometry,
        "base": os.path.relpath(os.path.abspath(base), start=parent),
        "base_kind": base_kind,
        "base_step": int(
            (base_meta.get("trainer") or {}).get("global_step", 0)
        ),
        "trainer": trainer_state,
        "touched_rows": int(
            sum(
                int(arrays[k].shape[0])
                for k in arrays
                if k.startswith(_DELTA_MODEL_PREFIX) and k.endswith("/rows")
            )
        ),
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return write_checkpoint(path, arrays, metadata)


def resolve_delta_chain(path: str) -> List[str]:
    """The checkpoint chain ending at ``path``, base-first.

    Returns ``[full, delta_1, ..., path]`` (a bare full checkpoint
    resolves to ``[path]``).  Raises
    :class:`~repro.checkpoint.format.CheckpointChainError` on a
    missing/pruned base (an orphaned delta), a cycle, a non-checkpoint
    link, or inconsistent table geometry along the chain.
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
        except CheckpointChainError:
            raise
        except CheckpointError as exc:
            if current is path:
                raise  # the tip itself is broken: keep the precise error
            raise CheckpointChainError(
                f"delta chain at {path!r} is orphaned: base {current!r} "
                f"is missing or unreadable ({exc}); was it pruned out "
                f"from under the chain?"
            ) from exc
        kind = metadata.get("kind")
        if kind not in ("training", DELTA_KIND):
            raise CheckpointChainError(
                f"delta chain at {path!r}: link {current!r} has kind "
                f"{kind!r}; expected training or {DELTA_KIND}"
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
        if kind == "training":
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


def _delta_model_entries(
    manifest: Dict[str, Any],
) -> Tuple[List[str], List[str]]:
    """(dense full keys, sparse delta parameter names) of one delta."""
    dense = []
    sparse = []
    for key in manifest["arrays"]:
        if key.startswith(_MODEL_PREFIX):
            dense.append(key[len(_MODEL_PREFIX) :])
        elif key.startswith(_DELTA_MODEL_PREFIX) and key.endswith("/rows"):
            sparse.append(key[len(_DELTA_MODEL_PREFIX) : -len("/rows")])
    return dense, sparse


def _patch_model(
    path: str, manifest: Dict[str, Any], model_state: Dict[str, np.ndarray]
) -> None:
    """Scatter one delta's model payloads into the staged model state."""
    dense, sparse = _delta_model_entries(manifest)
    for name in dense:
        model_state[name] = read_array(path, _MODEL_PREFIX + name, manifest)
    for name in sparse:
        rows = read_array(path, f"{_DELTA_MODEL_PREFIX}{name}/rows", manifest)
        if rows.size == 0:
            continue
        data = read_array(path, f"{_DELTA_MODEL_PREFIX}{name}/data", manifest)
        if name not in model_state:
            raise CheckpointChainError(
                f"delta at {path!r} patches parameter {name!r} absent "
                f"from its base checkpoint"
            )
        model_state[name][rows] = data


def _patch_sparse_slots(
    path: str,
    manifest: Dict[str, Any],
    sparse_slots: Dict[str, Dict[str, np.ndarray]],
) -> None:
    """Scatter one delta's sparse-optimizer row slices into staged slots."""
    meta = manifest["metadata"]["trainer"]["optimizers"]["sparse"]
    for slot, keys in meta["slot_keys"].items():
        for key in keys:
            idx = int(key)
            rows = read_array(
                path, f"delta/opt/sparse/{slot}/{idx:05d}/rows", manifest
            )
            if rows.size == 0:
                continue
            data = read_array(
                path, f"delta/opt/sparse/{slot}/{idx:05d}/data", manifest
            )
            target = sparse_slots.get(slot, {}).get(key)
            if target is None:
                raise CheckpointChainError(
                    f"delta at {path!r} patches sparse slot "
                    f"{slot}/{idx} absent from its base checkpoint"
                )
            target[rows] = data


def _staged_sparse_slots(chain: List[str]) -> Dict[str, Dict[str, np.ndarray]]:
    """The sparse optimizer's slot arrays at the tip of ``chain``.

    ``chain`` is base-first, as :func:`resolve_delta_chain` returns it:
    the base's full arrays are read, then every delta's row slices are
    patched in, in order.  A bare full checkpoint (``[path]``) stages to
    its own arrays.
    """
    base = chain[0]
    manifest = read_manifest(base)
    trainer_meta = manifest["metadata"].get("trainer")
    if trainer_meta is None:
        raise CheckpointChainError(
            f"delta chain base at {base!r} has no trainer/optimizer "
            f"state; a delta chain needs a resumable full base"
        )
    slots = _join_optimizer_state(
        base, _OPT_PREFIX + "sparse", trainer_meta["optimizers"]["sparse"], manifest
    )["slots"]
    for link in chain[1:]:
        _patch_sparse_slots(link, read_manifest(link), slots)
    return slots


def load_delta_checkpoint(
    path: str, model: Any, trainer: Any = None
) -> Dict[str, Any]:
    """Restore ``model`` (and optionally ``trainer``) from a delta tip.

    Resolves the chain, replays base → tip into staged state, validates
    everything, then commits — so the merged restore is bit-identical
    to loading the equivalent full checkpoint, and any failure leaves
    both targets untouched.  A full (non-delta) ``path`` is delegated
    to :func:`~repro.checkpoint.state.load_training_checkpoint`
    unchanged.  Returns the tip's manifest metadata.
    """
    tip_manifest = read_manifest(path)
    metadata = tip_manifest["metadata"]
    if metadata.get("kind") == "training":
        from repro.checkpoint.state import load_training_checkpoint

        return load_training_checkpoint(path, model, trainer)
    chain = resolve_delta_chain(path)
    base = chain[0]
    base_manifest = read_manifest(base)
    _check_geometry(base, base_manifest["metadata"], model)
    model_state = {
        key[len(_MODEL_PREFIX) :]: read_array(base, key, base_manifest)
        for key in base_manifest["arrays"]
        if key.startswith(_MODEL_PREFIX)
    }
    sparse_slots = _staged_sparse_slots(chain)
    for link in chain[1:]:
        _patch_model(link, read_manifest(link), model_state)

    trainer_state: Optional[Dict[str, Any]] = None
    if trainer is not None:
        trainer_state = dict(metadata["trainer"])
        opt_meta = trainer_state.pop("optimizers", None)
        if opt_meta is None or set(opt_meta) != set(_OPT_ROLES):
            raise CheckpointMismatchError(
                f"delta checkpoint at {path!r} is missing optimizer "
                f"state for "
                f"{sorted(set(_OPT_ROLES) - set(opt_meta or {}))}"
            )
        trainer_state["dense_opt"] = _join_optimizer_state(
            path, _OPT_PREFIX + "dense", opt_meta["dense"], tip_manifest
        )
        sparse_state = {
            k: v for k, v in opt_meta["sparse"].items() if k != "slot_keys"
        }
        sparse_state["slots"] = sparse_slots
        trainer_state["sparse_opt"] = sparse_state
        try:
            trainer.validate_state_dict(trainer_state)
        except (KeyError, ValueError) as exc:
            raise CheckpointMismatchError(
                f"delta checkpoint at {path!r} does not fit this "
                f"trainer: {exc}"
            ) from exc
    try:
        model.load_state_dict(model_state)
    except (KeyError, ValueError) as exc:
        raise CheckpointMismatchError(
            f"delta checkpoint at {path!r} does not fit this model: {exc}"
        ) from exc
    if trainer is not None:
        trainer.load_state_dict(trainer_state)
    return metadata


def checkpoint_nbytes(path: str) -> int:
    """Total payload bytes of one checkpoint directory (manifest sizes,
    so the number a size-ratio report quotes is integrity-checked)."""
    manifest = read_manifest(path)
    return int(sum(e["nbytes"] for e in manifest["arrays"].values()))
