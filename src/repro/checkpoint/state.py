"""Training-state checkpoints: model + optimizer + trainer + data RNG.

:func:`save_training_checkpoint` snapshots everything a single-process
run needs to resume **bit-identically**:

- every model parameter (per-table embedding parameters are row-slice
  views of the fused stacked matrix; saving copies them out and
  restoring copies them back *in place*, so the aliasing survives);
- the full optimizer state of both planes (Adam/SGD moments for the
  dense arch, Adagrad/RowwiseAdagrad accumulators — elementwise or
  scalar — for the embedding plane), via the ``state_dict`` protocol on
  :class:`repro.nn.optim.Optimizer`;
- trainer progress (epoch, global step, complete loss history, the
  in-flight epoch's batch losses) and the data loader's RNG state, so a
  resumed run replays the exact shuffle order of an uninterrupted one;
- the embedding-table geometry and (optionally) the spec and tower
  partition — the inputs :mod:`repro.checkpoint.elastic` needs to
  place the same model's tables on a different cluster.

It is the one writer and the one reader of training state: given a
``base``, :func:`save_training_checkpoint` writes a delta of the rows a
window touched (:mod:`repro.checkpoint.delta`), and
:func:`load_training_checkpoint` restores any chain — a full save is a
chain of one.

:class:`CheckpointManager` adds periodic auto-save with bounded
retention; :func:`hottest_rows` ranks saved embedding rows by their
Adagrad accumulator mass (rows the training traffic actually hit),
which is what serving warm-start prefills its LRU cache from.
"""

from __future__ import annotations

import os
import re
import shutil
from typing import Any, Dict, List, Optional

import numpy as np

from repro.checkpoint.delta import (
    _FULL_KIND,
    _delta_metadata,
    _put_rows,
    _staged_arrays,
    resolve_delta_chain,
)
from repro.checkpoint.format import (
    CheckpointMismatchError,
    read_manifest,
    write_checkpoint,
)
from repro.nn.embedding import EmbeddingBagCollection

__all__ = [
    "save_training_checkpoint",
    "load_training_checkpoint",
    "checkpoint_step",
    "hottest_rows",
    "accumulator_mass_by_table",
    "CheckpointManager",
]

_MODEL_PREFIX = "model/"
_OPT_PREFIX = "opt/"
#: Names the trainer state stores its two optimizers under.
_OPT_ROLES = ("dense", "sparse")


def _model_geometry(model: Any) -> List[dict]:
    """Embedding-table geometry of every collection in module order."""
    geometry: List[dict] = []
    if hasattr(model, "modules"):
        for module in model.modules():
            if isinstance(module, EmbeddingBagCollection):
                geometry.extend(module.geometry())
    return geometry


def _split_optimizer_state(
    prefix: str,
    opt_state: Dict[str, Any],
    arrays: Dict[str, np.ndarray],
    rows: Optional[Dict[int, np.ndarray]] = None,
) -> Dict[str, Any]:
    """Move an optimizer state's slot arrays into ``arrays`` payloads,
    returning the JSON-able remainder (slot keys preserved by name).

    Given ``rows`` (slot key → row ids), each slot saves only the delta
    slice of those rows instead of its full array."""
    meta = {k: v for k, v in opt_state.items() if k != "slots"}
    slot_keys: Dict[str, List[str]] = {}
    for slot, entries in opt_state["slots"].items():
        keys = sorted(entries, key=int)
        slot_keys[slot] = keys
        for key in keys:
            name = f"{prefix}/{slot}/{int(key):05d}"
            if rows is None:
                arrays[name] = entries[key]
            else:
                _put_rows(arrays, name, entries[key], rows[int(key)])
    meta["slot_keys"] = slot_keys
    return meta


def _join_optimizer_state(
    path: str,
    staged: Dict[str, np.ndarray],
    prefix: str,
    meta: Dict[str, Any],
) -> Dict[str, Any]:
    """Inverse of :func:`_split_optimizer_state`, over staged arrays."""
    slots: Dict[str, Dict[str, np.ndarray]] = {}
    for slot, keys in meta["slot_keys"].items():
        entries: Dict[str, np.ndarray] = {}
        for key in keys:
            name = f"{prefix}/{slot}/{int(key):05d}"
            if name not in staged:
                raise CheckpointMismatchError(
                    f"checkpoint at {path!r} has no array {name!r}"
                )
            entries[key] = staged[name]
        slots[slot] = entries
    state = {k: v for k, v in meta.items() if k != "slot_keys"}
    state["slots"] = slots
    return state


# ----------------------------------------------------------------------
def save_training_checkpoint(
    path: str,
    model: Any,
    trainer: Any = None,
    *,
    base: Optional[str] = None,
    touched: Optional[Dict[int, np.ndarray]] = None,
    spec: Any = None,
    partition: Any = None,
) -> str:
    """Write one training checkpoint directory; returns ``path``.

    ``model`` is any :class:`repro.nn.module.Module`; ``trainer`` (a
    :class:`repro.training.Trainer`, optional) contributes optimizer +
    progress + data-RNG state.  ``spec`` (a ``RunSpec``, whose cluster
    section is the saved shape) and ``partition`` (the DMT model's
    :class:`repro.core.partition.FeaturePartition`) are recorded when
    given, so an elastic restore can price moving the same model's
    tables onto another cluster without the original session.

    With ``base`` (a full or delta checkpoint) the save is a **delta**
    chained onto it (:mod:`repro.checkpoint.delta`): ``touched`` maps
    sparse-parameter index (table order) to the row ids to save — a
    superset of the rows modified since ``base``; tables absent from it
    save zero rows.  Only the embedding tables and the sparse optimizer
    slots are sliced; everything else is saved in full.
    """
    metadata: Dict[str, Any] = {
        "kind": _FULL_KIND,
        "model_class": type(model).__name__,
        "tables": _model_geometry(model),
    }
    rows: Optional[Dict[int, np.ndarray]] = None  # table index -> row ids
    sparse: Dict[int, int] = {}  # id(sparse parameter) -> table index
    if base is not None:
        if trainer is None:
            raise ValueError("a delta checkpoint needs the trainer")
        metadata.update(_delta_metadata(path, base))
        rows, touched = {}, touched or {}
        for idx, param in enumerate(trainer.sparse_opt.params):
            ids = np.unique(np.asarray(touched.get(idx, ()), dtype=np.int64))
            card = param.data.shape[0]
            if ids.size and (ids[0] < 0 or ids[-1] >= card):
                raise CheckpointMismatchError(
                    f"touched rows for table {idx} out of range [0, {card})"
                )
            rows[idx], sparse[id(param)] = ids, idx
        metadata["touched_rows"] = int(sum(r.size for r in rows.values()))
    arrays: Dict[str, np.ndarray] = {}
    for name, param in model.named_parameters():
        idx = sparse.get(id(param))
        if idx is None:
            arrays[_MODEL_PREFIX + name] = param.data.copy()
        else:
            _put_rows(arrays, _MODEL_PREFIX + name, param.data, rows[idx])
    if trainer is not None:
        trainer_state = trainer.state_dict()
        trainer_state["optimizers"] = {
            role: _split_optimizer_state(
                _OPT_PREFIX + role,
                trainer_state.pop(f"{role}_opt"),
                arrays,
                rows if role == "sparse" else None,
            )
            for role in _OPT_ROLES
        }
        metadata["trainer"] = trainer_state
    if spec is not None:
        metadata["spec"] = spec.to_dict()
        metadata["cluster"] = spec.cluster.to_dict()
    if partition is not None:
        metadata["partition_groups"] = [list(g) for g in partition.groups]
    return write_checkpoint(path, arrays, metadata)


def _check_geometry(path: str, metadata: Dict[str, Any], model: Any) -> None:
    saved = metadata.get("tables", [])
    own = _model_geometry(model)
    if len(saved) != len(own):
        raise CheckpointMismatchError(
            f"checkpoint at {path!r} holds {len(saved)} embedding tables, "
            f"model has {len(own)}"
        )
    for s, o in zip(saved, own):
        if dict(s) != dict(o):
            raise CheckpointMismatchError(
                f"embedding table mismatch for {o['name']!r}: checkpoint "
                f"saved {dict(s)}, model expects {dict(o)} (a restore "
                f"keeps the model; an elastic restore changes only the "
                f"cluster it runs on)"
            )


def load_training_checkpoint(
    path: str, model: Any, trainer: Any = None
) -> Dict[str, Any]:
    """Restore ``model`` (and optionally ``trainer``) from a checkpoint.

    ``path`` is a full save or a delta tip: its chain
    (:func:`~repro.checkpoint.delta.resolve_delta_chain`; a full save is
    a chain of one) is replayed base-first into staged arrays, so a
    restored tip is bit-identical to a full save of the same state.
    Returns the tip's manifest metadata.  All validation — format
    version, chain links, payload integrity, table geometry,
    parameter-name and shape match, optimizer compatibility — happens
    before any state is touched, and every failure is a typed
    :class:`~repro.checkpoint.format.CheckpointError`.
    """
    chain = resolve_delta_chain(path)
    metadata = read_manifest(path)["metadata"]
    _check_geometry(path, metadata, model)
    prefixes = [_MODEL_PREFIX]
    trainer_state: Optional[Dict[str, Any]] = None
    if trainer is not None:
        trainer_meta = metadata.get("trainer")
        if trainer_meta is None:
            raise CheckpointMismatchError(
                f"checkpoint at {path!r} has no trainer/optimizer state "
                f"(it was saved from a bare model); cannot resume "
                f"training from it"
            )
        trainer_state = dict(trainer_meta)
        opt_meta = trainer_state.pop("optimizers", None)
        if opt_meta is None or set(opt_meta) != set(_OPT_ROLES):
            raise CheckpointMismatchError(
                f"checkpoint at {path!r} is missing optimizer state for "
                f"{sorted(set(_OPT_ROLES) - set(opt_meta or {}))}"
            )
        prefixes.append(_OPT_PREFIX)
    staged = _staged_arrays(chain, prefixes)
    state = {
        key[len(_MODEL_PREFIX) :]: value
        for key, value in staged.items()
        if key.startswith(_MODEL_PREFIX)
    }
    if trainer is not None:
        for role in _OPT_ROLES:
            trainer_state[f"{role}_opt"] = _join_optimizer_state(
                path, staged, _OPT_PREFIX + role, opt_meta[role]
            )
    # Everything staged — validate both targets before mutating either,
    # so a mismatch can never leave a half-loaded model/trainer pair.
    if trainer is not None:
        try:
            trainer.validate_state_dict(trainer_state)
        except (KeyError, ValueError) as exc:
            raise CheckpointMismatchError(
                f"checkpoint at {path!r} does not fit this trainer: {exc}"
            ) from exc
    try:
        model.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        # load_state_dict itself is validate-then-commit: reaching here
        # means the model is untouched.
        raise CheckpointMismatchError(
            f"checkpoint at {path!r} does not fit this model: {exc}"
        ) from exc
    if trainer is not None:
        trainer.load_state_dict(trainer_state)
    return metadata


def checkpoint_step(path: str) -> int:
    """The global step a training checkpoint was saved at (0 if none)."""
    metadata = read_manifest(path)["metadata"]
    trainer = metadata.get("trainer") or {}
    return int(trainer.get("global_step", 0))


# ----------------------------------------------------------------------
def hottest_rows(path: str, max_rows: int) -> np.ndarray:
    """Global stacked-row ids of the hottest saved embedding rows.

    Hotness is :func:`accumulator_mass_by_table`'s per-row mass: rows
    the training traffic never touched score exactly zero and are never
    returned.  Rows are ranked hottest-first (ties broken by ascending
    row id for determinism) in the stacked row space of the saved tables
    — table ``f``'s rows start at ``sum(cardinality[:f])``, mirroring the
    fused :class:`~repro.nn.embedding.EmbeddingBagCollection` layout.
    """
    if max_rows <= 0:
        return np.empty(0, dtype=np.int64)
    masses = accumulator_mass_by_table(path)
    tables = read_manifest(path)["metadata"].get("tables", [])
    offsets = np.cumsum([0] + [t["num_embeddings"] for t in tables])
    ids: List[np.ndarray] = []
    hotness: List[np.ndarray] = []
    for table, offset in zip(tables, offsets):
        per_row = masses.get(str(table["name"]))
        if per_row is None:
            continue
        touched = np.flatnonzero(per_row > 0.0)
        ids.append(touched + offset)
        hotness.append(per_row[touched])
    if not ids:
        return np.empty(0, dtype=np.int64)
    all_ids = np.concatenate(ids)
    all_hot = np.concatenate(hotness)
    # Sort by (-hotness, id): hottest first, deterministic ties.
    order = np.lexsort((all_ids, -all_hot))
    return all_ids[order[:max_rows]].astype(np.int64)


def accumulator_mass_by_table(path: str) -> "Dict[str, np.ndarray]":
    """Per-row Adagrad accumulator mass of every saved table, by name.

    Each table's elementwise accumulator is summed over the embedding
    dim.  Untouched rows carry exactly 0.0 mass; each array has the
    table's full cardinality, and tables come in manifest order.  The
    tier planner (:mod:`repro.planner.tiering`) assigns row ranges to
    memory tiers by these masses; :func:`hottest_rows` ranks rows by
    them.

    ``path`` may be a full checkpoint or a delta tip, whose accumulators
    are staged through its chain exactly as
    :func:`load_training_checkpoint` stages them.
    """
    metadata = read_manifest(path)["metadata"]
    trainer = metadata.get("trainer")
    if trainer is None:
        raise CheckpointMismatchError(
            f"checkpoint at {path!r} has no optimizer state to rank "
            f"row hotness from"
        )
    tables = metadata.get("tables", [])
    sparse_meta = trainer["optimizers"]["sparse"]
    accum_keys = sparse_meta["slot_keys"].get("accum", [])
    if not accum_keys:
        return {}
    prefix = _OPT_PREFIX + "sparse"
    staged = _staged_arrays(resolve_delta_chain(path), (prefix + "/",))
    slots = _join_optimizer_state(path, staged, prefix, sparse_meta)["slots"]
    accum = slots["accum"]
    masses: Dict[str, np.ndarray] = {}
    for key in accum_keys:
        index = int(key)
        if index >= len(tables):
            raise CheckpointMismatchError(
                f"checkpoint at {path!r}: sparse accumulator {index} has "
                f"no matching table entry"
            )
        per_row = accum[key].sum(axis=1)
        masses[str(tables[index]["name"])] = np.asarray(per_row, dtype=float)
    return masses


# ----------------------------------------------------------------------
class CheckpointManager:
    """Periodic auto-save with bounded retention.

    Saves into ``<directory>/step_<global_step>`` every ``every_steps``
    optimizer steps and keeps only the newest ``keep_last`` periodic
    checkpoints — the cadence/retention policy a ``CheckpointSpec``
    describes and :class:`repro.api.Session` wires into
    :meth:`repro.training.Trainer.fit`.

    Retention counts step directories only, so a checkpoint a live run
    is still *referencing* — the path a ``Session.resume`` loaded, a
    fleet warm-start read, or the base a delta chain hangs off — could
    otherwise be deleted out from under it.  :meth:`pin` exempts a path
    from pruning for the manager's lifetime (pruning a delta chain's
    base would orphan every delta on it, so pins are load-bearing, not
    just polite).
    """

    _STEP_DIR = re.compile(r"^step_(\d{8})$")

    def __init__(
        self, directory: str, every_steps: int = 0, keep_last: int = 2
    ):
        if every_steps < 0:
            raise ValueError(
                f"every_steps must be >= 0, got {every_steps}"
            )
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.directory = directory
        self.every_steps = every_steps
        self.keep_last = keep_last
        self._pinned: set = set()

    def pin(self, path: Optional[str]) -> None:
        """Exempt ``path`` from retention pruning (None is a no-op)."""
        if path:
            self._pinned.add(os.path.abspath(path))

    def step_path(self, step: int) -> str:
        return os.path.join(self.directory, f"step_{step:08d}")

    def saved_steps(self) -> List[int]:
        """Steps with a retained checkpoint, ascending."""
        if not os.path.isdir(self.directory):
            return []
        steps = []
        for name in os.listdir(self.directory):
            match = self._STEP_DIR.match(name)
            if match:
                steps.append(int(match.group(1)))
        return sorted(steps)

    def latest(self) -> Optional[str]:
        """Path of the newest retained checkpoint, or None."""
        steps = self.saved_steps()
        return self.step_path(steps[-1]) if steps else None

    def save(self, model: Any, trainer: Any, **save_kwargs: Any) -> str:
        path = save_training_checkpoint(
            self.step_path(trainer.global_step), model, trainer, **save_kwargs
        )
        self._prune()
        return path

    def maybe_save(
        self, model: Any, trainer: Any, **save_kwargs: Any
    ) -> Optional[str]:
        """Save iff the trainer just crossed a cadence boundary."""
        if self.every_steps <= 0:
            return None
        if trainer.global_step % self.every_steps != 0:
            return None
        return self.save(model, trainer, **save_kwargs)

    def _prune(self) -> None:
        steps = self.saved_steps()
        for step in steps[: -self.keep_last]:
            path = self.step_path(step)
            if os.path.abspath(path) in self._pinned:
                continue
            shutil.rmtree(path, ignore_errors=True)
