"""Declarative run specifications for the :mod:`repro.api` session layer.

A :class:`RunSpec` is a small dataclass tree describing one end-to-end
workflow of the paper's §3.3 pipeline — which cluster to model
(:class:`ClusterSpec`), which synthetic click logs to generate
(:class:`DataSpec`), which model to build (:class:`ModelSpec`), how to
assign features to towers (:class:`PartitionSpec`), how to train
(:class:`TrainSpec`), which paper-scale configuration to price
(:class:`PerfSpec`), and which inference workload to serve
(:class:`ServeSpec`).  Every spec validates on construction and
round-trips through plain dicts / JSON, so a run can be stored next to
its results and re-executed bit-for-bit via ``dmt-repro run-spec``.

A knob that reaches a runtime object is stated once, there: the section
forwards it by name (:meth:`_SpecBase.build`), validates by building
the runtime object, and keeps only the checks the runtime cannot know —
spec-only fields, cross-field / cross-section rules, and the
unused-knob guards.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import re
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.comm.process_group import tower_groups
from repro.data import SyntheticCriteoConfig
from repro.data.criteo import TASKS
from repro.hardware.specs import GPUGeneration, get_spec
from repro.hardware.topology import Cluster
from repro.models.multitask import HEAD_MODES
from repro.serving import (
    AutoscalePolicy,
    FaultConfig,
    MicroBatcher,
    RecoveryModel,
    RetryPolicy,
    TieredStorage,
    WorkloadConfig,
    build_storage,
)
from repro.serving.fleet import ROUTER_POLICIES
from repro.serving.workload import SCENARIOS
from repro.training import TrainConfig

__all__ = [
    "ClusterSpec",
    "DataSpec",
    "ModelSpec",
    "PartitionSpec",
    "TrainSpec",
    "PerfSpec",
    "ServeSpec",
    "CheckpointSpec",
    "TierSpec",
    "FaultSpec",
    "AutoscaleSpec",
    "OnlineSpec",
    "ABSpec",
    "RunSpec",
    "SpecError",
]


class SpecError(ValueError):
    """A run specification failed validation or deserialization."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _as_index(value: Any) -> int:
    """A feature index from JSON: integers only, no float truncation."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(
            f"feature indices must be integers, got {value!r}"
        )
    return value


class _From(NamedTuple):
    """A :meth:`_SpecBase.build` override fed from a differently named
    spec field: a rename, or with ``scale`` a unit conversion
    (``x_s=_From("x_ms", 1e-3)``)."""

    field: str
    scale: Optional[float] = None


@functools.lru_cache(maxsize=None)
def _parameters(target: Callable[..., Any]) -> Tuple[str, ...]:
    return tuple(inspect.signature(target).parameters)


class _SpecBase:
    """Shared plumbing for the frozen spec dataclasses: dict/JSON
    round-tripping, the checks every section shares, and the projection
    of a section onto the runtime objects it configures."""

    #: Field names whose JSON lists must come back as tuples.
    _TUPLE_FIELDS: Tuple[str, ...] = ()
    #: Field names holding nested tuples (tuple of tuples of int).
    _NESTED_TUPLE_FIELDS: Tuple[str, ...] = ()
    #: Seed fields mixed before they reach numpy (any int is valid).
    _MIXED_SEED_FIELDS: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        """Accept lists at direct construction but store hashable
        tuples (the lru-cached session stages need hashable specs),
        reject seeds numpy would refuse mid-run, then run the
        section's own :meth:`_validate`."""
        for name in self._NESTED_TUPLE_FIELDS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(
                    self, name, tuple(tuple(g) for g in value)
                )
        for name in self._TUPLE_FIELDS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(value))
        for f in fields(self):
            if (
                f.name == "seed" or f.name.endswith("_seed")
            ) and f.name not in self._MIXED_SEED_FIELDS:
                value = getattr(self, f.name)
                _require(
                    isinstance(value, int) and value >= 0,
                    f"{f.name} must be an int >= 0, got {value!r}: it "
                    f"seeds a numpy generator unmixed",
                )
        try:
            self._validate()
        except TypeError as exc:  # a wrongly typed knob, e.g. "x" >= 1
            raise SpecError(f"invalid {type(self).__name__}: {exc}") from exc

    def _validate(self) -> None:
        """Section-specific checks (none by default)."""

    def build(
        self, target: Callable[..., Any], *args: Any, **overrides: Any
    ) -> Any:
        """Construct ``target`` from this section — the one spec ->
        runtime projection.

        Every keyword of ``target`` (past the positional ``args``) that
        is also a field of this section is forwarded by name;
        ``overrides`` carry the rest: values the section does not hold,
        and renames / unit conversions as :class:`_From`.  The
        runtime's ``ValueError`` / ``TypeError`` comes back as a
        :class:`SpecError`, so a knob's range is stated once, on the
        runtime side.
        """
        mine = {f.name for f in fields(self)}
        kwargs = {
            name: getattr(self, name)
            for name in _parameters(target)[len(args):]
            if name in mine
        }
        renamed: Dict[str, str] = {}
        try:
            for name, value in overrides.items():
                if isinstance(value, _From):
                    source, scale = value
                    value = getattr(self, source)
                    if scale is not None:
                        value = value * scale
                        source = f"{source} * {scale}"
                    renamed[name] = source
                kwargs[name] = value
            return target(*args, **kwargs)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            message = str(exc)
            for name, source in renamed.items():
                if re.search(rf"\b{name}\b", message):
                    message += f" ({name} = {source})"
            raise SpecError(f"{type(self).__name__}: {message}") from exc

    def _non_default(self, names: Tuple[str, ...]) -> Dict[str, Any]:
        """``{name: default}`` of the named fields that depart from
        their defaults."""
        return {
            f.name: f.default
            for f in fields(self)
            if f.name in names and getattr(self, f.name) != f.default
        }

    def _require_defaults(self, names: Tuple[str, ...], when: str) -> None:
        """A stored spec must not pretend to configure knobs the run
        never reads: under condition ``when`` the named fields stay at
        their defaults."""
        for name, default in self._non_default(names).items():
            raise SpecError(
                f"{name} has no effect {when}; leave it at its default "
                f"({default!r})"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON-types dict (tuples become lists)."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, _SpecBase):
                value = value.to_dict()
            elif f.name in self._NESTED_TUPLE_FIELDS and value is not None:
                value = [list(g) for g in value]
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "_SpecBase":
        _require(
            isinstance(data, dict),
            f"{cls.__name__} expects a mapping, got {type(data).__name__}",
        )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        _require(
            not unknown,
            f"unknown {cls.__name__} field(s): {', '.join(sorted(unknown))}",
        )
        try:
            kwargs: Dict[str, Any] = {}
            for f in fields(cls):
                if f.name not in data:
                    continue
                value = data[f.name]
                if f.name in cls._NESTED_TUPLE_FIELDS and value is not None:
                    value = tuple(tuple(_as_index(i) for i in g) for g in value)
                elif f.name in cls._TUPLE_FIELDS and value is not None:
                    value = tuple(value)
                kwargs[f.name] = value
            return cls(**kwargs)  # type: ignore[call-arg]
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid {cls.__name__}: {exc}") from exc

    def replace(self, **changes: Any) -> "_SpecBase":
        """Functional update (mirrors :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)  # type: ignore[type-var]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterSpec(_SpecBase):
    """The modeled datacenter topology (hosts x GPUs, one generation)."""

    num_hosts: int = 2
    gpus_per_host: int = 2
    generation: str = "A100"

    def _validate(self) -> None:
        _require(self.num_hosts >= 1, f"num_hosts must be >= 1, got {self.num_hosts}")
        _require(
            self.gpus_per_host >= 1,
            f"gpus_per_host must be >= 1, got {self.gpus_per_host}",
        )
        try:
            get_spec(self.generation)
        except KeyError:
            names = ", ".join(g.value for g in GPUGeneration)
            raise SpecError(
                f"unknown generation {self.generation!r}; "
                f"expected one of {names}"
            ) from None

    @property
    def world_size(self) -> int:
        return self.num_hosts * self.gpus_per_host

    def require_towers_divide_hosts(self, num_towers: int, what: str) -> None:
        """The tower geometry's one rule (:func:`repro.comm.tower_groups`):
        a tower spans ``K = num_hosts / num_towers`` whole hosts."""
        cluster = Cluster(self.num_hosts, self.gpus_per_host, self.generation)
        try:
            tower_groups(cluster, num_towers)
        except ValueError as exc:
            raise SpecError(f"{what} must divide cluster.num_hosts: {exc}") from None


@dataclass(frozen=True)
class DataSpec(_SpecBase):
    """Synthetic Criteo-like click logs with planted block structure.

    The generator knobs (``num_dense`` .. ``cvr_noise``) are forwarded
    by name to :class:`repro.data.criteo.SyntheticCriteoConfig`, which
    states their ranges; ``num_samples``/``eval_fraction`` describe the
    train/eval split.
    The ``cvr_*`` knobs shape the conversion label column and are read
    only when the model's ``tasks`` include ``"cvr"`` (cross-checked
    at the RunSpec level).
    """

    num_dense: int = 13
    num_sparse: int = 26
    cardinality: int = 64
    num_blocks: int = 4
    rho: float = 0.85
    noise: float = 0.4
    cross_strength: float = 0.15
    cvr_correlation: float = 0.7
    cvr_bias: float = -1.0
    cvr_noise: float = 0.3
    num_samples: int = 12000
    eval_fraction: float = 1.0 / 3.0
    dataset_seed: int = 0
    sample_seed: int = 1

    def _validate(self) -> None:
        self.generator_config()
        # Stricter than the generator on purpose: one-row tables give
        # a training run nothing to learn.
        _require(self.cardinality >= 2, "cardinality must be >= 2")
        _require(self.num_samples >= 2, "num_samples must be >= 2")
        _require(
            0.0 < self.eval_fraction < 1.0,
            f"eval_fraction must be in (0, 1), got {self.eval_fraction}",
        )

    def generator_config(self) -> SyntheticCriteoConfig:
        return self.build(SyntheticCriteoConfig)

    #: cvr knobs only matter when some arm's model learns a cvr head.
    _CVR_FIELDS = ("cvr_correlation", "cvr_bias", "cvr_noise")

    @property
    def has_cvr_knobs(self) -> bool:
        """True when any cvr generator knob departs from its default."""
        return bool(self._non_default(self._CVR_FIELDS))


@dataclass(frozen=True)
class ModelSpec(_SpecBase):
    """One recommendation model: family, variant, and dense sizing.

    ``tasks`` turns the single-logit CTR model into a multi-task one
    sharing the same embedding plane: the first task keeps the base
    model's top MLP, every further task gets its own ``head_mlp``
    tower (:class:`~repro.models.multitask.MultiTaskHead`) in ``head``
    mode — ``"shared_bottom"`` towers only, ``"dbmtl"`` adds a learned
    residual link from the primary logit.  A single task (the default
    ``tasks=("ctr",)``) is the base model itself.  The data section's
    labels follow ``tasks``: 1-D for one task, ``(n, T)`` otherwise.
    """

    _TUPLE_FIELDS = ("bottom_mlp", "top_mlp", "tasks", "head_mlp",
                     "task_weights")

    family: str = "dlrm"  # "dlrm" | "dcn"
    variant: str = "dmt"  # "flat" | "dmt"
    embedding_dim: int = 16
    bottom_mlp: Tuple[int, ...] = (32,)
    top_mlp: Tuple[int, ...] = (64, 32)
    cross_layers: int = 0  # DCN only
    tower_dim: int = 8  # DMT only
    c: int = 1  # DMT-DLRM tower module width factor
    p: int = 0  # DMT-DLRM flat-bottleneck term
    pass_through: bool = False
    seed: int = 0
    # Multi-task knobs (no effect with a single task).
    tasks: Tuple[str, ...] = ("ctr",)
    head: str = "shared_bottom"  # "shared_bottom" | "dbmtl"
    head_mlp: Tuple[int, ...] = (32,)
    task_weights: Optional[Tuple[float, ...]] = None

    def _validate(self) -> None:
        _require(
            self.family in ("dlrm", "dcn"),
            f"family must be 'dlrm' or 'dcn', got {self.family!r}",
        )
        _require(
            self.variant in ("flat", "dmt"),
            f"variant must be 'flat' or 'dmt', got {self.variant!r}",
        )
        _require(self.embedding_dim >= 1, "embedding_dim must be >= 1")
        _require(
            all(h >= 1 for h in self.bottom_mlp + self.top_mlp),
            "MLP hidden sizes must be positive",
        )
        _require(
            self.family != "dcn" or self.cross_layers >= 1,
            "DCN models need cross_layers >= 1",
        )
        _require(self.tower_dim >= 1, "tower_dim must be >= 1")
        _require(self.c >= 0 and self.p >= 0, "c and p must be non-negative")
        _require(len(self.tasks) >= 1, "tasks must name at least one task")
        _require(
            all(t in TASKS for t in self.tasks),
            f"unknown task(s) in {self.tasks}; expected from {TASKS}",
        )
        _require(
            len(set(self.tasks)) == len(self.tasks),
            f"duplicate tasks in {self.tasks}",
        )
        # 'cvr' without 'ctr' constructs (the cvr-without-ctr speccheck
        # owns the diagnosis) but fails at data generation.
        _require(
            self.head in HEAD_MODES,
            f"head must be one of {HEAD_MODES}, got {self.head!r}",
        )
        _require(
            all(
                isinstance(h, int) and not isinstance(h, bool) and h >= 1
                for h in self.head_mlp
            ),
            "head_mlp hidden sizes must be positive ints",
        )
        if self.task_weights is not None:
            _require(
                len(self.task_weights) == len(self.tasks),
                f"{len(self.task_weights)} task_weights for "
                f"{len(self.tasks)} tasks",
            )
            _require(
                all(
                    isinstance(w, (int, float))
                    and not isinstance(w, bool)
                    and math.isfinite(w)
                    for w in self.task_weights
                ),
                f"task_weights must be finite numbers, got "
                f"{self.task_weights}",
            )
            # Non-positive weights construct (the task-weight-degenerate
            # speccheck owns that diagnosis).
        if len(self.tasks) == 1:
            self._require_defaults(
                ("head", "head_mlp", "task_weights"), "with a single task"
            )


#: Strategies that require the interaction-probe -> TP pipeline.
_PROBE_STRATEGIES = ("probe", "coherent", "diverse")
#: All partition strategies the session layer understands.
PARTITION_STRATEGIES = _PROBE_STRATEGIES + ("naive", "contiguous", "given")


@dataclass(frozen=True)
class PartitionSpec(_SpecBase):
    """How features are assigned to towers.

    ``probe`` (alias ``coherent``) and ``diverse`` run the full §3.3
    pipeline — train a flat probe model, measure the interaction
    matrix, MDS-embed, constrained K-Means — with the named distance
    strategy.  ``naive`` is Table 6's strided baseline, ``contiguous``
    the block-structure oracle, and ``given`` takes explicit groups
    (``num_towers`` is then derived as ``len(groups)``).
    """

    _NESTED_TUPLE_FIELDS = ("groups",)

    strategy: str = "probe"
    #: None resolves to 4 (or, with 'given' groups, to len(groups)).
    num_towers: Optional[int] = None
    groups: Optional[Tuple[Tuple[int, ...], ...]] = None
    probe_seed: int = 7
    probe_epochs: int = 2
    probe_batch_size: int = 256
    probe_sparse_lr: float = 0.05
    probe_samples: int = 6000
    mds_iterations: int = 800
    kmeans_seed: int = 0

    def _validate(self) -> None:
        _require(
            self.strategy in PARTITION_STRATEGIES,
            f"unknown partition strategy {self.strategy!r}; "
            f"expected one of {PARTITION_STRATEGIES}",
        )
        if self.strategy == "given":
            _require(
                self.groups is not None,
                "strategy 'given' requires explicit groups",
            )
            assert self.groups is not None
            _require(
                len(self.groups) >= 1
                and all(len(g) >= 1 for g in self.groups),
                "every tower group must hold at least one feature",
            )
            flat = [f for g in self.groups for f in g]
            _require(
                all(isinstance(f, int) and f >= 0 for f in flat),
                "group entries must be non-negative feature indices",
            )
            _require(
                len(flat) == len(set(flat)),
                "a feature appears in more than one tower group",
            )
            _require(
                set(flat) == set(range(len(flat))),
                f"given groups must cover feature indices "
                f"0..{len(flat) - 1} exactly; got {sorted(flat)}",
            )
            _require(
                self.num_towers is None
                or self.num_towers == len(self.groups),
                f"num_towers={self.num_towers} conflicts with the "
                f"{len(self.groups)} given groups; drop it or make "
                f"them agree",
            )
            # num_towers is derived so cross-checks (towers divide
            # hosts, num_towers <= num_sparse) validate the real tower count.
            object.__setattr__(self, "num_towers", len(self.groups))
        else:
            _require(
                self.groups is None,
                f"groups are only valid with strategy 'given', "
                f"not {self.strategy!r}",
            )
            if self.num_towers is None:
                object.__setattr__(self, "num_towers", 4)
            _require(self.num_towers >= 1, "num_towers must be >= 1")
        _require(self.probe_epochs >= 1, "probe_epochs must be >= 1")
        _require(self.probe_batch_size >= 1, "probe_batch_size must be >= 1")
        _require(self.probe_sparse_lr > 0, "probe_sparse_lr must be positive")
        _require(self.probe_samples >= 1, "probe_samples must be >= 1")
        _require(self.mds_iterations >= 1, "mds_iterations must be >= 1")
        if not self.needs_probe:
            self._require_defaults(
                (
                    "probe_seed",
                    "probe_epochs",
                    "probe_batch_size",
                    "probe_sparse_lr",
                    "probe_samples",
                    "mds_iterations",
                    "kmeans_seed",
                ),
                f"with strategy={self.strategy!r}",
            )

    @property
    def needs_probe(self) -> bool:
        return self.strategy in _PROBE_STRATEGIES

    @property
    def tp_distance(self) -> str:
        """The TowerPartitioner distance strategy behind ``strategy``."""
        return "diverse" if self.strategy == "diverse" else "coherent"


@dataclass(frozen=True)
class TrainSpec(_SpecBase):
    """Training protocol: one recipe, two step executors.

    Every plane that trains (``train``, ``online``, both ``ab`` arms)
    runs :class:`repro.training.Trainer` with :meth:`trainer_config`'s
    optimizer pair and checkpoints, resumes and autosaves alike.
    ``mode`` picks only who executes each step (see
    :meth:`repro.api.Session.build_trainer`): the model itself
    (``'single'``), or the DMT or hybrid-parallel executor on a
    :class:`repro.sim.SimCluster` of the cluster section
    (``'simulated'``, which also prices a timeline).
    """

    mode: str = "single"  # "single" | "simulated"
    batch_size: int = 256
    epochs: int = 2
    dense_lr: float = 1e-3
    sparse_lr: float = 0.03
    dense_optimizer: str = "adam"
    warmup_steps: int = 0
    seed: int = 0

    #: ``seed`` goes through the trainer's splitmix mix, not to numpy.
    _MIXED_SEED_FIELDS = ("seed",)

    def _validate(self) -> None:
        _require(
            self.mode in ("single", "simulated"),
            f"mode must be 'single' or 'simulated', got {self.mode!r}",
        )
        self.trainer_config()

    def trainer_config(self) -> TrainConfig:
        """The trainer's hyperparameters (both modes)."""
        return self.build(TrainConfig)


#: Placement arms the serving stage understands ("both" runs the
#: comparison on one shared request trace).
SERVE_PLACEMENTS = ("colocated", "disaggregated", "both")
#: The serving stack's own tuples, under this module's names for them.
SERVE_SCENARIOS = SCENARIOS
SERVE_ROUTERS = ROUTER_POLICIES


@dataclass(frozen=True)
class ServeSpec(_SpecBase):
    """Priced inference serving: stream, batching, cache, placement.

    ``kind`` picks the paper-scale model profile to serve when the spec
    has no model section; a spec with one serves that model's geometry
    (trained first when a train section is present, freshly built
    otherwise).  ``placement='both'`` replays one
    request trace under colocated and disaggregated embedding
    placement, which is the comparison the ``serving`` experiment
    reports.

    ``scenario`` shapes the arrival process (stationary Poisson,
    diurnal sinusoid, or a flash crowd) and ``churn_keys_per_s`` drifts
    the popularity ranking — both feed straight into
    :class:`repro.serving.WorkloadConfig`.  Setting ``fleet_replicas``
    switches the stage from the single :class:`InferenceService` to a
    :class:`~repro.serving.fleet.ServingFleet` of that many replicas
    (each with its own ``cache_rows``-row cache and batcher queue),
    routed by ``router``.
    """

    kind: str = "dlrm"  # "dlrm" | "dcn" (profile when nothing is trained)
    qps: float = 500_000.0
    num_requests: int = 20_000
    key_space: int = 100_000
    skew: float = 1.0
    max_batch_size: int = 64
    max_queue_delay_ms: float = 1.0
    cache_rows: int = 16_384
    placement: str = "both"
    emb_hosts: Optional[int] = None  # default: max(1, num_hosts // 4)
    seed: int = 0
    # Scenario shaping (see repro.serving.workload).
    scenario: str = "poisson"
    diurnal_period_s: float = 1.0
    diurnal_amplitude: float = 0.5
    flash_start_s: float = 0.0
    flash_duration_s: float = 0.0
    flash_factor: float = 5.0
    churn_keys_per_s: float = 0.0
    # Fleet serving (None = the single-service path).
    fleet_replicas: Optional[int] = None
    router: str = "round_robin"

    def _validate(self) -> None:
        _require(
            self.kind in ("dlrm", "dcn"),
            f"kind must be 'dlrm' or 'dcn', got {self.kind!r}",
        )
        # Any valid lookup count: the served model sets the real one.
        self.workload_config(num_lookups=1)
        self.batcher()
        _require(self.cache_rows >= 0, "cache_rows must be >= 0")
        # Bugfix: a cache larger than the key space it fronts used to
        # slip through to the serving stage, where the LRU silently
        # never evicted while the fleet accounted (and priced) the full
        # allocation.  Rows beyond key_space can never be referenced,
        # so reject the overcommit at spec validation time.
        _require(
            self.cache_rows <= self.key_space,
            f"cache_rows={self.cache_rows} exceeds key_space="
            f"{self.key_space}: the cache would reserve rows the "
            f"workload can never reference",
        )
        _require(
            self.placement in SERVE_PLACEMENTS,
            f"unknown placement {self.placement!r}; expected one of "
            f"{SERVE_PLACEMENTS}",
        )
        _require(
            self.emb_hosts is None or self.emb_hosts >= 1,
            "emb_hosts must be >= 1 when given",
        )
        _require(
            self.fleet_replicas is None or self.fleet_replicas >= 1,
            "fleet_replicas must be >= 1 when given",
        )
        _require(
            self.router in SERVE_ROUTERS,
            f"unknown router {self.router!r}; expected one of "
            f"{SERVE_ROUTERS}",
        )
        if self.scenario != "diurnal":
            self._require_defaults(
                ("diurnal_period_s", "diurnal_amplitude"),
                f"with scenario={self.scenario!r}",
            )
        if self.scenario != "flash":
            self._require_defaults(
                ("flash_start_s", "flash_duration_s", "flash_factor"),
                f"with scenario={self.scenario!r}",
            )
        if self.fleet_replicas is None:
            self._require_defaults(("router",), "without fleet_replicas")

    def workload_config(self, num_lookups: int) -> WorkloadConfig:
        """The request stream's knobs, for a model that reads
        ``num_lookups`` embedding rows per request."""
        return self.build(WorkloadConfig, num_lookups=num_lookups)

    def batcher(self) -> MicroBatcher:
        return self.build(
            MicroBatcher, max_delay_s=_From("max_queue_delay_ms", 1e-3)
        )

    @property
    def uses_fleet(self) -> bool:
        return self.fleet_replicas is not None

    @property
    def serves_disaggregated(self) -> bool:
        return self.placement in ("disaggregated", "both")

    def resolved_emb_hosts(self, num_hosts: int) -> int:
        """The embedding-tier size on a given cluster (default: a
        quarter of the hosts, at least one)."""
        if self.emb_hosts is not None:
            return self.emb_hosts
        return max(1, num_hosts // 4)


@dataclass(frozen=True)
class CheckpointSpec(_SpecBase):
    """Fault-tolerance protocol: periodic saves, resume, warm-start.

    ``save_every_steps > 0`` wires periodic auto-save through the
    trainer into ``<directory>/<run name>/step_<n>`` (keeping the
    newest ``keep_last``).  ``resume_from`` names a checkpoint
    directory to restore before training continues — bit-identically
    when the rest of the spec matches the saved run.  A different
    cluster section resumes the same model there (a ``T``-tower model
    keeps ``T`` towers of ``K = H/T`` hosts) with its table migration
    priced as an elastic restore; a different tower count is a
    checkpoint mismatch.
    With a serve section, ``warm_start`` prefills each placement arm's
    LRU embedding cache from the checkpoint's hottest saved rows.
    """

    directory: str = "checkpoints"
    save_every_steps: int = 0
    keep_last: int = 2
    resume_from: Optional[str] = None
    warm_start: bool = True

    def _validate(self) -> None:
        _require(
            isinstance(self.directory, str) and bool(self.directory),
            "checkpoint directory must be a non-empty path",
        )
        _require(
            self.save_every_steps >= 0,
            f"save_every_steps must be >= 0, got {self.save_every_steps}",
        )
        _require(
            self.keep_last >= 1,
            f"keep_last must be >= 1, got {self.keep_last}",
        )
        _require(
            self.resume_from is None or bool(self.resume_from),
            "resume_from must be None or a non-empty path",
        )


@dataclass(frozen=True)
class PerfSpec(_SpecBase):
    """Paper-scale iteration pricing: hybrid baseline vs DMT."""

    kind: str = "dlrm"  # "dlrm" | "dcn"
    local_batch: int = 16384
    num_towers: Optional[int] = None  # default: one tower per host

    def _validate(self) -> None:
        _require(
            self.kind in ("dlrm", "dcn"),
            f"kind must be 'dlrm' or 'dcn', got {self.kind!r}",
        )
        _require(self.local_batch >= 1, "local_batch must be >= 1")
        _require(
            self.num_towers is None or self.num_towers >= 1,
            "num_towers must be >= 1 when given",
        )


@dataclass(frozen=True)
class TierSpec(_SpecBase):
    """Tiered embedding storage for the serving stage.

    Generalizes the single ``serve.cache_rows`` LRU into a multi-level
    chain over the memory hierarchy
    (:class:`repro.serving.TieredStorage`): level 0 stays the HBM cache
    sized by ``serve.cache_rows``; ``levels``/``cache_rows`` add local
    below-HBM levels (host DRAM, then NVMe) in order; ``backing`` says
    where chain misses are served from — ``"remote"`` is a parameter
    server behind the fabric (priced with its RPC latency and device
    bandwidth), ``"hbm"`` is the classic fetch-tier model (chain misses
    pay only the fabric transfer, which makes an empty-``levels`` spec
    bit-identical to not having a tiers section at all).
    """

    levels: Tuple[str, ...] = ("dram",)
    cache_rows: Tuple[int, ...] = (65_536,)
    backing: str = "remote"

    _TUPLE_FIELDS = ("levels", "cache_rows")

    def _validate(self) -> None:
        # The hierarchy's shape depends on neither the generation nor
        # the HBM level's size; a run supplies its own when it serves.
        self.storage(ClusterSpec.generation, 0)

    def storage(self, generation: str, hbm_rows: int) -> TieredStorage:
        """The replica's storage on ``generation``'s tier presets, with
        an HBM level of ``hbm_rows`` (``serve.cache_rows``)."""
        return self.build(build_storage, generation, hbm_rows)


@dataclass(frozen=True)
class FaultSpec(_SpecBase):
    """Seeded fault injection + client robustness for fleet serving.

    The fault half (``replica_crashes`` .. ``end_s``) expands into a
    deterministic :class:`repro.serving.FaultConfig` schedule over the
    served trace; the client half (``timeout_ms`` .. ``retry_budget``)
    becomes the :class:`repro.serving.RetryPolicy`; ``degraded_mode`` /
    ``stale_penalty`` control stale serving during fetch outages; and
    the recovery knobs (``recover_crashes`` .. ``warm_rows``) build the
    :class:`repro.serving.RecoveryModel` that prices MTTR against
    checkpoint cadence.  Requires ``serve.fleet_replicas`` — faults are
    a fleet story.
    """

    seed: int = 0
    # Fault schedule (counts expand via the seed).
    replica_crashes: int = 0
    replica_hangs: int = 0
    hang_duration_s: float = 0.0
    fetch_degrades: int = 0
    degrade_duration_s: float = 0.0
    degrade_factor: float = 4.0
    fetch_outages: int = 0
    outage_duration_s: float = 0.0
    start_s: float = 0.0  # injection window; both 0 = middle 90%
    end_s: float = 0.0
    # Client-side robustness.
    timeout_ms: float = 1.0
    max_retries: int = 3
    backoff_base_ms: float = 0.25
    backoff_cap_ms: float = 2.0
    backoff_jitter: float = 0.5
    retry_budget: float = 0.25
    degraded_mode: bool = True
    stale_penalty: float = 0.05
    # Crash recovery (MTTR model); only read when replica_crashes > 0.
    recover_crashes: bool = True
    detection_ms: float = 1.0
    restore_ms: float = 2.0
    checkpoint_period_s: float = 0.0  # 0 = no checkpoints (cold rebuild)
    replay_rate: float = 0.5
    cold_rebuild_ms: float = 50.0
    warm_rows: int = 0

    def _validate(self) -> None:
        self.fault_config()
        self.retry_policy()
        self.recovery_model()
        _require(
            self.stale_penalty >= 0,
            f"stale_penalty must be >= 0, got {self.stale_penalty}",
        )
        if self.replica_hangs == 0:
            self._require_defaults(
                ("hang_duration_s",), "with replica_hangs=0"
            )
        if self.fetch_degrades == 0:
            self._require_defaults(
                ("degrade_duration_s", "degrade_factor"),
                "with fetch_degrades=0",
            )
        if self.fetch_outages == 0:
            self._require_defaults(
                ("outage_duration_s",), "with fetch_outages=0"
            )
        if self.replica_crashes == 0:
            self._require_defaults(
                (
                    "recover_crashes",
                    "detection_ms",
                    "restore_ms",
                    "checkpoint_period_s",
                    "replay_rate",
                    "cold_rebuild_ms",
                    "warm_rows",
                ),
                "with replica_crashes=0",
            )

    def fault_config(self) -> FaultConfig:
        """The seeded fault schedule."""
        return self.build(FaultConfig)

    def retry_policy(self) -> RetryPolicy:
        """The client-side timeout / retry / backoff discipline."""
        return self.build(RetryPolicy, jitter=_From("backoff_jitter"))

    def recovery_model(self, elastic_plan: Any = None) -> RecoveryModel:
        """The MTTR model for a crashed replica.

        With ``elastic_plan`` (the resumable checkpoint's
        :class:`~repro.checkpoint.ElasticRestorePlan` on this cluster)
        the restore leg is priced by the plan's actual shard migration
        instead of the ``restore_ms`` constant.
        """
        overrides = dict(
            detection_s=_From("detection_ms", 1e-3),
            cold_rebuild_s=_From("cold_rebuild_ms", 1e-3),
        )
        if elastic_plan is not None:
            return self.build(
                RecoveryModel.from_elastic_plan, elastic_plan, **overrides
            )
        return self.build(
            RecoveryModel, restore_s=_From("restore_ms", 1e-3), **overrides
        )

    @property
    def num_faults(self) -> int:
        """Total faults the schedule will inject."""
        return (
            self.replica_crashes
            + self.replica_hangs
            + self.fetch_degrades
            + self.fetch_outages
        )


@dataclass(frozen=True)
class AutoscaleSpec(_SpecBase):
    """Closed-loop SLO autoscaling over the serving fleet.

    Becomes a :class:`repro.serving.AutoscalePolicy`: the fleet starts
    at ``serve.fleet_replicas`` and the controller moves it inside
    ``[min_replicas, max_replicas]`` on windowed p99/queue-depth
    evidence.  ``min_replicas > max_replicas`` is *not* rejected here —
    the ``autoscale-bounds-inverted`` speccheck owns that diagnosis, so
    a stored pathological spec still loads for analysis.
    """

    slo_p99_ms: float = 5.0
    min_replicas: int = 1
    max_replicas: int = 8
    window_ms: float = 0.0  # observation window; 0 = trace span / 20
    scale_step: int = 1
    provision_ms: float = 2.0
    cooldown_windows: int = 1
    queue_high: float = 16.0
    scale_down_margin: float = 0.5
    warm_rows: int = 0

    def _validate(self) -> None:
        # The one deliberate divergence from the runtime: inverted
        # bounds must still load (see the class docstring), so every
        # other knob is validated with the bounds un-inverted.
        self.policy(max_replicas=max(self.min_replicas, self.max_replicas))
        _require(
            self.max_replicas >= 1,
            f"max_replicas must be >= 1, got {self.max_replicas}",
        )

    def policy(self, **overrides: Any) -> AutoscalePolicy:
        """The autoscaler's knobs (rejects inverted replica bounds)."""
        return self.build(
            AutoscalePolicy,
            window_s=_From("window_ms", 1e-3),
            provision_s=_From("provision_ms", 1e-3),
            **overrides,
        )


@dataclass(frozen=True)
class OnlineSpec(_SpecBase):
    """Online training with delta checkpoints and hot-swap rollout.

    Runs the :mod:`repro.online` freshness loop: the data section's
    click stream is split into ``windows`` windows under **hot-set
    churn** — the live vocabulary (``data.cardinality`` ids) is mapped
    into embedding tables ``table_multiplier``\\ x larger, and every
    window boundary ``churn_fraction`` of the live slots remap to
    fresh rows (new items arriving, old ones going cold).  An
    :class:`~repro.online.OnlineDriver` trains through the stream,
    emitting a delta checkpoint per window (compacted back to a full
    save every ``compact_every`` deltas) and gating each deploy on a
    canary eval; the :class:`~repro.online.RolloutPlanner` turns the
    deploys into staged :class:`~repro.serving.SwapEvent` schedules
    (cumulative replica counts ``rollout_stages``, default canary →
    half → all) that the serving fleet replays against a frozen arm
    at equal provisioned cost.

    ``canary_threshold`` (the tolerated eval-AUC regression before
    automatic rollback) is deliberately *not* range-checked here — the
    ``canary-threshold-invalid`` speccheck owns that diagnosis, so a
    stored pathological spec still loads for analysis.  Likewise
    ``rollout_stages`` vs. the fleet size is cross-field and belongs
    to the ``rollout-exceeds-replicas`` speccheck.
    """

    _TUPLE_FIELDS = ("rollout_stages",)

    windows: int = 6
    window_samples: int = 768
    eval_samples: int = 384
    churn_fraction: float = 0.1
    table_multiplier: int = 16
    compact_every: int = 4
    canary_threshold: float = 0.01
    rollout_stages: Tuple[int, ...] = ()
    swap_downtime_ms: float = 2.0
    seed: int = 0

    def _validate(self) -> None:
        _require(
            self.windows >= 2,
            f"online training needs windows >= 2, got {self.windows}",
        )
        _require(self.window_samples >= 1, "window_samples must be >= 1")
        _require(self.eval_samples >= 1, "eval_samples must be >= 1")
        _require(
            0.0 <= self.churn_fraction < 1.0,
            f"churn_fraction must be in [0, 1), got {self.churn_fraction}",
        )
        _require(
            self.table_multiplier >= 1,
            f"table_multiplier must be >= 1, got {self.table_multiplier}",
        )
        _require(
            self.compact_every >= 1,
            f"compact_every must be >= 1, got {self.compact_every}",
        )
        _require(
            all(
                isinstance(s, int) and not isinstance(s, bool) and s >= 1
                for s in self.rollout_stages
            )
            and list(self.rollout_stages)
            == sorted(set(self.rollout_stages)),
            f"rollout_stages must be strictly increasing positive "
            f"replica counts, got {self.rollout_stages}",
        )
        _require(
            self.swap_downtime_ms >= 0,
            f"swap_downtime_ms must be >= 0, got {self.swap_downtime_ms}",
        )


@dataclass(frozen=True)
class ABSpec(_SpecBase):
    """Paired A/B comparison of two arms under identical seeded data.

    Arm A is the spec's own ``model``/``train`` sections; arm B
    overrides either or both via ``model_b``/``train_b`` (``None``
    inherits arm A's section).  For every seed ``s`` both arms train
    on the *same* generated dataset and batch order (§5.2 protocol:
    ``model.seed = 100 + s``, ``train.seed = s``), so the per-seed
    metric difference is a paired observation; :meth:`Session.ab`
    reports per-task mean deltas with a Student-t confidence interval
    at level ``confidence``.

    Two arms resolving to the identical model+train is the
    ``ab-arms-identical`` speccheck's diagnosis, not a construction
    error — a stored pathological spec still loads for analysis.
    """

    _TUPLE_FIELDS = ("seeds",)

    seeds: Tuple[int, ...] = (0, 1, 2, 3, 4)
    confidence: float = 0.95
    label_a: str = "A"
    label_b: str = "B"
    model_b: Optional[ModelSpec] = None
    train_b: Optional[TrainSpec] = None

    def _validate(self) -> None:
        _require(
            len(self.seeds) >= 2,
            f"a paired confidence interval needs >= 2 seeds, got "
            f"{len(self.seeds)}",
        )
        _require(
            all(
                isinstance(s, int) and not isinstance(s, bool) and s >= 0
                for s in self.seeds
            ),
            f"seeds must be non-negative ints, got {self.seeds}",
        )
        _require(
            len(set(self.seeds)) == len(self.seeds),
            f"seeds must be distinct, got {self.seeds}",
        )
        _require(
            0.0 < self.confidence < 1.0,
            f"confidence must be in (0, 1), got {self.confidence}",
        )
        for label in (self.label_a, self.label_b):
            _require(
                isinstance(label, str) and bool(label),
                "arm labels must be non-empty strings",
            )
        _require(
            self.label_a != self.label_b,
            f"arm labels must differ, got {self.label_a!r} twice",
        )
        _require(
            self.model_b is None or isinstance(self.model_b, ModelSpec),
            "model_b must be a ModelSpec or None",
        )
        _require(
            self.train_b is None or isinstance(self.train_b, TrainSpec),
            "train_b must be a TrainSpec or None",
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ABSpec":
        _require(
            isinstance(data, dict),
            f"ABSpec expects a mapping, got {type(data).__name__}",
        )
        data = dict(data)
        if isinstance(data.get("model_b"), dict):
            data["model_b"] = ModelSpec.from_dict(data["model_b"])
        if isinstance(data.get("train_b"), dict):
            data["train_b"] = TrainSpec.from_dict(data["train_b"])
        return super().from_dict(data)  # type: ignore[return-value]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec(_SpecBase):
    """One declarative end-to-end run.

    Sections are optional: a pricing-only run needs ``cluster`` +
    ``perf``; a quality run needs ``data`` + ``model`` + ``train``
    (plus ``partition`` for DMT variants).  :class:`repro.api.Session`
    executes whichever stages the spec describes.

    Examples
    --------
    >>> spec = RunSpec(perf=PerfSpec(kind="dcn"))
    >>> RunSpec.from_dict(spec.to_dict()) == spec
    True
    """

    name: str = "run"
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    data: Optional[DataSpec] = None
    model: Optional[ModelSpec] = None
    partition: Optional[PartitionSpec] = None
    train: Optional[TrainSpec] = None
    perf: Optional[PerfSpec] = None
    serve: Optional[ServeSpec] = None
    checkpoint: Optional[CheckpointSpec] = None
    tiers: Optional[TierSpec] = None
    faults: Optional[FaultSpec] = None
    autoscale: Optional[AutoscaleSpec] = None
    online: Optional[OnlineSpec] = None
    ab: Optional[ABSpec] = None

    _SECTIONS = {
        "cluster": ClusterSpec,
        "data": DataSpec,
        "model": ModelSpec,
        "partition": PartitionSpec,
        "train": TrainSpec,
        "perf": PerfSpec,
        "serve": ServeSpec,
        "checkpoint": CheckpointSpec,
        "tiers": TierSpec,
        "faults": FaultSpec,
        "autoscale": AutoscaleSpec,
        "online": OnlineSpec,
        "ab": ABSpec,
    }

    def _validate(self) -> None:
        _require(bool(self.name), "name must be non-empty")
        # The name doubles as a --save file stem; keep it a single
        # path component.
        _require(
            isinstance(self.name, str)
            and "/" not in self.name
            and "\\" not in self.name
            and self.name not in (".", ".."),
            f"name must be a plain file stem (no path separators), "
            f"got {self.name!r}",
        )
        _require(
            any(
                getattr(self, s) is not None
                for s in ("data", "partition", "train", "perf", "serve")
            ),
            "spec describes no work: set at least one of data, partition, "
            "train, perf, or serve",
        )
        if self.serve is not None:
            if self.serve.serves_disaggregated:
                emb_hosts = self.serve.resolved_emb_hosts(
                    self.cluster.num_hosts
                )
                _require(
                    emb_hosts < self.cluster.num_hosts,
                    f"disaggregated serving needs at least one dense host: "
                    f"emb_hosts={emb_hosts} on a {self.cluster.num_hosts}-"
                    f"host cluster",
                )
            if self.model is not None:
                # Serving a spec model builds it, which needs the same
                # prerequisites training does — fail at construction,
                # not mid-run.
                _require(
                    self.data is not None,
                    "serving the spec's model requires a data section",
                )
                _require(
                    self.model.variant != "dmt" or self.partition is not None,
                    "serving a DMT variant requires a partition section",
                )
        if self.tiers is not None:
            _require(
                self.serve is not None,
                "a tiers section configures serving storage and needs "
                "a serve section to act on",
            )
        if self.faults is not None:
            _require(
                self.serve is not None and self.serve.uses_fleet,
                "a faults section injects failures into fleet serving; "
                "it needs a serve section with fleet_replicas set",
            )
        if self.autoscale is not None:
            _require(
                self.serve is not None and self.serve.uses_fleet,
                "an autoscale section scales the serving fleet; it "
                "needs a serve section with fleet_replicas set",
            )
        if self.online is not None:
            _require(
                self.train is not None,
                "an online section streams windows through the trainer; "
                "it needs a train section",
            )
            _require(
                self.serve is not None and self.serve.uses_fleet,
                "an online section hot-swaps fleet replicas; it needs "
                "a serve section with fleet_replicas set",
            )
        if self.ab is not None:
            _require(
                self.train is not None,
                "an ab section replays two training arms; it needs data, "
                "model, and train sections",
            )
            if self.ab.model_b is not None:
                assert self.model is not None  # train requires a model
                _require(
                    self.ab.model_b.tasks == self.model.tasks,
                    f"paired per-task deltas need aligned task lists: "
                    f"arm A has tasks={self.model.tasks}, arm B has "
                    f"tasks={self.ab.model_b.tasks}",
                )
                _require(
                    self.ab.model_b.variant != "dmt"
                    or self.partition is not None,
                    "ab arm B is a DMT variant and requires a partition "
                    "section",
                )
        if self.data is not None and self.data.has_cvr_knobs:
            _require(
                self.model is not None and "cvr" in self.model.tasks,
                "cvr_* data knobs shape the conversion label column, "
                "which is only generated for a model whose tasks "
                "include 'cvr'; leave them at their defaults or add "
                "'cvr' to model.tasks",
            )
        if self.checkpoint is not None:
            _require(
                self.train is not None or self.serve is not None,
                "a checkpoint section needs a train or serve section "
                "to act on",
            )
            if self.checkpoint.save_every_steps > 0:
                _require(
                    self.train is not None,
                    "checkpoint.save_every_steps requires a train section",
                )
        if self.train is not None:
            _require(
                self.data is not None and self.model is not None,
                "train requires data and model sections",
            )
            if self.model.variant == "dmt":
                _require(
                    self.partition is not None,
                    "training a DMT variant requires a partition section",
                )
            arms = [(self.model, self.train)]
            if self.ab is not None:
                ab = self.ab
                arms.append((ab.model_b or self.model, ab.train_b or self.train))
            for model, train in arms:
                if train.mode == "simulated" and model.variant == "dmt":
                    self.cluster.require_towers_divide_hosts(
                        self.partition.num_towers, "partition.num_towers"
                    )
        if self.perf is not None and self.perf.num_towers is not None:
            self.cluster.require_towers_divide_hosts(
                self.perf.num_towers, "perf.num_towers"
            )
        if self.partition is not None and self.data is not None:
            _require(
                self.partition.num_towers <= self.data.num_sparse,
                f"cannot split {self.data.num_sparse} features into "
                f"{self.partition.num_towers} towers",
            )
            if self.partition.groups is not None:
                covered = {f for g in self.partition.groups for f in g}
                _require(
                    covered == set(range(self.data.num_sparse)),
                    f"given groups must cover features "
                    f"0..{self.data.num_sparse - 1} exactly; got "
                    f"{sorted(covered)}",
                )
        if self.partition is not None:
            if self.partition.needs_probe:
                _require(
                    self.data is not None and self.model is not None,
                    f"partition strategy {self.partition.strategy!r} trains "
                    f"a probe model and requires data and model sections",
                )
            elif self.partition.strategy in ("naive", "contiguous"):
                _require(
                    self.data is not None,
                    f"partition strategy {self.partition.strategy!r} derives "
                    f"the feature count from the data section; add one",
                )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        _require(
            isinstance(data, dict),
            f"RunSpec expects a mapping, got {type(data).__name__}",
        )
        unknown = set(data) - set(cls._SECTIONS) - {"name"}
        _require(
            not unknown,
            f"unknown RunSpec field(s): {', '.join(sorted(unknown))}",
        )
        kwargs: Dict[str, Any] = {}
        if "name" in data:
            kwargs["name"] = data["name"]
        for section, spec_cls in cls._SECTIONS.items():
            if section in data and data[section] is not None:
                kwargs[section] = spec_cls.from_dict(data[section])
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name}
        for section in self._SECTIONS:
            value = getattr(self, section)
            if value is not None:
                out[section] = value.to_dict()
        return out

    # ------------------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str) -> "RunSpec":
        with open(path) as fh:
            return cls.from_json(fh.read())
