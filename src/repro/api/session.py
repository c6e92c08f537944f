"""The :class:`Session` facade: lazy, staged execution of a RunSpec.

``Session(RunSpec(...)).run()`` reproduces the paper's full §3.3
workflow — generate click logs, train a probe, learn the tower
partition, build the DMT model, shard the tables, train, and price the
iteration — in one call.  Each stage is also callable on its own
(``build_cluster`` / ``load_data`` / ``build_model`` / ``partition`` /
``plan`` / ``train`` / ``price`` / ``serve``, plus ``save_checkpoint`` /
``resume`` / ``elastic_plan`` when a checkpoint section is present, and
``analyze`` — plan-time static validation that also auto-gates
``train``/``serve`` unless the session is built with
``analyze=False``);
stages compose the existing
subpackages, cache their artifacts on the session, and pull in their
prerequisites lazily, so a pricing-only spec never touches the data
generator and a quality-only spec never builds paper-scale profiles.

Dataset generation and the probe->TP pipeline are additionally cached
*across* sessions (keyed by their spec sections), so seed sweeps that
only vary model/train seeds — the §5.2 protocol — pay for data and
partitioning once.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api.results import (
    ABArtifact,
    CheckpointArtifact,
    DataArtifact,
    OnlineArtifact,
    PartitionArtifact,
    PlanArtifact,
    PriceArtifact,
    RunResult,
    ServeArtifact,
    TierPlanArtifact,
    TrainArtifact,
)
from repro.api.spec import (
    ABSpec,
    CheckpointSpec,
    DataSpec,
    ModelSpec,
    OnlineSpec,
    PartitionSpec,
    RunSpec,
    ServeSpec,
    SpecError,
)
from repro.checkpoint import (
    CheckpointManager,
    CheckpointMismatchError,
    load_training_checkpoint,
    plan_elastic_restore,
    read_manifest,
    save_training_checkpoint,
)
from repro.core.dmt_pipeline import DistributedDMTTrainer, DistributedHybridTrainer
from repro.core.partition import FeaturePartition
from repro.data import SyntheticCriteoDataset, train_eval_split
from repro.hardware import Cluster
from repro.models import (
    DCN,
    DLRM,
    DMTDCN,
    DMTDLRM,
    MultiTaskModel,
    tiny_table_configs,
)
from repro.models.configs import DenseArch
from repro.nn import TableConfig
from repro.partitioner import TowerPartitioner, interaction_from_activations
from repro.perf.iteration_model import IterationLatencyModel
from repro.perf.profiles import baseline_profile, dmt_profile_for_towers
from repro.planner import AutoPlanner, TierPlanner
from repro.serving import (
    InferenceService,
    LRUEmbeddingCache,
    Placement,
    RequestStream,
    ResilientFleet,
    SLOAutoscaler,
    ServingFleet,
    ServingModel,
    TieredPlacementEngine,
)
from repro.online import OnlineDriver, RolloutPlanner
from repro.sim import SimCluster
from repro.training import (
    MultiTaskEvalResult,
    TrainConfig,
    Trainer,
    run_seed_sweep,
)

__all__ = ["Session", "seeded_run", "spec_auc_sweep"]

#: Probe-arch key: the dense sizing the probe model shares with the spec.
_ArchKey = Tuple[int, Tuple[int, ...], Tuple[int, ...]]

#: The level of the ab stage's paired confidence intervals.
AB_CONFIDENCE = 0.95


@functools.lru_cache(maxsize=16)
def _dataset_for(data: DataSpec) -> SyntheticCriteoDataset:
    return SyntheticCriteoDataset(
        data.generator_config(), seed=data.dataset_seed
    )


def _draw(data: DataSpec, tasks: Tuple[str, ...], n: int, seed: int):
    """``n`` samples of ``tasks``: labels 1-D for one task, else (n, T)."""
    dense, ids, labels = _dataset_for(data).sample_tasks(n, tasks, seed)
    return dense, ids, labels[:, 0] if len(tasks) == 1 else labels


@functools.lru_cache(maxsize=16)
def _split_for(data: DataSpec, tasks: Tuple[str, ...]):
    return train_eval_split(
        *_draw(data, tasks, data.num_samples, data.sample_seed),
        eval_fraction=data.eval_fraction,
    )


@functools.lru_cache(maxsize=16)
def _probed_partition(
    data: DataSpec, part: PartitionSpec, arch_key: _ArchKey
):
    """Train a flat probe, measure interactions, run the TP pipeline.

    Returns ``(TPResult, probe EvalResult)``.  Cached across sessions:
    a seed sweep re-partitions once.
    """
    embedding_dim, bottom_mlp, top_mlp = arch_key
    (td, ti, tl), (ed, ei, el) = _split_for(data, ("ctr",))
    tables = tiny_table_configs(data.num_sparse, data.cardinality, embedding_dim)
    arch = DenseArch(
        embedding_dim=embedding_dim, bottom_mlp=bottom_mlp, top_mlp=top_mlp
    )
    probe = DLRM(
        data.num_dense, tables, arch, rng=np.random.default_rng(part.probe_seed)
    )
    trainer = Trainer(
        probe,
        TrainConfig(
            batch_size=part.probe_batch_size,
            epochs=part.probe_epochs,
            seed=part.probe_seed,
            sparse_lr=part.probe_sparse_lr,
        ),
    )
    trainer.fit(td, ti, tl)
    probe_eval = trainer.evaluate(ed, ei, el)
    interaction = interaction_from_activations(
        probe.embeddings(ti[: part.probe_samples]), center=True
    )
    tp = TowerPartitioner(
        part.num_towers,
        strategy=part.tp_distance,
        mds_iterations=part.mds_iterations,
    )
    result = tp.partition_from_interaction(
        interaction, rng=np.random.default_rng(part.kmeans_seed)
    )
    return result, probe_eval


# ----------------------------------------------------------------------
class Session:
    """Staged, cached execution of one :class:`RunSpec`.

    Examples
    --------
    >>> from repro.api import ClusterSpec, PerfSpec, RunSpec, Session
    >>> spec = RunSpec(cluster=ClusterSpec(8, 8, "H100"),
    ...                perf=PerfSpec(kind="dcn", num_towers=8))
    >>> art = Session(spec).price()
    >>> art.speedup > 1.0
    True
    """

    def __init__(
        self, spec: "RunSpec | Dict[str, Any]", analyze: bool = True
    ):
        if isinstance(spec, dict):
            spec = RunSpec.from_dict(spec)
        if not isinstance(spec, RunSpec):
            raise SpecError(
                f"Session expects a RunSpec or dict, got {type(spec).__name__}"
            )
        self.spec = spec
        #: Auto-run plan-time static validation before train/serve;
        #: ``Session(spec, analyze=False)`` opts out (e.g. to study a
        #: deliberately pathological configuration).
        self.auto_analyze = analyze
        self._artifacts: Dict[str, Any] = {}

    def _stage(self, name: str, builder) -> Any:
        if name not in self._artifacts:
            self._artifacts[name] = builder()
        return self._artifacts[name]

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------
    def analyze(self):
        """Plan-time static validation: every finding, no execution.

        Returns the full ``List[Diagnostic]`` (errors *and* warnings)
        from :func:`repro.analysis.analyze_spec`.  Cached like any
        other stage.  Stages that would execute a misconfigured spec
        (:meth:`train`, :meth:`serve`) call this automatically and
        raise :class:`~repro.analysis.SpecAnalysisError` on ``error``
        findings unless the session was built with ``analyze=False``.
        """
        # Imported lazily: repro.analysis.speccheck imports
        # repro.api.spec, so a module-level import here would cycle
        # through repro.api.__init__ during speccheck's own import.
        from repro.analysis.speccheck import analyze_spec

        return self._stage("analyze", lambda: analyze_spec(self.spec))

    def _ensure_analyzed(self) -> None:
        """Gate executing stages on a clean static analysis."""
        if not self.auto_analyze:
            return
        from repro.analysis.speccheck import SpecAnalysisError

        diagnostics = self.analyze()
        if any(d.severity == "error" for d in diagnostics):
            raise SpecAnalysisError(diagnostics)

    def _need(self, section: str) -> Any:
        value = getattr(self.spec, section)
        if value is None:
            raise SpecError(
                f"spec {self.spec.name!r} has no {section} section, "
                f"required by this stage"
            )
        return value

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def build_cluster(self) -> Cluster:
        """The modeled datacenter topology."""
        return self._stage(
            "cluster",
            lambda: Cluster(
                self.spec.cluster.num_hosts,
                self.spec.cluster.gpus_per_host,
                self.spec.cluster.generation,
            ),
        )

    def load_data(self) -> DataArtifact:
        """Generate click logs and split them (cached across sessions)."""

        def build() -> DataArtifact:
            data = self._need("data")
            model = self.spec.model
            train, evals = _split_for(
                data, model.tasks if model is not None else ("ctr",)
            )
            return DataArtifact(
                dataset=_dataset_for(data), train=train, eval=evals
            )

        return self._stage("data", build)

    def partition(self) -> PartitionArtifact:
        """Assign features to towers per the partition strategy."""

        def build() -> PartitionArtifact:
            part: PartitionSpec = self._need("partition")
            if part.strategy == "given":
                assert part.groups is not None  # enforced by the spec
                return PartitionArtifact(
                    strategy=part.strategy,
                    partition=FeaturePartition.from_groups(part.groups),
                )
            if part.strategy in ("naive", "contiguous"):
                data = self._need("data")
                maker = (
                    FeaturePartition.strided
                    if part.strategy == "naive"
                    else FeaturePartition.contiguous
                )
                return PartitionArtifact(
                    strategy=part.strategy,
                    partition=maker(data.num_sparse, part.num_towers),
                )
            # probe / coherent / diverse: the learned §3.3 pipeline.
            model: ModelSpec = self._need("model")
            arch_key = (model.embedding_dim, model.bottom_mlp, model.top_mlp)
            # Normalize alias strategies ('probe' == 'coherent') so
            # they share one cache entry.
            cache_part = part.replace(strategy=part.tp_distance)
            tp_result, probe_eval = _probed_partition(
                self._need("data"), cache_part, arch_key
            )
            return PartitionArtifact(
                strategy=part.strategy,
                partition=tp_result.partition,
                tp_result=tp_result,
                probe_eval=probe_eval,
            )

        return self._stage("partition", build)

    def _make_model(self, cardinality: Optional[int] = None):
        """A fresh model instance per the model spec (not cached).

        ``cardinality`` overrides the table row count (the online stage
        builds tables larger than the live vocabulary so hot-set churn
        has fresh rows to rotate into).
        """
        data: DataSpec = self._need("data")
        model: ModelSpec = self._need("model")
        tables = tiny_table_configs(
            data.num_sparse,
            cardinality if cardinality is not None else data.cardinality,
            model.embedding_dim,
        )
        arch = model.build(DenseArch)
        rng = np.random.default_rng(model.seed)
        if model.variant == "flat":
            cls = DLRM if model.family == "dlrm" else DCN
            base = cls(data.num_dense, tables, arch, rng=rng)
        else:
            # Forwards the tower knobs the family takes (tower_dim,
            # pass_through; c and p for DLRM — whose top_mlp override
            # receives the arch's own sizes, a no-op).
            base = model.build(
                DMTDLRM if model.family == "dlrm" else DMTDCN,
                data.num_dense,
                tables,
                self.partition().partition,
                arch,
                rng=rng,
            )
        if len(model.tasks) == 1:
            return base  # one task is the base model itself
        # The head draws from the same stream *after* the base model,
        # so the shared plane's initialization is unchanged by adding
        # tasks (same model.seed => same base weights either way).
        return model.build(MultiTaskModel, base, rng=rng)

    def build_model(self):
        """The spec's model (DMT variants consume the partition stage)."""
        return self._stage("model", self._make_model)

    def plan(self) -> PlanArtifact:
        """Place the embedding tables on the cluster's ranks: the owner
        map the flat exchange executes (:class:`~repro.planner.AutoPlanner`).

        Quality specs (with a data section) place the tiny tables they
        train; pricing-only specs place the paper-scale Criteo tables
        (§5.1's setting).
        """

        def build() -> PlanArtifact:
            # Imported lazily, as in analyze().
            from repro.analysis.speccheck import spec_tables

            cluster = self.build_cluster()
            if self.spec.data is not None:
                train = self.spec.train
                scale = "tiny"
                batch = 256 if train is None else train.batch_size
            else:
                perf = self.spec.perf
                scale = "paper"
                batch = 16384 if perf is None else perf.local_batch
            plan = AutoPlanner(cluster.world_size).plan(spec_tables(self.spec))
            return PlanArtifact(plan=plan, scale=scale, batch_size=batch)

        return self._stage("plan", build)

    def build_trainer(self, model, config: TrainConfig) -> Trainer:
        """The :class:`Trainer` of every spec-driven training run, whose
        step executor ``train.mode`` and ``model.variant`` pick: none
        (the model itself) for ``'single'``; on a simulated cluster,
        ``DistributedDMTTrainer`` for ``'dmt'`` and
        ``DistributedHybridTrainer`` for ``'flat'``."""
        step = None
        if self._need("train").mode == "simulated":
            dmt = self._need("model").variant == "dmt"
            executor = DistributedDMTTrainer if dmt else DistributedHybridTrainer
            step = executor(SimCluster(self.build_cluster()), model)
        return Trainer(model, config, step)

    def train(self) -> TrainArtifact:
        """Run the training stage: :meth:`Trainer.fit` over the train
        split and an eval on the eval split, in either ``train.mode``
        (which picks only the step executor, see
        :class:`~repro.api.spec.TrainSpec`), sharing checkpoint resume,
        autosave and the elastic plan."""
        return self._stage("train", self._train)

    def _train(self) -> TrainArtifact:
        train = self._need("train")
        self._ensure_analyzed()
        model = self.build_model()
        trainer = self.build_trainer(model, train.trainer_config())
        step = trainer.step
        ck = self.spec.checkpoint
        on_step_end = None
        if ck is not None:
            record = self._checkpoint_record()
            if ck.resume_from is not None:
                metadata = read_manifest(ck.resume_from)["metadata"]
                # The data section must match the saved run exactly:
                # the geometry and train-config checks inside the
                # loader cannot see a changed sample count or seed, and
                # a resumed shuffle over different data would be a
                # silent non-bit-identical "continuation".
                saved_data = (metadata.get("spec") or {}).get("data")
                data = self.spec.data.to_dict()
                if saved_data is not None and saved_data != data:
                    diff = sorted(
                        k
                        for k in set(saved_data) | set(data)
                        if saved_data.get(k) != data.get(k)
                    )
                    raise CheckpointMismatchError(
                        f"checkpoint {ck.resume_from!r} was saved under "
                        f"a different data section (fields {diff}); "
                        f"resuming on different data cannot be "
                        f"bit-identical"
                    )
                # A resume keeps the model; a different cluster section
                # than the saved one is an elastic restore, planned
                # before any state is touched.
                self._check_saved_towers(ck.resume_from, metadata)
                saved = metadata.get("cluster")
                if saved is not None and saved != self.spec.cluster.to_dict():
                    self.elastic_plan()
                load_training_checkpoint(ck.resume_from, model, trainer)
                record.resumed_from = ck.resume_from
                record.resumed_step = trainer.global_step
            if ck.save_every_steps > 0:
                manager = CheckpointManager(
                    os.path.join(ck.directory, self.spec.name),
                    every_steps=ck.save_every_steps,
                    keep_last=ck.keep_last,
                )
                # The resumed-from checkpoint stays live (a re-resume,
                # a serve warm-start, a delta chain's base may all
                # still reference it) — exempt it from retention.
                manager.pin(ck.resume_from)
                save_kwargs = self._checkpoint_save_kwargs()

                def on_step_end(tr, _m=manager, _kw=save_kwargs):
                    path = _m.maybe_save(model, tr, **_kw)
                    if path is not None:
                        self._checkpoint_record().saved_path = path

        art = self.load_data()
        epoch_losses = trainer.fit(*art.train, on_step_end=on_step_end)
        return TrainArtifact(
            mode=train.mode,
            model=model,
            trainer=trainer,
            eval_result=trainer.evaluate(*art.eval),
            epoch_losses=[float(x) for x in epoch_losses],
            timeline=None if step is None else step.sim.timeline.format_table(),
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_record(self) -> CheckpointArtifact:
        """The (lazily created) checkpoint artifact this run accretes."""
        return self._stage("checkpoint", CheckpointArtifact)

    def _checkpoint_save_kwargs(self) -> Dict[str, Any]:
        """The spec (saved cluster shape) and a DMT model's towers."""
        kwargs: Dict[str, Any] = {"spec": self.spec}
        if self.spec.model.variant == "dmt":
            kwargs["partition"] = self.partition().partition
        return kwargs

    def _check_saved_towers(self, path: str, metadata: Dict[str, Any]) -> None:
        """A resume keeps the model, so it keeps the saved tower count."""
        groups = metadata.get("partition_groups")
        part = self.spec.partition
        if groups and part is not None and len(groups) != part.num_towers:
            raise CheckpointMismatchError(
                f"checkpoint {path!r} holds a {len(groups)}-tower model, "
                f"this spec asks for partition.num_towers={part.num_towers}"
                f" (a resume keeps the towers; only K = H/T may change)"
            )

    def save_checkpoint(self, path: Optional[str] = None) -> str:
        """Snapshot the trained model + trainer state to ``path``.

        Runs the training stage first if it has not run yet.  The
        default path is ``<checkpoint.directory>/<run name>/final``
        (requiring a checkpoint section only when no explicit path is
        given).  Both training modes checkpoint the same way.
        """
        self._need("train")
        if path is None:
            ck: CheckpointSpec = self._need("checkpoint")
            path = os.path.join(ck.directory, self.spec.name, "final")
        art = self.train()
        save_training_checkpoint(
            path, art.model, art.trainer, **self._checkpoint_save_kwargs()
        )
        self._checkpoint_record().saved_path = path
        return path

    def resume(self) -> TrainArtifact:
        """Resume training from ``checkpoint.resume_from``.

        With an unchanged spec the continued run is bit-identical to
        one that never stopped; with a different cluster section the
        same model resumes there (towers of ``K = H/T`` hosts) and the
        elastic restore's migration is priced first (see
        :meth:`elastic_plan`).  A different tower count is a
        :class:`~repro.checkpoint.CheckpointMismatchError`.
        """
        ck: CheckpointSpec = self._need("checkpoint")
        if ck.resume_from is None:
            raise SpecError(
                f"spec {self.spec.name!r} has no checkpoint.resume_from "
                f"to resume"
            )
        return self.train()

    def elastic_plan(self):
        """Price moving the resume checkpoint's model onto this spec's
        cluster (an :class:`repro.checkpoint.ElasticRestorePlan`)."""
        record = self._checkpoint_record()
        if record.elastic is None:
            ck: CheckpointSpec = self._need("checkpoint")
            if ck.resume_from is None:
                raise SpecError("elastic_plan requires checkpoint.resume_from")
            metadata = read_manifest(ck.resume_from)["metadata"]
            self._check_saved_towers(ck.resume_from, metadata)
            record.elastic = plan_elastic_restore(
                ck.resume_from, self.build_cluster()
            )
        return record.elastic

    def price(self) -> PriceArtifact:
        """Model the per-iteration latency at paper scale."""

        def build() -> PriceArtifact:
            perf = self._need("perf")
            cluster = self.build_cluster()
            towers = (
                perf.num_towers
                if perf.num_towers is not None
                else cluster.num_hosts
            )
            model = IterationLatencyModel()
            baseline = model.hybrid(
                baseline_profile(perf.kind), cluster, perf.local_batch
            )
            dmt = model.dmt(
                dmt_profile_for_towers(perf.kind, towers),
                cluster,
                perf.local_batch,
            )
            return PriceArtifact(baseline=baseline, dmt=dmt)

        return self._stage("price", build)

    @staticmethod
    def _request_trace(serve: ServeSpec, model: ServingModel):
        """The seeded request trace ``serve`` describes, sized for
        ``model``'s lookups per request."""
        return RequestStream(
            serve.workload_config(model.num_lookups)
        ).generate()

    def _serving_arm(
        self,
        serve: ServeSpec,
        model: ServingModel,
        strategy: str,
        storage: Any = None,
        control: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """One placement arm on a fresh simulated cluster: batcher ->
        placement -> cache (a tier chain over ``storage``, priced by
        the tiered engine, when given) -> single service or fleet.

        ``control`` holds the :class:`ResilientFleet` keywords (faults,
        retry, recovery, autoscaler, swaps); ``None`` serves on the
        plain fleet.
        """
        cluster = self.build_cluster()
        sim = SimCluster(cluster)
        batcher = serve.batcher()
        placement = Placement(
            strategy, emb_hosts=serve.resolved_emb_hosts(cluster.num_hosts)
        )
        if storage is not None:
            engine = TieredPlacementEngine(sim, model, placement, storage)
            make_cache = functools.partial(
                storage.make_chain, LRUEmbeddingCache
            )
        else:
            engine = None
            make_cache = functools.partial(
                LRUEmbeddingCache, serve.cache_rows
            )
        if not serve.uses_fleet:
            return InferenceService(
                sim, model, placement, batcher, make_cache(), engine
            )
        fleet_cls = ServingFleet if control is None else ResilientFleet
        return fleet_cls(
            sim,
            model,
            placement,
            batcher,
            router=serve.router,
            num_replicas=serve.fleet_replicas,
            cache_factory=make_cache,
            router_seed=serve.seed,
            engine=engine,
            **(control or {}),
        )

    def serve(self) -> ServeArtifact:
        """Serve a priced synthetic request stream (one trace, one or
        two placement arms).

        A spec with a model section serves that model's geometry —
        trained first when a train section is present, freshly built
        otherwise (with its tower partition, if any).  Only a spec
        with no model at all serves the paper-scale profile named by
        ``serve.kind``.
        """

        def build() -> ServeArtifact:
            serve: ServeSpec = self._need("serve")
            self._ensure_analyzed()
            if self.spec.model is not None:
                model_obj = (
                    self.train().model
                    if self.spec.train is not None
                    else self.build_model()
                )
                partition = (
                    self.partition().partition
                    if self.spec.partition is not None
                    else None
                )
                model = ServingModel.from_trained(model_obj, partition)
            else:
                model = ServingModel.from_profile(
                    baseline_profile(serve.kind)
                )
            requests = self._request_trace(serve, model)
            placements = (
                ("colocated", "disaggregated")
                if serve.placement == "both"
                else (serve.placement,)
            )
            ck = self.spec.checkpoint
            warm_from = ck.resume_from if ck is not None else None
            storage = (
                self.spec.tiers.storage(
                    self.spec.cluster.generation, serve.cache_rows
                )
                if self.spec.tiers is not None
                else None
            )
            # Faults/autoscaling are a fleet story (the spec layer
            # enforces serve.uses_fleet): either section selects the
            # fault-injecting fleet and fills in its keywords.
            fs = self.spec.faults
            asp = self.spec.autoscale
            control: Optional[Dict[str, Any]] = (
                {} if fs is not None or asp is not None else None
            )
            if fs is not None:
                control.update(
                    faults=fs.fault_config(),
                    retry=fs.retry_policy(),
                )
                if fs.replica_crashes > 0:
                    # A resumable checkpoint on this cluster prices the
                    # restore leg with the actual elastic re-placement
                    # migration instead of a constant.
                    resumable = ck is not None and ck.resume_from is not None
                    control["recovery"] = fs.recovery_model(
                        self.elastic_plan() if resumable else None
                    )

            reports, timelines = {}, {}
            fleet_reports, fault_reports = {}, {}
            for strategy in placements:
                if asp is not None:
                    # Fresh controller per placement arm — cooldown
                    # state must not leak across arms.
                    control["autoscaler"] = SLOAutoscaler(asp.policy())
                server = self._serving_arm(
                    serve, model, strategy, storage, control
                )
                if warm_from is not None:
                    seeded = server.warm_start_from_checkpoint(warm_from)
                    self._checkpoint_record().warm_start_rows[
                        strategy
                    ] = seeded
                outcome = server.serve(requests)
                if control is not None:
                    fault_reports[strategy] = outcome
                    fleet_reports[strategy] = outcome.fleet
                    reports[strategy] = outcome.fleet.fleet
                elif serve.uses_fleet:
                    fleet_reports[strategy] = outcome
                    reports[strategy] = outcome.fleet
                else:
                    reports[strategy] = outcome
                timelines[strategy] = server.sim.timeline
            return ServeArtifact(
                model=model,
                reports=reports,
                timelines=timelines,
                fleet_reports=fleet_reports,
                fault_reports=fault_reports,
            )

        return self._stage("serve", build)

    def tier_plan(self) -> TierPlanArtifact:
        """Hotness-driven row placement over the spec's tier hierarchy.

        Plans where the served key space's rows live — HBM cache, DRAM
        / SSD chain levels, remote backing — over the storage the tiers
        section builds (:meth:`TierSpec.storage`, the one the serve
        stage replays), using the analytic Zipf hotness model at
        ``serve.skew`` (the same skew the request sampler draws with).
        """

        def build() -> TierPlanArtifact:
            tiers = self._need("tiers")
            serve: ServeSpec = self._need("serve")
            dim = (
                self.spec.model.embedding_dim
                if self.spec.model is not None
                else 128
            )
            table = TableConfig(
                name="served_rows",
                num_embeddings=serve.key_space,
                dim=dim,
                pooling=1,
            )
            storage = tiers.storage(
                self.spec.cluster.generation, serve.cache_rows
            )
            plan = TierPlanner(storage).plan([table], serve.skew)
            return TierPlanArtifact(plan=plan)

        return self._stage("tier_plan", build)

    def online(self) -> OnlineArtifact:
        """Run the train→serve freshness loop (online section).

        Streams ``online.windows`` windows of the data section's click
        logs, labeled with the model's tasks, through a fresh trainer
        under **hot-set churn**: the live vocabulary
        (``data.cardinality`` ids per feature) is embedded into tables
        ``online.table_multiplier``\\ x larger, and every
        window boundary ``online.churn_fraction`` of the live slots
        remap to fresh (untrained) rows.  The
        :class:`~repro.online.OnlineDriver` emits a delta checkpoint
        per window and canary-gates each deploy; the resulting rollout
        schedule is replayed as staged hot swaps on a
        :class:`~repro.serving.ResilientFleet` against a frozen arm on
        the *same* request trace — equal provisioned cost, so any AUC
        gap is pure freshness.
        """

        def build() -> OnlineArtifact:
            on: OnlineSpec = self._need("online")
            serve: ServeSpec = self._need("serve")
            train = self._need("train")
            ck: CheckpointSpec = self._need("checkpoint")
            data: DataSpec = self._need("data")
            self._ensure_analyzed()
            tasks = self._need("model").tasks

            hot = data.cardinality
            card = hot * on.table_multiplier
            model = self._make_model(cardinality=card)
            trainer = self.build_trainer(model, train.trainer_config())

            # The churned stream: per-feature hot-slot -> table-row
            # maps, re-pointed for a fraction of slots each boundary.
            rng = np.random.default_rng(on.seed)
            num_sparse = data.num_sparse
            maps = np.stack(
                [
                    rng.choice(card, size=hot, replace=False)
                    for _ in range(num_sparse)
                ]
            )
            cols = np.arange(num_sparse)
            windows = []
            for w in range(on.windows):
                if w > 0 and on.churn_fraction > 0:
                    churned = max(1, int(round(on.churn_fraction * hot)))
                    for f in range(num_sparse):
                        slots = rng.choice(hot, size=churned, replace=False)
                        maps[f, slots] = rng.choice(
                            card, size=churned, replace=False
                        )
                seed = data.sample_seed + 1000 * (w + 1)
                td, ti, tl = _draw(data, tasks, on.window_samples, seed)
                ed, ei, el = _draw(data, tasks, on.eval_samples, seed + 500)
                windows.append(
                    ((td, maps[cols, ti], tl), (ed, maps[cols, ei], el))
                )

            # Forwards compact_every and canary_threshold.
            driver = on.build(
                OnlineDriver,
                model,
                trainer,
                os.path.join(ck.directory, self.spec.name, "online"),
            )
            report = driver.run(windows)

            # Replay one request trace twice at equal provisioned cost:
            # with the planned hot swaps, and frozen.
            strategy = (
                "disaggregated"
                if serve.serves_disaggregated
                else serve.placement
            )
            partition = (
                self.partition().partition
                if self.spec.partition is not None
                else None
            )
            serving_model = ServingModel.from_trained(model, partition)
            requests = self._request_trace(serve, serving_model)
            span_s = max(
                requests[-1].arrival_s - requests[0].arrival_s, 1e-9
            )
            planner = RolloutPlanner(
                serve.fleet_replicas,
                on.windows,
                span_s,
            )
            swaps = planner.plan(report.rollouts)

            fault_reports = {}
            for arm, arm_swaps in (("online", swaps), ("frozen", ())):
                fleet = self._serving_arm(
                    serve, serving_model, strategy, control={"swaps": arm_swaps}
                )
                fault_reports[arm] = fleet.serve(requests)
            return OnlineArtifact(
                report=report,
                swap_events=list(swaps),
                fault_reports=fault_reports,
                placement=strategy,
            )

        return self._stage("online", build)

    def ab(self) -> ABArtifact:
        """Run the paired A/B comparison (ab section).

        For every seed ``s`` both arms train on the *identical*
        generated dataset and batch order (the session-layer data
        cache keys on the data section, which both arms share) under
        the §5.2 protocol (:func:`seeded_run`), so each seed yields
        one *paired* observation per task
        and metric.  The artifact reports the per-task mean deltas
        (B − A) with a Student-t confidence interval at level
        :data:`AB_CONFIDENCE`.
        """

        def build() -> ABArtifact:
            from scipy import stats as _scipy_stats

            ab: ABSpec = self._need("ab")
            self._need("data")
            model_a: ModelSpec = self._need("model")
            train_a = self._need("train")
            self._ensure_analyzed()
            # Both arms train this spec's data with every other plane
            # stripped; arm B swaps in its own model / train sections.
            arm_a = self.spec.replace(
                perf=None,
                serve=None,
                checkpoint=None,
                tiers=None,
                faults=None,
                autoscale=None,
                online=None,
                ab=None,
            )
            arms = (
                (ab.label_a, arm_a),
                (
                    ab.label_b,
                    arm_a.replace(
                        model=ab.model_b if ab.model_b is not None else model_a,
                        train=ab.train_b if ab.train_b is not None else train_a,
                    ),
                ),
            )
            tasks = model_a.tasks
            metric_names = ("auc", "log_loss", "normalized_entropy")
            values: Dict[str, Dict[str, Dict[str, List[float]]]] = {
                label: {t: {m: [] for m in metric_names} for t in tasks}
                for label, _ in arms
            }
            for s in ab.seeds:
                for label, arm in arms:
                    arm_spec = seeded_run(
                        arm.replace(name=f"{self.spec.name}-{label}-s{s}"), s
                    )
                    res = (
                        Session(arm_spec, analyze=self.auto_analyze)
                        .train()
                        .eval_result
                    )
                    by_task = (
                        res.by_task
                        if isinstance(res, MultiTaskEvalResult)
                        else {tasks[0]: res}
                    )
                    for t in tasks:
                        r = by_task[t]
                        values[label][t]["auc"].append(float(r.auc))
                        values[label][t]["log_loss"].append(
                            float(r.log_loss)
                        )
                        values[label][t]["normalized_entropy"].append(
                            float(r.normalized_entropy)
                        )
            n = len(ab.seeds)
            tcrit = float(
                _scipy_stats.t.ppf(0.5 + AB_CONFIDENCE / 2.0, n - 1)
            )
            metrics: Dict[str, Dict[str, Dict[str, Any]]] = {}
            for t in tasks:
                metrics[t] = {}
                for m in metric_names:
                    a_vals = values[ab.label_a][t][m]
                    b_vals = values[ab.label_b][t][m]
                    deltas = [b - a for a, b in zip(a_vals, b_vals)]
                    mean = float(np.mean(deltas))
                    sd = float(np.std(deltas, ddof=1))
                    half = tcrit * sd / math.sqrt(n)
                    ci_low, ci_high = mean - half, mean + half
                    metrics[t][m] = {
                        "a_values": a_vals,
                        "b_values": b_vals,
                        "deltas": deltas,
                        "mean_delta": mean,
                        "ci_low": float(ci_low),
                        "ci_high": float(ci_high),
                        # NaN endpoints (a skipped gated metric) compare
                        # False on both sides -> never "significant".
                        "excludes_zero": bool(
                            ci_low > 0.0 or ci_high < 0.0
                        ),
                    }
            # Forwards the arm labels and seeds.
            return ab.build(
                ABArtifact,
                tasks=tuple(tasks),
                metrics=metrics,
                confidence=AB_CONFIDENCE,
            )

        return self._stage("ab", build)

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute every stage the spec describes; collect a RunResult."""
        spec = self.spec
        result = RunResult(
            name=spec.name,
            spec=spec.to_dict(),
            cluster=RunResult.cluster_summary(self.build_cluster()),
        )
        if spec.data is not None:
            result.data = self.load_data().summary()
        if spec.partition is not None:
            result.partition = self.partition().summary()
        if spec.model is not None or spec.perf is not None:
            result.plan = self.plan().summary()
        if spec.train is not None:
            result.train = self.train().summary()
        if spec.perf is not None:
            result.price = self.price().summary()
        if spec.serve is not None:
            result.serve = self.serve().summary()
        if spec.tiers is not None:
            result.tier_plan = self.tier_plan().summary()
        if spec.online is not None:
            result.online = self.online().summary()
        if spec.ab is not None:
            result.ab = self.ab().summary()
        if "checkpoint" in self._artifacts:
            summary = self._artifacts["checkpoint"].summary()
            if summary:
                result.checkpoint = summary
        return result


# ----------------------------------------------------------------------
def seeded_run(spec: RunSpec, seed: int) -> RunSpec:
    """Repeat ``seed`` of the §5.2 protocol: ``train.seed = seed`` and
    model initialization ``model.seed = 100 + seed``.

    Every seeded quality run — :func:`spec_auc_sweep`, the paired arms
    of :meth:`Session.ab`, the NE sweep of the ``xlrm`` experiment —
    goes through this one rewrite.
    """
    return spec.replace(
        model=spec.model.replace(seed=100 + seed),
        train=spec.train.replace(seed=seed),
    )


def spec_auc_sweep(
    spec: RunSpec, seeds: Tuple[int, ...]
) -> Tuple[float, float, List[float]]:
    """(median, std, values) of eval AUC across seeds — §5.2's statistic.

    Seed ``s`` trains :func:`seeded_run` ``(spec, s)``; data and any
    probed partition are shared across the sweep via the session-layer
    caches.  The summary is :func:`repro.training.run_seed_sweep`'s, so
    one seed reports ``std = 0.0`` and no seeds raise ``ValueError``.
    """
    if spec.train is None or spec.model is None:
        raise SpecError(
            "spec_auc_sweep needs a spec with model and train sections"
        )
    sweep = run_seed_sweep(
        lambda s: Session(seeded_run(spec, s)).train().eval_result.auc, seeds
    )
    return sweep.median, sweep.std, sweep.values.tolist()
