"""One declarative entry point: config -> partition -> plan -> train -> price.

The session layer composes the existing subpackages behind a single
facade so consumers stop re-wiring the pipeline by hand:

- :mod:`repro.api.spec` — the :class:`RunSpec` dataclass tree
  (cluster / data / model / partition / train / perf sections) with
  validation and dict/JSON round-tripping;
- :mod:`repro.api.session` — the :class:`Session` facade whose staged
  methods lazily build and cache artifacts, plus the §5.2 seed
  protocol (:func:`seeded_run`, :func:`spec_auc_sweep`);
- :mod:`repro.api.results` — per-stage artifacts and the aggregate
  :class:`RunResult`;
- :mod:`repro.api.presets` — canonical RunSpecs for the example
  workflows.

Quick taste::

    from repro.api import Session
    from repro.api.presets import quickstart_spec

    result = Session(quickstart_spec()).run()
    print(result.render())
"""

from repro.api.spec import (
    ABSpec,
    AutoscaleSpec,
    CheckpointSpec,
    ClusterSpec,
    DataSpec,
    FaultSpec,
    ModelSpec,
    OnlineSpec,
    PartitionSpec,
    PerfSpec,
    RunSpec,
    ServeSpec,
    SpecError,
    TierSpec,
    TrainSpec,
)
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
from repro.api.session import Session, seeded_run, spec_auc_sweep

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
    "Session",
    "seeded_run",
    "spec_auc_sweep",
    "DataArtifact",
    "PartitionArtifact",
    "PlanArtifact",
    "TrainArtifact",
    "PriceArtifact",
    "ServeArtifact",
    "CheckpointArtifact",
    "TierPlanArtifact",
    "OnlineArtifact",
    "ABArtifact",
    "RunResult",
]
