"""repro — a from-scratch reproduction of "Disaggregated Multi-Tower:
Topology-aware Modeling Technique for Efficient Large Scale
Recommendation" (Luo et al., MLSys 2024).

Subpackages
-----------
- ``repro.hardware`` — GPU generations (Table 1) and cluster topology.
- ``repro.comm`` — collective cost models (Figure 5 calibrated) and
  functional (real data movement) collectives.
- ``repro.sim`` — simulated multi-GPU execution with priced timelines.
- ``repro.nn`` — numpy module/backprop substrate (PyTorch stand-in).
- ``repro.models`` — DLRM, DCN, DMT variants, tower modules, XLRM.
- ``repro.core`` — SPTT, the flat baseline exchange, distributed
  trainers (the paper's primary contribution).
- ``repro.partitioner`` — the learned Tower Partitioner (TP).
- ``repro.planner`` — the executed table placement, the §2.4
  NeuroShard balance line, and row tiering.
- ``repro.perf`` — iteration latency model, Alpa-style parallelism
  search, quantization analysis (evaluation engine).
- ``repro.data`` — synthetic Criteo-like datasets with planted feature
  block structure.
- ``repro.training`` — training loops, AUC/NE metrics, significance
  tests.
- ``repro.api`` — the declarative session layer: ``RunSpec`` +
  ``Session`` compose everything above into one entry point
  (config -> partition -> plan -> train -> price).
- ``repro.experiments`` — one driver per paper table/figure.

Quick taste::

    from repro import RunSpec, Session
    from repro.api import ClusterSpec, PerfSpec

    spec = RunSpec(cluster=ClusterSpec(8, 8, "H100"),
                   perf=PerfSpec(kind="dcn", num_towers=8))
    print(Session(spec).run().render())
"""

__version__ = "1.1.0"

from repro.hardware import Cluster, GPUGeneration
from repro.core.partition import FeaturePartition

#: Session-layer names re-exported lazily (PEP 562): the api package
#: pulls in the whole model/training stack, which `import repro`
#: consumers of just Cluster/FeaturePartition shouldn't pay for.
_API_EXPORTS = ("RunSpec", "Session")

__all__ = [
    "Cluster",
    "GPUGeneration",
    "FeaturePartition",
    "RunSpec",
    "Session",
    "__version__",
]


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_API_EXPORTS))
