"""Collective communication: analytic cost models and functional simulation.

Two planes, deliberately separated (priced vs moved, docs/invariants.md):

- :mod:`repro.comm.cost_model` prices collectives in seconds using an
  alpha-beta model with congestion-efficiency curves calibrated to the
  paper's measured NCCL bandwidths (Figure 5).
- :mod:`repro.comm.functional` actually moves numpy buffers between
  simulated ranks, so dataflow claims (e.g. SPTT semantic preservation,
  Table 3) are testable as exact array equality.

:mod:`repro.comm.process_group` defines the rank groups both planes
share (global, tower and peer groups).
"""

from repro.comm.calibration import (
    FIGURE5_ALLREDUCE_BUS_GBS,
    FIGURE5_ALLTOALL_BUS_GBS,
    CongestionCurve,
    default_calibration,
)
from repro.comm.cost_model import CollectiveCostModel, CollectiveTiming
from repro.comm.process_group import (
    ProcessGroup,
    global_group,
    intra_host_groups,
    peer_groups,
    tower_groups,
)
from repro.comm import functional

__all__ = [
    "CollectiveCostModel",
    "CollectiveTiming",
    "CongestionCurve",
    "default_calibration",
    "FIGURE5_ALLREDUCE_BUS_GBS",
    "FIGURE5_ALLTOALL_BUS_GBS",
    "ProcessGroup",
    "global_group",
    "intra_host_groups",
    "peer_groups",
    "tower_groups",
    "functional",
]
