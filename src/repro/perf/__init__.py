"""Performance modeling: iteration latency, parallelism search, quantization.

This package turns the calibrated collective cost model plus measured
model profiles into the paper's evaluation figures:

- :mod:`repro.perf.profiles` — flops/bytes profiles measured from the
  real model implementations (plus the XLRM configuration).
- :mod:`repro.perf.paradigms` — the per-paradigm calibration constants
  (dense utilization, overlap fractions); every tuned number lives here
  with provenance notes.
- :mod:`repro.perf.iteration_model` — per-iteration latency breakdowns
  for hybrid-parallel baselines and DMT (Figures 1, 10, 11, 12, 13);
  one DMT price, whose only §3.1.3 specialization is K-host towers.
- :mod:`repro.perf.alpa_search` — Alpa-style (data, tensor, pipeline)
  enumeration over the dense part (Figure 6).
- :mod:`repro.perf.quantization` — FP16/FP8 communication quantization
  analysis (§6 discussion).
"""

from repro.perf.profiles import (
    ModelProfile,
    baseline_profile,
    dmt_profile_for_towers,
    dmt_dcn_profile,
    dmt_dlrm_profile,
    dmt_xlrm_profile,
    paper_dcn_profile,
    paper_dlrm_profile,
    sptt_only_profile,
    xlrm_profile,
)
from repro.perf.paradigms import PerfCalibration, default_perf_calibration
from repro.perf.iteration_model import IterationBreakdown, IterationLatencyModel
from repro.perf.alpa_search import ParallelismConfig, enumerate_dense_parallelism
from repro.perf.quantization import QuantizationAnalysis, quantization_discussion

__all__ = [
    "ModelProfile",
    "baseline_profile",
    "dmt_profile_for_towers",
    "paper_dlrm_profile",
    "paper_dcn_profile",
    "dmt_dlrm_profile",
    "dmt_dcn_profile",
    "sptt_only_profile",
    "xlrm_profile",
    "dmt_xlrm_profile",
    "PerfCalibration",
    "default_perf_calibration",
    "IterationBreakdown",
    "IterationLatencyModel",
    "ParallelismConfig",
    "enumerate_dense_parallelism",
    "QuantizationAnalysis",
    "quantization_discussion",
]
