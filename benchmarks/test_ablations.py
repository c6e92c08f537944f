"""Ablation benches for the reproduction's own design choices.

The reproduction rests on several load-bearing decisions; each ablation
switches one off and shows the paper-reproducing behaviour degrade:

1. congestion keyed by *cross-host flows per NIC* (vs hosts spanned) —
   the choice that lets SPTT's peer AlltoAll outrun the global one;
2. the tower-count overlap ramp — the choice that reproduces Figure
   10's sub-1.0 speedups at two hosts;
3. probe centering + interaction normalization in TP — the choices
   that make block recovery work on lightly-trained probes;
4. planted block structure in the dataset — without it, TP cannot and
   should not beat naive striding (mechanism check);
5. K-host towers (§3.1.3) — the specialization trade-off surface.
"""

import numpy as np
import pytest

from repro.api import RunSpec, Session, TrainSpec
from repro.api.presets import quality_data_spec, quality_dlrm_model
from repro.comm.calibration import ALLTOALL_NIC_EFFICIENCY
from repro.experiments.common import block_purity
from repro.hardware import Cluster
from repro.partitioner import TowerPartitioner, interaction_from_activations
from repro.perf import (
    IterationLatencyModel,
    PerfCalibration,
    paper_dlrm_profile,
)
from repro.perf.profiles import dmt_profile_for_towers

B = 16384


def test_ablation_congestion_keying(benchmark):
    """Flows-keyed efficiency gives the peer AlltoAll (T-1 flows) a
    real edge over the global collective (L*(T-1) flows) spanning the
    same hosts; keying by hosts would erase it."""

    def peer_vs_global_efficiency(hosts=8, gpus=8):
        curve = ALLTOALL_NIC_EFFICIENCY
        from repro.comm.calibration import CongestionCurve

        c = CongestionCurve.from_table(curve)
        eff_global = c(gpus * hosts - gpus)  # L*(H-1) flows
        eff_peer_flows_keyed = c(hosts - 1)  # T-1 flows
        eff_peer_hosts_keyed = eff_global  # same hosts -> same value
        return eff_global, eff_peer_flows_keyed, eff_peer_hosts_keyed

    eff_global, flows_keyed, hosts_keyed = benchmark(peer_vs_global_efficiency)
    assert flows_keyed > eff_global * 1.2  # the modeled SPTT edge
    assert hosts_keyed == pytest.approx(eff_global)  # ablated: no edge


def test_ablation_overlap_ramp(benchmark):
    """Without the tower-count ramp, DMT would (wrongly) win big at
    two hosts; with it, the small-scale dip of Figure 10 appears."""

    class NoRamp(PerfCalibration):
        def dmt_overlap_at(self, num_towers: int) -> float:
            return self.overlap_cap

    def speedups():
        cluster = Cluster(2, 8, "H100")
        profile = dmt_profile_for_towers("dlrm", 2)
        base = paper_dlrm_profile()
        with_ramp = IterationLatencyModel(PerfCalibration()).speedup(
            base, profile, cluster, B
        )
        without = IterationLatencyModel(NoRamp()).speedup(
            base, profile, cluster, B
        )
        return with_ramp, without

    with_ramp, without = benchmark(speedups)
    assert with_ramp < 1.1  # paper: 0.9 at 16 GPUs
    assert without > with_ramp + 0.1  # the ablated model overclaims


def test_ablation_tp_probe_processing(benchmark):
    """Centering + normalization are what make TP recover planted
    blocks from a lightly-trained probe (purity ~0.86 vs ~0.5)."""
    # The probe the session's partition stage trains, kept whole here
    # so its activations can be re-processed both ways.
    probe_spec = RunSpec(
        name="ablation-probe",
        data=quality_data_spec(),
        model=quality_dlrm_model(seed=7),
        train=TrainSpec(batch_size=256, epochs=2, seed=7, sparse_lr=0.05),
    )
    data = Session(probe_spec).load_data()
    ti = data.train[1]

    def purity_with_and_without():
        probe = Session(probe_spec).train().model
        acts = probe.embeddings(ti[:6000])
        purities = {}
        for name, center, normalize in (
            ("processed", True, True),
            ("raw", False, False),
        ):
            interaction = interaction_from_activations(acts, center=center)
            tp = TowerPartitioner(
                4,
                strategy="coherent",
                mds_iterations=800,
                normalize_interaction=normalize,
            )
            result = tp.partition_from_interaction(
                interaction, rng=np.random.default_rng(0)
            )
            purities[name] = block_purity(result.partition, data.dataset.block_of)
        return purities

    purities = benchmark(purity_with_and_without)
    assert purities["processed"] > 0.7
    assert purities["processed"] > purities["raw"] + 0.1


def test_ablation_planted_structure(benchmark):
    """Mechanism check: on a dataset with rho=0 (ids carry no block
    latent), TP has nothing to find — purity near chance."""
    from repro.data import SyntheticCriteoDataset

    def purity_on_structureless_data():
        config = quality_data_spec().replace(rho=0.0).generator_config()
        ds = SyntheticCriteoDataset(config, seed=0)
        _, ids, _ = ds.sample(4000, seed=1)
        values = np.stack(
            [ds.decoded_value(f, ids[:, f]) for f in range(ds.num_sparse)],
            axis=1,
        )[:, :, None]
        interaction = interaction_from_activations(values, center=True)
        tp = TowerPartitioner(4, strategy="coherent", mds_iterations=400)
        result = tp.partition_from_interaction(
            interaction, rng=np.random.default_rng(0)
        )
        return block_purity(result.partition, ds.block_of)

    purity = benchmark(purity_on_structureless_data)
    # Chance level for 4 balanced towers over 4 near-equal blocks ~0.26.
    assert purity < 0.45


def test_ablation_khost_towers(benchmark):
    """§3.1.3 K-host sweep: the trade-off surface exists and K=1 wins
    under the calibrated congestion curves at 512 GPUs."""
    from dataclasses import replace

    from repro.perf.profiles import dmt_dlrm_profile

    def sweep():
        model = IterationLatencyModel()
        cluster = Cluster(64, 8, "A100")
        return {
            k: model.dmt(
                replace(dmt_dlrm_profile(26), num_towers=64 // k), cluster, B
            ).total_s
            for k in (1, 2, 4)
        }

    totals = benchmark(sweep)
    assert set(totals) == {1, 2, 4}
    assert totals[1] < totals[2] < totals[4]
