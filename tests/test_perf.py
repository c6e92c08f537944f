"""Tests for the performance-model stack (profiles, iteration model,
Alpa search, quantization)."""

import numpy as np
import pytest

from repro.hardware import Cluster
from repro.perf import (
    IterationLatencyModel,
    ModelProfile,
    PerfCalibration,
    dmt_dcn_profile,
    dmt_dlrm_profile,
    dmt_xlrm_profile,
    enumerate_dense_parallelism,
    paper_dcn_profile,
    paper_dlrm_profile,
    quantization_discussion,
    sptt_only_profile,
    xlrm_profile,
)
from repro.comm.cost_model import CollectiveCostModel
from repro.comm.process_group import ProcessGroup
from repro.perf.alpa_search import latency_cdf, slowest_stage_boundary
from repro.perf.quantization import precision_sweep

B = 16384


@pytest.fixture
def model():
    return IterationLatencyModel()


class TestProfiles:
    def test_dlrm_flops_match_table4(self):
        assert paper_dlrm_profile().training_mflops == pytest.approx(
            14.74, rel=0.05
        )

    def test_dcn_flops_match_table4(self):
        assert paper_dcn_profile().training_mflops == pytest.approx(
            96.22, rel=0.05
        )

    def test_dmt_dlrm_flops_match_table4(self):
        assert dmt_dlrm_profile(8).training_mflops == pytest.approx(
            8.95, rel=0.05
        )

    def test_dmt_dcn_flops_monotone_toward_baseline(self):
        """Table 4's DCN column: flops grow with tower count, below base."""
        flops = [dmt_dcn_profile(t).training_mflops for t in (2, 4, 8, 16)]
        assert flops == sorted(flops)
        assert flops[-1] < paper_dcn_profile().training_mflops

    def test_dmt_dlrm_compression_ratio(self):
        assert dmt_dlrm_profile(8, tower_dim=64).compression_ratio == 2.0
        assert dmt_dlrm_profile(8, tower_dim=8).compression_ratio == 16.0

    def test_sptt_only_profile_strips_towers(self):
        base = paper_dlrm_profile()
        sptt = sptt_only_profile(base, 8)
        assert sptt.tower_mflops == 0
        assert sptt.compression_ratio == 1.0
        assert sptt.num_towers == 8

    def test_xlrm_profile_scale(self):
        prof = xlrm_profile()
        assert prof.total_mflops == pytest.approx(700.0)
        dmt = dmt_xlrm_profile(16)
        assert dmt.compression_ratio > 1.0

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ModelProfile("x", -1, 0, 26, 128, 1, 1, 0, 1.0, 0)
        with pytest.raises(ValueError):
            ModelProfile("x", 10, 20, 26, 128, 1, 1, 0, 1.0, 0)
        with pytest.raises(ValueError):
            ModelProfile("x", 10, 0, 26, 128, 1, 1, 0, 0.5, 0)


class TestIterationModel:
    def test_breakdown_components_positive(self, model):
        bd = model.hybrid(paper_dlrm_profile(), Cluster(8, 8, "A100"), B)
        assert bd.compute_s > 0 and bd.exposed_emb_s > 0
        assert bd.total_s == pytest.approx(
            bd.compute_s + bd.exposed_emb_s + bd.exposed_dense_s + bd.other_s
        )

    def test_percentages_sum_to_100(self, model):
        bd = model.hybrid(paper_dcn_profile(), Cluster(8, 8, "H100"), B)
        assert sum(bd.percentages().values()) == pytest.approx(100.0)

    def test_figure1_shape(self, model):
        """Compute ~70%, exposed comm ~27% for DCN at 64xH100."""
        pct = model.hybrid(
            paper_dcn_profile(), Cluster(8, 8, "H100"), B
        ).percentages()
        assert pct["compute"] == pytest.approx(70.4, abs=8)
        assert pct["exposed_emb_comm"] == pytest.approx(27.5, abs=8)

    def test_emb_comm_share_grows_with_scale(self, model):
        small = model.hybrid(paper_dlrm_profile(), Cluster(2, 8, "H100"), B)
        large = model.hybrid(paper_dlrm_profile(), Cluster(64, 8, "H100"), B)
        assert (
            large.percentages()["exposed_emb_comm"]
            > small.percentages()["exposed_emb_comm"]
        )

    def test_dmt_requires_matching_towers(self, model):
        with pytest.raises(ValueError, match="towers"):
            model.dmt(dmt_dlrm_profile(8), Cluster(4, 8, "A100"), B)

    def test_dmt_rejects_flat_profile(self, model):
        with pytest.raises(ValueError, match="towers"):
            model.dmt(paper_dlrm_profile(), Cluster(8, 8, "A100"), B)

    def test_dmt_speedup_grows_with_scale_dlrm(self, model):
        s16 = model.speedup(
            paper_dlrm_profile(), dmt_dlrm_profile(2), Cluster(2, 8, "H100"), B
        )
        s512 = model.speedup(
            paper_dlrm_profile(),
            sptt_only_profile(dmt_dlrm_profile(26), 64),
            Cluster(64, 8, "H100"),
            B,
        )
        assert s512 > s16

    def test_compression_reduces_dmt_comm(self, model):
        cluster = Cluster(8, 8, "A100")
        cr2 = model.dmt(dmt_dlrm_profile(8, tower_dim=64), cluster, B)
        cr16 = model.dmt(dmt_dlrm_profile(8, tower_dim=8), cluster, B)
        assert cr16.emb_comm_total_s < cr2.emb_comm_total_s

    def test_xlrm_speedup_below_dlrm(self, model):
        """§5.3.1: compute-bound XLRM gains less."""
        cluster = Cluster(16, 8, "A100")
        s_xlrm = model.speedup(
            xlrm_profile(), dmt_xlrm_profile(16), cluster, B
        )
        s_dlrm = model.speedup(
            paper_dlrm_profile(),
            dmt_dlrm_profile(16, tower_dim=128, c=0, p=1),
            cluster,
            B,
        )
        assert s_xlrm < s_dlrm

    def test_invalid_batch(self, model):
        with pytest.raises(ValueError):
            model.hybrid(paper_dlrm_profile(), Cluster(2, 8, "A100"), 0)

    def test_calibration_validation(self):
        with pytest.raises(ValueError):
            PerfCalibration(overlap_hybrid=1.5)
        with pytest.raises(ValueError):
            PerfCalibration(dmt_compute_efficiency=0.0)

    def test_overlap_ramp(self):
        cal = PerfCalibration()
        assert cal.dmt_overlap_at(2) == pytest.approx(0.0)
        assert cal.dmt_overlap_at(8) > cal.dmt_overlap_at(4)
        assert cal.dmt_overlap_at(64) <= cal.overlap_cap
        with pytest.raises(ValueError):
            cal.dmt_overlap_at(0)


class TestAlpaSearch:
    def test_enumeration_covers_factorizations(self):
        configs = enumerate_dense_parallelism(
            paper_dlrm_profile(), Cluster(2, 8, "A100"), B
        )
        labels = {c.label for c in configs}
        assert "dp16-tp1-pp1" in labels
        assert "dp1-tp16-pp1" in labels
        assert all(c.dp * c.tp * c.pp == 16 for c in configs)

    def test_data_parallel_wins_for_dlrm(self):
        """Figure 6's conclusion."""
        configs = enumerate_dense_parallelism(
            paper_dlrm_profile(), Cluster(8, 8, "A100"), B
        )
        assert configs[0].is_pure_data_parallel

    def test_tensor_parallel_much_slower(self):
        configs = enumerate_dense_parallelism(
            paper_dlrm_profile(), Cluster(8, 8, "A100"), B
        )
        by_label = {c.label: c.iteration_seconds for c in configs}
        assert by_label["dp1-tp64-pp1"] > 2 * by_label["dp64-tp1-pp1"]

    @pytest.mark.parametrize(
        "tp, pp, crosses",
        [(1, 4, False), (2, 2, False), (1, 8, True), (2, 4, True)],
    )
    def test_stage_boundary_priced_between_adjacent_stages(
        self, tp, pp, crosses
    ):
        """On 2x4, a mesh whose stages of one replica share a host pays
        NVLink at every boundary; one boundary across hosts makes the
        slowest one a NIC transfer."""
        cluster = Cluster(2, 4, "A100")
        cost = CollectiveCostModel()
        world = ProcessGroup(cluster, tuple(range(8)))
        nvlink = cost.point_to_point(world, 0, 1, 1 << 20).seconds
        nic = cost.point_to_point(world, 0, 4, 1 << 20).seconds
        assert nvlink < nic
        got = slowest_stage_boundary(cost, cluster, tp, pp, 1 << 20)
        assert got == (nic if crosses else nvlink)

    def test_cdf_shape(self):
        configs = enumerate_dense_parallelism(
            paper_dlrm_profile(), Cluster(2, 8, "A100"), B
        )
        lat, frac = latency_cdf(configs)
        assert lat.shape == frac.shape
        assert np.all(np.diff(lat) >= 0)
        assert frac[-1] == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            enumerate_dense_parallelism(
                paper_dlrm_profile(), Cluster(2, 8, "A100"), 0
            )
        with pytest.raises(ValueError):
            latency_cdf([])


class TestQuantization:
    def test_quantized_dmt_still_wins(self):
        analysis = quantization_discussion()
        assert analysis.dmt_speedup > 1.0

    def test_precision_sweep_monotone(self):
        sweep = precision_sweep(paper_dlrm_profile(), Cluster(8, 8, "A100"))
        assert sweep["fp8"] < sweep["fp16"] < sweep["fp32"]

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError):
            quantization_discussion(baseline_precision="fp4")
