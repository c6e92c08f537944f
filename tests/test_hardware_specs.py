"""Tests for GPU generation specs (paper Table 1) and memory tiers."""

import pytest

from repro.hardware import (
    A100,
    GB,
    GENERATIONS,
    GPUGeneration,
    H100,
    MemoryTierSpec,
    TIER_ORDER,
    V100,
    compute_network_gap,
    get_spec,
    memory_tiers,
)
from repro.serving import ServingTier, TieredStorage


class TestTable1Values:
    def test_v100_row(self):
        assert V100.peak_tflops == 15.7
        assert V100.scale_out_gbps == 100.0
        assert V100.scale_up_gbs == 150.0
        assert V100.year == 2019

    def test_a100_row(self):
        assert A100.peak_tflops == 156.0
        assert A100.scale_out_gbps == 200.0
        assert A100.scale_up_gbs == 300.0
        assert A100.year == 2022

    def test_h100_row(self):
        assert H100.peak_tflops == 989.0
        assert H100.scale_out_gbps == 400.0
        assert H100.scale_up_gbs == 450.0
        assert H100.year == 2023

    def test_compute_outpaces_network_claim(self):
        """§1: compute improved ~60x, scale-out only 4x (V100 -> H100)."""
        compute_growth, network_growth = compute_network_gap(V100, H100)
        assert compute_growth == pytest.approx(63.0, rel=0.01)
        assert network_growth == pytest.approx(4.0)
        assert compute_growth / network_growth > 15

    def test_scale_up_exceeds_scale_out_every_generation(self):
        """The NVLink/NIC asymmetry that motivates SPTT holds everywhere."""
        for spec in GENERATIONS.values():
            assert spec.scale_up_bytes_per_s > 5 * spec.scale_out_bytes_per_s


class TestUnitConversions:
    def test_scale_out_gbps_to_bytes(self):
        assert A100.scale_out_bytes_per_s == pytest.approx(25e9)

    def test_peak_flops(self):
        assert H100.peak_flops == pytest.approx(989e12)

    def test_effective_flops_below_peak(self):
        for spec in GENERATIONS.values():
            assert 0 < spec.effective_flops < spec.peak_flops

    def test_hbm_bandwidth_positive(self):
        for spec in GENERATIONS.values():
            assert spec.hbm_bytes_per_s > 1e11


class TestLookup:
    def test_get_spec_by_enum(self):
        assert get_spec(GPUGeneration.H100) is H100

    @pytest.mark.parametrize("name", ["v100", "V100", "a100", "H100", "h100"])
    def test_get_spec_by_string_case_insensitive(self, name):
        spec = get_spec(name)
        assert spec.generation.value == name.upper()

    def test_get_spec_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown GPU generation"):
            get_spec("B200")

    def test_specs_are_frozen(self):
        with pytest.raises(Exception):
            V100.peak_tflops = 1.0  # type: ignore[misc]


class TestDecimalGBConvention:
    """Every capacity/bandwidth conversion goes through GB = 1e9.

    One decimal-GB constant, no binary-GiB slips: a 2^30 mixed into a
    single tier would skew every cross-tier comparison by ~7%.
    """

    def test_gb_is_decimal(self):
        assert GB == 1e9
        assert GB != 2**30

    def test_gpu_byte_properties_use_gb(self):
        for spec in GENERATIONS.values():
            assert spec.hbm_capacity_bytes == spec.hbm_capacity_gb * GB
            assert spec.hbm_bytes_per_s == spec.hbm_gbs * GB
            assert spec.scale_up_bytes_per_s == spec.scale_up_gbs * GB
            # NIC rates arrive in Gbit/s: divide by 8, then decimal GB.
            assert spec.scale_out_bytes_per_s == pytest.approx(
                spec.scale_out_gbps / 8.0 * GB
            )

    @pytest.mark.parametrize("generation", ["V100", "A100", "H100"])
    def test_tier_byte_properties_use_gb(self, generation):
        for tier in memory_tiers(generation).values():
            assert tier.capacity_bytes == tier.capacity_gb * GB
            assert tier.bytes_per_s == tier.bandwidth_gbs * GB


class TestMemoryTiers:
    @pytest.mark.parametrize("generation", ["V100", "A100", "H100"])
    def test_presets_cover_canonical_order(self, generation):
        tiers = memory_tiers(generation)
        assert tuple(sorted(tiers)) == tuple(sorted(TIER_ORDER))

    def test_hbm_preset_matches_generation(self):
        spec = get_spec("A100")
        hbm = memory_tiers("A100")["hbm"]
        assert hbm.capacity_gb == spec.hbm_capacity_gb
        assert hbm.bandwidth_gbs == spec.hbm_gbs

    def test_remote_preset_rides_the_nic(self):
        spec = get_spec("H100")
        remote = memory_tiers("H100")["remote"]
        assert not remote.local
        assert remote.bytes_per_s == pytest.approx(
            spec.scale_out_bytes_per_s
        )

    def test_dollars_rank_hbm_most_expensive(self):
        tiers = memory_tiers("A100")
        assert tiers["hbm"].dollars_per_gb > tiers["dram"].dollars_per_gb
        assert tiers["dram"].dollars_per_gb > tiers["ssd"].dollars_per_gb

    def test_bad_tier_name_rejected(self):
        with pytest.raises(ValueError, match="unknown memory tier"):
            MemoryTierSpec(
                name="l2", capacity_gb=1.0, latency_s=0.0,
                bandwidth_gbs=1.0, dollars_per_gb=1.0,
            )

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            MemoryTierSpec(
                name="dram", capacity_gb=0.0, latency_s=0.0,
                bandwidth_gbs=1.0, dollars_per_gb=1.0,
            )


class TestTierTopology:
    def test_local_monotonicity(self):
        """Latency up, bandwidth down, capacity up — across local tiers,
        in every generation's presets."""
        for generation in ("V100", "A100", "H100"):
            tiers = memory_tiers(generation)
            local = [tiers[n] for n in TIER_ORDER if tiers[n].local]
            assert [t.name for t in local] == ["hbm", "dram", "ssd"]
            for fast, slow in zip(local, local[1:]):
                assert fast.latency_s <= slow.latency_s
                assert fast.bytes_per_s >= slow.bytes_per_s
                assert fast.capacity_bytes <= slow.capacity_bytes

    def test_remote_may_beat_local_ssd_on_device_latency(self):
        """The DRAM-backed remote PS is faster than NVMe at the device;
        its real cost is the NIC hop, priced on the serving path."""
        tiers = memory_tiers("A100")
        assert tiers["remote"].latency_s < tiers["ssd"].latency_s

    def test_duplicate_names_rejected(self):
        tiers = memory_tiers("A100")
        with pytest.raises(ValueError, match="duplicate tier names"):
            TieredStorage(
                levels=(
                    ServingTier(tiers["hbm"], 4),
                    ServingTier(tiers["hbm"], 4),
                ),
                backing=tiers["remote"],
            )
