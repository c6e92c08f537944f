"""Tests for hotness-driven tier placement (repro.planner.tiering)."""

import numpy as np
import pytest

from repro.checkpoint import (
    accumulator_mass_by_table,
    save_training_checkpoint,
)
from repro.data import SyntheticCriteoConfig, SyntheticCriteoDataset
from repro.hardware import memory_tiers
from repro.models import DLRM, tiny_table_configs
from repro.models.configs import DenseArch, criteo_table_configs
from repro.nn import TableConfig
from repro.planner import (
    TierPlacementPlan,
    TierPlanner,
    plan_from_checkpoint,
    zipf_mass,
)
from repro.serving import ServingTier, TieredStorage
from repro.training import TrainConfig, Trainer


A100 = memory_tiers("A100")


def storage(backing="remote", **rows):
    """An A100 storage whose levels hold ``rows`` (tier -> rows, in
    tier order); the planner appends a remote backing as an unbounded
    tier and makes level 0 unbounded over an "hbm" backing."""
    levels = tuple(ServingTier(A100[n], r) for n, r in rows.items())
    return TieredStorage(levels=levels, backing=A100[backing])


def physical_rows(tier, row_bytes):
    """Rows of ``row_bytes`` in the tier's whole per-host capacity."""
    rows, rest = divmod(A100[tier].capacity_bytes, row_bytes)
    assert rest == 0
    return int(rows)


def small_tables():
    return [
        TableConfig("hot", 10_000, 16, pooling=1),
        TableConfig("cold", 50_000, 16, pooling=1),
    ]


class TestZipfMass:
    def test_matches_exact_harmonic_sum(self):
        bounds = [0, 10, 100, 1000]
        mass = zipf_mass(1000, 1.2, bounds)
        ranks = np.arange(1, 1001, dtype=float) ** -1.2
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            assert mass[i] == pytest.approx(ranks[a:b].sum())

    def test_zero_skew_is_uniform(self):
        mass = zipf_mass(100, 0.0, [0, 25, 50, 100])
        assert mass[0] == pytest.approx(25.0)
        assert mass[2] == pytest.approx(50.0)

    def test_integral_approximation_close_on_tail_segments(self):
        """Beyond the exact-sum limit (where only tail segments live,
        thanks to the geometric chunking) the midpoint integral is
        within 1e-6 of the exact sum."""
        a, b = 1 << 20, (1 << 21) + 64  # length > exact-sum limit
        approx = zipf_mass(b, 1.1, [a, b])[0]
        exact = float(
            np.sum(np.arange(a + 1, b + 1, dtype=np.float64) ** -1.1)
        )
        assert approx == pytest.approx(exact, rel=1e-6)


class TestTierPlanner:
    """``small_tables`` rows are 16 x 4 = 64 B wide."""

    def _plan(self, hbm, dram, skew=1.1, tables=None):
        planner = TierPlanner(
            storage(hbm=hbm, dram=dram, ssd=physical_rows("ssd", 64))
        )
        return planner.plan(tables or small_tables(), skew)

    def test_every_row_placed_exactly_once(self):
        plan = self._plan(hbm=1000, dram=10_000)
        placed = {t.name: 0 for t in plan.tables}
        for a in plan.assignments:
            placed[a.table] += a.num_rows
        assert placed == {"hot": 10_000, "cold": 50_000}

    def test_access_fractions_sum_to_one(self):
        plan = self._plan(hbm=1000, dram=10_000)
        total = sum(a.access_fraction for a in plan.assignments)
        assert total == pytest.approx(1.0)

    def test_hottest_ranks_land_in_fastest_tier(self):
        plan = self._plan(hbm=1000, dram=10_000)
        by_tier = {}
        for a in plan.assignments:
            by_tier.setdefault((a.table, a.tier), []).append(a.row_start)
        # The hot table's rank-0 chunk must sit in HBM, not below.
        assert ("hot", "hbm") in by_tier
        assert min(by_tier[("hot", "hbm")]) == 0

    def test_budgets_respected(self):
        plan = self._plan(hbm=1000, dram=10_000)
        by_tier = plan.bytes_by_tier()
        assert by_tier["hbm"] <= 1000 * 64
        assert by_tier["dram"] <= 10_000 * 64

    def test_unbounded_tier_takes_the_overflow(self):
        """Rows past a 15-row chain land on the backing: appended as
        the last tier when remote, level 0 itself when HBM backs the
        table."""
        for backing, backed in (("remote", 60_000 - 15), ("hbm", 60_000)):
            planner = TierPlanner(storage(backing, hbm=15))
            rows = planner.plan(small_tables(), 1.1).rows_by_tier()
            assert sum(rows.values()) == 60_000
            assert rows[backing] == backed

    def test_mixed_dims_rejected(self):
        tables = small_tables() + [TableConfig("wide", 100, 32, pooling=1)]
        with pytest.raises(ValueError, match="share one dim"):
            TierPlanner(storage(hbm=1000)).plan(tables, 1.1)

    def test_skewed_spill_fraction_beats_table_fraction(self):
        """At skew > 1 the HBM-resident head absorbs far more than its
        share of rows — the entire point of hotness-aware placement."""
        plan = self._plan(hbm=1000, dram=1_000_000, skew=1.2)
        rows = plan.rows_by_tier()
        hbm_row_share = rows["hbm"] / sum(rows.values())
        hbm_access = plan.access_fraction_by_tier()["hbm"]
        assert hbm_access > 5 * hbm_row_share
        assert plan.spill_fraction == pytest.approx(1.0 - hbm_access)

    def test_uniform_access_fraction_tracks_rows(self):
        """One table, skew 0: a tier's access share is its row share.
        (Across tables, mass is normalized per table and weighted by
        pooling — each table contributes `pooling` lookups/sample.)"""
        tables = [TableConfig("t", 60_000, 16, pooling=1)]
        plan = self._plan(hbm=1000, dram=1_000_000, skew=0.0, tables=tables)
        rows = plan.rows_by_tier()
        fracs = plan.access_fraction_by_tier()
        share = rows["hbm"] / sum(rows.values())
        assert fracs["hbm"] == pytest.approx(share, rel=1e-6)

    def test_measured_hotness_dict(self):
        """Per-row accumulator mass: the hot half of each table wins
        the fast tier regardless of id order."""
        tables = [TableConfig("t", 1024, 16, pooling=1)]
        mass = np.zeros(1024)
        mass[::2] = 100.0  # even ids hot
        # Budget aligned to the geometric chunk boundary at rank 512,
        # so the 512 hot ranks land in HBM whole.
        planner = TierPlanner(storage(hbm=512, dram=15_625_000_000))
        plan = planner.plan(tables, {"t": mass})
        fracs = plan.access_fraction_by_tier()
        assert fracs["hbm"] == pytest.approx(1.0)

    def test_mismatched_hotness_length_raises(self):
        planner = TierPlanner(
            storage(
                hbm=physical_rows("hbm", 64), dram=physical_rows("dram", 64)
            )
        )
        with pytest.raises(ValueError, match="rows"):
            planner.plan(
                [TableConfig("t", 100, 16, pooling=1)],
                {"t": np.ones(7)},
            )

    def test_paper_scale_criteo_fits_hierarchy(self):
        """The acceptance geometry: Criteo tables outgrow one GPU's
        HBM and the hierarchy absorbs the spill with tiny access
        loss.  The levels hold the tiers' physical capacities in
        128 x 4 = 512 B rows."""
        physical = {
            name: physical_rows(name, 512) for name in ("hbm", "dram", "ssd")
        }
        plan = TierPlanner(storage(**physical)).plan(
            criteo_table_configs(), 1.05
        )
        summary = plan.summary()
        gb = summary["gb_by_tier"]
        assert gb["hbm"] <= 80.0 + 1e-6
        assert sum(gb.values()) > 80.0  # genuinely spills
        assert summary["spill_fraction"] < 0.05
        assert summary["dollars"] > 0.0
        assert summary["expected_fetch_us_per_lookup"] >= 0.0

    def test_summary_is_json_shaped(self):
        import json

        plan = self._plan(hbm=1000, dram=10_000)
        json.dumps(plan.summary())

    def test_plan_is_deterministic(self):
        a = self._plan(hbm=1000, dram=10_000)
        b = self._plan(hbm=1000, dram=10_000)
        assert a.assignments == b.assignments


class TestPlanFromCheckpoint:
    #: 40 HBM rows of 8 x 4 = 32 B; the DRAM level holds every row.
    STORAGE = storage(hbm=40, dram=31_250_000_000)

    def _checkpoint(self, tmp_path):
        config = SyntheticCriteoConfig(
            num_dense=4, num_sparse=4, cardinality=50
        )
        ds = SyntheticCriteoDataset(config, seed=0)
        dense, ids, labels = ds.sample(400, seed=1)
        tables = tiny_table_configs(4, 50, 8)
        model = DLRM(
            4,
            tables,
            DenseArch(embedding_dim=8, bottom_mlp=(8,), top_mlp=(8,)),
            rng=np.random.default_rng(0),
        )
        trainer = Trainer(
            model, TrainConfig(batch_size=50, epochs=1, seed=3)
        )
        trainer.fit(dense, ids, labels)
        path = save_training_checkpoint(
            str(tmp_path / "ck"), model, trainer
        )
        return path, tables

    def test_accumulator_mass_by_table(self, tmp_path):
        path, tables = self._checkpoint(tmp_path)
        masses = accumulator_mass_by_table(path)
        assert set(masses) == {t.name for t in tables}
        for t in tables:
            assert masses[t.name].shape == (t.num_embeddings,)
            assert (masses[t.name] >= 0).all()
            assert masses[t.name].sum() > 0  # training touched rows

    def test_plan_from_checkpoint_places_all_rows(self, tmp_path):
        path, tables = self._checkpoint(tmp_path)
        plan = plan_from_checkpoint(path, tables, self.STORAGE)
        assert isinstance(plan, TierPlacementPlan)
        rows = plan.rows_by_tier()
        assert sum(rows.values()) == sum(t.num_embeddings for t in tables)
        # Touched (hot) rows beat untouched ones into the HBM budget:
        # 40 of 200 rows (20%) absorb well over 2x their uniform share.
        assert plan.access_fraction_by_tier()["hbm"] > 0.4

    def test_missing_table_falls_back_to_cold(self, tmp_path):
        path, tables = self._checkpoint(tmp_path)
        extra = list(tables) + [TableConfig("absent", 100, 8, pooling=1)]
        plan = plan_from_checkpoint(path, extra, self.STORAGE)
        # The absent table has zero mass everywhere: no HBM claim.
        absent = [
            a for a in plan.assignments
            if a.table == "absent" and a.tier == "hbm"
        ]
        assert not absent
