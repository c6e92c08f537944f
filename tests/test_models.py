"""Tests for DLRM, DCN, tower modules, and DMT model variants."""

import numpy as np
import pytest

from repro.core import (
    FeaturePartition,
    FlatEmbeddingExchange,
    SPTTEmbeddingExchange,
)
from repro.hardware import Cluster
from repro.models import (
    DCN,
    DLRM,
    DMTDCN,
    DMTDLRM,
    DCNTowerModule,
    DLRMTowerModule,
    PassThroughTower,
    criteo_table_configs,
    paper_dcn_arch,
    paper_dlrm_arch,
    tiny_table_configs,
)
from repro.models.configs import tiny_dlrm_arch
from repro.nn import BCEWithLogitsLoss
from repro.sim import SimCluster
from repro.training import TrainConfig, Trainer
from tests.util import numeric_grad, tiny_dcn_arch, upcast_float64

F, N, B, DENSE = 6, 8, 5, 4


@pytest.fixture
def rng():
    return np.random.default_rng(21)


def tiny_tables(dim=N, f=F):
    return tiny_table_configs(num_features=f, num_embeddings=12, dim=dim)


def batch(rng, f=F, dense=DENSE, b=B, cardinality=12):
    return (
        rng.standard_normal((b, dense)),
        rng.integers(0, cardinality, size=(b, f)),
        rng.integers(0, 2, size=b).astype(float),
    )


def end_to_end_grad_check(model, dense, ids, labels, rng, atol=1e-5):
    """Full-model gradient check through BCE loss.

    The model trains in float32, too coarse for central differences, so
    the check upcasts it to float64 first; perturbations write into each
    parameter in place, which keeps the tables viewing the stacked
    matrix."""
    loss_mod = BCEWithLogitsLoss()
    upcast_float64(model)

    model.zero_grad()
    loss_mod(model(dense, ids), labels)
    model.backward(loss_mod.backward())

    params = list(model.named_parameters())
    # Spot-check a few parameters, including an embedding table.
    to_check = [params[0], params[len(params) // 2], params[-1]]
    for name, p in to_check:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)

        def f(val, p=p):
            old = p.data.copy()
            p.data[...] = val
            try:
                return BCEWithLogitsLoss()(model(dense, ids), labels)
            finally:
                p.data[...] = old

        num = numeric_grad(f, p.data.copy())
        np.testing.assert_allclose(
            analytic, num, atol=atol, rtol=1e-4, err_msg=f"param {name}"
        )


class TestDLRM:
    def test_forward_shape_and_finiteness(self, rng):
        model = DLRM(DENSE, tiny_tables(), tiny_dlrm_arch(N), rng=rng)
        dense, ids, _ = batch(rng)
        logits = model(dense, ids)
        assert logits.shape == (B,)
        assert np.all(np.isfinite(logits))

    def test_gradients_end_to_end(self, rng):
        model = DLRM(DENSE, tiny_tables(), tiny_dlrm_arch(N), rng=rng)
        end_to_end_grad_check(model, *batch(rng), rng)

    def test_dense_sparse_param_split(self, rng):
        model = DLRM(DENSE, tiny_tables(), tiny_dlrm_arch(N), rng=rng)
        dense_n = sum(p.size for p in model.dense_parameters())
        sparse_n = sum(p.size for p in model.sparse_parameters())
        assert dense_n + sparse_n == model.num_parameters()
        assert sparse_n == F * 12 * N

    def test_dim_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="dim"):
            DLRM(DENSE, tiny_tables(dim=4), tiny_dlrm_arch(N), rng=rng)

    def test_paper_scale_flops_close_to_table4(self):
        """3x measured forward MFlops ~ Table 4's 14.74 for DLRM
        (the fwd+bwd profiler convention; see configs.paper_dlrm_arch)."""
        model = DLRM(
            13,
            tiny_table_configs(26, num_embeddings=4, dim=128),
            paper_dlrm_arch(),
            rng=np.random.default_rng(0),
        )
        mflops = 3 * model.flops_per_sample() / 1e6
        assert mflops == pytest.approx(14.74, rel=0.05)

    def test_paper_scale_embedding_params(self):
        """Paper-scale tables hold ~22.8G parameters (~90GB fp32)."""
        total = sum(c.num_parameters for c in criteo_table_configs())
        assert total / 1e9 == pytest.approx(22.8, rel=0.02)


class TestDCN:
    def test_forward_shape(self, rng):
        model = DCN(DENSE, tiny_tables(), tiny_dcn_arch(N), rng=rng)
        dense, ids, _ = batch(rng)
        assert model(dense, ids).shape == (B,)

    def test_gradients_end_to_end(self, rng):
        model = DCN(DENSE, tiny_tables(), tiny_dcn_arch(N), rng=rng)
        end_to_end_grad_check(model, *batch(rng), rng)

    def test_requires_cross_layers(self, rng):
        with pytest.raises(ValueError, match="cross_layers"):
            DCN(DENSE, tiny_tables(), tiny_dlrm_arch(N), rng=rng)

    def test_paper_scale_flops_close_to_table4(self):
        """3x measured forward MFlops ~ Table 4's 96.22 for DCN."""
        model = DCN(
            13,
            tiny_table_configs(26, num_embeddings=4, dim=128),
            paper_dcn_arch(),
            rng=np.random.default_rng(0),
        )
        mflops = 3 * model.flops_per_sample() / 1e6
        assert mflops == pytest.approx(96.22, rel=0.05)

    def test_dcn_costs_more_than_dlrm(self):
        """The paper's complexity gap: DCN ~6.5x DLRM flops."""
        dlrm = DLRM(
            13,
            tiny_table_configs(26, num_embeddings=4, dim=128),
            paper_dlrm_arch(),
        )
        dcn = DCN(
            13,
            tiny_table_configs(26, num_embeddings=4, dim=128),
            paper_dcn_arch(),
        )
        ratio = dcn.flops_per_sample() / dlrm.flops_per_sample()
        assert 4.5 < ratio < 9.0


class TestTowerModules:
    def test_pass_through_identity(self, rng):
        tm = PassThroughTower(3, N)
        x = rng.standard_normal((B, 3, N))
        np.testing.assert_array_equal(tm(x), x.reshape(B, -1))
        np.testing.assert_array_equal(tm.backward(tm(x)), x)
        assert tm.compression_ratio() == 1.0

    def test_dlrm_tm_listing1_output_dim(self, rng):
        """Listing 1: O = D * (c*F_t + p)."""
        tm = DLRMTowerModule(4, N, out_dim_per_vector=2, c=1, p=1, rng=rng)
        x = rng.standard_normal((B, 4, N))
        assert tm(x).shape == (B, 2 * (1 * 4 + 1))
        assert tm.out_vectors == 5

    def test_dlrm_tm_compression_ratio(self, rng):
        """c=1, p=0, D=N/2 halves the bytes (Table 5's CR=2 row)."""
        tm = DLRMTowerModule(4, N, out_dim_per_vector=N // 2, c=1, p=0, rng=rng)
        assert tm.compression_ratio() == pytest.approx(2.0)

    def test_dlrm_tm_gradients(self, rng):
        tm = DLRMTowerModule(3, 4, out_dim_per_vector=2, c=1, p=1, rng=rng)
        from tests.util import check_module_gradients

        check_module_gradients(tm, rng.standard_normal((2, 3, 4)), rng)

    def test_dlrm_tm_rejects_no_outputs(self, rng):
        with pytest.raises(ValueError):
            DLRMTowerModule(3, 4, 2, c=0, p=0, rng=rng)

    def test_dcn_tm_shapes_and_gradients(self, rng):
        tm = DCNTowerModule(3, 4, out_dim_per_vector=2, rng=rng)
        x = rng.standard_normal((2, 3, 4))
        assert tm(x).shape == (2, 6)
        from tests.util import check_module_gradients

        check_module_gradients(tm, x, rng, atol=1e-5)

    def test_dcn_tm_flops_include_crossnet(self, rng):
        tm = DCNTowerModule(4, 8, out_dim_per_vector=8, cross_layers=2, rng=rng)
        flat = 4 * 8
        assert tm.flops_per_sample() == 2 * 2 * flat * flat + 2 * flat * flat

    def test_dlrm_tm_flops_per_feature_projection(self, rng):
        tm = DLRMTowerModule(4, 8, out_dim_per_vector=2, c=3, p=0, rng=rng)
        assert tm.flops_per_sample() == 4 * 2 * 8 * 6


class TestDMTDLRM:
    def make(self, rng, towers=3, pass_through=False, tower_dim=4):
        partition = FeaturePartition.contiguous(F, towers)
        return DMTDLRM(
            DENSE,
            tiny_tables(),
            partition,
            tiny_dlrm_arch(N),
            tower_dim=tower_dim,
            pass_through=pass_through,
            rng=rng,
        )

    def test_forward_shape(self, rng):
        model = self.make(rng)
        dense, ids, _ = batch(rng)
        assert model(dense, ids).shape == (B,)

    def test_gradients_end_to_end(self, rng):
        model = self.make(rng, towers=2)
        end_to_end_grad_check(model, *batch(rng), rng)

    def test_pass_through_equals_flat_dlrm(self, rng):
        """Table 3's model-side claim: identity towers + order-preserving
        partition + shared weights => bitwise identical logits."""
        flat = DLRM(DENSE, tiny_tables(), tiny_dlrm_arch(N), rng=rng)
        dmt = self.make(np.random.default_rng(99), towers=3, pass_through=True)
        dmt.load_state_dict(flat.state_dict())
        dense, ids, _ = batch(rng)
        np.testing.assert_array_equal(dmt(dense, ids), flat(dense, ids))

    def test_compression_ratio(self, rng):
        model = self.make(rng, tower_dim=N // 2)
        assert model.compression_ratio() == pytest.approx(2.0)

    def test_tower_count_matches_partition(self, rng):
        model = self.make(rng, towers=3)
        assert len(model.towers) == 3

    def test_dense_tower_sparse_split_covers_params(self, rng):
        model = self.make(rng)
        total = (
            sum(p.size for p in model.dense_parameters())
            + sum(p.size for p in model.tower_parameters())
            + sum(p.size for p in model.sparse_parameters())
        )
        assert total == model.num_parameters()

    def test_partition_feature_count_checked(self, rng):
        with pytest.raises(ValueError, match="partition"):
            DMTDLRM(
                DENSE,
                tiny_tables(),
                FeaturePartition.contiguous(F + 1, 2),
                tiny_dlrm_arch(N),
                rng=rng,
            )

    def test_compressed_model_cheaper_than_flat(self, rng):
        """Tower compression reduces interaction+top flops (Table 4)."""
        flat = DLRM(DENSE, tiny_tables(), tiny_dlrm_arch(N), rng=rng)
        dmt = self.make(rng, towers=3, tower_dim=2)
        assert dmt.interaction.flops_per_sample() < flat.interaction.flops_per_sample()

    def test_scrambled_partition_routes_correct_features(self, rng):
        """A permuted partition must still consume each feature once."""
        partition = FeaturePartition.from_groups([[3, 0], [5, 1], [4, 2]])
        model = DMTDLRM(
            DENSE,
            tiny_tables(),
            partition,
            tiny_dlrm_arch(N),
            pass_through=True,
            rng=rng,
        )
        dense, ids, _ = batch(rng)
        logits = model(dense, ids)
        assert np.all(np.isfinite(logits))
        model.zero_grad()
        loss = BCEWithLogitsLoss()
        loss(logits, np.zeros(B))
        model.backward(loss.backward())
        for table in model.embeddings.tables:
            assert table.weight.grad is not None


class TestDMTDCN:
    def make(self, rng, towers=2, pass_through=False, tower_dim=N):
        partition = FeaturePartition.contiguous(F, towers)
        return DMTDCN(
            DENSE,
            tiny_tables(),
            partition,
            tiny_dcn_arch(N),
            tower_dim=tower_dim,
            pass_through=pass_through,
            rng=rng,
        )

    def test_forward_shape(self, rng):
        model = self.make(rng)
        dense, ids, _ = batch(rng)
        assert model(dense, ids).shape == (B,)

    def test_gradients_end_to_end(self, rng):
        model = self.make(rng)
        end_to_end_grad_check(model, *batch(rng), rng, atol=1e-5)

    def test_pass_through_equals_flat_dcn(self, rng):
        flat = DCN(DENSE, tiny_tables(), tiny_dcn_arch(N), rng=rng)
        dmt = self.make(np.random.default_rng(99), pass_through=True)
        dmt.load_state_dict(flat.state_dict())
        dense, ids, _ = batch(rng)
        np.testing.assert_array_equal(dmt(dense, ids), flat(dense, ids))

    def test_tower_dim_shrinks_cross_dim(self, rng):
        small = self.make(rng, tower_dim=2)
        big = self.make(rng, tower_dim=N)
        assert small.cross_dim < big.cross_dim

    def test_compression_ratio(self, rng):
        model = self.make(rng, tower_dim=N // 4)
        assert model.compression_ratio() == pytest.approx(4.0)


SCRAMBLED = FeaturePartition.from_groups([[3, 0], [5, 1], [4, 2]])


def build_model(kind, rng, pass_through=False, partition=SCRAMBLED):
    if kind == "dlrm":
        return DLRM(DENSE, tiny_tables(), tiny_dlrm_arch(N), rng=rng)
    if kind == "dcn":
        return DCN(DENSE, tiny_tables(), tiny_dcn_arch(N), rng=rng)
    cls, arch = (
        (DMTDLRM, tiny_dlrm_arch(N))
        if kind == "dmt-dlrm"
        else (DMTDCN, tiny_dcn_arch(N))
    )
    return cls(
        DENSE, tiny_tables(), partition, arch, tower_dim=4,
        pass_through=pass_through, rng=rng,
    )


class TestSharedPlumbing:
    """What RecModel states once for all four models."""

    @pytest.mark.parametrize("kind", ["dlrm", "dcn", "dmt-dlrm", "dmt-dcn"])
    @pytest.mark.parametrize(
        "shape", [(B, F + 2, N), (B, F - 1, N), (B + 1, F, N), (B, F, N + 1)]
    )
    def test_wrong_embeddings_shape_rejected(self, rng, kind, shape):
        """Feature-order (B, F, N) embeddings exist only at the flat
        exchange: a gradient of any other shape handed back to it is a
        ValueError before anything moves or reaches a table."""
        sim = SimCluster(Cluster(num_hosts=2, gpus_per_host=1, generation="A100"))
        ebc = build_model(kind, rng).embeddings
        ex = FlatEmbeddingExchange(sim, ebc)
        ex.forward({r: np.zeros((B, F), dtype=int) for r in range(2)})
        events = list(sim.timeline.events)
        with pytest.raises(ValueError, match="grad shape"):
            ex.backward({r: rng.standard_normal(shape) for r in range(2)})
        assert sim.timeline.events == events
        assert not any(t.weight.has_grad for t in ebc.tables)

    @pytest.mark.parametrize("exchange", ["flat", "sptt"])
    def test_exchanges_reject_surplus_id_columns(self, rng, exchange):
        """Same ValueError as the collection: one normalize_ids."""
        sim = SimCluster(Cluster(num_hosts=3, gpus_per_host=1, generation="A100"))
        ebc = build_model("dlrm", rng).embeddings
        ex = (
            FlatEmbeddingExchange(sim, ebc)
            if exchange == "flat"
            else SPTTEmbeddingExchange(sim, ebc, SCRAMBLED)
        )
        ids = {r: np.zeros((2, F + 1), dtype=int) for r in range(3)}
        with pytest.raises(ValueError, match=rf"\(B, {F}\[, P\]\)") as exc:
            ex.forward(ids)
        with pytest.raises(ValueError) as ref:
            ebc(ids[0])
        assert str(exc.value) == str(ref.value)
        assert sim.timeline.events == []

    @pytest.mark.parametrize("kind", ["dlrm", "dcn"])
    def test_flat_models_have_no_tower_parameters(self, rng, kind):
        assert build_model(kind, rng).tower_parameters() == []

    @pytest.mark.parametrize("kind", ["dlrm", "dmt-dlrm"])
    def test_trainer_parameter_groups_unchanged(self, rng, kind):
        """Trainer asks every model for tower_parameters(); the groups
        are the ones the hasattr-sniffing construction built."""
        model = build_model(kind, rng)
        trainer = Trainer(model, TrainConfig())
        expected = list(model.dense_parameters())
        if kind == "dmt-dlrm":
            expected += [p for t in model.towers for p in t.parameters()]
        assert len(trainer.dense_opt.params) == len(expected)
        assert all(
            a is b for a, b in zip(trainer.dense_opt.params, expected)
        )
        assert all(
            a is b
            for a, b in zip(
                trainer.sparse_opt.params, model.embeddings.parameters()
            )
        )


class TestTowerOutputSeam:
    """The single-process seam ``features`` / ``features_backward`` is
    the tower-output seam applied to every tower's own output."""

    @pytest.mark.parametrize("kind", ["dmt-dlrm", "dmt-dcn"])
    @pytest.mark.parametrize("pass_through", [True, False])
    def test_features_are_the_overarch_of_tower_outputs(
        self, rng, kind, pass_through
    ):
        model = build_model(kind, rng, pass_through)
        twin = build_model(kind, np.random.default_rng(0), pass_through)
        twin.load_state_dict(model.state_dict())
        dense, ids, _ = batch(rng)
        g_features = rng.standard_normal((B, model.top_in_features))

        features = model.features(dense, ids)
        g_dense = model.features_backward(g_features)

        embs = twin.embeddings(ids)
        outs = [
            tower(embs[:, list(group), :])
            for tower, group in zip(twin.towers, SCRAMBLED.groups)
        ]
        assert np.array_equal(twin.overarch_features(dense, outs), features)
        twin_g_dense, tower_grads = twin.overarch_backward(g_features)
        assert np.array_equal(twin_g_dense, g_dense)
        assert len(tower_grads) == len(twin.towers)
        g_embs = np.empty((B, F, N))
        for tower, group, g in zip(twin.towers, SCRAMBLED.groups, tower_grads):
            assert g.shape == (B, tower.out_dim)
            g_embs[:, list(group), :] = tower.backward(g)
        twin.embeddings.backward(g_embs)
        for (name, p), (_, q) in zip(
            model.named_parameters(), twin.named_parameters()
        ):
            assert p.has_grad == q.has_grad, name
            if p.has_grad:
                assert np.array_equal(p.grad, q.grad), name
