"""Tests for the row-wise sparse gradient path.

Covers the compact :class:`RowwiseGrad` representation (including a
property suite holding the ordered segment-sum bit-for-bit to the
``np.unique`` + ``np.add.at`` reference kept here), the Parameter
dense/row-wise gradient plumbing, :class:`RowwiseAdagrad`, the fused
embedding collection internals, and the ``WarmupDecaySchedule``
``decay_start=0`` regression.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import (
    EmbeddingBagCollection,
    EmbeddingTable,
    Parameter,
    RowwiseAdagrad,
    RowwiseGrad,
    TableConfig,
)
from repro.nn.optim import WarmupDecaySchedule
from tests.test_golden_embedding_plane import RUNS, state_arrays, trained
from tests.util import Adagrad


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestRowwiseGrad:
    def test_from_pooled_compacts_duplicates(self):
        ids = np.array([[1, 4], [4, 4], [2, 1]])
        grad = np.arange(6, dtype=float).reshape(3, 2)
        rg = RowwiseGrad.from_pooled(ids, grad)
        np.testing.assert_array_equal(rg.rows, [1, 2, 4])
        # Row 1: samples 0 and 2; row 4: sample 0 once + sample 1 twice.
        np.testing.assert_allclose(rg.grads[0], grad[0] + grad[2])
        np.testing.assert_allclose(rg.grads[1], grad[2])
        np.testing.assert_allclose(rg.grads[2], grad[0] + 2 * grad[1])

    def test_to_dense_round_trip(self, rng):
        ids = rng.integers(0, 50, size=(8, 3))
        grad = rng.standard_normal((8, 4))
        rg = RowwiseGrad.from_pooled(ids, grad)
        dense = np.zeros((50, 4))
        np.add.at(dense, ids.reshape(-1), np.repeat(grad, 3, axis=0))
        np.testing.assert_array_equal(rg.to_dense((50, 4)), dense)

    def test_to_dense_validates(self):
        rg = RowwiseGrad(rows=np.array([7]), grads=np.ones((1, 4)))
        with pytest.raises(ValueError):
            rg.to_dense((4, 4))  # row 7 out of range
        with pytest.raises(ValueError):
            rg.to_dense((10, 8))  # dim mismatch

    def test_merge_is_row_union_sum(self, rng):
        a = RowwiseGrad(rows=np.array([1, 5]), grads=rng.standard_normal((2, 3)))
        b = RowwiseGrad(rows=np.array([5, 9]), grads=rng.standard_normal((2, 3)))
        m = a.merge(b)
        np.testing.assert_array_equal(m.rows, [1, 5, 9])
        np.testing.assert_array_equal(
            m.to_dense((10, 3)), a.to_dense((10, 3)) + b.to_dense((10, 3))
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RowwiseGrad(rows=np.zeros((2, 2)), grads=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            RowwiseGrad(rows=np.array([0, 1, 2]), grads=np.zeros((2, 3)))

    def test_nbytes_is_compact(self):
        rg = RowwiseGrad(rows=np.arange(4), grads=np.zeros((4, 8)))
        assert rg.nbytes == 4 * 8 + 4 * 8 * 8


class TestParameterRowGrad:
    def test_grad_property_densifies(self):
        p = Parameter(np.zeros((10, 2)))
        p.add_row_grad(RowwiseGrad(rows=np.array([3]), grads=np.ones((1, 2))))
        assert p.has_grad
        g = p.grad
        assert g.shape == (10, 2)
        assert g[3, 0] == 1.0 and g[0, 0] == 0.0
        assert p.row_grad is None  # consumed by densification

    def test_row_plus_row_stays_compact(self):
        p = Parameter(np.zeros((10, 2)))
        p.add_row_grad(RowwiseGrad(rows=np.array([3]), grads=np.ones((1, 2))))
        p.add_row_grad(RowwiseGrad(rows=np.array([3, 5]), grads=np.ones((2, 2))))
        assert p.row_grad is not None and p.row_grad.num_rows == 2
        np.testing.assert_allclose(p.grad[3], 2.0)

    def test_row_into_dense_scatter_adds(self):
        p = Parameter(np.zeros((4, 2)))
        p.add_grad(np.ones((4, 2)))
        p.add_row_grad(RowwiseGrad(rows=np.array([2]), grads=np.ones((1, 2))))
        np.testing.assert_allclose(p.grad[2], 2.0)
        np.testing.assert_allclose(p.grad[0], 1.0)

    def test_dense_after_row_densifies_first(self):
        p = Parameter(np.zeros((4, 2)))
        p.add_row_grad(RowwiseGrad(rows=np.array([1]), grads=np.ones((1, 2))))
        p.add_grad(np.ones((4, 2)))
        np.testing.assert_allclose(p.grad[1], 2.0)

    def test_zero_grad_clears_both(self):
        p = Parameter(np.zeros((4, 2)))
        p.add_row_grad(RowwiseGrad(rows=np.array([1]), grads=np.ones((1, 2))))
        p.zero_grad()
        assert not p.has_grad and p.grad is None

    def test_grad_setter_clears_row_grad(self):
        p = Parameter(np.zeros((4, 2)))
        p.add_row_grad(RowwiseGrad(rows=np.array([1]), grads=np.ones((1, 2))))
        p.grad = np.zeros((4, 2))
        np.testing.assert_allclose(p.grad, 0.0)

    def test_dim_mismatch_rejected(self):
        p = Parameter(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            p.add_row_grad(RowwiseGrad(rows=np.array([1]), grads=np.ones((1, 3))))


class TestRowwiseAdagrad:
    def _pair(self, rows=32, dim=4, seed=5):
        rng = np.random.default_rng(seed)
        init = rng.standard_normal((rows, dim))
        return Parameter(init.copy()), Parameter(init.copy())

    def test_elementwise_matches_dense_adagrad_bitwise(self, rng):
        p_dense, p_row = self._pair()
        opt_dense = Adagrad([p_dense], lr=0.1)
        opt_row = RowwiseAdagrad([p_row], lr=0.1)
        for step in range(5):
            ids = rng.integers(0, 32, size=(6, 2))
            grad = rng.standard_normal((6, 4))
            dense = np.zeros((32, 4))
            np.add.at(dense, ids.reshape(-1), np.repeat(grad, 2, axis=0))
            p_dense.zero_grad()
            p_dense.add_grad(dense)
            p_row.zero_grad()
            p_row.add_row_grad(RowwiseGrad.from_pooled(ids, grad))
            opt_dense.step()
            opt_row.step()
            np.testing.assert_array_equal(p_dense.data, p_row.data)
        np.testing.assert_array_equal(opt_dense._accum[0], opt_row._accum[0])

    def test_untouched_rows_never_move(self, rng):
        p, _ = self._pair()
        before = p.data.copy()
        opt = RowwiseAdagrad([p], lr=0.5)
        p.add_row_grad(
            RowwiseGrad(rows=np.array([0]), grads=np.ones((1, 4)))
        )
        opt.step()
        np.testing.assert_array_equal(p.data[1:], before[1:])
        assert not np.array_equal(p.data[0], before[0])

    def test_dense_grad_raises(self, rng):
        """RowwiseAdagrad refuses a dense gradient before touching the
        weights or its state."""
        p, _ = self._pair()
        before = p.data.copy()
        p.add_grad(rng.standard_normal((32, 4)))
        opt = RowwiseAdagrad([p], lr=0.1)
        with pytest.raises(TypeError, match="dense"):
            opt.step()
        np.testing.assert_array_equal(p.data, before)
        assert opt._accum == {}


class TestFusedCollection:
    def make_ebc(self, rng, F=3, dim=4):
        configs = [TableConfig(f"f{i}", 8 + i, dim) for i in range(F)]
        return EmbeddingBagCollection(configs, rng=rng)

    def test_tables_alias_stacked_matrix(self, rng):
        ebc = self.make_ebc(rng)
        assert ebc.total_rows == 8 + 9 + 10
        for t in ebc.tables:
            assert t.weight.data.base is ebc._stacked

    def test_fused_matches_per_table_forward(self, rng):
        ebc = self.make_ebc(rng)
        ids = rng.integers(0, 8, size=(5, 3, 2))
        fused = ebc(ids)
        per_table = np.stack(
            [ebc.tables[f](ids[:, f]) for f in range(3)], axis=1
        )
        np.testing.assert_array_equal(fused, per_table)

    def test_fused_backward_emits_rowwise(self, rng):
        ebc = self.make_ebc(rng)
        ids = rng.integers(0, 8, size=(4, 3))
        ebc(ids)
        ebc.backward(rng.standard_normal((4, 3, 4)))
        for t in ebc.tables:
            assert t.weight.row_grad is not None
            assert t.weight.row_grad.num_rows <= 4

    def test_rebound_weight_raises(self, rng):
        """A table whose weight.data no longer views the stacked matrix
        would be read stale and never trained: forward refuses it, in
        either layout, and runs again once the view is restored."""
        ebc = self.make_ebc(rng)
        ids = rng.integers(0, 8, size=(2, 3))
        before = ebc(ids).copy()
        old = ebc.tables[1].weight.data
        ebc.tables[1].weight.data = old + 1.0
        with pytest.raises(RuntimeError, match="f1.*stacked matrix"):
            ebc(ids)
        with pytest.raises(RuntimeError, match="f1"):
            ebc(ids, [[0, 2], [1]])
        ebc.tables[1].weight.data = old
        np.testing.assert_array_equal(ebc(ids), before)

    def test_load_state_dict_preserves_aliasing(self, rng):
        ebc = self.make_ebc(rng)
        other = self.make_ebc(np.random.default_rng(99))
        ebc.load_state_dict(other.state_dict())
        for t, o in zip(ebc.tables, other.tables):
            assert t.weight.data.base is ebc._stacked
            np.testing.assert_array_equal(t.weight.data, o.weight.data)
        # Fused forward sees the loaded values.
        ids = np.ones((1, 3), dtype=int)
        np.testing.assert_array_equal(ebc(ids), other(ids))

    def test_fused_bounds_check_names_offending_table(self, rng):
        ebc = self.make_ebc(rng)
        ids = np.zeros((2, 3), dtype=int)
        ids[1, 1] = 9  # table f1 has 9 rows: id 9 out of range
        with pytest.raises(IndexError, match="f1"):
            ebc(ids)
        ids[1, 1] = -1
        with pytest.raises(IndexError, match="f1"):
            ebc(ids)

    @pytest.mark.parametrize("last_dim", [1, 5])
    def test_backward_rejects_wrong_embedding_dim(self, rng, last_dim):
        """(B, F, 1) used to broadcast one scalar over every column of
        every touched row; (B, F, dim + 1) died inside numpy."""
        ebc = self.make_ebc(rng)
        ebc(rng.integers(0, 8, size=(4, 3)))
        with pytest.raises(ValueError, match=r"grad must be \(B, 3, 4\)"):
            ebc.backward(np.ones((4, 3, last_dim)))
        assert not any(t.weight.has_grad for t in ebc.tables)

    def test_single_hot_forward_pools_like_the_sum(self, rng):
        """P == 1 skips the reduction over a length-1 axis but keeps
        its result, down to a stored -0.0 pooling to +0.0."""
        ebc = self.make_ebc(rng)
        ebc._stacked[::3] = -0.0
        ids = rng.integers(0, 8, size=(6, 3))
        want = ebc._stacked[ids + ebc._offsets][:, :, None, :].sum(axis=2)
        assert ebc(ids).tobytes() == want.tobytes()
        table = ebc.tables[0]
        assert table(ids[:, 0]).tobytes() == want[:, 0].tobytes()

    def test_optimizer_step_writes_through_to_stacked(self, rng):
        ebc = self.make_ebc(rng)
        ids = np.ones((2, 3), dtype=int)
        ebc(ids)
        ebc.backward(np.ones((2, 3, 4)))
        opt = RowwiseAdagrad([t.weight for t in ebc.tables], lr=0.1)
        before = ebc._stacked.copy()
        opt.step()
        assert not np.array_equal(ebc._stacked, before)
        # Only the touched rows moved (row 1 of each table).
        changed = np.argwhere(
            np.abs(ebc._stacked - before).sum(axis=1) > 0
        ).reshape(-1)
        expected = ebc._offsets + 1
        np.testing.assert_array_equal(changed, expected)


class TestSingleTableRowwise:
    def test_table_backward_rowwise_no_dense_array(self, rng):
        table = EmbeddingTable(
            TableConfig("t", num_embeddings=1000, dim=4), rng=rng
        )
        table(np.array([3, 3, 7]))
        table.backward(np.ones((3, 4)))
        rg = table.weight.row_grad
        assert rg is not None
        np.testing.assert_array_equal(rg.rows, [3, 7])
        np.testing.assert_allclose(rg.grads[0], 2.0)

    def test_rowwise_matches_dense_reference(self, rng):
        table = EmbeddingTable(
            TableConfig("t", num_embeddings=20, dim=3, pooling=2),
            rng=np.random.default_rng(1),
        )
        ids = rng.integers(0, 20, size=(6, 2))
        grad = rng.standard_normal((6, 3)).astype(np.float32)
        table(ids)
        table.backward(grad)
        # Sum pooling: every pooled id receives the full output gradient.
        dense = np.zeros((20, 3), dtype=np.float32)
        np.add.at(dense, ids.reshape(-1), np.repeat(grad, 2, axis=0))
        np.testing.assert_array_equal(table.weight.grad, dense)


class TestWarmupDecayRegression:
    def test_decay_start_zero_never_zeroes_lr(self):
        """decay_start=0 used to yield lr=0 for every step >= 1."""
        sched = WarmupDecaySchedule(peak_lr=0.1, warmup_steps=0)
        assert sched.decay_start == 1
        for step in range(10):
            assert sched.lr_at(step) > 0
        assert sched.lr_at(4) == pytest.approx(0.1 * np.sqrt(1 / 4))

    def test_explicit_zero_decay_start_clamped(self):
        sched = WarmupDecaySchedule(peak_lr=1.0, warmup_steps=0, decay_start=0)
        assert sched.decay_start == 1
        assert sched.lr_at(100) == pytest.approx(np.sqrt(1 / 100))

    def test_negative_decay_start_rejected(self):
        with pytest.raises(ValueError, match="decay_start"):
            WarmupDecaySchedule(peak_lr=1.0, warmup_steps=0, decay_start=-1)

    def test_normal_schedule_unchanged(self):
        sched = WarmupDecaySchedule(peak_lr=1.0, warmup_steps=4, decay_start=8)
        assert sched.lr_at(0) == pytest.approx(0.25)
        assert sched.lr_at(3) == pytest.approx(1.0)
        assert sched.lr_at(8) == pytest.approx(1.0)
        assert sched.lr_at(32) == pytest.approx(0.5)


class TestRowwiseGradFuzz:
    """Seeded property/fuzz coverage: random shapes, duplicate-heavy
    and empty index sets all match the dense scatter-add reference."""

    @staticmethod
    def _dense_reference(ids, grad_output, num_rows):
        """The original materialized scatter-add."""
        B, P = ids.shape
        dim = grad_output.shape[1]
        dense = np.zeros((num_rows, dim))
        np.add.at(
            dense, ids.reshape(-1), np.repeat(grad_output, P, axis=0)
        )
        return dense

    @pytest.mark.parametrize("seed", range(20))
    def test_from_pooled_matches_dense_reference(self, seed):
        fuzz = np.random.default_rng(1000 + seed)
        B = int(fuzz.integers(1, 40))
        P = int(fuzz.integers(1, 6))
        dim = int(fuzz.integers(1, 17))
        # Small id spaces make duplicates the common case, not the
        # edge case.
        num_rows = int(fuzz.integers(1, 12 if seed % 2 else 500))
        ids = fuzz.integers(0, num_rows, size=(B, P))
        grad = fuzz.standard_normal((B, dim))
        rg = RowwiseGrad.from_pooled(ids, grad)
        # Rows strictly increasing and exactly the touched set.
        assert np.all(np.diff(rg.rows) > 0)
        np.testing.assert_array_equal(rg.rows, np.unique(ids))
        reference = self._dense_reference(ids, grad, num_rows)
        np.testing.assert_array_equal(
            rg.to_dense((num_rows, dim)), reference
        )
        # scatter_into accumulates rather than overwrites.
        acc = fuzz.standard_normal((num_rows, dim))
        expect = acc + reference
        rg.scatter_into(acc)
        np.testing.assert_array_equal(acc, expect)

    @pytest.mark.parametrize("seed", range(10))
    def test_merge_matches_summed_references(self, seed):
        fuzz = np.random.default_rng(2000 + seed)
        num_rows = int(fuzz.integers(2, 30))
        dim = int(fuzz.integers(1, 9))
        pieces = []
        total = np.zeros((num_rows, dim))
        for _ in range(int(fuzz.integers(2, 5))):
            B = int(fuzz.integers(1, 20))
            P = int(fuzz.integers(1, 4))
            ids = fuzz.integers(0, num_rows, size=(B, P))
            grad = fuzz.standard_normal((B, dim))
            pieces.append(RowwiseGrad.from_pooled(ids, grad))
            total += self._dense_reference(ids, grad, num_rows)
        merged = pieces[0]
        for piece in pieces[1:]:
            merged = merged.merge(piece)
        np.testing.assert_allclose(
            merged.to_dense((num_rows, dim)), total, atol=1e-12, rtol=0
        )

    def test_empty_index_set(self):
        """A zero-sample batch compacts to zero rows and densifies to
        all-zeros rather than crashing."""
        ids = np.empty((0, 3), dtype=np.int64)
        grad = np.empty((0, 4))
        rg = RowwiseGrad.from_pooled(ids, grad)
        assert rg.num_rows == 0
        np.testing.assert_array_equal(
            rg.to_dense((7, 4)), np.zeros((7, 4))
        )
        dense = np.ones((7, 4))
        rg.scatter_into(dense)
        np.testing.assert_array_equal(dense, np.ones((7, 4)))

    @pytest.mark.parametrize("seed", range(10))
    def test_parameter_grad_densification_matches_reference(self, seed):
        """Accumulating row-wise grads on a Parameter and then reading
        ``.grad`` (the densifying escape hatch) equals accumulating the
        dense references directly — including mixed dense/row-wise."""
        fuzz = np.random.default_rng(3000 + seed)
        num_rows = int(fuzz.integers(2, 40))
        dim = int(fuzz.integers(1, 9))
        param = Parameter(fuzz.standard_normal((num_rows, dim)), name="t")
        expect = np.zeros((num_rows, dim))
        for k in range(int(fuzz.integers(1, 5))):
            B = int(fuzz.integers(1, 16))
            P = int(fuzz.integers(1, 4))
            ids = fuzz.integers(0, num_rows, size=(B, P))
            grad = fuzz.standard_normal((B, dim))
            reference = TestRowwiseGradFuzz._dense_reference(
                ids, grad, num_rows
            )
            if k % 3 == 2:
                param.add_grad(reference)  # force a mixed accumulation
            else:
                param.add_row_grad(RowwiseGrad.from_pooled(ids, grad))
            expect += reference
        np.testing.assert_allclose(
            param.grad, expect, atol=1e-12, rtol=0
        )


def _reference_from_pooled(ids, grad_output):
    """The segment-sum as first written: ``np.unique`` + sequential
    ``np.add.at`` from a zero-filled array.  Kept as the oracle."""
    B, P = ids.shape
    uniq, inverse = np.unique(ids.reshape(-1), return_inverse=True)
    seg = np.zeros((uniq.shape[0], grad_output.shape[1]))
    np.add.at(seg, inverse.reshape(B, P), grad_output[:, None, :])
    return uniq, seg


def _reference_merge(a, b):
    rows = np.concatenate([a.rows, b.rows])
    uniq, inverse = np.unique(rows, return_inverse=True)
    grads = np.zeros((uniq.shape[0], a.dim))
    grads[inverse[: a.num_rows]] = a.grads
    np.add.at(grads, inverse[a.num_rows :], b.grads)
    return uniq, grads


def _same_bits(a, b):
    """Stricter than ``array_equal``: tells -0.0 from +0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _pooled_case(B, P, dim, num_rows, seed):
    """Ids over ``num_rows`` rows and gradients salted with exact
    zeros, -0.0 and values whose sums cancel to zero."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, num_rows, size=(B, P))
    grad = rng.standard_normal((B, dim))
    kind = rng.integers(0, 5, size=grad.shape)
    grad[kind == 0] = 0.0
    grad[kind == 1] = -0.0
    grad[kind == 2] = np.where(rng.random((kind == 2).sum()) < 0.5, 1.5, -1.5)
    return ids, grad


class TestOrderedSegmentSumProperties:
    """``from_pooled`` against the ``np.add.at`` oracle, bit for bit.

    ``num_rows`` far below ``B * P`` makes duplicates the rule; above
    ``_FEW_ROWS`` distinct rows exercise the vectorized rank passes,
    below it the per-row tail fold, and mixed multiplicities both.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        B=st.integers(1, 160),
        P=st.integers(1, 4),
        dim=st.integers(1, 9),
        num_rows=st.sampled_from([1, 2, 7, 20, 60, 5000]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(B=1, P=1, dim=3, num_rows=1, seed=0)  # a single id
    @example(B=160, P=4, dim=2, num_rows=1, seed=1)  # every id equal
    @example(B=160, P=1, dim=4, num_rows=20, seed=2)  # > _FEW_ROWS live
    def test_from_pooled_is_the_reference_bit_for_bit(
        self, B, P, dim, num_rows, seed
    ):
        ids, grad = _pooled_case(B, P, dim, num_rows, seed)
        rows, seg = _reference_from_pooled(ids, grad)
        rg = RowwiseGrad.from_pooled(ids, grad)
        assert np.array_equal(rg.rows, rows) and rg.rows.dtype == np.int64
        assert np.array_equal(rg.grads, seg)
        assert _same_bits(rg.grads, seg)

    def test_skewed_ids_fold_hot_rows_in_order(self):
        """Zipf-like ids: a few rows hold most occurrences, thousands
        each — the regime the per-row tail fold exists for."""
        rng = np.random.default_rng(8)
        ids = np.minimum(rng.zipf(1.3, size=(6000, 1)), 400)
        grad = rng.standard_normal((6000, 5))
        rows, seg = _reference_from_pooled(ids, grad)
        rg = RowwiseGrad.from_pooled(ids, grad)
        assert np.array_equal(rg.rows, rows)
        assert _same_bits(rg.grads, seg)

    def test_from_pooled_rejects_mismatched_batch(self):
        with pytest.raises(ValueError, match="grad_output"):
            RowwiseGrad.from_pooled(np.zeros((3, 2), dtype=int), np.ones((4, 2)))

    @settings(max_examples=60, deadline=None)
    @given(
        n_a=st.integers(1, 60),
        n_b=st.integers(1, 60),
        dim=st.integers(1, 6),
        num_rows=st.sampled_from([1, 5, 40]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_merge_is_the_reference_bit_for_bit(
        self, n_a, n_b, dim, num_rows, seed
    ):
        a = RowwiseGrad.from_pooled(*_pooled_case(n_a, 2, dim, num_rows, seed))
        b = RowwiseGrad.from_pooled(
            *_pooled_case(n_b, 1, dim, num_rows, seed + 1)
        )
        rows, grads = _reference_merge(a, b)
        merged = a.merge(b)
        assert np.array_equal(merged.rows, rows)
        assert _same_bits(merged.grads, grads)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_twenty_steps_rowwise_equals_dense_exactly(name):
    """The pinned 20-step runs (DMT-DLRM with c=1 / p=0 towers; DLRM
    with pooling 3): every weight and every Adagrad accumulator is
    ``array_equal`` between ``RowwiseAdagrad`` and the dense reference."""
    rowwise, dense = trained(name, "rowwise"), trained(name, "dense")
    assert rowwise.loss_history == dense.loss_history
    for got, want in zip(state_arrays(rowwise), state_arrays(dense)):
        assert np.array_equal(got, want)
