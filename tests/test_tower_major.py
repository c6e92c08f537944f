"""The single-process DMT step gathers the batch tower-major.

``DMTDLRM`` / ``DMTDCN`` ``forward(dense, ids)`` asks the embedding
collection for one contiguous (B, F_t, N) block per tower, and every
tower writes its input gradient into its block of one tower-major
gradient buffer.  The reference here is the same step in feature
order, built from public pieces only: the (B, F, N) lookup, each tower
on its group's slice of it, the overarch and ``top``, and the
collection's backward of the (B, F, N) gradient.  On one batch the two
must agree bit for bit — logits, the dense gradient and every table's
row-wise gradient.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FeaturePartition
from repro.models import DMTDCN, DMTDLRM, tiny_table_configs
from repro.models.configs import tiny_dlrm_arch
from repro.nn.embedding import tower_blocks
from tests.util import tiny_dcn_arch

N, B, DENSE, ROWS = 8, 7, 4, 5  # few rows: every table repeats some
SCRAMBLED = [[3, 0], [5, 1, 4], [2]]
CONFIGS = {
    "dlrm/c1p0": (DMTDLRM, {"c": 1, "p": 0}),
    "dlrm/c1p1": (DMTDLRM, {"c": 1, "p": 1}),
    "dlrm/c0p1": (DMTDLRM, {"c": 0, "p": 1}),
    "dlrm/pass_through": (DMTDLRM, {"pass_through": True}),
    "dcn/pass_through": (DMTDCN, {"pass_through": True}),
    "dcn/projecting": (DMTDCN, {}),
}


def make(config, groups, pooling=1, seed=0):
    cls, knobs = CONFIGS[config]
    partition = FeaturePartition.from_groups(groups)
    tables = tiny_table_configs(partition.num_features, ROWS, N, pooling)
    arch = tiny_dlrm_arch(N) if cls is DMTDLRM else tiny_dcn_arch(N)
    return cls(
        DENSE, tables, partition, arch, tower_dim=4,
        rng=np.random.default_rng(seed), **knobs,
    )


def inputs(model, pooling, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((B, DENSE)),
        rng.integers(0, ROWS, size=(B, model.num_sparse, pooling)),
        rng.standard_normal(B),
    )


def tower_major_step(model, dense, ids, g_logits):
    model.zero_grad()
    logits = model(dense, ids)
    return logits, model.backward(g_logits), pending(model)


def seam_step(model, dense, ids, g_logits):
    """The feature-order reference: towers on (B, F, N) slices, their
    input gradients scattered back into one (B, F, N) buffer."""
    model.zero_grad()
    embs = model.embeddings(ids)
    groups = [list(g) for g in model.partition.groups]
    outs = [tower(embs[:, g]) for tower, g in zip(model.towers, groups)]
    logits = model.top(model.overarch_features(dense, outs)).reshape(-1)
    g_dense, tower_grads = model.overarch_backward(
        model.top.backward(g_logits.reshape(-1, 1))
    )
    g_embs = np.empty((len(dense), model.num_sparse, N))
    for tower, g, group in zip(model.towers, tower_grads, groups):
        g_embs[:, group] = tower.backward(g)
    model.embeddings.backward(g_embs)
    return logits, g_dense, pending(model)


def pending(model):
    """Every pending gradient as bytes; tables as their RowwiseGrad."""
    out = {}
    for name, p in model.named_parameters():
        if p.row_grad is not None:
            out[name] = (p.row_grad.rows.tobytes(), p.row_grad.grads.tobytes())
        elif p.has_grad:
            out[name] = p.grad.tobytes()
    return out


def assert_same_bits(got, want):
    logits, g_dense, grads = got
    assert logits.tobytes() == want[0].tobytes()
    assert g_dense.tobytes() == want[1].tobytes()
    assert grads.keys() == want[2].keys()
    for name in grads:
        assert grads[name] == want[2][name], name


@pytest.mark.parametrize("pooling", [1, 3])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_tower_major_step_equals_feature_order_seam(config, pooling):
    model = make(config, SCRAMBLED, pooling)
    batch = inputs(model, pooling, seed=1)
    want = seam_step(model, *batch)
    assert any(name.startswith("embeddings.") for name in want[2])
    assert_same_bits(tower_major_step(model, *batch), want)


def test_collection_returns_tower_blocks_in_group_order():
    model = make("dlrm/c1p0", SCRAMBLED)
    _, ids, _ = inputs(model, 1, seed=2)
    embs = model.embeddings(ids)
    buffer = model.embeddings(ids, SCRAMBLED)
    assert buffer.shape == (B * model.num_sparse, N)
    for group, block in zip(SCRAMBLED, tower_blocks(buffer, SCRAMBLED)):
        assert block.base is buffer and block.flags.c_contiguous
        assert block.tobytes() == embs[:, group].tobytes()


@pytest.mark.parametrize("groups", [[[0, 1], [0, 2]], [[0, 1]], [[0, 1, 2, 3]]])
def test_collection_rejects_groups_that_do_not_partition(groups):
    model = make("dlrm/c1p0", [[0, 1], [2]])
    with pytest.raises(ValueError, match="groups must partition the 3 features"):
        model.embeddings(np.zeros((2, 3), dtype=int), groups)


def test_tower_major_backward_checks_its_layout():
    model = make("dlrm/c1p0", SCRAMBLED)
    _, ids, _ = inputs(model, 1, seed=3)
    model.embeddings(ids, SCRAMBLED)
    with pytest.raises(ValueError, match="grad must be tower-major"):
        model.embeddings.backward(np.ones((B, model.num_sparse, N)))
    assert not any(t.weight.has_grad for t in model.embeddings.tables)


@st.composite
def partitions(draw):
    """Random partitions, with all-singleton and one-group ones drawn
    as often as the rest."""
    f = draw(st.integers(1, 7))
    order = draw(st.permutations(range(f)))
    shape = draw(st.sampled_from(["singletons", "one", "random"]))
    if shape == "singletons":
        return [[x] for x in order]
    if shape == "one":
        return [list(order)]
    cuts = sorted(draw(st.sets(st.integers(1, max(f - 1, 1)))) - {f})
    bounds = [0, *cuts, f]
    return [list(order[a:b]) for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=40, deadline=None)
@given(
    groups=partitions(),
    config=st.sampled_from(sorted(CONFIGS)),
    pooling=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_tower_major_equals_seam_on_random_partitions(
    groups, config, pooling, seed
):
    model = make(config, groups, pooling, seed)
    batch = inputs(model, pooling, seed)
    assert_same_bits(tower_major_step(model, *batch), seam_step(model, *batch))


@pytest.mark.parametrize("config", ["dlrm/c1p0", "dcn/projecting"])
def test_overarch_rejects_a_missing_tower_output(config):
    """DMT-DLRM writes tower outputs into a preallocated interaction
    input: one output short must raise, not leave a slot unwritten."""
    model = make(config, SCRAMBLED)
    dense, ids, _ = inputs(model, 1, seed=5)
    blocks = tower_blocks(model.embeddings(ids, SCRAMBLED), SCRAMBLED)
    outs = [tower(b) for tower, b in zip(model.towers, blocks)]
    model.overarch_features(dense, outs)
    with pytest.raises(ValueError):
        model.overarch_features(dense, outs[:-1])
