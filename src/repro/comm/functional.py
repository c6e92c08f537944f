"""Functional collectives: real data movement between simulated ranks.

These functions implement the *semantics* of the collectives (what NCCL
computes, not how fast).  State lives in plain mappings keyed by global
rank; each call validates that the provided buffers cover exactly the
group's membership, performs the exchange with numpy, and returns new
per-rank results.  They are intentionally side-effect free so tests can
compose them freely.

SPTT's correctness story (Table 3) rests on these: the flat pipeline
and the tower-transformed pipeline are both expressed in terms of these
primitives, and their end-to-end outputs are asserted *bit-identical*.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.comm.process_group import ProcessGroup


def check_membership(group: ProcessGroup, buffers: Mapping[int, object]) -> None:
    provided = set(buffers)
    expected = set(group.ranks)
    if provided != expected:
        missing = sorted(expected - provided)
        extra = sorted(provided - expected)
        raise ValueError(
            "buffers do not match process group membership: "
            f"missing ranks {missing}, unexpected ranks {extra}"
        )


def alltoall(
    group: ProcessGroup, inputs: Mapping[int, Sequence[np.ndarray]]
) -> Dict[int, List[np.ndarray]]:
    """List-form AlltoAll.

    ``inputs[r]`` is a list of ``W`` arrays where element ``j`` is
    destined for the group's ``j``-th member.  Returns ``out`` with
    ``out[r][j]`` = the slice the ``j``-th member addressed to ``r``.

    >>> import numpy as np
    >>> from repro.hardware import Cluster
    >>> from repro.comm.process_group import global_group
    >>> g = global_group(Cluster(1, 2))
    >>> out = alltoall(g, {0: [np.array([0]), np.array([1])],
    ...                    1: [np.array([10]), np.array([11])]})
    >>> [int(a[0]) for a in out[0]], [int(a[0]) for a in out[1]]
    ([0, 10], [1, 11])
    """
    check_membership(group, inputs)
    W = group.world_size
    for r, bufs in inputs.items():
        if len(bufs) != W:
            raise ValueError(
                f"rank {r} provided {len(bufs)} buckets for world size {W}"
            )
    out: Dict[int, List[np.ndarray]] = {}
    for i, r in enumerate(group.ranks):
        out[r] = [np.asarray(inputs[src][i]) for src in group.ranks]
    return out


def alltoall_single(
    group: ProcessGroup, inputs: Mapping[int, np.ndarray], axis: int = 0
) -> Dict[int, np.ndarray]:
    """Tensor-form AlltoAll (``dist.all_to_all_single`` analogue).

    Each rank's array is split into ``W`` equal chunks along ``axis``;
    chunk ``j`` goes to member ``j``; received chunks are concatenated
    in group order along the same axis.
    """
    check_membership(group, inputs)
    W = group.world_size
    split: Dict[int, List[np.ndarray]] = {}
    for r, arr in inputs.items():
        arr = np.asarray(arr)
        if arr.shape[axis] % W != 0:
            raise ValueError(
                f"rank {r}: axis {axis} length {arr.shape[axis]} not divisible "
                f"by world size {W}"
            )
        split[r] = np.split(arr, W, axis=axis)
    exchanged = alltoall(group, split)
    return {r: np.concatenate(chunks, axis=axis) for r, chunks in exchanged.items()}


def allreduce(
    group: ProcessGroup, inputs: Mapping[int, np.ndarray]
) -> Dict[int, np.ndarray]:
    """Sum-AllReduce: every rank receives the elementwise sum."""
    check_membership(group, inputs)
    arrays = [np.asarray(inputs[r]) for r in group.ranks]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ValueError(f"allreduce requires matching shapes, got {shapes}")
    total = np.sum(np.stack(arrays, axis=0), axis=0)
    return {r: total.copy() for r in group.ranks}


def reducescatter(
    group: ProcessGroup, inputs: Mapping[int, np.ndarray], axis: int = 0
) -> Dict[int, np.ndarray]:
    """Sum-ReduceScatter: rank ``j`` receives the summed ``j``-th chunk."""
    check_membership(group, inputs)
    W = group.world_size
    arrays = [np.asarray(inputs[r]) for r in group.ranks]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ValueError(f"reducescatter requires matching shapes, got {shapes}")
    shape = shapes.pop()
    if shape[axis] % W != 0:
        raise ValueError(
            f"axis {axis} length {shape[axis]} not divisible by world size {W}"
        )
    total = np.sum(np.stack(arrays, axis=0), axis=0)
    chunks = np.split(total, W, axis=axis)
    return {r: chunks[i].copy() for i, r in enumerate(group.ranks)}


def allgather(
    group: ProcessGroup, inputs: Mapping[int, np.ndarray], axis: int = 0
) -> Dict[int, np.ndarray]:
    """AllGather: every rank receives the group-order concatenation."""
    check_membership(group, inputs)
    gathered = np.concatenate(
        [np.asarray(inputs[r]) for r in group.ranks], axis=axis
    )
    return {r: gathered.copy() for r in group.ranks}


def broadcast(
    group: ProcessGroup, inputs: Mapping[int, np.ndarray], src: int
) -> Dict[int, np.ndarray]:
    """Broadcast the source rank's buffer to every member."""
    check_membership(group, inputs)
    if src not in group:
        raise KeyError(f"broadcast source {src} not in group {group.ranks}")
    payload = np.asarray(inputs[src])
    return {r: payload.copy() for r in group.ranks}
