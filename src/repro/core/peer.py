"""Peer geometry for SPTT (§3.1.1).

Definitions, for ``G`` GPUs, ``L`` GPUs per host, ``T = G // L`` towers
(one per host in the canonical configuration):

- the **peers** of rank ``g`` are all ranks ``g'`` with
  ``g' % L == g % L`` — one per host, sharing a local index;
- the **peer order** is the total order of ranks sorted by the key
  ``(g % L, g // L)``: all local-index-0 ranks by host, then all
  local-index-1 ranks, and so on.  (The paper's text writes the key as
  ``(g % T, g // L)``; with its own worked example — G=4, L=2, T=2,
  order (0, 2, 1, 3) — and its formal peer definition ``g_i % L ==
  g_j % L``, the first component must be the local index ``g % L``;
  the two coincide in the example because T == L there.)

SPTT's step (c) permutes each rank's received-source axis into peer
order so that step (d)'s intra-host AlltoAll leaves every rank holding
contiguous blocks per peer group.
"""

from __future__ import annotations

from typing import Tuple


def peer_order(world_size: int, gpus_per_host: int) -> Tuple[int, ...]:
    """Ranks sorted by ``(g % L, g // L)``.

    >>> peer_order(4, 2)  # the paper's Figure 7 example
    (0, 2, 1, 3)
    >>> peer_order(8, 4)
    (0, 4, 1, 5, 2, 6, 3, 7)
    """
    if world_size <= 0 or gpus_per_host <= 0:
        raise ValueError("world_size and gpus_per_host must be positive")
    if world_size % gpus_per_host != 0:
        raise ValueError(
            f"world size {world_size} not divisible by gpus/host {gpus_per_host}"
        )
    return tuple(
        sorted(range(world_size), key=lambda g: (g % gpus_per_host, g // gpus_per_host))
    )
