"""Dynamic micro-batching: flush on full batch or on queue deadline.

The serving tier amortizes per-batch costs (collective launch latency,
kernel launches) by grouping concurrent requests, at the price of
held-back latency for the requests that arrive first.  The policy here
is the standard dynamic batcher (TorchServe / Triton semantics): a
batch opens when a request arrives into an empty queue and closes at
whichever comes first of

- **flush-on-full** — the ``max_batch_size``-th request arrives, or
- **flush-on-deadline** — ``max_delay_s`` elapses since the batch
  opened.

This is an offline replay over a complete arrival trace, so the
deadline flush needs no timer machinery: a batch whose deadline passes
before the next arrival simply closes at its deadline.  The deadline
is exclusive — a batch opened at ``t`` accepts arrivals in
``[t, t + max_delay_s)``, and a request landing exactly on the
deadline starts the next batch (the timer has already fired).  With
``max_delay_s=0`` this degrades to no batching at all: every request
is served as a singleton, even under simultaneous arrivals.
The rule is stated once, in :func:`cut_batches`, for
:meth:`MicroBatcher.form_batches` and the healthy serving replay.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.serving.workload import Request, RequestTrace


def cut_batches(
    arrival: Sequence[float], max_batch_size: int, max_delay_s: float
) -> Iterator[Tuple[int, int, float, bool]]:
    """``(start, stop, ready_s, full)`` of each batch of the sorted
    ``arrival``, in order, found with one bisect: a batch flushes on
    full at its last row if the ``max_batch_size``-th row arrives
    before the deadline (or ``max_batch_size == 1``), else at it."""
    n, start = len(arrival), 0
    while start < n:
        deadline = arrival[start] + max_delay_s
        cap = start + max_batch_size
        stop = bisect_left(arrival, deadline, start + 1, min(cap, n))
        if stop == cap:
            yield start, stop, arrival[stop - 1], True
        else:
            yield start, stop, deadline, False
        start = stop


@dataclass(frozen=True)
class MicroBatch:
    """A group of requests served as one unit."""

    requests: RequestTrace  # a sequence of requests is converted
    ready_s: float  # when the batch closed (full or deadline)

    def __post_init__(self) -> None:
        if len(self.requests) == 0:
            raise ValueError("a micro-batch must contain >= 1 request")
        object.__setattr__(self, "requests", RequestTrace.of(self.requests))
        last_arrival = self.requests.arrival_s.max()
        if self.ready_s < last_arrival:
            raise ValueError(
                f"batch cannot close ({self.ready_s}) before its last "
                f"request arrives ({last_arrival})"
            )

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def keys(self) -> np.ndarray:
        """All embedding row ids the batch needs (with duplicates)."""
        return self.requests.keys.reshape(-1)

    def batching_delay_s(self) -> float:
        """Mean time requests spent waiting for the batch to close."""
        return float(np.mean(self.ready_s - self.requests.arrival_s))


class MicroBatcher:
    """Groups an arrival-ordered request trace into micro-batches.

    Examples
    --------
    >>> from repro.serving.workload import Request
    >>> import numpy as np
    >>> reqs = [Request(i, 0.001 * i, np.array([i])) for i in range(3)]
    >>> batches = MicroBatcher(max_batch_size=2,
    ...                        max_delay_s=1.0).form_batches(reqs)
    >>> [b.size for b in batches], batches[0].ready_s  # flush on full
    ([2, 1], 0.001)
    """

    def __init__(self, max_batch_size: int, max_delay_s: float):
        if not max_batch_size >= 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if not max_delay_s >= 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.max_batch_size = max_batch_size
        self.max_delay_s = max_delay_s

    def form_batches(self, requests: Sequence[Request]) -> List[MicroBatch]:
        ordered = RequestTrace.of(requests).sorted()
        arrival = ordered.arrival_s.tolist()
        cuts = cut_batches(arrival, self.max_batch_size, self.max_delay_s)
        return [MicroBatch(ordered[lo:hi], ready_s=t) for lo, hi, t, _ in cuts]
