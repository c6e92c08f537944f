"""LRU embedding cache with hit-rate accounting.

Embedding lookups dominate recommendation inference traffic, and their
popularity is heavily skewed — so a modest cache of hot rows on the
serving tier absorbs most of the remote-fetch bytes (FlexEMR,
arXiv:2410.12794).  This module models exactly that: an LRU over
embedding row ids with hit/miss counters.  It stores no vectors — the
serving simulator only needs *which* rows must cross the network, not
their values.

:class:`LRUEmbeddingCache` is the one implementation every serving
path runs.  It probes, touches, admits and evicts a whole batch in a
handful of vectorized numpy operations over two int32 arrays — an
append-only recency log and a table mapping each row id to its entry
in that log — so its state grows with the cache's capacity and the
largest row id, not with the number of requests replayed.  Its
accounting is held bit for bit to a per-key ``OrderedDict`` walk that
the test suite keeps as the executable specification.

Row ids are int32 values: every operation rejects an id that is
negative or above ``2**31 - 1`` with a ``ValueError``.  A
``capacity_rows`` of 0 disables caching (every lookup misses and
nothing is admitted), which is the natural control arm for cache
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class CacheStats:
    """Cumulative lookup accounting."""

    hits: int
    misses: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


_INT32_MAX = np.iinfo(np.int32).max
# The log is rebuilt with this much room per live entry, so a compaction
# (a copy of the live entries) is paid for by the appends that fill it.
_LOG_SLACK = 4
# The id table grows by this factor, or to the largest id if that is more.
_TABLE_GROWTH = 1.5


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct ids of a validated, non-empty int64 batch, as
    int32: one int32 sort, then a neighbour compare.  This is the
    hottest line of the serving replay."""
    ordered = ids.astype(np.int32)
    ordered.sort()
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


class _LRUCacheBase:
    """Shared contract: counters, warm-start seeding, validation."""

    def __init__(self, capacity_rows: int):
        if capacity_rows < 0:
            raise ValueError(
                f"capacity_rows must be >= 0, got {capacity_rows}"
            )
        self.capacity_rows = capacity_rows
        self._hits = 0
        self._misses = 0

    @staticmethod
    def _as_ids(keys: np.ndarray) -> np.ndarray:
        """Flatten to int64 row ids in ``[0, 2**31 - 1]`` — every cache
        enforces the same domain on every operation.  Seen as uint64 a
        negative id is above ``2**63``, so one ``max`` checks both ends."""
        arr = np.asarray(keys, dtype=np.int64).reshape(-1)
        if arr.size and arr.view(np.uint64).max() > _INT32_MAX:
            bad = arr[(arr < 0) | (arr > _INT32_MAX)][0]
            raise ValueError(
                "embedding row ids must be non-negative and at most "
                f"2**31 - 1, got {bad}"
            )
        return arr

    @property
    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses)

    def lookup(self, keys: np.ndarray) -> Tuple[int, np.ndarray]:
        raise NotImplementedError

    def admit(self, keys: np.ndarray) -> None:
        raise NotImplementedError

    def contents(self) -> np.ndarray:
        """Cached ids in LRU -> MRU order (eviction order)."""
        raise NotImplementedError

    def probe(self, keys: np.ndarray) -> Tuple[int, np.ndarray]:
        """Fused :meth:`lookup` + admit-the-misses.

        Exactly equivalent to ``hits, misses = lookup(keys)`` followed
        by ``admit(misses)`` — the sequence every served batch
        performs.  Subclasses may override it with a single-pass
        implementation; the accounting must stay identical.
        """
        hits, misses = self.lookup(keys)
        self.admit(misses)
        return hits, misses

    def prefill(self, keys: np.ndarray) -> int:
        """Warm-start: seed rows without touching hit/miss accounting.

        ``keys`` are expected hottest-first (the order
        :func:`repro.checkpoint.hottest_rows` produces); they are
        admitted in reverse so the hottest rows end up most-recently
        used and are evicted last.  Duplicates are dropped
        (order-preservingly, first occurrence wins) *before* truncating
        to ``capacity_rows``, so the return value is the number of rows
        actually inserted — a duplicated key neither wastes a capacity
        slot nor inflates the count.
        """
        flat = self._as_ids(keys)
        if self.capacity_rows == 0:
            return 0
        _, first = np.unique(flat, return_index=True)
        kept = flat[np.sort(first)][: self.capacity_rows]
        self.admit(kept[::-1])
        return len(kept)


class LRUEmbeddingCache(_LRUCacheBase):
    """Vectorized least-recently-used set of embedding row ids.

    Two int32 arrays hold the recency state, with all the work in
    whole-batch numpy operations:

    - the **log** lists row ids in touch order.  Each touch appends the
      id; the live window is ``log[head:tail]``.
    - the **table**, indexed by row id, holds the position of the id's
      latest log entry, or ``-1`` when the id is not cached.  An entry
      at position ``p`` is current iff ``table[log[p]] == p``; a
      re-touched or evicted id leaves a stale entry behind.

    Eviction walks the log from ``head`` and drops current entries —
    the exact LRU order.  When the log is full it compacts: the current
    entries move to the front, renumbered ``0 .. n-1`` in log order,
    and the log is rebuilt with room for ``_LOG_SLACK`` times its live
    entries plus the incoming batch.  The log therefore never exceeds
    ``_LOG_SLACK * (capacity_rows + largest batch)`` entries, and the
    table, which grows by ``_TABLE_GROWTH`` or to the largest id seen,
    never exceeds ``_TABLE_GROWTH * (largest id + 1)``.

    Lookups dedupe the batch and touch hits in ascending id order,
    admits touch each id at its last occurrence in the admit order, and
    eviction drops the least recent first — the per-key ``OrderedDict``
    walk's accounting, bit for bit.

    Examples
    --------
    >>> import numpy as np
    >>> cache = LRUEmbeddingCache(capacity_rows=2)
    >>> hits, misses = cache.lookup(np.array([1, 2]))
    >>> hits, misses.tolist()
    (0, [1, 2])
    >>> cache.admit(misses)
    >>> cache.lookup(np.array([2, 3]))[0]  # 2 hits, 3 misses
    1
    >>> cache.stats.hit_rate
    0.25
    """

    def __init__(self, capacity_rows: int):
        super().__init__(capacity_rows)
        self._stamp_of = np.empty(0, dtype=np.int32)
        self._log = np.empty(0, dtype=np.int32)
        self._head = 0
        self._tail = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _current(self, start: int, stop: int) -> np.ndarray:
        """Which entries of ``log[start:stop]`` are current."""
        positions = np.arange(start, stop, dtype=np.int32)
        return self._stamp_of[self._log[start:stop]] == positions

    def contents(self) -> np.ndarray:
        window = self._log[self._head : self._tail]
        return window[self._current(self._head, self._tail)].astype(np.int64)

    # ------------------------------------------------------------------
    def _grow_table(self, max_key: int) -> None:
        size = len(self._stamp_of)
        if max_key >= size:
            grown = np.full(
                max(int(_TABLE_GROWTH * size), max_key + 1), -1, dtype=np.int32
            )
            grown[:size] = self._stamp_of
            self._stamp_of = grown

    def _append_log(self, *parts: np.ndarray) -> None:
        """Touch each id of ``parts``, in order: its stamp is its new
        position in the log."""
        incoming = sum(part.size for part in parts)
        if self._tail + incoming > len(self._log):
            self._compact_log(incoming)
        for part in parts:
            end = self._tail + part.size
            self._log[self._tail : end] = part
            self._stamp_of[part] = np.arange(self._tail, end, dtype=np.int32)
            self._tail = end

    def _compact_log(self, incoming: int) -> None:
        """Move the current entries to the front, renumbered in log
        order, leaving ``_LOG_SLACK`` times room for them and
        ``incoming`` more."""
        live = self._log[self._head : self._tail][
            self._current(self._head, self._tail)
        ]
        room = _LOG_SLACK * (live.size + incoming)
        if room > _INT32_MAX:
            raise ValueError(
                f"{live.size + incoming} live cache entries need log "
                "positions beyond int32"
            )
        if room > len(self._log):
            self._log = np.empty(room, dtype=np.int32)
        self._log[: live.size] = live
        self._stamp_of[live] = np.arange(live.size, dtype=np.int32)
        self._head, self._tail = 0, live.size

    def _evict(self, count: int) -> None:
        """Drop the ``count`` least-recently-touched cached ids."""
        while count > 0:
            end = self._head + min(max(256, 2 * count), self._tail - self._head)
            current = np.flatnonzero(self._current(self._head, end))
            if len(current) > count:
                # The chunk straddles the quota: stop at the count-th
                # current entry.
                current = current[:count]
                end = self._head + int(current[-1]) + 1
            victims = self._log[self._head + current]
            self._head = end
            self._stamp_of[victims] = -1
            self._size -= len(victims)
            count -= len(victims)

    def _probe(self, keys: np.ndarray, admit: bool) -> Tuple[int, np.ndarray]:
        """Look the batch up; with ``admit``, also admit its misses."""
        arr = self._as_ids(keys)
        if arr.size == 0:
            return 0, arr
        unique = _sorted_unique(arr)
        if self.capacity_rows == 0:
            self._misses += unique.size
            return 0, unique.astype(np.int64)
        self._grow_table(int(unique[-1]))
        present = self._stamp_of[unique] >= 0
        hit_keys, misses = unique[present], unique[~present]
        if admit:
            self._append_log(hit_keys, misses)
            self._size += misses.size
        else:
            self._append_log(hit_keys)
        self._hits += hit_keys.size
        self._misses += misses.size
        if self._size > self.capacity_rows:
            self._evict(self._size - self.capacity_rows)
        return int(hit_keys.size), misses.astype(np.int64)

    # ------------------------------------------------------------------
    def lookup(self, keys: np.ndarray) -> Tuple[int, np.ndarray]:
        """Probe the cache with a batch of row ids.

        Duplicate ids within the batch are deduplicated first — a
        served batch fetches each distinct row once.  Hits are touched
        (moved to most-recent, in ascending id order); misses are
        returned for the caller to fetch and then :meth:`admit`.

        Returns ``(num_hits, miss_keys)``.
        """
        return self._probe(keys, admit=False)

    def admit(self, keys: np.ndarray) -> None:
        """Insert fetched rows, evicting least-recently-used overflow."""
        arr = self._as_ids(keys)
        if self.capacity_rows == 0 or arr.size == 0:
            return
        if arr.size == 1 or bool(np.all(arr[1:] > arr[:-1])):
            # Already strictly increasing — the lookup()-misses fast
            # path; positional order is last-occurrence order.
            ordered = arr
            max_key = int(arr[-1])
        else:
            # A key admitted twice in one batch ends most-recent at its
            # *last* occurrence; order the unique keys by it.
            rev_unique, first_in_reversed = np.unique(
                arr[::-1], return_index=True
            )
            last_pos = arr.size - 1 - first_in_reversed
            ordered = rev_unique[np.argsort(last_pos)]
            max_key = int(rev_unique[-1])
        self._grow_table(max_key)
        self._size += int(np.count_nonzero(self._stamp_of[ordered] < 0))
        self._append_log(ordered)
        if self._size > self.capacity_rows:
            self._evict(self._size - self.capacity_rows)

    def probe(self, keys: np.ndarray) -> Tuple[int, np.ndarray]:
        """Fused lookup + admit-the-misses: one dedup, one table probe,
        one log append.  Accounting-identical to the two-call sequence
        (the reference touches hits in ascending id order, then admits
        the misses in ascending id order — exactly the append of
        ``[hit_keys, miss_keys]``)."""
        return self._probe(keys, admit=True)
