"""Synthetic inference request streams: Poisson arrivals, hot-key skew,
and serving-scenario shapes (diurnal load, flash crowds, hot-set churn).

Recommendation inference traffic has two load-bearing statistical
properties this generator reproduces:

- **Poisson arrivals** at a configurable offered QPS — inter-arrival
  gaps are exponential, so instantaneous load is bursty and queueing
  behaviour (the p99 story) is non-trivial even below saturation;
- **hot-key skew** — embedding-row popularity follows a power law
  (a handful of users/items dominate traffic), which is exactly what
  makes an LRU embedding cache on the dense tier effective (the
  FlexEMR observation, arXiv:2410.12794).

On top of the stationary stream, three scenario knobs model what a
replica fleet actually faces in production (the DisaggRec provisioning
question, arXiv:2212.00939):

- ``scenario="diurnal"`` — the offered rate follows a sinusoid,
  ``qps * (1 + amplitude * sin(2*pi*t / period))``: the fleet must
  ride a peak-to-trough swing instead of a flat average;
- ``scenario="flash"`` — a flash crowd multiplies the rate by
  ``flash_factor`` inside ``[flash_start_s, flash_start_s +
  flash_duration_s)``: a burst the router has to spread;
- ``churn_keys_per_s`` — the popularity *ranking* drifts through the
  id space at a constant speed, so yesterday's hot set goes cold and
  the caches must re-learn it (composable with any scenario).

Non-stationary arrivals are sampled by thinning a homogeneous Poisson
process at the peak rate, so every scenario is driven by one seeded
generator and a stream stays bit-reproducible from its config.

Key popularity is ``p(k) ~ 1 / (k + 1)^skew`` over a ``key_space`` of
embedding rows; ``skew=0`` degenerates to uniform traffic (the
cache-hostile worst case).

**Rank sampling.**  A rank is ``searchsorted(cdf, u)`` of one uniform
draw, found through a guide table instead of a binary search.  ``[0, 1)``
is cut into ``G`` equal buckets — ``G`` the power of two at or above
``2 * key_space``, so ``u * G`` and ``cdf * G`` are exact and flooring
them orders draws and CDF entries alike — and ``guide[b]`` counts the CDF
entries in buckets below ``b``.  Invariant: ``guide[b] <= rank <=
guide[b + 1]`` for every ``u`` in bucket ``b``; a short forward scan
between the bounds finishes the lookup.  Steep skew packs thousands of
entries into one bucket: draws landing there use ``np.searchsorted``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import eq
from typing import Any, Iterator, Sequence

import numpy as np

#: Arrival-process shapes the generator understands.
SCENARIOS = ("poisson", "diurnal", "flash")
#: Longest guided scan; draws in a fuller bucket use ``np.searchsorted``.
_MAX_SCAN = 8
#: Draws per pass of the rank sampler: a pass's arrays stay in L2.
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class Request:
    """One inference request: arrival time plus the embedding rows it
    needs (one id per sparse feature lookup)."""

    req_id: int
    arrival_s: float
    keys: np.ndarray  # (num_lookups,) int64 embedding row ids

    def __post_init__(self) -> None:
        if not 0 <= self.arrival_s < math.inf:  # NaN fails both compares
            raise ValueError(f"arrival must be finite and >= 0, got {self.arrival_s}")

    def __eq__(self, other: object) -> bool:
        # The generated dataclass __eq__ chokes on ndarray fields.
        if not isinstance(other, Request):
            return NotImplemented
        return (
            self.req_id == other.req_id
            and self.arrival_s == other.arrival_s
            and np.array_equal(self.keys, other.keys)
        )

    def __hash__(self) -> int:
        # Defining __eq__ suppresses the dataclass hash; restore one
        # consistent with it so requests can key sets/dicts.
        return hash((self.req_id, self.arrival_s, self.keys.tobytes()))


class RequestTrace(Sequence):
    """A request trace as three parallel arrays — ``arrival_s (n,)``,
    ``keys (n, lookups)`` int64, ``req_id (n,)`` — that is also a
    ``Sequence[Request]``: an int index builds the :class:`Request` view
    of a row, a slice or index array the sub-trace, and it equals a
    trace or a list of requests with the same rows.  Validated once, on
    construction; sub-traces of a valid trace skip that.
    """

    __slots__ = ("arrival_s", "keys", "req_id")

    def __init__(self, arrival_s: Any, keys: Any, req_id: Any = None):
        arrival_s = np.asarray(arrival_s, dtype=np.float64)
        keys = np.asarray(keys)
        req_id = np.arange(len(arrival_s)) if req_id is None else np.asarray(req_id)
        if keys.ndim != 2 or not arrival_s.shape == req_id.shape == keys.shape[:1]:
            shapes = arrival_s.shape, req_id.shape, keys.shape
            raise ValueError(f"need (n,) arrivals, ids and (n, k) keys, got {shapes}")
        if not np.issubdtype(keys.dtype, np.integer):
            raise ValueError(f"keys must be integer row ids, got {keys.dtype}")
        if keys.shape[1] < 1:
            raise ValueError("every request needs >= 1 key")
        if keys.size and keys.min() < 0:
            raise ValueError("embedding row ids must be non-negative")
        if not (np.isfinite(arrival_s) & (arrival_s >= 0)).all():
            raise ValueError("arrivals must be finite and >= 0")
        self.arrival_s, self.req_id = arrival_s, req_id
        self.keys = keys.astype(np.int64, copy=False)

    @classmethod
    def of(cls, requests: "Sequence[Request]") -> "RequestTrace":
        """``requests`` as a trace (itself if it already is one)."""
        if isinstance(requests, cls):
            return requests
        keys = [np.asarray(r.keys) for r in requests]
        return cls(
            [r.arrival_s for r in requests],
            np.stack(keys) if keys else np.empty((0, 1), dtype=np.int64),
            [r.req_id for r in requests],
        )

    @classmethod
    def view(cls, arrival_s, keys, req_id) -> "RequestTrace":
        """Rows that are already valid (taken from a trace): no checks."""
        trace = object.__new__(cls)
        trace.arrival_s, trace.keys, trace.req_id = arrival_s, keys, req_id
        return trace

    def __len__(self) -> int:
        return len(self.arrival_s)

    def __getitem__(self, index: Any) -> Any:
        arrival_s, keys = self.arrival_s[index], self.keys[index]
        if isinstance(index, (int, np.integer)):
            return Request(int(self.req_id[index]), float(arrival_s), keys)
        return self.view(arrival_s, keys, self.req_id[index])

    def __iter__(self) -> Iterator[Request]:
        return map(Request, self.req_id.tolist(), self.arrival_s.tolist(), self.keys)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RequestTrace):
            mine = self.req_id, self.arrival_s, self.keys
            theirs = other.req_id, other.arrival_s, other.keys
            return all(map(np.array_equal, mine, theirs))
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def sorted(self) -> "RequestTrace":
        """Stable sort by arrival time (ties keep trace order)."""
        if (self.arrival_s[1:] >= self.arrival_s[:-1]).all():
            return self
        return self[np.argsort(self.arrival_s, kind="stable")]


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of one synthetic request stream."""

    qps: float = 1000.0
    num_requests: int = 1000
    num_lookups: int = 26  # embedding rows per request (Criteo: 26)
    key_space: int = 100_000  # distinct embedding rows in the universe
    skew: float = 1.0  # power-law exponent; 0 = uniform
    seed: int = 0
    # Scenario shaping (see the module docstring).
    scenario: str = "poisson"
    diurnal_period_s: float = 1.0
    diurnal_amplitude: float = 0.5  # peak swing as a fraction of qps
    flash_start_s: float = 0.0
    flash_duration_s: float = 0.0
    flash_factor: float = 5.0  # rate multiplier inside the burst
    churn_keys_per_s: float = 0.0  # popularity-ranking drift speed

    def __post_init__(self) -> None:
        if not self.qps > 0:
            raise ValueError(f"qps must be positive, got {self.qps}")
        if not self.num_requests >= 1:
            raise ValueError("num_requests must be >= 1")
        if not self.num_lookups >= 1:
            raise ValueError("num_lookups must be >= 1")
        if not self.key_space >= 1:
            raise ValueError("key_space must be >= 1")
        if not self.skew >= 0:
            raise ValueError(f"skew must be >= 0, got {self.skew}")
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of "
                f"{SCENARIOS}"
            )
        if not self.diurnal_period_s > 0:
            raise ValueError("diurnal_period_s must be positive")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1], got "
                f"{self.diurnal_amplitude}"
            )
        if not (self.flash_start_s >= 0 and self.flash_duration_s >= 0):
            raise ValueError("flash window must be non-negative")
        if not self.flash_factor >= 1.0:
            raise ValueError(
                f"flash_factor must be >= 1, got {self.flash_factor}"
            )
        if self.scenario == "flash" and self.flash_duration_s == 0:
            raise ValueError(
                "scenario 'flash' needs flash_duration_s > 0"
            )
        if not self.churn_keys_per_s >= 0:
            raise ValueError("churn_keys_per_s must be >= 0")


class RequestStream:
    """Seeded generator of one request stream.

    Examples
    --------
    >>> stream = RequestStream(WorkloadConfig(qps=100.0, num_requests=4))
    >>> reqs = stream.generate()
    >>> len(reqs), reqs[0].keys.shape
    (4, (26,))
    >>> reqs == stream.generate()  # deterministic
    True
    """

    def __init__(self, config: WorkloadConfig):
        self.config = config
        # Popularity CDF: rank-ordered power law over the key space.
        weights = 1.0 / np.power(
            np.arange(1, config.key_space + 1, dtype=np.float64), config.skew
        )
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        # Guide table of the rank sampler (see the module docstring).
        self._buckets = 1 << (2 * config.key_space - 1).bit_length()
        filled = np.bincount(
            (self._cdf * self._buckets).astype(np.int64), minlength=self._buckets + 1
        )
        self._guide = np.zeros(self._buckets + 2, dtype=np.int32)
        np.cumsum(filled, out=self._guide[1:])
        # CDF entries per bucket, capped one past the longest scan.
        self._width = np.minimum(filled, _MAX_SCAN + 1).astype(np.uint8)

    # ------------------------------------------------------------------
    def rate_at(self, t: np.ndarray) -> np.ndarray:
        """Instantaneous offered rate (requests/s) at time ``t``."""
        cfg = self.config
        t = np.asarray(t, dtype=np.float64)
        if cfg.scenario == "diurnal":
            return cfg.qps * (
                1.0
                + cfg.diurnal_amplitude
                * np.sin(2.0 * np.pi * t / cfg.diurnal_period_s)
            )
        if cfg.scenario == "flash":
            burst = (t >= cfg.flash_start_s) & (
                t < cfg.flash_start_s + cfg.flash_duration_s
            )
            return cfg.qps * np.where(burst, cfg.flash_factor, 1.0)
        return np.full(t.shape, cfg.qps)

    def _peak_rate(self) -> float:
        cfg = self.config
        if cfg.scenario == "diurnal":
            return cfg.qps * (1.0 + cfg.diurnal_amplitude)
        if cfg.scenario == "flash":
            return cfg.qps * cfg.flash_factor
        return cfg.qps

    def _arrivals(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        if cfg.scenario == "poisson":
            gaps = rng.exponential(1.0 / cfg.qps, size=cfg.num_requests)
            return np.cumsum(gaps)
        # Non-stationary: thin a homogeneous process at the peak rate.
        # Chunked so the draw count (hence the output) is a pure
        # function of the seed, independent of platform.
        peak = self._peak_rate()
        out = np.empty(cfg.num_requests)
        filled, now = 0, 0.0
        while filled < cfg.num_requests:
            chunk = max(1024, cfg.num_requests)
            times = now + np.cumsum(
                rng.exponential(1.0 / peak, size=chunk)
            )
            now = float(times[-1])
            accepted = times[rng.random(chunk) * peak < self.rate_at(times)]
            take = min(len(accepted), cfg.num_requests - filled)
            out[filled : filled + take] = accepted[:take]
            filled += take
        return out

    def _sample_ranks(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``searchsorted(cdf, u)`` of ``count`` uniform draws, taken
        ``_CHUNK`` at a time from the one stream of ``rng.random(count)``."""
        cdf, ranks = self._cdf, np.empty(count, dtype=np.int64)
        for lo in range(0, count, _CHUNK):
            u = rng.random(min(_CHUNK, count - lo))
            bucket = (u * self._buckets).astype(np.intp)
            rank = self._guide.take(bucket)  # lower bound, scanned up to `stop`
            width = self._width.take(bucket)
            flat = np.flatnonzero(width > _MAX_SCAN)
            rank[flat] = np.searchsorted(cdf, u[flat])
            width[flat] = 0
            stop = rank + width
            active = np.flatnonzero(width)
            while active.size:
                active = active[cdf.take(rank.take(active)) < u.take(active)]
                rank[active] += 1
                active = active[rank.take(active) < stop.take(active)]
            ranks[lo : lo + len(u)] = rank
        return ranks

    def generate(self) -> RequestTrace:
        """The full stream, sorted by arrival time."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        arrivals = self._arrivals(rng)
        ranks = self._sample_ranks(rng, cfg.num_requests * cfg.num_lookups)
        keys = ranks.reshape(cfg.num_requests, cfg.num_lookups)
        if cfg.churn_keys_per_s > 0:
            # The ranking drifts: popularity rank r points at key
            # (r + floor(drift * t)) mod key_space, so the hot set
            # slides through the id space and cached rows go cold.
            shift = np.floor(cfg.churn_keys_per_s * arrivals).astype(np.int64)
            keys = (keys + shift[:, None]) % cfg.key_space
        return RequestTrace(arrivals, keys)

    def hot_fraction(self, top_keys: int) -> float:
        """Probability mass carried by the ``top_keys`` hottest rows
        (the best hit rate an LRU of that capacity can converge to).
        Valid under churn too: drift relabels the ranking but leaves
        the instantaneous top-``top_keys`` mass unchanged."""
        if top_keys <= 0:
            return 0.0
        top = min(top_keys, self.config.key_space)
        return float(self._cdf[top - 1])
