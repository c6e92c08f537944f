"""Capacity-driven tier placement: hotness-ranked rows over memory tiers.

The serving plane's capacity question — *where do embedding rows live
when tables outgrow HBM?* — is a fractional-knapsack instance: rank
rows by access frequency and pour them, hottest first, into a serving
replica's storage hierarchy (:class:`repro.serving.TieredStorage`)
until each tier's row budget fills.  The budgets are the storage's own:
each chain level holds its ``cache_rows``, an ``"hbm"`` backing makes
level 0 unbounded (the whole table is provisioned there), and a
``"remote"`` backing is one more, unbounded tier below the chain.  This
module implements that pass and prices the result: a
:class:`TierPlacementPlan` reports how many bytes sit in each tier,
what fraction of lookups each tier absorbs, the capital cost of the
provisioned capacity, and the expected per-lookup fetch time the spill
adds.

Hotness comes from one of two sources, mirroring the serving plane's
warm-start (PR 4):

- an **analytic Zipf model** — a ``float`` skew, the same parameter
  ``ServeSpec.skew`` drives the request sampler with — for plan-time
  what-if analysis before any training has run; or
- **measured Adagrad accumulator mass** per row
  (:func:`repro.checkpoint.accumulator_mass_by_table`), the exact
  proxy :func:`repro.checkpoint.hottest_rows` ranks cache warm-start
  rows with.

Assignments are expressed over *hotness-rank ranges*: row 0 of a
table's assignment space is its hottest row, not its lowest id.  The
physical id→rank mapping is the sampler's identity mapping in the
Zipf case and the accumulator argsort in the measured case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.hardware.specs import GB, MemoryTierSpec
from repro.nn.embedding import TableConfig

if TYPE_CHECKING:
    from repro.serving.tiers import TieredStorage

__all__ = [
    "TierAssignment",
    "TierPlacementPlan",
    "TierPlanner",
    "zipf_mass",
    "plan_from_checkpoint",
]

#: Maximum hotness-rank chunks per table.  Geometric boundaries mean 64
#: chunks resolve rank 1 vs rank 2 at the hot end while keeping the
#: knapsack a few thousand items for paper-scale table counts.
_MAX_CHUNKS = 64

#: Exact generalized-harmonic summation limit; longer rank segments use
#: the integral approximation (relative error < 1e-6 at those lengths).
_EXACT_SUM_LIMIT = 1 << 20


def _harmonic_segment(a: int, b: int, skew: float) -> float:
    """Sum of ``rank**-skew`` for ranks in the 1-based range (a, b]."""
    if b <= a:
        return 0.0
    if b - a <= _EXACT_SUM_LIMIT:
        ranks = np.arange(a + 1, b + 1, dtype=np.float64)
        return float(np.sum(ranks**-skew))
    # Midpoint-rule integral: sum_{k=a+1..b} k^-s ~= I(a+.5, b+.5).
    lo, hi = a + 0.5, b + 0.5
    if abs(skew - 1.0) < 1e-9:
        return float(np.log(hi / lo))
    return float((hi ** (1.0 - skew) - lo ** (1.0 - skew)) / (1.0 - skew))


def zipf_mass(num_rows: int, skew: float, boundaries: Sequence[int]) -> np.ndarray:
    """Unnormalized Zipf access mass per rank segment.

    ``boundaries`` are increasing 0-based rank cut points ending at
    ``num_rows``; segment ``i`` covers ranks ``[boundaries[i],
    boundaries[i+1])`` and receives mass ``sum(rank**-skew)`` over its
    (1-based) ranks.  ``skew=0`` degenerates to uniform access.
    """
    masses = [
        _harmonic_segment(int(a), int(b), skew)
        for a, b in zip(boundaries[:-1], boundaries[1:])
    ]
    return np.asarray(masses, dtype=np.float64)


def _geometric_boundaries(num_rows: int, max_chunks: int = _MAX_CHUNKS) -> List[int]:
    """0-based rank cut points, geometrically spaced, ending at num_rows."""
    if num_rows <= 0:
        return [0]
    bounds = {0, num_rows}
    edge = 1
    while edge < num_rows and len(bounds) < max_chunks:
        bounds.add(edge)
        edge *= 2
    if len(bounds) >= max_chunks:
        return sorted(bounds)[: max_chunks - 1] + [num_rows]
    return sorted(bounds)


@dataclass(frozen=True)
class TierAssignment:
    """One contiguous hotness-rank range of one table placed on one tier."""

    table: str
    tier: str
    #: Hotness-rank range [row_start, row_end): 0 is the hottest row.
    row_start: int
    row_end: int
    #: Fraction of the *workload's total* lookups that land here.
    access_fraction: float

    @property
    def num_rows(self) -> int:
        return self.row_end - self.row_start


def _tiers(storage: "TieredStorage") -> Tuple[MemoryTierSpec, ...]:
    """The tiers rows are placed on, fastest first: the chain levels,
    then a remote backing."""
    levels = tuple(t.spec for t in storage.levels)
    return levels if storage.backing.local else levels + (storage.backing,)


@dataclass(frozen=True)
class TierPlacementPlan:
    """Where every embedding row lives, and what that placement costs."""

    storage: "TieredStorage"
    tables: Tuple[TableConfig, ...]
    assignments: Tuple[TierAssignment, ...]

    @property
    def tiers(self) -> Tuple[MemoryTierSpec, ...]:
        return _tiers(self.storage)

    def rows_by_tier(self) -> Dict[str, int]:
        out = {t.name: 0 for t in self.tiers}
        for a in self.assignments:
            out[a.tier] += a.num_rows
        return out

    def bytes_by_tier(self) -> Dict[str, float]:
        by_table = {t.name: t.row_bytes for t in self.tables}
        out = {t.name: 0.0 for t in self.tiers}
        for a in self.assignments:
            out[a.tier] += a.num_rows * by_table[a.table]
        return out

    def access_fraction_by_tier(self) -> Dict[str, float]:
        out = {t.name: 0.0 for t in self.tiers}
        for a in self.assignments:
            out[a.tier] += a.access_fraction
        return out

    def dollars(self) -> float:
        """Capital cost of the bytes actually placed, per tier's $/GB."""
        per_tier = self.bytes_by_tier()
        return sum(
            per_tier[t.name] / GB * t.dollars_per_gb for t in self.tiers
        )

    @property
    def spill_fraction(self) -> float:
        """Fraction of lookups that miss the fastest tier."""
        fastest = self.tiers[0].name
        return 1.0 - self.access_fraction_by_tier()[fastest]

    def expected_fetch_seconds_per_lookup(self, row_bytes: int) -> float:
        """Access-weighted mean per-row fetch time across the hierarchy."""
        fracs = self.access_fraction_by_tier()
        return sum(
            fracs[t.name] * (t.latency_s + row_bytes / t.bytes_per_s)
            for t in self.tiers
        )

    def summary(self) -> Dict[str, object]:
        row_bytes = max((t.row_bytes for t in self.tables), default=0)
        return {
            "rows_by_tier": self.rows_by_tier(),
            "gb_by_tier": {
                k: v / GB for k, v in self.bytes_by_tier().items()
            },
            "access_fraction_by_tier": self.access_fraction_by_tier(),
            "spill_fraction": self.spill_fraction,
            "dollars": self.dollars(),
            "expected_fetch_us_per_lookup": (
                self.expected_fetch_seconds_per_lookup(row_bytes) * 1e6
            ),
        }


@dataclass
class _Chunk:
    """One knapsack item: a hotness-rank segment of one table."""

    table: str
    row_start: int
    row_end: int
    mass: float
    row_bytes: int

    @property
    def num_rows(self) -> int:
        return self.row_end - self.row_start

    @property
    def density(self) -> float:
        """Access mass per byte — the fractional-knapsack sort key."""
        size = self.num_rows * self.row_bytes
        return self.mass / size if size > 0 else 0.0


@dataclass
class TierPlanner:
    """Greedy hotness-density placement over a replica's storage.

    Fractional knapsack: chunks of hotness-ranked rows are sorted by
    access-mass-per-byte and poured into the storage's tiers in order,
    splitting chunks at tier boundaries.  Optimal for this objective
    (maximize fast-tier access mass subject to row budgets) because
    chunks are divisible at row granularity.
    """

    storage: "TieredStorage"

    def _budgets(self) -> List[float]:
        """Rows each tier of :func:`_tiers` holds (module docstring)."""
        rows: List[float] = [t.cache_rows for t in self.storage.levels]
        if self.storage.backing.local:
            rows[0] = float("inf")
        else:
            rows.append(float("inf"))
        return rows

    def _chunks(
        self,
        tables: Sequence[TableConfig],
        hotness: Union[float, Dict[str, np.ndarray]],
    ) -> List[_Chunk]:
        chunks: List[_Chunk] = []
        for table in tables:
            bounds = _geometric_boundaries(table.num_embeddings)
            if isinstance(hotness, dict):
                mass = np.asarray(hotness.get(table.name, ()), dtype=np.float64)
                if mass.size != table.num_embeddings:
                    raise ValueError(
                        f"hotness for table {table.name!r} has {mass.size} "
                        f"rows; table has {table.num_embeddings}"
                    )
                ranked = np.sort(mass)[::-1]
                cum = np.concatenate(([0.0], np.cumsum(ranked)))
                seg = cum[bounds[1:]] - cum[bounds[:-1]]
            else:
                seg = zipf_mass(table.num_embeddings, float(hotness), bounds)
            # Traffic weight: multi-hot tables see `pooling` ids/sample.
            total = float(seg.sum())
            weight = table.pooling / total if total > 0.0 else 0.0
            for a, b, m in zip(bounds[:-1], bounds[1:], seg):
                chunks.append(
                    _Chunk(
                        table=table.name,
                        row_start=int(a),
                        row_end=int(b),
                        mass=float(m) * weight,
                        row_bytes=table.row_bytes,
                    )
                )
        return chunks

    def plan(
        self,
        tables: Sequence[TableConfig],
        hotness: Union[float, Dict[str, np.ndarray]],
    ) -> TierPlacementPlan:
        """Place every row of ``tables`` onto the hierarchy.

        ``hotness`` is either a Zipf ``skew`` float (the analytic
        model) or a dict of per-row accumulator masses keyed by table
        name (the measured model).  Every row is placed: the last tier
        is unbounded.  Raises :class:`ValueError` when the tables' dims
        differ (the chain caches rows of one width).
        """
        dims = sorted({t.dim for t in tables})
        if len(dims) > 1:
            raise ValueError(
                f"tables must share one dim, the width of the rows the "
                f"chain caches; got dims {dims}"
            )
        tiers = _tiers(self.storage)
        chunks = self._chunks(tables, hotness)
        total_mass = sum(c.mass for c in chunks)
        # Deterministic order: density desc, then (table, rank) ties.
        chunks.sort(key=lambda c: (-c.density, c.table, c.row_start))
        remaining = self._budgets()
        assignments: List[TierAssignment] = []
        level = 0
        for chunk in chunks:
            start = chunk.row_start
            while start < chunk.row_end:
                while remaining[level] < 1:
                    level += 1
                take = min(remaining[level], chunk.row_end - start)
                frac = (
                    chunk.mass * take / chunk.num_rows / total_mass
                    if total_mass > 0.0
                    else 0.0
                )
                assignments.append(
                    TierAssignment(
                        table=chunk.table,
                        tier=tiers[level].name,
                        row_start=start,
                        row_end=start + take,
                        access_fraction=frac,
                    )
                )
                remaining[level] -= take
                start += take
        return TierPlacementPlan(
            storage=self.storage,
            tables=tuple(tables),
            assignments=tuple(assignments),
        )


def plan_from_checkpoint(
    path: str,
    tables: Sequence[TableConfig],
    storage: "TieredStorage",
) -> TierPlacementPlan:
    """Tier placement from a training checkpoint's measured hotness.

    Reads the saved sparse optimizer's per-row Adagrad accumulator mass
    (:func:`repro.checkpoint.accumulator_mass_by_table`) and plans with
    it; tables absent from the checkpoint fall back to zero mass (cold
    — they sink to the cheapest tier).
    """
    from repro.checkpoint import accumulator_mass_by_table

    masses = accumulator_mass_by_table(path)
    hotness = {
        t.name: np.asarray(
            masses.get(t.name, np.zeros(t.num_embeddings)), dtype=np.float64
        )
        for t in tables
    }
    return TierPlanner(storage).plan(tables, hotness)
