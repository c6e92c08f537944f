"""The request trace as arrays: the guided rank sampler against
``np.searchsorted``, the ``Sequence[Request]`` contract of
:class:`RequestTrace`, the trace-level input validation, and the
one-key ring lookup against the vectorised one."""

from functools import lru_cache
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Cluster
from repro.serving import (
    ConsistentHashRouter,
    LRUEmbeddingCache,
    MicroBatch,
    MicroBatcher,
    Placement,
    Request,
    RequestStream,
    RequestTrace,
    ServingFleet,
    ServingModel,
    WorkloadConfig,
)
from repro.serving.faults import _hash_unit
from repro.serving.workload import _CHUNK
from repro.serving.fleet import _splitmix64, _splitmix64_int
from repro.sim import SimCluster

KEY_SPACES = (1, 2, 7, 1_000, 65_536, 100_000)
SKEWS = (0.0, 0.5, 1.0, 2.0, 4.0)
ALMOST_ONE = np.nextafter(1.0, 0.0)


@lru_cache(maxsize=None)
def stream(key_space: int, skew: float) -> RequestStream:
    return RequestStream(WorkloadConfig(key_space=key_space, skew=skew))


class FixedDraws:
    """Stands in for the generator: ``random(n)`` hands back the next
    ``n`` entries of ``u``."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)
        self.taken = 0

    def random(self, count):
        assert self.taken + count <= len(self.u)
        self.taken += count
        return self.u[self.taken - count : self.taken]


def ranks_of(s: RequestStream, u) -> np.ndarray:
    draws = FixedDraws(u)
    ranks = s._sample_ranks(draws, len(u))
    assert draws.taken == len(u)  # every draw used, none twice
    return ranks


# ----------------------------------------------------------------------
class TestGuidedSampler:
    @pytest.mark.parametrize("skew", SKEWS)
    @pytest.mark.parametrize("key_space", KEY_SPACES)
    def test_equals_searchsorted_on_the_edges(self, key_space, skew):
        """Draws forced onto exact CDF entries, their float neighbours,
        0.0 and the largest double below 1."""
        s = stream(key_space, skew)
        cdf = s._cdf
        on = cdf[cdf < 1.0]
        u = np.concatenate(
            [
                [0.0, ALMOST_ONE],
                on,
                np.nextafter(on, 0.0),
                np.minimum(np.nextafter(on, 1.0), ALMOST_ONE),
                # past two chunk boundaries, ending mid-chunk
                np.random.default_rng(key_space).random(2 * _CHUNK + 20_000),
            ]
        )
        assert len(u) > 2 * _CHUNK and len(u) % _CHUNK
        got = ranks_of(s, u)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(cdf, u))

    @settings(max_examples=120, deadline=None)
    @given(
        key_space=st.sampled_from(KEY_SPACES),
        skew=st.sampled_from(SKEWS),
        draws=st.lists(
            st.one_of(
                st.floats(0.0, ALMOST_ONE),
                st.sampled_from([0.0, ALMOST_ONE]),
            ),
            max_size=40,
        ),
        entries=st.lists(st.integers(0, 99_999), max_size=40),
    )
    def test_equals_searchsorted_property(
        self, key_space, skew, draws, entries
    ):
        s = stream(key_space, skew)
        on = s._cdf[np.asarray(entries, dtype=np.int64) % key_space]
        u = np.concatenate([draws, on[on < 1.0]])
        assert np.array_equal(ranks_of(s, u), np.searchsorted(s._cdf, u))

    def test_guide_table_is_small_and_bounds_every_bucket(self):
        s = stream(100_000, 1.0)
        assert s._guide.dtype == np.int32
        assert len(s._guide) <= 4 * 100_000 + 2
        # guide[b] <= searchsorted(cdf, u) <= guide[b + 1] in bucket b
        u = np.random.default_rng(0).random(50_000)
        bucket = (u * s._buckets).astype(np.int64)
        rank = np.searchsorted(s._cdf, u)
        assert (s._guide[bucket] <= rank).all()
        assert (rank <= s._guide[bucket + 1]).all()

    def test_draw_order_is_one_uniform_per_lookup(self):
        cfg = WorkloadConfig(num_requests=50, num_lookups=3, seed=4)
        rng = np.random.default_rng(4)
        rng.exponential(1.0 / cfg.qps, size=50)  # the arrival draws
        s = RequestStream(cfg)
        expect = np.searchsorted(s._cdf, rng.random(150)).reshape(50, 3)
        assert np.array_equal(s.generate().keys, expect)


# ----------------------------------------------------------------------
def hand_built():
    """Unsorted, with ties: ids 1/3 and 0/4 share an arrival time."""
    times = (0.004, 0.001, 0.003, 0.001, 0.004, 0.002)
    return [
        Request(i, t, np.array([10 * i, 10 * i + 1]))
        for i, t in enumerate(times)
    ]


class TestRequestTraceSequence:
    def test_generate_returns_a_trace_of_request_views(self):
        reqs = RequestStream(
            WorkloadConfig(num_requests=9, num_lookups=5, seed=2)
        ).generate()
        assert isinstance(reqs, RequestTrace)
        assert len(reqs) == 9
        assert reqs.arrival_s.shape == (9,)
        assert reqs.keys.shape == (9, 5) and reqs.keys.dtype == np.int64
        first, last = reqs[0], reqs[-1]
        assert isinstance(first, Request)
        assert type(first.arrival_s) is float and type(first.req_id) is int
        assert (first.req_id, last.req_id) == (0, 8)
        assert np.array_equal(last.keys, reqs.keys[8])
        with pytest.raises(IndexError):
            reqs[9]

    def test_slice_index_array_and_iteration(self):
        reqs = RequestTrace.of(hand_built())
        assert [r.req_id for r in reqs] == [0, 1, 2, 3, 4, 5]
        assert list(reqs) == hand_built()
        evens = reqs[::2]
        assert isinstance(evens, RequestTrace)
        assert [r.req_id for r in evens] == [0, 2, 4]
        picked = reqs[np.array([5, 0])]
        assert [r.arrival_s for r in picked] == [0.002, 0.004]
        assert hand_built()[3] in reqs and reqs.index(hand_built()[3]) == 3

    def test_equality_against_traces_and_lists(self):
        reqs = RequestTrace.of(hand_built())
        assert reqs == RequestTrace.of(hand_built())
        assert reqs == hand_built() and reqs == tuple(hand_built())
        assert reqs != hand_built()[:-1]
        moved = hand_built()
        moved[2] = Request(2, 0.0035, moved[2].keys)
        assert reqs != moved and reqs != RequestTrace.of(moved)
        assert reqs != "not a trace"

    def test_of_round_trips_and_is_idempotent(self):
        reqs = RequestTrace.of(hand_built())
        assert RequestTrace.of(reqs) is reqs
        assert RequestTrace.of(list(reqs)) == reqs
        assert len(RequestTrace.of([])) == 0

    def test_sorted_is_the_stable_arrival_sort(self):
        reqs = RequestTrace.of(hand_built())
        expect = sorted(hand_built(), key=attrgetter("arrival_s"))
        assert [r.req_id for r in expect] == [1, 3, 5, 2, 0, 4]
        assert reqs.sorted() == expect
        already = reqs.sorted()
        assert already.sorted() is already

    def test_batches_hold_trace_views(self):
        batches = MicroBatcher(4, 1.0).form_batches(hand_built())
        assert [b.size for b in batches] == [4, 2]
        assert isinstance(batches[0].requests, RequestTrace)
        assert [r.req_id for r in batches[0].requests] == [1, 3, 5, 2]
        assert batches[0].keys.tolist() == [10, 11, 30, 31, 50, 51, 20, 21]
        assert batches[0].ready_s == 0.003  # flush-on-full
        one = MicroBatch(requests=tuple(hand_built()[:2]), ready_s=0.005)
        assert isinstance(one.requests, RequestTrace)
        assert one.batching_delay_s() == np.mean([0.005 - 0.004, 0.005 - 0.001])


# ----------------------------------------------------------------------
def tiny_fleet():
    return ServingFleet(
        SimCluster(Cluster(4, 2, "A100")),
        ServingModel("tiny", num_lookups=2, embedding_dim=16, dense_mflops=1.0),
        Placement("colocated"),
        MicroBatcher(4, 0.0005),
        router="hash",
        cache_rows=16,
    )


class TestTraceValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
    def test_request_rejects_non_finite_and_negative_arrivals(self, bad):
        with pytest.raises(ValueError, match="arrival must be finite"):
            Request(0, bad, np.array([1]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_trace_rejects_non_finite_and_negative_arrivals(self, bad):
        with pytest.raises(ValueError, match="arrivals must be finite"):
            RequestTrace([0.0, bad, 0.2], np.zeros((3, 2), dtype=np.int64))

    def test_fleet_refuses_a_trace_with_a_nan_arrival(self):
        """Used to return a plausible-looking report (the NaN sorted
        somewhere and poisoned nothing the percentiles read)."""
        reqs = [Request(i, 0.001 * i, np.array([i, i + 1])) for i in range(6)]
        # A NaN smuggled past Request's own check must still be caught
        # once per trace.
        object.__setattr__(reqs[3], "arrival_s", float("nan"))
        with pytest.raises(ValueError, match="arrivals must be finite"):
            tiny_fleet().serve(reqs)

    def test_zero_key_requests_get_a_typed_error(self):
        reqs = [Request(0, 0.0, np.array([], dtype=np.int64))]
        with pytest.raises(ValueError, match=">= 1 key"):
            tiny_fleet().serve(reqs)

    def test_float_keys_are_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="integer row ids"):
            RequestTrace.of([Request(0, 0.0, np.array([1.7, 2.2]))])
        with pytest.raises(ValueError, match="integer row ids"):
            tiny_fleet().serve([Request(0, 0.0, np.array([1.7, 2.2]))])

    def test_negative_and_ragged_keys(self):
        with pytest.raises(ValueError, match="non-negative"):
            RequestTrace([0.0], np.array([[3, -1]]))
        ragged = [
            Request(0, 0.0, np.array([1, 2])),
            Request(1, 0.1, np.array([1, 2, 3])),
        ]
        with pytest.raises(ValueError, match="same shape"):
            RequestTrace.of(ragged)
        with pytest.raises(ValueError, match="need .n,. arrivals"):
            RequestTrace([0.0, 0.1], np.zeros((3, 2), dtype=np.int64))

    def test_cache_still_checks_its_own_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            LRUEmbeddingCache(4).probe(np.array([1, -2]))


# ----------------------------------------------------------------------
def ring_keys() -> np.ndarray:
    top = 2**63 - 1
    edge = np.array([0, 1, top, top - 1, top - 2, 2**62, 2**32, 2**32 - 1])
    rng = np.random.default_rng(12)
    return np.concatenate(
        [edge, rng.integers(0, top, size=5_000), rng.integers(0, 100_000, size=4_992)]
    ).astype(np.int64)


class TestRingLookup:
    def test_python_int_splitmix_equals_numpy(self):
        keys = ring_keys()
        assert len(keys) == 10_000
        assert [_splitmix64_int(k) for k in keys.tolist()] == _splitmix64(
            keys
        ).tolist()

    def test_backoff_jitter_hash_is_the_numpy_one(self):
        for req_id in (0, 7, 123_456_789, 2**40, 2**62):
            for attempt in (1, 2, 5):
                mixed = (req_id * 1_000_003 + attempt) & (2**64 - 1)
                h = _splitmix64(np.asarray([mixed], dtype=np.uint64))[0]
                assert _hash_unit(req_id, attempt) == float(h) / float(2**64)

    def test_route_one_equals_route_trace_across_a_membership_change(self):
        keys = ring_keys()
        reqs = RequestTrace(np.arange(len(keys)) * 1e-6, keys[:, None])
        router = ConsistentHashRouter()
        router.bind(6)
        for live in ([True] * 6, [True, False, True, True, False, True]):
            router.set_live(live)
            whole = router.route_trace(reqs, 0.001)
            single = [router.route_one(req, req.arrival_s) for req in reqs]
            assert single == whole.tolist()
            assert set(single) <= set(np.flatnonzero(live).tolist())
