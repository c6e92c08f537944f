"""Pinned digests of the generated request stream.

Six seeded ``WorkloadConfig``s — the ``serve_steady`` geometry (Poisson,
20 000 requests x 26 lookups over 100 000 keys), a flash crowd under
hot-set churn at 65 536 keys, a diurnal swing, uniform traffic
(``skew=0``), a steep power law (``skew=2``) and a one-key universe —
pinned as SHA-256 digests of the bytes of every arrival time, every key
and every request id, read through the public ``Sequence[Request]``
interface (``len``, iteration, ``req.arrival_s`` / ``req.keys`` /
``req.req_id``).

The popularity CDF is sampled *exactly* (one uniform draw per lookup,
``searchsorted`` semantics), so unlike a statistical check there is no
tolerance: a different draw order, an off-by-one at a CDF entry or a
churn shift applied to the wrong request moves a digest.

The digests were pinned on the code *before* the trace became arrays
and the rank sampler grew its guide table (same pattern as the serving
/ spec / SPTT / embedding fixtures); every later commit leaves them
green.  If you change the generator's output intentionally, re-pin
``GOLDEN`` from ``observed(name)`` and say why in the commit message.
"""

import hashlib

import numpy as np
import pytest

from repro.serving import RequestStream, WorkloadConfig

CONFIGS = {
    "poisson_steady": WorkloadConfig(
        qps=500_000.0, num_requests=20_000, num_lookups=26,
        key_space=100_000, skew=1.0, seed=7,
    ),
    "flash_churn": WorkloadConfig(
        qps=2_000_000.0, num_requests=4_000, num_lookups=26,
        key_space=65_536, skew=1.0, seed=11, scenario="flash",
        flash_start_s=0.0007, flash_duration_s=0.0006, flash_factor=2.5,
        churn_keys_per_s=2_000_000.0,
    ),
    "diurnal": WorkloadConfig(
        qps=50_000.0, num_requests=3_000, num_lookups=8, key_space=5_000,
        skew=0.8, seed=3, scenario="diurnal", diurnal_period_s=0.02,
        diurnal_amplitude=0.6,
    ),
    "uniform_skew0": WorkloadConfig(
        qps=10_000.0, num_requests=2_000, num_lookups=13, key_space=1_000,
        skew=0.0, seed=5,
    ),
    "steep_skew2": WorkloadConfig(
        qps=10_000.0, num_requests=2_000, num_lookups=13,
        key_space=100_000, skew=2.0, seed=9,
    ),
    "one_key": WorkloadConfig(
        qps=1_000.0, num_requests=64, num_lookups=4, key_space=1, seed=1,
    ),
}

GOLDEN = {
    "poisson_steady": {
        "len": 20000,
        "arrival_s": (
            "7da1382d0410d1903336e6029e71f236"
            "b5f9dbc340c7f20a09903bf0f7a22e97"
        ),
        "keys": (
            "310b091e86abdb2695aef882a8e1a0f7"
            "d51698c07b140c6fe2efa6ae6d9bff88"
        ),
        "req_id": (
            "b49ed4334fe4a57fe3fdec8fe84b7b70"
            "8cdd3022f6a6e8a3d1ce5e7476c4304e"
        ),
    },
    "flash_churn": {
        "len": 4000,
        "arrival_s": (
            "960bead42dbad6c3cb2dc5f9e020c42a"
            "6d29e7790a6b9d3dd66263b9f992f288"
        ),
        "keys": (
            "8a2d5246fcb9222b664c58913aa5eee4"
            "3c340b652bb73c6c3cdd6eda8fb60b2e"
        ),
        "req_id": (
            "f222201c5bedc56132a93b8d112ddc70"
            "423cf8ee83935a07c67745d221347c40"
        ),
    },
    "diurnal": {
        "len": 3000,
        "arrival_s": (
            "e1f98eb6b61cba25e1b7ac72d60323c3"
            "87fa804eaef6f03e92b8390fb0d96701"
        ),
        "keys": (
            "f9e4fdaad1df9c011a1e65ca0e458487"
            "b835ea2053de40c4b87b25c1f68f0c0d"
        ),
        "req_id": (
            "e8c9ceaf5aacc63c25b4cdd8542592f9"
            "d58aff50e3e8fc6c55591d3d8f596562"
        ),
    },
    "uniform_skew0": {
        "len": 2000,
        "arrival_s": (
            "50b744617b293a6c6d97bdb4542060fd"
            "17d6e0091b2c52f9b8fd77fe78a1675a"
        ),
        "keys": (
            "888b163fc6905a744ec7118e4c30de03"
            "bf55581950defd28675460b8509c6a27"
        ),
        "req_id": (
            "55f385cf2332d9056aaed6f496e7bebd"
            "2df52c6a9547ce2144b309432d4b0290"
        ),
    },
    "steep_skew2": {
        "len": 2000,
        "arrival_s": (
            "e8cd2c109a1ff42bfdcd80921d5925a1"
            "f1679174168ac35281ba1c577a59c5c8"
        ),
        "keys": (
            "edf7cfeab5b1c8632ad7d2054ff5a3ac"
            "71601bb09b6b169ba19432c65f856662"
        ),
        "req_id": (
            "55f385cf2332d9056aaed6f496e7bebd"
            "2df52c6a9547ce2144b309432d4b0290"
        ),
    },
    "one_key": {
        "len": 64,
        "arrival_s": (
            "5c98d0bb4338d60833f6b16de2c4daa8"
            "36bd96417cb1063bde3548e1c3dba114"
        ),
        "keys": (
            "e5a00aa9991ac8a5ee3109844d84a555"
            "83bd20572ad3ffcd42792f3c36b183ad"
        ),
        "req_id": (
            "7a4644928f3a08db905254fd7e5e53ef"
            "19a46d932a2ecd372b45462413a82619"
        ),
    },
}


def observed(name: str) -> dict:
    """Digests of the named stream, field by field."""
    reqs = RequestStream(CONFIGS[name]).generate()
    fields = {
        "arrival_s": np.asarray([r.arrival_s for r in reqs], np.float64),
        "keys": np.stack([np.asarray(r.keys, np.int64) for r in reqs]),
        "req_id": np.asarray([r.req_id for r in reqs], np.int64),
    }
    out = {"len": len(reqs)}
    for field, arr in fields.items():
        out[field] = hashlib.sha256(
            np.ascontiguousarray(arr).tobytes()
        ).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_request_stream_digest(name):
    assert observed(name) == GOLDEN[name]
