"""Golden and memory pins for greedy merging (Algorithm 3).

``greedy_merging`` keeps its per-piece state in hand-inlined form for
speed, and its output decides every bulk-loaded tree.  The golden cases
pin that output bit for bit -- piece boundaries, fitted models, rmse,
the chosen cost and the whole cost curve -- on a seeded keyset of every
dataset generator, so a change to the loop's state layout cannot move a
tree silently.  The expected fingerprints were recorded from the merge
loop before its state was slimmed down.

The memory pin bounds the loop's transient peak (tracemalloc) at 10^5
keys: bulk load's transient memory is nearly all greedy merging, and a
shard worker that builds its own shard carries it in its peak RSS.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.cost import CostParams
from repro.core.segmentation import SegmentationResult, greedy_merging
from repro.data.datasets import DATASET_NAMES, lognormal

#: Generator seed of every golden keyset.
SEED = 7

#: (keys, height, omega) per dataset: an odd count (three-point tail
#: piece) at heights 0 and 1, and an even count under a small omega so
#: the merge loop meets its piece-size cap.
SHAPES = ((3001, 0, 4096), (3001, 1, 4096), (3000, 0, 64))

GOLDEN = {
    "books-3000-h0-w64": {
        "pieces": 118, "cost": "0x1.6d9f3d70e9e50p+9",
        "bounds": "18b82c15919e0816046e", "models": "d0e4f8e9ed97465867bf",
        "curve": "dfd35fce52782de1509e",
    },
    "books-3001-h0-w4096": {
        "pieces": 109, "cost": "0x1.6b2e5f3bc141dp+9",
        "bounds": "887005b4328391313ceb", "models": "f7df86852927e3b65959",
        "curve": "d8a4d5c028cf4f1eb2a3",
    },
    "books-3001-h1-w4096": {
        "pieces": 10, "cost": "0x1.4362d62d19678p+8",
        "bounds": "5cd419810c06bf0ec6a3", "models": "e71bcfd9bc0ba74f4e11",
        "curve": "a2a29ebf6de73f4af788",
    },
    "fb-3000-h0-w64": {
        "pieces": 66, "cost": "0x1.4fec2182b7f07p+9",
        "bounds": "27919c90e2579a607f21", "models": "456ff80b937f078ac839",
        "curve": "383b8ad3f4cd99e91ae0",
    },
    "fb-3001-h0-w4096": {
        "pieces": 46, "cost": "0x1.4d3fb8167ff09p+9",
        "bounds": "3e23063829768c2099d7", "models": "acf254faf7c902f16881",
        "curve": "33d507ead5fe61fa7554",
    },
    "fb-3001-h1-w4096": {
        "pieces": 12, "cost": "0x1.2651291929cc3p+8",
        "bounds": "93ef572b1310e28102be", "models": "7a24fe556312ca743b76",
        "curve": "5ff6c1e42c4f7aedc907",
    },
    "logn-3000-h0-w64": {
        "pieces": 47, "cost": "0x1.0b9ab769717afp+9",
        "bounds": "7fac8ac5e8ccc9741034", "models": "c33475e4e20809d8d9a3",
        "curve": "22cd8eb6e4fefaff28d8",
    },
    "logn-3001-h0-w4096": {
        "pieces": 29, "cost": "0x1.07fd9af094932p+9",
        "bounds": "c3235890abc8664e4ed6", "models": "5d0d54f9475d9208c7b2",
        "curve": "6847dda3b13e4a537efa",
    },
    "logn-3001-h1-w4096": {
        "pieces": 12, "cost": "0x1.04133cd962014p+8",
        "bounds": "411a3b033d0cefb54c2c", "models": "a91e27f878438b1b4bfa",
        "curve": "f4b797cfa2a2b1e76779",
    },
    "osm-3000-h0-w64": {
        "pieces": 66, "cost": "0x1.1c1505ef47503p+9",
        "bounds": "a50f77ff581dc318c687", "models": "29f1a50b5f0150d8a6ca",
        "curve": "377ed4d756efaede7eec",
    },
    "osm-3001-h0-w4096": {
        "pieces": 42, "cost": "0x1.130af864ef776p+9",
        "bounds": "05a57d2eeb32f3fe74d5", "models": "bafd834cdd9ef04c1f9e",
        "curve": "85d04ed57ffbffe00f82",
    },
    "osm-3001-h1-w4096": {
        "pieces": 14, "cost": "0x1.1856c7f066741p+8",
        "bounds": "9caa1513b5e6ca26d85b", "models": "de7cba63de3af5742ed2",
        "curve": "8ebda382b56deb6700d9",
    },
    "wikits-3000-h0-w64": {
        "pieces": 80, "cost": "0x1.33e5c742540f9p+9",
        "bounds": "993f667e5e77b3a0dfcd", "models": "d832cc7fda3297fef6f6",
        "curve": "057d728a1de2c76025d4",
    },
    "wikits-3001-h0-w4096": {
        "pieces": 82, "cost": "0x1.338738000f8d9p+9",
        "bounds": "7be2afdffbf0b62da756", "models": "990925c0c5b9262d4114",
        "curve": "85cbbb38033cc52e1644",
    },
    "wikits-3001-h1-w4096": {
        "pieces": 1, "cost": "0x1.d6ce03bb3e35cp+7",
        "bounds": "5072fd3ac7e800300434", "models": "c1221aac5c758f2c9cf6",
        "curve": "62d2260487f0c17dffa8",
    },
}

#: Ceiling on greedy merging's tracemalloc peak at 10^5 logn keys.  The
#: layout that held every piece and every 2+2 candidate as Python
#: floats peaked at 56 MB.
PEAK_BOUND_MB = 45.0


def _digest(values) -> str:
    sha = hashlib.sha256()
    for value in values:
        sha.update(repr(value).encode())
        sha.update(b",")
    return sha.hexdigest()[:20]


def fingerprint(result: SegmentationResult) -> dict:
    """Every output of one run, exact (floats through ``repr``)."""
    segments = result.segments
    return {
        "pieces": len(segments),
        "cost": result.cost.hex(),
        "bounds": _digest((s.start, s.end) for s in segments),
        "models": _digest(
            (s.model.slope, s.model.intercept, s.rmse) for s in segments
        ),
        "curve": _digest(sorted(result.cost_curve.items())),
    }


def _case_id(name: str, n: int, height: int, omega: int) -> str:
    return f"{name}-{n}-h{height}-w{omega}"


CASES = [
    (name, n, height, omega)
    for name in sorted(DATASET_NAMES)
    for n, height, omega in SHAPES
]


@pytest.mark.parametrize(
    "name,n,height,omega", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_output_matches_the_recorded_fingerprint(name, n, height, omega):
    keys = DATASET_NAMES[name](n, SEED)
    result = greedy_merging(
        keys, height=height, params=CostParams(omega=omega)
    )
    assert fingerprint(result) == GOLDEN[_case_id(name, n, height, omega)]


def test_transient_peak_stays_under_its_bound():
    keys = lognormal(100_000, 0)
    tracemalloc.start()
    try:
        greedy_merging(keys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= PEAK_BOUND_MB, f"peak {peak / 1e6:.1f} MB"


def test_golden_cover_every_generator():
    assert {case[0] for case in CASES} == set(DATASET_NAMES)
    assert set(GOLDEN) == {_case_id(*case) for case in CASES}
    assert np.all([len(GOLDEN[k]) == 5 for k in GOLDEN])
