"""Trace identity: the mapped plan costs exactly what the live one does.

The acceptance bar is +-0 simulated cycles: ``PlanStore`` wraps a real
:class:`FlatPlan` over the memory-mapped buffers, so a traced
``get_batch`` must replay the *identical* descent -- same cycles, same
cache misses -- as the index the plan was published from.  That holds
for files of the current layout, whose buffers map 64-byte aligned, and
for files of the older 8-byte layout, whose buffers map unaligned.
"""

import json
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DILI
from repro.planstore.format import (
    PLAN_MAGIC,
    read_plan_header,
    write_plan_file,
)
from repro.planstore.store import PlanStore
from repro.simulate.cache import CacheSimulator
from repro.simulate.tracer import CostTracer

CACHE_LINES = 1024


@st.composite
def keys_and_queries(draw):
    keys = draw(
        st.lists(
            st.integers(0, 100_000),
            min_size=8,
            max_size=250,
            unique=True,
        )
    )
    hits = draw(
        st.lists(st.sampled_from(keys), min_size=1, max_size=64)
    )
    misses = draw(
        st.lists(st.integers(-1000, 101_000), max_size=32)
    )
    queries = [float(q) for q in hits] + [q + 0.5 for q in misses]
    return sorted(float(k) for k in keys), queries


def shift_buffers(path: Path, shift: int) -> None:
    """Rewrite ``path`` in the older 8-byte layout: its buffers move
    ``shift`` bytes (1-7) off their 64-byte-aligned offsets.

    The header grows by ``shift`` bytes and the buffer block moves with
    it, the way a stale-LSN rewrite moves it: offsets are relative to
    the header's end, so every descriptor and CRC stays valid.
    """
    header = read_plan_header(path)
    data_start = header.pop("data_start")
    body = path.read_bytes()[data_start:]
    header["file_size"] = data_start + shift + len(body)
    header["pad"] = ""
    unpadded = 16 + len(json.dumps(header, sort_keys=True))
    header["pad"] = " " * (data_start + shift - unpadded)
    blob = json.dumps(header, sort_keys=True).encode("ascii")
    path.write_bytes(
        PLAN_MAGIC + struct.pack("<II", len(blob), zlib.crc32(blob))
        + blob + body
    )


class TestTraceIdentity:
    @given(case=keys_and_queries(), shift=st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_cycles_and_misses_match_exactly(self, case, shift):
        keys, queries = case
        index = DILI()
        index.bulk_load(keys, [f"v{i}" for i in range(len(keys))])
        q = np.asarray(queries)
        los, his = np.sort(q), np.sort(q)[::-1] + 0.25
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.plan"
            write_plan_file(path, index._plan())
            # The file as written, then in the older 8-byte layout.
            for misaligned in (0, shift):
                if misaligned:
                    shift_buffers(path, shift)
                store = PlanStore.open(path)
                column = store._arrays["pair_keys"]
                assert column.ctypes.data % 64 == misaligned

                live = CostTracer(CacheSimulator(CACHE_LINES))
                mapped = CostTracer(CacheSimulator(CACHE_LINES))
                want = index.get_batch(queries, live)
                got = store.get_batch(queries, mapped)

                assert got == want
                assert mapped.total_cycles == live.total_cycles  # +-0
                assert mapped.cache_misses == live.cache_misses
                assert (
                    store.contains_batch(q) == index.contains_batch(q)
                ).all()
                assert (
                    store.count_range_batch(los, his)
                    == index.count_range_batch(los, his)
                ).all()
                store.close()
