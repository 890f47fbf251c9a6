"""Property tests: batch reads agree with the scalar APIs, always.

Hypothesis drives random keysets and random interleavings of reads,
inserts and deletes, asserting at every step that ``get_batch`` /
``contains_batch`` / ``count_range`` / ``count_range_batch`` return
exactly what the scalar ``get`` / ``__contains__`` / per-pair counting
would -- including right after mutations (plan invalidation) and under
the ``ConcurrentDILI`` wrapper.  ``TestPayloadKinds`` does the same for
every payload kind in :mod:`tests.payloads`, across plan patches and
subtree splices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DILI, DiliConfig
from repro.core.concurrent import ConcurrentDILI
from tests.payloads import PAYLOAD_KINDS, payload_rounds

# Integer-valued keys in a wide range: exactly representable, easy to
# probe around (key +- 1 stays distinct).
key_sets = st.sets(
    st.integers(min_value=0, max_value=2**40), min_size=2, max_size=120
)


def _load(keys_set, dense=False):
    keys = np.array(sorted(float(k) for k in keys_set))
    cfg = DiliConfig(local_optimization=not dense)
    index = DILI(cfg)
    index.bulk_load(keys)
    return index, keys


def _assert_batch_matches_scalar(index, probe):
    probe = np.asarray(probe, dtype=np.float64)
    batch = index.get_batch(probe)
    scalar = [index.get(float(k)) for k in probe]
    assert batch == scalar
    member = index.contains_batch(probe)
    assert member.tolist() == [v is not None for v in scalar]


class TestStaticEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(keys_set=key_sets, dense=st.booleans())
    def test_get_and_contains(self, keys_set, dense):
        index, keys = _load(keys_set, dense)
        probe = np.concatenate([keys, keys + 1.0, keys - 1.0])
        _assert_batch_matches_scalar(index, probe)

    @settings(max_examples=60, deadline=None)
    @given(keys_set=key_sets, data=st.data())
    def test_count_range(self, keys_set, data):
        index, keys = _load(keys_set)
        lo = data.draw(st.floats(min_value=-2.0, max_value=2**40 + 2))
        hi = data.draw(st.floats(min_value=-2.0, max_value=2**40 + 2))
        expected = int(np.sum((keys >= lo) & (keys < hi)))
        assert index.count_range(lo, hi) == (expected if hi > lo else 0)
        counts = index.count_range_batch([lo], [hi])
        assert counts.tolist() == [expected if hi > lo else 0]


class TestInterleavedMutations:
    @settings(max_examples=40, deadline=None)
    @given(
        keys_set=key_sets,
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "batch"]),
                st.integers(min_value=0, max_value=2**40),
            ),
            min_size=1,
            max_size=25,
        ),
    )
    def test_batch_stays_correct_across_mutations(self, keys_set, ops):
        index, keys = _load(keys_set)
        shadow = {float(k): i for i, k in enumerate(keys)}
        probe_base = np.concatenate([keys, keys + 1.0])
        for op, raw in ops:
            key = float(raw)
            if op == "insert":
                assert index.insert(key, ("v", raw)) == (key not in shadow)
                shadow.setdefault(key, ("v", raw))
            elif op == "delete":
                assert index.delete(key) == (key in shadow)
                shadow.pop(key, None)
            else:
                probe = np.concatenate([probe_base, [key, key + 0.5]])
                got = index.get_batch(probe)
                want = [shadow.get(float(k)) for k in probe]
                assert got == want
        probe = np.concatenate([probe_base, list(shadow)])
        _assert_batch_matches_scalar(index, probe)
        got = index.get_batch(probe)
        assert got == [shadow.get(float(k)) for k in probe]

    @settings(max_examples=30, deadline=None)
    @given(keys_set=key_sets)
    def test_count_range_after_mutations(self, keys_set):
        index, keys = _load(keys_set)
        live = set(keys.tolist())
        for k in keys[::3].tolist():
            index.delete(k)
            live.discard(k)
        new = [k + 0.5 for k in keys[::4].tolist()]
        for k in new:
            index.insert(k, "n")
            live.add(k)
        arr = np.array(sorted(live))
        los = np.concatenate([arr[: len(arr) // 2], [arr[0] - 1.0]])
        his = np.concatenate([arr[len(arr) // 2 :][: len(los) - 1],
                              [arr[-1] + 1.0]])
        his = his[: len(los)]
        counts = index.count_range_batch(los, his)
        for lo, hi, c in zip(los, his, counts):
            want = sum(1 for k in live if lo <= k < hi) if hi > lo else 0
            assert c == want
            assert index.count_range(float(lo), float(hi)) == want


class TestConcurrentWrapper:
    @settings(max_examples=25, deadline=None)
    @given(keys_set=key_sets)
    def test_concurrent_batch_equivalence(self, keys_set):
        keys = np.array(sorted(float(k) for k in keys_set))
        index = ConcurrentDILI(stripes=8)
        index.bulk_load(keys)
        probe = np.concatenate([keys, keys + 1.0])
        got = index.get_batch(probe)
        want = [index.get(float(k)) for k in probe]
        assert got == want
        member = index.contains_batch(probe)
        assert member.tolist() == [v is not None for v in want]
        index.insert(float(keys[0]) + 0.5, "mid")
        got = index.get_batch([float(keys[0]) + 0.5])
        assert got == ["mid"]
        assert index.count_range(float(keys[0]), float(keys[-1]) + 1.0) == (
            len(keys) + 1
        )
        counts = index.count_range_batch([float(keys[0])],
                                         [float(keys[-1]) + 1.0])
        assert counts.tolist() == [len(keys) + 1]


class TestPayloadKinds:
    @pytest.mark.parametrize("kind", PAYLOAD_KINDS)
    def test_dili(self, kind):
        index = DILI()
        payload_rounds(index, kind)
        # The rounds exercised both maintenance tiers on one plan.
        assert index.plan_patches > 0
        assert index.plan_subtree_recompiles > 0
        assert index.plan_recompiles == 1

    @pytest.mark.parametrize("kind", PAYLOAD_KINDS)
    def test_concurrent(self, kind):
        # Published plans are frozen: every round goes through the
        # copy-on-write clones of the payload table.
        payload_rounds(ConcurrentDILI(stripes=8), kind)
