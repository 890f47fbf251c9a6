"""TreeSanitizer / verify_tree: clean workloads pass, seeded structural
damage of every category is caught."""

import pickle

import numpy as np
import pytest

from repro.check import SanitizerViolation, TreeSanitizer, verify_tree
from repro.core.dili import DILI
from repro.core.nodes import InternalNode, LeafNode


def _keys(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.unique(rng.uniform(0, 1e9, n))


def _sanitized(keys, **kwargs):
    index = DILI()
    index.sanitizer = TreeSanitizer(**kwargs)
    index.bulk_load(keys)
    return index


def _first_pair_leaf(node):
    """Depth-first search for a LeafNode holding at least one pair."""
    if type(node) is InternalNode:
        for child in node.children:
            found = _first_pair_leaf(child)
            if found is not None:
                return found
        return None
    if type(node) is LeafNode:
        if any(type(s) is tuple for s in node.slots):
            return node
        for slot in node.slots:
            if slot is not None and type(slot) is not tuple:
                found = _first_pair_leaf(slot)
                if found is not None:
                    return found
    return None


class TestCleanWorkloads:
    def test_mixed_workload_under_full_checking(self):
        keys = _keys(2000)
        index = _sanitized(keys, full_every=1)
        index.get_batch(keys[:512])  # compile the plan
        fresh = keys[:100] + 0.5
        index.insert_batch(fresh, [f"v{k}" for k in fresh])
        index.update_batch(fresh[:20], ["u"] * 20)
        index.delete_batch(fresh[:50])
        assert index.insert(keys[-1] + 1.0, "tail")
        assert index.update(float(keys[0]), "head")
        assert index.delete(float(keys[1]))
        verify_tree(index)
        assert index.sanitizer.full_checks > 3
        assert index.sanitizer.checks >= index.sanitizer.full_checks

    def test_empty_tree_verifies(self):
        verify_tree(DILI())

    def test_amortized_policy_skips_small_batches(self):
        keys = _keys(2000)
        index = _sanitized(keys)  # default amortize=1.0, min_interval=256
        after_bulk = index.sanitizer.full_checks
        for i in range(10):
            index.insert(float(keys[-1] + i + 1), "x")
        # 10 touched keys never reach max(256, count): spot checks only.
        assert index.sanitizer.full_checks == after_bulk
        assert index.sanitizer.checks >= 10

    def test_amortized_policy_triggers_on_churn(self):
        keys = _keys(100)
        index = _sanitized(keys, amortize=0.1, min_interval=8)
        index.get_batch(keys)
        after_bulk = index.sanitizer.full_checks
        fresh = keys + 0.5
        for start in range(0, 100, 20):
            index.insert_batch(fresh[start:start + 20])
        assert index.sanitizer.full_checks > after_bulk

    def test_rejects_bad_amortize(self):
        with pytest.raises(ValueError):
            TreeSanitizer(amortize=0.0)


class TestSeededDamage:
    def test_count_drift(self):
        index = _sanitized(_keys(500))
        index._count += 1
        with pytest.raises(SanitizerViolation, match="count mismatch"):
            verify_tree(index)

    def test_count_drift_caught_on_next_write(self):
        keys = _keys(500)
        index = _sanitized(keys, full_every=1)
        index._count -= 1
        with pytest.raises(SanitizerViolation):
            index.insert(float(keys[-1]) + 1.0, "x")

    def test_plan_value_divergence(self):
        keys = _keys(500)
        index = _sanitized(keys)
        index.get_batch(keys)  # compile the plan
        index._flat.values[0] = object()  # repro-check test seed
        with pytest.raises(SanitizerViolation, match="diverged"):
            verify_tree(index)

    def test_plan_key_table_divergence(self):
        keys = _keys(500)
        index = _sanitized(keys)
        index.get_batch(keys)
        plan = index._flat
        # A compiled plan's key view is its base (both sides empty).
        plan.key_base = plan.key_base[:-1]  # repro-check test seed
        with pytest.raises(SanitizerViolation):
            verify_tree(index)

    def test_misplaced_pair(self):
        index = _sanitized(_keys(500))
        leaf = _first_pair_leaf(index.root)
        assert leaf is not None
        src = next(
            i for i, s in enumerate(leaf.slots) if type(s) is tuple
        )
        dst = next(
            (i for i, s in enumerate(leaf.slots)
             if s is None and i != src),
            None,
        )
        assert dst is not None, "expected an empty slot in a bulk-loaded leaf"
        leaf.slots[dst] = leaf.slots[src]
        leaf.slots[src] = None
        with pytest.raises(SanitizerViolation, match="predicts"):
            verify_tree(index, check_plan=False, check_router=False)

    def test_broken_internal_model(self):
        keys = np.arange(0.0, 20000.0)  # large enough for internal nodes
        index = _sanitized(keys)
        assert type(index.root) is InternalNode
        index.root.slope *= 1.0000001
        with pytest.raises(SanitizerViolation, match="equal-width"):
            verify_tree(index, check_plan=False, check_router=False)


class TestLifecycle:
    def test_sanitizer_dropped_by_pickle(self):
        index = _sanitized(_keys(200))
        clone = pickle.loads(pickle.dumps(index))
        assert clone.sanitizer is None
        verify_tree(clone)
