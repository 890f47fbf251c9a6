"""Shared fixtures for the resilience suite."""

import numpy as np
import pytest

from repro import DILI
from repro.data import load_dataset


@pytest.fixture
def keys():
    """A small, memoized key set (read-only -- copy before mutating)."""
    return load_dataset("logn", 4_000, seed=0)


@pytest.fixture
def loaded(keys):
    """A DILI over ``keys`` with a warm flat plan."""
    index = DILI()
    index.bulk_load(keys, list(range(len(keys))))
    index.get_batch(keys[:64])  # compile the plan
    return index


@pytest.fixture
def rng():
    return np.random.default_rng(42)
