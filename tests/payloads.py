"""Payload kinds the batch gathers must hand back unchanged.

Within one index every payload has the same kind, so the tuple, list
and ndarray kinds are all the same length: a gather that assigned a
Python list of hits through a boolean mask would have numpy read that
list as a 2-D array and raise, and a payload table built with
``np.asarray`` would grow an extra dimension.  Shared by the in-memory
and plan-store equivalence tests.
"""

import numpy as np

PAYLOAD_KINDS = ("int", "str", "tuple", "list", "ndarray")


def payload(kind: str, i: int):
    """The ``i``-th payload of ``kind``."""
    if kind == "int":
        return i
    if kind == "str":
        return f"v{i}"
    if kind == "tuple":
        return ("v", i)
    if kind == "list":
        return [i, i + 1]
    return np.array([i, i + 1, i + 2], dtype=np.int64)


def payloads(kind: str, start: int, count: int) -> list:
    return [payload(kind, i) for i in range(start, start + count)]


def assert_same_payloads(got: list, want: list) -> None:
    """Element-wise equality with matching types (``None`` for misses)."""
    assert type(got) is list
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert type(g) is type(w), (i, g, w)
        if isinstance(w, np.ndarray):
            assert np.array_equal(g, w), (i, g, w)
        else:
            assert g == w, (i, g, w)


def payload_rounds(index, kind: str) -> np.ndarray:
    """Bulk load ``index`` with ``kind`` payloads, then run insert,
    delete and update batches that keep its compiled plan alive through
    slot patches and subtree splices, checking ``get_batch`` against
    scalar ``get`` after every step.  Returns the probe keys."""
    keys = np.unique(
        np.random.default_rng(17).integers(0, 2**40, 600)
    ).astype(np.float64)
    index.bulk_load(keys, payloads(kind, 0, len(keys)))
    # Every key once as a hit and once as a miss.
    probe = np.concatenate([keys, keys + 0.25])

    def check():
        assert_same_payloads(
            index.get_batch(probe), [index.get(float(k)) for k in probe]
        )

    check()
    # Midpoints mostly collide with an occupied slot (nested-leaf
    # spawn: a subtree splice); the rest fill empty slots (a patch).
    added = keys[::2] + 0.5
    index.insert_batch(added, payloads(kind, 10_000, len(added)))
    probe = np.concatenate([probe, added])
    check()
    index.delete_batch(np.concatenate([keys[1::3], added[::4]]))
    check()
    updated = keys[::5]
    index.update_batch(updated, payloads(kind, 20_000, len(updated)))
    check()
    return probe
