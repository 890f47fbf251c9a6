"""The shard manifest: one JSON file naming the partition.

``shards.json`` in the sharded state directory records the router, the
shard subdirectories (each a standard
:class:`~repro.durability.durable.DurableDILI` state dir with its own
WAL, snapshot and ``plans/`` directory), and a monotonic generation
counter bumped by every rebalance.  Writes are atomic (temp file +
fsync + ``os.replace`` + directory fsync), so a crash mid-rebalance
leaves either the old complete manifest or the new one -- the same
contract as the snapshot and plan-store writers.

Old shard directories are never deleted by a rebalance; they simply
stop being referenced, mirroring the plan store's
quarantine-never-delete policy.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.durability.snapshot import fsync_dir

MANIFEST_NAME = "shards.json"
MANIFEST_VERSION = 1


class ManifestError(ValueError):
    """The manifest is missing, torn, or structurally invalid."""


@dataclass
class ShardEntry:
    """One referenced shard directory."""

    name: str  # subdirectory, e.g. "shard-0000"
    count: int  # keys at last manifest write (informational)
    config: dict = field(default_factory=dict)  # tuned knobs, for status

    def to_dict(self) -> dict:
        return {"name": self.name, "count": self.count, "config": self.config}

    @classmethod
    def from_dict(cls, spec: dict) -> "ShardEntry":
        return cls(spec["name"], int(spec["count"]), dict(spec.get("config", {})))


@dataclass
class Manifest:
    """The full partition description."""

    router: dict  # router_from_dict spec
    shards: list  # list[ShardEntry]
    generation: int = 1
    next_shard: int = 0  # next fresh shard directory number
    partition: str = "range"  # "range" | "aligned" (informational)

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "generation": self.generation,
            "partition": self.partition,
            "next_shard": self.next_shard,
            "router": self.router,
            "shards": [s.to_dict() for s in self.shards],
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "Manifest":
        if spec.get("version") != MANIFEST_VERSION:
            raise ManifestError(
                f"unsupported manifest version {spec.get('version')!r}"
            )
        return cls(
            router=dict(spec["router"]),
            shards=[ShardEntry.from_dict(s) for s in spec["shards"]],
            generation=int(spec["generation"]),
            next_shard=int(spec["next_shard"]),
            partition=str(spec.get("partition", "range")),
        )


def manifest_path(dirpath) -> str:
    return os.path.join(os.fspath(dirpath), MANIFEST_NAME)


def write_manifest(dirpath, manifest: Manifest) -> str:
    """Atomically publish ``manifest`` under ``dirpath``."""
    path = manifest_path(dirpath)
    payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(path))
    return path


def read_manifest(dirpath) -> Manifest:
    path = manifest_path(dirpath)
    if not os.path.exists(path):
        raise ManifestError(f"{path}: no shard manifest")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(spec, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    try:
        return Manifest.from_dict(spec)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ManifestError):
            raise
        raise ManifestError(f"{path}: malformed manifest: {exc}") from exc
