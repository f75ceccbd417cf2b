"""Cluster snapshot (de)serialization.

Snapshots are plain dicts (JSON-compatible) so that instances can be saved
alongside experiment results and replayed byte-for-byte.  The format is
versioned; loaders reject unknown versions rather than guessing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.resources import ResourceSchema
from repro.cluster.shard import Shard
from repro.cluster.state import ClusterState

__all__ = ["to_dict", "from_dict", "save_json", "load_json", "SNAPSHOT_VERSION"]

SNAPSHOT_VERSION = 1

_ID_MIN, _ID_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _as_id(value: Any, what: str) -> int:
    """*value* as an int64 id; booleans, floats and other non-integers
    (JSON ``true``, ``1.7``, ``1e308``) and out-of-range integers
    (``2**70``) raise ``ValueError`` rather than being truncated."""
    # ``type(...) is int`` also turns away bool, a subclass of int.
    if type(value) is not int and not isinstance(value, np.integer):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not _ID_MIN <= value <= _ID_MAX:
        raise ValueError(f"{what} {value} is outside int64")
    return int(value)


def _as_ids(values: Any, what: str) -> list[int]:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list, got {type(values).__name__}")
    return [_as_id(v, what) for v in values]


def to_dict(state: ClusterState) -> dict[str, Any]:
    """Serialize *state* to a JSON-compatible dict."""
    return {
        "version": SNAPSHOT_VERSION,
        "schema": list(state.schema.names),
        "machines": [
            {
                "id": mach.id,
                "capacity": mach.capacity.tolist(),
                "cls": mach.cls,
                "exchange": bool(mach.exchange),
            }
            for mach in state.machines
        ],
        "shards": [
            {
                "id": sh.id,
                "demand": sh.demand.tolist(),
                "size_bytes": float(sh.size_bytes),
                "replica_of": int(sh.replica_of),
            }
            for sh in state.shards
        ],
        "assignment": state.assignment.tolist(),
        "offline": np.flatnonzero(state.offline_mask).tolist(),
        "blocked": np.flatnonzero(state.blocked_mask & ~state.offline_mask).tolist(),
    }


def from_dict(data: dict[str, Any]) -> ClusterState:
    """Rebuild a :class:`ClusterState` from :func:`to_dict` output."""
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version!r}")
    schema = ResourceSchema(tuple(data["schema"]))
    machines = [
        Machine(
            id=_as_id(m["id"], "machine id"),
            capacity=np.asarray(m["capacity"], dtype=np.float64),
            schema=schema,
            cls=str(m.get("cls", "default")),
            exchange=bool(m.get("exchange", False)),
        )
        for m in data["machines"]
    ]
    shards = [
        Shard(
            id=_as_id(s["id"], "shard id"),
            demand=np.asarray(s["demand"], dtype=np.float64),
            schema=schema,
            size_bytes=float(s.get("size_bytes", -1.0)),
            replica_of=_as_id(s.get("replica_of", -1), "shard replica_of"),
        )
        for s in data["shards"]
    ]
    state = ClusterState(
        machines, shards, _as_ids(data["assignment"], "assignment machine id")
    )
    # Older snapshots (pre scenario registry) carry no mask fields; both
    # default to empty so they round-trip unchanged.
    for machine_id in _as_ids(data.get("offline", []), "offline machine id"):
        state.set_offline(machine_id)
    for machine_id in _as_ids(data.get("blocked", []), "blocked machine id"):
        state.block_machine(machine_id)
    return state


def save_json(state: ClusterState, path: str | Path) -> None:
    """Write *state* to *path* as JSON."""
    Path(path).write_text(json.dumps(to_dict(state)))


def load_json(path: str | Path) -> ClusterState:
    """Read a snapshot previously written by :func:`save_json`."""
    return from_dict(json.loads(Path(path).read_text()))
