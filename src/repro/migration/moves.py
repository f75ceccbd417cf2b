"""Move primitives: the difference between two assignments.

A :class:`Move` relocates one shard from its current machine to a target
machine.  While a move is *in flight* the shard's resources are held on
both machines — the transient resource constraint that motivates the
whole paper.

The planner works on :class:`MoveArrays` (one array per ``Move`` field)
and builds ``Move`` objects only when a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster import ClusterState

__all__ = ["Move", "MoveArrays", "diff_move_arrays", "diff_moves"]


@dataclass(frozen=True)
class Move:
    """Relocate ``shard_id`` from ``src`` to ``dst``.

    ``bytes`` is the data volume to copy (drives the makespan model).
    ``hop_of`` is -1 for direct moves; staged (multi-hop) moves record the
    shard's original source so reports can group hops per logical move.
    """

    shard_id: int
    src: int
    dst: int
    bytes: float
    hop_of: int = -1

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"move of shard {self.shard_id} has src == dst == {self.src}")
        if self.bytes < 0:
            raise ValueError(f"move bytes must be >= 0, got {self.bytes}")

    @property
    def is_staged_hop(self) -> bool:
        return self.hop_of >= 0


@dataclass(frozen=True)
class MoveArrays:
    """A sequence of moves as parallel arrays, one entry per move.

    ``shard``, ``src``, ``dst`` and ``hop_of`` are int64, ``bytes`` is
    float64; entry ``i`` is the move ``Move(shard[i], src[i], dst[i],
    bytes[i], hop_of[i])``.
    """

    shard: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    bytes: np.ndarray
    hop_of: np.ndarray

    def __len__(self) -> int:
        return int(self.shard.size)

    @classmethod
    def empty(cls) -> MoveArrays:
        ints = np.empty(0, dtype=np.int64)
        return cls(ints, ints, ints, np.empty(0, dtype=np.float64), ints)

    @classmethod
    def from_moves(cls, moves: Sequence[Move]) -> MoveArrays:
        if not moves:
            return cls.empty()
        return cls(
            np.array([mv.shard_id for mv in moves], dtype=np.int64),
            np.array([mv.src for mv in moves], dtype=np.int64),
            np.array([mv.dst for mv in moves], dtype=np.int64),
            np.array([mv.bytes for mv in moves], dtype=np.float64),
            np.array([mv.hop_of for mv in moves], dtype=np.int64),
        )

    @classmethod
    def concat(cls, parts: Sequence[MoveArrays]) -> MoveArrays:
        if not parts:
            return cls.empty()
        return cls(
            *(
                np.concatenate([getattr(p, name) for p in parts])
                for name in ("shard", "src", "dst", "bytes", "hop_of")
            )
        )

    def take(self, index: np.ndarray | slice) -> MoveArrays:
        """The entries at *index* (an index array, boolean mask or slice)."""
        return MoveArrays(
            self.shard[index],
            self.src[index],
            self.dst[index],
            self.bytes[index],
            self.hop_of[index],
        )

    def to_moves(self) -> list[Move]:
        """The entries as ``Move`` objects, in order."""
        return [
            Move(shard_id=s, src=a, dst=b, bytes=nb, hop_of=h)
            for s, a, b, nb, h in zip(
                self.shard.tolist(),
                self.src.tolist(),
                self.dst.tolist(),
                self.bytes.tolist(),
                self.hop_of.tolist(),
            )
        ]

    def total_bytes(self) -> float:
        """Sum of ``bytes``, added left to right like ``sum()`` over moves."""
        return float(sum(self.bytes.tolist()))


def diff_move_arrays(state: ClusterState, target_assignment: np.ndarray) -> MoveArrays:
    """:func:`diff_moves` as move arrays (no ``Move`` objects built)."""
    if not state.is_fully_assigned():
        raise ValueError("diff requires a fully assigned state")
    target = np.asarray(target_assignment, dtype=np.int64)
    if target.shape != (state.num_shards,):
        raise ValueError(
            f"target must have shape ({state.num_shards},), got {target.shape}"
        )
    if np.any((target < 0) | (target >= state.num_machines)):
        raise ValueError("target references unknown machines")
    current = state.assignment_view()
    changed = np.flatnonzero(current != target)
    return MoveArrays(
        changed.astype(np.int64, copy=False),
        current[changed],
        target[changed],
        state.sizes[changed].astype(np.float64),
        np.full(changed.size, -1, dtype=np.int64),
    )


def diff_moves(
    state: ClusterState,
    target_assignment: np.ndarray,
) -> list[Move]:
    """Moves turning *state*'s current assignment into *target_assignment*.

    Shards already in place generate no move, and moves come in shard
    order.  The state must be fully assigned; the target must reference
    valid machines.
    """
    return diff_move_arrays(state, target_assignment).to_moves()
