"""Migration planning under transient resource constraints."""

from repro.migration.costmodel import BandwidthModel, MigrationCost
from repro.migration.moves import Move, MoveArrays, diff_move_arrays, diff_moves
from repro.migration.scheduler import Schedule, WaveKernel, WaveScheduler
from repro.migration.staging import (
    PlanResult,
    StagingPlanner,
    deadlock_cycles,
    dependency_graph,
)

__all__ = [
    "Move",
    "MoveArrays",
    "diff_move_arrays",
    "diff_moves",
    "Schedule",
    "WaveKernel",
    "WaveScheduler",
    "StagingPlanner",
    "PlanResult",
    "dependency_graph",
    "deadlock_cycles",
    "BandwidthModel",
    "MigrationCost",
]
