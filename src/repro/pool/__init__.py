"""Shared exchange-machine pool: lend, rebalance, settle."""

from repro.pool.manager import MachinePool, PoolEpisode, lend_episode, rebalance_with_pool

__all__ = ["MachinePool", "PoolEpisode", "lend_episode", "rebalance_with_pool"]
