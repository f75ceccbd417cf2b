"""Public facade of the library."""

from repro.core.episode import Episode, run_episode
from repro.core.rebalancer import ResourceExchangeRebalancer
from repro.core.report import RebalanceReport

__all__ = ["Episode", "ResourceExchangeRebalancer", "RebalanceReport", "run_episode"]
