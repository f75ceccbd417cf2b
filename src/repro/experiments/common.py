"""Shared experiment helpers."""

from __future__ import annotations

from typing import Any, Mapping

from repro.algorithms import AlnsConfig, SRA, SRAConfig
from repro.cluster import ClusterState
from repro.core import run_episode
from repro.workloads import make_exchange_machines

__all__ = ["make_sra", "run_sra_with_exchange", "scenario_instance"]


def make_sra(iterations: int, seed: int = 0, **sra_kwargs) -> SRA:
    """SRA with the experiment-standard configuration."""
    return SRA(SRAConfig(alns=AlnsConfig(iterations=iterations, seed=seed), **sra_kwargs))


def scenario_instance(
    scenario: str, params: Mapping[str, Any] | None = None, *, seed: int = 0
) -> ClusterState:
    """Generate one instance from the scenario registry.

    The standard way an experiment obtains an instance outside the named
    suites: the spec (scenario, params, seed) is the provenance record,
    and its hash ties the experiment's rows to a reproducible input.
    Imported lazily because the scenario families import the workload
    generators at module scope.
    """
    from repro.scenarios import ScenarioSpec, generate_instance

    return generate_instance(ScenarioSpec(scenario, dict(params or {}), seed=seed))


def run_sra_with_exchange(
    state: ClusterState,
    budget: int,
    *,
    iterations: int,
    seed: int = 0,
    required_returns: int | None = None,
    **sra_kwargs,
):
    """Borrow *budget* machines, run SRA, return (result, grown, ledger)."""
    episode = run_episode(
        state,
        make_sra(iterations, seed, **sra_kwargs),
        make_exchange_machines(state, budget),
        required_returns=required_returns,
    )
    return episode.result, episode.grown, episode.ledger
