"""The shared exchange-machine pool.

The paper's operational model implies an entity that owns the vacant
machines: clusters borrow from a **shared pool**, rebalance, and hand
back compensation machines.  :class:`MachinePool` is that entity — a
machine inventory with lend/settle bookkeeping — :func:`lend_episode`
runs one exchange episode on machines lent from it, and
:func:`rebalance_with_pool` is that episode with an audit record:

1. lend ``B`` machines to the cluster,
2. run the rebalancer,
3. settle: returned machines (possibly *different* machines) re-enter
   the inventory, the cluster keeps the rest,
4. the fleet and the pool sizes are conserved by construction.

Because returned machines may differ from lent ones, the pool's
*composition* evolves over episodes even though its *size* does not —
the long-run effect of the paper's exchange, measured in E17.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._validation import check_non_negative
from repro.algorithms import RebalanceResult, Rebalancer
from repro.cluster import ClusterState, Machine
from repro.cluster.exchange import ReturnPolicy
from repro.core import Episode, run_episode

__all__ = ["MachinePool", "PoolEpisode", "lend_episode", "rebalance_with_pool"]


class MachinePool:
    """An inventory of vacant machines available for exchange.

    Machines are held as descriptions (ids are re-stamped when lent into
    a cluster).  The pool refuses to lend more than it holds and records
    every episode for auditability.
    """

    def __init__(self, machines: list[Machine] | None = None) -> None:
        self._machines: list[Machine] = list(machines or [])
        self.history: list["PoolEpisode"] = []

    @property
    def size(self) -> int:
        return len(self._machines)

    def total_capacity(self) -> np.ndarray:
        """Summed capacity of the inventory (zeros when empty)."""
        if not self._machines:
            return np.zeros(0)
        return np.stack([m.capacity for m in self._machines]).sum(axis=0)

    def inventory(self) -> list[Machine]:
        """Copy of the current inventory."""
        return list(self._machines)

    # ------------------------------------------------------------- lending
    def lend(self, count: int) -> list[Machine]:
        """Remove *count* machines from the inventory (largest first)."""
        check_non_negative("count", count)
        if count > self.size:
            raise ValueError(f"pool holds {self.size} machines, cannot lend {count}")
        if count == 0:
            # Lending nothing leaves the inventory (and its order) as is.
            return []
        # Lend the largest machines first — they are the most useful as
        # staging hosts and packing targets.
        self._machines.sort(key=lambda m: -float(m.capacity.sum()))
        lent = self._machines[:count]
        self._machines = self._machines[count:]
        return [
            Machine(
                id=k,
                capacity=m.capacity.copy(),
                schema=m.schema,
                cls=m.cls,
                exchange=True,
            )
            for k, m in enumerate(lent)
        ]

    def accept(self, machines: list[Machine]) -> None:
        """Add returned machines to the inventory."""
        for m in machines:
            self._machines.append(
                Machine(
                    id=self.size,
                    capacity=m.capacity.copy(),
                    schema=m.schema,
                    cls=m.cls,
                    exchange=False,
                )
            )


@dataclass(frozen=True)
class PoolEpisode:
    """Audit record of one lend/rebalance/settle cycle."""

    cluster_label: str
    lent: int
    returned: int
    exchanged: int
    feasible: bool
    peak_before: float
    peak_after: float
    pool_size_after: int
    pool_capacity_after: tuple[float, ...] = field(default_factory=tuple)


def lend_episode(
    pool: MachinePool,
    state: ClusterState,
    rebalancer: Any,
    count: int,
    *,
    required_returns: int | None = None,
    policy: ReturnPolicy = "count",
    warm_start: np.ndarray | None = None,
) -> Episode:
    """One :func:`~repro.core.run_episode` on *count* machines lent from
    *pool*, which takes back what the episode gives back: every lent
    machine if it is infeasible, the returned machines if it settles."""
    lent = pool.lend(count)
    episode = run_episode(
        state,
        rebalancer,
        lent,
        required_returns=required_returns,
        policy=policy,
        warm_start=warm_start,
    )
    pool.accept(episode.returned_machines)
    return episode


def rebalance_with_pool(
    pool: MachinePool,
    state: ClusterState,
    rebalancer: Rebalancer,
    *,
    budget: int,
    label: str = "cluster",
    policy: ReturnPolicy = "count",
) -> tuple[ClusterState, RebalanceResult]:
    """One full exchange episode of *state* against *pool*.

    Returns the post-settlement cluster (fleet size unchanged: lent
    machines either returned or swapped one-for-one against drained
    in-service machines) and the raw algorithm result.  On an infeasible
    episode the lent machines go straight back and the input state is
    returned unchanged.
    """
    episode = lend_episode(pool, state, rebalancer, budget, policy=policy)
    feasible = episode.feasible
    slim = episode.settled if feasible else state.copy()
    pool.history.append(
        PoolEpisode(
            cluster_label=label,
            lent=budget,
            returned=len(episode.returned_machines),
            exchanged=len(episode.settlement.retained_borrowed_ids) if feasible else 0,
            feasible=feasible,
            peak_before=state.peak_utilization(),
            peak_after=slim.peak_utilization(),
            pool_size_after=pool.size,
            pool_capacity_after=tuple(pool.total_capacity()),
        )
    )
    return slim, episode.result
