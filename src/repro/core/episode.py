"""One exchange episode: borrow → solve → settle.

The paper's operational model is one episode: borrow ``B`` vacant
machines, reassign shards, return ``R`` vacant machines.
:func:`run_episode` is the one implementation; the facade, the machine
pool, both runtime controllers, the experiments and ``repro run --out``
all call it.  The :class:`Episode` derives ``final`` and ``settled``
lazily, so a caller pays only for what it reads, and settles from the
``result.settlement`` that :func:`~repro.algorithms.finalize_result`
computed: the ledger settles once per episode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from repro import obs
from repro.algorithms import RebalanceResult
from repro.cluster import ClusterState, ExchangeLedger, Machine
from repro.cluster.exchange import ExchangeSettlement, ReturnPolicy

__all__ = ["Episode", "run_episode"]


@dataclass
class Episode:
    """The loaners, the grown fleet with its ledger, and the rebalancer's
    result on it."""

    loaners: list[Machine]
    grown: ClusterState
    ledger: ExchangeLedger
    result: RebalanceResult

    @property
    def feasible(self) -> bool:
        return self.result.feasible

    @cached_property
    def final(self) -> ClusterState:
        """The grown fleet with the target assignment applied."""
        final = self.grown.copy()
        final.apply_assignment(self.result.target_assignment)
        return final

    @property
    def settlement(self) -> ExchangeSettlement:
        settlement = self.result.settlement
        if not self.feasible or settlement is None:
            raise ValueError("only a feasible episode with a ledger settles")
        return settlement

    @cached_property
    def settled(self) -> ClusterState:
        """The final fleet without the returned machines, re-indexed."""
        return self.final.without_machines(self.settlement.returned_ids)

    @property
    def returned_machines(self) -> list[Machine]:
        """What goes back to the lender: the returned machines, or every
        loaner when the episode is infeasible."""
        if not self.feasible:
            return list(self.loaners)
        return [self.grown.machines[mid] for mid in self.settlement.returned_ids]


def run_episode(
    state: ClusterState,
    rebalancer: Any,
    loaners: Sequence[Machine],
    *,
    required_returns: int | None = None,
    policy: ReturnPolicy = "count",
    warm_start: np.ndarray | None = None,
) -> Episode:
    """Borrow *loaners* into *state* (not mutated) and run *rebalancer*.

    *rebalancer* is anything with ``rebalance(state, ledger)``; a
    *warm_start* is passed on as ``rebalance(..., warm_start=...)``.
    ``required_returns`` defaults to the number of loaners.
    """
    tracer = obs.current().tracer
    loaners = list(loaners)
    with tracer.span("exchange.borrow", requested=len(loaners)):
        grown, ledger = ExchangeLedger.borrow(
            state, loaners, required_returns=required_returns, policy=policy
        )
    with tracer.span("search", algorithm=getattr(rebalancer, "name", "rebalancer")):
        if warm_start is None:
            result = rebalancer.rebalance(grown, ledger)
        else:
            result = rebalancer.rebalance(grown, ledger, warm_start=warm_start)
    return Episode(loaners, grown, ledger, result)
