"""Differential oracle: the exchange-episode drivers before the pipeline.

Before :func:`repro.core.run_episode`, each caller ran its own
borrow → solve → settle: the facade's ``run``, ``rebalance_with_pool``,
and ``RebalanceController.rebalance_now`` with four subclass hooks (the
incremental controller's pool-sized versions included).  They are kept
here verbatim so ``test_episode_pipeline.py`` can pin the pipeline to
them.  The one edit is the facade's report, which now also carries the
final fleet.  It is test code only; nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro import obs
from repro.algorithms import RebalanceResult, Rebalancer
from repro.cluster import ClusterState, ExchangeLedger, PoolDecision, settle_fleet
from repro.cluster.exchange import ReturnPolicy
from repro.core import RebalanceReport, ResourceExchangeRebalancer
from repro.metrics import imbalance_report, summarize_plan
from repro.obs.metrics import UTILIZATION_EDGES
from repro.pool import MachinePool, PoolEpisode
from repro.runtime import IncrementalRebalanceController, RebalanceController
from repro.runtime.kernel import Runtime
from repro.runtime.migration import MigrationExecutor
from repro.runtime.processes import EpisodeOutcome
from repro.workloads import make_exchange_machines


def facade_run(self: ResourceExchangeRebalancer, state: ClusterState) -> RebalanceReport:
    """``ResourceExchangeRebalancer.run`` as it was."""
    o = obs.current()
    with o.tracer.span(
        "episode",
        algorithm=self.algorithm.name,
        machines=state.num_machines,
        shards=state.num_shards,
        exchange_machines=self.exchange_machines,
        required_returns=self.required_returns,
    ) as episode:
        with o.tracer.span("exchange.borrow", requested=self.exchange_machines):
            loaners = make_exchange_machines(
                state,
                self.exchange_machines,
                capacity_scale=self.exchange_capacity_scale,
            )
            grown, ledger = ExchangeLedger.borrow(
                state,
                loaners,
                required_returns=self.required_returns,
                policy=self.return_policy,
            )
        with o.tracer.span("search", algorithm=self.algorithm.name):
            result = self.algorithm.rebalance(grown, ledger)

        with o.tracer.span("evaluate"):
            final = grown.copy()
            final.apply_assignment(result.target_assignment)
            before = imbalance_report(grown)
            after = imbalance_report(final)
            migration = summarize_plan(
                result.plan, grown.num_machines, self.bandwidth
            )
        exchanged = (
            len(result.settlement.retained_borrowed_ids)
            if result.settlement is not None
            else 0
        )
        returned = (
            len(result.settlement.returned_ids)
            if result.settlement is not None
            else 0
        )
        episode.set("feasible", result.feasible)
        episode.set("peak_before", before.peak_utilization)
        episode.set("peak_after", after.peak_utilization)

    if o.metrics.enabled:
        m = o.metrics
        m.counter("episode.runs").inc()
        m.counter("episode.moves").inc(migration.num_moves)
        m.counter("episode.bytes_moved").inc(migration.total_bytes)
        m.gauge("episode.peak_before").set(before.peak_utilization)
        m.gauge("episode.peak_after").set(after.peak_utilization)
        m.gauge("episode.makespan_seconds").set(migration.makespan_seconds)
        m.histogram("episode.machine_utilization", UTILIZATION_EDGES).observe_many(
            final.machine_peak_utilization().tolist()
        )
    return RebalanceReport(
        result=result,
        before=before,
        after=after,
        migration=migration,
        borrowed=len(loaners),
        returned=returned,
        exchanged=exchanged,
        final=final,
        trace=o.tracer.records() if o.tracer.enabled else None,
        metrics=o.metrics.to_dict() if o.metrics.enabled else None,
    )


def rebalance_with_pool(
    pool: MachinePool,
    state: ClusterState,
    rebalancer: Rebalancer,
    *,
    budget: int,
    label: str = "cluster",
    policy: ReturnPolicy = "count",
) -> tuple[ClusterState, RebalanceResult]:
    """``repro.pool.rebalance_with_pool`` as it was."""
    lent = pool.lend(budget)
    grown, ledger = ExchangeLedger.borrow(state, lent, policy=policy)
    result = rebalancer.rebalance(grown, ledger)
    if not result.feasible:
        pool.accept(lent)
        pool.history.append(
            PoolEpisode(
                cluster_label=label,
                lent=budget,
                returned=budget,
                exchanged=0,
                feasible=False,
                peak_before=state.peak_utilization(),
                peak_after=state.peak_utilization(),
                pool_size_after=pool.size,
                pool_capacity_after=tuple(pool.total_capacity()),
            )
        )
        return state.copy(), result

    final = grown.copy()
    final.apply_assignment(result.target_assignment)
    slim, settlement, returned_machines = settle_fleet(final, ledger)
    pool.accept(returned_machines)
    pool.history.append(
        PoolEpisode(
            cluster_label=label,
            lent=budget,
            returned=len(returned_machines),
            exchanged=len(settlement.retained_borrowed_ids),
            feasible=True,
            peak_before=state.peak_utilization(),
            peak_after=slim.peak_utilization(),
            pool_size_after=pool.size,
            pool_capacity_after=tuple(pool.total_capacity()),
        )
    )
    return slim, result


class OracleRebalanceController(RebalanceController):
    """``RebalanceController`` with its hook-based ``rebalance_now``."""

    def _open_episode(self, current: ClusterState) -> tuple[ClusterState, ExchangeLedger]:
        """Borrow for one episode (subclass hook: pool-sized loans)."""
        return ExchangeLedger.borrow(
            current, make_exchange_machines(current, self.exchange_budget)
        )

    def _solve(self, grown: ClusterState, ledger: ExchangeLedger) -> Any:
        """Run the rebalancer (subclass hook: warm-started solves)."""
        return self.rebalancer.rebalance(grown, ledger)

    def _on_infeasible(self, ledger: ExchangeLedger) -> None:
        """Subclass hook: undo episode borrowing after an infeasible solve."""

    def _on_settled(self, settlement: Any, returned: List[Any]) -> None:
        """Subclass hook: route instantly-settled returns (e.g. to a pool)."""

    def rebalance_now(self, rt: Runtime, *, peak_before: float) -> EpisodeOutcome:
        current = self.handle.state
        grown, ledger = self._open_episode(current)
        result = self._solve(grown, ledger)
        record: Dict[str, Any] = {
            "time": rt.now,
            "peak_before": peak_before,
            "feasible": bool(result.feasible),
            "moves": 0,
            "bytes_moved": 0.0,
            "waves": 0,
            "window_seconds": 0.0,
            "completed_at": None,
        }
        self.episodes.append(record)
        tracer = obs.current().tracer
        if tracer.enabled:
            tracer.event(
                "runtime.rebalance",
                time=rt.now,
                peak_before=peak_before,
                feasible=bool(result.feasible),
            )
        if not result.feasible:
            self._on_infeasible(ledger)
            return EpisodeOutcome(attempted=True, feasible=False)
        if self.execution == "instant":
            final = grown.copy()
            final.apply_assignment(result.target_assignment)
            settled, settlement, returned = settle_fleet(final, ledger)
            self.handle.state = settled
            self._on_settled(settlement, returned)
            moved_bytes = (
                result.plan.schedule.total_bytes() if result.plan else 0.0
            )
            record.update(
                moves=result.num_moves,
                bytes_moved=moved_bytes,
                completed_at=rt.now,
            )
            self._last_completed = rt.now
            return EpisodeOutcome(
                attempted=True,
                feasible=True,
                moves=result.num_moves,
                bytes_moved=moved_bytes,
            )
        # Simulated: hand the plan's waves to an executor on the clock.
        assert self.fleet is not None and self.location is not None
        if result.plan is None or not result.plan.schedule.waves:
            # Nothing to move: the episode completes at the decision instant.
            self.handle.state = self.handle.state.copy()
            self.handle.state.apply_assignment(result.target_assignment)
            record.update(moves=result.num_moves, completed_at=rt.now)
            self._last_completed = rt.now
            return EpisodeOutcome(attempted=True, feasible=True, moves=result.num_moves)
        self._in_flight = True
        self._pending_target = np.asarray(result.target_assignment, dtype=np.int64)
        executor = MigrationExecutor(
            schedule=result.plan.schedule,
            fleet=self.fleet,
            location=self.location,
            loads=current.loads.copy(),
            capacity=current.capacity,
            demand=current.demand,
            model=self.bandwidth,
            transfer_overhead=self.transfer_overhead,
            start_at=rt.now,
            on_complete=self._complete,
        )
        self._executor = executor
        record.update(moves=result.num_moves, waves=len(result.plan.schedule.waves))
        rt.add(executor)
        return EpisodeOutcome(
            attempted=True, feasible=True, moves=result.num_moves, in_flight=True
        )


class OracleIncrementalController(OracleRebalanceController, IncrementalRebalanceController):
    """``IncrementalRebalanceController`` with its pool hooks and the
    ``_lent``/``_decision`` plumbing between the gate and the episode."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._lent: List[Any] = []
        self._decision: Optional[PoolDecision] = None

    def _policy_fires(self, peak: float) -> bool:
        fire = self.detector.should_trigger()
        if self.pool is not None and self.pool_manager is not None:
            # The pool policy is a second trigger: a round must also run
            # when the loan should grow (overload) or shrink (release) —
            # releases in particular happen when the detector is quiet.
            self._decision = self.pool_manager.check(
                peak=peak, available=self.pool.size
            )
            fire = fire or self._decision.borrow > 0 or self._decision.release > 0
            if not fire:
                self._decision = None  # round not taken; don't reuse it later
        return fire

    # ---------------------------------------------------------------- episode
    def _open_episode(self, current: ClusterState) -> tuple[ClusterState, ExchangeLedger]:
        if self.pool is None or self.pool_manager is None:
            return super()._open_episode(current)
        if self._decision is None:
            # Direct rebalance_now call (no gated check preceded it).
            self._decision = self.pool_manager.check(
                peak=current.peak_utilization(), available=self.pool.size
            )
        decision = self._decision
        self._lent = self.pool.lend(decision.borrow) if decision.borrow else []
        # Borrowed machines become ordinary fleet members until the
        # policy releases them: nothing is owed at this settlement.
        # A release round borrows nothing and owes `release` vacancies,
        # which settle_fleet hands back to the pool via _on_settled.
        return ExchangeLedger.borrow(
            current, self._lent, required_returns=decision.release
        )

    def _solve(self, grown: ClusterState, ledger: ExchangeLedger) -> Any:
        if self.location is not None and self.execution == "simulated":
            warm = np.asarray(self.location, dtype=np.int64).copy()
        else:
            warm = grown.assignment
        return self.rebalancer.rebalance(grown, ledger, warm_start=warm)

    def _on_infeasible(self, ledger: ExchangeLedger) -> None:
        if self.pool is None or self.pool_manager is None:
            return
        # The loan never joined the fleet: hand it straight back.
        if self._lent:
            self.pool.accept(self._lent)
        assert self._decision is not None
        self.pool_manager.note(self._decision, borrowed=0, released=0)
        self._lent = []
        self._decision = None

    def _on_settled(self, settlement: Any, returned: List[Any]) -> None:
        if self.pool is None or self.pool_manager is None:
            return
        if returned:
            self.pool.accept(returned)
        assert self._decision is not None
        self.pool_manager.note(
            self._decision, borrowed=len(self._lent), released=len(returned)
        )
        self._lent = []
        self._decision = None
