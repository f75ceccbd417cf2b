"""The public facade: borrow, rebalance, plan, settle — in one call.

:class:`ResourceExchangeRebalancer` is the API a downstream user touches:

    >>> from repro import ResourceExchangeRebalancer
    >>> from repro.workloads import generate_zipf
    >>> state = generate_zipf(seed=1)
    >>> report = ResourceExchangeRebalancer(exchange_machines=2).run(state)
    >>> print(report.format_table())          # doctest: +SKIP

It runs one :func:`~repro.core.episode.run_episode` — augment the
cluster with borrowed machines, run the configured algorithm (SRA by
default), which plans the transient-safe migration and settles the
vacancy-return contract — and packages the metrics.
"""

from __future__ import annotations

from repro import obs
from repro.algorithms import Rebalancer, SRA, SRAConfig
from repro.cluster import ClusterState
from repro.cluster.exchange import ReturnPolicy
from repro.core.episode import run_episode
from repro.core.report import RebalanceReport
from repro.metrics import imbalance_report, summarize_plan
from repro.migration import BandwidthModel
from repro.obs.metrics import UTILIZATION_EDGES
from repro.workloads import make_exchange_machines

__all__ = ["ResourceExchangeRebalancer"]


class ResourceExchangeRebalancer:
    """One-call rebalancing with resource exchange.

    Parameters
    ----------
    algorithm:
        A :class:`Rebalancer` instance; defaults to SRA with default
        configuration.
    exchange_machines:
        ``B`` — vacant machines to borrow (sized at the fleet's mean
        capacity; pass ``exchange_capacity_scale`` to change).
    required_returns:
        ``R`` — vacant machines owed back; defaults to ``B``.
    return_policy:
        ``"count"`` (default) or ``"capacity"`` — see
        :class:`repro.cluster.ExchangeLedger`.
    exchange_capacity_scale:
        Borrowed machine capacity relative to the fleet mean.
    bandwidth:
        Network model for makespan reporting.
    """

    def __init__(
        self,
        algorithm: Rebalancer | None = None,
        *,
        exchange_machines: int = 0,
        required_returns: int | None = None,
        return_policy: ReturnPolicy = "count",
        exchange_capacity_scale: float = 1.0,
        bandwidth: BandwidthModel | None = None,
    ) -> None:
        if exchange_machines < 0:
            raise ValueError(f"exchange_machines must be >= 0, got {exchange_machines}")
        if required_returns is not None and required_returns < 0:
            raise ValueError(f"required_returns must be >= 0, got {required_returns}")
        self.algorithm = algorithm or SRA(SRAConfig())
        self.exchange_machines = exchange_machines
        self.required_returns = (
            exchange_machines if required_returns is None else required_returns
        )
        self.return_policy = return_policy
        self.exchange_capacity_scale = exchange_capacity_scale
        self.bandwidth = bandwidth or BandwidthModel()

    def run(self, state: ClusterState) -> RebalanceReport:
        """Execute one full rebalancing episode on *state* (not mutated).

        When an observability bundle is active (``repro.obs``), the
        episode is traced phase by phase — borrow, search (algorithm
        internals included), evaluate — and the returned report carries
        the trace records and the metrics snapshot as attachments.
        """
        o = obs.current()
        with o.tracer.span(
            "episode",
            algorithm=self.algorithm.name,
            machines=state.num_machines,
            shards=state.num_shards,
            exchange_machines=self.exchange_machines,
            required_returns=self.required_returns,
        ) as span:
            ep = run_episode(
                state,
                self.algorithm,
                make_exchange_machines(
                    state,
                    self.exchange_machines,
                    capacity_scale=self.exchange_capacity_scale,
                ),
                required_returns=self.required_returns,
                policy=self.return_policy,
            )
            result = ep.result
            with o.tracer.span("evaluate"):
                before = imbalance_report(ep.grown)
                after = imbalance_report(ep.final)
                migration = summarize_plan(
                    result.plan, ep.grown.num_machines, self.bandwidth
                )
            settlement = result.settlement
            exchanged = returned = 0
            if settlement is not None:
                exchanged = len(settlement.retained_borrowed_ids)
                returned = len(settlement.returned_ids)
            span.set("feasible", result.feasible)
            span.set("peak_before", before.peak_utilization)
            span.set("peak_after", after.peak_utilization)

        if o.metrics.enabled:
            m = o.metrics
            m.counter("episode.runs").inc()
            m.counter("episode.moves").inc(migration.num_moves)
            m.counter("episode.bytes_moved").inc(migration.total_bytes)
            m.gauge("episode.peak_before").set(before.peak_utilization)
            m.gauge("episode.peak_after").set(after.peak_utilization)
            m.gauge("episode.makespan_seconds").set(migration.makespan_seconds)
            m.histogram("episode.machine_utilization", UTILIZATION_EDGES).observe_many(
                ep.final.machine_peak_utilization().tolist()
            )
        return RebalanceReport(
            result=result,
            before=before,
            after=after,
            migration=migration,
            borrowed=len(ep.loaners),
            returned=returned,
            exchanged=exchanged,
            final=ep.final,
            trace=o.tracer.records() if o.tracer.enabled else None,
            metrics=o.metrics.to_dict() if o.metrics.enabled else None,
        )
