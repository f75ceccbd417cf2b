"""Episode report: everything an operator needs to review a rebalancing."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.algorithms import RebalanceResult
from repro.cluster import ClusterState
from repro.metrics import ImbalanceReport, MigrationSummary

__all__ = ["RebalanceReport"]


@dataclass(frozen=True)
class RebalanceReport:
    """Full outcome of one :class:`ResourceExchangeRebalancer` episode.

    Attributes
    ----------
    result:
        The raw algorithm result (target assignment, plan, settlement).
    before / after:
        Balance metrics of the initial and final cluster.
    migration:
        Migration cost summary (moves, bytes, makespan).
    borrowed / returned:
        Machine counts of the exchange contract as executed.
    exchanged:
        Number of borrowed machines *retained* in service (an equal
        number of drained in-service machines was returned instead) —
        the headline number of the resource-exchange idea.
    final:
        The augmented fleet (borrowed machines included) with the target
        assignment applied — what ``repro run --out`` saves.
    trace / metrics:
        Machine-readable run artifacts — the episode's trace records
        (``repro.obs.Tracer.records()`` format) and metrics snapshot
        (``MetricsRegistry.to_dict()`` format).  None unless an
        observability bundle was active during the episode.
    """

    result: RebalanceResult
    before: ImbalanceReport
    after: ImbalanceReport
    migration: MigrationSummary
    borrowed: int
    returned: int
    exchanged: int
    final: ClusterState = field(repr=False, compare=False)
    trace: list[dict[str, Any]] | None = None
    metrics: dict[str, Any] | None = None

    @property
    def feasible(self) -> bool:
        return self.result.feasible

    def save_trace_jsonl(self, path) -> None:
        """Persist the trace attachment as JSONL (requires a traced run)."""
        if self.trace is None:
            raise ValueError("report has no trace; run under repro.obs.observed()")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.trace:
                fh.write(json.dumps(rec, default=str) + "\n")

    def save_metrics_json(self, path) -> None:
        """Persist the metrics attachment as JSON (requires a metered run)."""
        if self.metrics is None:
            raise ValueError("report has no metrics; run under repro.obs.observed()")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @property
    def peak_improvement(self) -> float:
        return self.before.peak_utilization - self.after.peak_utilization

    def format_table(self) -> str:
        """Human-readable summary table."""
        rows = [
            ("algorithm", self.result.algorithm),
            ("feasible", str(self.feasible)),
            ("peak before", f"{self.before.peak_utilization:.4f}"),
            ("peak after", f"{self.after.peak_utilization:.4f}"),
            ("cv before", f"{self.before.cv:.4f}"),
            ("cv after", f"{self.after.cv:.4f}"),
            ("jain before", f"{self.before.jain:.4f}"),
            ("jain after", f"{self.after.jain:.4f}"),
            ("moves", str(self.migration.num_moves)),
            ("staging hops", str(self.migration.num_hops)),
            ("waves", str(self.migration.num_waves)),
            ("bytes moved", f"{self.migration.total_bytes:.3g}"),
            ("makespan (s)", f"{self.migration.makespan_seconds:.3g}"),
            (
                "wave seconds",
                " ".join(f"{s:.3g}" for s in self.migration.wave_seconds) or "-",
            ),
            ("borrowed", str(self.borrowed)),
            ("returned", str(self.returned)),
            ("exchanged", str(self.exchanged)),
            ("runtime (s)", f"{self.result.runtime_seconds:.2f}"),
            ("iterations", str(self.result.iterations)),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)
