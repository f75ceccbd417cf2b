"""Which library callables the traced run wraps, and the per-layer metrics.

Layer names follow the package layout under ``src/repro``: ``cluster``
(state, journal, exchange ledger, snapshots), ``algorithms`` (ALNS,
operators, objective, best filter, polish), ``migration`` (planner,
wave scheduler), ``metrics`` (episode evaluation), ``runtime`` (event
kernel, serving machines, executor, controller) and ``parallel``
(shared-memory publication and the worker pool).

Only public entry points are wrapped, with two exceptions that have no
public equivalent: the SRA best filter is a closure, so it is wrapped
where it is handed to ``AlnsEngine.run``; and the migration executor's
wave callbacks (``_start_wave`` / ``_complete_wave``) are the only place
its simulated-time work happens.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from typing import Any, Callable, Iterator

import numpy as np

from spans import Patcher, Recorder

#: Per-layer metric name -> unit, in output order.  Every traced run
#: reports all of them; a layer a workload does not reach reads 0.
PER_LAYER_UNITS: dict[str, str] = {
    # cluster
    "cluster.load_json_s": "s",
    "cluster.copy.calls": "count",
    "cluster.copy_s": "s",
    "cluster.txn.begin.calls": "count",
    "cluster.txn.commit.calls": "count",
    "cluster.txn.rollback.calls": "count",
    "exchange.borrow_s": "s",
    "exchange.is_satisfiable.calls": "count",
    "exchange.settle_s": "s",
    # algorithms
    "alns.iterations": "count",
    "alns.accepted": "count",
    "alns.rejected_by_filter": "count",
    "destroy.calls": "count",
    "destroy_s": "s",
    "repair.regret2_s": "s",
    "repair.greedy_s": "s",
    "objective.calls": "count",
    "objective_s": "s",
    "filter.calls": "count",
    "filter_s": "s",
    "filter.pass_ratio": "ratio",
    "polish_s": "s",
    "polish.kept": "count",
    "finalize_s": "s",
    # migration
    "plan.calls": "count",
    "plan_s": "s",
    "plan.feasible_ratio": "ratio",
    "schedule.calls": "count",
    "schedule_s": "s",
    "plan.waves_mean": "count",
    "diff_moves_s": "s",
    # metrics
    "evaluate_s": "s",
    # runtime
    "runtime.events": "count",
    "runtime.run_self_s": "s",
    "machines.enqueue.calls": "count",
    "machines.enqueue_s": "s",
    "machines.set_speed.calls": "count",
    "executor.waves": "count",
    "executor_s": "s",
    "controller.rounds": "count",
    "controller.round_s": "s",
    "sim_migration_window_frac": "ratio",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "queries_per_s": "1/s",
    # parallel
    "pool.publish_s": "s",
    "pool.spawn_s": "s",
    "pool.task_s": "s",
    "pool.overhead_s": "s",
    "pool.tasks_failed": "count",
    # self time per layer, and what no layer covers
    "self.cluster_s": "s",
    "self.algorithms_s": "s",
    "self.migration_s": "s",
    "self.metrics_s": "s",
    "self.runtime_s": "s",
    "self.parallel_s": "s",
    "other_s": "s",
    "traced_wall_s": "s",
    "plan_share": "ratio",
    "polish_share": "ratio",
    "trace_overhead_frac": "ratio",
    # outcome of the rebalancing decisions (episodes or rounds)
    "feasible_frac": "ratio",
    "peak_after": "ratio",
    "bytes_moved": "B",
    # the machine's speed during the run, and the unscaled timings
    "speed_factor": "ratio",
    "setup_raw_s": "s",
    "wall_raw_s": "s",
}

LAYERS = ("cluster", "algorithms", "migration", "metrics", "runtime", "parallel")

#: Repair operator ``__name__`` -> span name.
_REPAIR_SPANS = {"regret2_insertion": "repair.regret2", "greedy_best_fit": "repair.greedy"}


class _WrappedOp:
    """A destroy/repair operator that records a span per call.

    Keeps the operator's ``__name__``: the engine keys adaptive weights
    and trace events by it.
    """

    def __init__(self, op: Callable[..., Any], span: str, rec: Recorder) -> None:
        self._op = op
        self._span = span
        self._rec = rec
        self.__name__ = op.__name__

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        index = self._rec.open(self._span, "algorithms")
        try:
            return self._op(*args, **kwargs)
        finally:
            self._rec.close(index)


class Tracing:
    """Wrap the library for one traced run; :meth:`remove` restores it.

    Besides spans, it keeps the values the per-layer metrics need from
    return values: ALNS outcomes, plan results, restart reports.
    """

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.patcher = Patcher(rec)
        self.alns: list[Any] = []
        self.plans: list[Any] = []
        self.filter_passed = 0
        self.polish_kept = 0
        self.restart_reports: list[tuple[Any, tuple, dict]] = []
        self.executors: list[Any] = []
        self._sra_frames: list[list[Any]] = []

    # ----------------------------------------------------------- install
    def install(self) -> None:
        from repro.algorithms import lns, objective, sra
        from repro.algorithms.base import finalize_result
        from repro.algorithms.baselines import LocalSearchRebalancer
        from repro.cluster import ClusterState, ExchangeLedger
        from repro.cluster import snapshot
        from repro.metrics import imbalance_report, summarize_plan
        from repro.migration import StagingPlanner, WaveScheduler, diff_moves
        from repro.parallel import restarts, runner, shm
        from repro.runtime import kernel, machines, migration, processes
        from repro.workloads import make_exchange_machines

        p = self.patcher
        _installed.append(self)

        def span(name: str, layer: str, on_return: Any = None) -> Callable[[Any], Any]:
            return lambda fn: p.span_fn(fn, name, layer, on_return)

        # cluster
        p.replace_everywhere(snapshot.load_json, span("cluster.load_json", "cluster"))
        p.replace(ClusterState, "copy", lambda fn: p.leaf_fn(fn, "cluster.copy", "cluster"))
        for verb in ("begin", "commit", "rollback"):
            p.replace(ClusterState, verb, lambda fn, v=verb: p.count_fn(fn, f"cluster.txn.{v}"))
        p.replace(ExchangeLedger, "borrow", span("exchange.borrow", "cluster"))
        p.replace_everywhere(make_exchange_machines, span("exchange.borrow", "cluster"))
        p.replace(ExchangeLedger, "is_satisfiable",
                  lambda fn: p.count_fn(fn, "exchange.is_satisfiable"))
        p.replace(ExchangeLedger, "settle", span("exchange.settle", "cluster"))

        # algorithms
        p.replace(sra.SRA, "rebalance", self._wrap_sra)
        p.replace(lns.AlnsEngine, "__init__", self._wrap_engine_init)
        p.replace(lns.AlnsEngine, "run", self._wrap_engine_run)
        p.replace(objective.IncrementalObjective, "__call__", span("objective", "algorithms"))
        p.replace(LocalSearchRebalancer, "improve_in_place", span("polish", "algorithms"))
        p.replace_everywhere(finalize_result, span("finalize", "algorithms"))

        # migration
        p.replace(StagingPlanner, "plan",
                  span("plan", "migration", lambda r, a, k: self.plans.append(r)))
        p.replace(WaveScheduler, "schedule", span("schedule", "migration"))
        p.replace_everywhere(diff_moves, span("diff_moves", "migration"))

        # metrics
        p.replace_everywhere(imbalance_report, span("evaluate", "metrics"))
        p.replace_everywhere(summarize_plan, span("evaluate", "metrics"))

        # runtime
        p.replace(kernel.Runtime, "run", span("runtime.run", "runtime"))
        p.replace(kernel.EventQueue, "pop", lambda fn: p.count_fn(fn, "runtime.events"))
        p.replace(machines.FCFSMachine, "enqueue",
                  lambda fn: p.leaf_fn(fn, "machines.enqueue", "runtime"))
        p.replace(machines.FCFSMachine, "set_speed",
                  lambda fn: p.count_fn(fn, "machines.set_speed"))
        p.replace(migration.MigrationExecutor, "start", self._capture_executor)
        for cb in ("_start_wave", "_complete_wave"):
            p.replace(migration.MigrationExecutor, cb, span("executor", "runtime"))
        p.replace(processes.RebalanceController, "rebalance_now",
                  span("controller.round", "runtime"))

        # parallel
        p.replace_everywhere(shm.publish_state, span("pool.publish", "parallel"))
        p.replace(runner.ParallelRunner, "_spawn_worker", span("pool.spawn", "parallel"))
        p.replace_everywhere(restarts.run_sra_restarts, span(
            "pool.restarts", "parallel",
            lambda r, a, k: self.restart_reports.append((r, a, k)),
        ))

    def remove(self) -> None:
        self.patcher.restore()
        if self in _installed:
            _installed.remove(self)

    # ------------------------------------------------------ special cases
    def _wrap_sra(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        inner = self.patcher.span_fn(fn, "sra.rebalance", "algorithms")

        def rebalance(sra_self: Any, state: Any, ledger: Any = None, **kwargs: Any) -> Any:
            self._sra_frames.append([])
            try:
                result = inner(sra_self, state, ledger, **kwargs)
            finally:
                outcomes = self._sra_frames.pop()
            best = outcomes[-1].best_assignment if outcomes else None
            if best is not None and not np.array_equal(best, result.target_assignment):
                self.polish_kept += 1
            return result

        return rebalance

    def _wrap_engine_init(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        rec = self.rec

        def init(engine: Any, *args: Any, **kwargs: Any) -> None:
            fn(engine, *args, **kwargs)
            engine.destroy_ops = [_WrappedOp(op, "destroy", rec) for op in engine.destroy_ops]
            engine.repair_ops = [
                _WrappedOp(op, _REPAIR_SPANS.get(op.__name__, f"repair.{op.__name__}"), rec)
                for op in engine.repair_ops
            ]

        return init

    def _wrap_engine_run(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        inner = self.patcher.span_fn(fn, "alns.run", "algorithms")
        patcher = self.patcher

        def run(engine: Any, state: Any, objective: Any, *, best_filter: Any = None, **kw: Any) -> Any:
            if best_filter is not None:
                original = best_filter

                def counted(candidate: Any) -> bool:
                    ok = original(candidate)
                    self.filter_passed += bool(ok)
                    return ok

                best_filter = patcher.span_fn(counted, "filter", "algorithms")
            outcome = inner(engine, state, objective, best_filter=best_filter, **kw)
            self.alns.append(outcome)
            if self._sra_frames:
                self._sra_frames[-1].append(outcome)
            return outcome

        return run

    def _capture_executor(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def start(executor: Any, rt: Any) -> None:
            self.executors.append(executor)
            fn(executor, rt)

        return start

    # ------------------------------------------------------------ metrics
    def metrics(self, traced_wall: float) -> dict[str, float]:
        """Per-layer metrics from everything recorded, for operations that
        took *traced_wall* seconds in all.  Run-level keys (overhead,
        simulated latency, pool totals) are filled in by the workload."""
        rec = self.rec
        totals = rec.totals()

        def calls(name: str) -> float:
            return float(totals.get(name, (0, 0.0))[0])

        def secs(name: str) -> float:
            return float(totals.get(name, (0, 0.0))[1])

        counts = rec.counts
        out: dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
        out.update({
            "cluster.copy.calls": calls("cluster.copy"),
            "cluster.copy_s": secs("cluster.copy"),
            "cluster.txn.begin.calls": float(counts.get("cluster.txn.begin", 0)),
            "cluster.txn.commit.calls": float(counts.get("cluster.txn.commit", 0)),
            "cluster.txn.rollback.calls": float(counts.get("cluster.txn.rollback", 0)),
            "exchange.borrow_s": secs("exchange.borrow"),
            "exchange.is_satisfiable.calls": float(counts.get("exchange.is_satisfiable", 0)),
            "exchange.settle_s": secs("exchange.settle"),
            "alns.iterations": float(sum(o.iterations for o in self.alns)),
            "alns.accepted": float(sum(o.accepted for o in self.alns)),
            "alns.rejected_by_filter": float(sum(o.rejected_by_filter for o in self.alns)),
            "destroy.calls": calls("destroy"),
            "destroy_s": secs("destroy"),
            "repair.regret2_s": secs("repair.regret2"),
            "repair.greedy_s": secs("repair.greedy"),
            "objective.calls": calls("objective"),
            "objective_s": secs("objective"),
            "filter.calls": calls("filter"),
            "filter_s": secs("filter"),
            "filter.pass_ratio": self.filter_passed / calls("filter") if calls("filter") else 0.0,
            "polish_s": secs("polish"),
            "polish.kept": float(self.polish_kept),
            "finalize_s": secs("finalize"),
            "plan.calls": calls("plan"),
            "plan_s": secs("plan"),
            "plan.feasible_ratio": (
                sum(bool(r.feasible) for r in self.plans) / len(self.plans) if self.plans else 0.0
            ),
            "schedule.calls": calls("schedule"),
            "schedule_s": secs("schedule"),
            "plan.waves_mean": (
                statistics.fmean(r.schedule.num_waves for r in self.plans) if self.plans else 0.0
            ),
            "diff_moves_s": secs("diff_moves"),
            "evaluate_s": secs("evaluate"),
            "runtime.events": float(counts.get("runtime.events", 0)),
            "machines.enqueue.calls": calls("machines.enqueue"),
            "machines.enqueue_s": secs("machines.enqueue"),
            "machines.set_speed.calls": float(counts.get("machines.set_speed", 0)),
            "executor.waves": float(sum(len(e.wave_intervals) for e in self.executors)),
            "executor_s": secs("executor"),
            "controller.rounds": calls("controller.round"),
            "controller.round_s": secs("controller.round"),
            "pool.publish_s": secs("pool.publish"),
            "pool.spawn_s": secs("pool.spawn"),
        })
        out["runtime.run_self_s"] = _span_self(rec, "runtime.run")
        layer_self = rec.self_times()
        for layer in LAYERS:
            out[f"self.{layer}_s"] = layer_self.get(layer, 0.0)
        out["traced_wall_s"] = traced_wall
        out["other_s"] = traced_wall - rec.covered()
        # Shares of the time the library ran in this process: on
        # restarts-pool the parent's wait for the workers is left out.
        in_process = traced_wall - _span_self(rec, "pool.restarts")
        if in_process > 0:
            out["plan_share"] = out["plan_s"] / in_process
            out["polish_share"] = out["polish_s"] / in_process
        return out


#: Tracings installed in this process, for ``_unwrap_in_child``.
_installed: list[Tracing] = []


def _unwrap_in_child() -> None:
    """A process forked during a traced run (a pool worker) runs the
    library unwrapped: its spans would be lost with it, and the wrappers'
    cost would inflate ``TaskResult.duration_s`` and so ``pool.task_s``."""
    while _installed:
        _installed.pop().patcher.restore()


os.register_at_fork(after_in_child=_unwrap_in_child)


@contextlib.contextmanager
def active(tracing: Tracing | None) -> Iterator[None]:
    """Install *tracing* for the duration of the block (no-op for None)."""
    if tracing is None:
        yield
        return
    tracing.install()
    try:
        yield
    finally:
        tracing.remove()


def _span_self(rec: Recorder, name: str) -> float:
    """Self seconds of every span called *name* (children and leaves out)."""
    child: dict[int, float] = {}
    for sp in rec.spans:
        if sp.parent >= 0:
            child[sp.parent] = child.get(sp.parent, 0.0) + sp.duration
    return sum(
        sp.duration - child.get(i, 0.0) - sp.leaf_s
        for i, sp in enumerate(rec.spans)
        if sp.name == name
    )
