"""Online processes: workload drift and mid-stream rebalancing.

:class:`DriftProcess` applies a drift model at epoch boundaries on the
shared clock.  :class:`RebalanceController` watches the cluster's peak
utilization and, per policy, runs an SRA episode — either
*instantaneously* (the legacy ``OnlineSimulator`` contract, preserved
bit-for-bit by the facade) or *simulated*, where the resulting plan is
handed to a :class:`~repro.runtime.migration.MigrationExecutor` and
executed wave-by-wave while queries keep arriving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import obs
from repro._validation import check_in, check_non_negative, check_positive
from repro.cluster import ClusterState
from repro.core import Episode, run_episode
from repro.migration.costmodel import BandwidthModel
from repro.runtime.kernel import Runtime
from repro.runtime.machines import ServingFleet
from repro.runtime.migration import MigrationExecutor
from repro.workloads import make_exchange_machines

__all__ = ["ClusterHandle", "DriftProcess", "RebalanceController", "EpisodeOutcome"]


class ClusterHandle:
    """Mutable reference to the evolving cluster state.

    Processes share one handle so that drift (which *replaces* the state
    with a re-demanded copy) and rebalancing (which mutates or replaces
    the assignment) always see each other's latest view.
    """

    __slots__ = ("state",)

    def __init__(self, state: ClusterState) -> None:
        self.state = state


class DriftProcess:
    """Applies a drift model at each epoch boundary.

    Epoch ``e`` (0-based) fires at ``start_at + (e + 1) * epoch_length``:
    the workload the cluster *wakes up to* at the end of each epoch.
    Subscribers run synchronously after the drift lands, in subscription
    order — the rebalance controller subscribes here so its policy always
    evaluates the post-drift peak.
    """

    def __init__(
        self,
        handle: ClusterHandle,
        drift: Any,
        *,
        epochs: int,
        epoch_length: float = 1.0,
        start_at: float = 0.0,
    ) -> None:
        check_positive("epochs", epochs)
        check_positive("epoch_length", epoch_length)
        check_non_negative("start_at", start_at)
        self.handle = handle
        self.drift = drift
        self.epochs = int(epochs)
        self.epoch_length = epoch_length
        self.start_at = start_at
        self._epoch = 0
        self._subscribers: List[Callable[[Runtime, int], None]] = []

    def subscribe(self, fn: Callable[[Runtime, int], None]) -> None:
        """Run *fn(rt, epoch)* after each epoch's drift is applied."""
        self._subscribers.append(fn)

    def start(self, rt: Runtime) -> None:
        rt.at(self.start_at + self.epoch_length, self._on_epoch)

    def _on_epoch(self, rt: Runtime) -> None:
        epoch = self._epoch
        self.handle.state = self.drift.step(self.handle.state)
        tracer = obs.current().tracer
        if tracer.enabled:
            tracer.event(
                "runtime.epoch",
                epoch=epoch,
                peak=self.handle.state.peak_utilization(),
            )
        for fn in self._subscribers:
            fn(rt, epoch)
        self._epoch = epoch + 1
        if self._epoch < self.epochs:
            rt.at(self.start_at + (self._epoch + 1) * self.epoch_length, self._on_epoch)


@dataclass(frozen=True)
class EpisodeOutcome:
    """Synchronous result of one rebalancing decision.

    ``in_flight`` is True for simulated executions, whose migration cost
    lands in the controller's ``episodes`` record once the last wave
    retires.
    """

    attempted: bool
    feasible: bool = True
    moves: int = 0
    bytes_moved: float = 0.0
    in_flight: bool = False


class RebalanceController:
    """Policy-gated SRA episodes on the shared clock.

    Parameters
    ----------
    handle:
        The cluster the policy watches and episodes rewrite.
    rebalancer:
        Any object with ``rebalance(state, ledger) -> RebalanceResult``.
    policy / threshold:
        ``"always"`` rebalances on every check, ``"threshold"`` only when
        the peak utilization exceeds *threshold*, ``"never"`` is the
        do-nothing control.
    exchange_budget:
        Machines borrowed per instantaneous episode (returned at its
        settlement).  Simulated execution requires a budget of 0: the
        serving fleet cannot grow mid-run (yet).
    execution:
        ``"instant"`` applies the settled state at the decision instant
        (the legacy epoch-loop semantics); ``"simulated"`` executes the
        plan's wave schedule on the clock via a
        :class:`MigrationExecutor` while serving continues.
    fleet / location / bandwidth / transfer_overhead:
        Simulated-execution wiring (required iff simulated).
    check_interval / horizon:
        Optional periodic self-scheduled policy checks every
        *check_interval* seconds until *horizon*.
    trigger_at:
        Optional one-shot policy check at an absolute time.
    cooldown:
        Minimum simulated seconds between an episode's *completion* and
        the next trigger (0 = legacy behavior).  Together with the
        in-flight guard this is the anti-thrash hysteresis: a new
        episode can neither start while a migration schedule is still
        executing, nor immediately after it lands while the fleet is
        still absorbing the moves.
    """

    def __init__(
        self,
        handle: ClusterHandle,
        rebalancer: Any,
        *,
        policy: str = "threshold",
        threshold: float = 0.95,
        exchange_budget: int = 0,
        execution: str = "instant",
        fleet: Optional[ServingFleet] = None,
        location: Optional[np.ndarray] = None,
        bandwidth: Optional[BandwidthModel] = None,
        transfer_overhead: float = 0.3,
        check_interval: Optional[float] = None,
        horizon: Optional[float] = None,
        trigger_at: Optional[float] = None,
        cooldown: float = 0.0,
    ) -> None:
        check_in("policy", policy, ("always", "threshold", "never"))
        check_in("execution", execution, ("instant", "simulated"))
        check_positive("threshold", threshold)
        check_non_negative("exchange_budget", exchange_budget)
        check_non_negative("cooldown", cooldown)
        if execution == "simulated":
            if fleet is None or location is None:
                raise ValueError("simulated execution requires fleet and location")
            if exchange_budget != 0:
                raise ValueError(
                    "simulated execution cannot borrow machines mid-run; "
                    "grow the fleet before serving starts instead"
                )
        if check_interval is not None:
            check_positive("check_interval", check_interval)
            if horizon is None:
                raise ValueError("check_interval requires a horizon")
        self.handle = handle
        self.rebalancer = rebalancer
        self.policy = policy
        self.threshold = threshold
        self.exchange_budget = int(exchange_budget)
        self.execution = execution
        self.fleet = fleet
        self.location = location
        self.bandwidth = bandwidth or BandwidthModel()
        self.transfer_overhead = transfer_overhead
        self.check_interval = check_interval
        self.horizon = horizon
        self.trigger_at = trigger_at
        self.cooldown = float(cooldown)
        #: One record per attempted episode (mutated on async completion).
        self.episodes: List[Dict[str, Any]] = []
        self._in_flight = False
        self._pending_target: Optional[np.ndarray] = None
        self._executor: Optional[MigrationExecutor] = None
        self._last_completed: Optional[float] = None

    # ------------------------------------------------------------------ hooks
    def start(self, rt: Runtime) -> None:
        if self.trigger_at is not None:
            rt.at(self.trigger_at, self._check)
        if self.check_interval is not None:
            rt.at(rt.now + self.check_interval, self._tick)

    def on_epoch(self, rt: Runtime, epoch: int) -> None:
        """DriftProcess subscriber: policy check after each epoch's drift."""
        self._check(rt)

    # ----------------------------------------------------------------- policy
    def _tick(self, rt: Runtime) -> None:
        self._check(rt)
        assert self.check_interval is not None and self.horizon is not None
        next_t = rt.now + self.check_interval
        if next_t <= self.horizon:
            rt.at(next_t, self._tick)

    def _check(self, rt: Runtime) -> None:
        self.maybe_rebalance(rt)

    def should_rebalance(self, peak: float, now: Optional[float] = None) -> bool:
        if self._in_flight or self.policy == "never":
            return False
        if (
            self.cooldown > 0.0
            and now is not None
            and self._last_completed is not None
            and now - self._last_completed < self.cooldown
        ):
            return False
        return self._policy_fires(peak)

    def _policy_fires(self, peak: float) -> bool:
        """The policy's trigger verdict, after the in-flight/cooldown
        guards have passed (subclass hook: the incremental controller
        substitutes its drift detector here)."""
        return self.policy == "always" or peak > self.threshold

    def maybe_rebalance(self, rt: Runtime) -> EpisodeOutcome:
        """Run one policy-gated episode; returns what happened."""
        peak = self.handle.state.peak_utilization()
        if not self.should_rebalance(peak, now=rt.now):
            return EpisodeOutcome(attempted=False)
        return self.rebalance_now(rt, peak_before=peak)

    # ---------------------------------------------------------------- episode
    def _run_episode(self, current: ClusterState) -> Episode:
        """Borrow ``exchange_budget`` machines and solve (the incremental
        controller warm-starts and lends from its pool instead)."""
        return run_episode(
            current,
            self.rebalancer,
            make_exchange_machines(current, self.exchange_budget),
        )

    def rebalance_now(self, rt: Runtime, *, peak_before: float) -> EpisodeOutcome:
        current = self.handle.state
        episode = self._run_episode(current)
        result = episode.result
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
            return EpisodeOutcome(attempted=True, feasible=False)
        plan = result.plan
        record["moves"] = moves = result.num_moves
        if self.execution == "instant":
            self.handle.state = episode.settled
            moved_bytes = plan.schedule.total_bytes() if plan else 0.0
            record.update(bytes_moved=moved_bytes, completed_at=rt.now)
            self._last_completed = rt.now
            return EpisodeOutcome(
                attempted=True, feasible=True, moves=moves, bytes_moved=moved_bytes
            )
        # Simulated: hand the plan's waves to an executor on the clock.
        assert self.fleet is not None and self.location is not None
        if plan is None or not plan.schedule.waves:
            # Nothing to move: the episode completes at the decision instant.
            self.handle.state = episode.final
            record["completed_at"] = self._last_completed = rt.now
            return EpisodeOutcome(attempted=True, feasible=True, moves=moves)
        self._in_flight = True
        self._pending_target = np.asarray(result.target_assignment, dtype=np.int64)
        self._executor = MigrationExecutor(
            schedule=plan.schedule,
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
        record["waves"] = len(plan.schedule.waves)
        rt.add(self._executor)
        return EpisodeOutcome(attempted=True, feasible=True, moves=moves, in_flight=True)

    def _complete(self, rt: Runtime) -> None:
        assert self._executor is not None and self._pending_target is not None
        record = self.episodes[-1]
        record.update(
            bytes_moved=self._executor.bytes_transferred,
            window_seconds=rt.now - float(record["time"]),
            completed_at=rt.now,
        )
        state = self.handle.state.copy()
        state.apply_assignment(self._pending_target)
        self.handle.state = state
        self._executor = None
        self._pending_target = None
        self._in_flight = False
        self._last_completed = rt.now
