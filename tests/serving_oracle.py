"""Differential oracle: the per-task serving fleet.

Before the fleet moved to arrays (:mod:`repro.runtime.machines`), every
shard task of every query was one ``_Task`` object on a per-machine
deque, enqueued by one ``FCFSMachine.enqueue`` call each.  These
classes are kept verbatim so ``test_serving_oracle.py`` can pin the
array fleet to them: identical latencies and busy times, bit for bit.
:func:`replay_runtime` runs one ``repro runtime`` command through
either fleet.  It is test code only; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import contextlib
import io
from collections import deque
from typing import Any, Deque, Dict, Iterator, List

import numpy as np

from repro._validation import check_positive
from repro.runtime.kernel import Runtime


class QueryRecord:
    """Completion bookkeeping for one fan-out query.

    ``finish_max`` starts at the arrival time and folds in task finish
    times as they are finalized; the query's latency is their difference.
    """

    __slots__ = ("arrival", "finish_max")

    def __init__(self, arrival: float) -> None:
        self.arrival = arrival
        self.finish_max = arrival

    def complete(self, finish: float) -> None:
        if finish > self.finish_max:
            self.finish_max = finish

    @property
    def latency(self) -> float:
        return self.finish_max - self.arrival


class _Task:
    """One shard task on a machine's queue.

    ``work`` is the *remaining* work; ``start`` is the start of the
    current service segment (reset when a mid-service speed change
    re-times the task).  The task's busy contribution is maintained via
    finish-time deltas, so ``busy_time`` stays exact across re-timings.
    """

    __slots__ = ("query", "enqueue_t", "work", "start", "finish")

    def __init__(
        self, query: QueryRecord, enqueue_t: float, work: float, start: float, finish: float
    ) -> None:
        self.query = query
        self.enqueue_t = enqueue_t
        self.work = work
        self.start = start
        self.finish = finish


class FCFSMachine:
    """Single-server FCFS queue with a piecewise-constant speed.

    Parameters
    ----------
    speed:
        Initial (and base) speed in work units per second.  ``base_speed``
        is the undedated reference that :meth:`set_derate` applies
        fractions to; it already includes any static background derating
        the caller folded in.
    """

    __slots__ = ("base_speed", "speed", "free_at", "busy_time", "_pending")

    def __init__(self, speed: float) -> None:
        check_positive("speed", speed)
        self.base_speed = speed
        self.speed = speed
        self.free_at: float = 0.0
        self.busy_time: float = 0.0
        self._pending: Deque[_Task] = deque()

    # ------------------------------------------------------------------ serve
    def enqueue(self, now: float, work: float, query: QueryRecord) -> None:
        """Enqueue *work* for *query* at time *now* (non-decreasing)."""
        self._retire(now)
        start = max(now, self.free_at)
        service = work / self.speed
        self.free_at = start + service
        self.busy_time += service
        self._pending.append(_Task(query, now, work, start, self.free_at))

    def set_speed(self, now: float, new_speed: float) -> None:
        """Change the speed at time *now*, re-timing pending tasks.

        Completed work is conserved: the in-service task keeps what it
        processed at the old speed and finishes its remainder at the new
        one; queued tasks are re-chained behind it.
        """
        check_positive("speed", new_speed)
        self._retire(now)
        if new_speed == self.speed:
            return
        old_speed = self.speed
        self.speed = new_speed
        prev_finish = now
        first = True
        for task in self._pending:
            if first and task.start < now:
                # In service: bank the work done so far at the old speed.
                done = (now - task.start) * old_speed
                task.work = max(task.work - done, 0.0)
                task.start = now
                new_finish = now + task.work / new_speed
            else:
                task.start = max(task.enqueue_t, prev_finish)
                new_finish = task.start + task.work / new_speed
            self.busy_time += new_finish - task.finish
            task.finish = new_finish
            prev_finish = new_finish
            first = False
        if self._pending:
            self.free_at = self._pending[-1].finish

    def set_derate(self, now: float, fraction: float) -> None:
        """Derate to ``base_speed * (1 - fraction)`` (fraction in [0, 1))."""
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"derate fraction must be in [0, 1), got {fraction!r}")
        self.set_speed(now, self.base_speed * (1.0 - fraction))

    def clear_derate(self, now: float) -> None:
        """Restore the machine to its base speed."""
        self.set_speed(now, self.base_speed)

    # -------------------------------------------------------------- internals
    def _retire(self, now: float) -> None:
        """Finalize tasks that finished at or before *now*.

        A future speed change happens at a time >= now, so these finish
        times can no longer move; fold them into their queries.
        """
        pending = self._pending
        while pending and pending[0].finish <= now:
            task = pending.popleft()
            task.query.complete(task.finish)

    def flush(self) -> None:
        """Finalize every pending task (end of simulation)."""
        pending = self._pending
        while pending:
            task = pending.popleft()
            task.query.complete(task.finish)

    @property
    def queue_depth(self) -> int:
        """Tasks enqueued but not yet finalized (includes completed-but-
        unretired tasks between events)."""
        return len(self._pending)


class ServingFleet:
    """The machines of one cluster, indexed by machine id."""

    __slots__ = ("machines",)

    def __init__(self, speeds: np.ndarray) -> None:
        arr = np.asarray(speeds, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"speeds must be a non-empty 1-D array, got shape {arr.shape}")
        self.machines: List[FCFSMachine] = [FCFSMachine(float(s)) for s in arr]

    def __len__(self) -> int:
        return len(self.machines)

    def __getitem__(self, machine_id: int) -> FCFSMachine:
        return self.machines[machine_id]

    def __iter__(self) -> Iterator[FCFSMachine]:
        return iter(self.machines)

    def flush(self) -> None:
        """Finalize all pending tasks on every machine."""
        for machine in self.machines:
            machine.flush()

    def busy_time(self) -> np.ndarray:
        """(m,) seconds each machine spent serving."""
        return np.array([m.busy_time for m in self.machines], dtype=np.float64)

    def busy_fraction(self, window: float) -> np.ndarray:
        """(m,) busy fraction over a *window* of seconds."""
        check_positive("window", window)
        return self.busy_time() / window


class QueryArrivalProcess:
    """Feeds measured-profile queries into the fleet, one arrival event each.

    Parameters
    ----------
    fleet:
        The serving machines.
    location:
        (num_cluster_shards,) shard → machine array.  Read at every
        arrival; the migration executor mutates it as waves complete.
    work:
        (num_queries, num_engine_shards) measured work matrix.
    mapping:
        (num_cluster_shards,) cluster shard → engine shard column map.
    arrival_times:
        Sorted arrival times in seconds.
    query_rows:
        (num_arrivals,) row of ``work`` each arrival replays.
    """

    def __init__(
        self,
        fleet: ServingFleet,
        location: np.ndarray,
        work: np.ndarray,
        mapping: np.ndarray,
        arrival_times: np.ndarray,
        query_rows: np.ndarray,
    ) -> None:
        if arrival_times.shape != query_rows.shape:
            raise ValueError("arrival_times and query_rows must be parallel arrays")
        if location.shape[0] != mapping.shape[0]:
            raise ValueError("location and mapping must cover the same cluster shards")
        self._fleet = fleet
        self._location = location
        self._work = work
        self._mapping = mapping
        self._times = arrival_times
        self._rows = query_rows
        self._num_shards = int(mapping.shape[0])
        self._next = 0
        self.records: List[QueryRecord] = []

    def start(self, rt: Runtime) -> None:
        if self._times.size:
            rt.at(float(self._times[0]), self._on_arrival)

    def _on_arrival(self, rt: Runtime) -> None:
        i = self._next
        t = self._times[i]
        record = QueryRecord(t)
        row = self._work[self._rows[i]]
        mapping = self._mapping
        location = self._location
        machines = self._fleet.machines
        for j in range(self._num_shards):
            w = row[mapping[j]]
            if w <= 0:
                continue
            machines[location[j]].enqueue(t, w, record)
        self.records.append(record)
        self._next = i + 1
        if self._next < self._times.size:
            rt.at(float(self._times[self._next]), self._on_arrival)

    # ---------------------------------------------------------------- results
    def latencies(self) -> np.ndarray:
        """Per-query latencies in arrival order (flush the fleet first)."""
        return np.array(
            [r.finish_max - r.arrival for r in self.records], dtype=np.float64
        )

    @property
    def queries_completed(self) -> int:
        return len(self.records)


def replay_runtime(argv: List[str], *, oracle: bool) -> Dict[str, Any]:
    """Run ``repro runtime *argv*`` in-process and return what it served.

    With ``oracle=True`` the command serves through the per-task classes
    above instead of :mod:`repro.runtime`'s array fleet; the arrivals,
    the rebalancing episodes and the NIC derates are the command's own.
    Returns the per-query ``latencies``, the fleet's ``busy_time`` and
    ``speed_changes``, the number of ``set_speed`` calls that changed a
    machine's speed.
    """
    import repro.runtime as runtime
    from repro import cli
    from repro.runtime import machines

    base_fleet = ServingFleet if oracle else runtime.ServingFleet
    base_arrivals = QueryArrivalProcess if oracle else runtime.QueryArrivalProcess
    machine_cls = FCFSMachine if oracle else machines.FCFSMachine
    seen: Dict[str, Any] = {"speed_changes": 0}

    class Fleet(base_fleet):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            seen["fleet"] = self

    class Arrivals(base_arrivals):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            seen["arrivals"] = self

    set_speed = machine_cls.set_speed

    def counted(machine: Any, now: float, new_speed: float) -> None:
        seen["speed_changes"] += new_speed != machine.speed
        set_speed(machine, now, new_speed)

    saved = runtime.ServingFleet, runtime.QueryArrivalProcess
    runtime.ServingFleet, runtime.QueryArrivalProcess = Fleet, Arrivals
    machine_cls.set_speed = counted
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["runtime", *argv])
    finally:
        runtime.ServingFleet, runtime.QueryArrivalProcess = saved
        machine_cls.set_speed = set_speed
    if code != 0:
        raise RuntimeError(f"repro runtime {' '.join(argv)} exited {code}")
    return {
        "latencies": seen["arrivals"].latencies(),
        "busy_time": seen["fleet"].busy_time(),
        "speed_changes": seen["speed_changes"],
    }
