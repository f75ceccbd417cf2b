"""Single-server FCFS machines whose speeds are piecewise-constant.

A :class:`ServingFleet` holds the machines of one cluster as arrays:
per-machine ``speed``, ``base_speed``, ``free_at`` and busy time, plus a
store of the live shard tasks (remaining work, start, finish, enqueue
time, query id and host), packed in enqueue order.  Each machine serves
its tasks in enqueue order at its current speed (work units per
second).  Speeds may change at simulated-time events — a migration wave
derating the endpoints of in-flight copies, for example — and the
machine re-times its pending tasks when they do.  Between speed changes
the fleet is analytic: a task's start/finish are computed in closed form
at enqueue, so no completion events are needed.

:meth:`ServingFleet.fan_out` serves one query: it enqueues a task for
every cluster shard with positive work on the machine hosting it.

* **Grouping.**  The shards are grouped by host in stable shard order
  (a stable argsort of the shard → machine array), so each machine sees
  its tasks in the order a per-shard loop would enqueue them.  The
  grouping is cached and rebuilt only when the shard → machine array
  changes, i.e. when the migration executor flips a shard.
* **Padded accumulate.**  The query's service times ``work / speed``
  are laid out as a (machines × rank) matrix padded with zeros, whose
  column 0 is ``max(now, free_at)``; ``np.add.accumulate(axis=1)`` over
  it gives every task's finish, and a second accumulate from column 0 =
  busy time gives the new busy times.  Shards without positive work sit
  in the matrix as zeros but get no task.  The matrix is as wide as the
  busiest host's shard count, so the padding costs the ratio of the
  largest to the mean shards per host.
* **Re-timing.**  :meth:`FCFSMachine.set_speed` selects the machine's
  pending tasks (finish > now) from the store, in enqueue order, and
  re-times them in a scalar loop: the in-service task banks the work
  done at the old speed, queued tasks re-chain behind it.
* **Retirement per task.**  At each enqueue, every task that finished
  by ``now`` leaves the store and its finish is folded into its query
  with ``np.maximum.at``.  A later speed change happens at a time >=
  now, so those finishes can no longer move.  The store therefore holds
  only the tasks still pending, however long one busy machine keeps the
  other tasks of a query waiting.

**Bitwise contract** (relied on by the ``simulate_serving`` facade's
equivalence gate and pinned to the per-task fleet kept in
``tests/serving_oracle.py``): per machine, and in enqueue order, the
fleet performs::

    start = max(now, free_at)
    service = work / speed
    free_at = start + service
    busy_time += service

— the accumulate adds each service to the running finish and busy
time in that order, and the zeros used as padding add exactly, so
latencies and busy times are bit-for-bit reproductions of the per-task
loop, with or without speed changes.

:class:`FCFSMachine` is a view of one machine of a fleet (``fleet[m]``,
``fleet.machines[m]``); a standalone ``FCFSMachine(speed)`` is a
one-machine fleet.  Views hold their fleet, never the other way round.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro._validation import check_positive

__all__ = ["FCFSMachine", "ServingFleet"]

# Columns of the live task store: floats and ids.
_WORK, _START, _FINISH, _ENQ = range(4)
_QUERY, _HOST = range(2)


def _grown(arr: np.ndarray, size: int) -> np.ndarray:
    """*arr* with room for at least *size* rows (capacity doubles)."""
    if size <= arr.shape[0]:
        return arr
    out = np.empty((max(size, 2 * arr.shape[0]),) + arr.shape[1:], dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


class _Route:
    """One query's fan-out layout for a fixed shard → machine array.

    Shards are ordered by host, stably (so each host keeps shard order);
    shard ``k`` of that order lands in cell ``cell[k]`` of a
    (hosts × (max shards per host + 1)) grid whose column 0 is reserved
    for the host's start time.
    """

    __slots__ = ("location", "mapping", "col", "host", "cell", "first", "hosts", "shape")

    def __init__(self, location: np.ndarray, mapping: np.ndarray) -> None:
        order = np.argsort(location, kind="stable")
        host = location[order]
        n = host.shape[0]
        first = np.flatnonzero(np.concatenate(([True], host[1:] != host[:-1])))
        counts = np.diff(np.append(first, n))
        width = int(counts.max()) + 1
        rank = np.arange(1, n + 1) - np.repeat(first, counts)
        self.location = location.copy()
        self.mapping = mapping
        self.col = mapping[order]
        self.host = host
        self.cell = np.repeat(np.arange(first.size) * width, counts) + rank
        self.first = first
        self.hosts = host[first]
        self.shape: Tuple[int, int] = (int(first.size), width)


class ServingFleet:
    """The machines of one cluster, indexed by machine id.

    Parameters
    ----------
    speeds:
        (m,) initial (and base) speeds in work units per second.
        ``base_speed`` is the underated reference that
        :meth:`FCFSMachine.set_derate` applies fractions to; it already
        includes any static background derating the caller folded in.
    """

    __slots__ = (
        "speed",
        "base_speed",
        "free_at",
        "_busy",
        "_size",
        "_tasks",
        "_ids",
        "_arrival",
        "_finish_max",
        "_num_queries",
        "_route",
    )

    def __init__(self, speeds: np.ndarray) -> None:
        arr = np.array(speeds, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"speeds must be a non-empty 1-D array, got shape {arr.shape}")
        for s in arr:
            check_positive("speed", float(s))
        m = arr.shape[0]
        self.speed: np.ndarray = arr
        self.base_speed: np.ndarray = arr.copy()
        self.free_at: np.ndarray = np.zeros(m)
        self._busy = np.zeros(m)
        # Live task store, packed in enqueue order in rows [0, _size).
        self._size = 0
        self._tasks = np.empty((0, 4))
        self._ids = np.empty((0, 2), dtype=np.int64)
        # Queries: arrival time and the latest finish folded in so far.
        self._arrival = np.empty(0)
        self._finish_max = np.empty(0)
        self._num_queries = 0
        self._route: Optional[_Route] = None

    # -------------------------------------------------------------- machines
    def __len__(self) -> int:
        return int(self.speed.shape[0])

    def __getitem__(self, machine_id: int) -> FCFSMachine:
        m = len(self)
        if not -m <= machine_id < m:
            raise IndexError(f"machine {machine_id} out of range for {m} machines")
        return FCFSMachine._view(self, int(machine_id) % m)

    def __iter__(self) -> Iterator[FCFSMachine]:
        return (FCFSMachine._view(self, m) for m in range(len(self)))

    @property
    def machines(self) -> List[FCFSMachine]:
        """Views of every machine (built on each access)."""
        return list(self)

    # --------------------------------------------------------------- queries
    def open_query(self, arrival: float) -> int:
        """Register a query arriving at *arrival*; returns its id."""
        q = self._num_queries
        self._arrival = _grown(self._arrival, q + 1)
        self._finish_max = _grown(self._finish_max, q + 1)
        self._arrival[q] = arrival
        self._finish_max[q] = arrival
        self._num_queries = q + 1
        return q

    def latencies(self, queries: np.ndarray) -> np.ndarray:
        """Latencies of *queries* (flush the fleet first)."""
        return self._finish_max[queries] - self._arrival[queries]

    # ----------------------------------------------------------------- serve
    def fan_out(
        self, now: float, work: np.ndarray, location: np.ndarray, mapping: np.ndarray
    ) -> int:
        """Serve one query arriving at *now* (non-decreasing); returns its id.

        Cluster shard ``j`` carries ``work[mapping[j]]`` and is served by
        machine ``location[j]``; shards without positive work are skipped.
        """
        self._retire(now)
        q = self.open_query(now)
        if location.shape[0] == 0:
            return q
        route = self._route
        if (
            route is None
            or route.mapping is not mapping
            or not np.array_equal(route.location, location)
        ):
            route = self._route = _Route(location, mapping)
        w = work[route.col]
        skip = w <= 0
        service = w / self.speed[route.host]
        service[skip] = 0.0
        hosts = route.hosts
        grid = np.zeros(route.shape)
        flat = grid.reshape(-1)
        flat[route.cell] = service
        busy = grid.copy()
        grid[:, 0] = np.maximum(now, self.free_at[hosts])
        np.add.accumulate(grid, axis=1, out=grid)
        busy[:, 0] = self._busy[hosts]
        np.add.accumulate(busy, axis=1, out=busy)
        self._busy[hosts] = busy[:, -1]
        keep: np.ndarray | slice
        if skip.any():
            served = np.logical_or.reduceat(~skip, route.first)
            self.free_at[hosts[served]] = grid[served, -1]
            keep = np.flatnonzero(~skip)
        else:
            self.free_at[hosts] = grid[:, -1]
            keep = slice(None)
        cells = route.cell[keep]
        base = self._size
        end = base + cells.shape[0]
        self._reserve(end)
        tasks = self._tasks[base:end]
        tasks[:, _WORK] = w[keep]
        tasks[:, _START] = flat[cells - 1]
        tasks[:, _FINISH] = flat[cells]
        tasks[:, _ENQ] = now
        ids = self._ids[base:end]
        ids[:, _QUERY] = q
        ids[:, _HOST] = route.host[keep]
        self._size = end
        return q

    def flush(self) -> None:
        """Finalize every pending task (end of simulation)."""
        n = self._size
        np.maximum.at(self._finish_max, self._ids[:n, _QUERY], self._tasks[:n, _FINISH])
        self._size = 0

    def busy_time(self) -> np.ndarray:
        """(m,) seconds each machine spent serving."""
        return self._busy.copy()

    def busy_fraction(self, window: float) -> np.ndarray:
        """(m,) busy fraction over a *window* of seconds."""
        check_positive("window", window)
        return self.busy_time() / window

    # ------------------------------------------------------------- internals
    def _reserve(self, size: int) -> None:
        if size > self._tasks.shape[0]:
            self._tasks = _grown(self._tasks, size)
            self._ids = _grown(self._ids, size)

    def _retire(self, now: float) -> None:
        """Drop the tasks that finished at or before *now*, folding their
        finishes into their queries, and pack the store."""
        n = self._size
        if n == 0:
            return
        finish = self._tasks[:n, _FINISH]
        done = finish <= now
        if not done.any():
            return
        gone = np.flatnonzero(done)
        np.maximum.at(self._finish_max, self._ids[gone, _QUERY], finish[gone])
        live = np.flatnonzero(~done)
        k = live.shape[0]
        # take(axis=0) copies rows an order of magnitude faster than
        # fancy indexing does for narrow 2-D arrays.
        self._tasks[:k] = self._tasks.take(live, axis=0)
        self._ids[:k] = self._ids.take(live, axis=0)
        self._size = k

    def _pending(self, machine_id: int, now: float) -> np.ndarray:
        """Store rows of *machine_id*'s tasks finishing after *now*, in
        enqueue order."""
        n = self._size
        return np.flatnonzero(
            (self._ids[:n, _HOST] == machine_id) & (self._tasks[:n, _FINISH] > now)
        )


class FCFSMachine:
    """One machine of a :class:`ServingFleet`: a single-server FCFS queue
    with a piecewise-constant speed.

    ``FCFSMachine(speed)`` builds a one-machine fleet (``.fleet``) and
    is its machine 0; ``fleet[m]`` returns a view of machine *m*.
    """

    __slots__ = ("fleet", "id")

    def __init__(self, speed: float) -> None:
        check_positive("speed", speed)
        self.fleet = ServingFleet(np.array([speed], dtype=np.float64))
        self.id = 0

    @classmethod
    def _view(cls, fleet: ServingFleet, machine_id: int) -> FCFSMachine:
        view = cls.__new__(cls)
        view.fleet = fleet
        view.id = machine_id
        return view

    @property
    def speed(self) -> float:
        return float(self.fleet.speed[self.id])

    @property
    def base_speed(self) -> float:
        return float(self.fleet.base_speed[self.id])

    @property
    def free_at(self) -> float:
        return float(self.fleet.free_at[self.id])

    @property
    def busy_time(self) -> float:
        return float(self.fleet._busy[self.id])

    # ------------------------------------------------------------------ serve
    def enqueue(self, now: float, work: float, query: int) -> None:
        """Enqueue *work* for query id *query* at time *now* (non-decreasing)."""
        fleet = self.fleet
        m = self.id
        fleet._retire(now)
        start = max(now, fleet.free_at[m])
        service = work / fleet.speed[m]
        fleet.free_at[m] = start + service
        fleet._busy[m] += service
        i = fleet._size
        fleet._reserve(i + 1)
        fleet._tasks[i] = (work, start, fleet.free_at[m], now)
        fleet._ids[i] = (query, m)
        fleet._size = i + 1

    def set_speed(self, now: float, new_speed: float) -> None:
        """Change the speed at time *now*, re-timing pending tasks.

        Completed work is conserved: the in-service task keeps what it
        processed at the old speed and finishes its remainder at the new
        one; queued tasks are re-chained behind it.
        """
        check_positive("speed", new_speed)
        fleet = self.fleet
        m = self.id
        old_speed = float(fleet.speed[m])
        if new_speed == old_speed:
            return
        fleet.speed[m] = new_speed
        tasks = fleet._tasks
        busy = fleet._busy[m]
        prev_finish = now
        first = True
        for i in fleet._pending(m, now):
            work, start, finish, enqueue_t = tasks[i]
            if first and start < now:
                # In service: bank the work done so far at the old speed.
                done = (now - start) * old_speed
                work = max(work - done, 0.0)
                start = now
                new_finish = now + work / new_speed
            else:
                start = max(enqueue_t, prev_finish)
                new_finish = start + work / new_speed
            busy += new_finish - finish
            tasks[i] = (work, start, new_finish, enqueue_t)
            prev_finish = new_finish
            first = False
        if not first:
            fleet._busy[m] = busy
            fleet.free_at[m] = prev_finish

    def set_derate(self, now: float, fraction: float) -> None:
        """Derate to ``base_speed * (1 - fraction)`` (fraction in [0, 1))."""
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"derate fraction must be in [0, 1), got {fraction!r}")
        self.set_speed(now, self.base_speed * (1.0 - fraction))

    def clear_derate(self, now: float) -> None:
        """Restore the machine to its base speed."""
        self.set_speed(now, self.base_speed)
