"""Query arrival process: trace- or Poisson-driven fan-out serving.

A :class:`QueryArrivalProcess` replays a prepared arrival schedule
(arrival times plus sampled profile rows) against a
:class:`~repro.runtime.machines.ServingFleet`.  Each arrival is one
:meth:`~repro.runtime.machines.ServingFleet.fan_out` call, which
enqueues one task per cluster shard on the machine *currently hosting*
that shard — the shard→machine array is shared with the migration
executor, so a shard starts serving from its destination the instant its
copy lands, rather than being window-averaged.

Arrival generation (RNG semantics) stays with the caller: the
``simulate_serving`` facade draws arrivals exactly as the legacy DES did,
and the CLI/experiments hand in diurnal traces from
:mod:`repro.simulate.traces`.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.kernel import Runtime
from repro.runtime.machines import ServingFleet

__all__ = ["QueryArrivalProcess"]


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
        self._next = 0
        self._queries = np.empty(arrival_times.shape[0], dtype=np.int64)

    def start(self, rt: Runtime) -> None:
        if self._times.size:
            rt.at(float(self._times[0]), self._on_arrival)

    def _on_arrival(self, rt: Runtime) -> None:
        i = self._next
        self._queries[i] = self._fleet.fan_out(
            self._times[i], self._work[self._rows[i]], self._location, self._mapping
        )
        self._next = i + 1
        if self._next < self._times.size:
            rt.at(float(self._times[self._next]), self._on_arrival)

    # ---------------------------------------------------------------- results
    def latencies(self) -> np.ndarray:
        """Per-query latencies in arrival order (flush the fleet first)."""
        return self._fleet.latencies(self._queries[: self._next])

    @property
    def queries_completed(self) -> int:
        return self._next
