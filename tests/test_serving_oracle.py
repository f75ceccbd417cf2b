"""Differential test: the array serving fleet against its oracle.

``tests/serving_oracle.py`` keeps the per-task ``FCFSMachine``,
``ServingFleet`` and ``QueryArrivalProcess`` the array fleet replaced.
Over random fleets, placements, work matrices, arrival traces, speed
changes and migration schedules, both must produce the same latencies
and busy times, bit for bit.
"""

from __future__ import annotations

import contextlib
import gc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.migration import BandwidthModel, Move
from repro.migration.scheduler import Schedule
from repro.runtime import (
    FCFSMachine,
    MigrationExecutor,
    QueryArrivalProcess,
    Runtime,
    ServingFleet,
)
from tests import serving_oracle as oracle

#: Arrival and event times on a coarse grid, so ties are common.
TICK = 0.25
ACTIONS = ("set", "derate", "clear", "same", "at_finish")


@st.composite
def serving_cases(draw):
    # Structure comes from hypothesis; float values from a seeded RNG, so
    # they are generic floats whose sums and products round (hypothesis
    # favours values like 1.0 and 0.5, where they are exact).
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=1, max_value=30))
    # Independent hosts per shard: uneven shard counts, idle machines.
    location = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    columns = draw(st.integers(min_value=1, max_value=n))
    mapping = np.array(draw(st.lists(st.integers(0, columns - 1), min_size=n, max_size=n)))
    rows = draw(st.integers(min_value=1, max_value=5))
    work = rng.uniform(0.01, 10.0, size=(rows, columns))
    work[rng.random(work.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    if draw(st.booleans()):
        work[0] = 0.0
    speeds = rng.uniform(0.5, 4.0, size=m)
    ticks = draw(st.lists(st.integers(0, 24), min_size=0, max_size=40))
    times = np.sort(np.array(ticks, dtype=np.float64)) * TICK
    query_rows = np.array(
        draw(st.lists(st.integers(0, rows - 1), min_size=times.size, max_size=times.size)),
        dtype=np.int64,
    )
    events = [
        (tick, machine_id, action, rng.uniform(0.25, 5.0), rng.uniform(0.0, 0.9))
        for tick, machine_id, action in draw(
            st.lists(
                st.tuples(st.integers(0, 24), st.integers(0, m - 1), st.sampled_from(ACTIONS)),
                max_size=12,
            )
        )
    ]
    waves = []
    if m > 1:
        current = location.copy()
        for _ in range(draw(st.integers(0, 3))):
            shards = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4))
            wave = []
            for j in shards:
                dst = draw(st.integers(0, m - 1).filter(lambda d, j=j: d != current[j]))
                wave.append(Move(j, int(current[j]), dst, rng.uniform(1.0, 500.0)))
                current[j] = dst
            if wave:
                waves.append(wave)
    return {
        "speeds": speeds,
        "location": location,
        "mapping": mapping,
        "work": work,
        "times": times,
        "rows": query_rows,
        "events": events,
        "waves": waves,
        "migration_start": draw(st.integers(0, 16)) * TICK,
    }


def speed_event(fleet, machine_id, action, speed, fraction):
    def fire(rt):
        machine = fleet[machine_id]
        if action == "set":
            machine.set_speed(rt.now, speed)
        elif action == "derate":
            machine.set_derate(rt.now, fraction)
        elif action == "clear":
            machine.clear_derate(rt.now)
        elif action == "same":
            machine.set_speed(rt.now, machine.speed)
        else:
            # At the exact instant the machine's last task finishes.  The
            # new speed is slow enough that re-timing that task by its
            # rounding residual would move its finish by more than an ulp.
            rt.at(
                max(rt.now, machine.free_at),
                lambda r: machine.set_speed(r.now, speed * 1e-4),
            )

    return fire


def serve(case, fleet_cls, arrivals_cls, traced):
    fleet = fleet_cls(case["speeds"])
    location = case["location"].copy()
    arrivals = arrivals_cls(
        fleet, location, case["work"], case["mapping"], case["times"], case["rows"]
    )
    rt = Runtime()
    rt.add(arrivals)
    for tick, machine_id, action, speed, fraction in case["events"]:
        rt.at(tick * TICK, speed_event(fleet, machine_id, action, speed, fraction))
    m, n = len(case["speeds"]), location.size
    if case["waves"]:
        rt.add(
            MigrationExecutor(
                schedule=Schedule(case["waves"]),
                fleet=fleet,
                location=location,
                loads=np.zeros((m, 1)),
                capacity=np.ones((m, 1)),
                demand=np.zeros((n, 1)),
                model=BandwidthModel(bandwidth=200.0),
                transfer_overhead=0.3,
                start_at=case["migration_start"],
            )
        )
    with obs.observed() if traced else contextlib.nullcontext():
        rt.run()
    fleet.flush()
    return arrivals.latencies(), fleet.busy_time(), location


@given(case=serving_cases(), traced=st.booleans())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_fleet_is_bitwise_oracle(case, traced):
    got = serve(case, ServingFleet, QueryArrivalProcess, traced)
    want = serve(case, oracle.ServingFleet, oracle.QueryArrivalProcess, traced)
    lat, busy, location = got
    lat_o, busy_o, location_o = want
    # Bitwise, not approx: identical float ops in identical order.
    assert np.array_equal(lat, lat_o)
    assert np.array_equal(busy, busy_o)
    assert np.array_equal(location, location_o)
    assert lat.size == case["times"].size


def test_runtime_command_replays_bitwise(tmp_path):
    """``repro runtime`` with a mid-run SRA episode and NIC derates serves
    the same through the array fleet as through the oracle."""
    from repro import cli

    snapshot = tmp_path / "snap.json"
    assert cli.main(["generate", "--machines", "5", "--shards-per-machine", "4",
                     "--skew", "0.8", "--utilization", "0.8", "--seed", "5",
                     "--out", str(snapshot)]) == 0
    argv = [str(snapshot), "--duration", "10", "--arrival-rate", "30",
            "--rebalance-at", "3", "--iterations", "100", "--bandwidth", "2e5"]
    got = oracle.replay_runtime(argv, oracle=False)
    want = oracle.replay_runtime(argv, oracle=True)
    assert got["speed_changes"] > 0
    assert got["speed_changes"] == want["speed_changes"]
    assert got["latencies"].size > 0
    assert np.array_equal(got["latencies"], want["latencies"])
    assert np.array_equal(got["busy_time"], want["busy_time"])


def test_store_holds_only_pending_tasks():
    # Machine 0 hosts one shard and is 1000x slower than the rest: every
    # query leaves one task queued there for a long time.  Tasks retire
    # one by one, so the store keeps that backlog plus the fast tasks
    # still in service -- not every query the slow machine took part in.
    speeds = np.array([0.001] + [1000.0] * 9)
    location = np.repeat(np.arange(10), [1] + [5] * 9)
    fleet = ServingFleet(speeds)
    work = np.ones((1, location.size))
    mapping = np.arange(location.size)
    for i in range(200):
        fleet.fan_out(float(i), work[0], location, mapping)
    assert fleet._size <= 200 + location.size
    fleet.flush()
    assert fleet._size == 0


def test_views_do_not_keep_a_cycle_with_their_fleet():
    fleet = ServingFleet(np.ones(3))
    views = [fleet[0], fleet.machines[1], *fleet]
    assert [v.id for v in views] == [0, 1, 0, 1, 2]
    assert all(v.fleet is fleet for v in views)
    assert not any(isinstance(r, FCFSMachine) for r in gc.get_referents(fleet))


def test_standalone_machine_is_a_one_machine_fleet():
    machine = FCFSMachine(2.0)
    assert len(machine.fleet) == 1 and machine.id == 0
    q = machine.fleet.open_query(0.0)
    machine.enqueue(0.0, 4.0, q)
    machine.fleet.flush()
    assert machine.fleet.latencies(np.array([q]))[0] == 2.0
    assert machine.busy_time == 2.0 and machine.free_at == 2.0


def test_speed_change_at_a_finish_leaves_that_task_alone():
    # (finish - start) * speed falls short of the work by one ulp here, so
    # re-timing the task that finishes at this instant would move it.
    speed, arrival, work = 3.3464458372009536, 3.75, 0.17511107893000566
    results = []
    for fleet_cls, arrivals_cls in (
        (ServingFleet, QueryArrivalProcess),
        (oracle.ServingFleet, oracle.QueryArrivalProcess),
    ):
        fleet = fleet_cls(np.array([speed]))
        location, mapping = np.zeros(1, dtype=np.int64), np.arange(1)
        arrivals = arrivals_cls(
            fleet, location, np.array([[work]]), mapping, np.array([arrival]), np.zeros(1, int)
        )
        rt = Runtime()
        rt.add(arrivals)
        rt.at(arrival + work / speed, lambda r, f=fleet: f[0].set_speed(r.now, 1.0))
        rt.run()
        fleet.flush()
        results.append((arrivals.latencies(), fleet.busy_time()))
    (lat, busy), (lat_o, busy_o) = results
    assert lat[0] == (arrival + work / speed) - arrival
    assert np.array_equal(lat, lat_o) and np.array_equal(busy, busy_o)
