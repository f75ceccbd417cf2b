"""The benchmark's workloads and the run that measures them.

Every workload drives the library through the calls the ``repro`` CLI
makes: ``scenarios generate`` + ``load_json`` for set-up,
``ResourceExchangeRebalancer.run`` for ``repro run`` episodes, and the
``repro runtime --controller incremental`` wiring for serving.  Inputs
come from the scenario registry (``capacity-headroom``, six shards per
machine); a run with seed ``s`` uses the instances seeded
``s * 100 + k`` and records each one's ``spec_hash``.  The inputs are
used one after another, each for a block of operations with a new search
seed per operation, and each input is built just before its block, so a
run's set-ups are spread over the run instead of bunched at its start.

A run is a closed loop with one caller: the next operation starts when
the previous one returned.  ``restarts-pool`` is the exception inside
an operation, where the library fans two restarts out to two worker
processes while the caller waits.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

import checks
from layers import PER_LAYER_UNITS, Tracing, active
from spans import Recorder

_clock = time.perf_counter

SCENARIO = "capacity-headroom"
SHARDS_PER_MACHINE = 6
#: Fleet size of the warm-up operation each run makes before measuring.
WARMUP_MACHINES = 20
#: Least share of simulated time that executed migrations must cover on
#: ``serve-drift`` (see ``run_serve``).
MIN_WINDOW_FRAC = 0.01
#: A run stops early once it has taken this many times ``--seconds``.
TIME_CAP = 1.4
#: A traced operation costs about this many untraced ones: the untraced
#: run, a fresh load of its input and the traced rerun.
TRACE_COST = 3
#: Median time of ``speed_probe`` on the reference machine (a 2-vCPU
#: Xeon VM) when it runs at full speed.  Reported times are scaled to it.
REFERENCE_PROBE_S = 0.018


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``instances`` is how many distinct inputs a run sets up, and so how
    many ``setup_s`` samples it takes.  ``op_seconds`` is an operation's
    typical time on the reference machine, its input's share of set-up
    included: a run makes ``seconds / op_seconds`` operations.  Why each
    workload was chosen is in ``BENCHMARK.json`` and the README.
    """

    name: str
    machines: int
    instances: int
    iterations: int
    op_seconds: float
    exchange: int = 0
    polish_steps: int = 3000
    restarts: int = 1
    workers: int = 1
    #: Serve arrivals on the event runtime instead of running one episode.
    serve: bool = False
    # serving only
    arrival_rate: float = 200.0
    duration: float = 6.0
    drift: float = 0.3
    check_interval: float = 2.0
    budget_moves: int = 400
    bandwidth: float = 800.0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="episode-plan",
            machines=2000,
            exchange=20,
            iterations=20,
            polish_steps=20,
            instances=4,
            op_seconds=0.56,
        ),
        Workload(
            name="serve-drift",
            serve=True,
            machines=200,
            iterations=50,
            polish_steps=100,
            instances=8,
            op_seconds=3.8,
        ),
        Workload(
            name="restarts-pool",
            machines=400,
            exchange=4,
            iterations=50,
            polish_steps=30,
            restarts=2,
            workers=2,
            instances=16,
            op_seconds=2.05,
        ),
    )
}

#: End-to-end metric name -> unit.
END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Instance:
    seed: int
    spec_hash: str
    state: Any
    setup_s: float


@dataclass
class OpResult:
    """What one operation produced, timing and outcome."""

    wall_s: float
    attempted: int
    failed: int
    #: One ``(feasible, bytes moved)`` pair per rebalancing decision:
    #: the episode, or each controller round of a serving run.
    decisions: list[tuple[bool, float]]
    peak_after: float
    digest: str
    errors: list[str] = field(default_factory=list)
    sim: dict[str, float] = field(default_factory=dict)
    #: Simulated query latencies of a serving run (not written out).
    latencies: Any = None


# ------------------------------------------------------------------ set-up
def set_up(workload: Workload, seed: int, scratch: Path) -> Instance:
    """Build one input from its spec and load it, as ``repro run`` does."""
    from repro import scenarios
    from repro.cluster.snapshot import load_json, save_json

    spec = scenarios.ScenarioSpec(
        SCENARIO,
        {"num_machines": workload.machines, "shards_per_machine": SHARDS_PER_MACHINE},
        seed=seed,
    )
    path = scratch / f"{workload.name}-{seed}.json"
    t0 = _clock()
    _, _, digest = scenarios.resolve(spec)
    save_json(scenarios.generate_instance(spec), path)
    state = load_json(path)
    elapsed = _clock() - t0
    path.unlink()
    return Instance(seed=seed, spec_hash=digest, state=state, setup_s=elapsed)


def instance_seeds(seed: int, count: int) -> list[int]:
    return [seed * 100 + k for k in range(count)]


# -------------------------------------------------------------- operations
def _sra(workload: Workload, seed: int, **extra: Any) -> Any:
    from repro.algorithms import SRA, AlnsConfig, SRAConfig

    return SRA(
        SRAConfig(
            alns=AlnsConfig(iterations=workload.iterations, seed=seed),
            polish_steps=workload.polish_steps,
            restarts=workload.restarts,
            n_workers=workload.workers,
            **extra,
        )
    )


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def run_episode(
    workload: Workload, inst: Instance, seed: int, tracing: Tracing | None = None
) -> OpResult:
    """One ``repro run --exchange B`` episode, then its checks."""
    from repro.cluster import ExchangeLedger
    from repro.core.rebalancer import ResourceExchangeRebalancer
    from repro.workloads import make_exchange_machines

    rebalancer = ResourceExchangeRebalancer(
        _sra(workload, seed), exchange_machines=workload.exchange
    )
    with active(tracing):
        t0 = _clock()
        report = rebalancer.run(inst.state)
        wall = _clock() - t0

    result = report.result
    target = result.target_assignment
    grown, ledger = ExchangeLedger.borrow(
        inst.state, make_exchange_machines(inst.state, workload.exchange)
    )
    final = grown.copy()
    final.apply_assignment(target)
    errors = [
        e
        for e in (
            checks.validate(final),
            checks.settle_conserves(final, ledger),
            checks.plan_replays(grown, result.plan, target),
        )
        if e is not None
    ]
    if report.migration.total_bytes != result.plan.schedule.total_bytes():
        errors.append("episode: reported bytes differ from the plan's scheduled bytes")
    attempted = 1
    if workload.restarts > 1:
        # Restart tasks are operations too.  The winner's iteration count
        # is the sum over the tasks that succeeded.
        attempted += workload.restarts
        done = result.iterations // workload.iterations
        errors += ["restarts: a restart task failed"] * (workload.restarts - done)
    return OpResult(
        wall_s=wall,
        attempted=attempted,
        failed=min(attempted, len(errors)),
        decisions=[(bool(result.feasible), float(report.migration.total_bytes))],
        peak_after=float(report.after.peak_utilization),
        digest=_digest(target, result.feasible, report.after.peak_utilization,
                       report.migration.total_bytes),
        errors=errors,
    )


def run_serve(
    workload: Workload, inst: Instance, seed: int, tracing: Tracing | None = None
) -> OpResult:
    """``repro runtime --controller incremental --drift D`` on one input."""
    from repro.algorithms import MigrationBudget
    from repro.migration import BandwidthModel
    from repro.online import PopularityDrift
    from repro.runtime import (
        ClusterHandle,
        DriftDetectorConfig,
        DriftProcess,
        IncrementalRebalanceController,
        QueryArrivalProcess,
        Runtime,
        ServingFleet,
        synthetic_profile,
    )
    from repro.simulate import summarize

    # The drift and the controller replace and mutate the served state,
    # so each serving run starts from its own copy of the input.
    state = inst.state.copy()
    postings_per_cpu_second = 2e5
    with active(tracing):
        t0 = _clock()
        profile = synthetic_profile(
            state,
            queries_per_second=workload.arrival_rate,
            postings_per_cpu_second=postings_per_cpu_second,
            noise=0.25,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        n = rng.poisson(workload.arrival_rate * workload.duration)
        times = np.sort(rng.uniform(0.0, workload.duration, size=n))
        rows = rng.integers(0, profile.num_queries, size=times.size)
        speeds = state.capacity[:, state.schema.index("cpu")] * postings_per_cpu_second
        fleet = ServingFleet(speeds)
        location = state.assignment_view().copy()
        arrivals = QueryArrivalProcess(
            fleet, location, profile.work, np.arange(state.num_shards), times, rows
        )
        runtime = Runtime()
        runtime.add(arrivals)
        handle = ClusterHandle(state)
        runtime.add(
            DriftProcess(
                handle,
                PopularityDrift(drift=workload.drift, target_utilization=0.7, seed=seed),
                epochs=4,
                epoch_length=workload.duration / 4,
            )
        )
        controller = IncrementalRebalanceController(
            handle,
            _sra(workload, seed, migration_budget=MigrationBudget(max_moves=workload.budget_moves)),
            detector_config=DriftDetectorConfig(hot_threshold=0.9, slope_threshold=0.002),
            execution="simulated",
            fleet=fleet,
            location=location,
            bandwidth=BandwidthModel(bandwidth=workload.bandwidth),
            transfer_overhead=0.3,
            check_interval=workload.check_interval,
            horizon=workload.duration,
        )
        runtime.add(controller)
        end = runtime.run()
        fleet.flush()
        wall = _clock() - t0

    lat = arrivals.latencies()
    rounds = controller.episodes
    window = sum(float(r["window_seconds"]) for r in rounds)
    errors = [
        e
        for e in (
            checks.latencies_complete(lat, int(times.size)),
            checks.validate(handle.state),
        )
        if e is not None
    ]
    if not np.array_equal(location, handle.state.assignment_view()):
        errors.append("serve: executed placement differs from the controller's state")
    # The sizing check: when migrations run, their waves must cover a
    # visible share of simulated time, or machine speeds barely change.
    # At the default NIC bandwidth the share is about 1e-9.
    window_frac = window / end if end > 0 else 0.0
    if any(r["waves"] for r in rounds) and window_frac < MIN_WINDOW_FRAC:
        errors.append(f"serve: migrations cover {window_frac:.2g} of simulated time")
    summary = summarize(lat) if lat.size else None
    attempted = int(times.size) + len(rounds)
    return OpResult(
        wall_s=wall,
        attempted=attempted,
        failed=min(attempted, len(errors)),
        decisions=[(bool(r["feasible"]), float(r["bytes_moved"])) for r in rounds],
        peak_after=float(handle.state.peak_utilization()),
        digest=_digest(lat, [(r["feasible"], r["moves"], r["bytes_moved"]) for r in rounds]),
        errors=errors,
        sim={
            "sim_p50_ms": 1e3 * summary.p50 if summary else 0.0,
            "sim_p99_ms": 1e3 * summary.p99 if summary else 0.0,
            "queries_per_s": lat.size / wall,
            "sim_migration_window_frac": window_frac,
        },
        latencies=lat,
    )


def run_op(
    workload: Workload, inst: Instance, seed: int, tracing: Tracing | None = None
) -> OpResult:
    """Run one operation; a raise counts as a failed operation.

    With *tracing*, the wrappers are installed around the timed part only,
    so the correctness checks add no spans.
    """
    fn = run_serve if workload.serve else run_episode
    try:
        return fn(workload, inst, seed, tracing)
    except Exception:  # noqa: BLE001 - a crash is a measured failure
        return OpResult(
            wall_s=math.nan, attempted=1, failed=1, decisions=[(False, math.nan)],
            peak_after=math.nan, digest="error",
            errors=[traceback.format_exc(limit=8)],
        )


def speed_probe() -> float:
    """Seconds of a fixed job that runs no library code.

    It does what an episode does most, in small: numpy reductions and
    fancy indexing over a few thousand elements driven by a Python loop
    (move a random item from the most to the least loaded of 400 bins).
    Its times next to a set-up or an operation give the machine's speed
    while that one ran (see ``measure``).
    """
    t0 = _clock()
    rng = np.random.default_rng(7)
    bins, items = 400, 2400
    where = rng.integers(0, bins, items)
    size = rng.random(items)
    for _ in range(1200):
        load = np.bincount(where, weights=size, minlength=bins)
        hot, cold = int(np.argmax(load)), int(np.argmin(load))
        held = np.flatnonzero(where == hot)
        where[held[rng.integers(0, held.size)]] = cold
    return _clock() - t0


# ---------------------------------------------------------------- the run
def _quartiles(values: list[float]) -> dict[str, float]:
    vals = [v for v in values if math.isfinite(v)]
    if not vals:
        return {"median": math.nan, "q1": math.nan, "q3": math.nan, "n": 0}
    if len(vals) == 1:
        return {"median": vals[0], "q1": vals[0], "q3": vals[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, scratch: Path
) -> dict[str, Any]:
    """Set up, run operations for about *seconds*, and return the record.

    The number of operations is fixed by *seconds* and the workload, not
    by how fast they complete, so a run's inputs depend on the seed only.
    A run on a machine more than ``TIME_CAP`` times slower than the
    reference stops early instead.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    # Warm-up: one operation on a tiny input first, so lazy imports and
    # first-call costs are not charged to the first measured operation.
    tiny = replace(workload, machines=WARMUP_MACHINES, duration=2.0, check_interval=0.5)
    run_op(tiny, set_up(tiny, seed, scratch), seed)
    tracing = Tracing(Recorder()) if trace else None
    load_json_s = 0.0
    if trace:
        setup_tracing = Tracing(Recorder())
        with active(setup_tracing):
            set_up(workload, seed * 100, scratch)
        load_json_s = setup_tracing.rec.totals()["cluster.load_json"][1]

    n_ops = max(1, math.ceil(seconds / (workload.op_seconds * (TRACE_COST if trace else 1))))
    seeds = instance_seeds(seed, min(workload.instances, n_ops))
    block = math.ceil(n_ops / len(seeds))
    instances: list[Instance] = []
    ops: list[OpResult] = []
    op_seeds: list[int] = []
    traced: list[dict[str, Any]] = []
    probes: list[float] = []
    #: Index of the operation each input was built just before.
    first_op: list[int] = []
    start = _clock()
    for k in range(n_ops):
        if k and _clock() - start > TIME_CAP * seconds:
            break
        j, rep = divmod(k, block)
        if rep == 0:
            # Each input is built just before its block of operations, so
            # one slow spell of the machine cannot hold every sample.
            instances.append(set_up(workload, seeds[j], scratch))
            first_op.append(k)
        inst = instances[j]
        # Every operation on an input uses new search (and arrival) seeds.
        op_seed = inst.seed + 100_000 * rep
        probes.append(speed_probe())
        op = run_op(workload, inst, op_seed)
        ops.append(op)
        op_seeds.append(op_seed)
        if tracing is not None:
            # A fresh load of the same input: the untraced operation has
            # filled the state's lazy caches, which would flatter a rerun.
            fresh = set_up(workload, inst.seed, scratch)
            traced.append(_traced_op(workload, fresh, op_seed, op, tracing, f"op{k}"))

    probes.append(speed_probe())
    attempted = sum(op.attempted for op in ops) + sum(t["attempted"] for t in traced)
    failed = sum(op.failed for op in ops) + sum(t["failed"] for t in traced)
    record: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "instances": [
            {"seed": i.seed, "spec_hash": i.spec_hash, "setup_s": i.setup_s} for i in instances
        ],
        "ops": [
            {"seed": s, **{k: v for k, v in asdict(op).items() if k != "latencies"}}
            for s, op in zip(op_seeds, ops)
        ],
        "traced_ops": traced,
        "attempted": attempted,
        "failed": failed,
        "digest": _digest([op.digest for op in ops]),
        "probe_s": probes,
    }
    walls = [op.wall_s for op in ops]
    # This machine's speed drifts by up to 2.5x, over seconds to minutes
    # (other load on the host), and set-ups, episodes and serving runs
    # slow down with the probe.  So each sample is scaled to the reference
    # speed by the probes next to it: a set-up by the probe run right
    # after it, an operation by the mean of the probes before and after
    # it.  The raw samples are kept.
    setup_scaled = [
        i.setup_s * REFERENCE_PROBE_S / probes[k] for i, k in zip(instances, first_op)
    ]
    wall_scaled = [
        w * 2 * REFERENCE_PROBE_S / (probes[k] + probes[k + 1]) for k, w in enumerate(walls)
    ]
    stats = {
        "setup_s": _quartiles([i.setup_s for i in instances]),
        "wall_s": _quartiles(walls),
        "setup_scaled_s": _quartiles(setup_scaled),
        "wall_scaled_s": _quartiles(wall_scaled),
        "peak_after": _quartiles([op.peak_after for op in ops]),
        "bytes_moved": _quartiles([b for op in ops for ok, b in op.decisions if ok]),
    }
    decisions = [ok for op in ops for ok, _ in op.decisions]
    record["stats"] = stats
    # The machine's speed over the whole run, relative to the reference.
    speed = REFERENCE_PROBE_S / statistics.median(probes)
    record["speed_factor"] = speed
    record["end_to_end"] = {
        "setup_s": stats["setup_scaled_s"]["median"],
        "wall_s": stats["wall_scaled_s"]["median"],
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracing is not None:
        layer = _per_layer(workload, ops, traced, tracing)
        layer["cluster.load_json_s"] = load_json_s
        layer["feasible_frac"] = sum(decisions) / len(decisions) if decisions else 0.0
        layer["peak_after"] = stats["peak_after"]["median"]
        layer["bytes_moved"] = stats["bytes_moved"]["median"]
        layer["speed_factor"] = speed
        layer["setup_raw_s"] = stats["setup_s"]["median"]
        layer["wall_raw_s"] = stats["wall_s"]["median"]
        record["per_layer"] = layer
        record["trace_records"] = tracing.rec.to_json()
    return record


def _traced_op(
    workload: Workload,
    inst: Instance,
    seed: int,
    plain: OpResult,
    tracing: Tracing,
    run_id: str,
) -> dict[str, Any]:
    """Re-run *inst* with the wrappers installed; outputs must not change.

    On ``restarts-pool`` the same restarts then run serially, also
    traced, and the serial winner must equal the pooled one bitwise.
    """
    tracing.rec.run_id = run_id
    first_report = len(tracing.restart_reports)
    op = run_op(workload, inst, seed, tracing)
    entry: dict[str, Any] = {
        "run_id": run_id,
        "wall_s": op.wall_s,
        "untraced_wall_s": plain.wall_s,
        "attempted": op.attempted,
        "failed": op.failed,
        "errors": list(op.errors),
        "serial_wall_s": 0.0,
    }
    if op.digest != plain.digest:
        entry["failed"] += 1
        entry["errors"].append("trace: traced output differs from the untraced output")
    if workload.restarts > 1:
        entry.update(_serial_restarts(tracing, first_report, run_id))
        entry["attempted"] += 1
        if entry.get("serial_error"):
            entry["failed"] += 1
            entry["errors"].append(entry["serial_error"])
    return entry


def _serial_restarts(tracing: Tracing, first_report: int, run_id: str) -> dict[str, Any]:
    pooled = [r for r in tracing.restart_reports[first_report:] if r[2].get("n_workers", 1) > 1]
    if not pooled:
        return {"serial_error": "restarts: no pooled restart fan-out was observed"}
    report, args, kwargs = pooled[-1]
    serial_id = f"{run_id}-serial"
    tracing.rec.run_id = serial_id
    with active(tracing):
        from repro.parallel import run_sra_restarts

        t0 = _clock()
        serial = run_sra_restarts(*args, **{**kwargs, "n_workers": 1})
        wall = _clock() - t0
    out: dict[str, Any] = {"serial_wall_s": wall}
    same = (
        np.array_equal(serial.best.target_assignment, report.best.target_assignment)
        and serial.best.feasible == report.best.feasible
        and serial.best.peak_after == report.best.peak_after
    )
    if not same:
        out["serial_error"] = "restarts: serial winner differs from the pooled winner"
    return out


def _per_layer(
    workload: Workload,
    ops: list[OpResult],
    traced: list[dict[str, Any]],
    tracing: Tracing,
) -> dict[str, float]:
    traced_wall = sum(t["wall_s"] + t["serial_wall_s"] for t in traced)
    out = tracing.metrics(traced_wall)
    plain = sum(t["untraced_wall_s"] for t in traced)
    out["trace_overhead_frac"] = sum(t["wall_s"] for t in traced) / plain - 1.0 if plain else 0.0
    for key in ("queries_per_s", "sim_migration_window_frac"):
        vals = [op.sim[key] for op in ops if key in op.sim]
        out[key] = statistics.median(vals) if vals else 0.0
    lat = [op.latencies for op in ops if op.latencies is not None and op.latencies.size]
    if lat:
        from repro.simulate import summarize

        summary = summarize(np.concatenate(lat))
        out["sim_p50_ms"] = 1e3 * summary.p50
        out["sim_p99_ms"] = 1e3 * summary.p99
    pooled = [r for r, _, k in tracing.restart_reports if k.get("n_workers", 1) > 1]
    if pooled:
        # Workers forked during a traced operation run the library
        # unwrapped (see ``layers``), so task times carry no tracer cost;
        # the overhead is taken against the untraced operations' wall.
        task_s = sum(row.duration_s for r in pooled for row in r.results)
        out["pool.task_s"] = task_s
        out["pool.overhead_s"] = plain - task_s / workload.workers
        out["pool.tasks_failed"] = float(sum(not row.ok for r in pooled for row in r.results))
    return out


def _finite(value: float) -> float:
    """JSON has no NaN: a metric no operation could produce reads 0."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def result_line(record: dict[str, Any], trace: bool) -> dict[str, Any]:
    """The benchmark's final output line."""
    if trace:
        values, units = record["per_layer"], PER_LAYER_UNITS
    else:
        values, units = record["end_to_end"], END_TO_END_UNITS
    failed = record["failed"]
    return {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": _finite(values[name]), "unit": unit} for name, unit in units.items()
        },
    }

