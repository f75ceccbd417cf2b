"""Command-line interface.

``python -m repro <command>``:

* ``generate``   — write an instance snapshot (JSON) from a generator;
* ``info``       — print a snapshot's balance metrics;
* ``run`` / ``rebalance`` — rebalance a snapshot with SRA or a baseline,
  print the episode report, optionally write the resulting snapshot and
  the observability artifacts (``--trace out.jsonl``, ``--metrics
  out.json`` — see docs/ARCHITECTURE.md, "Observability");
* ``runtime``    — serve a snapshot on the unified event runtime
  (``repro.runtime``): Poisson or diurnal arrivals, synthetic or
  measured work profiles, and optionally a mid-run SRA rebalance whose
  migration executes wave-by-wave while queries keep arriving — either
  a one-shot ``--rebalance-at T`` check or a continuous ``--controller``
  loop (``incremental`` = EWMA drift detection gating warm-started,
  budget-bounded rounds; compose with ``--drift`` to exercise it);
* ``experiment`` — regenerate one experiment table (E1–E21) or, with
  ``--all``, the whole suite — optionally fanned across worker
  processes (``--workers N``) by the ``repro.parallel`` driver, with
  the same artifact flags plus ``--out-dir`` for machine-readable
  tables;
* ``scenarios``  — the parametric scenario registry
  (``repro.scenarios``): ``list`` enumerates the generator families
  with their parameter schemas, ``show`` prints one family in detail,
  ``generate`` writes an instance snapshot from a spec (``--param k=v``
  overrides, content-addressed by spec hash), and ``matrix`` sweeps a
  scenario×algorithm grid through the parallel driver, writing per-cell
  row tables plus an ``index.json`` (the CI scenario-matrix jobs are
  thin wrappers over this subcommand);
* ``lint``       — run the AST invariant linter (rules REP001–REP005:
  seeded RNG construction, wall-clock discipline, ClusterState
  transaction discipline, span usage, unordered float folds) with the
  committed ratchet baseline — see docs/ARCHITECTURE.md, "Static
  analysis & invariants".  Also available as
  ``python -m repro.analysis``.

``run``/``rebalance`` accept ``--restarts K --workers N`` to fan K
independent SRA restarts across N worker processes (best-of-K wins;
results are identical for any worker count — see docs/ARCHITECTURE.md,
"Parallel execution").

Every command is a thin shell over the library API, so anything the CLI
does is equally scriptable in Python.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import obs
from repro.algorithms import (
    AlnsConfig,
    GreedyRebalancer,
    LocalSearchRebalancer,
    NoopRebalancer,
    RandomRestartRebalancer,
    SRA,
    SRAConfig,
)
from repro.cluster import ClusterState, load_json, save_json
from repro.core import ResourceExchangeRebalancer
from repro.metrics import imbalance_report
from repro.workloads import (
    DatacenterConfig,
    ReplicatedConfig,
    SyntheticConfig,
    generate,
    generate_datacenter,
    generate_replicated,
)

__all__ = ["main", "build_parser"]


class _InputError(Exception):
    """A user input the CLI reports as one ``error:`` line (exit 2)."""


def _load_snapshot(path: str) -> ClusterState:
    """``load_json`` with a malformed or unreadable snapshot reported as
    an :class:`_InputError` instead of a traceback."""
    try:
        return load_json(path)
    except KeyError as exc:
        raise _InputError(f"snapshot {path}: missing field {exc}") from None
    except (OSError, ValueError, TypeError) as exc:
        raise _InputError(f"snapshot {path}: {' '.join(str(exc).split())}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resource-exchange shard rebalancing (ICPP 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an instance snapshot")
    gen.add_argument("--kind", choices=("synthetic", "datacenter", "replicated"),
                     default="synthetic")
    gen.add_argument("--machines", type=int, default=20)
    gen.add_argument("--shards-per-machine", type=int, default=6)
    gen.add_argument("--utilization", type=float, default=0.8)
    gen.add_argument("--skew", type=float, default=0.55)
    gen.add_argument("--replication", type=int, default=2,
                     help="replication factor (replicated kind only)")
    gen.add_argument("--drift", type=float, default=0.35,
                     help="popularity drift (datacenter kind only)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output snapshot path (JSON)")

    info = sub.add_parser("info", help="print a snapshot's balance metrics")
    info.add_argument("snapshot", help="snapshot path (JSON)")

    for name, help_text in (
        ("run", "run a full rebalancing episode on a snapshot"),
        ("rebalance", "alias of `run`"),
    ):
        reb = sub.add_parser(name, help=help_text)
        reb.add_argument("snapshot", help="snapshot path (JSON)")
        reb.add_argument("--algorithm", choices=("sra", "local-search", "greedy",
                                                 "random-restart", "noop"),
                         default="sra")
        reb.add_argument("--exchange", type=int, default=0,
                         help="number of machines to borrow (B)")
        reb.add_argument("--returns", type=int, default=None,
                         help="vacant machines to return (R); defaults to B")
        reb.add_argument("--iterations", type=int, default=2000,
                         help="SRA search iterations")
        reb.add_argument("--seed", type=int, default=0)
        reb.add_argument("--restarts", type=int, default=1, metavar="K",
                         help="independent SRA restarts, best-of-K; restart "
                              "seeds are spawned deterministically from --seed "
                              "(SRA only)")
        reb.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes the restarts are fanned "
                              "across (1 = serial; results are identical for "
                              "any worker count unless --cooperative)")
        reb.add_argument("--cooperative", action="store_true",
                         help="let restarts exchange incumbents through a "
                              "shared best-solution slot (portfolio search; "
                              "pooled results become timing-dependent, serial "
                              "stays deterministic)")
        reb.add_argument("--out", default=None,
                         help="write the rebalanced snapshot here")
        _add_obs_arguments(reb)

    rt = sub.add_parser(
        "runtime",
        help="serve a snapshot on the event runtime, optionally migrating mid-run",
    )
    rt.add_argument("snapshot", help="snapshot path (JSON); must be fully assigned")
    rt.add_argument("--duration", type=float, default=60.0,
                    help="seconds of simulated arrivals")
    rt.add_argument("--arrival-rate", type=float, default=50.0,
                    help="mean query arrivals per second")
    rt.add_argument("--arrival-trace", choices=("poisson", "diurnal"),
                    default="poisson",
                    help="homogeneous Poisson stream, or a diurnal "
                         "(sinusoidal-rate) trace over --duration")
    rt.add_argument("--peak-ratio", type=float, default=3.0,
                    help="diurnal peak-to-trough ratio (diurnal trace only)")
    rt.add_argument("--postings-per-cpu-second", type=float, default=2e5,
                    help="machine speed per unit of CPU capacity")
    rt.add_argument("--profile", default=None, metavar="PATH",
                    help="measured WorkProfile JSON; a synthetic profile "
                         "matching the snapshot's CPU demand is derived "
                         "when omitted")
    rt.add_argument("--noise", type=float, default=0.25,
                    help="lognormal sigma of the synthetic profile's "
                         "per-query work (0 = deterministic)")
    rt.add_argument("--seed", type=int, default=0)
    rt.add_argument("--rebalance-at", type=float, default=None, metavar="T",
                    help="run a rebalance policy check at simulated time T "
                         "and execute the resulting migration wave-by-wave")
    rt.add_argument("--rebalance-policy", choices=("always", "threshold"),
                    default="always",
                    help="rebalance unconditionally at T, or only if peak "
                         "utilization exceeds --rebalance-threshold")
    rt.add_argument("--rebalance-threshold", type=float, default=0.95)
    rt.add_argument("--iterations", type=int, default=500,
                    help="SRA search iterations for the episode")
    rt.add_argument("--transfer-overhead", type=float, default=0.3,
                    help="serving-speed fraction lost while a NIC transfers")
    rt.add_argument("--bandwidth", type=float, default=1.25e9,
                    help="per-machine NIC bandwidth in bytes/second")
    rt.add_argument("--controller",
                    choices=("off", "always", "threshold", "never", "incremental"),
                    default="off",
                    help="continuous rebalance controller: policy checked every "
                         "--check-interval seconds over the whole run; "
                         "'incremental' gates warm-started, budget-bounded SRA "
                         "rounds on an EWMA drift detector (exclusive with "
                         "--rebalance-at)")
    rt.add_argument("--check-interval", type=float, default=15.0,
                    help="controller policy-check period (simulated seconds)")
    rt.add_argument("--cooldown", type=float, default=0.0,
                    help="minimum simulated seconds between an episode's "
                         "completion and the next controller trigger")
    rt.add_argument("--budget-moves", type=int, default=None,
                    help="incremental controller: max shards moved per round")
    rt.add_argument("--budget-bytes", type=float, default=None,
                    help="incremental controller: max bytes migrated per round "
                         "(scheduled plan, staging hops included)")
    rt.add_argument("--hot-threshold", type=float, default=0.9,
                    help="incremental detector: smoothed fleet peak that fires "
                         "regardless of trend")
    rt.add_argument("--slope-threshold", type=float, default=0.002,
                    help="incremental detector: smoothed-peak rise per second "
                         "that fires early")
    rt.add_argument("--drift", type=float, default=None, metavar="D",
                    help="perturb the snapshot's demand with PopularityDrift(D) "
                         "at --drift-epochs epoch boundaries (the controller "
                         "loop sees the drifted cluster; the serving work "
                         "profile stays fixed)")
    rt.add_argument("--drift-epochs", type=int, default=4,
                    help="number of drift epochs across --duration")
    rt.add_argument("--drift-target", type=float, default=0.7,
                    help="drift re-demand target mean utilization")
    rt.add_argument("--episodes-out", default=None, metavar="PATH",
                    help="write the controller's episode records as JSON "
                         "(simulated-time fields only — bitwise reproducible)")
    _add_obs_arguments(rt)

    lint = sub.add_parser(
        "lint",
        help="run the AST invariant linter (per-module REP001-REP005, "
             "interprocedural REP006-REP009) with the committed ratchet "
             "baseline",
    )
    from repro.analysis.cli import add_arguments as _add_lint_arguments

    _add_lint_arguments(lint)

    scen = sub.add_parser(
        "scenarios",
        help="parametric scenario registry: list/show/generate/matrix",
    )
    scen_sub = scen.add_subparsers(dest="scenarios_command", required=True)

    scen_sub.add_parser("list", help="list generator families and their schemas")

    show = scen_sub.add_parser("show", help="print one family's full schema")
    show.add_argument("name", help="scenario family name (see `scenarios list`)")

    sgen = scen_sub.add_parser(
        "generate", help="generate an instance snapshot from a scenario spec"
    )
    sgen.add_argument("name", help="scenario family name")
    sgen.add_argument("--param", action="append", default=[], metavar="K=V",
                      help="parameter override (repeatable)")
    sgen.add_argument("--seed", type=int, default=0)
    sgen.add_argument("--out", required=True, help="output snapshot path (JSON)")

    mat = scen_sub.add_parser(
        "matrix", help="run a scenario×algorithm matrix on the parallel driver"
    )
    mat.add_argument("--scenario", action="append", default=[], metavar="NAME",
                     help="scenario family to include, at its default "
                          "parameters (repeatable)")
    mat.add_argument("--param", action="append", default=[], metavar="NAME.K=V",
                     help="parameter override for one included scenario "
                          "(repeatable; e.g. --param zipf-popularity.num_machines=10)")
    mat.add_argument("--smoke", action="store_true",
                     help="use the built-in small spec set (what CI runs) "
                          "instead of --scenario")
    mat.add_argument("--algorithms", default="sra,greedy",
                     help="comma-separated algorithm axis "
                          "(sra, portfolio, greedy, local-search, noop)")
    mat.add_argument("--iterations", type=int, default=400,
                     help="search iterations per SRA/portfolio cell")
    mat.add_argument("--seed", type=int, default=0)
    mat.add_argument("--workers", type=int, default=1, metavar="N",
                     help="worker processes cells are fanned across (cell "
                          "rows are identical for any worker count)")
    mat.add_argument("--out-dir", default=None, metavar="DIR",
                     help="write per-cell tables plus index.json into DIR")
    mat.add_argument("--verify-determinism", action="store_true",
                     help="rerun the first cell after the matrix and fail "
                          "unless its rows are bitwise-identical")
    _add_obs_arguments(mat)

    exp = sub.add_parser("experiment", help="regenerate experiment tables")
    exp.add_argument("id", nargs="?", default=None,
                     help="experiment id, e.g. e3 (omit with --all)")
    exp.add_argument("--all", action="store_true",
                     help="run every registered experiment (E1-E21)")
    exp.add_argument("--workers", type=int, default=1, metavar="N",
                     help="worker processes to run experiments on (row "
                          "tables are identical for any worker count, "
                          "wall-clock columns aside)")
    exp.add_argument("--out-dir", default=None, metavar="DIR",
                     help="write each table as <id>.txt/<id>.json plus an "
                          "index.json manifest into DIR")
    exp.add_argument("--full", action="store_true",
                     help="full scale instead of the fast CI scale "
                          "(REPRO_FULL=1 in the environment does the same)")
    _add_obs_arguments(exp)
    return parser


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSONL span/event trace of the run")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write the run's metrics registry as JSON")


class _ObsSession:
    """Activate observability for a command when artifacts were requested."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.trace_path = getattr(args, "trace", None)
        self.metrics_path = getattr(args, "metrics", None)
        self._previous: obs.Obs | None = None
        self.bundle = obs.NULL_OBS

    def __enter__(self) -> "_ObsSession":
        if self.trace_path or self.metrics_path:
            self.bundle = obs.Obs(obs.Tracer(), obs.MetricsRegistry())
            self._previous = obs.activate(self.bundle)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._previous is not None:
            obs.deactivate(self._previous)
            if exc is None:
                if self.trace_path:
                    self.bundle.tracer.export_jsonl(self.trace_path)
                    print(f"wrote trace -> {self.trace_path}")
                if self.metrics_path:
                    self.bundle.metrics.export_json(self.metrics_path)
                    print(f"wrote metrics -> {self.metrics_path}")
        return False


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "synthetic":
        state = generate(
            SyntheticConfig(
                num_machines=args.machines,
                shards_per_machine=args.shards_per_machine,
                target_utilization=args.utilization,
                placement_skew=args.skew,
                max_shard_fraction=0.35,
                seed=args.seed,
            )
        )
    elif args.kind == "datacenter":
        state = generate_datacenter(
            DatacenterConfig(
                num_machines=args.machines,
                shards_per_machine=args.shards_per_machine,
                target_utilization=args.utilization,
                drift=args.drift,
                seed=args.seed,
            )
        )
    else:
        state = generate_replicated(
            ReplicatedConfig(
                base=SyntheticConfig(
                    num_machines=args.machines,
                    shards_per_machine=args.shards_per_machine,
                    target_utilization=args.utilization,
                    placement_skew=args.skew,
                    max_shard_fraction=0.35,
                    seed=args.seed,
                ),
                replication_factor=args.replication,
            )
        )
    save_json(state, args.out)
    print(
        f"wrote {args.kind} snapshot: {state.num_machines} machines, "
        f"{state.num_shards} shards, peak {state.peak_utilization():.3f} -> {args.out}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    state = _load_snapshot(args.snapshot)
    rep = imbalance_report(state)
    print(f"machines            {state.num_machines}")
    print(f"shards              {state.num_shards}")
    print(f"resource dims       {state.dims} {tuple(state.schema.names)}")
    print(f"tightness           {state.mean_utilization().max():.4f}")
    print(f"peak utilization    {rep.peak_utilization:.4f}")
    print(f"cv / jain / ratio   {rep.cv:.4f} / {rep.jain:.4f} / {rep.ratio:.4f}")
    print(f"overloaded machines {rep.overloaded_machines}")
    print(f"vacant machines     {rep.vacant_machines}")
    print(f"replica groups      {len(state.replica_groups)}")
    return 0


def _make_algorithm(args: argparse.Namespace):
    if args.algorithm == "sra":
        return SRA(
            SRAConfig(
                alns=AlnsConfig(iterations=args.iterations, seed=args.seed),
                restarts=args.restarts,
                n_workers=args.workers,
                cooperative=args.cooperative,
            )
        )
    if args.algorithm == "local-search":
        return LocalSearchRebalancer(seed=args.seed)
    if args.algorithm == "greedy":
        return GreedyRebalancer()
    if args.algorithm == "random-restart":
        return RandomRestartRebalancer(seed=args.seed)
    return NoopRebalancer()


def _cmd_rebalance(args: argparse.Namespace) -> int:
    state = _load_snapshot(args.snapshot)
    rebalancer = ResourceExchangeRebalancer(
        _make_algorithm(args),
        exchange_machines=args.exchange,
        required_returns=args.returns,
    )
    with _ObsSession(args):
        report = rebalancer.run(state)
    print(report.format_table())
    if not report.feasible:
        print("\nWARNING: no feasible rebalancing found", file=sys.stderr)
    if args.out:
        # Persist the augmented fleet with the final assignment.
        save_json(report.final, args.out)
        print(f"\nwrote rebalanced snapshot -> {args.out}")
    return 0 if report.feasible else 1


def _cmd_runtime(args: argparse.Namespace) -> int:
    # Local imports: the runtime stack pulls in the simulation layers,
    # which the other subcommands don't need at startup.
    import numpy as np

    from repro.algorithms import SRA as _SRA
    from repro.algorithms import AlnsConfig as _AlnsConfig
    from repro.algorithms import MigrationBudget as _MigrationBudget
    from repro.algorithms import SRAConfig as _SRAConfig
    from repro.migration import BandwidthModel
    from repro.online import PopularityDrift
    from repro.runtime import (
        ClusterHandle,
        DriftDetectorConfig,
        DriftProcess,
        IncrementalRebalanceController,
        QueryArrivalProcess,
        RebalanceController,
        Runtime,
        ServingFleet,
        synthetic_profile,
    )
    from repro.simulate import WorkProfile, diurnal_rate, nonhomogeneous_arrivals, summarize

    state = _load_snapshot(args.snapshot)
    if not state.is_fully_assigned():
        print("runtime: snapshot must be fully assigned", file=sys.stderr)
        return 2
    if args.controller != "off" and args.rebalance_at is not None:
        print(
            "runtime: --controller and --rebalance-at are exclusive "
            "(one rebalancing loop per run)",
            file=sys.stderr,
        )
        return 2
    if args.episodes_out and args.controller == "off" and args.rebalance_at is None:
        print("runtime: --episodes-out needs a controller", file=sys.stderr)
        return 2
    if args.profile:
        profile = WorkProfile.load_json(args.profile)
        if profile.num_shards != state.num_shards:
            print(
                f"runtime: profile covers {profile.num_shards} shards, "
                f"snapshot has {state.num_shards}",
                file=sys.stderr,
            )
            return 2
    else:
        profile = synthetic_profile(
            state,
            queries_per_second=args.arrival_rate,
            postings_per_cpu_second=args.postings_per_cpu_second,
            noise=args.noise,
            seed=args.seed,
        )

    rng = np.random.default_rng(args.seed)
    if args.arrival_trace == "diurnal":
        rate = diurnal_rate(
            args.arrival_rate, peak_ratio=args.peak_ratio, period=args.duration
        )
        times = nonhomogeneous_arrivals(rate, args.duration, seed=args.seed)
    else:
        n = rng.poisson(args.arrival_rate * args.duration)
        times = np.sort(rng.uniform(0.0, args.duration, size=n))
    query_rows = rng.integers(0, profile.num_queries, size=times.size)

    cpu_idx = state.schema.index("cpu") if "cpu" in state.schema.names else 0
    speeds = state.capacity[:, cpu_idx] * args.postings_per_cpu_second

    with _ObsSession(args):
        fleet = ServingFleet(speeds)
        location = state.assignment_view().copy()
        arrivals = QueryArrivalProcess(
            fleet, location, profile.work, np.arange(state.num_shards), times, query_rows
        )
        runtime = Runtime()
        runtime.add(arrivals)
        handle = ClusterHandle(state)
        if args.drift is not None:
            runtime.add(
                DriftProcess(
                    handle,
                    PopularityDrift(
                        drift=args.drift,
                        target_utilization=args.drift_target,
                        seed=args.seed,
                    ),
                    epochs=args.drift_epochs,
                    epoch_length=args.duration / args.drift_epochs,
                )
            )
        controller = None
        if args.rebalance_at is not None:
            controller = RebalanceController(
                handle,
                _SRA(
                    _SRAConfig(
                        alns=_AlnsConfig(iterations=args.iterations, seed=args.seed)
                    )
                ),
                policy=args.rebalance_policy,
                threshold=args.rebalance_threshold,
                execution="simulated",
                fleet=fleet,
                location=location,
                bandwidth=BandwidthModel(bandwidth=args.bandwidth),
                transfer_overhead=args.transfer_overhead,
                trigger_at=args.rebalance_at,
            )
            runtime.add(controller)
        elif args.controller != "off":
            budget = None
            if args.budget_moves is not None or args.budget_bytes is not None:
                budget = _MigrationBudget(
                    max_moves=args.budget_moves, max_bytes=args.budget_bytes
                )
            sra = _SRA(
                _SRAConfig(
                    alns=_AlnsConfig(iterations=args.iterations, seed=args.seed),
                    migration_budget=budget,
                )
            )
            common = dict(
                execution="simulated",
                fleet=fleet,
                location=location,
                bandwidth=BandwidthModel(bandwidth=args.bandwidth),
                transfer_overhead=args.transfer_overhead,
                check_interval=args.check_interval,
                horizon=args.duration,
                cooldown=args.cooldown,
            )
            if args.controller == "incremental":
                controller = IncrementalRebalanceController(
                    handle,
                    sra,
                    detector_config=DriftDetectorConfig(
                        hot_threshold=args.hot_threshold,
                        slope_threshold=args.slope_threshold,
                    ),
                    **common,
                )
            else:
                controller = RebalanceController(
                    handle,
                    sra,
                    policy=args.controller,
                    threshold=args.rebalance_threshold,
                    **common,
                )
            runtime.add(controller)
        end = runtime.run()
        fleet.flush()

        lat = arrivals.latencies()
        window = max(args.duration, float(times[-1])) if times.size else args.duration
        busy = fleet.busy_fraction(window)
        print(f"queries           {arrivals.queries_completed}")
        print(f"simulated end (s) {end:.3f}")
        if lat.size:
            summary = summarize(lat)
            print(f"latency p50 (ms)  {1e3 * summary.p50:.3f}")
            print(f"latency p95 (ms)  {1e3 * summary.p95:.3f}")
            print(f"latency p99 (ms)  {1e3 * summary.p99:.3f}")
        print(f"peak busy         {float(busy.max()):.4f}")
        if controller is not None:
            for ep in controller.episodes:
                print(
                    f"rebalance at t={ep['time']:.2f}: feasible={ep['feasible']} "
                    f"moves={ep['moves']} waves={ep['waves']} "
                    f"bytes={ep['bytes_moved']:.3g} "
                    f"window={ep['window_seconds']:.3f}s"
                )
            if not controller.episodes:
                print("rebalance         not triggered")
            if args.episodes_out:
                import json

                with open(args.episodes_out, "w", encoding="utf-8") as fh:
                    json.dump(controller.episodes, fh, indent=2, sort_keys=True)
                    fh.write("\n")
    return 0


def _parse_param_overrides(pairs: Sequence[str]) -> dict[str, str]:
    """Parse repeated ``--param k=v`` flags into a dict (raw strings;
    type coercion happens against the scenario schema)."""
    overrides: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--param expects K=V, got {pair!r}")
        overrides[key] = value
    return overrides


def _scenario_schema_lines(family) -> list[str]:
    return [f"    {p.describe():44s} {p.doc}" for p in family.params]


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro import scenarios

    if args.scenarios_command == "list":
        for family in scenarios.list_families():
            print(f"{family.name}  —  {family.summary}")
            for line in _scenario_schema_lines(family):
                print(line)
        return 0

    if args.scenarios_command == "show":
        try:
            family = scenarios.get_family(args.name)
        except ValueError as exc:
            print(f"scenarios: {exc}", file=sys.stderr)
            return 2
        spec = scenarios.ScenarioSpec(family.name, {}, seed=0)
        _, resolved, digest = scenarios.resolve(spec)
        print(family.name)
        print(f"  {family.summary}")
        print("  parameters:")
        for line in _scenario_schema_lines(family):
            print(line)
        print(f"  default spec hash (seed 0): {digest}")
        return 0

    if args.scenarios_command == "generate":
        try:
            overrides = _parse_param_overrides(args.param)
            spec = scenarios.ScenarioSpec(args.name, overrides, seed=args.seed)
            _, resolved, digest = scenarios.resolve(spec)
            state = scenarios.generate_instance(spec)
        except ValueError as exc:
            print(f"scenarios: {exc}", file=sys.stderr)
            return 2
        save_json(state, args.out)
        print(
            f"wrote scenario {args.name!r} (hash {digest}): "
            f"{state.num_machines} machines, {state.num_shards} shards, "
            f"peak {state.peak_utilization():.3f} -> {args.out}"
        )
        return 0

    assert args.scenarios_command == "matrix"
    return _cmd_scenarios_matrix(args)


def _cmd_scenarios_matrix(args: argparse.Namespace) -> int:
    import json as _json

    from repro import scenarios

    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    try:
        if args.smoke:
            specs = scenarios.smoke_specs(seed=args.seed)
        else:
            if not args.scenario:
                print(
                    "scenarios matrix: give --smoke or at least one --scenario",
                    file=sys.stderr,
                )
                return 2
            per_scenario: dict[str, dict[str, str]] = {
                name: {} for name in args.scenario
            }
            for pair in args.param:
                target, sep, kv = pair.partition(".")
                if not sep or target not in per_scenario:
                    raise ValueError(
                        f"--param expects NAME.K=V for an included scenario, "
                        f"got {pair!r} (included: {sorted(per_scenario)})"
                    )
                per_scenario[target].update(_parse_param_overrides([kv]))
            specs = [
                scenarios.ScenarioSpec(name, overrides, seed=args.seed)
                for name, overrides in per_scenario.items()
            ]
        for spec in specs:
            scenarios.resolve(spec)
        unknown = [a for a in algorithms if a not in scenarios.ALGORITHMS]
        if unknown:
            raise ValueError(
                f"unknown algorithm(s) {unknown}; "
                f"available: {sorted(scenarios.ALGORITHMS)}"
            )
    except ValueError as exc:
        print(f"scenarios: {exc}", file=sys.stderr)
        return 2

    with _ObsSession(args):
        cells = scenarios.run_matrix(
            specs, algorithms, iterations=args.iterations, n_workers=args.workers
        )
    from repro.experiments import print_table

    for cell in cells:
        print_table(cell.rows, title=f"matrix cell {cell.cell}")
        if not cell.ok:
            print(f"cell {cell.cell} FAILED: {cell.error}", file=sys.stderr)
    if args.out_dir:
        scenarios.save_matrix(cells, args.out_dir)
        print(f"\nwrote {len(cells)} cells -> {args.out_dir}")
    ok = all(cell.ok for cell in cells)

    if args.verify_determinism and cells:
        first = cells[0]
        rerun = scenarios.run_cell(
            first.spec.to_dict(), first.algorithm, args.iterations
        )
        if _json.dumps(rerun, sort_keys=True) != _json.dumps(
            first.rows, sort_keys=True
        ):
            print(
                f"determinism violation: rerun of cell {first.cell} diverged",
                file=sys.stderr,
            )
            return 1
        print(f"determinism verified: cell {first.cell} rerun is identical")
    return 0 if ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import REGISTRY, is_full_run, print_table
    from repro.parallel import registry_order, run_experiments, save_tables

    if args.all:
        keys = None
    elif args.id is None:
        print("experiment: give an id (e.g. e3) or --all", file=sys.stderr)
        return 2
    else:
        key = args.id.lower()
        if key not in REGISTRY:
            print(
                f"unknown experiment {args.id!r}; "
                f"available: {sorted(REGISTRY, key=registry_order)}",
                file=sys.stderr,
            )
            return 2
        keys = [key]
    fast = not (args.full or is_full_run())
    with _ObsSession(args):
        results = run_experiments(keys, fast=fast, n_workers=args.workers)
    for res in results:
        print_table(res.rows, title=f"experiment {res.key}")
        if not res.ok:
            print(f"experiment {res.key} FAILED: {res.error}", file=sys.stderr)
    if args.out_dir:
        save_tables(results, args.out_dir)
        print(f"\nwrote {len(results)} tables -> {args.out_dir}")
    return 0 if all(res.ok for res in results) else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "info":
        return _cmd_info(args)
    if args.command in ("run", "rebalance"):
        return _cmd_rebalance(args)
    if args.command == "runtime":
        return _cmd_runtime(args)
    if args.command == "lint":
        from repro.analysis.cli import run as _run_lint

        return _run_lint(args)
    if args.command == "scenarios":
        return _cmd_scenarios(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - `python -m repro.cli`
    raise SystemExit(main())
