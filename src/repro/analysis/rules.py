"""The shipped rule pack: REP001–REP005.

Each rule encodes an invariant of this reproduction that no
off-the-shelf linter knows about (docs/ARCHITECTURE.md, "Static
analysis & invariants", explains the why behind each):

* **REP001** ``rng-seed`` — RNG construction with a literal or missing
  seed.  Bitwise-reproducible trajectories require every stream to
  derive from a configured seed (or ``SeedSequence.spawn``); PR 2 fixed
  a recovery bug of exactly this class (``default_rng(0)`` shadowing
  the configured seed).
* **REP002** ``wall-clock`` — wall-clock reads (``time.*``,
  ``datetime.now``…) or stdlib ``random`` in simulation/algorithm code,
  where simulated time (``repro.runtime.SimClock``) or an injected
  clock must be used.  ``parallel/``, ``obs/`` and the experiment
  drivers legitimately measure real time and are out of scope; the few
  runtime-*reporting* sites inside scope carry inline allows.
* **REP003** ``state-mutation`` — direct writes to ``ClusterState``
  internals (private caches, live array views, copy-returning
  properties) outside ``cluster/state.py``.  Such writes bypass the
  undo journal and desynchronize the delta-evaluation caches.
* **REP004** ``span-context`` — ``Tracer.span(...)`` used other than as
  a ``with`` context manager.  A manually entered span leaks on any
  exception path and corrupts the trace tree.
* **REP005** ``unordered-fold`` — float accumulation over ``set`` /
  ``frozenset`` iteration in ``algorithms/`` / ``metrics/``.  Float
  addition is not associative, so set iteration order changes results
  between runs/processes even with identical seeds.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.engine import Rule, register
from repro.analysis.findings import Finding

__all__ = [
    "RngSeedRule",
    "WallClockRule",
    "StateMutationRule",
    "SpanContextRule",
    "UnorderedFoldRule",
]

_DYNAMIC_NODES = (
    ast.Name,
    ast.Attribute,
    ast.Call,
    ast.Subscript,
    ast.Starred,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _is_static(node: ast.AST) -> bool:
    """True when *node* is a compile-time constant expression (no names,
    calls or subscripts anywhere inside it)."""
    return not any(isinstance(sub, _DYNAMIC_NODES) for sub in ast.walk(node))


def _seed_argument(call: ast.Call, keyword: str) -> ast.AST | None:
    if call.args and not isinstance(call.args[0], ast.Starred):
        return call.args[0]
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


@register
class RngSeedRule(Rule):
    """RNG constructed with a literal or missing seed.

    Contract:
        Every ``numpy.random.default_rng(...)`` / ``SeedSequence(...)``
        call receives a *dynamic* seed expression — a config value, a
        parameter, or a ``SeedSequence.spawn`` child.  Literal seeds,
        missing seeds, and the legacy ``numpy.random.seed`` /
        ``RandomState`` APIs are all violations.

    Rationale:
        Bitwise-reproducible trajectories require every stream to derive
        from the one configured seed.  A literal shadows that seed
        silently: the run "works" but replays a fixed realization no
        matter what the config says (PR 2 fixed a recovery bug of
        exactly this class).  REP008 extends this check across call
        boundaries to seeds laundered through helper parameters.

    Suppression:
        ``# repro: allow-rng-seed`` on the offending line (or alone on
        the line above), with a comment saying why this stream must not
        follow the configured seed — e.g. a deliberately adversarial
        fixture generator.
    """

    rule_id = "REP001"
    slug = "rng-seed"
    description = (
        "RNG constructed with a literal or missing seed; seeds must flow "
        "from config or SeedSequence.spawn"
    )

    def check(self, mod: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            target = mod.resolve(node.func)
            if target is None:
                continue
            if target == "default_rng" or target.endswith(".default_rng"):
                yield from self._check_seeded(mod, node, "default_rng", "seed")
            elif target == "SeedSequence" or target.endswith(".SeedSequence"):
                yield from self._check_seeded(mod, node, "SeedSequence", "entropy")
            elif target in ("numpy.random.seed", "numpy.random.RandomState") or (
                target.endswith("random.RandomState")
            ):
                yield self.finding(
                    mod,
                    node,
                    f"legacy numpy RNG API ({target.rsplit('.', 1)[-1]}) — "
                    "construct a Generator via default_rng(configured_seed)",
                )

    def _check_seeded(
        self, mod: ModuleContext, node: ast.Call, name: str, keyword: str
    ) -> Iterator[Finding]:
        seed = _seed_argument(node, keyword)
        if seed is None or (
            isinstance(seed, ast.Constant) and seed.value is None
        ):
            yield self.finding(
                mod,
                node,
                f"{name}() without a seed is nondeterministic — thread the "
                "configured seed through",
            )
        elif _is_static(seed):
            yield self.finding(
                mod,
                node,
                f"{name}({ast.unparse(seed)}) hard-codes its seed — seeds "
                "must flow from config or SeedSequence.spawn",
            )


#: Call targets that read the wall clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Modules where real time is the measured quantity, not a bug.
_WALL_CLOCK_ALLOWED_PREFIXES = (
    "src/repro/experiments/",
    "src/repro/parallel/",
    "src/repro/obs/",
    "src/repro/analysis/",
)
_WALL_CLOCK_ALLOWED_FILES = frozenset(
    {"src/repro/cli.py", "src/repro/__main__.py"}
)


@register
class WallClockRule(Rule):
    """Wall-clock read (or stdlib ``random``) in simulation/algorithm code.

    Contract:
        Inside ``src/repro/`` — excluding ``experiments/``,
        ``parallel/``, ``obs/``, ``analysis/`` and the CLI entry points,
        where real time is the measured quantity — no call to
        ``time.*`` clock readers or ``datetime`` "now" constructors, and
        no import of stdlib ``random``.

    Rationale:
        Simulated components must take time from
        ``repro.runtime.SimClock`` (or an injected clock) so traces are
        deterministic and replayable; a wall-clock read makes results
        depend on host speed.  Stdlib ``random`` is a second, unseeded
        RNG source next to the numpy Generator threaded from config.

    Suppression:
        ``# repro: allow-wall-clock`` on the line, reserved for genuine
        runtime *reporting* sites inside scope (progress timestamps in
        logs) — never for anything that feeds back into results.
    """

    rule_id = "REP002"
    slug = "wall-clock"
    description = (
        "wall-clock read (or stdlib random) in simulation/algorithm code; "
        "use repro.runtime.SimClock or an injected clock"
    )

    def applies_to(self, rel: str) -> bool:
        if not rel.startswith("src/repro/"):
            return False
        if rel in _WALL_CLOCK_ALLOWED_FILES:
            return False
        return not rel.startswith(_WALL_CLOCK_ALLOWED_PREFIXES)

    def check(self, mod: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                target = mod.resolve(node.func)
                if target in _WALL_CLOCK_CALLS:
                    yield self.finding(
                        mod,
                        node,
                        f"{target}() reads the wall clock inside simulation/"
                        "algorithm code — use simulated time "
                        "(repro.runtime.SimClock) or an injected clock",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            mod,
                            node,
                            "stdlib random is a second, unseeded RNG source — "
                            "use the numpy Generator threaded from config",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    yield self.finding(
                        mod,
                        node,
                        "stdlib random is a second, unseeded RNG source — "
                        "use the numpy Generator threaded from config",
                    )


#: ClusterState's private caches (cluster/state.py is the one writer).
_STATE_PRIVATE_ATTRS = frozenset(
    {
        "_assign",
        "_loads",
        "_counts",
        "_peak",
        "_peak_dirty",
        "_peak_any_dirty",
        "_num_unassigned",
        "_num_vacant",
        "_replica_hosts",
        "_replica_conflicts",
        "_norm_demand",
        "_loads_t",
        "_peak_block",
        "_block_dirty",
        "_block_any_dirty",
    }
)
_STATE_PRIVATE_METHODS = frozenset(
    {
        "_rebuild_caches",
        "_refleet",
        "_refreshed_peaks",
        "_host_enter",
        "_host_leave",
    }
)
#: Properties returning live arrays ("do not mutate") or copies (writes
#: are silently lost): subscript stores through them are always bugs.
_STATE_VIEW_PROPS = frozenset(
    {
        "loads",
        "capacity",
        "demand",
        "sizes",
        "assignment",
        "blocked_mask",
        "offline_mask",
        "exchange_mask",
    }
)
_STATE_VIEW_CALLS = frozenset(
    {
        "assignment_view",
        "shard_counts_view",
        "machine_peak_utilization_view",
    }
)


@register
class StateMutationRule(Rule):
    """Direct mutation of ``ClusterState`` internals outside
    ``cluster/state.py``.

    Contract:
        Outside ``src/repro/cluster/state.py``, no attribute or
        subscript write to the private caches (``_loads``, ``_peak``,
        ``_loads_t``, ``_peak_block``, …), no call to the private
        maintenance methods, and no subscript store through the
        view-returning properties (``loads``, ``assignment``, …) or
        ``*_view()`` accessors.

    Rationale:
        Every legal mutation flows through the transactional API
        (``begin`` / ``move`` / ``assign_shard`` / ``commit`` /
        ``rollback``) so the undo journal and the delta-evaluation
        caches stay coherent.  A direct write bypasses both: rollback
        silently restores stale values and incremental objectives drift
        from the arrays.  REP009 extends this to *aliases* of the
        mirror arrays that cross function boundaries.

    Suppression:
        ``# repro: allow-state-mutation`` on the line.  Legitimate only
        in code that provably owns a private copy (e.g. a frame restored
        from a snapshot) — say so in an adjacent comment.
    """

    rule_id = "REP003"
    slug = "state-mutation"
    description = (
        "direct mutation of ClusterState internals outside cluster/state.py; "
        "use the transactional API (begin/move/assign_shard/commit/rollback)"
    )

    def applies_to(self, rel: str) -> bool:
        return rel.startswith("src/repro/") and rel != "src/repro/cluster/state.py"

    def check(self, mod: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    yield from self._check_target(mod, target)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _STATE_PRIVATE_METHODS
                    and not _is_self(func.value)
                ):
                    yield self.finding(
                        mod,
                        node,
                        f"call to ClusterState-private {func.attr}() outside "
                        "cluster/state.py bypasses the transactional API",
                    )

    def _check_target(self, mod: ModuleContext, target: ast.AST) -> Iterator[Finding]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._check_target(mod, elt)
            return
        if (
            isinstance(target, ast.Attribute)
            and target.attr in _STATE_PRIVATE_ATTRS
            # A foreign write goes through a state reference
            # (state._loads = ...); a bare-self attribute is another
            # class's own field that happens to share the name.
            and not _is_self(target.value)
        ):
            yield self.finding(
                mod,
                target,
                f"write to ClusterState private cache .{target.attr} outside "
                "cluster/state.py bypasses the undo journal",
            )
            return
        if isinstance(target, ast.Subscript):
            value = target.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr in _STATE_PRIVATE_ATTRS
                and not _is_self(value.value)
            ):
                yield self.finding(
                    mod,
                    target,
                    f"subscript write into ClusterState private cache "
                    f".{value.attr} outside cluster/state.py bypasses the "
                    "undo journal",
                )
            elif (
                isinstance(value, ast.Attribute)
                and value.attr in _STATE_VIEW_PROPS
                and not _is_self(value.value)
            ):
                kind = (
                    "a copy (the write is silently lost)"
                    if value.attr == "assignment"
                    else "a live cache view"
                )
                yield self.finding(
                    mod,
                    target,
                    f"subscript write through .{value.attr} mutates {kind} — "
                    "use move()/assign_shard()/apply_assignment()",
                )
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in _STATE_VIEW_CALLS
            ):
                yield self.finding(
                    mod,
                    target,
                    f"subscript write through {value.func.attr}() mutates the "
                    "live array — copy it or use the transactional API",
                )


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


@register
class SpanContextRule(Rule):
    """``Tracer.span(...)`` used other than as a ``with`` context manager.

    Contract:
        Every call whose attribute name is ``span`` appears as the
        context expression of a ``with`` item; assigning the span object
        and entering it manually is a violation.

    Rationale:
        A manually entered span leaks on any exception path between
        ``__enter__`` and the matching exit, which corrupts the trace
        tree for every later span in the same tracer — the damage shows
        up far from the bug.

    Suppression:
        ``# repro: allow-span-context`` on the line, for the rare
        framework-level site that stores a span across an async boundary
        and provably closes it in a ``finally``.
    """

    rule_id = "REP004"
    slug = "span-context"
    description = (
        "Tracer.span(...) used other than as a context manager; a manually "
        "entered span leaks on exception paths"
    )

    def check(self, mod: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
            ):
                parent = mod.parent(node)
                if isinstance(parent, ast.withitem) and parent.context_expr is node:
                    continue
                yield self.finding(
                    mod,
                    node,
                    "use `with tracer.span(...) as sp:` — a span entered "
                    "manually leaks on exceptions and corrupts the trace tree",
                )


_SUM_CALLS = frozenset({"sum", "math.fsum", "numpy.sum"})


def _is_unordered(mod: ModuleContext, node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        target = mod.resolve(node.func)
        return target in ("set", "frozenset")
    return False


@register
class UnorderedFoldRule(Rule):
    """Float accumulation over ``set`` / ``frozenset`` iteration.

    Contract:
        In ``src/repro/algorithms/`` and ``src/repro/metrics/``, no
        ``for``-loop accumulation (``+=`` in the body) over a set
        expression, and no ``sum()`` / ``math.fsum()`` / ``numpy.sum()``
        over a set or a comprehension drawing from one.

    Rationale:
        Float addition is not associative, and set iteration order
        varies with hash seeding and insertion history — so the same
        inputs with the same seeds can fold to different totals between
        runs or processes.  Iterate ``sorted(...)`` to pin the order.

    Suppression:
        ``# repro: allow-unordered-fold`` on the line, when the
        accumulator is order-insensitive (integer counts, max/min) and
        a comment says so.
    """

    rule_id = "REP005"
    slug = "unordered-fold"
    description = (
        "float accumulation over set iteration; float addition is not "
        "associative, so unordered folds are run-to-run nondeterministic"
    )

    def applies_to(self, rel: str) -> bool:
        return rel.startswith(("src/repro/algorithms/", "src/repro/metrics/"))

    def check(self, mod: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.For) and _is_unordered(mod, node.iter):
                if any(
                    isinstance(sub, ast.AugAssign)
                    for stmt in node.body
                    for sub in ast.walk(stmt)
                ):
                    yield self.finding(
                        mod,
                        node,
                        "accumulation over set iteration is order-"
                        "nondeterministic — iterate sorted(...) instead",
                    )
            elif isinstance(node, ast.Call):
                target = mod.resolve(node.func)
                if target not in _SUM_CALLS or not node.args:
                    continue
                arg = node.args[0]
                if _is_unordered(mod, arg):
                    yield self.finding(
                        mod,
                        node,
                        f"{target}() over a set is order-nondeterministic — "
                        "sum sorted(...) instead",
                    )
                elif isinstance(arg, (ast.GeneratorExp, ast.ListComp)) and any(
                    _is_unordered(mod, gen.iter) for gen in arg.generators
                ):
                    yield self.finding(
                        mod,
                        node,
                        f"{target}() over set iteration is order-"
                        "nondeterministic — iterate sorted(...) instead",
                    )
