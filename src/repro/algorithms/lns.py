"""Generic adaptive large neighborhood search (ALNS) engine.

Ropke & Pisinger-style ALNS: at each iteration a (destroy, repair) pair
is drawn by roulette wheel over adaptive weights, applied to a copy-free
working state, and the candidate is accepted by a simulated-annealing
criterion.  Operator weights are refreshed every ``segment_length``
iterations from the scores the operators earned (new global best >
improvement > accepted).

The engine is algorithm-agnostic: SRA supplies the operators, objective
and the *best filter* (the hook that enforces migration schedulability
and the exchange contract before a candidate may become the incumbent
best — the feasibility coupling of DESIGN.md §1.2).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from repro import obs
from repro._validation import check_fraction, check_positive
from repro.cluster import ClusterState
from repro.algorithms.destroy import DestroyOperator
from repro.algorithms.repair import RepairOperator

__all__ = ["AlnsConfig", "AlnsOutcome", "AlnsEngine", "IncumbentChannel"]


class IncumbentChannel(Protocol):
    """Duck type of a cooperative incumbent-exchange endpoint.

    Implemented by :class:`repro.parallel.shm.IncumbentExchange`; the
    engine depends only on this protocol so the algorithms layer stays
    independent of the parallel machinery.  Every ``period`` iterations
    the engine offers its incumbent best and adopts a strictly better
    foreign one.  The channel owner guarantees published incumbents
    passed the same best filter the adopter would apply (all portfolio
    members run one episode's filter), so adoption skips re-filtering.
    """

    period: int

    def offer(
        self, objective: float, assignment: np.ndarray, blocked: np.ndarray
    ) -> bool:
        """Publish; True when the slot was taken over."""
        ...

    def take(
        self, objective: float
    ) -> tuple[float, np.ndarray, np.ndarray] | None:
        """A strictly better foreign incumbent, or None."""
        ...


@dataclass(frozen=True)
class AlnsConfig:
    """ALNS hyper-parameters.

    Attributes
    ----------
    iterations:
        Destroy/repair rounds.
    time_limit:
        Optional wall-clock cap in seconds (None = iterations only).
    removal_fraction_min / removal_fraction_max:
        Bounds of the per-iteration removal quantity, as a fraction of the
        shard count (quantity is drawn uniformly in between, ≥ 1).
    start_temperature_ratio:
        SA start temperature as a fraction of the initial objective — a
        candidate this much worse is accepted with probability ``e⁻¹``.
    cooling:
        Geometric cooling factor per iteration.
    segment_length:
        Iterations per adaptive-weight segment.
    reaction:
        Weight update smoothing in [0, 1] (1 = replace, 0 = frozen).
    score_best / score_improve / score_accept:
        Operator scores for finding a new global best / improving the
        current / being accepted.
    seed:
        RNG seed.
    n_workers:
        Worker processes available to the surrounding restart/portfolio
        layer (``repro.parallel``).  The ALNS inner loop itself is
        inherently sequential (simulated annealing over one trajectory);
        this knob sizes the pool that restart fan-outs
        (``SRAConfig.restarts``, CLI ``--restarts/--workers``) schedule
        onto.  1 (the default) is today's serial path.
    """

    iterations: int = 2500
    time_limit: float | None = None
    removal_fraction_min: float = 0.05
    removal_fraction_max: float = 0.25
    #: Absolute cap on the removal quantity.  On large instances a 25%
    #: removal is a near-rebuild: slow and unlikely to be accepted; the
    #: cap keeps per-iteration cost bounded so big clusters get many
    #: iterations instead of few huge ones.
    removal_cap: int = 100
    start_temperature_ratio: float = 0.01
    cooling: float = 0.996
    segment_length: int = 100
    reaction: float = 0.4
    score_best: float = 12.0
    score_improve: float = 4.0
    score_accept: float = 1.0
    seed: int = 0
    n_workers: int = 1
    #: Record the incumbent objective after every iteration.  Disable on
    #: long runs where only the final outcome matters.
    collect_history: bool = True
    #: Run destroy/repair inside a ClusterState transaction and roll back
    #: rejected candidates, instead of copying the whole state every
    #: iteration.  Same trajectory either way (the transaction restores
    #: rejected states bitwise); False keeps the copy-based loop as a
    #: reference implementation.
    delta_evaluation: bool = True

    def __post_init__(self) -> None:
        check_positive("iterations", self.iterations)
        if self.time_limit is not None:
            check_positive("time_limit", self.time_limit)
        check_fraction("removal_fraction_min", self.removal_fraction_min)
        check_fraction("removal_fraction_max", self.removal_fraction_max)
        if self.removal_fraction_min > self.removal_fraction_max:
            raise ValueError("removal_fraction_min must be <= removal_fraction_max")
        check_positive("removal_cap", self.removal_cap)
        check_positive("start_temperature_ratio", self.start_temperature_ratio)
        if not 0.0 < self.cooling <= 1.0:
            raise ValueError(f"cooling must be in (0, 1], got {self.cooling}")
        check_positive("segment_length", self.segment_length)
        check_fraction("reaction", self.reaction)
        check_positive("n_workers", self.n_workers)


@dataclass
class AlnsOutcome:
    """What a search run produced.

    ``best_assignment`` is None when no candidate ever passed the best
    filter (e.g. the vacancy contract was unsatisfiable).
    """

    best_assignment: np.ndarray | None
    best_objective: float
    iterations: int
    history: list[float]
    operator_weights: dict[str, float]
    accepted: int
    rejected_by_filter: int
    #: Cooperative-mode traffic (zero in blind mode): incumbents this
    #: run published to / adopted from the exchange channel.
    exchange_published: int = 0
    exchange_adopted: int = 0


class AlnsEngine:
    """Reusable ALNS driver (see module docstring)."""

    def __init__(
        self,
        config: AlnsConfig,
        destroy_ops: Sequence[DestroyOperator],
        repair_ops: Sequence[RepairOperator],
    ) -> None:
        if not destroy_ops or not repair_ops:
            raise ValueError("need at least one destroy and one repair operator")
        self.config = config
        self.destroy_ops = list(destroy_ops)
        self.repair_ops = list(repair_ops)

    def run(
        self,
        state: ClusterState,
        objective: Callable[[ClusterState], float],
        *,
        best_filter: Callable[[ClusterState], bool] | None = None,
        initial_is_valid_best: bool = True,
        exchange: IncumbentChannel | None = None,
    ) -> AlnsOutcome:
        """Search from *state* (not mutated).

        Parameters
        ----------
        objective:
            Callable scoring a state (lower better).  Penalty terms may
            make transiently infeasible states comparable.
        best_filter:
            Called when a candidate would become the new global best;
            returning False vetoes it (it may still be accepted as the
            *current* state, preserving search mobility).
        initial_is_valid_best:
            Whether the starting assignment is an acceptable answer
            (False when e.g. the vacancy contract is not yet satisfied).
        exchange:
            Optional cooperative incumbent channel.  When given, every
            ``exchange.period`` iterations the engine publishes its
            incumbent best and adopts a strictly better foreign one
            (resetting the current state to it).  ``None`` (blind mode)
            leaves the trajectory bitwise-identical to an engine without
            the hook.  Adoption makes the trajectory depend on the
            *timing* of other portfolio members, so cooperative runs
            are only reproducible run-to-run in the serial portfolio;
            exchange events are traced for auditing.
        """
        cfg = self.config
        tracer = obs.current().tracer
        metrics = obs.current().metrics
        trace_on = tracer.enabled
        rng = np.random.default_rng(cfg.seed)
        current = state.copy()
        cur_obj = float(objective(current))

        best_assignment: np.ndarray | None = None
        best_obj = math.inf
        if initial_is_valid_best and (best_filter is None or best_filter(current)):
            best_assignment = current.assignment
            best_obj = cur_obj

        n = state.num_shards
        q_min = max(1, min(int(cfg.removal_fraction_min * n), cfg.removal_cap))
        q_max = max(q_min, min(int(cfg.removal_fraction_max * n), cfg.removal_cap))

        d_weights = np.ones(len(self.destroy_ops))
        r_weights = np.ones(len(self.repair_ops))
        d_scores = np.zeros_like(d_weights)
        r_scores = np.zeros_like(r_weights)
        d_uses = np.zeros_like(d_weights)
        r_uses = np.zeros_like(r_weights)

        temperature = max(cur_obj, 1e-6) * cfg.start_temperature_ratio
        history: list[float] = [cur_obj]
        accepted = 0
        vetoed = 0
        started = time.perf_counter()  # repro: allow-wall-clock (runtime reporting)
        it = 0
        use_delta = cfg.delta_evaluation

        published = 0
        adopted = 0
        with tracer.span(
            "alns.run",
            iterations=cfg.iterations,
            seed=cfg.seed,
            initial_objective=cur_obj,
        ) as run_span:
            try:
                (
                    it, accepted, vetoed, best_assignment, best_obj, cur_obj,
                    published, adopted,
                ) = self._search(
                    cfg, rng, current, objective, best_filter,
                    best_assignment, best_obj, cur_obj, temperature,
                    q_min, q_max, d_weights, r_weights, d_scores, r_scores,
                    d_uses, r_uses, history, started, use_delta,
                    tracer, trace_on, exchange,
                )
            finally:
                run_span.set("iterations_run", it)
                run_span.set("accepted", accepted)
                run_span.set("rejected_by_filter", vetoed)
                if math.isfinite(best_obj):
                    run_span.set("best_objective", best_obj)
                if exchange is not None:
                    run_span.set("exchange_published", published)
                    run_span.set("exchange_adopted", adopted)

        metrics.counter("alns.iterations").inc(it)
        metrics.counter("alns.accepted").inc(accepted)
        metrics.counter("alns.rejected_by_filter").inc(vetoed)
        if exchange is not None:
            metrics.counter("alns.exchange.published").inc(published)
            metrics.counter("alns.exchange.adopted").inc(adopted)
        if math.isfinite(best_obj):
            metrics.gauge("alns.best_objective").set(best_obj)

        weights = {
            f"destroy:{op.__name__}": float(w)
            for op, w in zip(self.destroy_ops, d_weights, strict=True)
        }
        weights.update(
            {f"repair:{op.__name__}": float(w) for op, w in zip(self.repair_ops, r_weights, strict=True)}
        )
        return AlnsOutcome(
            best_assignment=best_assignment,
            best_objective=best_obj,
            iterations=it,
            history=history,
            operator_weights=weights,
            accepted=accepted,
            rejected_by_filter=vetoed,
            exchange_published=published,
            exchange_adopted=adopted,
        )

    def _search(
        self,
        cfg: AlnsConfig,
        rng: np.random.Generator,
        current: ClusterState,
        objective: Callable[[ClusterState], float],
        best_filter: Callable[[ClusterState], bool] | None,
        best_assignment: np.ndarray | None,
        best_obj: float,
        cur_obj: float,
        temperature: float,
        q_min: int,
        q_max: int,
        d_weights: np.ndarray,
        r_weights: np.ndarray,
        d_scores: np.ndarray,
        r_scores: np.ndarray,
        d_uses: np.ndarray,
        r_uses: np.ndarray,
        history: list[float],
        started: float,
        use_delta: bool,
        tracer: obs.Tracer,
        trace_on: bool,
        exchange: IncumbentChannel | None = None,
    ) -> tuple[int, int, int, np.ndarray | None, float, float, int, int]:
        """The inner loop of :meth:`run` (split out so the run span wraps it).

        Mutates the weight/score arrays and *history* in place; RNG
        consumption is identical with tracing on or off (the trajectory
        bitwise-identity contract of docs/ARCHITECTURE.md).  With
        *exchange* set, incumbents additionally carry the blocked-mask
        snapshot they were recorded under — the exchange-swap operator
        re-designates return machines during search, so an adopted
        assignment is only consistent together with its publisher's
        blocked set.
        """
        accepted = 0
        vetoed = 0
        it = 0
        published = 0
        adopted = 0
        # Blocked mask travelling with the incumbent best (cooperative
        # mode only; never touched in blind mode so that path stays
        # bitwise-identical to the hook-free engine).
        best_blocked: np.ndarray | None = None
        if exchange is not None and best_assignment is not None:
            best_blocked = current.blocked_mask.copy()

        for it in range(1, cfg.iterations + 1):
            # repro: allow-wall-clock (real-time search budget)
            if cfg.time_limit is not None and time.perf_counter() - started > cfg.time_limit:
                break
            di = _roulette(rng, d_weights)
            ri = _roulette(rng, r_weights)
            d_uses[di] += 1
            r_uses[ri] += 1

            q = int(rng.integers(q_min, q_max + 1))
            if use_delta:
                # Mutate the incumbent inside a transaction; a rejected
                # candidate is rolled back bitwise instead of being a
                # throwaway copy of the whole state.
                candidate = current
                candidate.begin()
                try:
                    removed = self.destroy_ops[di](candidate, rng, q)
                    self.repair_ops[ri](candidate, rng, removed)
                    cand_obj = float(objective(candidate))
                except BaseException:
                    candidate.rollback()
                    raise
            else:
                candidate = current.copy()
                removed = self.destroy_ops[di](candidate, rng, q)
                self.repair_ops[ri](candidate, rng, removed)
                cand_obj = float(objective(candidate))

            score = 0.0
            new_best = False
            was_vetoed = False
            if cand_obj < best_obj - 1e-12:
                if best_filter is None or best_filter(candidate):
                    best_assignment = candidate.assignment
                    best_obj = cand_obj
                    score = cfg.score_best
                    new_best = True
                    if exchange is not None:
                        # Snapshot now: a rejected candidate's mask is
                        # rolled back, but the recorded best keeps the
                        # designee set it was feasible under.
                        best_blocked = candidate.blocked_mask.copy()
                else:
                    vetoed += 1
                    was_vetoed = True
            if score == 0.0 and cand_obj < cur_obj - 1e-12:
                score = cfg.score_improve

            accept = cand_obj <= cur_obj or rng.random() < math.exp(
                -(cand_obj - cur_obj) / max(temperature, 1e-12)
            )
            if accept:
                if use_delta:
                    current.commit()
                else:
                    current = candidate
                cur_obj = cand_obj
                accepted += 1
                if score == 0.0:
                    score = cfg.score_accept
            elif use_delta:
                current.rollback()
            d_scores[di] += score
            r_scores[ri] += score

            if trace_on:
                tracer.event(
                    "alns.iter",
                    it=it,
                    destroy=self.destroy_ops[di].__name__,
                    repair=self.repair_ops[ri].__name__,
                    q=q,
                    objective=cand_obj,
                    current=cur_obj,
                    accepted=accept,
                    new_best=new_best,
                    vetoed=was_vetoed,
                )

            temperature *= cfg.cooling
            if cfg.collect_history:
                history.append(cur_obj)

            if it % cfg.segment_length == 0:
                # In-place so the caller's view of the weights stays live.
                d_weights[:] = _update_weights(d_weights, d_scores, d_uses, cfg.reaction)
                r_weights[:] = _update_weights(r_weights, r_scores, r_uses, cfg.reaction)
                d_scores[:] = 0
                r_scores[:] = 0
                d_uses[:] = 0
                r_uses[:] = 0
                if trace_on:
                    tracer.event(
                        "alns.weights",
                        it=it,
                        destroy={
                            op.__name__: float(w)
                            for op, w in zip(self.destroy_ops, d_weights, strict=True)
                        },
                        repair={
                            op.__name__: float(w)
                            for op, w in zip(self.repair_ops, r_weights, strict=True)
                        },
                    )

            if exchange is not None and it % exchange.period == 0:
                if (
                    best_assignment is not None
                    and best_blocked is not None
                    and exchange.offer(best_obj, best_assignment, best_blocked)
                ):
                    published += 1
                    if trace_on:
                        tracer.event(
                            "alns.exchange.publish", it=it, objective=best_obj
                        )
                foreign = exchange.take(best_obj)
                if foreign is not None:
                    adopt_obj, adopt_assign, adopt_blocked = foreign
                    # Reconcile the designated-return (blocked) set before
                    # swapping assignments: locally blocked machines may
                    # host shards under the foreign assignment, and the
                    # foreign designees are vacant under it by the
                    # publisher's invariant.
                    local_blocked = current.blocked_mask
                    for mach in np.flatnonzero(local_blocked & ~adopt_blocked).tolist():
                        current.unblock_machine(int(mach))
                    to_block = np.flatnonzero(adopt_blocked & ~local_blocked)
                    current.apply_assignment(adopt_assign)
                    for mach in to_block.tolist():
                        current.block_machine(int(mach))
                    cur_obj = float(objective(current))
                    best_assignment = adopt_assign
                    best_obj = cur_obj
                    best_blocked = adopt_blocked
                    adopted += 1
                    if trace_on:
                        tracer.event(
                            "alns.exchange.adopt",
                            it=it,
                            objective=cur_obj,
                            offered=adopt_obj,
                        )

        return it, accepted, vetoed, best_assignment, best_obj, cur_obj, published, adopted


def _roulette(rng: np.random.Generator, weights: np.ndarray) -> int:
    # Draw one uniform and walk the cumulative mass in Python — the
    # portfolios have a handful of operators, so this beats the generic
    # ``rng.choice(p=...)`` machinery by an order of magnitude while
    # staying deterministic per seed (one ``random()`` call per draw).
    r = rng.random() * weights.sum()
    acc = 0.0
    for i, w in enumerate(weights.tolist()):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def _update_weights(
    weights: np.ndarray, scores: np.ndarray, uses: np.ndarray, reaction: float
) -> np.ndarray:
    observed = np.divide(scores, np.maximum(uses, 1.0))
    new = (1.0 - reaction) * weights + reaction * observed
    floored: np.ndarray = np.maximum(new, 0.05)  # keep every operator alive
    return floored
