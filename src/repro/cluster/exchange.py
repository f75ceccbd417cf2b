"""Exchange-pool accounting.

The resource-exchange contract of the paper: the operator lends the
rebalancer ``B`` initially vacant machines; after rebalancing, the
rebalancer must hand back ``R`` vacant machines (default ``R = B``) — not
necessarily the ones it borrowed.  :class:`ExchangeLedger` records the
borrow, validates the return against a finished :class:`ClusterState`, and
selects which concrete machines to return.

Two return policies are supported:

``"count"`` (default)
    Any ``R`` vacant machines satisfy the contract.  This is the weakest
    reading of "return some vacant machines as compensation".
``"capacity"``
    The summed capacity of the returned machines must dominate the summed
    capacity of the borrowed machines in every dimension — the exchange
    is resource-neutral for the pool, not merely machine-count-neutral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.resources import dominates
from repro.cluster.state import ClusterState

__all__ = [
    "ExchangeLedger",
    "ExchangeViolation",
    "ExchangeSettlement",
    "settle_fleet",
    "PoolDecision",
    "PoolSizingPolicy",
    "ExchangePoolManager",
]

ReturnPolicy = Literal["count", "capacity"]


class ExchangeViolation(ValueError):
    """Raised when a final state cannot satisfy the vacancy-return contract."""


@dataclass
class ExchangeLedger:
    """Borrow/return bookkeeping for one rebalancing episode.

    Attributes
    ----------
    borrowed_ids:
        Machine ids (in the *augmented* cluster) of the borrowed machines.
    required_returns:
        Number of vacant machines that must be returned, ``R``.
    policy:
        Return policy, see module docstring.
    """

    borrowed_ids: tuple[int, ...] = ()
    required_returns: int = 0
    policy: ReturnPolicy = "count"
    _borrowed_capacity: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def borrow(
        state: ClusterState,
        machines: Sequence[Machine],
        *,
        required_returns: int | None = None,
        policy: ReturnPolicy = "count",
    ) -> tuple[ClusterState, "ExchangeLedger"]:
        """Augment *state* with borrowed *machines* and open a ledger.

        Returns the augmented state (new object; the input is untouched)
        and the ledger tracking the debt.  ``required_returns`` defaults
        to the number of borrowed machines.
        """
        if required_returns is None:
            required_returns = len(machines)
        if required_returns < 0:
            raise ValueError(f"required_returns must be >= 0, got {required_returns}")
        if required_returns > state.num_machines + len(machines):
            raise ValueError("cannot owe more returns than machines exist")
        augmented = state.with_extra_machines(machines)
        start = state.num_machines
        ledger = ExchangeLedger(
            borrowed_ids=tuple(range(start, augmented.num_machines)),
            required_returns=required_returns,
            policy=policy,
            _borrowed_capacity=augmented.capacity[start:].sum(axis=0),
        )
        return augmented, ledger

    @property
    def num_borrowed(self) -> int:
        return len(self.borrowed_ids)

    def borrowed_capacity(self) -> np.ndarray:
        """Summed capacity vector of the borrowed machines."""
        if self._borrowed_capacity is None:
            raise ValueError("ledger was not opened via ExchangeLedger.borrow")
        return self._borrowed_capacity

    # ------------------------------------------------------------ validation
    def candidate_returns(self, state: ClusterState) -> np.ndarray:
        """Vacant machines eligible to be returned, best first.

        Preference order: vacant borrowed machines first (returning the
        loaner's own machines is always acceptable), then vacant in-service
        machines by descending capacity (so a ``capacity`` policy is
        satisfied with the fewest machines).
        """
        vacant = state.vacant_machines()
        vacant = vacant[~state.offline_mask[vacant]]  # dead machines can't be returned
        if vacant.size == 0:
            return vacant
        borrowed = np.isin(vacant, np.asarray(self.borrowed_ids, dtype=np.int64))
        caps = state.capacity[vacant].sum(axis=1)
        # Sort: borrowed first, then by capacity descending.
        order = np.lexsort((-caps, ~borrowed))
        return vacant[order]

    def select_returns(self, state: ClusterState) -> np.ndarray:
        """Choose the machines to return, or raise :class:`ExchangeViolation`.

        For the ``count`` policy this is the first ``R`` candidates.  For
        the ``capacity`` policy, candidates are accumulated (largest first
        among in-service machines) until the borrowed capacity is covered;
        at least ``R`` machines are always returned.
        """
        candidates = self.candidate_returns(state)
        if candidates.size < self.required_returns:
            raise ExchangeViolation(
                f"need {self.required_returns} vacant machines to return, "
                f"only {candidates.size} are vacant"
            )
        if self.policy == "count":
            return candidates[: self.required_returns]
        # capacity policy
        target = self.borrowed_capacity()
        chosen: list[int] = []
        total = np.zeros_like(target)
        for mid in candidates:
            if len(chosen) >= self.required_returns and dominates(total, target):
                break
            chosen.append(int(mid))
            total += state.capacity[mid]
        if len(chosen) < self.required_returns or not dominates(total, target):
            raise ExchangeViolation(
                "vacant machines cannot cover borrowed capacity "
                f"(have {total}, owe {target})"
            )
        return np.asarray(chosen, dtype=np.int64)

    def is_satisfiable(self, state: ClusterState) -> bool:
        """True when :meth:`select_returns` would succeed on *state*."""
        try:
            self.select_returns(state)
        except ExchangeViolation:
            return False
        return True

    def settle(self, state: ClusterState) -> "ExchangeSettlement":
        """Validate and close the ledger against a finished state."""
        returned = self.select_returns(state)
        kept = [mid for mid in self.borrowed_ids if mid not in set(returned.tolist())]
        return ExchangeSettlement(
            returned_ids=tuple(int(r) for r in returned),
            retained_borrowed_ids=tuple(kept),
            returned_capacity=state.capacity[returned].sum(axis=0)
            if returned.size
            else np.zeros(state.dims),
        )


@dataclass(frozen=True)
class ExchangeSettlement:
    """Outcome of closing an :class:`ExchangeLedger`.

    ``retained_borrowed_ids`` lists borrowed machines that stay in service
    (an equal number of formerly in-service machines was emptied and
    returned instead) — the "exchange" the paper is named for.
    """

    returned_ids: tuple[int, ...]
    retained_borrowed_ids: tuple[int, ...]
    returned_capacity: np.ndarray


@dataclass(frozen=True)
class PoolDecision:
    """One control round's borrow/release verdict.

    At most one side is nonzero: a round either grows the fleet from
    the pool, shrinks it back, or holds.  ``reason`` is a short audit
    tag (``"overload"``, ``"release"``, ``"hold"``, ``"held"``,
    ``"idle"``) for episode records.
    """

    borrow: int = 0
    release: int = 0
    reason: str = "idle"


@dataclass(frozen=True)
class PoolSizingPolicy:
    """How many vacant pool machines to borrow or return per round.

    Replaces the fixed borrow-``B``-return-``B`` episode semantics with
    a continuous loan: machines borrowed under pressure *stay in the
    fleet* across rounds (``required_returns=0`` on the borrow) and are
    handed back — possibly as drained in-service machines, the exchange
    the paper is named for — once the pressure subsides.

    Hysteresis is twofold, so the loan doesn't thrash:

    * a **peak band**: borrow only above ``borrow_above``, release only
      below ``release_below`` (the gap is the dead zone);
    * a **hold time**: a changed loan must sit ``min_hold_rounds``
      control rounds before any release.

    Attributes
    ----------
    borrow_above:
        Peak utilization above which the fleet borrows.
    release_below:
        Peak utilization below which held machines may be released;
        must be strictly below ``borrow_above``.
    overload_gain:
        Machines requested per unit of peak overshoot beyond
        ``borrow_above`` (always at least 1 when over).
    max_borrow_per_round / max_release_per_round:
        Per-round caps on loan growth/shrink.
    min_hold_rounds:
        Control rounds a loan is held before it may shrink.
    """

    borrow_above: float = 0.9
    release_below: float = 0.8
    overload_gain: float = 20.0
    max_borrow_per_round: int = 2
    max_release_per_round: int = 2
    min_hold_rounds: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.release_below < self.borrow_above:
            raise ValueError(
                "need 0 < release_below < borrow_above, got "
                f"{self.release_below} / {self.borrow_above}"
            )
        if self.overload_gain <= 0:
            raise ValueError(f"overload_gain must be > 0, got {self.overload_gain}")
        if self.max_borrow_per_round < 0 or self.max_release_per_round < 0:
            raise ValueError("per-round borrow/release caps must be >= 0")
        if self.min_hold_rounds < 0:
            raise ValueError(f"min_hold_rounds must be >= 0, got {self.min_hold_rounds}")

    def decide(
        self, *, peak: float, on_loan: int, available: int, rounds_held: int
    ) -> PoolDecision:
        """Pure decision for one round (no state; see ExchangePoolManager)."""
        if peak > self.borrow_above:
            want = max(1, int(np.ceil((peak - self.borrow_above) * self.overload_gain)))
            borrow = min(want, self.max_borrow_per_round, available)
            if borrow > 0:
                return PoolDecision(borrow=borrow, reason="overload")
            return PoolDecision(reason="hold")
        if peak < self.release_below and on_loan > 0:
            if rounds_held < self.min_hold_rounds:
                return PoolDecision(reason="held")
            release = min(on_loan, self.max_release_per_round)
            return PoolDecision(release=release, reason="release")
        return PoolDecision(reason="idle" if on_loan == 0 else "hold")


class ExchangePoolManager:
    """Stateful loan tracker applying a :class:`PoolSizingPolicy`.

    Owns nothing but counters: the caller executes the decision (lend
    machines into an :meth:`ExchangeLedger.borrow`, settle returns back
    into its pool) and reports what actually happened via :meth:`note`.
    ``machine_rounds`` integrates the loan over time — the cost figure
    pool-sizing studies compare against fixed-budget borrowing.
    """

    def __init__(self, policy: PoolSizingPolicy | None = None) -> None:
        self.policy = policy or PoolSizingPolicy()
        self.on_loan = 0
        #: Control rounds since the loan last changed (the hold clock).
        self.rounds_held = 0
        #: Standing loan integrated over control rounds — the cost figure
        #: pool-sizing studies compare against fixed-budget borrowing.
        self.machine_rounds = 0
        #: One audit row per executed borrow/release/hold-back round.
        self.history: list[dict[str, int | str]] = []

    def check(self, *, peak: float, available: int) -> PoolDecision:
        """Once per control round: advance the hold clock, integrate the
        standing loan, and return the policy's verdict for this round."""
        self.rounds_held += 1
        self.machine_rounds += self.on_loan
        return self.decide(peak=peak, available=available)

    def decide(self, *, peak: float, available: int) -> PoolDecision:
        """The policy's verdict for the current round, without advancing
        any clock (repeats :meth:`check`'s answer until :meth:`note`)."""
        return self.policy.decide(
            peak=peak,
            on_loan=self.on_loan,
            available=available,
            rounds_held=self.rounds_held,
        )

    def note(self, decision: PoolDecision, *, borrowed: int, released: int) -> None:
        """Record what a round actually executed.

        *borrowed*/*released* are the realized deltas (an infeasible
        episode may return lent machines immediately: borrowed=0).
        """
        if borrowed < 0 or released < 0:
            raise ValueError("borrowed/released must be >= 0")
        if released > self.on_loan + borrowed:
            raise ValueError("cannot release more machines than are on loan")
        self.on_loan += borrowed - released
        if borrowed != released:
            self.rounds_held = 0
        self.history.append(
            {
                "decision": decision.reason,
                "borrowed": borrowed,
                "released": released,
                "on_loan": self.on_loan,
            }
        )


def settle_fleet(
    final: ClusterState, ledger: ExchangeLedger
) -> tuple[ClusterState, ExchangeSettlement, list[Machine]]:
    """Close the episode: drop the returned machines from the fleet.

    Returns the post-settlement cluster (returned machines removed,
    remaining machines re-indexed densely, assignment and offline/blocked
    masks preserved), the settlement, and the returned machine
    descriptions (what goes back into the pool).  An episode run through
    :func:`repro.core.run_episode` settles from the settlement its
    rebalancer already computed instead.
    """
    settlement = ledger.settle(final)
    returned_machines = [final.machines[mid] for mid in settlement.returned_ids]
    return final.without_machines(settlement.returned_ids), settlement, returned_machines
