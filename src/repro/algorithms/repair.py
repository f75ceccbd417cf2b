"""Repair operators for the LNS.

A repair operator reinserts the shards a destroy operator removed.  Both
operators share the placement scoring: inserting shard *j* on machine *i*
is scored by the machine's peak utilization after insertion, with a large
penalty when the insertion overflows capacity (so overflow is used only
when nothing fits, and the objective's overload penalty then drives the
search away from it).  Blocked machines (SRA's designated-return
machines) score ``inf`` and are never chosen, as are machines hosting a
replica sibling of the shard being scored.

* :func:`greedy_best_fit` — insert largest-demand first, each on its
  best-scoring machine.
* :func:`regret2_insertion` — classic regret-2: repeatedly insert the
  shard whose best option beats its second-best by the most (the shard
  that will suffer most if postponed).

Implementation notes (this is the hottest code in the library — see the
"Delta evaluation contract" section of docs/ARCHITECTURE.md):

* The score kernel works in *scaled utilization space* on the state's
  (d, m) structure-of-arrays mirrors (:meth:`ClusterState.loads_by_dim`
  and friends): it keeps ``util[k] = loads_t[k] * inv_cap[k]`` per
  dimension and scores an insertion as ``demand * inv_cap + util``, so
  the inner loop is a handful of contiguous row-wise fused ops with no
  divisions.  Overflow is detected in the same scaled space against
  pre-scaled thresholds; when thresholds are uniform across dimensions
  (homogeneous machines — the common fleet case) a one-comparison fast
  path detects overflow from the final max-score directly.
* Greedy needs no score matrix at all: it walks shards largest-first
  and scores one row on demand against the current utilization.  That
  is bitwise what the maintained-matrix variant computed, because every
  touched machine's column would have been refreshed from the same
  utilization rows before the row was read.
* Regret-2 keeps a (removed × machines) score matrix *current*: an
  insertion changes exactly one machine, so exactly one column is
  refreshed per step.  Build-time and column-refresh arithmetic use the
  *same* elementwise expressions, so the maintained matrix is bitwise
  what a from-scratch rebuild would produce.  Because insertions only
  ever add load, refreshed columns are monotone non-decreasing over a
  repair batch (``inf`` strike marks are re-applied from an explicit
  per-machine ledger) — the invariant the pruned path rests on.
* Regret-2 re-ranks the pending shards after every insertion.  While
  ``m <= _EXACT_REGRET_MAX`` this is one partition over the full active
  rows (:func:`_regret2_exact`); above it, :func:`_regret2_pruned`
  maintains per-row lazy top-``_TOP_T`` candidate lists plus an
  incrementally-updated regret key and only re-partitions rows whose
  lists were invalidated.  Column monotonicity makes the lists sound (a
  machine outside a row's list can never drop below the list's
  rescan-time threshold), so the pruned path produces **bitwise
  identical trajectories** to the exact path — the gate is a pure
  performance crossover, not a behaviour switch.  Both paths stay
  because each is faster on its side of the gate: the exact path on
  small fleets (a few dozen machines), the pruned one on large ones.
* Greedy and regret-2 (both paths) match the copy-based reference engine
  bitwise, pinned by the fixed-seed engine tests, the hypothesis parity
  property in tests/test_kernel_parity.py, and
  ``tools/bench_alns.py --check``.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.cluster import ClusterState

__all__ = [
    "RepairOperator",
    "greedy_best_fit",
    "regret2_insertion",
    "DEFAULT_REPAIR_OPS",
]

#: Score penalty for a placement that overflows capacity.
_OVERFLOW_PENALTY = 1e3

#: Largest machine count for which regret-2 re-partitions the full
#: active score rows after every insertion; above it the pruned top-list
#: path runs (same trajectories, better asymptotics).
_EXACT_REGRET_MAX = 128

#: Per-row candidate-list width of the pruned regret-2 path.  Two would
#: suffice for correctness; the slack keeps lists valid across many
#: insertions before a row needs re-partitioning (well-balanced fleets
#: have densely packed scores, so narrow lists thrash).
_TOP_T = 32


class RepairOperator(Protocol):
    """Signature of a repair operator."""

    __name__: str

    def __call__(
        self,
        state: ClusterState,
        rng: np.random.Generator,
        removed: Sequence[int],
    ) -> None: ...


class _ScoreKernel:
    """Shared scoring machinery for one repair batch.

    Holds the removed shards and their demands, per-dimension scaled
    utilization rows (``util[k] = loads_t[k] * inv_cap[k]``, synced with
    the state by :meth:`refresh_machine`), pre-scaled overflow
    thresholds, and — when ``build`` — the score matrix.
    ``scores[r, i]`` is the peak utilization of machine ``i`` after
    inserting removed shard ``r`` there (+ overflow penalty, inf when
    blocked or replica-anti-affine).  ``build=False`` skips the matrix
    and its scratch buffers for callers that score rows on demand.
    """

    def __init__(
        self, state: ClusterState, removed: Sequence[int], *, build: bool = True
    ) -> None:
        self.state = state
        self.shards = np.asarray(removed, dtype=np.int64)
        self.demand = state.demand[self.shards]  # (q, d)
        q, d = self.demand.shape
        m = state.num_machines
        self.q = q
        self.m = m
        self.d = d
        self.inv_cap = state.inv_capacity_by_dim()  # (d, m), shared
        cap_t = state.capacity_by_dim()
        # Overflow thresholds in scaled space: load + demand > cap + tol
        # becomes (load + demand)·inv > (cap + tol)·inv since inv > 0.
        self.thr = (cap_t + 1e-12) * self.inv_cap  # (d, m)
        # Homogeneous machines give one threshold per machine across all
        # dimensions; then overflow(r, i) == max-score(r, i) > thr_row[i]
        # (float max is exact), a one-pass detection.
        self.thr_row = np.ascontiguousarray(self.thr[0])  # (m,)
        self.thr_uniform = bool((self.thr == self.thr_row).all())
        self._loads_t = state.loads_by_dim()  # live (d, m) mirror
        self.util = self._loads_t * self.inv_cap  # (d, m), private
        # Largest per-dimension demand in the batch: a monotone bound
        # proving "no removed shard overflows machine i in dimension k"
        # with one comparison per machine instead of one per (shard,
        # machine) pair.
        self.demand_max = self.demand.max(axis=0)  # (d,)
        self.dmax_inv = self.demand_max[:, None] * self.inv_cap  # (d, m)
        self.blocked_idx = np.flatnonzero(state.blocked_mask)
        self.group_rows: dict[int, list[int]] = {}
        if state.replica_groups:
            for row, j in enumerate(self.shards.tolist()):
                g = state.shards[j].replica_of
                if g >= 0:
                    self.group_rows.setdefault(g, []).append(row)
        if build:
            #: Per-machine ledger of rows whose entry is pinned at inf
            #: (replica anti-affinity at build time, strikes afterwards);
            #: :meth:`refresh_column` re-applies it after recomputing.
            self._struck: dict[int, list[int]] = {}
            self._cwork = np.empty((q, d))  # column_scores scratch
            self._cbuf = np.empty(q)
            self.scores = self._build_matrix()
        else:
            self._rwork = np.empty((d, m))  # row_scores scratch
            self._rbuf = np.empty(m)

    def _build_matrix(self) -> np.ndarray:
        state = self.state
        q, m, d = self.q, self.m, self.d
        scores = np.empty((q, m))
        work = np.empty((q, m))
        if self.thr_uniform:
            np.multiply(self.demand[:, 0, None], self.inv_cap[0], out=scores)
            scores += self.util[0]
            for k in range(1, d):
                np.multiply(self.demand[:, k, None], self.inv_cap[k], out=work)
                work += self.util[k]
                np.maximum(scores, work, out=scores)
            over = scores > self.thr_row
            np.add(scores, _OVERFLOW_PENALTY, out=scores, where=over)
        else:
            overflow = np.zeros((q, m), dtype=bool)
            over_k = np.empty((q, m), dtype=bool)
            for k in range(d):
                np.multiply(self.demand[:, k, None], self.inv_cap[k], out=work)
                np.add(work, self.util[k], out=work)
                # fl() is monotone, so work[r, i] <= fl(util[k, i] +
                # demand_max[k]·inv_cap[k, i]) for every row r: when that
                # bound clears the threshold everywhere, nothing overflows.
                if np.any(self.util[k] + self.dmax_inv[k] > self.thr[k]):
                    np.greater(work, self.thr[k], out=over_k)
                    np.logical_or(overflow, over_k, out=overflow)
                if k == 0:
                    np.copyto(scores, work)
                else:
                    np.maximum(scores, work, out=scores)
            np.add(scores, _OVERFLOW_PENALTY, out=scores, where=overflow)
        if self.blocked_idx.size:
            scores[:, self.blocked_idx] = np.inf
        if self.group_rows:
            for row in range(q):
                hosts = state.replica_peer_machines(int(self.shards[row]))
                if hosts.size:
                    scores[row, hosts] = np.inf
                    for i in hosts.tolist():
                        self._struck.setdefault(i, []).append(row)
        return scores

    def refresh_machine(self, machine: int) -> None:
        """Sync the scaled-utilization column after an insertion (same
        elementwise expression as the build, so the sync is bitwise)."""
        self.util[:, machine] = self._loads_t[:, machine] * self.inv_cap[:, machine]

    def column_scores(self, machine: int) -> np.ndarray:
        """(q,) current scores of every removed shard on *machine* (no
        inf marks — callers overlay blocked/struck state).  Returns a
        reused scratch buffer; copy before the next kernel call."""
        util_m = self.util[:, machine]  # (d,)
        inv_m = self.inv_cap[:, machine]
        work = self._cwork  # (q, d), matches build bitwise
        np.multiply(self.demand, inv_m, out=work)
        work += util_m
        col: np.ndarray = work.max(axis=1, out=self._cbuf)
        if self.thr_uniform:
            over = col > self.thr_row[machine]
            np.add(col, _OVERFLOW_PENALTY, out=col, where=over)
        else:
            thr_m = self.thr[:, machine]
            if np.any(util_m + self.dmax_inv[:, machine] > thr_m):
                over = (work > thr_m).any(axis=1)
                np.add(col, _OVERFLOW_PENALTY, out=col, where=over)
        return col

    def refresh_column(self, machine: int) -> None:
        """Recompute the score matrix column of *machine*, re-applying
        its inf strike marks.  (Blocked columns are never refreshed:
        placements never choose a blocked machine.)"""
        col = self.column_scores(machine)
        struck = self._struck.get(machine)
        if struck is not None:
            col[struck] = np.inf
        self.scores[:, machine] = col

    def strike(self, row: int, machine: int) -> None:
        """Pin ``scores[row, machine]`` at inf for the rest of the batch
        (a replica sibling of *row* now lives on *machine*)."""
        self.scores[row, machine] = np.inf
        self._struck.setdefault(machine, []).append(row)

    def row_scores(self, row: int) -> np.ndarray:
        """(m,) current scores of removed shard *row* on every machine,
        with blocked / replica-peer machines at inf — bitwise the row the
        maintained matrix would hold.  Returns a reused scratch buffer."""
        work = self._rwork  # (d, m)
        np.multiply(self.demand[row, :, None], self.inv_cap, out=work)
        work += self.util
        out: np.ndarray = work.max(axis=0, out=self._rbuf)
        if self.thr_uniform:
            over = out > self.thr_row
        else:
            over = (work > self.thr).any(axis=0)
        np.add(out, _OVERFLOW_PENALTY, out=out, where=over)
        if self.blocked_idx.size:
            out[self.blocked_idx] = np.inf
        if self.group_rows:
            hosts = self.state.replica_peer_machines(int(self.shards[row]))
            if hosts.size:
                out[hosts] = np.inf
        return out

    def fallback_machine(self, row: int) -> int:
        """Least-loaded open machine — used when every machine is blocked
        or anti-affine (replication factor near the machine count); the
        objective's replica penalty then drives repair next round."""
        state = self.state
        peak = ((state.loads + self.demand[row]) / state.capacity).max(axis=1)
        peak[state.blocked_mask] = np.inf
        return int(np.argmin(peak))

    def best_machine(self, row: int) -> int:
        """First-index argmin over the row's current scores."""
        row_scores = self.scores[row]
        choice = int(row_scores.argmin())
        if np.isfinite(row_scores[choice]):
            return choice
        return self.fallback_machine(row)

    def insert(self, row: int, machine: int) -> int:
        """Assign row's shard to *machine* and refresh caches.  Returns
        the shard's replica group (-1 when unreplicated) so callers can
        strike siblings."""
        shard_id = int(self.shards[row])
        self.state.assign_shard(shard_id, machine)
        self.refresh_machine(machine)
        if self.group_rows:
            return self.state.shards[shard_id].replica_of
        return -1


def greedy_best_fit(
    state: ClusterState, rng: np.random.Generator, removed: Sequence[int]
) -> None:
    """Insert removed shards, largest demand first, on best-scoring machines.

    Scores one row on demand per shard — no (removed × machines) matrix.
    Placements match the matrix formulation bitwise: the utilization rows
    are synced after every insertion, and ``replica_peer_machines`` at
    read time equals the build-time inf marks plus the strikes a
    maintained matrix would have accumulated.
    """
    if not removed:
        return
    order = sorted(removed, key=lambda j: -float(state.demand[j].sum()))
    kern = _ScoreKernel(state, order, build=False)
    for row in range(kern.q):
        row_scores = kern.row_scores(row)
        choice = int(row_scores.argmin())
        if row_scores[choice] != np.inf:
            machine = choice
        else:
            machine = kern.fallback_machine(row)
        kern.insert(row, machine)


def _regret2_exact(state: ClusterState, removed: Sequence[int]) -> None:
    """Regret-2 with re-ranking after every insertion (small m).

    Regrets are recomputed each step with one partition over the active
    rows of the maintained score matrix — at small m the whole active
    submatrix is a few KB, so this costs less than any bookkeeping that
    would avoid it.
    """
    kern = _ScoreKernel(state, removed)
    scores = kern.scores
    demand_mass = kern.demand.sum(axis=1)
    active = np.arange(kern.q)
    for _ in range(kern.q):
        if kern.m == 1:
            reg = np.full(active.size, np.inf)
        else:
            part = np.partition(scores[active], 1, axis=1)
            reg = part[:, 1] - part[:, 0]
        # Tie-break regret by demand so big shards go early.
        key = reg + 1e-9 * demand_mass[active]
        row = int(active[np.argmax(key)])
        machine = kern.best_machine(row)
        group = kern.insert(row, machine)
        active = active[active != row]
        if active.size == 0:
            break
        kern.refresh_column(machine)
        if group >= 0:
            for sibling in kern.group_rows.get(group, ()):
                if sibling != row:
                    kern.strike(sibling, machine)


def _regret2_pruned(state: ClusterState, removed: Sequence[int]) -> None:
    """Regret-2 with lazy per-row top-``_TOP_T`` candidate lists (large m).

    Produces **bitwise-identical trajectories** to :func:`_regret2_exact`
    while only re-partitioning rows whose candidate lists were
    invalidated.  Soundness: every column is monotone non-decreasing
    over the batch (insertions only add load; ``inf`` marks stick), so a
    machine outside a row's list — which scored at least the list's
    rescan-time threshold ``tau`` — can never drop below ``tau``.  The
    maintained list values are kept exactly current, so whenever the
    list's second-smallest value is ``<= tau`` the global two smallest
    row values are exactly the list's two smallest, and the regret is
    exact.  Otherwise the row is re-partitioned over the full matrix
    (the same operation the exact path performs every step).

    The selection key (regret + demand tie-break) is itself maintained
    incrementally: only rows whose lists were touched by the changed
    column get their key recomputed; inserted rows drop to ``-inf``.  A
    full first-index ``argmax`` over that array selects the same row the
    exact path's argmax over the ascending active subset selects.
    """
    kern = _ScoreKernel(state, removed)
    scores = kern.scores
    tie = 1e-9 * kern.demand.sum(axis=1)
    q, m = kern.q, kern.m
    T = min(_TOP_T, m)
    # pos[r, i] = 1 + position of machine i in row r's candidate list,
    # 0 when absent — an inverted index so the per-step "which lists
    # track the changed column" query is one strided column read instead
    # of a (q, T) comparison scan.
    pos = np.zeros((q, m), dtype=np.int16)
    col_nums = np.arange(1, T + 1, dtype=np.int16)
    top_val = np.empty((q, T))
    tau = np.empty(q)

    def _scan(rows_idx: np.ndarray) -> None:
        """(Re)build the candidate lists of *rows_idx* from the matrix."""
        sub_scores = scores[rows_idx]
        if T < m:
            idx = np.argpartition(sub_scores, T - 1, axis=1)[:, :T]
        else:
            idx = np.broadcast_to(np.arange(m), sub_scores.shape).copy()
        val = np.take_along_axis(sub_scores, idx, axis=1)
        top_val[rows_idx] = val
        tau[rows_idx] = val.max(axis=1)
        pos[rows_idx] = 0
        flat = rows_idx[:, None] * m + idx
        pos.ravel()[flat.ravel()] = np.tile(col_nums, rows_idx.size)

    _scan(np.arange(q))
    pair = np.partition(top_val, 1, axis=1)
    key = pair[:, 1] - pair[:, 0] + tie
    active = np.ones(q, dtype=bool)
    remaining = q
    for _ in range(q):
        row = int(key.argmax())
        machine = kern.best_machine(row)
        group = kern.insert(row, machine)
        active[row] = False
        key[row] = -np.inf
        remaining -= 1
        if remaining == 0:
            break
        kern.refresh_column(machine)
        if group >= 0:
            for sibling in kern.group_rows.get(group, ()):
                if active[sibling]:
                    kern.strike(sibling, machine)
        # Propagate the one changed column into the lists that track it,
        # re-partition rows whose lists can no longer prove they hold
        # the two smallest values, and refresh the touched keys.
        pcol = pos[:, machine]
        hit_rows = np.flatnonzero(pcol)
        if hit_rows.size:
            hit_cols = pcol[hit_rows].astype(np.intp) - 1
            top_val[hit_rows, hit_cols] = scores[hit_rows, machine]
            sub = top_val[hit_rows]
            sub.partition(1, axis=1)
            bad = hit_rows[sub[:, 1] > tau[hit_rows]]
            if bad.size:
                _scan(bad)
                sub = top_val[hit_rows]
                sub.partition(1, axis=1)
            keep = active[hit_rows]
            upd = hit_rows[keep]
            key[upd] = sub[keep, 1] - sub[keep, 0] + tie[upd]


def regret2_insertion(
    state: ClusterState,
    rng: np.random.Generator,
    removed: Sequence[int],
) -> None:
    """Regret-2 insertion: place the shard with the largest regret first.

    Up to :data:`_EXACT_REGRET_MAX` machines the full-row re-partition
    path runs (:func:`_regret2_exact`); above it the pruned top-list path
    (:func:`_regret2_pruned`).  The two produce bitwise-identical
    trajectories, so the gate is purely a performance crossover.
    """
    if not removed:
        return
    if state.num_machines > _EXACT_REGRET_MAX:
        _regret2_pruned(state, list(removed))
    else:
        _regret2_exact(state, list(removed))


#: Default operator portfolio of SRA.
DEFAULT_REPAIR_OPS: tuple[RepairOperator, ...] = (greedy_best_fit, regret2_insertion)
