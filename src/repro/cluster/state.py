"""Mutable cluster placement state.

:class:`ClusterState` is the data structure every algorithm in the library
manipulates.  It couples an immutable description of the fleet (machine
capacities, shard demands) with the one piece of mutable state — the
assignment array ``assign[j] = machine index`` — and keeps the per-machine
load matrix incrementally up to date so that a single shard move costs
O(d) rather than O(n·d).

Hot-path contract (relied on by the LNS inner loop; see the "Delta
evaluation contract" section of docs/ARCHITECTURE.md):

* ``move``/``unassign``/``assign_shard`` update ``loads`` in O(d);
* incrementally maintained caches: per-machine shard counts
  (:meth:`shard_counts`, O(1) per move), the vacant in-service machine
  count (:attr:`num_vacant_in_service`), the unassigned-shard count
  (:meth:`is_fully_assigned` is O(1)), per-machine peak utilization
  (:meth:`machine_peak_utilization`, lazily refreshed for dirty rows
  only), a segmented block-max over those peaks (so
  :meth:`peak_utilization` rescans only blocks containing touched
  machines), and the replica anti-affinity conflict count
  (:attr:`replica_conflict_count`);
* ``capacity``, ``demand``, ``loads`` are dense ``float64`` arrays safe to
  read (but not write) directly; :meth:`loads_by_dim` /
  :meth:`capacity_by_dim` / :meth:`inv_capacity_by_dim` expose the same
  data as C-contiguous ``(d, m)`` structure-of-arrays mirrors, the layout
  the vectorized score kernels consume (see docs/ARCHITECTURE.md, "SoA
  memory layout");
* ``copy()`` is a cheap structural copy (arrays copied, descriptions
  shared);
* ``begin()``/``commit()``/``rollback()`` bracket a transaction:
  ``begin()`` snapshots the mutable arrays, replica host counters
  touched inside the transaction are journaled, and ``rollback()``
  restores the state — including every cache above — **bitwise** to its
  ``begin()`` image;
* ``with_extra_machines``/``without_machines`` grow and shrink the fleet
  from the parent's arrays (offline and blocked masks included), the way
  an exchange episode borrows and settles.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.resources import CAPACITY_ATOL, ResourceSchema, safe_ratio
from repro.cluster.shard import Shard

__all__ = ["ClusterState", "UNASSIGNED"]

#: Sentinel value in the assignment array for a shard not currently placed
#: (only ever observed transiently, inside destroy/repair cycles).
UNASSIGNED: int = -1

#: Machines per segment of the peak-utilization block-max.  Float ``max``
#: is exact and associative, so the global peak recomputed from block
#: maxima is bitwise-identical to a full scan — but after a transaction
#: touching k machines only ``O(k + m/B)`` elements are rescanned.
_PEAK_BLOCK = 1024


#: The mutable arrays :meth:`ClusterState.copy` duplicates.  All but
#: ``_offline`` (which no transaction may change) are also snapshotted by
#: ``begin()``.
_MUTABLE_ARRAYS = (
    "_assign", "_loads", "_loads_t", "_counts", "_peak", "_peak_dirty",
    "_peak_block", "_block_dirty", "_blocked", "_offline",
)
_TXN_ARRAYS = _MUTABLE_ARRAYS[:-1]


class _Frame:
    """One open transaction: each live mutable array with a bitwise copy.

    Rollback is a few ``np.copyto`` calls, O(n + m·d) with memcpy
    constants.  Replica host counters live in nested dicts whose full copy
    would be O(groups), so each (group, machine) pair *first touched*
    inside the frame records its value at ``begin()`` instead.  Old values
    are restored, never recomputed by inverse arithmetic (``(x + b) - b``
    is not always ``x`` in floating point).
    """

    __slots__ = (
        "arrays", "peak_any_dirty", "block_any_dirty", "replica_hosts",
        "num_unassigned", "num_vacant", "conflicts",
    )

    def __init__(self, state: "ClusterState") -> None:
        attrs = state.__dict__
        self.arrays = [(attrs[name], attrs[name].copy()) for name in _TXN_ARRAYS]
        self.peak_any_dirty = state._peak_any_dirty
        self.block_any_dirty = state._block_any_dirty
        self.replica_hosts: dict[tuple[int, int], int] = {}
        self.num_unassigned = state._num_unassigned
        self.num_vacant = state._num_vacant
        self.conflicts = state._replica_conflicts


class ClusterState:
    """Machines + shards + a (partial) assignment, with O(d) move updates.

    Parameters
    ----------
    machines:
        Machine descriptions with dense ids ``0..m-1``.
    shards:
        Shard descriptions with dense ids ``0..n-1``.
    assignment:
        Initial assignment: ``assignment[j]`` is the machine id hosting
        shard ``j`` (or :data:`UNASSIGNED`).  Defaults to all unassigned.

    Notes
    -----
    The constructor does **not** require the assignment to respect
    capacities — overloaded clusters are a legitimate input (that is what
    the rebalancer is for).  Use :meth:`is_within_capacity` to test.
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        shards: Sequence[Shard],
        assignment: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        if not machines:
            raise ValueError("ClusterState requires at least one machine")
        if not shards:
            raise ValueError("ClusterState requires at least one shard")
        schema = machines[0].schema
        for mach in machines:
            if mach.schema != schema:
                raise ValueError("all machines must share one resource schema")
        for sh in shards:
            if sh.schema != schema:
                raise ValueError("all shards must share the machines' resource schema")
        self._adopt(
            machines,
            shards,
            np.stack([mach.capacity for mach in machines]),  # (m, d)
            np.stack([sh.demand for sh in shards]),  # (n, d)
            np.array([sh.size_bytes for sh in shards], dtype=np.float64),
            assignment,
        )

    def _adopt(
        self,
        machines: Sequence[Machine],
        shards: Sequence[Shard],
        capacity: np.ndarray,
        demand: np.ndarray,
        sizes: np.ndarray,
        assignment: Sequence[int] | np.ndarray | None,
        blocked: np.ndarray | None = None,
        offline: np.ndarray | None = None,
    ) -> None:
        """The constructor's and :meth:`attach`'s shared tail: adopt the
        description matrices as given, copy the mutable state, build every
        cache.  Offline machines are forced blocked (see :meth:`set_offline`)."""
        if [mach.id for mach in machines] != list(range(len(machines))):
            raise ValueError("machine ids must be dense 0..m-1 in order")
        if [sh.id for sh in shards] != list(range(len(shards))):
            raise ValueError("shard ids must be dense 0..n-1 in order")
        m, n = len(machines), len(shards)
        self._schema = machines[0].schema
        self._machines: tuple[Machine, ...] = tuple(machines)
        self._shards: tuple[Shard, ...] = tuple(shards)
        self._capacity = capacity
        self._demand = demand
        self._sizes = sizes
        self._exchange_mask = np.array([mach.exchange for mach in machines], dtype=bool)
        self._norm_demand: np.ndarray | None = None  # lazy, shared by copies
        # Lazy (d, m) SoA mirrors of the immutable capacity matrix, shared
        # by copies like _norm_demand.
        self._cap_t: np.ndarray | None = None
        self._inv_cap_t: np.ndarray | None = None

        if assignment is None:
            self._assign = np.full(n, UNASSIGNED, dtype=np.int64)
        else:
            arr = np.asarray(assignment, dtype=np.int64)
            if arr.shape != (n,):
                raise ValueError(f"assignment must have shape ({n},), got {arr.shape}")
            bad = (arr != UNASSIGNED) & ((arr < 0) | (arr >= m))
            if np.any(bad):
                raise ValueError(f"assignment references unknown machines at shards {np.flatnonzero(bad)}")
            self._assign = arr.copy()
        self._offline = np.zeros(m, dtype=bool) if offline is None else np.array(offline, dtype=bool)
        self._blocked = np.zeros(m, dtype=bool) if blocked is None else np.array(blocked, dtype=bool)
        self._blocked |= self._offline
        # Replica groups: logical shard id -> member shard ids (only for
        # shards declaring replica_of >= 0).  Anti-affinity (no two
        # members on one machine) is enforced by the algorithms, checked
        # via replica_conflicts().
        self._replica_of = np.array([sh.replica_of for sh in shards], dtype=np.int64)
        groups: dict[int, list[int]] = {}
        for sh in shards:
            if sh.replica_of >= 0:
                groups.setdefault(sh.replica_of, []).append(sh.id)
        self._replica_groups = {
            g: np.asarray(members, dtype=np.int64) for g, members in groups.items()
        }
        self._frame: _Frame | None = None
        self._rebuild_caches()

    # -------------------------------------------------------------- caches
    def _rebuild_caches(self) -> None:
        """Recompute every incrementally-maintained cache from scratch."""
        m = len(self._machines)
        self._loads = np.zeros_like(self._capacity)
        placed = self._assign != UNASSIGNED
        if np.any(placed):
            np.add.at(self._loads, self._assign[placed], self._demand[placed])
        self._counts = np.bincount(
            self._assign[placed], minlength=m
        ).astype(np.int64, copy=False)
        self._num_unassigned = int(np.sum(~placed))
        self._num_vacant = int(np.sum((self._counts == 0) & ~self._offline))
        # (d, m) C-contiguous SoA mirror of the load matrix, maintained in
        # lock-step with self._loads by every mutator (see loads_by_dim).
        self._loads_t = np.ascontiguousarray(self._loads.T)
        self._peak = (self._loads / self._capacity).max(axis=1)
        self._peak_dirty = np.zeros(m, dtype=bool)
        self._peak_any_dirty = False
        # Segmented block-max over the per-machine peaks: peak_utilization()
        # rescans only blocks whose members were touched.  Float max is
        # exact, so the blocked recomputation is bitwise-identical to a
        # full scan.
        self._peak_block = np.maximum.reduceat(
            self._peak, np.arange(0, m, _PEAK_BLOCK)
        )
        self._block_dirty = np.zeros(self._peak_block.size, dtype=bool)
        self._block_any_dirty = False
        # Replica host counters: group -> {machine -> member count}, and
        # the number of (machine, group) pairs hosting > 1 member.
        self._replica_hosts: dict[int, dict[int, int]] = {}
        self._replica_conflicts = 0
        for g, members in self._replica_groups.items():
            hosts: dict[int, int] = {}
            for j in members:
                mach = int(self._assign[j])
                if mach != UNASSIGNED:
                    cnt = hosts.get(mach, 0) + 1
                    hosts[mach] = cnt
                    if cnt == 2:
                        self._replica_conflicts += 1
            self._replica_hosts[g] = hosts

    def _refreshed_peaks(self) -> np.ndarray:
        """The live per-machine peak-utilization cache, refreshed lazily.

        Peak rows are marked dirty by mutations and recomputed here in
        one vectorized pass — bitwise identical to a from-scratch
        ``(loads / capacity).max(axis=1)`` because machine capacities are
        validated strictly positive.  Do not mutate the returned array.
        """
        if self._peak_any_dirty:
            idx = np.flatnonzero(self._peak_dirty)
            self._peak[idx] = (self._loads[idx] / self._capacity[idx]).max(axis=1)
            self._peak_dirty[idx] = False
            self._peak_any_dirty = False
        return self._peak

    # ---------------------------------------------------------------- sizes
    @property
    def schema(self) -> ResourceSchema:
        """Resource schema shared by all machines and shards."""
        return self._schema

    @property
    def num_machines(self) -> int:
        return len(self._machines)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def dims(self) -> int:
        return self._schema.dims

    @property
    def machines(self) -> tuple[Machine, ...]:
        return self._machines

    @property
    def shards(self) -> tuple[Shard, ...]:
        return self._shards

    # --------------------------------------------------------------- arrays
    @property
    def capacity(self) -> np.ndarray:
        """(m, d) capacity matrix.  Read-only by convention."""
        return self._capacity

    @property
    def demand(self) -> np.ndarray:
        """(n, d) demand matrix.  Read-only by convention."""
        return self._demand

    @property
    def sizes(self) -> np.ndarray:
        """(n,) migration byte sizes.  Read-only by convention."""
        return self._sizes

    @property
    def loads(self) -> np.ndarray:
        """(m, d) current load matrix, maintained incrementally."""
        return self._loads

    @property
    def exchange_mask(self) -> np.ndarray:
        """(m,) bool mask of machines borrowed from the exchange pool."""
        return self._exchange_mask

    @property
    def assignment(self) -> np.ndarray:
        """Copy of the (n,) assignment array."""
        return self._assign.copy()

    def assignment_view(self) -> np.ndarray:
        """The live assignment array — do not mutate."""
        return self._assign

    def normalized_demand(self) -> np.ndarray:
        """(n, d) demand scaled to [0, 1] per dimension (cached; demand is
        immutable so the matrix is computed once and shared by copies)."""
        if self._norm_demand is None:
            self._norm_demand = self._demand / np.maximum(
                self._demand.max(axis=0, keepdims=True), 1e-12
            )
        return self._norm_demand

    def loads_by_dim(self) -> np.ndarray:
        """The live (d, m) C-contiguous load mirror — do not mutate.

        Row ``k`` is the per-machine load in dimension ``k``, bitwise
        equal to ``loads[:, k]`` at all times (maintained in lock-step by
        every mutator and restored by :meth:`rollback`).  This is the
        structure-of-arrays layout the vectorized score kernels stream
        over: one contiguous row per resource dimension.
        """
        return self._loads_t

    def capacity_by_dim(self) -> np.ndarray:
        """(d, m) C-contiguous capacity mirror (lazy; shared by copies).
        Do not mutate."""
        if self._cap_t is None:
            self._cap_t = np.ascontiguousarray(self._capacity.T)
        return self._cap_t

    def inv_capacity_by_dim(self) -> np.ndarray:
        """(d, m) elementwise ``1.0 / capacity`` mirror (lazy; shared by
        copies).  Do not mutate.  Capacities are validated strictly
        positive, so every entry is finite."""
        if self._inv_cap_t is None:
            self._inv_cap_t = 1.0 / self.capacity_by_dim()
        return self._inv_cap_t

    # --------------------------------------------------------- transactions
    def begin(self) -> None:
        """Open a transaction; every mutation until :meth:`commit` /
        :meth:`rollback` is undoable.

        The mutable arrays are copied up front (O(n + m·d) memcpy).
        Transactions do not nest, and :meth:`apply_assignment`,
        :meth:`set_offline`, and :meth:`copy` are forbidden while one is
        open.
        """
        if self._frame is not None:
            raise RuntimeError("transaction already open (nested begin())")
        self._frame = _Frame(self)

    @property
    def in_transaction(self) -> bool:
        """True while a :meth:`begin` frame is open."""
        return self._frame is not None

    def commit(self) -> None:
        """Keep every mutation since :meth:`begin`; drop the snapshot."""
        if self._frame is None:
            raise RuntimeError("commit() without begin()")
        self._frame = None

    def rollback(self) -> None:
        """Restore the state bitwise to its :meth:`begin` image."""
        fr = self._frame
        if fr is None:
            raise RuntimeError("rollback() without begin()")
        self._frame = None  # mutations below must not be re-journaled
        for live, saved in fr.arrays:
            np.copyto(live, saved)
        self._peak_any_dirty = fr.peak_any_dirty
        self._block_any_dirty = fr.block_any_dirty
        for (g, mach), cnt in fr.replica_hosts.items():
            hosts = self._replica_hosts[g]
            if cnt == 0:
                hosts.pop(mach, None)
            else:
                hosts[mach] = cnt
        self._num_unassigned = fr.num_unassigned
        self._num_vacant = fr.num_vacant
        self._replica_conflicts = fr.conflicts

    # ------------------------------------------------------------ mutation
    def machine_of(self, shard_id: int) -> int:
        """Machine currently hosting *shard_id* (or :data:`UNASSIGNED`)."""
        return int(self._assign[shard_id])

    def _host_leave(self, shard_id: int, machine_id: int) -> None:
        """Replica bookkeeping for a member leaving *machine_id*."""
        group = int(self._replica_of[shard_id])
        if group < 0:
            return
        hosts = self._replica_hosts[group]
        fr = self._frame
        if fr is not None:
            key = (group, machine_id)
            if key not in fr.replica_hosts:
                fr.replica_hosts[key] = hosts.get(machine_id, 0)
        cnt = hosts[machine_id] - 1
        if cnt:
            hosts[machine_id] = cnt
            if cnt == 1:
                self._replica_conflicts -= 1
        else:
            del hosts[machine_id]

    def _host_enter(self, shard_id: int, machine_id: int) -> None:
        """Replica bookkeeping for a member landing on *machine_id*."""
        group = int(self._replica_of[shard_id])
        if group < 0:
            return
        hosts = self._replica_hosts[group]
        fr = self._frame
        if fr is not None:
            key = (group, machine_id)
            if key not in fr.replica_hosts:
                fr.replica_hosts[key] = hosts.get(machine_id, 0)
        cnt = hosts.get(machine_id, 0) + 1
        hosts[machine_id] = cnt
        if cnt == 2:
            self._replica_conflicts += 1

    def unassign(self, shard_id: int) -> int:
        """Remove a shard from its machine; return the former machine id."""
        src = int(self._assign[shard_id])
        if src == UNASSIGNED:
            return UNASSIGNED
        self._loads[src] -= self._demand[shard_id]
        self._loads_t[:, src] = self._loads[src]
        self._assign[shard_id] = UNASSIGNED
        self._num_unassigned += 1
        cnt = int(self._counts[src]) - 1
        self._counts[src] = cnt
        if cnt == 0 and not self._offline[src]:
            self._num_vacant += 1
        if not self._peak_dirty[src]:
            self._peak_dirty[src] = True
            self._peak_any_dirty = True
            self._block_dirty[src // _PEAK_BLOCK] = True
            self._block_any_dirty = True
        if self._replica_groups:
            self._host_leave(shard_id, src)
        return src

    def unassign_many(self, shard_ids: Sequence[int] | np.ndarray) -> None:
        """Remove many shards at once (vectorized load/count updates).

        Equivalent to calling :meth:`unassign` in sequence — including
        bitwise-identical load arithmetic, since ``np.subtract.at``
        applies the per-shard subtractions in the order given — but with
        one NumPy dispatch instead of one per shard.
        """
        ids = np.asarray(shard_ids, dtype=np.int64)
        if ids.size == 0:
            return
        srcs = self._assign[ids]
        placed = srcs != UNASSIGNED
        if not np.all(placed):
            ids = ids[placed]
            srcs = srcs[placed]
            if ids.size == 0:
                return
        if ids.size > 1:
            s = np.sort(ids)
            if bool(np.any(s[1:] == s[:-1])):
                raise ValueError("unassign_many: duplicate shard ids")
        np.subtract.at(self._loads, srcs, self._demand[ids])
        self._assign[ids] = UNASSIGNED
        self._num_unassigned += int(ids.size)
        touched, per = np.unique(srcs, return_counts=True)
        self._loads_t[:, touched] = self._loads[touched].T
        self._counts[touched] -= per
        self._num_vacant += int(
            np.sum((self._counts[touched] == 0) & ~self._offline[touched])
        )
        self._peak_dirty[touched] = True
        self._peak_any_dirty = True
        self._block_dirty[touched // _PEAK_BLOCK] = True
        self._block_any_dirty = True
        if self._replica_groups:
            for j, s in zip(ids.tolist(), srcs.tolist(), strict=True):
                self._host_leave(int(j), int(s))

    def assign_shard(self, shard_id: int, machine_id: int) -> None:
        """Place an unassigned shard on *machine_id* (O(d)).

        Raises when the machine is blocked (see :meth:`block_machine`).
        """
        if self._assign[shard_id] != UNASSIGNED:
            raise ValueError(
                f"shard {shard_id} is already on machine {self._assign[shard_id]}; "
                "use move() or unassign() first"
            )
        if not 0 <= machine_id < self.num_machines:
            raise ValueError(f"unknown machine {machine_id}")
        if self._blocked[machine_id]:
            raise ValueError(f"machine {machine_id} is blocked for placement")
        self._assign[shard_id] = machine_id
        self._loads[machine_id] += self._demand[shard_id]
        self._loads_t[:, machine_id] = self._loads[machine_id]
        self._num_unassigned -= 1
        cnt = int(self._counts[machine_id]) + 1
        self._counts[machine_id] = cnt
        if cnt == 1 and not self._offline[machine_id]:
            self._num_vacant -= 1
        if not self._peak_dirty[machine_id]:
            self._peak_dirty[machine_id] = True
            self._peak_any_dirty = True
            self._block_dirty[machine_id // _PEAK_BLOCK] = True
            self._block_any_dirty = True
        if self._replica_groups:
            self._host_enter(shard_id, machine_id)

    def move(self, shard_id: int, dst: int) -> int:
        """Move a shard to machine *dst*; return its former machine (O(d))."""
        src = self.unassign(shard_id)
        self.assign_shard(shard_id, dst)
        return src

    def apply_assignment(self, assignment: np.ndarray) -> None:
        """Replace the whole assignment (recomputes loads once, O(n·d))."""
        if self._frame is not None:
            raise RuntimeError("apply_assignment() inside an open transaction")
        arr = np.asarray(assignment, dtype=np.int64)
        if arr.shape != (self.num_shards,):
            raise ValueError(f"assignment must have shape ({self.num_shards},), got {arr.shape}")
        bad = (arr != UNASSIGNED) & ((arr < 0) | (arr >= self.num_machines))
        if np.any(bad):
            raise ValueError("assignment references unknown machines")
        self._assign = arr.copy()
        self._rebuild_caches()

    # -------------------------------------------------------------- queries
    def utilization(self) -> np.ndarray:
        """(m, d) load / capacity."""
        return safe_ratio(self._loads, self._capacity)

    def machine_peak_utilization(self) -> np.ndarray:
        """(m,) worst-dimension utilization per machine (cached)."""
        return self._refreshed_peaks().copy()

    def machine_peak_utilization_view(self) -> np.ndarray:
        """The live per-machine peak-utilization cache — do not mutate."""
        return self._refreshed_peaks()

    def peak_utilization(self) -> float:
        """Cluster-wide peak utilization (the primary imbalance measure).

        Computed from the segmented block-max: only blocks containing
        machines touched since the last call are rescanned, then the
        (short) block vector is reduced.  Bitwise-identical to
        ``machine_peak_utilization().max()`` because float ``max`` is
        exact and associative.
        """
        peaks = self._refreshed_peaks()
        if self._block_any_dirty:
            for b in np.flatnonzero(self._block_dirty).tolist():
                self._peak_block[b] = peaks[b * _PEAK_BLOCK : (b + 1) * _PEAK_BLOCK].max()
            self._block_dirty[:] = False
            self._block_any_dirty = False
        return float(self._peak_block.max())

    def headroom(self) -> np.ndarray:
        """(m, d) remaining capacity (may be negative when overloaded)."""
        return self._capacity - self._loads

    def assignment_drift(self, reference: np.ndarray) -> tuple[int, float]:
        """Size of the placement delta against *reference*.

        Returns ``(moves, bytes)``: the number of shards whose current
        machine differs from *reference* (unassigned counts as moved)
        and their summed index sizes — the quantities a
        :class:`~repro.algorithms.budget.MigrationBudget` bounds.  Note
        the byte figure is the raw index volume; a staged migration plan
        may transfer more (staging hops).
        """
        ref = np.asarray(reference, dtype=np.int64)
        if ref.shape != (self.num_shards,):
            raise ValueError(
                f"reference must have shape ({self.num_shards},), got {ref.shape}"
            )
        moved = self._assign != ref
        return int(np.count_nonzero(moved)), float(self.sizes[moved].sum())

    def machine_shards(self, machine_id: int) -> np.ndarray:
        """Shard ids currently hosted by *machine_id* (ascending)."""
        return np.flatnonzero(self._assign == machine_id)

    def shard_counts(self) -> np.ndarray:
        """(m,) number of shards per machine (cached, O(m))."""
        return self._counts.copy()

    def shard_counts_view(self) -> np.ndarray:
        """The live per-machine shard-count cache — do not mutate."""
        return self._counts

    def vacant_machines(self) -> np.ndarray:
        """Ids of machines hosting no shard."""
        return np.flatnonzero(self._counts == 0)

    @property
    def num_vacant_in_service(self) -> int:
        """Number of machines hosting no shard and not offline (cached)."""
        return self._num_vacant

    def unassigned_shards(self) -> np.ndarray:
        """Ids of shards with no machine (transient during destroy/repair)."""
        return np.flatnonzero(self._assign == UNASSIGNED)

    def is_fully_assigned(self) -> bool:
        """True when every shard has a machine (cached, O(1))."""
        return self._num_unassigned == 0

    def is_within_capacity(self, *, atol: float = CAPACITY_ATOL) -> bool:
        """True when no machine exceeds capacity in any dimension."""
        return bool(np.all(self._loads <= self._capacity + atol))

    def overloaded_machines(self, *, atol: float = CAPACITY_ATOL) -> np.ndarray:
        """Ids of machines exceeding capacity in some dimension."""
        return np.flatnonzero(np.any(self._loads > self._capacity + atol, axis=1))

    def fits(self, shard_id: int, machine_id: int, *, atol: float = CAPACITY_ATOL) -> bool:
        """Would *shard_id* fit on *machine_id* right now (ignoring its
        current placement if it is already there)?"""
        extra = self._demand[shard_id]
        load = self._loads[machine_id]
        if self._assign[shard_id] == machine_id:
            return bool(np.all(load <= self._capacity[machine_id] + atol))
        return bool(np.all(load + extra <= self._capacity[machine_id] + atol))

    def total_demand(self) -> np.ndarray:
        """(d,) summed demand across all shards."""
        return self._demand.sum(axis=0)

    def total_capacity(self) -> np.ndarray:
        """(d,) summed capacity across all machines."""
        return self._capacity.sum(axis=0)

    def mean_utilization(self) -> np.ndarray:
        """(d,) total demand / total capacity — the tightness of the instance."""
        return safe_ratio(self.total_demand(), self.total_capacity())

    # ------------------------------------------------------------- replicas
    @property
    def replica_groups(self) -> dict[int, np.ndarray]:
        """Logical shard id → member shard ids (replicated shards only)."""
        return self._replica_groups

    def replica_peers(self, shard_id: int) -> np.ndarray:
        """Sibling shard ids of *shard_id* (empty for unreplicated shards)."""
        group = int(self._replica_of[shard_id])
        if group < 0:
            return np.empty(0, dtype=np.int64)
        members = self._replica_groups[group]
        return members[members != shard_id]

    def replica_peer_machines(self, shard_id: int) -> np.ndarray:
        """Machines currently hosting siblings of *shard_id*."""
        peers = self.replica_peers(shard_id)
        if peers.size == 0:
            return peers
        hosts = self._assign[peers]
        return np.unique(hosts[hosts != UNASSIGNED])

    def replica_conflicts(self) -> list[tuple[int, int]]:
        """(machine, logical shard) pairs hosting more than one replica."""
        out: list[tuple[int, int]] = []
        for group, hosts in self._replica_hosts.items():
            out.extend(
                (mach, group) for mach, cnt in sorted(hosts.items()) if cnt > 1
            )
        return out

    @property
    def replica_conflict_count(self) -> int:
        """Number of (machine, logical shard) anti-affinity violations
        (cached; equals ``len(replica_conflicts())``)."""
        return self._replica_conflicts

    def has_replica_conflicts(self) -> bool:
        """True when any machine hosts two replicas of one logical shard."""
        return self._replica_conflicts > 0

    # ------------------------------------------------------------- blocking
    @property
    def blocked_mask(self) -> np.ndarray:
        """(m,) bool mask of machines blocked for placement.

        Blocking is how SRA pins its *designated-return* machines: a
        blocked machine accepts no new shard, so it stays vacant by
        construction and can be handed back when the episode settles.
        """
        return self._blocked

    def block_machine(self, machine_id: int) -> None:
        """Forbid placements on *machine_id* (it must currently be vacant)."""
        if not 0 <= machine_id < self.num_machines:
            raise ValueError(f"unknown machine {machine_id}")
        if self._counts[machine_id] > 0:
            raise ValueError(f"cannot block machine {machine_id}: it hosts shards")
        self._blocked[machine_id] = True

    def unblock_machine(self, machine_id: int) -> None:
        """Allow placements on *machine_id* again (not possible for
        offline machines — a dead machine stays dead)."""
        if not 0 <= machine_id < self.num_machines:
            raise ValueError(f"unknown machine {machine_id}")
        if self._offline[machine_id]:
            raise ValueError(f"machine {machine_id} is offline and cannot be unblocked")
        self._blocked[machine_id] = False

    @property
    def offline_mask(self) -> np.ndarray:
        """(m,) bool mask of machines that have failed / left the fleet.

        Offline implies blocked-for-placement, but unlike a blocked
        designated-return machine an offline machine can never be
        unblocked, used as a staging host, swapped by the exchange
        operator, or returned as exchange compensation.
        """
        return self._offline

    def set_offline(self, machine_id: int) -> None:
        """Mark a (vacant) machine as permanently out of service."""
        if self._frame is not None:
            raise RuntimeError("set_offline() inside an open transaction")
        if not 0 <= machine_id < self.num_machines:
            raise ValueError(f"unknown machine {machine_id}")
        if self._counts[machine_id] > 0:
            raise ValueError(
                f"cannot take machine {machine_id} offline: it hosts shards "
                "(unassign them first)"
            )
        if not self._offline[machine_id]:
            # The machine is vacant by the check above, so it leaves the
            # vacant-in-service pool.
            self._num_vacant -= 1
        self._offline[machine_id] = True
        self._blocked[machine_id] = True

    # ---------------------------------------------------------------- copy
    def copy(self) -> "ClusterState":
        """Structural copy: shares machine/shard descriptions, copies state."""
        if self._frame is not None:
            raise RuntimeError("copy() inside an open transaction")
        # Descriptions, immutable matrices and lazy mirrors are shared.
        attrs = self.__dict__.copy()
        for name in _MUTABLE_ARRAYS:
            attrs[name] = attrs[name].copy()
        attrs["_replica_hosts"] = {
            g: hosts.copy() for g, hosts in self._replica_hosts.items()
        }
        dup = object.__new__(ClusterState)
        dup.__dict__.update(attrs)
        return dup

    # ------------------------------------------------------ shared buffers
    @classmethod
    def attach(
        cls,
        machines: Sequence[Machine],
        shards: Sequence[Shard],
        *,
        capacity: np.ndarray,
        demand: np.ndarray,
        sizes: np.ndarray,
        assignment: Sequence[int] | np.ndarray,
        blocked: np.ndarray | None = None,
        offline: np.ndarray | None = None,
    ) -> "ClusterState":
        """Build a state over externally owned description buffers.

        Unlike the constructor — which ``np.stack``s per-object vectors
        into fresh matrices — this adopts *capacity* (m, d), *demand*
        (n, d) and *sizes* (n,) **as given**, without copying.  That is
        the zero-copy path used by :mod:`repro.parallel.shm`: the
        matrices are views into a ``multiprocessing.shared_memory``
        segment, attached once per worker, and the *machines* / *shards*
        descriptions are expected to reference rows of the same buffers.

        Mutable state (*assignment*, *blocked*, *offline*) is copied, so
        the returned state searches privately; only the immutable
        instance description is shared.  The caller keeps the backing
        buffers alive for the lifetime of the state (or calls
        :meth:`detach` to sever the dependency).  Offline machines are
        forced blocked, matching :meth:`set_offline`.
        """
        if not machines:
            raise ValueError("ClusterState requires at least one machine")
        if not shards:
            raise ValueError("ClusterState requires at least one shard")
        m, n, d = len(machines), len(shards), machines[0].schema.dims
        if capacity.shape != (m, d):
            raise ValueError(f"capacity must have shape ({m}, {d}), got {capacity.shape}")
        if demand.shape != (n, d):
            raise ValueError(f"demand must have shape ({n}, {d}), got {demand.shape}")
        if sizes.shape != (n,):
            raise ValueError(f"sizes must have shape ({n},), got {sizes.shape}")
        state = object.__new__(cls)
        state._adopt(machines, shards, capacity, demand, sizes, assignment, blocked, offline)
        return state

    def detach(self) -> None:
        """Re-home shared description buffers into private copies.

        After :meth:`attach` the capacity/demand/sizes matrices (and the
        machine/shard vectors referencing their rows) may live in a
        shared-memory segment the caller is about to unlink.  ``detach``
        copies them into process-private arrays and rebuilds the
        machine/shard descriptions over the copies, so the state remains
        valid after the segment is unmapped.  Lazy derived mirrors are
        dropped (they are recomputed on demand from the private copies).
        No-op cost beyond the copies; safe to call on any state.
        """
        if self._frame is not None:
            raise RuntimeError("detach() inside an open transaction")
        self._capacity = self._capacity.copy()
        self._demand = self._demand.copy()
        self._sizes = self._sizes.copy()
        self._norm_demand = None
        self._cap_t = None
        self._inv_cap_t = None
        self._machines = tuple(
            replace(mach, capacity=self._capacity[i])
            for i, mach in enumerate(self._machines)
        )
        self._shards = tuple(
            replace(sh, demand=self._demand[j], size_bytes=float(self._sizes[j]))
            for j, sh in enumerate(self._shards)
        )

    def with_extra_machines(self, extra: Iterable[Machine]) -> "ClusterState":
        """New state with *extra* machines appended (ids continue the dense
        sequence; the new machines are in service).  This is how borrowed
        exchange machines join a cluster."""
        return self._refleet(np.arange(self.num_machines), list(extra))

    def without_machines(self, machine_ids: Sequence[int]) -> "ClusterState":
        """New state with the vacant machines *machine_ids* removed (the
        rest re-indexed densely in order).  This is how returned machines
        leave a cluster when an exchange episode settles."""
        drop = np.zeros(self.num_machines, dtype=bool)
        drop[np.asarray(machine_ids, dtype=np.int64)] = True
        if np.any(self._counts[drop]):
            raise ValueError("cannot remove machines that host shards")
        return self._refleet(np.flatnonzero(~drop), [])

    def _refleet(self, keep: np.ndarray, extra: list[Machine]) -> "ClusterState":
        """This state's shards on machines *keep* followed by *extra*.

        Built from the parent's arrays: shard descriptions, matrices and
        replica tables are shared (they are immutable), the assignment is
        remapped, the offline and blocked masks follow their machines,
        and the caches are rebuilt exactly as the constructor builds them.
        """
        if self._frame is not None:
            raise RuntimeError("fleet change inside an open transaction")
        if not extra and keep.size == self.num_machines:
            return self.copy()
        if any(mach.schema != self._schema for mach in extra):
            raise ValueError("all machines must share one resource schema")
        # The extra last slot maps UNASSIGNED (-1) to itself.
        new_id = np.full(self.num_machines + 1, UNASSIGNED, dtype=np.int64)
        new_id[keep] = np.arange(keep.size)
        machines = [self._machines[i] for i in keep.tolist()] + extra
        fresh = np.zeros(len(extra), dtype=bool)
        dup = object.__new__(ClusterState)
        dup.__dict__.update(self.__dict__)
        dup._machines = tuple(
            mach if mach.id == i else mach.with_id(i) for i, mach in enumerate(machines)
        )
        dup._capacity = np.concatenate(
            [self._capacity[keep], np.array([mach.capacity for mach in extra]).reshape(-1, self.dims)]
        )
        dup._exchange_mask = np.array([mach.exchange for mach in machines], dtype=bool)
        dup._cap_t = dup._inv_cap_t = None
        dup._assign = new_id[self._assign]
        dup._blocked = np.concatenate([self._blocked[keep], fresh])
        dup._offline = np.concatenate([self._offline[keep], fresh])
        dup._rebuild_caches()
        return dup

    def validate(self) -> None:
        """Audit every internal invariant; raise ``ValueError`` on breach.

        Used by tests (and available to users debugging custom state
        manipulations).  Checks: loads and every incremental cache match
        the assignment exactly, blocked machines host nothing, offline
        implies blocked, and the replica-group tables agree with the
        shard descriptions.
        """
        recomputed = np.zeros_like(self._loads)
        placed = self._assign != UNASSIGNED
        if np.any(placed):
            np.add.at(recomputed, self._assign[placed], self._demand[placed])
        if not np.allclose(self._loads, recomputed, atol=1e-6):
            raise ValueError("loads diverged from the assignment")
        counts = np.bincount(self._assign[placed], minlength=self.num_machines)
        if not np.array_equal(self._counts, counts):
            raise ValueError("shard-count cache diverged from the assignment")
        if self._num_unassigned != int(np.sum(~placed)):
            raise ValueError("unassigned-count cache diverged from the assignment")
        if self._num_vacant != int(np.sum((counts == 0) & ~self._offline)):
            raise ValueError("vacant-count cache diverged from the assignment")
        if not np.array_equal(self._loads_t, self._loads.T):
            raise ValueError("SoA load mirror diverged from the load matrix")
        peaks = (self._loads / self._capacity).max(axis=1)
        live = ~self._peak_dirty
        if not np.allclose(self._peak[live], peaks[live], atol=1e-9):
            raise ValueError("peak-utilization cache diverged from the loads")
        dirty_blocks = np.zeros(self._block_dirty.size, dtype=bool)
        dirty_blocks[np.flatnonzero(self._peak_dirty) // _PEAK_BLOCK] = True
        if np.any(dirty_blocks & ~self._block_dirty):
            raise ValueError("dirty peak row inside a clean block")
        for b in np.flatnonzero(~self._block_dirty).tolist():
            seg = self._peak[b * _PEAK_BLOCK : (b + 1) * _PEAK_BLOCK]
            if self._peak_block[b] != seg.max():
                raise ValueError(f"block-max cache diverged in block {b}")
        bad = np.flatnonzero(self._blocked & (counts > 0))
        if bad.size:
            raise ValueError(f"blocked machines host shards: {bad.tolist()}")
        if np.any(self._offline & ~self._blocked):
            raise ValueError("offline machines must be blocked")
        conflicts = 0
        for group, members in self._replica_groups.items():
            for j in members:
                if self._shards[int(j)].replica_of != group:
                    raise ValueError(f"replica table inconsistent at shard {j}")
            hosts = self._assign[members]
            hosts = hosts[hosts != UNASSIGNED]
            uniq, cnt = np.unique(hosts, return_counts=True)
            expected = {int(mach): int(c) for mach, c in zip(uniq, cnt, strict=True)}
            if expected != self._replica_hosts.get(group, {}):
                raise ValueError(f"replica host cache diverged for group {group}")
            conflicts += int(np.sum(cnt > 1))
        if conflicts != self._replica_conflicts:
            raise ValueError("replica conflict counter diverged")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterState(m={self.num_machines}, n={self.num_shards}, "
            f"d={self.dims}, peak={self.peak_utilization():.3f})"
        )
