#!/usr/bin/env python
"""Microbenchmarks for ClusterState mutation + transaction primitives.

Times the operations the delta-evaluated ALNS loop leans on: single
mutations inside/outside a transaction, begin/rollback of the array
snapshot, vectorized bulk unassignment, and the lazy peak-cache
refresh.  Run directly; prints one line per primitive.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np  # noqa: E402

from repro.workloads import scaling_suite  # noqa: E402


def bench(label: str, func, n: int = 2000) -> None:
    func()  # warm-up
    t0 = time.perf_counter()
    for _ in range(n):
        func()
    per = (time.perf_counter() - t0) / n
    print(f"{label:46s} {per * 1e6:9.2f} us")


def main() -> None:
    for m, spm in ((50, 6), (400, 6)):
        ((name, state),) = list(scaling_suite(sizes=((m, spm),)))
        print(f"--- {name} ---")
        rng = np.random.default_rng(0)
        shard = int(rng.integers(state.num_shards))
        machines = [i for i in range(state.num_machines)][:2]

        def move_roundtrip():
            state.move(shard, machines[0])
            state.move(shard, machines[1])

        bench("move x2 (no transaction)", move_roundtrip)

        def txn_noop():
            state.begin()
            state.rollback()

        bench("begin+rollback", txn_noop)

        def txn_moves():
            state.begin()
            state.move(shard, machines[0])
            state.move(shard, machines[1])
            state.rollback()

        bench("begin+2 moves+rollback", txn_moves)

        batch = rng.choice(
            np.flatnonzero(state.assignment_view() >= 0),
            size=min(100, state.num_shards),
            replace=False,
        )

        def bulk_unassign():
            state.begin()
            state.unassign_many([int(j) for j in batch])
            state.rollback()

        bench("begin+unassign_many(100)+rollback", bulk_unassign, n=500)

        def peak_refresh():
            state.begin()
            state.move(shard, machines[0])
            state.machine_peak_utilization_view()
            state.rollback()

        bench("move+peak-cache refresh (in txn)", peak_refresh)

        bench("copy() whole state", state.copy, n=500)
        print()


if __name__ == "__main__":
    main()
