"""Direct tests for settle_fleet (fleet projection after an episode)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import ClusterState, ExchangeLedger, Machine, Shard, settle_fleet
from repro.workloads import make_exchange_machines


def base():
    machines = Machine.homogeneous(3, 10.0)
    shards = Shard.uniform(6, 1.0)
    return ClusterState(machines, shards, [j % 3 for j in range(6)])


class TestSettleFleet:
    def test_untouched_loaners_go_back(self):
        state = base()
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 2))
        slim, settlement, returned = settle_fleet(grown, ledger)
        assert settlement.returned_ids == (3, 4)
        assert len(returned) == 2
        assert slim.num_machines == 3
        np.testing.assert_array_equal(slim.assignment, state.assignment)
        slim.validate()

    def test_exchange_projects_assignment_correctly(self):
        state = base()
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 1))
        # Empty machine 2 onto the borrowed machine 3 -> machine 2 returned.
        for j in list(grown.machine_shards(2)):
            grown.move(int(j), 3)
        slim, settlement, returned = settle_fleet(grown, ledger)
        assert settlement.returned_ids == (2,)
        assert settlement.retained_borrowed_ids == (3,)
        assert slim.num_machines == 3
        # Machine 3 (borrowed) became machine 2 after re-indexing.
        assert {int(j) for j in slim.machine_shards(2)} == {2, 5}
        np.testing.assert_allclose(
            slim.loads.sum(axis=0), grown.loads.sum(axis=0)
        )
        slim.validate()

    def test_returned_machines_carry_capacity(self):
        state = base()
        grown, ledger = ExchangeLedger.borrow(
            state, make_exchange_machines(state, 1, capacity_scale=2.0)
        )
        _, settlement, returned = settle_fleet(grown, ledger)
        np.testing.assert_allclose(
            returned[0].capacity, 2.0 * state.capacity.mean(axis=0)
        )

    def test_zero_borrow_roundtrip(self):
        state = base()
        grown, ledger = ExchangeLedger.borrow(state, [])
        slim, settlement, returned = settle_fleet(grown, ledger)
        assert returned == []
        assert slim.num_machines == 3

    def test_unsatisfiable_contract_raises(self):
        state = base()
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 1))
        grown.move(0, 3)  # no vacant machine anywhere
        with pytest.raises(Exception, match="vacant"):
            settle_fleet(grown, ledger)


def degraded():
    """Five machines: 1 offline, 3 blocked (both vacant, 3 the smallest),
    shards on 0, 2, 4."""
    machines = Machine.homogeneous(5, 10.0)
    machines[3] = replace(machines[3], capacity=machines[3].capacity / 2)
    shards = Shard.uniform(6, 1.0)
    state = ClusterState(machines, shards, [0, 2, 4, 0, 2, 4])
    state.set_offline(1)
    state.block_machine(3)
    return state


def constructed(machines, state, assignment):
    """The same fleet rebuilt from descriptions, as the constructor does."""
    return ClusterState(
        [m.with_id(i) for i, m in enumerate(machines)], list(state.shards), assignment
    )


def assert_same_caches(got, want):
    for name in ("assignment", "loads", "capacity", "exchange_mask"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.machine_peak_utilization().tobytes() == want.machine_peak_utilization().tobytes()
    assert got.shard_counts().tobytes() == want.shard_counts().tobytes()
    assert got.machines == want.machines


class TestFleetMasks:
    """Borrowing and settling carry the offline and blocked masks, and the
    rebuilt caches are bitwise what the constructor would compute."""

    def test_borrow_keeps_masks(self):
        state = degraded()
        loaners = make_exchange_machines(state, 2)
        grown, _ = ExchangeLedger.borrow(state, loaners)
        assert grown.offline_mask.tolist() == [False, True, False, False, False, False, False]
        assert grown.blocked_mask.tolist() == [False, True, False, True, False, False, False]
        assert grown.num_vacant_in_service == 3
        grown.validate()
        assert_same_caches(
            grown, constructed(list(state.machines) + loaners, state, state.assignment)
        )

    def test_settle_keeps_masks(self):
        state = degraded()
        grown, ledger = ExchangeLedger.borrow(state, make_exchange_machines(state, 2))
        # Drain machine 4 onto the loaner 5: machine 4 is returned with
        # loaner 6, and the offline/blocked machines keep their flags.
        for j in grown.machine_shards(4).tolist():
            grown.move(j, 5)
        slim, settlement, returned = settle_fleet(grown, ledger)
        assert settlement.returned_ids == (6, 4)
        assert slim.offline_mask.tolist() == [False, True, False, False, False]
        assert slim.blocked_mask.tolist() == [False, True, False, True, False]
        slim.validate()
        keep = [0, 1, 2, 3, 5]
        assert_same_caches(
            slim,
            constructed(
                [grown.machines[i] for i in keep], state, [0, 2, 4, 0, 2, 4]
            ),
        )
        assert [m.id for m in returned] == [6, 4]

    def test_machines_hosting_shards_cannot_be_removed(self):
        with pytest.raises(ValueError, match="host shards"):
            degraded().without_machines([0])
