"""Tests for the datacenter snapshot generator and experiment suites."""

import numpy as np
import pytest

from repro.workloads import (
    DatacenterConfig,
    datacenter_suite,
    generate_datacenter,
    scaling_suite,
    small_suite,
    synthetic_suite,
    tight_suite,
)


class TestDatacenterConfig:
    def test_defaults_valid(self):
        DatacenterConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_machines": 0},
            {"target_utilization": 0.0},
            {"drift": 1.5},
            {"machine_mix": ()},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DatacenterConfig(**kwargs)


class TestGenerateDatacenter:
    def test_shapes_and_assignment(self):
        state = generate_datacenter(DatacenterConfig(num_machines=30, shards_per_machine=6))
        assert state.num_machines == 30
        assert state.num_shards == 180
        assert state.is_fully_assigned()

    def test_determinism(self):
        cfg = DatacenterConfig(num_machines=20, shards_per_machine=5, seed=9)
        a, b = generate_datacenter(cfg), generate_datacenter(cfg)
        np.testing.assert_allclose(a.demand, b.demand)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_heterogeneous_fleet(self):
        state = generate_datacenter(DatacenterConfig(num_machines=60, seed=2))
        classes = {m.cls for m in state.machines}
        assert len(classes) >= 2  # several hardware generations present

    def test_tightness_close_to_target(self):
        cfg = DatacenterConfig(num_machines=40, target_utilization=0.8, seed=1)
        state = generate_datacenter(cfg)
        assert 0.6 <= state.mean_utilization().max() <= 0.85

    def test_drift_creates_imbalance(self):
        calm = generate_datacenter(DatacenterConfig(num_machines=40, drift=0.0, seed=3))
        drifted = generate_datacenter(DatacenterConfig(num_machines=40, drift=0.5, seed=3))
        assert (
            drifted.machine_peak_utilization().std()
            > calm.machine_peak_utilization().std()
        )

    def test_zero_drift_is_roughly_balanced(self):
        state = generate_datacenter(DatacenterConfig(num_machines=40, drift=0.0, seed=4))
        peak = state.machine_peak_utilization()
        assert peak.max() - peak.min() < 0.30

    def test_shard_sizes_are_disk_bytes(self):
        state = generate_datacenter(DatacenterConfig(num_machines=20, seed=5))
        disk_idx = state.schema.index("disk")
        np.testing.assert_allclose(state.sizes, state.demand[:, disk_idx])


    def test_small_fleet_reaches_target_past_the_shard_cap(self):
        # 72 shards at 30% of the smallest machine cannot carry 80% of
        # this fleet's capacity; the cap rises instead of raising.
        cfg = DatacenterConfig(num_machines=12, shards_per_machine=6, seed=132)
        state = generate_datacenter(cfg)
        state.validate()
        assert state.mean_utilization() == pytest.approx(0.8)

class TestSuites:
    def test_small_suite_sizes(self):
        suite = small_suite(seeds=(0,))
        assert len(suite) == 3
        assert all(state.num_machines <= 8 for _, state in suite)

    def test_synthetic_suite_covers_dists_and_utils(self):
        suite = synthetic_suite(utilizations=(0.6,), seeds=(0,), num_machines=10)
        names = [name for name, _ in suite]
        assert any("uniform" in n for n in names)
        assert any("zipf" in n for n in names)

    def test_tight_suite_is_tight(self):
        for _, state in tight_suite(seeds=(0,)):
            assert state.mean_utilization().max() > 0.8

    def test_datacenter_suite(self):
        suite = datacenter_suite(seeds=(0,))
        assert len(suite) == 2
        for name, state in suite:
            assert name.startswith("dc-")
            assert state.is_fully_assigned()

    def test_scaling_suite_grows(self):
        suite = scaling_suite(sizes=((10, 5), (20, 5)))
        assert suite[0][1].num_shards < suite[1][1].num_shards

    def test_suites_are_deterministic(self):
        a = synthetic_suite(utilizations=(0.6,), seeds=(0,), num_machines=10)
        b = synthetic_suite(utilizations=(0.6,), seeds=(0,), num_machines=10)
        for (_, sa), (_, sb) in zip(a, b, strict=True):
            np.testing.assert_array_equal(sa.assignment, sb.assignment)
