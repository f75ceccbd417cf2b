"""Bitwise-parity properties of the SoA score kernel (hypothesis).

Two contracts pin the vectorized repair kernel (see the "Delta
evaluation contract" in docs/ARCHITECTURE.md):

* The delta-evaluated engine — SoA score kernel, snapshot transactions,
  incremental objective with ``cross_check`` asserting every term
  against a from-scratch recompute — walks the exact trajectory of the
  copy-based reference engine.
* The pruned regret-2 path produces bitwise-identical placements to the
  exact full-repartition path on arbitrary instances, so the size gate
  (``repair._EXACT_REGRET_MAX``) is a pure performance crossover.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import AlnsConfig, AlnsEngine, Objective
from repro.algorithms.objective import IncrementalObjective
from repro.algorithms.destroy import DEFAULT_DESTROY_OPS
from repro.algorithms.repair import (
    DEFAULT_REPAIR_OPS,
    _regret2_exact,
    _regret2_pruned,
)
from repro.workloads import SyntheticConfig, generate


@given(seed=st.integers(min_value=0, max_value=500), m=st.integers(min_value=8, max_value=50))
@settings(max_examples=12, deadline=None)
def test_property_delta_engine_bitwise_equals_copy_engine(seed, m):
    """SoA-kernel trajectories are bitwise those of the copy-based engine.

    The delta run uses ``cross_check=True``, so every objective
    evaluation along the trajectory is additionally asserted term-by-term
    against a full recompute — the strongest form of the contract.
    """
    state = generate(SyntheticConfig(num_machines=m, shards_per_machine=4, seed=seed))
    outs = []
    for delta in (True, False):
        cfg = AlnsConfig(iterations=60, seed=seed, delta_evaluation=delta)
        engine = AlnsEngine(cfg, DEFAULT_DESTROY_OPS, DEFAULT_REPAIR_OPS)
        base = Objective(state.assignment, state.sizes)
        objective = IncrementalObjective(base, cross_check=True) if delta else base
        outs.append(engine.run(state.copy(), objective))
    d, c = outs
    assert repr(d.best_objective) == repr(c.best_objective)
    assert d.accepted == c.accepted
    assert d.history == c.history
    np.testing.assert_array_equal(d.best_assignment, c.best_assignment)


@given(
    seed=st.integers(min_value=0, max_value=1000),
    m=st.integers(min_value=10, max_value=60),
    q=st.integers(min_value=2, max_value=30),
)
@settings(max_examples=25, deadline=None)
def test_property_pruned_regret_bitwise_equals_exact(seed, m, q):
    """Pruned top-list regret-2 == exact full-repartition regret-2."""
    state = generate(SyntheticConfig(num_machines=m, shards_per_machine=4, seed=seed))
    rng = np.random.default_rng(seed)
    assigned = np.flatnonzero(state.assignment_view() >= 0)
    take = min(q, assigned.size)
    removed = rng.choice(assigned, size=take, replace=False).tolist()
    exact_state, pruned_state = state.copy(), state.copy()
    exact_state.unassign_many(removed)
    pruned_state.unassign_many(removed)
    _regret2_exact(exact_state, removed)
    _regret2_pruned(pruned_state, removed)
    np.testing.assert_array_equal(exact_state.assignment, pruned_state.assignment)
    # Both end states satisfy every cache invariant (SoA mirror,
    # segmented block-max, peaks, counts, replica hosts).
    exact_state.validate()
    pruned_state.validate()
