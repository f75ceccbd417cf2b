"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They use tiny inputs (20 machines), so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER_UNITS, Tracing  # noqa: E402
from spans import Recorder  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return replace(
        w,
        machines=20,
        exchange=min(w.exchange, 2),
        iterations=30,
        polish_steps=10,
        instances=2,
        duration=4.0,
        check_interval=1.0,
    )


def _current(owner: object, attr: str) -> object:
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_wrappers_removed_after_traced_run(tmp_path: Path) -> None:
    probe = Tracing(Recorder())
    probe.install()
    saved = probe.patcher.installed
    wrapped = [_current(owner, attr) for owner, attr, _ in saved]
    probe.remove()
    assert saved, "nothing was wrapped"
    assert all(w is not raw for w, (_, _, raw) in zip(wrapped, saved))

    record = workloads.measure(tiny("episode-plan"), 1, 0.01, True, tmp_path)
    assert record["failed"] == 0, record["traced_ops"]
    for owner, attr, raw in saved:
        assert _current(owner, attr) is raw, f"{owner}.{attr} still wrapped"


def test_forked_worker_runs_unwrapped() -> None:
    probe = Tracing(Recorder())
    probe.install()
    saved = probe.patcher.installed

    def check_unwrapped() -> None:
        sys.exit(0 if all(_current(o, a) is raw for o, a, raw in saved) else 1)

    try:
        child = multiprocessing.get_context("fork").Process(target=check_unwrapped)
        child.start()
        child.join()
    finally:
        probe.remove()
    assert child.exitcode == 0, "a process forked while tracing still runs the wrappers"


def test_stop_children_reaps_the_resource_tracker() -> None:
    from multiprocessing import resource_tracker
    from multiprocessing.shared_memory import SharedMemory

    shm = SharedMemory(create=True, size=16)
    shm.close()
    shm.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None, "creating a segment did not start the tracker"
    run.stop_children()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_metric_names_are_valid_and_match_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == workloads.END_TO_END_UNITS
    assert layer == PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in [*e2e, *layer, *workloads.WORKLOADS]:
        assert NAME.match(name), name


@pytest.mark.parametrize("name", ["episode-plan", "serve-drift", "restarts-pool"])
def test_self_times_and_other_sum_to_traced_wall(name: str, tmp_path: Path) -> None:
    record = workloads.measure(tiny(name), 2, 0.01, True, tmp_path)
    assert record["failed"] == 0, record["traced_ops"]
    layer = record["per_layer"]
    parts = sum(v for k, v in layer.items() if k.startswith("self.")) + layer["other_s"]
    assert layer["traced_wall_s"] > 0
    assert parts == pytest.approx(layer["traced_wall_s"], rel=0.03)
    assert layer["other_s"] >= -1e-6


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reproduces_its_digest(name: str, tmp_path: Path) -> None:
    first = workloads.measure(tiny(name), 3, 0.01, False, tmp_path)
    second = workloads.measure(tiny(name), 3, 0.01, False, tmp_path)
    assert first["failed"] == 0, first["ops"]
    assert first["digest"] == second["digest"]
    assert [i["spec_hash"] for i in first["instances"]] == [
        i["spec_hash"] for i in second["instances"]
    ]
    line = workloads.result_line(first, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(workloads.END_TO_END_UNITS)


def test_serve_sizing_check_flags_default_bandwidth(tmp_path: Path) -> None:
    fast_nics = replace(tiny("serve-drift"), bandwidth=1.25e9)
    record = workloads.measure(fast_nics, 2, 0.01, False, tmp_path)
    assert record["failed"] > 0
    assert any("of simulated time" in e for op in record["ops"] for e in op["errors"])
