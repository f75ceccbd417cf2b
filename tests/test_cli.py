"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import _InputError, _load_snapshot, main
from repro.cluster import load_json


@pytest.fixture()
def snapshot(tmp_path):
    path = tmp_path / "snap.json"
    code = main(
        [
            "generate",
            "--kind", "synthetic",
            "--machines", "8",
            "--shards-per-machine", "4",
            "--utilization", "0.7",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_synthetic_snapshot_written(self, snapshot):
        state = load_json(snapshot)
        assert state.num_machines == 8
        assert state.num_shards == 32

    def test_datacenter_kind(self, tmp_path, capsys):
        out = tmp_path / "dc.json"
        assert main(
            ["generate", "--kind", "datacenter", "--machines", "20", "--out", str(out)]
        ) == 0
        assert "datacenter snapshot" in capsys.readouterr().out
        assert load_json(out).num_machines == 20

    def test_replicated_kind(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(
            [
                "generate", "--kind", "replicated", "--machines", "8",
                "--replication", "2", "--out", str(out),
            ]
        ) == 0
        state = load_json(out)
        assert len(state.replica_groups) > 0
        assert not state.has_replica_conflicts()

    def test_snapshot_is_valid_json(self, snapshot):
        data = json.loads(snapshot.read_text())
        assert data["version"] == 1


class TestInfo:
    def test_prints_metrics(self, snapshot, capsys):
        assert main(["info", str(snapshot)]) == 0
        out = capsys.readouterr().out
        for needle in ("machines", "peak utilization", "tightness", "vacant"):
            assert needle in out


class TestRebalance:
    def test_sra_rebalance(self, snapshot, capsys):
        code = main(
            [
                "rebalance", str(snapshot),
                "--algorithm", "sra",
                "--iterations", "150",
                "--exchange", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "peak before" in out and "peak after" in out

    def test_baseline_algorithms(self, snapshot, capsys):
        for algo in ("greedy", "local-search", "noop"):
            assert main(["rebalance", str(snapshot), "--algorithm", algo]) == 0

    def test_output_snapshot_written(self, snapshot, tmp_path):
        out = tmp_path / "after.json"
        code = main(
            [
                "rebalance", str(snapshot),
                "--algorithm", "greedy",
                "--out", str(out),
            ]
        )
        assert code == 0
        after = load_json(out)
        before = load_json(snapshot)
        assert after.num_shards == before.num_shards
        assert after.peak_utilization() <= before.peak_utilization() + 1e-9

    def test_exchange_grows_saved_fleet(self, snapshot, tmp_path):
        out = tmp_path / "after.json"
        main(
            [
                "rebalance", str(snapshot),
                "--algorithm", "sra", "--iterations", "100",
                "--exchange", "2", "--out", str(out),
            ]
        )
        assert load_json(out).num_machines == 10  # 8 + 2 borrowed


class TestObservabilityFlags:
    def test_run_is_an_alias_of_rebalance(self, snapshot, capsys):
        assert main(["run", str(snapshot), "--iterations", "100"]) == 0
        assert "peak before" in capsys.readouterr().out

    def test_trace_and_metrics_artifacts(self, snapshot, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "run", str(snapshot),
                "--iterations", "100",
                "--trace", str(trace),
                "--metrics", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote trace" in out and "wrote metrics" in out

        records = [json.loads(line) for line in trace.read_text().splitlines()]
        span_names = {r["name"] for r in records if r.get("kind") == "span"}
        # Every episode phase appears in the trace.
        assert {
            "episode", "search", "alns.run", "sra.search",
            "migration.plan", "evaluate",
        } <= span_names
        assert any(r.get("kind") == "event" for r in records)

        doc = json.loads(metrics.read_text())
        assert doc["counters"]["episode.runs"] == 1.0
        assert doc["gauges"]["episode.peak_after"] is not None
        assert doc["histograms"]["episode.machine_utilization"]["count"] > 0

    def test_no_flags_means_no_artifacts(self, snapshot, capsys):
        from repro import obs

        assert main(["run", str(snapshot), "--iterations", "100"]) == 0
        assert obs.current() is obs.NULL_OBS
        assert "wrote trace" not in capsys.readouterr().out

    def test_experiment_trace(self, tmp_path, capsys):
        trace = tmp_path / "e1.jsonl"
        assert main(["experiment", "e1", "--trace", str(trace)]) == 0
        assert trace.exists()
        assert "wrote trace" in capsys.readouterr().out


class TestParallelFlags:
    def test_run_with_restarts_and_workers(self, snapshot, capsys):
        code = main(
            [
                "run", str(snapshot),
                "--iterations", "100",
                "--restarts", "2",
                "--workers", "2",
            ]
        )
        assert code == 0
        assert "peak after" in capsys.readouterr().out

    def test_restarts_match_any_worker_count(self, snapshot, capsys):
        outputs = []
        for workers in ("1", "2"):
            assert main(
                [
                    "run", str(snapshot),
                    "--iterations", "100",
                    "--restarts", "2",
                    "--workers", workers,
                ]
            ) == 0
            table = capsys.readouterr().out
            # Strip the wall-clock line; everything else must be identical.
            outputs.append(
                "\n".join(ln for ln in table.splitlines() if "runtime" not in ln)
            )
        assert outputs[0] == outputs[1]


class TestExperiment:
    def test_known_experiment_runs(self, capsys):
        assert main(["experiment", "e1"]) == 0
        out = capsys.readouterr().out
        assert "experiment e1" in out
        assert "instance" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["experiment", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_experiment_lists_registry_in_numeric_order(self, capsys):
        assert main(["experiment", "e99"]) == 2
        err = capsys.readouterr().err
        # e2 must come before e10 — numeric registry order, not lexicographic.
        assert err.index("'e2'") < err.index("'e10'")

    def test_missing_id_without_all_errors(self, capsys):
        assert main(["experiment"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_workers_and_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        code = main(
            ["experiment", "e1", "--workers", "2", "--out-dir", str(out_dir)]
        )
        assert code == 0
        assert "wrote 1 tables" in capsys.readouterr().out
        assert (out_dir / "e1.txt").exists()
        assert (out_dir / "e1.json").exists()
        index = json.loads((out_dir / "index.json").read_text())
        assert index["e1"]["ok"]


class TestRuntime:
    def test_serving_only_run(self, snapshot, capsys):
        code = main(
            [
                "runtime", str(snapshot),
                "--duration", "5", "--arrival-rate", "20", "--seed", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "queries" in out and "latency p99" in out and "peak busy" in out

    def test_diurnal_trace(self, snapshot, capsys):
        code = main(
            [
                "runtime", str(snapshot),
                "--duration", "5", "--arrival-rate", "20",
                "--arrival-trace", "diurnal", "--peak-ratio", "4.0", "--seed", "2",
            ]
        )
        assert code == 0
        assert "queries" in capsys.readouterr().out

    def test_mid_run_rebalance_with_trace(self, snapshot, tmp_path, capsys):
        trace = tmp_path / "rt.jsonl"
        code = main(
            [
                "runtime", str(snapshot),
                "--duration", "8", "--arrival-rate", "20", "--seed", "2",
                "--rebalance-at", "2", "--iterations", "80",
                "--bandwidth", "2e5",
                "--trace", str(trace),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rebalance at t=2.00" in out
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {r["name"] for r in records}
        assert "runtime.run" in names
        assert "runtime.wave.start" in names
        assert "runtime.migration.complete" in names

    def test_measured_profile_shard_mismatch_errors(self, snapshot, tmp_path, capsys):
        from repro.simulate import WorkProfile
        import numpy as np

        bad = tmp_path / "profile.json"
        WorkProfile(np.ones((3, 2))).save_json(bad)
        code = main(["runtime", str(snapshot), "--profile", str(bad)])
        assert code == 2
        assert "profile covers" in capsys.readouterr().err


class TestScenarios:
    def test_list_shows_all_families_with_schemas(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "zipf-popularity",
            "correlated-demand",
            "capacity-headroom",
            "heterogeneous-generations",
            "multi-tenant",
            "failure-storm",
            "replicated-shards",
        ):
            assert name in out
        assert "num_machines" in out  # parameter schemas are printed

    def test_show_prints_parameter_ranges(self, capsys):
        assert main(["scenarios", "show", "failure-storm"]) == 0
        out = capsys.readouterr().out
        assert "waves" in out
        assert "loss_fraction" in out
        assert "seed" not in out.split()[0]  # header is the scenario name

    def test_show_unknown_scenario_errors(self, capsys):
        assert main(["scenarios", "show", "quantum-noise"]) == 2
        err = capsys.readouterr().err
        assert "quantum-noise" in err
        assert "zipf-popularity" in err  # alternatives listed

    def test_generate_writes_snapshot(self, tmp_path, capsys):
        out = tmp_path / "scn.json"
        code = main(
            [
                "scenarios", "generate", "zipf-popularity",
                "--param", "num_machines=6",
                "--param", "shards_per_machine=3",
                "--seed", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "hash" in stdout
        state = load_json(out)
        state.validate()
        assert state.num_machines == 6
        assert state.num_shards == 18

    def test_generate_preserves_offline_machines(self, tmp_path):
        out = tmp_path / "storm.json"
        code = main(
            [
                "scenarios", "generate", "failure-storm",
                "--param", "num_machines=8",
                "--param", "shards_per_machine=3",
                "--param", "waves=1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert int(load_json(out).offline_mask.sum()) >= 1

    def test_generate_unknown_param_errors(self, tmp_path, capsys):
        code = main(
            [
                "scenarios", "generate", "zipf-popularity",
                "--param", "warp_factor=9",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "warp_factor" in err
        assert "num_machines" in err  # declared parameters listed

    def test_generate_out_of_range_param_errors(self, tmp_path, capsys):
        code = main(
            [
                "scenarios", "generate", "zipf-popularity",
                "--param", "target_utilization=7.5",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "target_utilization" in capsys.readouterr().err

    def test_generate_malformed_param_errors(self, tmp_path, capsys):
        code = main(
            [
                "scenarios", "generate", "zipf-popularity",
                "--param", "num_machines",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "K=V" in capsys.readouterr().err

    def test_matrix_smoke_runs_and_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "mat"
        code = main(
            [
                "scenarios", "matrix", "--smoke",
                "--algorithms", "greedy,noop",
                "--iterations", "10",
                "--out-dir", str(out_dir),
                "--verify-determinism",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "determinism verified" in out
        index = json.loads((out_dir / "index.json").read_text())
        assert len(index) == 8  # 4 smoke specs x 2 algorithms
        assert all(meta["ok"] for meta in index.values())

    def test_matrix_explicit_scenarios_with_params(self, capsys):
        code = main(
            [
                "scenarios", "matrix",
                "--scenario", "zipf-popularity",
                "--param", "zipf-popularity.num_machines=6",
                "--param", "zipf-popularity.shards_per_machine=3",
                "--algorithms", "noop",
                "--iterations", "5",
            ]
        )
        assert code == 0
        assert "matrix cell zipf-popularity-" in capsys.readouterr().out

    def test_matrix_unknown_algorithm_errors(self, capsys):
        code = main(
            [
                "scenarios", "matrix", "--smoke",
                "--algorithms", "greedy,annealing",
            ]
        )
        assert code == 2
        assert "annealing" in capsys.readouterr().err

    def test_matrix_without_smoke_or_scenario_errors(self, capsys):
        assert main(["scenarios", "matrix"]) == 2
        assert "--smoke" in capsys.readouterr().err

    def test_matrix_param_for_excluded_scenario_errors(self, capsys):
        code = main(
            [
                "scenarios", "matrix",
                "--scenario", "zipf-popularity",
                "--param", "failure-storm.waves=1",
                "--algorithms", "noop",
            ]
        )
        assert code == 2
        assert "failure-storm" in capsys.readouterr().err


def _corrupt_assignment(data):
    data["assignment"][0] = 999


def _corrupt_demand(data):
    data["shards"][1]["demand"][0] = float("nan")


class TestMalformedSnapshot:
    """Each malformed-input class ends in one ``error:`` line and exit 2,
    never a traceback."""

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_corrupt_assignment, "assignment references unknown machines"),
            (_corrupt_demand, "demand must be finite"),
        ],
        ids=["unknown-machine", "nan-demand"],
    )
    def test_run_reports_one_line_and_exits_2(self, snapshot, tmp_path, corrupt, message):
        data = json.loads(snapshot.read_text())
        corrupt(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(bad), "--iterations", "5"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert message in lines[0]

    def test_info_and_runtime_share_the_check(self, snapshot, tmp_path, capsys):
        data = json.loads(snapshot.read_text())
        _corrupt_demand(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for argv in (["info", str(bad)], ["runtime", str(bad)]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: snapshot ")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "absent.json")]) == 2
        assert "No such file" in capsys.readouterr().err

    @pytest.mark.parametrize("machine_id", [1e308, 2**70, 1.7, True, "1"])
    def test_non_int64_machine_id_rejected(self, snapshot, tmp_path, capsys, machine_id):
        data = json.loads(snapshot.read_text())
        data["assignment"][0] = machine_id
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["info", str(bad)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: snapshot ")
        assert "assignment machine id" in err[0]


#: JSON values a hand-edited or truncated snapshot might hold.
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([0, 1, -1, 2**63 - 1, 2**63, -(2**63) - 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 1.7, 0.0, -0.0]),
    st.text(max_size=3),
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


@st.composite
def _mutations(draw):
    """Edits ``(field, where, index, value)`` to a valid snapshot dict:
    replace the whole field, one item of it, or one key of one entry
    (``drop`` deletes a key instead)."""
    edits = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        field = draw(st.sampled_from(["assignment", "machines", "shards", "offline", "blocked"]))
        where = draw(
            st.sampled_from(
                {
                    "assignment": ["whole", "item"],
                    "machines": ["whole", "item", "id", "capacity", "cls", "exchange", "drop"],
                    "shards": ["whole", "item", "id", "demand", "size_bytes", "replica_of", "drop"],
                    "offline": ["whole", "item"],
                    "blocked": ["whole", "item"],
                }[field]
            )
        )
        edits.append((field, where, draw(st.integers(0, 40)), draw(_JSON)))
    return edits


def _apply(data, edits):
    for field, where, index, value in edits:
        current = data.get(field, [])
        if where == "whole" or not isinstance(current, list):
            data[field] = value
        elif where == "item":
            if current and index < len(current):
                current[index] = value
            else:
                current.append(value)
            data[field] = current
        elif current and isinstance(current[index % len(current)], dict):
            entry = current[index % len(current)]
            if where == "drop":
                if entry:
                    del entry[sorted(entry)[index % len(entry)]]
            else:
                entry[where] = value


class TestLoadJsonFuzz:
    """Mutated snapshots either load into a state that validates, or fail
    with an error the CLI reports as one line -- never a traceback."""

    @given(edits=_mutations())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow,
              HealthCheck.function_scoped_fixture])
    def test_load_json_fuzz(self, tmp_path, edits):
        data = {
            "version": 1,
            "schema": ["cpu", "ram"],
            "machines": [
                {"id": i, "capacity": [4.0, 8.0], "cls": "std", "exchange": False}
                for i in range(3)
            ],
            "shards": [
                {"id": j, "demand": [1.0, 1.0], "size_bytes": 10.0, "replica_of": -1}
                for j in range(4)
            ],
            "assignment": [0, 1, 2, 0],
            "offline": [],
            "blocked": [],
        }
        _apply(data, edits)
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(data))
        try:
            state = _load_snapshot(str(path))
        except _InputError:
            return
        state.validate()


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            main(["generate"])
