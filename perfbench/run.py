"""End-to-end benchmark of rebalancing episodes and serving runs.

Usage, from the repository root::

    python3 perfbench/run.py --workload episode-plan --seed 1 --seconds 20 --trace 0

``--trace 0`` times operations with the library untouched and prints the
end-to-end metrics; ``--trace 1`` additionally re-runs each operation
with the layer wrappers installed and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run's provenance.  The full record (every operation, spans,
quartiles) is written to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


def git_commit(root: Path) -> str:
    """HEAD's commit id read from ``.git``, or ``unknown`` outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(record: dict[str, Any]) -> dict[str, Any]:
    import numpy

    return {
        "workload": record["workload"],
        "seed": record["seed"],
        "trace": record["trace"],
        "spec_hashes": [i["spec_hash"] for i in record["instances"]],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "digest": record["digest"],
        "speed_factor": record["speed_factor"],
        "stats": record["stats"],
    }


def stop_children() -> None:
    """Stop and reap every process this run started.

    Pool workers are joined by the library; what can outlive them is the
    ``multiprocessing`` resource tracker that shared-memory segments
    start.  Left alone it exits only after this process does, as an
    unreaped child, so it is stopped and waited for here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def parse_args(argv: Sequence[str] | None, names: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    try:
        record = workloads.measure(
            workload, args.seed, args.seconds, bool(args.trace), OUT_DIR / "scratch"
        )
    finally:
        stop_children()
    prov = provenance(record)
    record["provenance"] = prov
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(prov, default=str))
    print(json.dumps(workloads.result_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
