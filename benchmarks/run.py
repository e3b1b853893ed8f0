"""Benchmark qposlab through its CLI: one workload per process, every output checked.

    python3 benchmarks/run.py --workload certify-n2-g32 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

The last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Untraced (``--trace 0``) the metrics are the
end-to-end ones:

- ``setup_s``: from starting the workload process to its first timed
  operation (interpreter, imports, input generation, field files and
  configs); the median of ``SETUP_SAMPLES`` processes: the measuring one and
  processes that stop after set-up, half started before it and half after,
  so that the samples span the run and not one second of the machine's
  drifting speed;
- ``op_ms_p50``, ``op_ms_p90``: median and 90th percentile of one
  operation's wall time (one CLI subcommand, argv to report);
- ``peak_rss_mb``: high-water RSS of the measuring process after its
  first round of operations.

Traced (``--trace 1``) they are the ``per_layer`` figures of ``BENCHMARK.json``,
per round of operations, and the spans are written to ``benchmarks/out``.
With ``--workload all`` the four workloads run one after another and the
last line carries every metric as ``<workload>/<metric>``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify-n2-g32", "glue-n2-g32", "ag-surface-lattices", "degeneracy-n3")
SETUP_SAMPLES = 11
UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB"}
DEADLINE_S = 170.0


class WorkloadFailed(RuntimeError):
    pass


def _child(args: argparse.Namespace, workload: str, deadline: float, setup_only: bool) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise WorkloadFailed(f"{workload}: no result within the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadFailed(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def _setup_samples(args: argparse.Namespace, workload: str, deadline: float, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        out, started = _child(args, workload, deadline, setup_only=True)
        samples.append(out["ready"] - started)
    return samples


def run_workload(args: argparse.Namespace, workload: str, deadline: float) -> dict:
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setup = _setup_samples(args, workload, deadline, extra // 2)
    out, started = _child(args, workload, deadline, setup_only=False)
    setup.append(out["ready"] - started)
    setup += _setup_samples(args, workload, deadline, extra - extra // 2)
    for problem in out["wrong"]:
        print(f"{workload}: wrong output: {problem}", file=sys.stderr)
    if args.trace:
        metrics = out["layers"]
    else:
        values = {"setup_s": statistics.median(setup), "op_ms_p50": out["op_ms_p50"],
                  "op_ms_p90": out["op_ms_p90"], "peak_rss_mb": out["peak_rss_mb"]}
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    return {"correct": not out["wrong"], "attempted": out["attempted"], "failed": out["failed"],
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(args, name, deadline)
            if len(names) > 1:
                print(name, json.dumps(results[name]), flush=True)
    except WorkloadFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
