"""One workload in its own process: set up, then run timed rounds of operations.

Started by ``run.py``; prints one JSON line.  Set-up ends just before the
first timed operation and is reported as an absolute ``time.monotonic()``
reading, which the parent compares with the moment it started this process.

Each operation is an in-process call of ``qposlab.cli.main`` with the argv a
user would type, its report captured from stdout and checked after the
clock stops.  A run repeats whole rounds of the workload's operations and
starts another round only while that round is expected to end within
``--seconds``; at least one round always runs.  Peak RSS is read after the
first round, so it does not depend on how many rounds fit.

With ``--trace 1`` the first half of the time runs untraced and the second
half under ``tracing.Recorder``; the difference of the two op medians is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmarks" / "out"


def import_program():
    """Import qposlab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import qposlab

    where = Path(qposlab.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"qposlab imported from {where}, not from {ROOT / 'src'}")
    from qposlab import cli
    from qposlab.fields_io import write_field
    from qposlab.geometry import TorusModel

    return cli, write_field, TorusModel


class Runner:
    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.recorder = None  # a tracing.Recorder, active only inside cli.main
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.peak_rss_mb = None  # high-water RSS after the first round

    def run_op(self, op) -> float:
        buf = io.StringIO()
        start = time.perf_counter()
        recording = self.recorder.operation() if self.recorder else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(buf), recording:
                code = self.cli.main(op.argv)
        except Exception as exc:  # the program crashed: a failed operation, not a wrong one
            took = time.perf_counter() - start
            print(f"operation {op.argv[:3]} raised {exc!r}", file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return took
        took = time.perf_counter() - start
        self.attempted += 1
        if code not in (0, 1):
            self.failed += 1
            return took
        problems = op.check(json.loads(buf.getvalue()), code)
        if problems:
            self.failed += 1
            self.wrong.append(f"{' '.join(op.argv[:3])}: {'; '.join(problems)}")
        return took

    def run(self, seconds: float) -> tuple[list[float], int]:
        """Whole rounds for about ``seconds``; returns op wall times and rounds."""
        times, rounds = [], 0
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            times += [self.run_op(op) for op in self.ops]
            rounds += 1
            if self.peak_rss_mb is None:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            now = time.perf_counter()
            if (now - start) + (now - round_start) > seconds:
                return times, rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli, write_field, torus = import_program()
    import workloads

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, work, write_field=write_field, torus=torus)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        runner = Runner(cli, ops)
        result = {"ready": ready}
        if args.trace:
            result["layers"] = traced(runner, args)
        else:
            times, _ = runner.run(args.seconds)
            ms = [1e3 * t for t in times]
            result["op_ms_p50"] = statistics.median(ms)
            result["op_ms_p90"] = statistics.quantiles(ms, n=10, method="inclusive")[8]
        result["peak_rss_mb"] = runner.peak_rss_mb
        result.update(attempted=runner.attempted, failed=runner.failed, wrong=runner.wrong[:20])
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced(runner: Runner, args) -> dict:
    import tracing

    plain, _ = runner.run(args.seconds / 2)
    recorder = tracing.Recorder()
    recorder.install()
    runner.recorder = recorder
    traced_times, rounds = runner.run(args.seconds / 2)
    runner.recorder = None
    recorder.counters["trace.uncovered_s"] = sum(traced_times) - recorder.top_level_s
    recorder.counters["trace.overhead_ms"] = 1e3 * (statistics.median(traced_times) - statistics.median(plain))
    recorder.uninstall()
    layers = recorder.metrics(rounds)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "traced_rounds": rounds,
        "layers": layers,
        "stats": recorder.stats,
        "spans": recorder.spans,
    }))
    return layers


if __name__ == "__main__":
    sys.exit(main())
