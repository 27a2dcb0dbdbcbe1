"""The repository benchmark: one seeded workload per invocation.

Usage::

    python3 perfbench/run.py --workload fig6-flow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout.  The workload builds its inputs from
``--seed``, measures for about ``--seconds`` seconds, checks every
output, prints a readable report, and prints as its last line one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.  A wrong
output prints ``"correct": false`` and exits with status 1.
``--workload all`` runs every workload, each in its own process.
See ``perfbench/BENCHMARK.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"
WORKLOADS = ("fig6-flow", "explore-mjpeg", "batch-scenarios")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up of the workload and exit (used for setup_s)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def own_command(args, workload: str, setup_only: bool = False):
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    return command + (["--setup-only"] if setup_only else [])


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def setup_only(args, started: float, clock, work: Path) -> float:
    """One set-up in reference seconds (see :func:`setup_timed`)."""
    import workloads

    workload = workloads.load(args.workload)(args.seed, work, args.seconds, trace=False)
    try:
        return setup_timed(workload, started, clock)
    finally:
        workload.close()


def setup_timed(workload, started: float, clock) -> float:
    """:meth:`setup` of ``workload`` in reference seconds, timed from the
    end of interpreter start-up, imports included; stops ``clock``, the
    host sampler running since then."""
    workload.setup()
    end = time.perf_counter()
    clock.stop()
    return clock.reference(started, end)


def timed_setup(args) -> float:
    """One set-up in a fresh interpreter."""
    done = subprocess.run(
        own_command(args, args.workload, setup_only=True),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return last_json(done.stdout)["setup_s"]


def untraced(args, started: float, clock, work: Path):
    import workloads

    workload = workloads.load(args.workload)(args.seed, work, args.seconds, trace=False)
    try:
        setups = [setup_timed(workload, started, clock)]
        setups += [timed_setup(args) for _ in range(SETUP_REPEATS - 1)]
        run = workload.measure(args.seconds)
        workload.check(run)
    finally:
        workload.close()
    metrics = run.e2e
    metrics.set("setup_s", statistics.median(setups), "s")
    if run.peak_rss_mb is None:
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics.set("peak_rss_mb", run.peak_rss_mb, "MB")
    return run, metrics


def traced(args, work: Path):
    """Measure half the time untraced, then half traced; the per-layer
    metrics come from the traced half, the cost ratio is the overhead."""
    import workloads
    from spans import Tracer, install, layer_targets

    factory = workloads.load(args.workload)
    half = args.seconds / 2
    base = factory(args.seed, work / "base", args.seconds, trace=True)
    try:
        base.setup()
        base_run = base.measure(half)
        base.check(base_run)
    finally:
        base.close()

    tracer = Tracer()
    workload = factory(args.seed, work / "traced", args.seconds, trace=True, traced=True)
    try:
        installed = install(tracer, layer_targets())
        try:
            workload.setup()
            run = workload.measure(half)
        finally:
            installed.restore()
        workload.check(run)
    finally:
        workload.close()
    spans_dir = WORK_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")

    if run.digest != base_run.digest:
        run.errors.append("traced run produced other guarantees than the untraced run")
    run.errors += base_run.errors
    run.failures += base_run.failures
    run.attempted += base_run.attempted
    run.failed += base_run.failed
    metrics = workload.layers(tracer, run)
    metrics.set("trace.overhead_frac", run.cost / base_run.cost - 1.0, "ratio")
    return run, metrics


def declared_values(metrics, declared) -> dict:
    """The declared metrics, in declared order, units checked."""
    out = {}
    for entry in declared:
        name = entry["name"]
        if name not in metrics.names():
            raise KeyError(f"workload did not measure {name}")
        if metrics.unit(name) != entry["unit"]:
            raise ValueError(
                f"{name} measured in {metrics.unit(name)}, declared in {entry['unit']}"
            )
        out[name] = {"value": metrics.get(name), "unit": entry["unit"]}
    return out


def report(args, run, metrics, kind: str) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, {mode}")
    print(f"{kind.replace('_', '-')} metrics:")
    print("\n".join(metrics.lines()))
    print("workload metrics:")
    run.report.set("failed_frac", run.failed / run.attempted, "ratio")
    print("\n".join(run.report.lines()))
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    for failure in run.failures:
        print(f"failed operation: {failure}")
    print(f"guarantee digest: {run.digest}")
    for error in run.errors:
        print(f"WRONG OUTPUT: {error}")
        print(f"WRONG OUTPUT: {error}", file=sys.stderr)


def run_one(args, started: float, clock, declared: dict) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_only(args, started, clock, work)}))
            return 0
        if args.trace:
            clock.stop()
            run, metrics = traced(args, work)
        else:
            run, metrics = untraced(args, started, clock, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    kind = "per_layer" if args.trace else "end_to_end"
    values = declared_values(metrics, declared[kind])
    report(args, run, metrics, kind)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": values,
    }))
    return 1 if run.errors else 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            own_command(args, workload), cwd=ROOT, capture_output=True, text=True,
            timeout=600,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        try:
            result = last_json(done.stdout)
        except (IndexError, ValueError):
            print(f"perfbench: {workload} printed no result", file=sys.stderr)
            return done.returncode or 1
        status = status or done.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    clock = hostspeed.Sampler().start()
    started = time.perf_counter()
    try:
        args = parse_args(argv)
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
            return 2
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload == "all":
            clock.stop()
            return run_all(args)
        return run_one(args, started, clock, declared)
    finally:
        clock.stop()


if __name__ == "__main__":
    sys.exit(main())
