"""Self-tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest.py

The smoke tests run every workload once at minimum size, untraced and
traced, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_nearest_rank_picks_a_measured_value():
    values = [float(v) for v in range(1, 11)]
    assert measure.percentile(values, 50) == 5.0
    assert measure.percentile(values, 90) == 9.0
    assert measure.percentile(values, 100) == 10.0
    assert measure.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert measure.median([4.0, 1.0]) == 1.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert measure.beyond(200, 95) == 10
    assert measure.supported(200, 95)
    assert not measure.supported(199, 95)
    assert measure.reportable(list(range(199)), 95) is None
    assert measure.reportable(list(range(200)), 95) == 189
    assert not measure.supported(15, 50)
    assert measure.tail_percentile([1.0] * 30) is None
    assert measure.tail_percentile([float(v) for v in range(100)]) == (90.0, 89.0)
    assert measure.tail_percentile([float(v) for v in range(1000)])[0] == 99.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 0)


# ----------------------------------------------------------------------
# names
# ----------------------------------------------------------------------
def test_declared_metric_names_and_units_are_well_formed():
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = []
    for kind in ("end_to_end", "per_layer"):
        for metric in DECLARED[kind]:
            assert measure.METRIC_NAME.fullmatch(metric["name"]), metric
            assert len(metric["name"]) <= 64
            assert unit.fullmatch(metric["unit"]), metric
            names.append(metric["name"])
    assert len(names) == len(set(names))
    assert "setup_s" in names


def test_metrics_reject_bad_names():
    metrics = measure.Metrics()
    with pytest.raises(ValueError):
        metrics.set("p95 ms", 1.0, "ms")
    metrics.set("flow.p95_ms", 1.0, "ms")


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _current(targets):
    return [vars(t.owner)[t.attr] for t in targets]


def test_restore_puts_every_original_back():
    targets = spans.layer_targets()
    originals = _current(targets)
    installed = spans.install(spans.Tracer(), targets)
    wrapped = _current(targets)
    assert all(w is not o for w, o in zip(wrapped, originals))
    installed.restore()
    assert all(now is was for now, was in zip(_current(targets), originals))


def test_install_refuses_a_non_function_and_leaves_nothing_wrapped():
    targets = spans.layer_targets()
    originals = _current(targets)
    bad = spans.Target(spans.Tracer, "spans", "bad")  # not defined on the class
    with pytest.raises(TypeError):
        spans.install(spans.Tracer(), targets + [bad])
    assert all(now is was for now, was in zip(_current(targets), originals))


class _Layer:
    def outer(self, inner_calls):
        for _ in range(inner_calls):
            self.inner()
        return inner_calls

    def inner(self):
        return None


def test_spans_record_parent_request_and_self_time():
    tracer = spans.Tracer()
    installed = spans.install(tracer, [
        spans.Target(_Layer, "outer", "mapping.map",
                     request_of=lambda args, kwargs: "req-1"),
        spans.Target(_Layer, "inner", "mapping.bind"),
    ])
    try:
        assert _Layer().outer(3) == 3
    finally:
        installed.restore()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[spans.NAME], []).append(span)
    (outer,) = by_name["mapping.map"]
    inner = by_name["mapping.bind"]
    assert len(inner) == 3
    assert all(s[spans.PARENT] == outer[spans.ID] for s in inner)
    assert all(s[spans.REQUEST] == "req-1" for s in inner + [outer])
    metrics = spans.layer_metrics(tracer, rounds=1)
    assert metrics.get("mapping.bind_s") <= metrics.get("mapping.map_s")
    assert metrics.get("mapping.map_self_s") == pytest.approx(
        metrics.get("mapping.map_s") - metrics.get("mapping.bind_s")
    )


def test_same_name_nesting_is_counted_once(tmp_path):
    tracer = spans.Tracer()
    installed = spans.install(tracer, [
        spans.Target(_Layer, "outer", "mjpeg.app_build"),
        spans.Target(_Layer, "inner", "mjpeg.app_build"),
    ])
    try:
        _Layer().outer(2)
    finally:
        installed.restore()
    outer = [s for s in tracer.spans if not s[spans.NESTED]]
    assert len(outer) == 1
    total = spans.layer_metrics(tracer, rounds=1).get("mjpeg.app_build_s")
    assert total == pytest.approx(outer[0][spans.END] - outer[0][spans.START])
    tracer.dump(tmp_path / "spans.jsonl")
    assert spans.Tracer.load(tmp_path / "spans.jsonl").spans == tracer.spans


# ----------------------------------------------------------------------
# reference seconds
# ----------------------------------------------------------------------
def _sampler(factor, times):
    """A sampler holding one sample of ``factor`` at each of ``times``."""
    clock = hostspeed.Sampler()
    slice_s = factor * hostspeed.REFERENCE_SLICE_S
    clock.samples = [(t, t + slice_s) for t in times]
    return clock


def test_an_interval_is_its_wall_time_without_samples_over_their_factor():
    clock = _sampler(2.0, [0.1 * k for k in range(1, 10)])
    wall = 1.0 - 9 * 2.0 * hostspeed.REFERENCE_SLICE_S
    assert clock.wall(0.0, 1.0) == pytest.approx(wall)
    assert clock.reference(0.0, 1.0) == pytest.approx(wall / 2.0)
    assert clock.factor() == pytest.approx(2.0)


def test_a_short_interval_takes_the_nearest_samples():
    clock = _sampler(1.0, [0.0, 0.1, 0.2, 0.3, 0.4])
    clock.samples += _sampler(3.0, [10.0, 10.1, 10.2, 10.3, 10.4]).samples
    assert clock.reference(10.15, 10.16) == pytest.approx(0.01 / 3.0)
    assert clock.reference(0.25, 0.26) == pytest.approx(0.01)
    with pytest.raises(RuntimeError):
        hostspeed.Sampler().reference(0.0, 1.0)


def test_sampler_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(period_s=0.01) as clock:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(clock.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.factor() > 0


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
def _run(cwd, *args, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimum_size_smoke_run(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()
