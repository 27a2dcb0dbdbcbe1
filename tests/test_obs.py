"""Tests for the shared telemetry counters (repro.obs)."""

import os
import sys
import threading

from repro import obs


class TestCounters:
    def test_inc_merge_and_lookup(self):
        counters = obs.Counters()
        counters.inc("engine.vectorized")
        counters.inc("engine.vectorized")
        counters.merge({"engine.analytic": 1, "power.platform": 3})
        assert counters["engine.vectorized"] == 2
        assert counters["engine.reference"] == 0  # never counted
        assert counters.snapshot() == {
            "engine.vectorized": 2,
            "engine.analytic": 1,
            "power.platform": 3,
        }

    def test_prefix_snapshot_with_declared_names(self):
        counters = obs.Counters()
        counters.merge({"engine.vectorized": 2, "power.platform": 1})
        assert counters.snapshot("engine") == {"vectorized": 2}
        assert counters.snapshot(
            "engine", ("analytic", "vectorized", "reference")
        ) == {"analytic": 0, "vectorized": 2, "reference": 0}
        assert list(counters.snapshot(names=("b", "a"))) == [
            "b", "a", "engine.vectorized", "power.platform",
        ]

    def test_snapshot_is_a_copy(self):
        counters = obs.Counters()
        counters.inc("x")
        snapshot = counters.snapshot()
        counters.inc("x")
        assert snapshot == {"x": 1}

    def test_concurrent_increments_are_not_lost(self):
        counters = obs.Counters()
        workers = (os.cpu_count() or 1) + 2

        def work():
            for _ in range(2000):
                counters.inc("n")
                counters.merge({"m": 2})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counters["n"] == 2000 * workers
        assert counters["m"] == 4000 * workers


class TestScopes:
    def test_inc_feeds_process_and_open_scopes(self):
        before = obs.counters()["test.obs"]
        obs.inc("test.obs")  # outside: no scope sees it
        with obs.collect() as outer:
            obs.inc("test.obs")
            with obs.collect() as inner:
                obs.inc("test.obs", 2)
        assert inner.snapshot() == {"test.obs": 2}
        assert outer.snapshot() == {"test.obs": 3}
        assert obs.counters()["test.obs"] == before + 4

    def test_merge_records_a_delta_as_if_counted_here(self):
        before = obs.counters()["test.merged"]
        with obs.collect() as scope:
            obs.merge({"test.merged": 5})
        assert scope["test.merged"] == 5
        assert obs.counters()["test.merged"] == before + 5

    def test_scopes_stay_in_their_context(self):
        with obs.collect() as scope:
            thread = threading.Thread(target=obs.inc, args=("test.t",))
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        # a bare thread starts from an empty context
        assert scope["test.t"] == 0
