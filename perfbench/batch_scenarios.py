"""``batch-scenarios``: cold and warm batches over generated graph families."""

from __future__ import annotations

import json
import random
import shutil
import statistics
import time
from typing import Dict, List

from hostspeed import Sampler
from workloads import Run, Workload, digest_of, reference_guarantee

from repro.flow.session import execute_spec, run_batch
from repro.scenarios import generate_scenarios, scenario_flow_spec


class BatchScenarios(Workload):
    """``generate_scenarios("all", 480, seed)`` run serially into a fresh
    workspace (cold), then over the same workspace (warm) until the time
    is up.  Each spec is its own ``run_batch`` call, timed from outside.

    Per-spec cost is heavy-tailed (a few split-join graphs cost 30x the
    median), so a whole cold pass varies by a third from seed to seed,
    and it clusters by graph family, so the median of the whole corpus
    falls between clusters and jumps with small changes in the draw.
    The cold rate is therefore taken from each family's median spec,
    which sits inside its cluster, and the latency is the median cold
    spec's.  Warm passes (artifact reads and decodes) fill the rest of
    the run and are reported, not gated: the host slows that file and
    JSON work unlike the pure-Python work its speed is sampled with
    (see ``BENCHMARK.md``).  A traced run stops after
    :attr:`warm_passes` warm passes over the first half of the corpus
    (each half of a traced run has a cold pass of its own), so its
    per-layer figures are per such cold pass plus that many warm ones.
    """

    name = "batch-scenarios"
    corpus = 480
    warm_passes = 3
    checked_specs = 4

    def setup(self) -> None:
        count = self.corpus // 2 if self.trace else self.corpus
        scenarios = generate_scenarios("all", self.corpus, self.seed)[:count]
        self.families = [scenario.family for scenario in scenarios]
        self.specs = [scenario_flow_spec(scenario) for scenario in scenarios]
        self.workspace = self.work / "batch"
        self.workspace.mkdir(parents=True)

    def run_pass(self, phase: str, entries: list) -> List[tuple]:
        """Run every spec once; the ``(start, end)`` of each."""
        spans = []
        for spec in self.specs:
            start = time.perf_counter()
            report = run_batch([spec], self.workspace)
            spans.append((start, time.perf_counter()))
            entries.append((phase, report.entries[0]))
        return spans

    def measure(self, seconds: float) -> Run:
        entries = []
        warm_passes = []
        with Sampler() as clock:
            deadline = time.perf_counter() + seconds
            cold_spans = self.run_pass("cold", entries)
            while len(warm_passes) < self.warm_passes or (
                not self.trace and time.perf_counter() < deadline
            ):
                warm_passes.append(self.run_pass("warm", entries))
        cold = [clock.reference(*span) for span in cold_spans]
        by_family: Dict[str, List[float]] = {}
        for family, spec_time in zip(self.families, cold):
            by_family.setdefault(family, []).append(spec_time)
        spec_s = statistics.mean(statistics.median(v) for v in by_family.values())
        warm_s = statistics.median(
            sum(clock.reference(*span) for span in spans) for spans in warm_passes
        )
        run = Run(
            attempted=len(entries),
            failed=sum(not entry.ok for _, entry in entries),
            rounds=1,
            cost=sum(cold) + self.warm_passes * warm_s,
        )
        run.e2e.set("work_per_s", 1.0 / spec_s, "1/s")
        run.e2e.set("latency_p50_ms", statistics.median(cold) * 1000.0, "ms")
        run.report.set("specs_per_s", 1.0 / spec_s, "1/s")
        run.report.set("cold_spec_p50_ms", statistics.median(cold) * 1000.0, "ms")
        run.report.set("cold_pass_specs_per_s", len(self.specs) / sum(cold), "1/s")
        run.report.set("warm_specs_per_s", len(self.specs) / warm_s, "1/s")
        run.report.set("warm_pass_p50_ms", warm_s * 1000.0, "ms")
        walls = [clock.wall(*span) for span in cold_spans]
        run.report.set("wall.cold_pass_specs_per_s", len(self.specs) / sum(walls), "1/s")
        warm_walls = [sum(clock.wall(*span) for span in spans) for spans in warm_passes]
        run.report.set("wall.warm_pass_p50_ms", statistics.median(warm_walls) * 1000.0, "ms")
        run.report.set("host.factor", clock.factor(), "ratio")
        run.data["entries"] = entries
        return run

    def check(self, run: Run) -> None:
        guarantees: Dict[str, Dict[str, str]] = {}
        failed = set()
        for phase, entry in run.data["entries"]:
            if not entry.ok:
                failed.add(entry.name)
                run.failures.append(f"{phase} {entry.name}: {entry.error}")
                continue
            if phase == "warm" and entry.stages_resumed != entry.stages_total:
                run.errors.append(f"{entry.name}: warm pass recomputed a stage")
            if guarantees.setdefault(entry.name, entry.guarantees) != entry.guarantees:
                run.errors.append(f"{entry.name}: guarantees differ between passes")
        mapped = [spec for spec in self.specs if spec.name not in failed]
        sample = random.Random(f"{self.name}-check:{self.seed}").sample(
            mapped, min(self.checked_specs, len(mapped))
        )
        for spec in sample:
            session = execute_spec(spec, self.workspace)
            app_spec = spec.apps[0]
            result = session.mappings[app_spec.effective_name]
            reference = reference_guarantee(
                spec.build_app(app_spec), spec.build_architecture(), result
            )
            if reference != result.guaranteed_throughput:
                run.errors.append(
                    f"{spec.name}: reference tier gives {reference}, "
                    f"batch {result.guaranteed_throughput}"
                )
        run.digest = digest_of(
            [f"{name} {json.dumps(g, sort_keys=True)}" for name, g in guarantees.items()]
        )

    def close(self) -> None:
        shutil.rmtree(self.workspace, ignore_errors=True)


WORKLOAD = BatchScenarios
