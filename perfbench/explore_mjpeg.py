"""``explore-mjpeg``: the exploration hot path."""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from typing import Dict

from hostspeed import Sampler
from workloads import Run, Workload, digest_of, reference_guarantee

import repro.mjpeg as mjpeg
from repro.flow.dse import COMPACT_MIX, UNIFORM_MIX, explore_design_space
from repro.mapping.flow import map_application
from repro.mjpeg import encode_sequence
from repro.mjpeg.sequences import gradient_sequence
from repro.power import PowerModel


class ExploreMjpeg(Workload):
    """The gradient case study over 1..8 tiles x {fsl, noc} x CA
    {off, on} x {uniform, compact} with a power model, serially."""

    name = "explore-mjpeg"
    checked_points = 3

    def setup(self) -> None:
        phase = self.rng.randrange(8)
        frames = gradient_sequence(n_frames=2 + phase)[phase:]
        self.app = mjpeg.build_mjpeg_application(
            encode_sequence(frames, quality=75, h=4, v=2)
        )

    def sweep(self):
        return explore_design_space(
            self.app,
            tile_counts=tuple(range(1, 9)),
            interconnects=("fsl", "noc"),
            ca_options=(False, True),
            mixes=(UNIFORM_MIX, COMPACT_MIX),
            power_model=PowerModel(),
            jobs=1,
        )

    def measure(self, seconds: float) -> Run:
        spans = []
        results = []
        with Sampler() as clock:
            deadline = time.perf_counter() + seconds
            while not results or time.perf_counter() < deadline:
                start = time.perf_counter()
                results.append(self.sweep())
                spans.append((start, time.perf_counter()))
        sweep_s = [clock.reference(*span) for span in spans]
        points = len(results[0].points) + len(results[0].failures)
        hits = sum(r.cache_stats.hits for r in results)
        lookups = sum(r.cache_stats.lookups for r in results)
        run = Run(
            attempted=points * len(results),
            rounds=len(results),
            cost=statistics.median(sweep_s),
        )
        rate = statistics.median(points / s for s in sweep_s)
        run.e2e.set("work_per_s", rate, "1/s")
        run.e2e.set("latency_p50_ms", statistics.median(sweep_s) * 1000.0, "ms")
        run.report.set("points_per_s", rate, "1/s")
        run.report.set("sweep_p50_ms", statistics.median(sweep_s) * 1000.0, "ms")
        wall_rate = statistics.median(points / clock.wall(*span) for span in spans)
        run.report.set("wall.points_per_s", wall_rate, "1/s")
        run.report.set("host.factor", clock.factor(), "ratio")
        run.layers.set("dse.cache_hit_rate", hits / lookups if lookups else 0.0, "ratio")
        run.layers.set("dse.cache_lookups", lookups / len(results), "count")
        run.data["results"] = results
        return run

    def check(self, run: Run) -> None:
        def table(result) -> Dict[str, Fraction]:
            return {p.label: p.throughput for p in result.points}

        results = run.data["results"]
        first = table(results[0])
        for other in results[1:]:
            if table(other) != first:
                run.errors.append("repeated sweep gave other guarantees")
        sample = random.Random(f"{self.name}-check:{self.seed}").sample(
            results[0].points, min(self.checked_points, len(results[0].points))
        )
        for point in sample:
            candidate = point.candidate
            arch = candidate.build_architecture()
            result = map_application(
                self.app,
                arch,
                effort=candidate.effort,
                pipeline=candidate.strategy.build_pipeline(),
            )
            if result.guaranteed_throughput != point.throughput:
                run.errors.append(f"{point.label}: re-mapping gave another guarantee")
            reference = reference_guarantee(self.app, arch, result)
            if reference != point.throughput:
                run.errors.append(
                    f"{point.label}: reference tier gives {reference}, "
                    f"exploration {point.throughput}"
                )
        run.digest = digest_of([f"{k} {v}" for k, v in first.items()])


WORKLOAD = ExploreMjpeg
