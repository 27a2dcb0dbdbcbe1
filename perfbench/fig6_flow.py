"""``fig6-flow``: the paper's Fig. 6 / Table 1 case study."""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, List

from hostspeed import Sampler
from measure import median
from workloads import Run, Workload, digest_of

import repro.mjpeg as mjpeg
from repro.arch import architecture_from_template
from repro.flow import DesignFlow
from repro.mjpeg import SEQUENCE_BUILDERS, encode_sequence, synthetic_sequence

SEQUENCES = ("synthetic", "gradient", "photo", "checkerboard", "text", "blobs")
SEEDED_SEQUENCES = ("photo", "text", "blobs")
INTERCONNECTS = ("fsl", "noc")


class Fig6Flow(Workload):
    """Six MJPEG sequences x {fsl, noc}: twelve full flows with
    functional measurement on a 5-tile platform, VLD pinned to tile0."""

    name = "fig6-flow"
    flows = [(seq, ic) for seq in SEQUENCES for ic in INTERCONNECTS]

    def setup(self) -> None:
        self.apps = {}
        for seq in SEQUENCES:
            if seq == "synthetic":
                frames = synthetic_sequence(n_frames=2, seed=self.rng.randrange(1 << 30))
                quality = 98
            else:
                kwargs = {}
                if seq in SEEDED_SEQUENCES:
                    kwargs["seed"] = self.rng.randrange(1 << 30)
                frames = SEQUENCE_BUILDERS[seq](n_frames=2, **kwargs)
                quality = 75
            encoded = encode_sequence(frames, quality=quality, h=4, v=2)
            # looked up on the module so the traced run times it
            self.apps[seq] = mjpeg.build_mjpeg_application(encoded)

    def measure(self, seconds: float) -> Run:
        spans = []
        outputs = []
        with Sampler() as clock:
            deadline = time.perf_counter() + seconds
            while len(spans) < len(self.flows) or time.perf_counter() < deadline:
                seq, ic = self.flows[len(spans) % len(self.flows)]
                start = time.perf_counter()
                result = DesignFlow(
                    self.apps[seq],
                    architecture_from_template(5, ic),
                    fixed={"VLD": "tile0"},
                ).run()
                spans.append((start, time.perf_counter()))
                outputs.append(
                    (seq, ic, result.guaranteed_throughput, result.measured_throughput)
                )
        done = len(spans)
        reference = [clock.reference(*span) for span in spans]
        round_s = self.round_s(reference)
        every = [t * 1000.0 for t in reference]
        run = Run(attempted=done, rounds=done / len(self.flows), cost=round_s)
        run.e2e.set("work_per_s", len(self.flows) / round_s, "1/s")
        run.e2e.set("latency_p50_ms", median(every), "ms")
        run.report.set("flows_per_s", len(self.flows) / round_s, "1/s")
        run.report.set("flow_p50_ms", median(every), "ms")
        walls = [clock.wall(*span) for span in spans]
        run.report.set("wall.flows_per_s", len(self.flows) / self.round_s(walls), "1/s")
        run.report.set("host.factor", clock.factor(), "ratio")
        run.data["outputs"] = outputs
        return run

    def round_s(self, times: List[float]) -> float:
        """Seconds of one round of flows: the sum over the flows of each
        flow's median time (``times`` in the order the flows ran)."""
        by_flow: Dict[tuple, List[float]] = defaultdict(list)
        for index, seconds in enumerate(times):
            by_flow[self.flows[index % len(self.flows)]].append(seconds)
        return sum(statistics.median(by_flow[flow]) for flow in self.flows)

    def check(self, run: Run) -> None:
        seen: Dict[tuple, tuple] = {}
        for seq, ic, guaranteed, measured in run.data["outputs"]:
            if measured is None or not guaranteed <= measured:
                run.errors.append(
                    f"{seq}/{ic}: guarantee {guaranteed} exceeds measured {measured}"
                )
            if seen.setdefault((seq, ic), (guaranteed, measured)) != (guaranteed, measured):
                run.errors.append(f"{seq}/{ic}: repeated flow gave another result")
        run.digest = digest_of([f"{s}/{i} {g}" for (s, i), (g, _) in seen.items()])


WORKLOAD = Fig6Flow
