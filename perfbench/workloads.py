"""What the three seeded workloads of the benchmark share.

Each workload builds its inputs from the seed in :meth:`Workload.setup`,
runs the program for a given number of seconds in
:meth:`Workload.measure`, and checks the outputs in
:meth:`Workload.check`, outside the timed region.  Each lives in its own
module, imported only by the run that needs it, so a workload's
``setup_s`` and ``peak_rss_mb`` cover only the modules it uses.  Why
each workload exists, and which layer metrics it should move, is in
``BENCHMARK.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from measure import Metrics
from spans import Tracer, layer_metrics

from repro.mapping.bound_graph import build_bound_graph
from repro.sdf.engine import ThroughputEngine

#: Workload name -> the module defining it as ``WORKLOAD``.
MODULES = {
    "fig6-flow": "fig6_flow",
    "explore-mjpeg": "explore_mjpeg",
    "batch-scenarios": "batch_scenarios",
}


@dataclass
class Run:
    """What one :meth:`Workload.measure` call observed."""

    attempted: int = 0
    failed: int = 0
    #: Workload rounds completed (the unit per-layer metrics are per).
    rounds: float = 0.0
    #: Seconds one round costs (compared traced vs untraced).
    cost: float = 0.0
    #: The gated end-to-end metrics: ``work_per_s``, ``latency_p50_ms``.
    e2e: Metrics = field(default_factory=Metrics)
    #: The workload's own named end-to-end metrics, for the report.
    report: Metrics = field(default_factory=Metrics)
    #: Per-layer metrics measured by the workload itself.
    layers: Metrics = field(default_factory=Metrics)
    peak_rss_mb: Optional[float] = None
    #: Wrong outputs: any one makes the run incorrect.
    errors: List[str] = field(default_factory=list)
    #: Operations the program reported as failed (counted in ``failed``).
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    data: Dict[str, object] = field(default_factory=dict)


def digest_of(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


def reference_guarantee(app, arch, result) -> Fraction:
    """Re-analyse a final mapping on the reference engine tier."""
    mapping = result.mapping
    bound = build_bound_graph(
        app, arch, mapping.actor_binding, mapping.implementations, mapping.channels
    )
    engine = ThroughputEngine(
        bound.graph,
        processor_of=bound.processor_of,
        static_order=mapping.static_orders,
        reference_actor=bound.app_actors[0],
        mode="reference",
    )
    return engine.analyze().throughput


#: Per-layer metrics a workload measures itself rather than from spans;
#: zero on the workloads whose layer does not run.
OWN_LAYERS = (
    ("dse.cache_hit_rate", "ratio"),
    ("dse.cache_lookups", "count"),
)


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path, seconds: float, trace: bool,
                 traced: bool = False) -> None:
        self.seed = seed
        self.work = work
        #: The run's whole ``--seconds``; :meth:`measure` gets its share.
        self.seconds = seconds
        #: Part of a ``--trace 1`` run (traced or its untraced baseline).
        self.trace = trace
        #: This instance runs with the span wrappers installed.
        self.traced = traced
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        """Build the inputs; timed as set-up."""

    def measure(self, seconds: float) -> Run:
        raise NotImplementedError

    def check(self, run: Run) -> None:
        """Append every wrong output to ``run.errors`` and every failed
        operation to ``run.failures``; set ``run.digest``."""

    def layers(self, tracer: Tracer, run: Run) -> Metrics:
        metrics = layer_metrics(tracer, run.rounds)
        for name, unit in OWN_LAYERS:
            metrics.set(name, 0.0, unit)
        metrics.update(run.layers)
        return metrics

    def close(self) -> None:
        """Release what :meth:`setup` acquired."""


def load(name: str) -> type:
    """The :class:`Workload` subclass called ``name``."""
    return importlib.import_module(MODULES[name]).WORKLOAD
