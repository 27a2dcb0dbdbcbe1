"""Span tracing around the public entry points of each ``repro`` layer.

The benchmark measures the program from outside: :func:`install`
replaces each entry point listed in :func:`layer_targets` with a
wrapper that records a span (name, start, end, parent span, request id)
and the counts derived from its arguments or result, and
:meth:`Installed.restore` puts every original object back.  A function
is wrapped where its caller looks it up -- ``from x import f`` copies
the binding into the importing module -- so module-level functions are
patched in the caller's namespace and methods on their class.

Spans stay in memory until the run ends (:meth:`Tracer.dump`);
:func:`layer_metrics` folds them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from measure import Metrics

# span tuple fields
ID, NAME, START, END, PARENT, REQUEST, NESTED = range(7)

Hook = Callable[["Tracer", tuple, dict, Any, Optional[BaseException]], None]


class Tracer:
    """In-memory span and count recorder; safe to share across threads."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[tuple]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[str] = None) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[2]
        nested = any(frame[1] == name for frame in stack)
        frame = (next(self._ids), name, request, nested, time.perf_counter())
        stack.append(frame)
        return frame

    def close(self, frame: tuple) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        parent = stack[-1][0] if stack else None
        self.spans.append(
            (frame[0], frame[1], frame[4], end, parent, frame[2], frame[3])
        )

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def dump(self, path: Union[str, Path]) -> None:
        """Write the spans (one JSON array per line) and counts."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Tracer":
        tracer = cls()
        with open(path, encoding="utf-8") as handle:
            tracer.counts.update(json.loads(handle.readline())["counts"])
            tracer.spans = [tuple(json.loads(line)) for line in handle]
        return tracer


@dataclass
class Target:
    """One entry point to wrap: ``owner.attr`` recorded as span ``name``.

    ``name`` may be a callable of ``(args, kwargs)`` for spans named
    after an argument; ``request_of`` likewise names the request a span
    starts; ``hook`` sees the call's arguments and its result or error.
    """

    owner: Any
    attr: str
    name: Union[str, Callable[[tuple, dict], str]]
    hook: Optional[Hook] = None
    request_of: Optional[Callable[[tuple, dict], str]] = None


def _wrap(tracer: Tracer, fn: Callable, target: Target) -> Callable:
    name_of = target.name if callable(target.name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = name_of(args, kwargs) if name_of else target.name
        request = target.request_of(args, kwargs) if target.request_of else None
        frame = tracer.open(name, request)
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            tracer.close(frame)
            if target.hook is not None:
                target.hook(tracer, args, kwargs, None, error)
            raise
        tracer.close(frame)
        if target.hook is not None:
            target.hook(tracer, args, kwargs, result, None)
        return result

    return wrapper


class Installed:
    """The wrappers in place; :meth:`restore` undoes :func:`install`."""

    def __init__(self, originals: List[Tuple[Any, str, Any]]) -> None:
        self.originals = originals

    def restore(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)
        self.originals = []


def install(tracer: Tracer, targets: List[Target]) -> Installed:
    """Wrap every target; each must be a plain function (or a method
    defined directly on the class named as its owner)."""
    originals: List[Tuple[Any, str, Any]] = []
    try:
        for target in targets:
            original = vars(target.owner).get(target.attr)
            if not isinstance(original, types.FunctionType):
                raise TypeError(
                    f"{target.owner!r}.{target.attr} is not a function "
                    "defined on that owner"
                )
            setattr(target.owner, target.attr, _wrap(tracer, original, target))
            originals.append((target.owner, target.attr, original))
    except BaseException:
        Installed(originals).restore()
        raise
    return Installed(originals)


# ----------------------------------------------------------------------
# the layer boundaries
# ----------------------------------------------------------------------
def _count_deadlock(tracer, args, kwargs, result, error) -> None:
    from repro.exceptions import DeadlockError

    if isinstance(error, DeadlockError):
        tracer.count("mapping.deadlock_retries")


def _count_tier(tracer, args, kwargs, result, error) -> None:
    _count_deadlock(tracer, args, kwargs, result, error)
    if result is not None:
        tracer.count(f"sdf.tier.{result.tier}")


def _count_rounds(tracer, args, kwargs, result, error) -> None:
    if result is not None:
        tracer.count("mapping.buffer_rounds", result.buffer_growth_rounds)


def _count_hit(tracer, args, kwargs, result, error) -> None:
    if result is not None:
        tracer.count("artifacts.get_hits")


def _count_stage(tracer, args, kwargs, result, error) -> None:
    if error is None:
        tracer.count("session.stages_n")
        if args[1].stages[-1].resumed:
            tracer.count("session.resumed_n")


def _stage_name(args: tuple, kwargs: dict) -> str:
    return f"session.stage.{kwargs['kind']}"


def layer_targets() -> List[Target]:
    """Every entry point the per-layer metrics are timed around."""
    import repro.flow.design_flow as design_flow
    import repro.flow.dse as dse
    import repro.flow.session as session
    import repro.flow.spec as spec
    import repro.mapping.pipeline as pipeline
    import repro.mjpeg as mjpeg
    import repro.mjpeg.app as mjpeg_app
    from repro.artifacts.store import ArtifactStore
    from repro.mjpeg.actors import MJPEGActorSet
    from repro.sdf.engine import ThroughputEngine
    from repro.sim.platform_sim import PlatformSimulator

    targets = [
        Target(mjpeg, "build_mjpeg_application", "mjpeg.app_build"),
        Target(mjpeg_app, "build_mjpeg_application", "mjpeg.app_build"),
        Target(spec, "build_case_study_app", "mjpeg.app_build"),
    ]
    targets += [
        Target(MJPEGActorSet, actor, "mjpeg.actor")
        for actor in ("vld", "iqzz", "idct", "cc", "raster")
    ]
    targets += [
        Target(pipeline.MappingPipeline, "run", "mapping.map", _count_rounds),
        Target(pipeline, "build_bound_graph", "mapping.bound_graph"),
        Target(pipeline, "apply_buffer_capacities", "mapping.bound_graph"),
        Target(
            pipeline.StaticOrderScheduling, "build", "mapping.static_order",
            _count_deadlock,
        ),
    ]
    for kind, method, name in (
        ("binding", "bind", "mapping.bind"),
        ("routing", "route", "mapping.route"),
    ):
        for strategy in pipeline.registered(kind):
            cls = type(pipeline.resolve(kind, strategy))
            targets.append(Target(cls, method, name))
    targets += [
        Target(ThroughputEngine, "analyze", "sdf.analyze", _count_tier),
        Target(dse.Evaluator, "evaluate", "dse.evaluate"),
        Target(dse, "platform_power", "power.estimate"),
        Target(dse, "application_energy", "power.estimate"),
        Target(session.FlowSession, "_stage", _stage_name, _count_stage),
        Target(session, "to_payload", "artifacts.encode"),
        Target(session, "from_payload", "artifacts.decode"),
        Target(ArtifactStore, "put", "artifacts.put"),
        Target(ArtifactStore, "get", "artifacts.get", _count_hit),
        Target(ArtifactStore, "get_text", "artifacts.get", _count_hit),
        Target(design_flow, "generate_platform", "mamps.generate"),
        Target(design_flow, "synthesize", "mamps.synthesize"),
        Target(PlatformSimulator, "measure_throughput", "sim.measure"),
    ]
    return targets


# ----------------------------------------------------------------------
# spans -> per-layer metrics
# ----------------------------------------------------------------------
#: Timed layers: metric name -> span name.  ``*_self_s`` metrics are the
#: span's duration minus the time its direct child spans cover.
TIMED = {
    "mjpeg.app_build_s": "mjpeg.app_build",
    "mjpeg.actor_s": "mjpeg.actor",
    "mapping.map_s": "mapping.map",
    "mapping.bind_s": "mapping.bind",
    "mapping.route_s": "mapping.route",
    "mapping.bound_graph_s": "mapping.bound_graph",
    "mapping.static_order_s": "mapping.static_order",
    "sdf.analyze_s": "sdf.analyze",
    "dse.evaluate_s": "dse.evaluate",
    "power.estimate_s": "power.estimate",
    "artifacts.put_s": "artifacts.put",
    "artifacts.get_s": "artifacts.get",
    "artifacts.encode_s": "artifacts.encode",
    "artifacts.decode_s": "artifacts.decode",
    "mamps.generate_s": "mamps.generate",
    "mamps.synthesize_s": "mamps.synthesize",
    "sim.measure_s": "sim.measure",
}
SELF_TIMED = {
    "mapping.map_self_s": "mapping.map",
    "dse.evaluate_self_s": "dse.evaluate",
    "sim.self_s": "sim.measure",
}
#: The stage kinds a FlowSession can persist.
STAGE_KINDS = ("application", "architecture", "mapping-result", "use-case-mapping")
#: Span counts reported as metrics.
SPAN_COUNTS = {
    "mapping.static_order_n": "mapping.static_order",
    "sdf.analyze_n": "sdf.analyze",
    "artifacts.put_n": "artifacts.put",
    "artifacts.get_n": "artifacts.get",
}
TIERS = ("analytic", "vectorized", "reference")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, rounds: float) -> Metrics:
    """Per-layer metrics of one traced run, per workload round.

    Times and counts are totals divided by ``rounds`` (the unit each
    workload defines: a round of flows, a sweep, a batch pass); ratios
    are over the whole run and come with their
    base count.  A span nested inside a span of the same name is not
    counted again.
    """
    total: Dict[str, float] = defaultdict(float)
    number: Dict[str, int] = defaultdict(int)
    child_time: Dict[int, float] = defaultdict(float)
    for span in tracer.spans:
        duration = span[END] - span[START]
        if span[PARENT] is not None:
            child_time[span[PARENT]] += duration
        if not span[NESTED]:
            total[span[NAME]] += duration
            number[span[NAME]] += 1
    own: Dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        own[span[NAME]] += span[END] - span[START] - child_time.get(span[ID], 0.0)

    per = 1.0 / rounds if rounds else 0.0
    counts = tracer.counts
    metrics = Metrics()
    for metric, span_name in TIMED.items():
        metrics.set(metric, total[span_name] * per, "s")
    for metric, span_name in SELF_TIMED.items():
        metrics.set(metric, own[span_name] * per, "s")
    for metric, span_name in SPAN_COUNTS.items():
        metrics.set(metric, number[span_name] * per, "count")
    metrics.set("mapping.deadlock_retries", counts["mapping.deadlock_retries"] * per, "count")
    metrics.set("mapping.buffer_rounds", counts["mapping.buffer_rounds"] * per, "count")
    for tier in TIERS:
        metrics.set(f"sdf.tier.{tier}", counts[f"sdf.tier.{tier}"] * per, "count")
    metrics.set(
        "sdf.analytic_share",
        _ratio(counts["sdf.tier.analytic"], number["sdf.analyze"]),
        "ratio",
    )
    for kind in STAGE_KINDS:
        metrics.set(f"session.stage_s.{kind}", total[f"session.stage.{kind}"] * per, "s")
    metrics.set(
        "session.resumed_frac",
        _ratio(counts["session.resumed_n"], counts["session.stages_n"]),
        "ratio",
    )
    metrics.set("session.stages_n", counts["session.stages_n"] * per, "count")
    metrics.set(
        "artifacts.get_hit_rate",
        _ratio(counts["artifacts.get_hits"], number["artifacts.get"]),
        "ratio",
    )
    return metrics

