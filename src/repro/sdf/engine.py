"""Tiered throughput engine: one facade over three exact analyses.

Every throughput guarantee in the flow -- buffer sizing, the mapping
constraint loop, design-space exploration, operating-point library
builds, served flows -- needs the *same* number: the self-timed
throughput of a bounded SDF graph as an exact :class:`fractions.
Fraction`.  Three implementations of that number exist in this package,
with wildly different costs:

* **analytic** -- expand the graph to HSDF (:mod:`repro.sdf.hsdf`) and
  take ``1 / MCM`` (:mod:`repro.sdf.mcm`).  Simulation-free and exact,
  but only expressible when the resource constraints are (see
  :meth:`ThroughputEngine.analytic_decline_reason`);
* **vectorized** -- a trimmed array-of-ints state-space simulation:
  integer time, preallocated token/credit arrays, no per-event name or
  trace bookkeeping, no ``Fraction`` in the inner loop; the exact
  ``Fraction`` is reconstructed once, at period detection.  Starts
  firings in exactly the deterministic order of the reference engine,
  so every result field (period, transient, ...) is bit-identical;
* **reference** -- :class:`~repro.sdf.throughput.ThroughputAnalyzer`
  over the full-featured :class:`~repro.sdf.simulation.
  SelfTimedSimulator` (the PR-3 incremental engine), kept as the
  differential oracle and for callers that need hooks or traces.

:class:`ThroughputEngine` owns the tier policy.  Whether the analytic
tier *pays* cannot be read off the graph: two graphs with identical
size features can have state spaces of 6 and 900 iterations (the
whole reason the state space is simulated rather than predicted), so
``auto`` decides adaptively.  When the HSDF transform is tractable and
the binding / static-order constraints allow it, analyze() first runs
the vectorized core for a probe bounded by the *estimated analytic
cost* (at least :data:`PROBE_ITERATIONS` iterations, stretched by
:data:`PROBE_WORK_FACTOR` for graphs whose HSDF expansion is large
relative to their per-iteration simulation cost): a state space that
recurs within the probe *is* the cheaper exact analysis, and the
engine keeps its result; one that outlives it has already cost about
what the transform would, and the engine escalates to the
simulation-free analytic tier.  A relaxation budget
(:data:`MCM_RELAXATION_FACTOR` x HSDF size) backstops the rare
adversarial expansion where the cycle-ratio iteration itself grinds;
exceeding it falls back to the full vectorized run.  The chosen tier
and the fallback reason are recorded in the
:class:`~repro.sdf.throughput.ThroughputResult`.  The ``mode`` knob
(``auto``/``analytic``/``vectorized``/``reference``) pins a tier
(no probe, no budget); a pinned ``analytic`` on an ineligible graph
raises :class:`EngineUnsupportedError` rather than silently
degrading.

Consumers that need raw *stepping* (the platform simulator, latency
scans) obtain their simulator through :func:`build_simulator`, keeping
this module the single construction point of the analysis stack -- CI
forbids direct ``SelfTimedSimulator(...)`` calls outside
:mod:`repro.sdf`.  Static-order derivation needs only the first starts
of one greedy run: :func:`greedy_start_order` runs it natively on the
vectorized core (a start countdown, no trace, no per-step predicate),
on a path :meth:`_VectorizedCore.run_throughput` does not share.

Liveness comes from the run: :func:`~repro.sdf.deadlock.deadlock_report`
runs only when a simulated run fails (to tell a dead graph's symptom from
a live graph's own error) and before the analytic tier, which cannot see
a deadlock; see :meth:`ThroughputEngine.analyze`.

Every analysis counts ``engine.<tier>`` in :mod:`repro.obs`: the
process-wide counters surface in ``GET /v1/healthz``, a
:func:`repro.obs.collect` scope in
:class:`~repro.flow.effort.EffortReport`.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.exceptions import DeadlockError, ReproError, SimulationError
from repro.sdf.deadlock import deadlock_report
from repro.sdf.graph import SDFGraph, validate_graph
from repro.sdf.hsdf import to_hsdf
from repro.sdf.mcm import CycleRatioBudgetError, maximum_cycle_mean
from repro.sdf.repetition import repetition_vector
from repro.sdf.simulation import SelfTimedSimulator
from repro.sdf.throughput import (
    ThroughputAnalyzer,
    ThroughputResult,
    UnboundedExecutionError,
)

#: The selectable engine tiers, fastest-preferred first.
ENGINE_MODES: Tuple[str, ...] = (
    "auto", "analytic", "vectorized", "reference"
)
#: The tiers an analysis lands on (the ``engine.*`` counter names).
ENGINE_TIERS: Tuple[str, ...] = ENGINE_MODES[1:]

#: HSDF expansion budget: total actor copies (sum of the repetition
#: vector).  Beyond this the quadratic token-dependency scan of the
#: transform costs more than the simulation it replaces.
MAX_HSDF_COPIES = 256
#: HSDF expansion budget: token dependencies examined by the transform
#: (``sum over edges of q[dst] * consumption``).
MAX_HSDF_WORK = 20_000
#: ``auto`` probes the vectorized core for at least this many iterations
#: before escalating to the analytic tier.  Short state spaces (every
#: observed easy instance recurs within ~14 iterations) finish inside
#: the probe, where simulation is cheaper than the HSDF transform.
PROBE_ITERATIONS = 24
#: The probe is stretched in proportion to the *estimated analytic
#: cost*: the transform + cycle-ratio iteration costs roughly a fixed
#: amount per HSDF unit (actor copies + token dependencies), while one
#: simulated iteration costs roughly a fixed amount per graph unit
#: (actors + edges).  Measured across scenario families the ratio of
#: those two constants is ~30; probing for
#: ``PROBE_WORK_FACTOR * hsdf_units / graph_units`` iterations means
#: escalation only happens once the simulation has already spent about
#: what the analytic tier would cost -- so a misjudged escalation at
#: most doubles the analysis, while a state space that keeps running
#: 10x longer still yields nearly the full analytic win.
PROBE_WORK_FACTOR = 32
#: Relaxation budget for the analytic tier's cycle-ratio iteration,
#: as a multiple of HSDF size (actor copies + dependency edges).
#: Well-behaved instances stay under ~450 relaxations per size unit;
#: adversarial dense multi-rate expansions run into the thousands and
#: are cheaper to simulate.
MCM_RELAXATION_FACTOR = 512


class EngineUnsupportedError(SimulationError):
    """A pinned engine mode cannot analyze this graph exactly.

    Raised only for forced modes (``mode="analytic"`` on a graph whose
    constraints the HSDF transform cannot express); ``auto`` never
    raises this -- it falls back and records the reason instead.
    """


# ----------------------------------------------------------------------
# simulator construction facade
# ----------------------------------------------------------------------
def build_simulator(
    graph: SDFGraph,
    auto_concurrency: Optional[int] = 1,
    processor_of: Optional[Dict[str, str]] = None,
    static_order: Optional[Dict[str, Sequence[str]]] = None,
    execution_time_of: Optional[Callable[[str, int], int]] = None,
    on_finish: Optional[Callable[[str, int], None]] = None,
    record_trace: bool = False,
) -> SelfTimedSimulator:
    """Construct the full-featured self-timed simulator.

    The one sanctioned way to obtain a stepping/tracing/hooked simulator
    outside :mod:`repro.sdf` (the platform simulator, latency scans).
    Throughput-only callers should use :class:`ThroughputEngine`
    instead, which picks a cheaper tier when it can; static-order
    derivation uses :func:`greedy_start_order`.
    """
    return SelfTimedSimulator(
        graph,
        auto_concurrency=auto_concurrency,
        processor_of=processor_of,
        static_order=static_order,
        execution_time_of=execution_time_of,
        on_finish=on_finish,
        record_trace=record_trace,
    )


def greedy_start_order(
    graph: SDFGraph,
    processor_of: Dict[str, str],
    quota: Dict[str, int],
    max_firings: int,
) -> Optional[List[Tuple[str, bool]]]:
    """The first starts of a greedy self-timed run under a binding.

    Runs ``graph`` self-timed (auto-concurrency 1, actors bound by
    ``processor_of``, no static orders) until every actor of ``quota``
    has started ``quota[a]`` times, and returns exactly those starts in
    start order as ``(actor, finished)`` pairs; ``finished`` tells
    whether the firing completed before the run stopped.  Returns None
    when the run quiesced or completed ``max_firings`` firings first.
    This is the list-scheduling run behind static-order derivation
    (:mod:`repro.mapping.scheduling`), on the vectorized core.
    """
    core = _VectorizedCore(graph, processor_of=processor_of)
    names = core._actor_names
    counts = [0] * len(names)
    for actor, n in quota.items():
        counts[core._actor_index[actor]] = n
    recorded = core.run_start_order(counts, max_firings)
    if recorded is None:
        return None
    # An actor's firings complete in start order, so its k-th start has
    # finished iff more than k of its firings completed.
    completed = core._completed
    seen = [0] * len(names)
    starts: List[Tuple[str, bool]] = []
    for idx in recorded:
        k = seen[idx]
        seen[idx] = k + 1
        starts.append((names[idx], k < completed[idx]))
    return starts


def normalize_engine_mode(mode: str) -> str:
    """Validate an engine mode string; raises :class:`ValueError`."""
    if mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown throughput engine mode {mode!r}; pick from "
            f"{', '.join(ENGINE_MODES)}"
        )
    return mode


# ----------------------------------------------------------------------
# the vectorized tier
# ----------------------------------------------------------------------
class _VectorizedCore(SelfTimedSimulator):
    """Array-of-ints state-space core for throughput detection and
    static-order derivation.

    Inherits the integer-indexed adjacency and the dirty-set engine of
    :class:`SelfTimedSimulator` but replaces the per-event path with
    trimmed variants: no started/finished name lists, no trace or
    max-token bookkeeping, no hook indirection -- just token array
    updates, the completion heap and the dirty sets.  Firing start
    order is kept byte-for-byte identical to the parent (static-order
    processors by declaration rank, then greedy actors in insertion
    order), so :meth:`run_throughput` reproduces the reference
    analyzer's state keys and therefore its exact period, transient
    and throughput.
    """

    def __init__(
        self,
        graph: SDFGraph,
        auto_concurrency: Optional[int] = 1,
        processor_of: Optional[Dict[str, str]] = None,
        static_order: Optional[Dict[str, Sequence[str]]] = None,
    ) -> None:
        super().__init__(
            graph,
            auto_concurrency=auto_concurrency,
            processor_of=processor_of,
            static_order=static_order,
        )

    def _duration(self, idx: int) -> int:
        # Static execution times only (the engine never passes the
        # per-firing override hook); validated non-negative at graph
        # construction.
        return self._exec_time[idx]

    def _finish_fast(self, idx: int) -> None:
        tokens = self._tokens
        consumer = self._consumer_of
        mark = self._mark_actor
        for e, p in self._out_rates[idx]:
            tokens[e] += p
            mark(consumer[e])
        self._ongoing[idx] -= 1
        self._completed[idx] += 1
        mark(idx)
        pid = self._proc_of[idx]
        if pid >= 0:
            self._mark_proc_free(pid)

    def _run_static_proc_fast(self, pid: int) -> None:
        order = self._order_idx[pid]
        interleaved = self._interleaved_idx.get(pid, ())
        while self._proc_busy[pid] <= self.now:
            inter = -1
            for i in interleaved:
                if self._is_ready_idx(i):
                    inter = i
                    break
            if inter >= 0:
                self._start_firing(inter)
                continue
            idx = order[self._order_pos[pid] % len(order)]
            if not self._is_ready_idx(idx):
                break
            self._start_firing(idx)
            self._order_pos[pid] += 1

    def _start_all_ready_fast(self) -> None:
        if self._dirty_procs:
            dirty_procs = self._dirty_procs
            self._dirty_procs = []
            if len(dirty_procs) > 1:
                dirty_procs.sort(key=self._static_rank.__getitem__)
            for pid in dirty_procs:
                self._proc_dirty[pid] = False
                self._run_static_proc_fast(pid)
        if self._dirty_actors:
            dirty = self._dirty_actors
            self._dirty_actors = []
            if len(dirty) > 1:
                dirty.sort()
            proc_busy = self._proc_busy
            for idx in dirty:
                self._actor_dirty[idx] = False
                pid = self._proc_of[idx]
                if pid >= 0:
                    while (
                        self._is_ready_idx(idx)
                        and proc_busy[pid] <= self.now
                    ):
                        self._start_firing(idx)
                else:
                    while self._is_ready_idx(idx):
                        self._start_firing(idx)

    def run_throughput(
        self, ref_idx: int, q_ref: int, max_iterations: int
    ) -> ThroughputResult:
        """Periodic-phase detection, fused with the event loop.

        Semantically identical to driving
        :meth:`SelfTimedSimulator.step` from
        :class:`~repro.sdf.throughput.ThroughputAnalyzer` (a started
        firing never enables another start, so one dirty-set pass per
        completion batch reaches the same fixpoint as step()'s two),
        with the same error messages on the same conditions.
        """
        graph = self.graph
        completed = self._completed
        queue = self._queue
        heappop = heapq.heappop
        seen: Dict[tuple, Tuple[int, int]] = {}
        iterations_done = 0

        self._start_all_ready_fast()
        while iterations_done < max_iterations:
            if not queue:
                raise DeadlockError(
                    f"mapped graph {graph.name!r} blocked after "
                    f"{iterations_done} iteration(s) at t={self.now}; the "
                    "static-order schedule or buffer sizes admit no "
                    "execution"
                )
            end = queue[0][0]
            self.now = end
            while queue and queue[0][0] == end:
                self._finish_fast(heappop(queue)[2])
            self._start_all_ready_fast()
            completed_iterations = completed[ref_idx] // q_ref
            if completed_iterations > iterations_done:
                iterations_done = completed_iterations
                key = self.state_key()
                previous = seen.get(key)
                if previous is not None:
                    prev_iterations, prev_time = previous
                    period = end - prev_time
                    iter_count = iterations_done - prev_iterations
                    if period <= 0:
                        raise SimulationError(
                            f"graph {graph.name!r} completes {iter_count} "
                            "iteration(s) in zero time; all cycle times "
                            "are zero -- throughput is unbounded"
                        )
                    return ThroughputResult(
                        throughput=Fraction(iter_count, period),
                        period=period,
                        iterations_per_period=iter_count,
                        transient_iterations=prev_iterations,
                        tier="vectorized",
                    )
                seen[key] = (iterations_done, end)

        raise UnboundedExecutionError(
            f"no periodic phase within {max_iterations} iterations of "
            f"{graph.name!r}; channels likely grow without bound -- add "
            "buffer back-edges (repro.sdf.buffers.add_buffer_edges) before "
            "analyzing"
        )

    def run_start_order(
        self, quota: Sequence[int], max_firings: int
    ) -> Optional[List[int]]:
        """Greedy run until every actor started ``quota[i]`` times.

        Records the first ``quota[i]`` starts of each actor (actor
        indices, in start order) and nothing else.  The stop rule is
        that of :meth:`SelfTimedSimulator.run` with a ``stop_when``
        bound: checked after each completion batch and the starts it
        enables; the run gives up when nothing is in flight or once
        ``max_firings`` firings completed.  Returns None when the quota
        was not met.  Readiness test, start and finish are inlined --
        this is the static-order derivation hot loop -- and follow the
        start order of :meth:`_start_all_ready_fast` exactly.  Only
        greedy processors are supported: the run exists to *derive*
        static orders.
        """
        if self._static_proc_ids or self._seq:
            raise SimulationError(
                "a start-order run derives static orders: it needs a "
                "fresh or reset simulator without any"
            )
        tokens = self._tokens
        in_rates = self._in_rates
        out_rates = self._out_rates
        consumer_of = self._consumer_of
        cap = self._cap
        exec_time = self._exec_time
        ongoing = self._ongoing
        started = self._started
        completed = self._completed
        proc_of = self._proc_of
        proc_busy = self._proc_busy
        proc_members = self._proc_members
        actor_dirty = self._actor_dirty
        queue = self._queue
        heappush = heapq.heappush
        heappop = heapq.heappop
        seq = self._seq
        now = self.now
        recorded: List[int] = []
        # Countdown of actors still short of their quota of starts.
        short = sum(1 for n in quota if n > 0)
        # Completed firings; every batch completes at least one, so a
        # nonzero count also means the stop rule is due.
        total = 0
        dirty_actors = self._dirty_actors
        while True:
            # Start every ready dirty actor, in graph insertion order.
            if dirty_actors:
                if len(dirty_actors) > 1:
                    dirty_actors.sort()
                for idx in dirty_actors:
                    actor_dirty[idx] = False
                    pid = proc_of[idx]
                    limit = cap[idx]
                    rates = in_rates[idx]
                    while pid < 0 or proc_busy[pid] <= now:
                        if limit is not None and ongoing[idx] >= limit:
                            break
                        for e, c in rates:
                            if tokens[e] < c:
                                break
                        else:
                            for e, c in rates:
                                tokens[e] -= c
                            end = now + exec_time[idx]
                            n = started[idx]
                            started[idx] = n + 1
                            ongoing[idx] += 1
                            heappush(queue, (end, seq, idx, now))
                            seq += 1
                            if pid >= 0:
                                proc_busy[pid] = end
                            if n < quota[idx]:
                                recorded.append(idx)
                                if n + 1 == quota[idx]:
                                    short -= 1
                            continue
                        break
                dirty_actors = []
            if total and (total >= max_firings or not short):
                break
            if not queue:
                break
            # Finish the next completion batch; mark what it may enable.
            now = queue[0][0]
            while queue and queue[0][0] == now:
                idx = heappop(queue)[2]
                for e, p in out_rates[idx]:
                    tokens[e] += p
                    consumer = consumer_of[e]
                    if not actor_dirty[consumer]:
                        actor_dirty[consumer] = True
                        dirty_actors.append(consumer)
                ongoing[idx] -= 1
                completed[idx] += 1
                total += 1
                if not actor_dirty[idx]:
                    actor_dirty[idx] = True
                    dirty_actors.append(idx)
                pid = proc_of[idx]
                if pid >= 0:
                    for member in proc_members[pid]:
                        if not actor_dirty[member]:
                            actor_dirty[member] = True
                            dirty_actors.append(member)
        self._dirty_actors = dirty_actors
        self._seq = seq
        self.now = now
        return None if short else recorded


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------
def _is_strongly_connected(graph: SDFGraph) -> bool:
    """One SCC containing every actor (self-edges ignored)."""
    actors = [a.name for a in graph]
    if len(actors) <= 1:
        return True
    forward: Dict[str, List[str]] = {a: [] for a in actors}
    backward: Dict[str, List[str]] = {a: [] for a in actors}
    for e in graph.edges:
        if e.src != e.dst:
            forward[e.src].append(e.dst)
            backward[e.dst].append(e.src)

    def reaches_all(adjacency: Dict[str, List[str]]) -> bool:
        seen = {actors[0]}
        stack = [actors[0]]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(actors)

    return reaches_all(forward) and reaches_all(backward)


class ThroughputEngine:
    """Tier-picking throughput analyzer for one graph structure.

    Construction validates the graph and resolves the *structural* tier
    policy once (is the analytic tier expressible at all?); the
    adaptive probe in :meth:`analyze` then decides per call whether to
    escalate to it.  Every call reuses the built analysis stack --
    like :class:`~repro.sdf.throughput.ThroughputAnalyzer`, in-place
    mutation of ``initial_tokens`` between calls is honoured by every
    tier (the simulators re-read tokens on reset; the analytic tier
    re-expands from the live edge objects).

    Parameters mirror :func:`repro.sdf.throughput.analyze_throughput`
    plus ``mode``, one of :data:`ENGINE_MODES`, and ``repetition``, the
    graph's repetition vector when the caller already holds it (it
    depends on rates only, so token mutation never stales it).
    """

    def __init__(
        self,
        graph: SDFGraph,
        auto_concurrency: Optional[int] = 1,
        processor_of: Optional[Dict[str, str]] = None,
        static_order: Optional[Dict[str, Sequence[str]]] = None,
        reference_actor: Optional[str] = None,
        max_iterations: int = 10_000,
        mode: str = "auto",
        repetition: Optional[Dict[str, int]] = None,
    ) -> None:
        self.mode = normalize_engine_mode(mode)
        validate_graph(graph)
        self.graph = graph
        self.max_iterations = max_iterations
        self._auto_concurrency = auto_concurrency
        self._processor_of = processor_of
        self._static_order = static_order
        self._reference_actor = reference_actor
        self._q = (
            repetition if repetition is not None
            else repetition_vector(graph)
        )
        self._strongly_connected = _is_strongly_connected(graph)
        self._hsdf_units = 0  # set by the eligibility check below
        self._decline = self._analytic_decline_reason()
        self._vector_sim: Optional[_VectorizedCore] = None
        self._vector_ref: Optional[Tuple[int, int]] = None
        self._analyzer: Optional[ThroughputAnalyzer] = None

    # -- tier policy ---------------------------------------------------
    def _analytic_decline_reason(self) -> Optional[str]:
        """Why the analytic tier is OFF for this graph, or None."""
        if self._auto_concurrency != 1:
            return (
                "auto-concurrency != 1 (the HSDF transform models "
                "sequential actors)"
            )
        if self._static_order:
            return (
                "static-order schedules are not expressible in the "
                "HSDF transform"
            )
        if self._processor_of:
            members: Dict[str, List[str]] = {}
            for actor, proc in self._processor_of.items():
                members.setdefault(proc, []).append(actor)
            shared = sorted(
                p for p, actors in members.items() if len(actors) > 1
            )
            if shared:
                return (
                    f"processor(s) {', '.join(shared)} time-share "
                    "multiple actors"
                )
            for actor in self._processor_of:
                if self.graph.actor(actor).concurrency not in (None, 1):
                    return (
                        f"binding serializes actor {actor!r} below its "
                        "concurrency cap"
                    )
        if not self._strongly_connected:
            return (
                "graph is not strongly connected; channels without "
                "feedback diverge under self-timed execution"
            )
        copies = sum(self._q.values())
        if copies > MAX_HSDF_COPIES:
            return f"HSDF expansion too large ({copies} actor copies)"
        work = sum(
            self._q[e.dst] * e.consumption for e in self.graph.edges
        )
        if work > MAX_HSDF_WORK:
            return (
                f"HSDF expansion too large ({work} token dependencies)"
            )
        self._hsdf_units = copies + work
        return None

    def _probe_iterations(self) -> int:
        """Probe length scaled to the estimated analytic cost.

        ``_hsdf_units`` estimates the transform + MCM cost;
        ``actors + edges`` estimates the cost of one simulated
        iteration.  See :data:`PROBE_WORK_FACTOR`.
        """
        graph_units = len(self.graph) + len(self.graph.edges)
        return max(
            PROBE_ITERATIONS,
            PROBE_WORK_FACTOR * self._hsdf_units // graph_units,
        )

    @property
    def analytic_decline_reason(self) -> Optional[str]:
        """Why ``auto`` will not use the analytic tier (None: it will)."""
        return self._decline

    # -- analysis ------------------------------------------------------
    def analyze(
        self, max_iterations: Optional[int] = None
    ) -> ThroughputResult:
        """One throughput analysis from the graph's current tokens.

        Semantics (errors, messages, observable ordering) match
        :meth:`repro.sdf.throughput.ThroughputAnalyzer.analyze`; the
        returned result additionally carries ``tier`` and
        ``tier_reason``.  A dead graph raises
        :class:`~repro.exceptions.DeadlockError` with the
        :func:`~repro.sdf.deadlock.deadlock_report` text before any
        other error, and counts no tier.
        """
        if max_iterations is None:
            max_iterations = self.max_iterations
        if self.mode == "analytic":
            self._require_live()
            if self._decline is not None:
                raise EngineUnsupportedError(
                    f"analytic engine unavailable for "
                    f"{self.graph.name!r}: {self._decline}"
                )
            obs.inc("engine.analytic")
            result = self._analyze_analytic(budgeted=False)
        elif self.mode == "vectorized":
            result = self._simulated(
                "vectorized", self._analyze_vectorized, max_iterations
            )
        elif self.mode == "reference":
            result = self._simulated(
                "reference", self._analyze_reference, max_iterations
            )
        elif self._decline is not None:
            result = self._simulated(
                "vectorized", self._analyze_vectorized, max_iterations
            )
            return replace(result, tier_reason=self._decline)
        else:
            return self._analyze_auto(max_iterations)
        return replace(
            result, tier_reason=f"engine mode {self.mode!r} forced"
        )

    def _analyze_auto(self, max_iterations: int) -> ThroughputResult:
        # Adaptive probe: a state space that recurs before the simulation
        # has spent about the analytic tier's estimated cost is cheaper
        # to simulate than to transform; one that does not is exactly
        # where simulation cost can explode.  A probe that fails counts
        # no tier; one that runs out of iterations escapes _simulated
        # only on a live graph, which the analytic tier needs.
        probe = min(self._probe_iterations(), max_iterations)
        try:
            result = self._simulated(None, self._analyze_vectorized, probe)
        except UnboundedExecutionError:
            pass
        else:
            obs.inc("engine.vectorized")
            return replace(result, tier_reason=(
                f"state space recurred within the {probe}-iteration "
                "probe; simulation is cheaper than the HSDF transform"
            ))
        try:
            result = self._analyze_analytic(budgeted=True)
        except CycleRatioBudgetError:
            obs.inc("engine.vectorized")
            result = self._analyze_vectorized(max_iterations)
            return replace(result, tier_reason=(
                "cycle-ratio iteration exceeded its relaxation budget; "
                "fell back to the vectorized simulation"
            ))
        obs.inc("engine.analytic")
        return replace(result, tier_reason=(
            f"state space outlived the {probe}-iteration probe"
        ))

    # Liveness comes from the run.  A simulated analysis that returns has
    # found a recurrent state: equal token counts and equal in-flight
    # firings at two iteration boundaries.  Between the two, every actor
    # started as many firings as it completed, so the firing counts solve
    # the balance equations; in a connected graph (validate_graph rejects
    # any other) that makes them a whole multiple k >= 1 of the
    # repetition vector.  Every actor therefore fired at least q[a] times
    # from the initial tokens, and the first q[a] firings of each, in run
    # order, are an untimed iteration: the graph is live, and the success
    # path needs no check.  A failed run may be a deadlock's symptom, so
    # only then does deadlock_report pick the error.  In a graph that is
    # not strongly connected a live upstream part can keep firing while a
    # dead reference actor never completes an iteration, so the run would
    # not end: such graphs are checked before the run.
    def _simulated(
        self,
        tier: Optional[str],
        run: Callable[[int], ThroughputResult],
        max_iterations: int,
    ) -> ThroughputResult:
        """Run a simulated tier, counting ``engine.<tier>`` unless the
        graph turns out dead."""
        if not self._strongly_connected:
            self._require_live()
        try:
            result = run(max_iterations)
        except ReproError:
            self._require_live()
            if tier is not None:
                obs.inc(f"engine.{tier}")
            raise
        if tier is not None:
            obs.inc(f"engine.{tier}")
        return result

    def _require_live(self) -> None:
        report = deadlock_report(self.graph)
        if report is not None:
            raise DeadlockError(report)

    def _resolve_reference(self) -> str:
        ref = self._reference_actor or self.graph.actors[0].name
        if ref not in self.graph:
            raise SimulationError(
                f"reference actor {ref!r} not in graph"
            )
        return ref

    def _analyze_analytic(self, budgeted: bool = True) -> ThroughputResult:
        # The reference actor does not influence the MCM, but an unknown
        # one is still an error (historic contract).
        self._resolve_reference()
        # Re-expand per call: the expansion embeds initial tokens, which
        # callers mutate in place between calls; the eligibility gate
        # bounds the expansion cost.
        hsdf = to_hsdf(self.graph)
        max_relaxations = (
            MCM_RELAXATION_FACTOR * (len(hsdf) + len(hsdf.edges))
            if budgeted else None
        )
        mcm = maximum_cycle_mean(hsdf, max_relaxations)
        if mcm is None:
            # Unreachable for a strongly connected graph (the sequential
            # actor cycles alone close a loop); kept as a typed error for
            # defense in depth.
            raise EngineUnsupportedError(
                f"analytic engine found no cycle in {self.graph.name!r}; "
                "throughput is not cycle-limited"
            )
        if mcm == 0:
            raise SimulationError(
                f"graph {self.graph.name!r} has only zero-time cycles; "
                "iterations complete in zero time -- throughput is "
                "unbounded"
            )
        throughput = 1 / mcm
        # The analytic tier proves the long-run rate directly; the
        # synthesized periodic phase is the smallest one realizing it
        # (state-space tiers may report a longer concrete phase).
        return ThroughputResult(
            throughput=throughput,
            period=throughput.denominator,
            iterations_per_period=throughput.numerator,
            transient_iterations=0,
            tier="analytic",
        )

    def _analyze_vectorized(self, max_iterations: int) -> ThroughputResult:
        sim = self._vector_sim
        if sim is None:
            # Historic ordering: simulator construction errors surface
            # before the reference-actor check.
            sim = _VectorizedCore(
                self.graph,
                auto_concurrency=self._auto_concurrency,
                processor_of=self._processor_of,
                static_order=self._static_order,
            )
            self._vector_sim = sim
        else:
            sim.reset()
        if self._vector_ref is None:
            ref = self._resolve_reference()
            self._vector_ref = (sim._actor_index[ref], self._q[ref])
        ref_idx, q_ref = self._vector_ref
        return sim.run_throughput(ref_idx, q_ref, max_iterations)

    def _analyze_reference(self, max_iterations: int) -> ThroughputResult:
        if self._analyzer is None:
            self._analyzer = ThroughputAnalyzer(
                self.graph,
                auto_concurrency=self._auto_concurrency,
                processor_of=self._processor_of,
                static_order=self._static_order,
                reference_actor=self._reference_actor,
                max_iterations=self.max_iterations,
            )
        return self._analyzer.analyze(max_iterations=max_iterations)
