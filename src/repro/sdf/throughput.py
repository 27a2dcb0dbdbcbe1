"""State-space throughput analysis of SDF graphs.

Implements the approach of Ghamarian et al. [3] as used by SDF3: execute the
graph self-timed; because a consistent, deadlock-free, bounded SDF graph has
finitely many execution states, the execution is eventually periodic.  When
the time-normalized state at an iteration boundary recurs, the throughput of
the periodic phase -- and therefore the long-term average throughput -- is::

    iterations in period / period length      [graph iterations per cycle]

The analysis supports processor bindings and static-order schedules through
the underlying :class:`~repro.sdf.simulation.SelfTimedSimulator`, which is
how the mapping flow obtains the *guaranteed* throughput of a mapped
application (the "worst-case analysis" line of Fig. 6).

Boundedness matters: a graph whose channels grow without limit (e.g. a
pipeline without buffer back-edges) never revisits a state.  The analysis
detects this by bounding the explored iterations and raising
:class:`UnboundedExecutionError`; callers should add buffer-size back-edges
(:mod:`repro.sdf.buffers`) first, which is also what any real implementation
does.

Repeated analyses of one graph structure (buffer sizing tries dozens of
initial-token variations of the same bounded graph) should go through
:class:`ThroughputAnalyzer`: it validates the graph and builds the
simulator once, and each :meth:`ThroughputAnalyzer.analyze` call resets
the simulator -- which re-reads initial tokens -- instead of recreating
the whole analysis stack.  :func:`analyze_throughput` is the one-shot
convenience wrapper over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence

from repro.exceptions import DeadlockError, GraphError, SimulationError
from repro.sdf.deadlock import deadlock_report
from repro.sdf.graph import SDFGraph, validate_graph
from repro.sdf.repetition import repetition_vector
from repro.sdf.simulation import SelfTimedSimulator


class UnboundedExecutionError(SimulationError):
    """Raised when no periodic phase is found within the iteration budget.

    Almost always means the graph has unbounded channels; add buffer
    back-edges before analyzing.
    """


@dataclass(frozen=True)
class ThroughputResult:
    """Outcome of a throughput analysis.

    Attributes
    ----------
    throughput:
        Graph iterations per clock cycle (exact rational).
    period:
        Length of the periodic phase in cycles.
    iterations_per_period:
        Graph iterations completed in one period.
    transient_iterations:
        Iterations executed before the periodic phase was entered.
    tier:
        Which engine tier produced the result (``analytic`` /
        ``vectorized`` / ``reference``; see :mod:`repro.sdf.engine`).
        Metadata only -- excluded from equality, which compares the
        analysis outcome.
    tier_reason:
        Why that tier was chosen when it was not the first choice (the
        ``auto`` fallback reason, or a note that the mode was forced);
        None when the preferred tier ran.  Metadata only.
    """

    throughput: Fraction
    period: int
    iterations_per_period: int
    transient_iterations: int
    tier: str = field(default="reference", compare=False)
    tier_reason: Optional[str] = field(default=None, compare=False)

    def iterations_in(self, cycles: int) -> Fraction:
        """Long-term average iterations completed in ``cycles`` cycles."""
        return self.throughput * cycles

    def cycles_per_iteration(self) -> Fraction:
        if self.throughput == 0:
            raise ZeroDivisionError("zero throughput")
        return 1 / self.throughput

    def per_mega_cycle(self) -> float:
        """Iterations per 10^6 cycles -- the unit of Fig. 6's y-axis
        ("MCUs per MHz per second")."""
        return float(self.throughput * 1_000_000)


class ThroughputAnalyzer:
    """Reusable state-space analyzer for one graph structure.

    Validation, the repetition vector and the simulator's integer-indexed
    adjacency are computed once in the constructor; every :meth:`analyze`
    call then resets the simulator and re-runs the periodic-phase
    detection.  Because the simulator's reset re-reads each edge's
    ``initial_tokens`` from the graph, callers may mutate initial token
    counts in place between calls (the buffer-sizing warm path and the
    mapping flow's buffer-growth loop both do) and still get exact
    results, without copying the graph or rebuilding the analysis stack.

    Parameters mirror :func:`analyze_throughput`; ``max_iterations`` set
    here is the default budget for every :meth:`analyze` call.
    """

    def __init__(
        self,
        graph: SDFGraph,
        auto_concurrency: Optional[int] = 1,
        processor_of: Optional[Dict[str, str]] = None,
        static_order: Optional[Dict[str, Sequence[str]]] = None,
        reference_actor: Optional[str] = None,
        max_iterations: int = 10_000,
    ) -> None:
        validate_graph(graph)
        self.graph = graph
        self.max_iterations = max_iterations
        self._auto_concurrency = auto_concurrency
        self._processor_of = processor_of
        self._static_order = static_order
        self._q = repetition_vector(graph)
        # The simulator and the reference actor are resolved lazily on the
        # first analyze(), after its deadlock pre-check, so a deadlocked
        # graph still reports DeadlockError before any construction or
        # reference-actor error (same observable order as the historic
        # one-shot function).
        self._reference_actor = reference_actor
        self.reference_actor: Optional[str] = None
        self._q_ref: Optional[int] = None
        self._sim: Optional[SelfTimedSimulator] = None

    def analyze(
        self,
        max_iterations: Optional[int] = None,
        check_deadlock: bool = True,
    ) -> ThroughputResult:
        """Run one state-space analysis from the graph's current initial
        tokens.

        ``check_deadlock=False`` skips the untimed liveness pre-check (the
        self-timed execution still detects a blocked graph and raises
        :class:`~repro.exceptions.DeadlockError`, only with a less specific
        message).  This analyzer is the reference tier and the oracle, so
        it checks eagerly by default; :class:`~repro.sdf.engine.
        ThroughputEngine` instead derives liveness from its run.

        Raises
        ------
        DeadlockError
            If the graph deadlocks (throughput would be 0 after a finite
            run).
        UnboundedExecutionError
            If no periodic phase appears within the iteration budget.
        """
        if max_iterations is None:
            max_iterations = self.max_iterations
        if check_deadlock:
            report = deadlock_report(self.graph)
            if report is not None:
                raise DeadlockError(report)

        if self._sim is None:
            sim = SelfTimedSimulator(
                self.graph,
                auto_concurrency=self._auto_concurrency,
                processor_of=self._processor_of,
                static_order=self._static_order,
            )
            ref = self._reference_actor or self.graph.actors[0].name
            if ref not in self.graph:
                raise SimulationError(
                    f"reference actor {ref!r} not in graph"
                )
            self.reference_actor = ref
            self._q_ref = self._q[ref]
            self._sim = sim
        else:
            self._sim.reset()
        sim = self._sim
        ref = self.reference_actor
        q_ref = self._q_ref
        graph = self.graph

        seen: Dict[tuple, tuple] = {}  # state -> (iterations, time)
        iterations_done = 0

        while iterations_done < max_iterations:
            finished = sim.step()
            if not finished:
                # Quiescent: a deadlock-free graph only quiesces under a
                # static order that blocks -- treat as deadlock of the
                # mapped graph.
                raise DeadlockError(
                    f"mapped graph {graph.name!r} blocked after "
                    f"{iterations_done} iteration(s) at t={sim.now}; the "
                    "static-order schedule or buffer sizes admit no "
                    "execution"
                )
            completed_iterations = sim.completed_of(ref) // q_ref
            if completed_iterations > iterations_done:
                iterations_done = completed_iterations
                key = sim.state_key()
                if key in seen:
                    prev_iterations, prev_time = seen[key]
                    period = sim.now - prev_time
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
                    )
                seen[key] = (iterations_done, sim.now)

        raise UnboundedExecutionError(
            f"no periodic phase within {max_iterations} iterations of "
            f"{graph.name!r}; channels likely grow without bound -- add "
            "buffer back-edges (repro.sdf.buffers.add_buffer_edges) before "
            "analyzing"
        )


def analyze_throughput(
    graph: SDFGraph,
    auto_concurrency: Optional[int] = 1,
    processor_of: Optional[Dict[str, str]] = None,
    static_order: Optional[Dict[str, Sequence[str]]] = None,
    reference_actor: Optional[str] = None,
    max_iterations: int = 10_000,
) -> ThroughputResult:
    """Compute the self-timed throughput of ``graph``.

    Parameters mirror :class:`SelfTimedSimulator`; ``reference_actor``
    selects the actor whose completed firings count iterations (any actor
    gives the same long-term result; default is the first actor).

    One-shot convenience wrapper over the tiered
    :class:`~repro.sdf.engine.ThroughputEngine`, which picks the tier;
    construct the engine directly when analyzing the same graph
    structure repeatedly or to pin a tier (``mode=``).

    Raises
    ------
    DeadlockError
        If the graph deadlocks (throughput would be 0 after a finite run).
    UnboundedExecutionError
        If no periodic phase appears within ``max_iterations`` iterations.
    """
    from repro.sdf.engine import ThroughputEngine

    return ThroughputEngine(
        graph,
        auto_concurrency=auto_concurrency,
        processor_of=processor_of,
        static_order=static_order,
        reference_actor=reference_actor,
        max_iterations=max_iterations,
    ).analyze()


def processing_throughput_bound(graph: SDFGraph) -> Fraction:
    """Structural upper bound on throughput from actor workloads alone.

    With auto-concurrency 1, actor ``a`` needs ``q[a] * t_a`` cycles of its
    own time per iteration, so no schedule can beat
    ``1 / max_a(q[a] * t_a)``.  Useful for sizing platforms before mapping.
    """
    if len(graph) == 0:
        raise GraphError(
            f"graph {graph.name!r} has no actors; the processing bound "
            "is undefined"
        )
    q = repetition_vector(graph)
    worst = max(
        (q[a.name] * a.execution_time for a in graph), default=0
    )
    if worst == 0:
        raise SimulationError(
            "all actors have zero execution time; bound is infinite"
        )
    return Fraction(1, worst)
