"""Frozen full-rescan self-timed executor: the differential oracle.

This is the straightforward O(actors x edges)-per-step implementation the
incremental engine in :mod:`repro.sdf.simulation` replaced.  It re-scans
the whole graph after every event and keys its state on name-sorted
dictionaries -- slow, but simple enough to audit by eye.  It lives with
the tests, outside the package, as the *oracle* for the differential
tests (``test_simulation_differential.py``, ``test_engine_differential.py``,
``test_liveness_differential.py``, the scenario fuzz sweep) and for the
simulation benchmark (``benchmarks/bench_sim_hotpath.py``): the
incremental engine must produce exactly the same traces, token peaks,
completion counts and throughput results on randomized graphs, bindings
and static orders.  Do not optimise it.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from fractions import Fraction

from repro.exceptions import DeadlockError, GraphError, SimulationError
from repro.sdf.graph import SDFGraph, validate_graph
from repro.sdf.repetition import repetition_vector
from repro.sdf.simulation import Firing, SimulationTrace


class ReferenceSelfTimedSimulator:
    """The retained full-rescan executor; see the module docstring.

    The constructor and public surface mirror
    :class:`repro.sdf.simulation.SelfTimedSimulator` (same parameters,
    same semantics); only the internals differ.
    """

    def __init__(
        self,
        graph: SDFGraph,
        auto_concurrency: Optional[int] = 1,
        processor_of: Optional[Dict[str, str]] = None,
        static_order: Optional[Dict[str, Sequence[str]]] = None,
        execution_time_of: Optional[Callable[[str, int], int]] = None,
        on_finish: Optional[Callable[[str, int], None]] = None,
        record_trace: bool = False,
    ) -> None:
        if auto_concurrency is not None and auto_concurrency < 1:
            raise GraphError("auto_concurrency must be >= 1 or None")
        self.graph = graph
        self.auto_concurrency = auto_concurrency
        self.processor_of = dict(processor_of or {})
        self.static_order = {
            proc: list(order) for proc, order in (static_order or {}).items()
        }
        self._execution_time_of = execution_time_of
        self._on_finish = on_finish
        self.record_trace = record_trace

        for proc, order in self.static_order.items():
            if not order:
                raise GraphError(f"static order for {proc!r} is empty")
            for actor in order:
                if actor not in graph:
                    raise GraphError(
                        f"static order for {proc!r} names unknown actor "
                        f"{actor!r}"
                    )
                if self.processor_of.get(actor) != proc:
                    raise GraphError(
                        f"actor {actor!r} appears in the static order of "
                        f"{proc!r} but is not bound to it"
                    )
        in_some_order = {
            a for order in self.static_order.values() for a in order
        }
        self._interleaved: Dict[str, List[str]] = {}
        for actor, proc in self.processor_of.items():
            if proc in self.static_order and actor not in in_some_order:
                self._interleaved.setdefault(proc, []).append(actor)

        for actor in graph:
            cap = (
                actor.concurrency
                if actor.concurrency is not None
                else auto_concurrency
            )
            if cap is None and not graph.in_edges(actor.name):
                raise GraphError(
                    f"actor {actor.name!r} has no input edges; unlimited "
                    "auto-concurrency would fire it infinitely often at "
                    "time 0 (add a self-edge or set a concurrency cap)"
                )

        self.reset()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to the graph's initial state at time 0."""
        self.now = 0
        self.tokens: Dict[str, int] = {
            e.name: e.initial_tokens for e in self.graph.edges
        }
        self._ongoing: Dict[str, int] = {a.name: 0 for a in self.graph}
        self._completed: Dict[str, int] = {a.name: 0 for a in self.graph}
        self._started: Dict[str, int] = {a.name: 0 for a in self.graph}
        self._queue: List[Tuple[int, int, str, int]] = []
        self._seq = 0
        self._proc_busy_until: Dict[str, int] = {}
        self._order_pos: Dict[str, int] = {
            proc: 0 for proc in self.static_order
        }
        self._trace = SimulationTrace(
            max_tokens={e.name: e.initial_tokens for e in self.graph.edges},
            completed_count={a.name: 0 for a in self.graph},
        )

    @property
    def trace(self) -> SimulationTrace:
        """The recorded trace, with ``completed_count`` refreshed
        (mirrors the incremental engine's access-time snapshot)."""
        return self._finalize_trace()

    @property
    def completed(self) -> Dict[str, int]:
        return dict(self._completed)

    @property
    def started(self) -> Dict[str, int]:
        return dict(self._started)

    def ongoing_firings(self) -> List[Tuple[str, int]]:
        return sorted(
            (actor, end - self.now) for end, _seq, actor, _start in self._queue
        )

    def state_key(self) -> Tuple:
        """Hashable, time-normalized execution state (name-sorted form)."""
        token_part = tuple(sorted(self.tokens.items()))
        firing_part = tuple(self.ongoing_firings())
        order_part = tuple(
            sorted(
                (proc, pos % len(self.static_order[proc]))
                for proc, pos in self._order_pos.items()
            )
        )
        return (token_part, firing_part, order_part)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _duration(self, actor: str) -> int:
        index = self._started[actor]
        if self._execution_time_of is not None:
            duration = self._execution_time_of(actor, index)
        else:
            duration = self.graph.actor(actor).execution_time
        if duration < 0:
            raise SimulationError(
                f"negative execution time for firing {index} of {actor!r}"
            )
        return duration

    def _concurrency_cap(self, actor: str) -> Optional[int]:
        per_actor = self.graph.actor(actor).concurrency
        if per_actor is not None:
            return per_actor
        return self.auto_concurrency

    def _is_ready(self, actor: str) -> bool:
        cap = self._concurrency_cap(actor)
        if cap is not None and self._ongoing[actor] >= cap:
            return False
        for edge in self.graph.in_edges(actor):
            if self.tokens[edge.name] < edge.consumption:
                return False
        return True

    def _proc_free(self, proc: str) -> bool:
        return self._proc_busy_until.get(proc, 0) <= self.now

    def _start_firing(self, actor: str) -> None:
        for edge in self.graph.in_edges(actor):
            self.tokens[edge.name] -= edge.consumption
        duration = self._duration(actor)
        end = self.now + duration
        self._started[actor] += 1
        self._ongoing[actor] += 1
        heapq.heappush(self._queue, (end, self._seq, actor, self.now))
        self._seq += 1
        proc = self.processor_of.get(actor)
        if proc is not None:
            self._proc_busy_until[proc] = end

    def _finish_firing(self, actor: str, start: int) -> None:
        for edge in self.graph.out_edges(actor):
            self.tokens[edge.name] += edge.production
            if self.tokens[edge.name] > self._trace.max_tokens[edge.name]:
                self._trace.max_tokens[edge.name] = self.tokens[edge.name]
        self._ongoing[actor] -= 1
        completed_index = self._completed[actor]
        self._completed[actor] += 1
        if self.record_trace:
            self._trace.firings.append(Firing(actor, start, self.now))
        if self._on_finish is not None:
            self._on_finish(actor, completed_index)

    def _start_all_ready(self) -> List[str]:
        """Start every firing allowed right now (full-graph rescan)."""
        started: List[str] = []
        progress = True
        while progress:
            progress = False
            for proc, order in self.static_order.items():
                while self._proc_free(proc):
                    interleaved = next(
                        (
                            a
                            for a in self._interleaved.get(proc, ())
                            if self._is_ready(a)
                        ),
                        None,
                    )
                    if interleaved is not None:
                        self._start_firing(interleaved)
                        started.append(interleaved)
                        progress = True
                        continue
                    actor = order[self._order_pos[proc] % len(order)]
                    if not self._is_ready(actor):
                        break
                    self._start_firing(actor)
                    self._order_pos[proc] += 1
                    started.append(actor)
                    progress = True
            for actor in self.graph:
                name = actor.name
                proc = self.processor_of.get(name)
                if proc is not None and proc in self.static_order:
                    continue  # handled above
                while self._is_ready(name) and (
                    proc is None or self._proc_free(proc)
                ):
                    self._start_firing(name)
                    started.append(name)
                    progress = True
        return started

    def step(self) -> List[Tuple[str, int]]:
        self._start_all_ready()
        if not self._queue:
            return []
        end = self._queue[0][0]
        self.now = end
        finished: List[Tuple[str, int]] = []
        while self._queue and self._queue[0][0] == end:
            _end, _seq, actor, start = heapq.heappop(self._queue)
            self._finish_firing(actor, start)
            finished.append((actor, end))
        self._start_all_ready()
        return finished

    def _finalize_trace(self) -> SimulationTrace:
        # Fresh handout with a private snapshot (mirrors the incremental
        # engine): earlier handouts never mutate retroactively.
        return SimulationTrace(
            firings=self._trace.firings,
            max_tokens=self._trace.max_tokens,
            completed_count=dict(self._completed),
        )

    def run(
        self,
        max_time: Optional[int] = None,
        max_firings: Optional[int] = None,
        stop_when: Optional[
            Callable[["ReferenceSelfTimedSimulator"], bool]
        ] = None,
    ) -> SimulationTrace:
        if max_time is None and max_firings is None and stop_when is None:
            raise SimulationError(
                "run() needs max_time, max_firings or stop_when; self-timed "
                "execution of a live graph never quiesces on its own"
            )
        while True:
            finished = self.step()
            if not finished:
                return self._finalize_trace()
            if max_time is not None and self.now >= max_time:
                return self._finalize_trace()
            if max_firings is not None and (
                sum(self._completed.values()) >= max_firings
            ):
                return self._finalize_trace()
            if stop_when is not None and stop_when(self):
                return self._finalize_trace()

    def is_quiescent(self) -> bool:
        if self._queue:
            return False
        for actor in self.graph:
            name = actor.name
            proc = self.processor_of.get(name)
            if proc is not None and proc in self.static_order:
                order = self.static_order[proc]
                next_actor = order[self._order_pos[proc] % len(order)]
                is_interleaved = name in self._interleaved.get(proc, ())
                if (next_actor == name or is_interleaved) and self._is_ready(
                    name
                ):
                    return False
            elif self._is_ready(name) and (
                proc is None or self._proc_free(proc)
            ):
                return False
        return True


def reference_analyze_throughput(
    graph: SDFGraph,
    auto_concurrency: Optional[int] = 1,
    processor_of: Optional[Dict[str, str]] = None,
    static_order: Optional[Dict[str, Sequence[str]]] = None,
    reference_actor: Optional[str] = None,
    max_iterations: int = 10_000,
):
    """The pre-incremental state-space throughput analysis, verbatim.

    Returns a :class:`repro.sdf.throughput.ThroughputResult`; used by the
    differential tests and the hot-path benchmark as the oracle against
    which :func:`repro.sdf.throughput.analyze_throughput` must agree
    exactly (same ``Fraction``, same period, same transient).
    """
    from repro.sdf.deadlock import deadlock_report
    from repro.sdf.throughput import (
        ThroughputResult,
        UnboundedExecutionError,
    )

    validate_graph(graph)
    q = repetition_vector(graph)

    report = deadlock_report(graph)
    if report is not None:
        raise DeadlockError(report)

    sim = ReferenceSelfTimedSimulator(
        graph,
        auto_concurrency=auto_concurrency,
        processor_of=processor_of,
        static_order=static_order,
    )

    ref = reference_actor or graph.actors[0].name
    if ref not in graph:
        raise SimulationError(f"reference actor {ref!r} not in graph")
    q_ref = q[ref]

    seen: Dict[tuple, tuple] = {}  # state -> (iterations, time)
    iterations_done = 0

    while iterations_done < max_iterations:
        finished = sim.step()
        if not finished:
            raise DeadlockError(
                f"mapped graph {graph.name!r} blocked after "
                f"{iterations_done} iteration(s) at t={sim.now}; the "
                "static-order schedule or buffer sizes admit no execution"
            )
        completed_iterations = sim.completed[ref] // q_ref
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
                        "iteration(s) in zero time; all cycle times are "
                        "zero -- throughput is unbounded"
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
        f"{graph.name!r}; channels likely grow without bound -- add buffer "
        "back-edges (repro.sdf.buffers.add_buffer_edges) before analyzing"
    )
