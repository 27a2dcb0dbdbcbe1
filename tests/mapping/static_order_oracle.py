"""Frozen trace-based static-order derivation: the differential oracle.

This is the derivation :func:`repro.mapping.scheduling.build_static_orders`
used before it moved onto the vectorized core's start-order run: drive
the full-featured simulator with ``record_trace=True`` and a per-step
``stop_when`` predicate, sort the completed firings by ``(start, end)``
and append the firings still in flight per actor.  It is kept only so
the differential tests can check the fast path against it; do not
optimise it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.exceptions import DeadlockError, MappingError
from repro.mapping.bound_graph import BoundGraph
from repro.sdf.engine import build_simulator
from repro.sdf.repetition import repetition_vector
from repro.sdf.simulation import SelfTimedSimulator


def traced_static_orders(bound: BoundGraph) -> Dict[str, List[str]]:
    q = repetition_vector(bound.graph)
    sim = build_simulator(
        bound.graph,
        processor_of=bound.processor_of,
        record_trace=True,
    )

    targets = {a: q[a] for a in bound.app_actors}

    def one_iteration_started(s: SelfTimedSimulator) -> bool:
        return all(s.started_of(a) >= n for a, n in targets.items())

    total_needed = sum(q.values()) * 3
    sim.run(
        stop_when=one_iteration_started,
        max_firings=max(total_needed, 100_000),
    )
    if not one_iteration_started(sim):
        raise DeadlockError(
            f"greedy execution of {bound.graph.name!r} could not complete "
            "one iteration while deriving static orders; buffer capacities "
            "are likely too small"
        )

    orders: Dict[str, List[str]] = {tile: [] for tile in bound.tiles()}
    counted: Dict[str, int] = {a: 0 for a in bound.app_actors}
    for firing in sorted(sim.trace.firings, key=lambda f: (f.start, f.end)):
        actor = firing.actor
        if actor not in targets:
            continue
        if counted[actor] >= targets[actor]:
            continue
        counted[actor] += 1
        orders[bound.processor_of[actor]].append(actor)

    for actor, needed in targets.items():
        while counted[actor] < needed:
            counted[actor] += 1
            orders[bound.processor_of[actor]].append(actor)

    for tile, order in orders.items():
        expected = sum(q[a] for a in bound.app_actors_on(tile))
        if len(order) != expected:
            raise MappingError(
                f"static order of {tile!r} has {len(order)} entries, "
                f"expected {expected} -- scheduling bug"
            )
    return orders
