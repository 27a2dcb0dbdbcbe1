"""Static-order schedule construction.

MAMPS tiles run a static-order scheduler -- "a lookup table" (Section 6.3).
The orders are derived the SDF3 way: execute the bound graph self-timed
under the resource binding (greedy, no orders yet) until every application
actor has started as often as one iteration needs, and record, per tile,
the order in which application actors start.  List scheduling via
simulation inherits all data dependencies, so the recorded order is
guaranteed executable; fixing it afterwards can only delay firings
relative to the greedy run, and the subsequent throughput analysis of the
ordered graph provides the actual guarantee.

The run is :func:`repro.sdf.engine.greedy_start_order`: the vectorized
core counts down the actors still short of their starts and records only
those starts -- no trace, no per-step predicate.  Firings still running
when the run stops form each tile's tail, listed per actor in
application-actor order; that is their start order unless two or more
zero-time firings are in flight on one tile.
"""

from __future__ import annotations

from typing import Dict, List

from repro.exceptions import DeadlockError, MappingError
from repro.mapping.bound_graph import BoundGraph
from repro.sdf.engine import greedy_start_order


def build_static_orders(bound: BoundGraph) -> Dict[str, List[str]]:
    """Derive one-iteration static orders for every tile of ``bound``.

    Returns tile name -> cyclic actor order (length = sum of repetition
    counts of the tile's application actors).  Raises
    :class:`DeadlockError` when the greedy execution cannot complete an
    iteration (usually: buffers too small), so the flow can grow buffers
    and retry.
    """
    q = bound.repetition_vector()
    targets = {a: q[a] for a in bound.app_actors}
    starts = greedy_start_order(
        bound.graph,
        bound.processor_of,
        targets,
        max_firings=max(sum(q.values()) * 3, 100_000),  # generous bound
    )
    if starts is None:
        raise DeadlockError(
            f"greedy execution of {bound.graph.name!r} could not complete "
            "one iteration while deriving static orders; buffer capacities "
            "are likely too small"
        )

    orders: Dict[str, List[str]] = {tile: [] for tile in bound.tiles()}
    unfinished: Dict[str, int] = {a: 0 for a in bound.app_actors}
    for actor, finished in starts:
        if finished:
            orders[bound.processor_of[actor]].append(actor)
        else:
            unfinished[actor] += 1
    # The iteration's tail: starts still in flight, in actor order.
    for actor, count in unfinished.items():
        orders[bound.processor_of[actor]].extend([actor] * count)

    for tile, order in orders.items():
        expected = sum(q[a] for a in bound.app_actors_on(tile))
        if len(order) != expected:
            raise MappingError(
                f"static order of {tile!r} has {len(order)} entries, "
                f"expected {expected} -- scheduling bug"
            )
    return orders
