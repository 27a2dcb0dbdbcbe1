"""Differential tests: static orders from the vectorized core's
start-order run vs. the frozen trace-based derivation.

:func:`repro.mapping.scheduling.build_static_orders` derives each tile's
lookup table from :func:`repro.sdf.engine.greedy_start_order`.  The
oracle (``static_order_oracle.py`` next to this file) is the derivation
it replaced: a traced, predicate-polled run of the full simulator whose
completed firings are sorted by ``(start, end)``.  Both must give the
same orders -- or the same :class:`DeadlockError` text -- on every bound
graph the mapping flow asks about: every round of every application of
the committed corpus (``examples/corpus/``) and of the generated band
(sized by ``FUZZ_SCENARIOS`` like ``tests/scenarios/test_fuzz_flow.py``,
under both buffer policies), each also with halved credits, plus
hand-built graphs for the tail rule, the stop rule, starved buffers and
the ``max_firings`` bound.
"""

import os
from fractions import Fraction
from pathlib import Path

import pytest

from repro.exceptions import DeadlockError, SimulationError
from repro.flow.spec import load_flow_spec
from repro.mapping import MappingPipeline, build_static_orders
from repro.mapping.bound_graph import BoundGraph
from repro.scenarios import generate_scenarios, scenario_flow_spec
from repro.sdf import SDFGraph
from repro.sdf.engine import _VectorizedCore

from tests.mapping.static_order_oracle import traced_static_orders

CORPUS = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "corpus").glob(
        "*.toml"
    )
)
SWEEP = max(5, int(os.environ.get("FUZZ_SCENARIOS", "25")))
SCENARIOS = generate_scenarios("all", SWEEP, seed=2024)


def _outcome(derive, bound):
    try:
        return derive(bound)
    except DeadlockError as error:
        return f"DeadlockError: {error}"


def _halved_credits(bound):
    """``bound`` with every token off the actor self-edges halved: some
    such graphs starve short of an iteration, others schedule
    differently."""
    graph = bound.graph.copy()
    for edge in graph.edges:
        if edge.src != edge.dst:
            edge.initial_tokens //= 2
    return BoundGraph(
        graph=graph,
        processor_of=bound.processor_of,
        app_actors=bound.app_actors,
    )


class DifferentialScheduling:
    """Scheduling stage that checks every derivation against the oracle,
    on the bound graph as given and with halved credits, and then
    carries on with the fast path's answer."""

    name = "static-order"

    def __init__(self):
        self.derivations = 0

    def build(self, bound):
        for graph in (bound, _halved_credits(bound)):
            expected = _outcome(traced_static_orders, graph)
            assert _outcome(build_static_orders, graph) == expected
            self.derivations += 1
        return build_static_orders(bound)


def _map_checked(spec, buffer_policy=None, **overrides):
    """Map every application of ``spec`` through the checking stage."""
    checker = DifferentialScheduling()
    arch = spec.build_architecture()
    for app_spec, app in zip(spec.apps, spec.build_applications()):
        stages = spec.strategies.build_pipeline()
        pipeline = MappingPipeline(
            binding=stages.binding,
            routing=stages.routing,
            buffer_policy=buffer_policy or stages.buffer_policy,
            scheduling=checker,
            seed=stages.seed,
        )
        run = {
            "constraint": spec.constraint_for(app_spec),
            "fixed": spec.fixed_for(app_spec),
            "effort": spec.effort,
            **overrides,
        }
        pipeline.run(app, arch, **run)
    return checker


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_orders_match_the_traced_derivation(path):
    checker = _map_checked(load_flow_spec(path))
    assert checker.derivations >= 2


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_orders_match_across_buffer_growth_rounds(path):
    """An unmeetable constraint runs every buffer-growth round on the
    one bound graph (its repetition vector solved once)."""
    checker = _map_checked(
        load_flow_spec(path), constraint=Fraction(1), max_buffer_rounds=1
    )
    assert checker.derivations >= 4


@pytest.mark.parametrize("buffer_policy", ["linear", "exponential"])
@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=[s.name for s in SCENARIOS]
)
def test_generated_orders_match_the_traced_derivation(
    scenario, buffer_policy
):
    checker = _map_checked(scenario_flow_spec(scenario), buffer_policy)
    assert checker.derivations >= 2


# ----------------------------------------------------------------------
# hand-built bound graphs
# ----------------------------------------------------------------------
def _assert_same(bound):
    expected = _outcome(traced_static_orders, bound)
    assert _outcome(build_static_orders, bound) == expected
    return expected


def test_zero_time_tail_follows_application_actor_order():
    """Two zero-time firings still in flight on one tile when the run
    stops: the tail lists them in application-actor order (B before A),
    not in start order (A before B)."""
    g = SDFGraph("tail")
    g.add_actor("P", execution_time=3)
    g.add_actor("A", execution_time=0)
    g.add_actor("B", execution_time=0)
    g.add_edge("p2a", "P", "A")
    g.add_edge("p2b", "P", "B")
    bound = BoundGraph(
        graph=g,
        processor_of={"P": "tile1", "A": "tile0", "B": "tile0"},
        app_actors=("P", "B", "A"),
    )
    assert _assert_same(bound) == {"tile1": ["P"], "tile0": ["B", "A"]}


def test_zero_time_firings_that_finished_keep_start_order():
    """Zero-time firings that completed before the stop are listed in
    start order, ahead of the tail."""
    g = SDFGraph("finished")
    g.add_actor("P", execution_time=3)
    g.add_actor("A", execution_time=0)
    g.add_actor("B", execution_time=0)
    g.add_actor("C", execution_time=2)
    g.add_edge("p2a", "P", "A")
    g.add_edge("p2b", "P", "B")
    g.add_edge("b2c", "B", "C")
    bound = BoundGraph(
        graph=g,
        processor_of={"P": "tile1", "A": "tile0", "B": "tile0", "C": "tile0"},
        app_actors=("P", "C", "B", "A"),
    )
    assert _assert_same(bound) == {
        "tile1": ["P"],
        "tile0": ["A", "B", "C"],
    }


def test_stop_is_checked_only_after_a_completion_batch():
    """Every start is made at t=0, but the run still completes the first
    batch before it stops, so both firings are finished and keep their
    start order (A before B) instead of forming the tail (B before A)."""
    g = SDFGraph("first-batch")
    g.add_actor("A", execution_time=0)
    g.add_actor("B", execution_time=0)
    g.add_edge("a2b", "A", "B", initial_tokens=1)
    bound = BoundGraph(
        graph=g,
        processor_of={"A": "tile0", "B": "tile0"},
        app_actors=("B", "A"),
    )
    assert _assert_same(bound) == {"tile0": ["A", "B"]}


def test_buffers_too_small_to_start_at_all():
    g = SDFGraph("starved")
    g.add_actor("A", execution_time=2)
    g.add_actor("B", execution_time=2)
    g.add_edge("a2b", "A", "B")
    g.add_edge("b2a", "B", "A")  # a cycle without a token
    bound = BoundGraph(
        graph=g,
        processor_of={"A": "tile0", "B": "tile1"},
        app_actors=("A", "B"),
    )
    outcome = _assert_same(bound)
    assert outcome.startswith("DeadlockError: greedy execution of 'starved'")


def test_buffers_too_small_to_finish_an_iteration():
    """The run makes progress, then quiesces short of one iteration."""
    g = SDFGraph("tight")
    g.add_actor("A", execution_time=2)
    g.add_actor("B", execution_time=3)
    g.add_edge("a2b", "A", "B", production=1, consumption=2)
    g.add_edge("buf__a2b", "B", "A", production=2, consumption=1,
               initial_tokens=1, implicit=True)
    bound = BoundGraph(
        graph=g,
        processor_of={"A": "tile0", "B": "tile0"},
        app_actors=("A", "B"),
    )
    assert _assert_same(bound).startswith("DeadlockError")
    with pytest.raises(DeadlockError, match="buffer capacities"):
        build_static_orders(bound)


def test_run_stops_at_the_max_firings_bound():
    """A free-running actor keeps completing firings while the
    application starves: the run gives up at 100 000 completions."""
    g = SDFGraph("bounded")
    g.add_actor("X", execution_time=1)
    g.add_actor("A", execution_time=2)
    g.add_actor("B", execution_time=2)
    g.add_edge("x2a", "X", "A", production=1, consumption=1)
    g.add_edge("a2b", "A", "B")
    g.add_edge("b2a", "B", "A", production=2, consumption=2,
               initial_tokens=1, implicit=True)
    processor_of = {"X": "tile2", "A": "tile0", "B": "tile1"}
    bound = BoundGraph(
        graph=g, processor_of=processor_of, app_actors=("A", "B")
    )
    assert _assert_same(bound).startswith("DeadlockError")
    # It is the bound that stops the run, not quiescence.
    core = _VectorizedCore(g, processor_of=processor_of)
    assert core.run_start_order([0, 1, 1], 50) is None
    assert core.completed == {"X": 50, "A": 0, "B": 0}


def test_start_order_run_needs_a_fresh_unordered_core():
    g = SDFGraph("ordered")
    g.add_actor("A", execution_time=1)
    g.add_edge("selfA", "A", "A", initial_tokens=1, implicit=True)
    ordered = _VectorizedCore(
        g, processor_of={"A": "tile0"}, static_order={"tile0": ["A"]}
    )
    with pytest.raises(SimulationError, match="derives static orders"):
        ordered.run_start_order([1], 10)
    core = _VectorizedCore(g, processor_of={"A": "tile0"})
    assert core.run_start_order([2], 10) == [0, 0]
    with pytest.raises(SimulationError, match="derives static orders"):
        core.run_start_order([2], 10)
    core.reset()
    assert core.run_start_order([1], 10) == [0]
