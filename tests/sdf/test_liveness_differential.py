"""Differential tests: the engine's liveness verdict vs. the eager oracle.

:class:`~repro.sdf.engine.ThroughputEngine` runs no liveness check on
the way to a result: a simulated run that finds a recurrent state has
proven the graph live, and only a failed run (or the analytic tier,
which cannot see a deadlock) asks
:func:`~repro.sdf.deadlock.deadlock_report`.  The frozen oracle
(``simulation_reference.py`` next to this file) checks eagerly before it
simulates.  Over the committed corpus and a seeded fuzz band, at credit
levels from starving to generous, unbound and on two processors, every
engine mode must end in the oracle's outcome: the same result fields, or
the same exception type and text.  Analytic-tier results are compared on
throughput only (that tier synthesizes the smallest period realizing the
rate).  The hand-built cases pin the error precedence and the counters.

The fuzz band scales with the ``FUZZ_SCENARIOS`` environment variable
(CI's fuzz-smoke job runs 200).
"""

import os
from pathlib import Path

import pytest

from repro import obs
from repro.exceptions import DeadlockError, ReproError, SimulationError
from repro.flow.spec import load_flow_spec
from repro.scenarios import build_scenario_graph, generate_scenarios
from repro.sdf import SDFGraph
from repro.sdf.buffers import (
    BufferDistribution,
    add_buffer_edges,
    bufferable_edges,
    minimal_capacity_bound,
)
from repro.sdf.deadlock import deadlock_report
from repro.sdf.engine import (
    ENGINE_MODES,
    EngineUnsupportedError,
    ThroughputEngine,
    _VectorizedCore,
)
from repro.sdf.throughput import UnboundedExecutionError
from tests.sdf.simulation_reference import reference_analyze_throughput

CORPUS = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "corpus").glob(
        "*.toml"
    )
)
#: tier-1 default; CI sets FUZZ_SCENARIOS=200 in the fuzz-smoke job
SWEEP = max(5, int(os.environ.get("FUZZ_SCENARIOS", "25")))
FUZZ = generate_scenarios("all", SWEEP, seed=2024)

#: Credit per buffered edge, from the structural liveness bound
#: ``p + c - gcd(p, c)``: half of it and one below it mostly starve,
#: the bound itself and one burst above it mostly run.
CREDIT_LEVELS = {
    "half": lambda bound, burst: bound // 2,
    "bound-1": lambda bound, burst: bound - 1,
    "bound": lambda bound, burst: bound,
    "burst": lambda bound, burst: bound + burst,
}
SWEPT_MODES = ("auto", "vectorized", "analytic")

CASES = [
    pytest.param(("corpus", path), level, id=f"{path.stem}-{level}")
    for path in CORPUS
    for level in CREDIT_LEVELS
] + [
    pytest.param(("fuzz", spec), level, id=f"{spec.name}-{level}")
    for spec in FUZZ
    for level in CREDIT_LEVELS
]


def _graph(source):
    kind, item = source
    if kind == "corpus":
        return load_flow_spec(item).build_application().graph
    return build_scenario_graph(item)


def _credited(graph, level):
    """``graph`` with credit back-edges at ``level``, raised to the least
    capacity a buffer edge accepts (its initial tokens, one burst)."""
    capacities = {}
    for edge in bufferable_edges(graph):
        burst = max(edge.production, edge.consumption)
        capacity = CREDIT_LEVELS[level](minimal_capacity_bound(edge), burst)
        capacities[edge.name] = max(capacity, burst, edge.initial_tokens)
    return add_buffer_edges(graph, BufferDistribution(capacities))


def _outcome(analyze):
    """A result, or ``(error type, error text)``."""
    try:
        return analyze()
    except ReproError as error:
        return type(error), str(error)


def _assert_engine_matches_oracle(graph, **kwargs):
    """Every swept mode against the eager oracle, counters included."""
    dead = deadlock_report(graph) is not None
    oracle = _outcome(lambda: reference_analyze_throughput(graph, **kwargs))
    if dead:
        assert oracle == (DeadlockError, deadlock_report(graph))
    for mode in SWEPT_MODES:
        engine = ThroughputEngine(graph, mode=mode, **kwargs)
        with obs.collect() as counted:
            outcome = _outcome(engine.analyze)
        decline = engine.analytic_decline_reason
        if mode == "analytic" and decline is not None and not dead:
            assert outcome == (
                EngineUnsupportedError,
                f"analytic engine unavailable for {graph.name!r}: "
                f"{decline}",
            )
            assert counted.snapshot() == {}
            continue
        if isinstance(oracle, tuple):
            assert outcome == oracle, mode
            if dead:
                assert counted.snapshot() == {}, mode
            continue
        assert not isinstance(outcome, tuple), (mode, outcome)
        if outcome.tier == "analytic":
            assert outcome.throughput == oracle.throughput, mode
        else:
            assert outcome == oracle, mode
        assert counted.snapshot() == {f"engine.{outcome.tier}": 1}, mode


@pytest.mark.parametrize("source, level", CASES)
def test_sweep_matches_eager_oracle(source, level):
    graph = _credited(_graph(source), level)
    actors = [actor.name for actor in graph]
    _assert_engine_matches_oracle(graph)
    _assert_engine_matches_oracle(
        graph,
        processor_of={a: f"p{i % 2}" for i, a in enumerate(actors)},
    )


def test_sweep_covers_dead_and_live_graphs():
    """The credit levels must produce both verdicts, or the sweep checks
    only one side of the liveness argument."""
    verdicts = set()
    for path in CORPUS[:4]:
        graph = load_flow_spec(path).build_application().graph
        for level in CREDIT_LEVELS:
            verdicts.add(deadlock_report(_credited(graph, level)) is None)
    assert verdicts == {True, False}


# ----------------------------------------------------------------------
# hand-built cases
# ----------------------------------------------------------------------
def _dead_ring():
    g = SDFGraph("dead")
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("ab", "A", "B")
    g.add_edge("ba", "B", "A")  # no initial tokens: deadlock
    return g


def _live_ring():
    g = SDFGraph("live")
    g.add_actor("A", execution_time=3)
    g.add_actor("B", execution_time=4)
    g.add_edge("ab", "A", "B")
    g.add_edge("ba", "B", "A", initial_tokens=1)
    return g


def _source_into_dead_cycle():
    """A live source feeding a cycle without tokens: not strongly
    connected, so the source keeps firing while A and B never do."""
    g = SDFGraph("fed")
    g.add_actor("S", execution_time=1)
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("sa", "S", "A")
    g.add_edge("ab", "A", "B")
    g.add_edge("ba", "B", "A")
    return g


@pytest.mark.parametrize("mode", ENGINE_MODES)
def test_dead_graph_with_unknown_reference_actor(mode):
    g = _dead_ring()
    expected = _outcome(
        lambda: reference_analyze_throughput(g, reference_actor="ZZZ")
    )
    assert expected == (DeadlockError, deadlock_report(g))
    engine = ThroughputEngine(g, reference_actor="ZZZ", mode=mode)
    assert _outcome(engine.analyze) == expected


def test_unknown_reference_actor_of_a_live_graph_is_its_own_error():
    engine = ThroughputEngine(_live_ring(), reference_actor="ZZZ")
    with pytest.raises(SimulationError, match="reference actor 'ZZZ'"):
        engine.analyze()


def test_forced_analytic_reports_deadlock_before_ineligibility():
    g = _dead_ring()
    engine = ThroughputEngine(
        g, processor_of={"A": "t", "B": "t"}, mode="analytic"
    )
    assert engine.analytic_decline_reason is not None
    assert _outcome(engine.analyze) == (DeadlockError, deadlock_report(g))


@pytest.mark.parametrize("mode", ("auto", "vectorized", "reference"))
@pytest.mark.parametrize("reference_actor", ("S", "A"))
def test_source_feeding_a_dead_cycle_deadlocks(mode, reference_actor):
    g = _source_into_dead_cycle()
    engine = ThroughputEngine(
        g, reference_actor=reference_actor, mode=mode, max_iterations=50
    )
    assert _outcome(engine.analyze) == (DeadlockError, deadlock_report(g))


def test_graph_not_strongly_connected_is_checked_before_the_run(
    monkeypatch,
):
    # With the reference actor inside the dead cycle the run would never
    # complete an iteration while the source keeps firing: the check
    # must come first, not after a run that does not end.
    def must_not_run(self, *args):
        raise AssertionError("the run started on a dead graph")

    monkeypatch.setattr(_VectorizedCore, "run_throughput", must_not_run)
    g = _source_into_dead_cycle()
    engine = ThroughputEngine(g, reference_actor="A", mode="vectorized")
    with pytest.raises(DeadlockError, match="deadlocks; starving actors"):
        engine.analyze()


def test_unbounded_live_graph_keeps_its_error(two_actor_pipeline):
    engine = ThroughputEngine(two_actor_pipeline, max_iterations=30)
    with pytest.raises(UnboundedExecutionError, match="30 iterations"):
        engine.analyze()


def _blocking_static_order(figure2_graph):
    g = add_buffer_edges(
        figure2_graph, BufferDistribution({"a2b": 4, "a2c": 2, "b2c": 4})
    )
    kwargs = dict(
        processor_of={"A": "t", "B": "t", "C": "t"},
        static_order={"t": ["C", "A", "B", "B"]},  # C can never go first
    )
    return g, kwargs


@pytest.mark.parametrize("mode", ("auto", "vectorized", "reference"))
def test_static_order_deadlock_keeps_the_run_text(figure2_graph, mode):
    g, kwargs = _blocking_static_order(figure2_graph)
    assert deadlock_report(g) is None
    expected = _outcome(lambda: reference_analyze_throughput(g, **kwargs))
    assert expected[0] is DeadlockError
    assert "blocked after 0 iteration(s)" in expected[1]
    engine = ThroughputEngine(g, mode=mode, **kwargs)
    assert _outcome(engine.analyze) == expected


def test_counts_on_dead_and_live_graphs(figure2_graph, two_actor_pipeline):
    """A dead graph counts no tier; a live run counts its tier, also
    when it then fails."""
    live = add_buffer_edges(
        figure2_graph, BufferDistribution({"a2b": 4, "a2c": 2, "b2c": 4})
    )
    blocked, blocking = _blocking_static_order(figure2_graph)
    long_transient = add_buffer_edges(
        two_actor_pipeline, BufferDistribution({"p2q": 40})
    )
    runs = [
        (_dead_ring(), {}, ENGINE_MODES, {}),
        (_source_into_dead_cycle(), {}, ENGINE_MODES, {}),
        (live, {}, ("auto", "vectorized"), {"engine.vectorized": 2}),
        (live, {}, ("analytic",), {"engine.analytic": 1}),
        (live, {}, ("reference",), {"engine.reference": 1}),
        (long_transient, {}, ("auto",), {"engine.analytic": 1}),
        # a live static-order deadlock: every simulated tier counts;
        # forced analytic declines before running
        (blocked, blocking, ENGINE_MODES,
         {"engine.vectorized": 2, "engine.reference": 1}),
        # a live graph whose run fails on its reference actor: counted
        # when the tier was decided before the run, not by the probe
        (live, {"reference_actor": "ZZZ"}, ENGINE_MODES,
         {"engine.analytic": 1, "engine.vectorized": 1,
          "engine.reference": 1}),
    ]
    for graph, kwargs, modes, expected in runs:
        with obs.collect() as counted:
            for mode in modes:
                _outcome(ThroughputEngine(graph, mode=mode, **kwargs).analyze)
        assert counted.snapshot() == expected, (graph.name, modes)
