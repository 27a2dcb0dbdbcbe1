"""Every fan-out runs its registered task, under the thread backend too.

The process backend can only run :func:`~repro.flow.backend.backend_task`
functions; the thread backend calls the very same functions in this
process.  Counting calls through the task registry proves that explore,
batch, ``execute_spec_on`` / ``repro run --workspace`` and the service
scheduler have no second, thread-only worker body.
"""

from collections import Counter

import pytest

import repro.flow.backend as backend_module
import repro.service.scheduler  # noqa: F401  (registers its task)
from repro.cli import main
from repro.flow import (
    DesignSpace,
    Evaluator,
    ParallelExplorer,
    execute_spec_on,
    run_batch,
)
from repro.flow.backend import Task
from repro.scenarios import (
    generate_scenarios,
    render_flow_spec_toml,
    scenario_flow_spec,
)
from repro.service import FlowScheduler

from tests.flow.test_dse_engine import build_chain_app


@pytest.fixture
def task_calls(monkeypatch):
    """Task name -> number of calls made through the registry."""
    calls = Counter()
    for name, task in list(backend_module._TASKS.items()):

        def counted(payload, name=name, fn=task.fn):
            calls[name] += 1
            return fn(payload)

        monkeypatch.setitem(
            backend_module._TASKS, name, Task(name, task.module, counted)
        )
    return calls


@pytest.fixture(scope="module")
def specs():
    return [
        scenario_flow_spec(spec)
        for spec in generate_scenarios("chain", 2, seed=93, actors=5)
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_explore_runs_the_evaluate_task(task_calls, jobs):
    space = DesignSpace(tile_counts=(1, 2), interconnects=("fsl", "noc"))
    evaluator = Evaluator(build_chain_app())
    result = ParallelExplorer(evaluator, jobs=jobs).explore(space)
    assert task_calls == {"dse.evaluate-candidate": len(space)}
    # the tasks evaluated through the caller's evaluator and cache
    assert evaluator.evaluations == len(space)
    assert result.cache_stats is evaluator.cache.stats
    assert result.cache_stats.misses == len(space)


@pytest.mark.parametrize("jobs", [1, 2])
def test_batch_runs_the_batch_entry_task(task_calls, tmp_path, specs, jobs):
    report = run_batch(specs, tmp_path / "ws", jobs=jobs)
    assert report.ok
    assert task_calls == {"flow.batch-entry": len(specs)}


def test_execute_spec_on_runs_the_execute_task(task_calls, tmp_path, specs):
    execute_spec_on(specs[0], tmp_path / "ws")
    assert task_calls == {"flow.execute-spec": 1}


def test_cli_run_workspace_runs_the_execute_task(
    task_calls, tmp_path, specs, capsys
):
    path = tmp_path / "spec.toml"
    path.write_text(render_flow_spec_toml(specs[0]), encoding="utf-8")
    assert main(
        ["run", "--spec", str(path), "--workspace", str(tmp_path / "ws")]
    ) == 0
    assert task_calls == {"flow.execute-spec": 1}


def test_scheduler_runs_the_compute_task(task_calls, tmp_path, specs):
    with FlowScheduler(tmp_path / "ws", jobs=1) as scheduler:
        view = scheduler.wait(
            scheduler.submit(specs[0])["id"], timeout=120
        )
    assert view["status"] == "done"
    assert task_calls == {"service.compute-response": 1}
