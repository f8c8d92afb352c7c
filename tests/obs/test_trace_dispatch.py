"""One dispatch, two entry points: run() and stream() trace alike.

Each backend has a single dispatch that both entry points drain, so a
traced ``stream()`` carries the same session and per-task spans as a
traced ``run()`` — the breakdown ``perfbench --trace 1`` reads.
"""

import pytest

from repro.api import ExplanationSession, ObservabilityConfig, ParallelConfig
from repro.core.scenarios import Scenario

#: Spans every task of a backend's dispatch must carry.
TASK_SPANS = {
    "serial": {"compute"},
    "processes": {"queue_wait", "worker.compute", "worker.encode"},
}

#: Session-level spans each backend's dispatch must emit.
SESSION_SPANS = {
    "serial": {"session.freeze_export"},
    "processes": {
        "session.freeze_export",
        "session.pool",
        "session.dispatch",
    },
}


def walk(span):
    yield span
    for child in span["children"]:
        yield from walk(child)


def task_groups(trace):
    """Map task index -> names of the child spans of that task span."""
    return {
        span["attrs"]["index"]: {child["name"] for child in span["children"]}
        for span in trace["root"]["children"]
        if span["name"] == "task"
    }


@pytest.mark.parametrize("entry", ["run", "stream"])
@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_entry_points_trace_the_same_dispatch(entry, backend, test_bench):
    tasks = list(
        test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 2).values()
    )[:4]
    with ExplanationSession(
        test_bench.graph,
        parallel=ParallelConfig(backend=backend, workers=2),
        obs=ObservabilityConfig(trace=True),
    ) as session:
        if entry == "run":
            results = list(session.run(tasks).results)
        else:
            results = list(session.stream(tasks))
        trace = session.last_trace()
    assert trace["name"] == entry
    assert trace["root"]["attrs"]["tasks"] == len(tasks)
    assert trace["root"]["attrs"]["backend"] == backend
    names = {span["name"] for span in walk(trace["root"])}
    assert SESSION_SPANS[backend] <= names
    groups = task_groups(trace)
    assert set(groups) == set(range(len(tasks)))
    for index, spans in groups.items():
        assert TASK_SPANS[backend] <= spans, index
    assert sorted(r.index for r in results) == list(range(len(tasks)))
    for result in results:
        assert result.trace["trace_id"] == trace["trace_id"]
