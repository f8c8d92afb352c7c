"""Process-level durability: real ``kill -9``, real SIGTERM drain.

The in-process suites (:mod:`tests.serving.test_journal`,
:mod:`tests.serving.test_lifecycle`) pin the mechanisms; this module
pins the end-to-end acceptance contract against an actual server
*process* launched through the CLI:

- ``kill -9`` mid-mutating-workload, restart from the same
  ``--state-dir``: every *acknowledged* mutation survives, the graph
  recovers to the exact pre-crash version, and a replayed 64-task
  batch over the wire is bit-identical to a never-crashed local
  control — under ``RuntimeWarning``-as-error (no silent local
  fallback);
- SIGTERM mid-stream: every in-flight result and the terminating
  ``end`` frame still reach the client (zero dropped results), a new
  request is refused with a typed ``shutting-down`` frame within
  0.5s, and the process exits 0 within the drain deadline;
- the state directory holds exactly the snapshot and the journal
  afterwards — no temp-file or lock litter.

Serial in one process, fault-injected here: both legs share one
workbench build (``--scale test`` matches the ``test_bench`` fixture,
so the subprocess's graph is bit-identical to the local control's).
"""

import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.api import ExplanationSession, protocol
from repro.core.scenarios import Scenario
from repro.serving.client import ExplanationClient, ShuttingDownError
from repro.serving.journal import JOURNAL_NAME, SNAPSHOT_NAME

SRC = Path(__file__).resolve().parents[2] / "src"
BANNER = re.compile(r"on 127\.0\.0\.1:(\d+)")
NUM_TASKS = 64

#: (source, target, weight) edges the workload mutates in, one ack at
#: a time. New item nodes, so they exist only via the mutation RPCs.
EDITS = [("u:0", f"i:77{k:02d}", 1.0 + k) for k in range(8)]
ACKED = 5  # the crash lands after this many acknowledged mutations


#: Child-side prelude for the drain test: every session stream pauses
#: after its first result until the test writes a line to the server's
#: stdin, so SIGTERM and the probe provably land mid-stream.
HOLD_STREAMS = """
import sys
from repro.api.session import ExplanationSession

_stream = ExplanationSession.stream

def _held(self, *args, **kwargs):
    results = _stream(self, *args, **kwargs)
    def hold():
        for position, result in enumerate(results):
            yield result
            if position == 0:
                sys.stdin.readline()
    return hold()

ExplanationSession.stream = _held
"""


def start_server(
    state_dir: Path, prelude: str = ""
) -> tuple[subprocess.Popen, int]:
    """Launch ``serve --scale test`` and wait for its port banner.

    ``prelude`` runs in the server process before the CLI starts; with
    one, the server's stdin is a pipe the test may write to.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    code = prelude + (
        "\nfrom repro.cli import main; raise SystemExit(main("
        f"['serve', '--scale', 'test', '--port', '0', "
        f"'--state-dir', {str(state_dir)!r}]))"
    )
    proc = subprocess.Popen(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        env=env,
        stdin=subprocess.PIPE if prelude else None,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    match = BANNER.search(line)
    if match is None:  # startup failed: surface whatever it printed
        proc.kill()
        rest = proc.stdout.read()
        raise AssertionError(f"no port banner; server said: {line}{rest}")
    return proc, int(match.group(1))


@pytest.fixture(scope="module")
def batch_tasks(test_bench):
    singles = list(
        test_bench.tasks(Scenario.USER_CENTRIC, "PGPR", 2).values()
    )
    assert len(singles) >= 3
    return [singles[i % len(singles)] for i in range(NUM_TASKS)]


def assert_same_summary(got, want):
    g, w = got.subgraph, want.subgraph
    assert list(g.nodes()) == list(w.nodes())
    for node in w.nodes():
        assert list(g.neighbors(node).items()) == (
            list(w.neighbors(node).items())
        ), node
    assert list(g._names.items()) == list(w._names.items())
    assert list(g._relations.items()) == list(w._relations.items())
    assert g.num_edges == w.num_edges
    assert g.version == w.version


class TestKillDashNine:
    def test_acked_mutations_survive_sigkill(
        self, test_bench, batch_tasks, tmp_path
    ):
        # The never-crashed control: the same seed graph (the codec
        # round trip preserves every iteration order and the version)
        # with exactly the acknowledged mutations applied.
        control = protocol.graph_state_from_json(
            protocol.graph_state_to_json(test_bench.graph)
        )
        for source, target, weight in EDITS[:ACKED]:
            control.add_edge(source, target, weight)

        proc, port = start_server(tmp_path)
        try:
            with ExplanationClient("127.0.0.1", port) as client:
                acked_version = 0
                for source, target, weight in EDITS[:ACKED]:
                    acked_version = client.add_edge(source, target, weight)
                # kill -9 mid-workload: the remaining edits never land
                # and the process gets no chance to flush anything.
                proc.kill()
                proc.wait(timeout=30)
                for source, target, weight in EDITS[ACKED:]:
                    with pytest.raises(OSError):
                        client.add_edge(source, target, weight)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert control.version == acked_version

        # Restart from the wreckage: recovery must replay every acked
        # mutation — and nothing else.
        reborn, port = start_server(tmp_path)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with ExplanationClient("127.0.0.1", port) as client:
                    default = client.health()["graphs"]["default"]
                    assert default["version"] == acked_version
                    assert default["journal"]["replayed_records"] == ACKED
                    report = client.run(batch_tasks)
                with ExplanationSession(control) as session:
                    want = session.run(batch_tasks)
            assert len(report.results) == NUM_TASKS
            for got, reference in zip(report.results, want.results):
                assert got.failure is None, got.failure
                assert_same_summary(
                    got.explanation, reference.explanation
                )
        finally:
            reborn.terminate()
            reborn.wait(timeout=30)
        # State-dir hygiene: exactly the snapshot and the journal, no
        # temp files or litter from either lifetime.
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["default"]
        )
        assert sorted(
            p.name for p in (tmp_path / "default").iterdir()
        ) == sorted([JOURNAL_NAME, SNAPSHOT_NAME])


class TestSigtermDrain:
    def test_drain_streams_everything_then_exits_zero(
        self, batch_tasks, tmp_path
    ):
        proc, port = start_server(tmp_path, prelude=HOLD_STREAMS)
        try:
            with ExplanationClient("127.0.0.1", port) as client:
                stream = client.stream(batch_tasks)
                # The batch is now in flight, and held there: the
                # server's stream yields nothing more until the release
                # line below.
                results = [next(stream)]
                proc.send_signal(15)  # SIGTERM: drain, don't drop
                # A new request is refused, typed and fast, while the
                # admitted stream is still unfinished.
                with ExplanationClient("127.0.0.1", port) as probe:
                    deadline = time.monotonic() + 10
                    while not probe.health()["draining"]:  # SIGTERM seen
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    start = time.monotonic()
                    with pytest.raises(ShuttingDownError) as excinfo:
                        probe.run([batch_tasks[0]])
                    assert time.monotonic() - start < 0.5
                    assert excinfo.value.retry_after_ms is not None
                proc.stdin.write("release\n")
                proc.stdin.flush()
                # Zero dropped results: the rest of the stream and its
                # end frame all arrive despite the drain.
                results.extend(stream)
            assert sorted(r.index for r in results) == (
                list(range(NUM_TASKS))
            )
            assert all(r.failure is None for r in results)
            exit_code = proc.wait(timeout=30)
            assert exit_code == 0, proc.stdout.read()
            output = proc.stdout.read()
            assert "drain requested" in output
            assert "server stopped" in output
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdin.close()
            proc.stdout.close()

    def test_idle_connections_close_without_tracebacks(self, tmp_path):
        """Connections still open at SIGTERM are hung up on by the
        drain, not cancelled under asyncio's teardown (which logged one
        "Exception in callback" traceback per connection)."""
        proc, port = start_server(tmp_path)
        try:
            with ExplanationClient("127.0.0.1", port) as first:
                with ExplanationClient("127.0.0.1", port) as second:
                    # One round trip each: both handlers are now idle,
                    # parked on their next frame read.
                    assert first.ping() and second.ping()
                    proc.send_signal(15)
                    exit_code = proc.wait(timeout=30)
            output = proc.stdout.read()
            assert exit_code == 0, output
            assert "server stopped" in output
            assert "Traceback" not in output, output
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
