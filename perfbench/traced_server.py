"""Traced server launcher: layer timers installed, then ``repro.cli serve``.

Usage (the served workloads launch it; it takes the ``serve`` argv)::

    python3 perfbench/traced_server.py MARK_DIR serve --scale ci \\
        --port 0 --trace [--state-dir DIR]

The program runs unchanged. Before handing over to
``repro.cli.main``, this launcher wraps the server-side layers —
graph kernels, closure tier, summarizers, the protocol codecs the
server calls, the journal's ``record`` — and collects the spans the
program's own tracer emits (``server.queue_wait`` and ``compute``)
as each finished trace reaches its collector. Everything stays in
memory. On ``SIGUSR1`` the totals so far are written to
``MARK_DIR/mark-<n>.json``; the load generator asks for one mark just
before its window and one just after, and uses the difference.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

#: Spans of a finished request trace folded into timer rows.
_SPANS = {"server.queue_wait": "server.queue_wait", "compute": "server.compute"}


def main(argv: list[str]) -> int:
    marks = Path(argv[0])
    common.require_program()
    import repro.cli
    from repro.api import protocol
    from repro.obs.trace import TraceCollector
    from repro.serving.journal import GraphJournal

    from perfbench.layers import (
        LayerTimers,
        closure_counters,
        install_compute_timers,
        walk_spans,
    )

    timers = LayerTimers()
    caches = install_compute_timers(timers)
    timers.patch_function(protocol.request_from_json, "protocol.decode")
    timers.patch_function(protocol.explanation_to_json, "protocol.encode")
    timers.patch_method(GraphJournal, "record", "journal")

    def wrap_add(original):
        def add(collector, trace):
            for span in walk_spans(trace["root"]):
                row = _SPANS.get(span["name"])
                if row is not None and span["duration_ms"] is not None:
                    seconds = span["duration_ms"] / 1000.0
                    timers.record(row, seconds, seconds)
            return original(collector, trace)

        return add

    timers.replace_method(TraceCollector, "add", wrap_add)
    written = [0]

    def on_mark(_signum, _frame) -> None:
        snapshot = timers.snapshot()
        snapshot["closure"] = closure_counters(caches)
        path = marks / f"mark-{written[0]}.json"
        partial = path.with_suffix(".tmp")
        partial.write_text(json.dumps(snapshot))
        os.replace(partial, path)
        written[0] += 1

    signal.signal(signal.SIGUSR1, on_mark)
    return repro.cli.main(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
