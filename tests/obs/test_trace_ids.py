"""Trace/span id generation must not depend on PYTHONHASHSEED.

Ids come from ``os.urandom``, never ``hash()``. Two interpreters with
different hash seeds must both produce well-formed, unique ids.
"""

import subprocess
import sys

from repro.obs.trace import new_span_id, new_trace_id

_PROBE = (
    "from repro.obs.trace import new_trace_id, new_span_id;"
    "print(new_trace_id());print(new_span_id())"
)


def _probe(hash_seed: str, pythonpath: str) -> tuple[str, str]:
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={"PYTHONHASHSEED": hash_seed, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        check=True,
    )
    trace_id, span_id = result.stdout.split()
    return trace_id, span_id


class TestIdShape:
    def test_trace_id_is_16_hex(self):
        value = new_trace_id()
        assert len(value) == 16
        int(value, 16)  # raises if not hex

    def test_span_id_is_8_hex(self):
        value = new_span_id()
        assert len(value) == 8
        int(value, 16)

    def test_ids_are_unique(self):
        assert len({new_trace_id() for _ in range(64)}) == 64
        assert len({new_span_id() for _ in range(64)}) == 64


class TestHashSeedIndependence:
    def test_well_formed_under_any_hash_seed(self):
        import repro

        pythonpath = repro.__path__[0].rsplit("/", 1)[0]
        for seed in ("0", "1", "12345"):
            trace_id, span_id = _probe(seed, pythonpath)
            assert len(trace_id) == 16
            assert len(span_id) == 8
            int(trace_id, 16)
            int(span_id, 16)
