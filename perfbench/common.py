"""Helpers shared by the benchmark's workloads.

Everything here is benchmark-side: locating the program's source tree,
the machine fingerprint and noise probe recorded with every run, peak
RSS from ``/proc``, percentiles, and the canonical summary form the
output checks compare.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, state dirs and run records; it
#: lives inside the checkout and is ignored by git.
WORK = ROOT / ".perfbench-work"

#: Fixed pure-Python loop timed by the noise probe.
_PROBE_ITERATIONS = 400_000


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def load_spec() -> dict:
    """Workload parameters, limits and the layer table (``spec.json``)."""
    return json.loads((HERE / "spec.json").read_text())


def require_program() -> None:
    """Put ``src/`` on ``sys.path``; raise when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(
            f"no program source at {SRC.relative_to(ROOT)}/repro; run "
            "the benchmark from the root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def fresh_dir(name: str) -> Path:
    """An empty directory under :data:`WORK` for one run."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Machine fingerprint and noise probe
# ----------------------------------------------------------------------
def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    """HEAD when the checkout is itself a git work tree, else None."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def fingerprint() -> dict:
    """Machine shape and software versions recorded with every run."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "loadavg": list(os.getloadavg()),
    }


def noise_probe(repeats: int = 3) -> list[float]:
    """Seconds taken by a fixed pure-Python loop, ``repeats`` times.

    Recorded before and after each workload so slow bursts of the
    machine show in the record. Never used to drop or rescale runs.
    """
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(_PROBE_ITERATIONS):
            total += i * i % 7
        timings.append(time.perf_counter() - start)
    return timings


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of one process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def canonical(explanation) -> list:
    """Node list plus sorted edge list: the bit-identity form checked."""
    subgraph = explanation.subgraph
    return [
        list(subgraph.nodes()),
        sorted([e.source, e.target, e.weight] for e in subgraph.edges()),
    ]
