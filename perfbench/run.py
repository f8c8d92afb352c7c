"""The repository's benchmark: one command for every workload.

Run one workload::

    python3 perfbench/run.py --workload batch-sweep --seed 1 --seconds 30 --trace 0

or every workload in turn, printing each one's metrics::

    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run that reports the per-layer metrics
and the breakdown of end-to-end time into layers. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``). The exit code
is non-zero when an output check fails or a request fails, and 2 when
the checkout holds no program to benchmark. See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

_TIME_UNITS = ("s", "ms")


def _metrics(result: dict, declared: list[dict]) -> dict:
    """Every declared metric by name with its unit; times must exist."""
    out = {}
    for metric in declared:
        name = metric["name"]
        value = result["metrics"].get(name)
        if value is None:
            if metric["unit"] in _TIME_UNITS or "bound" in metric:
                raise RuntimeError(f"workload did not measure {name}")
            value = 0
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def _print_breakdown(name: str, record: dict) -> None:
    breakdown = record.get("breakdown_ms")
    if not breakdown:
        return
    base = sum(breakdown.values())
    print(f"[{name}] traced breakdown (self time, share of {base:.1f} ms):")
    for row, ms in sorted(breakdown.items(), key=lambda item: -item[1]):
        print(f"    {row:<22} {ms:12.2f} ms  {ms / base:7.2%}")
    for key, value in record.get("detail_ms", {}).items():
        shown = "n/a" if value is None else f"{value:.3f}"
        print(f"    {key:<28} {shown}")
    for line in record.get("explain", []):
        print(f"[{name}] {line}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 bench: dict) -> dict:
    """Generate inputs, measure, check; returns the printable result."""
    from perfbench import batch_sweep, served

    module = batch_sweep if name == "batch-sweep" else served
    spec = common.load_spec()["workloads"][name]
    label = f"{name}-seed{seed}-trace{int(trace)}"
    work = common.fresh_dir(label)
    record: dict = {"workload": name, "seed": seed, "seconds": seconds}
    record["machine"] = common.fingerprint()
    record["probe_before_s"] = common.noise_probe()
    measure = module.run_traced if trace else module.run
    try:
        result = measure(seed, seconds, spec, work)
    finally:
        record["probe_after_s"] = common.noise_probe()
        shutil.rmtree(work, ignore_errors=True)
    record["problems"] = result["problems"]
    record["detail"] = result["record"]
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = _metrics(result, declared)
    record["metrics"] = metrics
    records = common.WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{label}.json").write_text(json.dumps(record, indent=1))

    print(f"[{name}] seed={seed} trace={int(trace)} "
          f"nproc={record['machine']['nproc']} "
          f"loadavg={record['machine']['loadavg'][0]:.2f} "
          f"probe_s before={min(record['probe_before_s']):.3f} "
          f"after={min(record['probe_after_s']):.3f}")
    for metric, data in metrics.items():
        print(f"    {metric:<32} {data['value']:>14.6g} {data['unit']}")
    if trace:
        _print_breakdown(name, result["record"])
    for problem in result["problems"]:
        print(f"[{name}] CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every server and measured
    # process this run started is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.require_program()
    except common.ProgramMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if not set(names) <= set(known):
        parser.error(f"--workload must be one of {known} or 'all'")
    seconds = args.seconds or bench["run_seconds"]

    results = {}
    for name in names:
        try:
            results[name] = run_workload(
                name, args.seed, seconds, bool(args.trace), bench
            )
        except Exception:
            traceback.print_exc()
            print(f"perfbench: workload {name} did not complete", file=sys.stderr)
            return 1
    healthy = all(r["correct"] and not r["failed"] for r in results.values())
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0 if healthy else 1


if __name__ == "__main__":
    raise SystemExit(main())
