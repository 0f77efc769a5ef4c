"""The repository benchmark: stored sweeps, fresh-process optimize, a service loop.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics with the program untouched;
``--trace 1`` runs the same workload with the layer wrappers of
``tracing.py`` installed in the program's processes and reports the
per-layer metrics instead. Every run checks the program's outputs; the
last stdout line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``), and the exit code is non-zero when a check
fails. See README.md for the metrics, the workloads and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"


def fingerprint() -> dict:
    """The machine and toolchain a result was measured on."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
    }


def _table(rows: list[tuple[str, str, float, str, int]]) -> str:
    lines = [f"{'workload':<15} {'metric':<16} {'value':>14} {'unit':<9} {'samples':>7}"]
    for workload, name, value, unit, samples in rows:
        lines.append(f"{workload:<15} {name:<16} {value:>14.6g} {unit:<9} {samples:>7}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    machine = fingerprint()
    if machine["loadavg_start"][0] > machine["nproc"]:
        print(f"warning: load average {machine['loadavg_start'][0]:.2f} exceeds nproc "
              f"{machine['nproc']}; timings will be noisy", file=sys.stderr)
    # Byte-compile once so no measured process pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK / f"run-{os.getpid()}"
    outcomes = {}
    try:
        for name in names:
            ctx = workloads.Context(
                seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                work=work / name, setup_repeats=1 if args.trace else 3,
            )
            ctx.work.mkdir(parents=True)
            try:
                outcomes[name] = workloads.WORKLOADS[name](ctx)
            except workloads.SetupError as exc:
                print(f"error: {name} set-up failed: {exc}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    machine["loadavg_end"] = os.getloadavg()

    rows = []
    for name, out in outcomes.items():
        for metric, (value, unit, samples) in out.metrics.items():
            rows.append((name, metric, value, unit, samples))
        rows.append((name, "error_rate", out.failed / max(out.attempted, 1), "ratio",
                     out.attempted))
        for problem in out.problems:
            print(f"check failed [{name}]: {problem}", file=sys.stderr)
    print(_table(rows))
    if args.trace:
        for name, out in outcomes.items():
            print(f"layers [{name}] " + json.dumps(out.layers, sort_keys=True))
    print("fingerprint " + json.dumps(machine))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for name, out in outcomes.items():
        values = out.layers if args.trace else {k: v[0] for k, v in out.metrics.items()}
        for metric in declared:
            if metric["name"] in values:
                key = metric["name"] if len(outcomes) == 1 else f"{name}.{metric['name']}"
                metrics[key] = {"value": values[metric["name"]], "unit": metric["unit"]}
    attempted = sum(out.attempted for out in outcomes.values())
    failed = sum(out.failed for out in outcomes.values())
    complete = len(metrics) == len(declared) * len(outcomes)
    correct = failed == 0 and complete
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({"args": vars(args), "fingerprint": machine, "result": result,
                    "table": rows, "samples": {n: o.raw for n, o in outcomes.items()}},
                   indent=2)
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
