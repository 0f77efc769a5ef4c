"""Self-test of the benchmark at a short run length.

Run from the repository root (takes a few minutes)::

    python3 perfbench/selftest.py

It checks that

* every workload, untraced and traced, emits every metric BENCHMARK.json
  declares, with its declared unit, and passes its checks;
* the correctness gate fires on deliberately broken runs: sweep_warm
  against an emptied store, and sweep_cold against a tampered reference;
* the benchmark refuses to run (non-zero exit, no result line) in a
  directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work" / "selftest"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=900,
    )
    return proc.returncode, proc.stdout


def emitted_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        code, stdout = run_bench("--workload", "all", "--seed", "7", "--seconds", "1",
                                 "--trace", trace)
        result = json.loads(stdout.strip().splitlines()[-1])
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"--trace {trace}: every workload passes its checks")
        for workload in names:
            for metric in declared:
                got = result["metrics"].get(f"{workload}.{metric['name']}")
                check(got is not None and got["unit"] == metric["unit"],
                      f"--trace {trace}: {workload} emits {metric['name']} [{metric['unit']}]")
        if trace == "0":
            for name in ("answer_s", "requests_per_s", "hit_p50_ms", "hit_p99_ms",
                         "miss_p50_ms", "error_rate", "points_per_s_raw", "host_sample_ms"):
                check(f" {name} " in stdout, f"the report table prints {name}")


def broken_runs() -> None:
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    original = workloads._sweep_setup

    def emptied_store(ctx, out, **kwargs):
        grid, reference, store, points = original(ctx, out, **kwargs)
        shutil.rmtree(store)
        store.mkdir()
        return grid, reference, store, points

    def tampered_reference(ctx, out, **kwargs):
        grid, reference, store, points = original(ctx, out, **kwargs)
        reference["points"][0]["result"]["physicalCounts"]["physicalQubits"] += 1
        return grid, reference, store, points

    for name, patch, run in (
        ("sweep_warm against an empty store", emptied_store, workloads.sweep_warm),
        ("sweep_cold against a tampered reference", tampered_reference, workloads.sweep_cold),
    ):
        work = WORK / "broken"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workloads._sweep_setup = patch
        try:
            out = run(workloads.Context(seed=7, seconds=1, trace=False, work=work,
                                        setup_repeats=1))
        finally:
            workloads._sweep_setup = original
            shutil.rmtree(work, ignore_errors=True)
        check(out.failed == out.attempted > 0, f"the gate fails every run of {name}")


def bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = run_bench("--workload", "sweep_warm", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and not stdout.strip(), "without program sources it exits non-zero, "
          "printing no result")


def main() -> int:
    bare_directory()
    broken_runs()
    emitted_metrics()
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
