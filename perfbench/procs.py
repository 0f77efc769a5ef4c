"""Launching the program the way its users do, and timing it from outside.

Every program run is a fresh ``python -m repro ...`` process (or the
traced launcher around the same CLI), started from the checkout root
with ``src`` on ``PYTHONPATH``. Wall time runs from just before the spawn
to the reaped exit; peak RSS is the kernel's ``ru_maxrss`` from
``wait4``, which covers the process and every child it reaped (pool
workers), as the largest of them.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
TRACED_LAUNCHER = BENCH_DIR / "traced_repro.py"

# The host-speed sampler (see ``HostSampler``): every SAMPLE_PERIOD_S it
# times a fixed piece of interpreter work (building a SAMPLE_ITEMS-entry
# dict of small lists and tuples) in CPU time. SAMPLE_REF_S is that
# work's CPU time on the reference machine in its fast periods.
SAMPLE_PERIOD_S = 0.05
SAMPLE_ITEMS = 3000
SAMPLE_REF_S = 0.0020
SAMPLER_CODE = """
import select, sys, time
period, items = float(sys.argv[1]), int(sys.argv[2])
total = count = 0
while True:
    started = time.process_time()
    table = {}
    for i in range(items):
        table[str(i)] = [i, (i, i)]
    total += time.process_time() - started
    count += 1
    if select.select([sys.stdin], [], [], period)[0]:
        break
print(total, count)
"""


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class HostSampler:
    """A small process that samples the host's speed until stopped.

    The reference machine is a share of a busy host: for seconds to
    minutes at a time the program runs up to 1.5-2x slower. The sampler
    times fixed interpreter work in its own CPU time, so waiting for a
    core the program holds does not count, but a host that runs the
    interpreter slower does. It wakes every ``SAMPLE_PERIOD_S`` for about
    two milliseconds: ~4% of one core.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SAMPLER_CODE, str(SAMPLE_PERIOD_S), str(SAMPLE_ITEMS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def stop(self) -> tuple[float, int]:
        """(mean sample CPU seconds, samples) since the start; reaps the process."""
        try:
            out, _ = self.proc.communicate(timeout=30)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        fields = out.split()
        if self.proc.returncode != 0 or len(fields) != 2:
            raise RuntimeError(f"host sampler failed: exit {self.proc.returncode}, {out!r}")
        return float(fields[0]) / int(fields[1]), int(fields[1])


def repro_command(args: list[str], trace_prefix: str | None, launched_ns: int) -> list[str]:
    if trace_prefix is None:
        return [sys.executable, "-m", "repro", *args]
    return [
        sys.executable, str(TRACED_LAUNCHER), trace_prefix, str(launched_ns), "--", *args,
    ]


@dataclass
class ProgramRun:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stderr: list[tuple[float, str]] = field(default_factory=list)

    def first_line_time(self, prefix: str) -> float | None:
        """Seconds from launch to the first stderr line starting with ``prefix``."""
        for at, line in self.stderr:
            if line.startswith(prefix):
                return at
        return None


def _kill(proc: subprocess.Popen) -> None:
    """SIGKILL without reaping (``Popen.kill`` may reap, losing the rusage)."""
    try:
        os.kill(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap(proc: subprocess.Popen) -> float:
    """Wait for ``proc`` with ``wait4``; return its peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0  # kB on Linux


def run_program(
    args: list[str], *, stdout_path: Path, timeout_s: float, trace_prefix: str | None = None
) -> ProgramRun:
    """Run one ``repro`` CLI process to completion.

    stdout goes to ``stdout_path``; stderr lines are timestamped as they
    arrive (progress lines mark the first persisted chunk or round).
    """
    launched = time.monotonic_ns()
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(
            repro_command(args, trace_prefix, launched),
            cwd=ROOT, env=program_env(), stdout=out, stderr=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
    watchdog = threading.Timer(timeout_s, _kill, (proc,))
    watchdog.start()
    lines: list[tuple[float, str]] = []
    try:
        for raw in proc.stderr:
            at = (time.monotonic_ns() - launched) / 1e9
            lines.append((at, raw.decode(errors="replace").rstrip("\n")))
        proc.stderr.close()
        peak = _reap(proc)
    except BaseException:
        if proc.returncode is None:
            _kill(proc)
            _reap(proc)
        raise
    finally:
        watchdog.cancel()
    wall = (time.monotonic_ns() - launched) / 1e9
    return ProgramRun(proc.returncode, wall, peak, lines)


class Server:
    """``repro serve --port 0`` as a subprocess on loopback."""

    def __init__(self, store: Path, log_path: Path, *, trace_prefix: str | None = None,
                 timeout_s: float = 60.0) -> None:
        self.launched = time.monotonic_ns()
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            repro_command(["serve", "--port", "0", "--store", str(store)], trace_prefix,
                          self.launched),
            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE, stderr=self._log,
            stdin=subprocess.DEVNULL,
        )
        self.peak_rss_mb: float | None = None
        watchdog = threading.Timer(timeout_s, _kill, (self.proc,))
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode()
        finally:
            watchdog.cancel()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.url = line.split()[-1]
        host_port = self.url.removeprefix("http://")
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        # Drain the rest of stdout so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def since_launch_s(self) -> float:
        return (time.monotonic_ns() - self.launched) / 1e9

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(self.url + path, timeout=30) as response:
            return json.loads(response.read())

    def post_json(self, path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            self.url + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            return json.loads(response.read())

    def stop(self) -> float:
        """Interrupt the server (it shuts down cleanly on SIGINT) and reap it."""
        if self.peak_rss_mb is None:
            try:
                os.kill(self.proc.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
            watchdog = threading.Timer(30.0, _kill, (self.proc,))
            watchdog.start()
            try:
                self.peak_rss_mb = _reap(self.proc)
            finally:
                watchdog.cancel()
                self._log.close()
        return self.peak_rss_mb


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
