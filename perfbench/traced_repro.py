"""Run the ``repro`` CLI with the benchmark's layer wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_repro.py OUT_PREFIX LAUNCHED_NS -- <repro args>

``LAUNCHED_NS`` is the launching process's ``time.monotonic_ns()`` just
before the spawn (the clock is system-wide), so ``cli.start_s`` covers
interpreter start-up and the ``repro.cli`` import. The process writes
``OUT_PREFIX.<pid>.json`` on exit; each forked pool worker writes its own
file when its pool shuts down. ``SIGUSR1`` starts a measured window: the
spans and counters recorded so far (a server's set-up) are dropped.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from multiprocessing import util


def main() -> int:
    prefix, launched_ns, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: traced_repro.py OUT_PREFIX LAUNCHED_NS -- ARGS")
    import repro.cli

    cli_start_s = (time.monotonic_ns() - int(launched_ns)) / 1e9
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    tracing.install()
    main_pid = os.getpid()

    def worker_started(recorder) -> None:
        # A pool worker forked from this process: drop the parent's spans
        # and dump its own when multiprocessing runs its exit finalizers.
        started = time.perf_counter()
        recorder.reset()
        util.Finalize(
            None,
            lambda: tracing.dump(
                f"{prefix}.{os.getpid()}.json",
                role="worker",
                wall_s=time.perf_counter() - started,
                cli_start_s=None,
            ),
            exitpriority=100,
        )

    util.register_after_fork(tracing.RECORDER, worker_started)
    started = time.perf_counter()
    window_start = [started - cli_start_s]

    def start_window(signum, frame) -> None:
        # SIGUSR1: a measured window starts (the server is primed and
        # idle); drop what set-up recorded so far.
        tracing.RECORDER.reset()
        window_start[0] = time.perf_counter()
        open(f"{prefix}.window", "w").close()

    signal.signal(signal.SIGUSR1, start_window)
    try:
        return repro.cli.main(argv)
    finally:
        if os.getpid() == main_pid:
            tracing.dump(
                f"{prefix}.{main_pid}.json",
                role="main",
                wall_s=time.perf_counter() - window_start[0],
                cli_start_s=cli_start_s,
            )


if __name__ == "__main__":
    raise SystemExit(main())
