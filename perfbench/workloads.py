"""The four workloads: set-up, measured operations, correctness checks.

Each workload returns an :class:`Outcome`. Set-up runs ``setup_repeats``
times, each time from a fresh process and a fresh store, and ``setup_s``
is the median. Operations repeat until the next one would end past
``seconds``; at least one always runs. Untraced set-ups and windows run a
host-speed sampler alongside (see ``_put_rate``). With ``trace`` on,
untraced and traced operations alternate so the tracing overhead is
measured on the same inputs, and only the traced ones feed the per-layer
metrics.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import signal
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import inputs
import tracing
from procs import SAMPLE_REF_S, HostSampler, ProgramRun, Server, percentile, run_program

PROGRAM_TIMEOUT_S = 150.0
CLIENTS = 2  # closed-loop clients; never more than nproc on the reference box

CHUNK_LINE = re.compile(
    r"\[chunk (\d+)/(\d+)\] (\d+)/(\d+) points \((\d+) from store, (\d+) failed\)"
)
ROUND_LINE = re.compile(r"\[round (\d+)\] (\d+) probes \((\d+) evaluations")

SERVICE_LAYER_KEYS = (
    "service.server_mean_ms", "service.edge_ms", "service.requests",
    "service.errors", "service.store_hit_ratio",
)


class SetupError(RuntimeError):
    """Set-up could not produce a usable starting state."""


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path
    setup_repeats: int = 3

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    """One workload run: metrics as (value, unit, samples), and checks."""

    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str, samples: int | list[float]) -> None:
        """Record a metric; a list of samples is kept for the results file."""
        if isinstance(samples, list):
            self.raw[name] = samples
            samples = len(samples)
        self.metrics[name] = (value, unit, samples)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


@contextmanager
def _host_sampled(enabled: bool):
    """Run a :class:`HostSampler` over the block; yields a list that holds
    its (mean sample CPU seconds, samples) once the block has ended."""
    sampler = HostSampler() if enabled else None
    host: list[tuple[float, int]] = []
    try:
        yield host
    finally:
        if sampler is not None:
            host.append(sampler.stop())


def _put_rate(out: "Outcome", points: float, wall_s: float, samples,
              host: tuple[float, int]) -> None:
    """Record ``points_per_s`` at the reference machine's speed.

    The reference machine is a share of a busy host whose speed wanders by
    up to 1.5-2x for minutes at a time. ``host`` is the window's mean
    sample time from :class:`HostSampler`; the measured rate is scaled by
    it over ``SAMPLE_REF_S``, the sample time on the reference machine in
    its fast periods. The sampler runs no program code, so a slower
    program still shows in full. The measured rate is printed as
    ``points_per_s_raw``.
    """
    sample_s, count = host
    raw = points / wall_s
    out.put("points_per_s", raw * sample_s / SAMPLE_REF_S, "points/s", samples)
    out.put("points_per_s_raw", raw, "points/s", samples)
    out.put("host_sample_ms", 1e3 * sample_s, "ms", count)


def _put_setup(out: "Outcome", times: list[float], host: list[tuple[float, int]]) -> None:
    """Record ``setup_s``, the median set-up, at the reference machine's
    speed when a sampler ran (see :func:`_put_rate`)."""
    if not host:
        out.put("setup_s", median(times), "s", times)
        return
    sample_s, _ = host[0]
    out.put("setup_s", median(times) * SAMPLE_REF_S / sample_s, "s", times)
    out.put("setup_s_raw", median(times), "s", len(times))


def _digest(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def _keep_going(started: float, last_s: float, seconds: float, done: int) -> bool:
    """Start another operation only if it should end within ``seconds``."""
    return done == 0 or time.perf_counter() - started + last_s <= seconds


def _trace_turn(ctx: Context, index: int) -> bool:
    """Odd operations are traced in a traced run (untraced ones first)."""
    return ctx.trace and index % 2 == 1


def _finish_trace(out: Outcome, prefixes: list[str], walls: dict) -> None:
    """Per-layer metrics from the traced operations' dump files."""
    documents = []
    for prefix in prefixes:
        directory, stem = Path(prefix).parent, Path(prefix).name
        for path in sorted(directory.glob(f"{stem}.*.json")):
            documents.append(json.loads(path.read_text()))
    out.layers = tracing.aggregate(documents, runs=len(prefixes))
    for key in SERVICE_LAYER_KEYS:
        out.layers.setdefault(key, 0.0)
    out.layers["trace.overhead_s"] = median(walls["traced"]) - median(walls["plain"])
    # Self times nest inside the main thread's wall time: a negative
    # remainder would mean spans overlap or the clocks disagree.
    if out.layers["trace.untraced_s"] < -1e-3:
        out.fail(f"layer self times exceed the traced wall time: {out.layers}")


# -- sweeps ----------------------------------------------------------------


def _progress(run: ProgramRun) -> tuple[int, int, int] | None:
    """(completed, total, from store) of the last progress line."""
    last = None
    for _, line in run.stderr:
        match = CHUNK_LINE.match(line)
        if match:
            last = (int(match[3]), int(match[4]), int(match[5]))
    return last


def _sweep_setup(ctx: Context, out: Outcome, *, fill: bool, budgets: int):
    """Serial one-chunk reference runs of the grid; with ``fill`` each one
    writes a fresh store, and the last store is returned for warm runs."""
    grid = inputs.sweep_grid(ctx.seed, budgets)
    grid_path = ctx.work / "grid.json"
    grid_path.write_text(json.dumps(grid))
    points = 1
    for axis in grid["axes"]:
        points *= len(axis.get("values") or range(axis["geom"]["count"]))
    times, reference, store = [], None, None
    with _host_sampled(not ctx.trace) as host:
        for k in range(ctx.setup_repeats):
            args = ["sweep", str(grid_path), "--workers", "1", "--chunk-size", str(points),
                    "--json", "--quiet"]
            if fill:
                if store is not None:
                    shutil.rmtree(store)
                store = ctx.work / f"setup-store-{k}"
                args += ["--store", str(store)]
            doc_path = ctx.work / f"setup-{k}.json"
            run = run_program(args, stdout_path=doc_path, timeout_s=PROGRAM_TIMEOUT_S)
            if run.returncode != 0:
                raise SetupError(f"reference sweep exited {run.returncode}: {run.stderr[-3:]}")
            times.append(run.wall_s)
            document = json.loads(doc_path.read_text())
            if reference is None:
                reference = document
                failed = [p["label"] for p in document["points"] if not p["ok"]]
                if len(document["points"]) != points or failed:
                    raise SetupError(f"grid must be all-feasible; failed points: {failed[:5]}")
            elif document != reference:
                out.fail(f"set-up reference run {k} differs from run 0")
    _put_setup(out, times, host)
    return grid_path, reference, store, points


def _sweep(ctx: Context, *, warm: bool) -> Outcome:
    out = Outcome()
    grid_path, reference, filled_store, points = _sweep_setup(
        ctx, out, fill=warm, budgets=inputs.SWEEP_BUDGETS if warm else inputs.COLD_BUDGETS
    )
    rates, firsts, peaks, prefixes = [], [], [], []
    walls = {"plain": [], "traced": []}
    with _host_sampled(not ctx.trace) as host:
        started = time.perf_counter()
        last = 0.0
        index = 0
        while _keep_going(started, last, ctx.seconds, index) or (ctx.trace and index < 2):
            traced = _trace_turn(ctx, index)
            store = filled_store if warm else ctx.fresh_dir(f"cold-store-{index}")
            prefix = str(ctx.fresh_dir(f"trace-{index}") / "sweep") if traced else None
            doc_path = ctx.work / f"sweep-{index}.json"
            run = run_program(
                ["sweep", str(grid_path), "--workers", "2", "--store", str(store), "--json"],
                stdout_path=doc_path, timeout_s=PROGRAM_TIMEOUT_S, trace_prefix=prefix,
            )
            index += 1
            last = run.wall_s
            out.attempted += 1
            progress = _progress(run)
            first = run.first_line_time("[chunk 1/")
            if run.returncode != 0 or progress is None or first is None:
                out.fail(f"sweep run {index} exited {run.returncode}: {run.stderr[-3:]}")
                continue
            if json.loads(doc_path.read_text()) != reference:
                out.fail(f"sweep run {index}: result document differs from the serial reference")
                continue
            completed, total, from_store = progress
            expected_hits = total if warm else 0
            if completed != points or from_store != expected_hits:
                out.fail(
                    f"sweep run {index}: guard failed: {from_store}/{total} points from store, "
                    f"expected {expected_hits}"
                )
                continue
            if not warm:
                shutil.rmtree(store)
            if traced:
                prefixes.append(prefix)
                walls["traced"].append(run.wall_s)
                continue
            walls["plain"].append(run.wall_s)
            rates.append(points / run.wall_s)
            firsts.append(first)
            peaks.append(run.peak_rss_mb)
    if rates and host:
        # Points over the summed wall of all operations.
        _put_rate(out, points * len(rates), sum(walls["plain"]), rates, host[0])
    if rates:
        out.put("first_result_s", median(firsts), "s", firsts)
        out.put("peak_rss_mb", max(peaks), "MB", peaks)
    if ctx.trace and prefixes and walls["plain"]:
        _finish_trace(out, prefixes, walls)
        layers = out.layers
        builds, hit_ratio = layers["distillation.catalog_builds"], layers["store.hit_ratio"]
        if warm and (hit_ratio != 1.0 or builds != 0):
            out.fail(f"sweep_warm guard: hit_ratio={hit_ratio}, catalog_builds={builds}")
        if not warm and (hit_ratio != 0.0 or builds <= 0):
            out.fail(f"sweep_cold guard: hit_ratio={hit_ratio}, catalog_builds={builds}")
    return out


def sweep_cold(ctx: Context) -> Outcome:
    return _sweep(ctx, warm=False)


def sweep_warm(ctx: Context) -> Outcome:
    return _sweep(ctx, warm=True)


# -- optimize --------------------------------------------------------------


def _optimize_reference(question: dict):
    """``reduce_answer`` over the question's dense grid, computed serially."""
    from repro.estimator.optimize import OptimizeSpec, reduce_answer
    from repro.estimator.sweep import run_sweep

    spec = OptimizeSpec.from_dict(question)
    dense = run_sweep(spec.sweep_spec())
    results = {p.index: p.result for p in dense.points}
    answer = reduce_answer(spec.objective, spec.constraints, sorted(results.items()))
    return answer, results


def optimize_fresh(ctx: Context) -> Outcome:
    out = Outcome()
    earlier = ctx.work / "question-earlier.json"
    earlier.write_text(json.dumps(inputs.optimize_question(ctx.seed, -1)))
    times, store = [], None
    with _host_sampled(not ctx.trace) as host:
        for k in range(ctx.setup_repeats):
            if store is not None:
                shutil.rmtree(store)
            store = ctx.work / f"optimize-store-{k}"
            run = run_program(
                ["optimize", str(earlier), "--store", str(store), "--json", "--quiet"],
                stdout_path=ctx.work / "earlier-answer.json", timeout_s=PROGRAM_TIMEOUT_S,
            )
            if run.returncode != 0:
                raise SetupError(f"set-up optimize exited {run.returncode}: {run.stderr[-3:]}")
            times.append(run.wall_s)
    _put_setup(out, times, host)

    answers, grids, rates, peaks, asked, prefixes = [], [], [], [], [], []
    walls = {"plain": [], "traced": []}
    with _host_sampled(not ctx.trace) as host:
        started = time.perf_counter()
        last = 0.0
        index = 0
        while _keep_going(started, last, ctx.seconds, index) or (ctx.trace and index < 2):
            traced = _trace_turn(ctx, index)
            question = inputs.optimize_question(ctx.seed, index)
            path = ctx.work / f"question-{index}.json"
            path.write_text(json.dumps(question))
            prefix = str(ctx.fresh_dir(f"trace-{index}") / "optimize") if traced else None
            doc_path = ctx.work / f"answer-{index}.json"
            run = run_program(
                ["optimize", str(path), "--store", str(store), "--json"],
                stdout_path=doc_path, timeout_s=PROGRAM_TIMEOUT_S, trace_prefix=prefix,
            )
            index += 1
            last = run.wall_s
            out.attempted += 1
            rounds = [ROUND_LINE.match(line) for _, line in run.stderr]
            rounds = [match for match in rounds if match]
            if run.returncode != 0 or not rounds:
                out.fail(f"question {index - 1} exited {run.returncode}: {run.stderr[-3:]}")
                continue
            document = json.loads(doc_path.read_text())
            grid = document["counts"]["grid"]
            evaluations = int(rounds[-1][3])
            if evaluations >= grid:
                out.fail(f"question {index - 1}: guard failed: "
                         f"{evaluations} evaluations of {grid}")
                continue
            asked.append((question, document))
            if traced:
                prefixes.append(prefix)
                walls["traced"].append(run.wall_s)
                continue
            walls["plain"].append(run.wall_s)
            answers.append(run.wall_s)
            grids.append(grid)
            rates.append(grid / run.wall_s)
            peaks.append(run.peak_rss_mb)

    # Correctness: each answer equals the dense grid's reduction, and the
    # answer points' estimates equal the dense grid's estimates.
    for question, document in asked:
        expected, dense = _optimize_reference(question)
        got = tuple(document["answer"]["points"])
        probes = {probe["index"]: probe for probe in document["probes"]}
        if got != expected:
            out.fail(f"optimize answer {got} != dense-grid answer {expected}")
        elif any(probes[i]["result"] != json.loads(json.dumps(dense[i].to_dict()))
                 for i in got):
            out.fail(f"optimize answer estimates differ from the dense grid at {got}")
    if answers:
        if host:
            _put_rate(out, sum(grids), sum(answers), rates, host[0])
        out.put("answer_s", median(answers), "s", answers)
        out.put("first_result_s", median(answers), "s", len(answers))
        out.put("peak_rss_mb", max(peaks), "MB", peaks)
    if ctx.trace and prefixes and walls["plain"]:
        _finish_trace(out, prefixes, walls)
    return out


# -- service ---------------------------------------------------------------


def _boot_and_prime(ctx: Context, name: str, hot: list[dict], trace_prefix=None) -> Server:
    store = ctx.fresh_dir(f"{name}-store")
    server = Server(store, ctx.work / f"{name}.log", trace_prefix=trace_prefix)
    try:
        primed = server.post_json("/v1/estimate", {"specs": hot})
        bad = [r.get("error") for r in primed["results"] if not r["ok"]]
        if bad:
            raise SetupError(f"priming the hot set failed: {bad[:3]}")
    except BaseException:
        server.stop()
        raise
    return server


def _estimate_series(snapshot: dict) -> tuple[float, float, float, float]:
    """(count, seconds sum, 2xx, non-2xx) of ``POST /v1/estimate``."""
    count = total = ok = errors = 0.0
    for hist in snapshot["histograms"]:
        labels = hist["labels"]
        if hist["name"] == "repro_request_seconds" and labels.get("route") == "/v1/estimate" \
                and labels.get("method") == "POST":
            count += hist["count"]
            total += hist["sum"]
    for counter in snapshot["counters"]:
        labels = counter["labels"]
        if counter["name"] == "repro_requests_total" and labels.get("route") == "/v1/estimate" \
                and labels.get("method") == "POST":
            if labels.get("status", "").startswith("2"):
                ok += counter["value"]
            else:
                errors += counter["value"]
    return count, total, ok, errors


def _client(server: Server, stream: inputs.RequestStream, deadline: float, records: list) -> None:
    """One closed-loop client: send, wait for the reply, send the next.

    Like ``ServiceClient``, every request opens its own connection: on a
    kept-alive connection the server's separate header and body writes
    meet delayed ACKs and each reply stalls ~40 ms (see README.md).
    """
    headers = {"Content-Type": "application/json", "Connection": "close"}
    while time.perf_counter() < deadline:
        kind, spec = stream.next()
        body = json.dumps(spec)
        sent = time.perf_counter()
        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            conn.request("POST", "/v1/estimate", body, headers)
            response = conn.getresponse()
            payload = response.read()
            latency = time.perf_counter() - sent
            record = json.loads(payload) if response.status == 200 else None
        except (OSError, http.client.HTTPException, ValueError) as exc:
            records.append((kind, spec, None, None, f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            conn.close()
        if record is None:
            records.append((kind, spec, latency, None, f"HTTP {response.status}"))
            continue
        digest = _digest(record["result"]) if record.get("ok") else None
        records.append(
            (kind, spec, latency, (record["specHash"], digest, record["fromStore"]), None)
        )


def _serve_window(server: Server, streams: list[inputs.RequestStream], seconds: float):
    """Drive ``server`` with one closed-loop client per stream for ``seconds``.

    Returns the records and the window's wall time.
    """
    deadline = time.perf_counter() + seconds
    per_client: list[list] = [[] for _ in streams]
    threads = [
        threading.Thread(target=_client, args=(server, stream, deadline, records))
        for stream, records in zip(streams, per_client)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    window = time.perf_counter() - started
    return [r for records in per_client for r in records], window


def _start_trace_window(server: Server, prefix: str) -> None:
    """Make the traced server drop its set-up spans before the window."""
    marker = Path(f"{prefix}.window")
    os.kill(server.proc.pid, signal.SIGUSR1)
    deadline = time.perf_counter() + 10
    while not marker.exists():
        if time.perf_counter() > deadline:
            raise SetupError("traced server did not acknowledge the window start")
        time.sleep(0.01)


def _serve_phase(ctx: Context, server: Server, hot: list[dict], tag: str):
    """One measured window; a traced run splits ``seconds`` between two.

    Returns the records, the window's wall time, the server's metrics
    snapshots from before and after the window, its peak RSS and, for an
    untraced window, the host sampler's reading.
    """
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    streams = [inputs.RequestStream(ctx.seed, f"{tag}{c}", hot) for c in range(CLIENTS)]
    before = server.get_json("/v1/metrics?format=json")
    with _host_sampled(not ctx.trace) as host:
        records, window = _serve_window(server, streams, seconds)
    after = server.get_json("/v1/metrics?format=json")
    return records, window, before, after, server.stop(), host


def _serial_answers(specs: list[dict]) -> dict[str, tuple[str, str]]:
    """spec JSON -> (spec hash, result digest), computed in this process."""
    from repro import EstimateSpec, run_specs

    unique = {json.dumps(spec, sort_keys=True): spec for spec in specs}
    outcomes = run_specs([EstimateSpec.from_dict(spec) for spec in unique.values()])
    return {
        key: (o.spec_hash, _digest(json.loads(json.dumps(o.result.to_dict()))) if o.ok else None)
        for key, o in zip(unique, outcomes)
    }


def _check_records(out: Outcome, records: list, expected: dict) -> None:
    for kind, spec, latency, answer, error in records:
        out.attempted += 1
        if error is not None:
            out.fail(f"{kind} request failed: {error}")
            continue
        spec_hash, digest, from_store = answer
        want = expected[json.dumps(spec, sort_keys=True)]
        if (spec_hash, digest) != want:
            out.fail(f"{kind} request {spec_hash}: record differs from the serial answer")
        elif kind == "hit" and not from_store:
            out.fail(f"guard: hot-set request {spec_hash} was not a store hit")


def serve_mixed(ctx: Context) -> Outcome:
    out = Outcome()
    hot = inputs.hot_set(ctx.seed)
    times, servers = [], []
    try:
        repeats = 1 if ctx.trace else ctx.setup_repeats
        with _host_sampled(not ctx.trace) as host:
            for k in range(repeats):
                for old in servers:
                    old.stop()
                server = _boot_and_prime(ctx, f"server-{k}", hot)
                times.append(server.since_launch_s())
                servers = [server]
        _put_setup(out, times, host)
        results = {"plain": _serve_phase(ctx, servers[0], hot, "plain")}
        if ctx.trace:
            prefix = str(ctx.fresh_dir("trace-server") / "serve")
            servers.append(_boot_and_prime(ctx, "server-traced", hot, trace_prefix=prefix))
            _start_trace_window(servers[-1], prefix)
            results["traced"] = _serve_phase(ctx, servers[-1], hot, "traced")
    finally:
        for server in servers:
            server.stop()

    all_records = [r for tag in results for r in results[tag][0]]
    expected = _serial_answers(hot + [spec for _, spec, *_ in all_records])
    _check_records(out, all_records, expected)

    records, window, before, after, peak, host = results["plain"]
    done = [r for r in records if r[4] is None]
    latencies = [r[2] for r in done]
    hits = [r[2] for r in done if r[0] == "hit"]
    misses = [r[2] for r in done if r[0] == "miss"]
    if latencies and hits and misses:
        if host:
            _put_rate(out, len(done), window, len(done), host[0])
        out.put("requests_per_s", len(done) / window, "req/s", len(done))
        out.put("first_result_s", median(latencies), "s", len(latencies))
        out.put("hit_p50_ms", 1e3 * median(hits), "ms", len(hits))
        out.put("hit_p99_ms", 1e3 * percentile(hits, 99), "ms", len(hits))
        out.put("miss_p50_ms", 1e3 * median(misses), "ms", len(misses))
        out.put("peak_rss_mb", peak, "MB", 1)
    if ctx.trace:
        _serve_layers(out, results, prefix)
    return out


def _serve_layers(out: Outcome, results: dict, prefix: str) -> None:
    records, window, before, after, _, _ = results["traced"]
    documents = [json.loads(p.read_text()) for p in Path(prefix).parent.glob("serve.*.json")]
    out.layers = tracing.aggregate(documents, runs=1)
    count0, sum0, ok0, err0 = _estimate_series(before)
    count1, sum1, ok1, err1 = _estimate_series(after)
    requests, server_s = count1 - count0, sum1 - sum0
    done = [r for r in records if r[4] is None]
    client_p50 = median([r[2] for r in done])
    plain_p50 = median([r[2] for r in results["plain"][0] if r[4] is None])
    server_mean = server_s / requests if requests else 0.0
    hits = sum(1 for r in done if r[3][2])
    out.layers.update({
        "service.server_mean_ms": 1e3 * server_mean,
        "service.edge_ms": 1e3 * (client_p50 - server_mean),
        "service.requests": requests,
        "service.errors": err1 - err0,
        "service.store_hit_ratio": hits / len(done) if done else 0.0,
        "trace.overhead_s": client_p50 - plain_p50,
    })
    # Server-side request time is what the layers below the HTTP edge
    # account for; the remainder is parsing, routing and serialization.
    handler_self = sum(
        self_s
        for doc in documents
        for _name, _dur, self_s, thread, _parent in tracing.span_self_times(doc["spans"])
        if thread != doc["main_thread"]
    )
    out.layers["trace.wall_s"] = server_s
    out.layers["trace.untraced_s"] = server_s - handler_self
    if requests != len(records):
        out.fail(f"server counted {requests} estimate requests, clients sent {len(records)}")
    if (ok1 - ok0) != len(done):
        out.fail(f"server counted {ok1 - ok0} answered requests, clients got {len(done)}")


WORKLOADS = {
    "sweep_cold": sweep_cold,
    "sweep_warm": sweep_warm,
    "optimize_fresh": optimize_fresh,
    "serve_mixed": serve_mixed,
}
