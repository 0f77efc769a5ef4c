"""Span recorder and layer wrappers for the benchmark's traced runs.

Nothing here is imported by the program itself: ``traced_repro.py``
imports this module inside a ``repro`` process, wraps the public entry
points of each layer (plus the T-factory catalog builder, the one private
method whose first call per key *is* the cold cost being measured) and
writes the spans and counters to a JSON file when the process ends.
Forked pool workers inherit the wrappers and write a file of their own.

A span is ``(id, parent id, name, start ns, end ns, thread id)``; the
parent is the innermost open span of the same thread. ``aggregate`` turns
the files of one run into the per-layer metrics named in README.md.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

# Layer of each span name; a layer's self time is the sum of its spans'
# self times (span duration minus the time its child spans cover).
SPAN_LAYER = {
    "programs.resolve": "programs",
    "store.get_counts": "store",
    "store.get": "store",
    "store.read": "store",
    "store.put": "store",
    "distillation.catalog": "distillation",
    "distillation.design": "distillation",
    "stages.pipeline": "stages",
    "kernel.batch": "kernel",
    "spec.hash": "spec",
    "spec.run_specs": "spec",
    "batch.estimate": "batch",
    "engine.run": "engine",
    "sweep.run": "sweep",
    "optimize.run": "optimize",
    "service.submit": "service",
}
LAYERS = sorted(set(SPAN_LAYER.values()))


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counters: Counter = Counter()
        self.engines: dict[int, dict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        self.__init__()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def call(self, name: str, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, threading.get_ident())
            )

    def inside(self, name: str) -> bool:
        """Whether the innermost open span of this thread is ``name``."""
        stack = getattr(self._local, "stack", None)
        return bool(stack) and stack[-1][1] == name


RECORDER = Recorder()


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module attribute that is ``original``.

    Functions imported by name (``from .spec import run_specs``) live on
    in the importing module, so patching the defining module alone would
    miss most callers.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(module, attr: str, span: str, after=None) -> None:
    original = getattr(module, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        result = RECORDER.call(span, original, args, kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    _replace_everywhere(original, traced)


def _hook_method(cls, attr: str, after) -> None:
    """Count from a method's arguments without recording a span."""
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def hooked(*args, **kwargs):
        result = original(*args, **kwargs)
        after(args, kwargs, result)
        return result

    setattr(cls, attr, hooked)


def _wrap_method(cls, attr: str, span: str, after=None) -> None:
    original = cls.__dict__[attr]

    @functools.wraps(original)
    def traced(*args, **kwargs):
        result = RECORDER.call(span, original, args, kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(cls, attr, traced)


def install() -> None:
    """Wrap every layer's entry points (call after importing ``repro.cli``)."""
    import repro.service  # noqa: F401  (imported so its by-name imports get patched)
    from repro.distillation.search import TFactoryDesigner
    from repro.estimator import batch, engine, kernel, optimize, spec, stages, store, sweep

    rec = RECORDER
    count = rec.count

    # programs: counts resolution (memo + counts namespace underneath).
    _wrap_method(
        batch.EstimateCache, "resolve_counts", "programs.resolve",
        after=lambda a, k, r: count("programs.resolve_calls"),
    )
    _wrap_method(
        store.ResultStore, "get_counts", "store.get_counts",
        after=lambda a, k, r: count(
            "store.counts_hits" if r is not None else "store.counts_misses"
        ),
    )

    # distillation: catalog builds (first use per designer, profile,
    # scheme) and per-point factory selection.
    catalog = TFactoryDesigner.__dict__["_catalog"]

    @functools.wraps(catalog)
    def traced_catalog(self, qubit, scheme):
        if (qubit, scheme) in self._catalog_cache:
            return catalog(self, qubit, scheme)
        count("distillation.catalog_builds")
        return rec.call("distillation.catalog", catalog, (self, qubit, scheme), {})

    TFactoryDesigner._catalog = traced_catalog
    _wrap_method(
        TFactoryDesigner, "design", "distillation.design",
        after=lambda a, k, r: count("distillation.design_calls"),
    )

    # stages: the scalar per-point pipeline.
    _wrap_function(
        stages, "run_pipeline", "stages.pipeline",
        after=lambda a, k, r: count("stages.points"),
    )

    # kernel: vectorized batches and the points they handled.
    _wrap_function(kernel, "run_batch_vectorized", "kernel.batch")

    def kernel_points(a, k, r):
        count("kernel.vectorized_points", k.get("vectorized", 0))
        count("kernel.scalar_fallbacks", k.get("fallback", 0))
        count("kernel.scalar_points", k.get("scalar", 0))

    _hook_method(batch.EstimateCache, "record_kernel_points", kernel_points)
    _hook_method(
        batch.EstimateCache, "record_executor_fallback",
        lambda a, k, r: count("batch.serial_fallbacks"),
    )

    # spec: content hashing and the store/batch orchestration of run_specs.
    _wrap_method(
        spec.EstimateSpec, "content_hash", "spec.hash",
        after=lambda a, k, r: count("spec.hash_calls"),
    )
    _wrap_function(
        spec, "run_specs", "spec.run_specs",
        after=lambda a, k, r: count("spec.points", len(r)),
    )

    # store: reads (memory LRU, disk + digest, decode) and writes.
    def note_get(a, k, r):
        count("store.get_calls")
        if r is not None:
            count("store.get_hits")

    def note_read(a, k, r):
        if rec.inside("store.get"):
            count("store.disk_reads_in_get")

    _wrap_method(store.ResultStore, "get", "store.get", after=note_get)
    _wrap_method(store.ResultStore, "get_raw", "store.read", after=note_read)

    def note_put_many(a, k, r):
        # run_specs passes a list; an exhausted iterator would count 0 bytes.
        self, entries = a[0], a[1]
        count("store.put_docs", r)
        count("store.bytes_written", sum(_size(self.path_for(h)) for h, *_ in entries))

    def note_put(path_of):
        def after(a, k, r):
            if r:
                count("store.put_docs")
                count("store.bytes_written", _size(path_of(a[0], a[1])))
        return after

    _wrap_method(store.ResultStore, "put_many", "store.put", after=note_put_many)
    for method, path_of in (
        ("put", lambda s, h: s.path_for(h)),
        ("put_counts", lambda s, h: s.counts_path_for(h)),
        ("put_sweep", lambda s, h: s.sweep_path_for(h)),
        ("put_optimize", lambda s, h: s.optimize_path_for(h)),
    ):
        _wrap_method(store.ResultStore, method, "store.put", after=note_put(path_of))

    # batch and engine: the parent's side of (parallel) evaluation.
    _wrap_function(
        batch, "estimate_batch", "batch.estimate",
        after=lambda a, k, r: (count("batch.calls"), count("batch.points", len(r))),
    )

    def note_engine(a, k, r):
        # Keep each engine's latest counters (pool spawns happen inside run).
        rec.engines[id(a[0])] = a[0].stats()

    _wrap_method(engine.ExecutionEngine, "run", "engine.run", after=note_engine)

    # sweep and optimize orchestration.
    _wrap_function(sweep, "run_sweep", "sweep.run")
    _wrap_function(
        optimize, "run_optimize", "optimize.run",
        after=lambda a, k, r: (
            count("optimize.evaluations", r.num_evaluations),
            count("optimize.probes", len(r.probes)),
        ),
    )

    # service: one estimate request's work below the HTTP edge.
    _wrap_method(repro.service.EstimationService, "submit", "service.submit")


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def dump(path: str, *, role: str, wall_s: float, cli_start_s: float | None) -> None:
    """Write this process's spans and counters as one JSON document."""
    document = {
        "pid": os.getpid(),
        "role": role,
        "wall_s": wall_s,
        "cli_start_s": cli_start_s,
        "main_thread": threading.main_thread().ident,
        "spans": RECORDER.spans,
        "counters": dict(RECORDER.counters),
        "engines": list(RECORDER.engines.values()),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(document, handle)
    os.replace(tmp, path)


# -- aggregation (runs in run.py's process) -------------------------------


def span_self_times(spans) -> list[tuple[str, float, float, int, int]]:
    """``(name, duration s, self s, thread, parent)`` for every span."""
    child_ns: dict[int, int] = defaultdict(int)
    for span_id, parent, _name, start, end, _thread in spans:
        if parent:
            child_ns[parent] += end - start
    out = []
    for span_id, parent, name, start, end, thread in spans:
        duration = end - start
        out.append(
            (name, duration / 1e9, (duration - child_ns[span_id]) / 1e9, thread, parent)
        )
    return out


def aggregate(documents: list[dict], runs: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, as means per program run.

    ``documents`` are the dumps of every traced process (program
    processes and their pool workers); ``runs`` is the number of program
    runs they came from. Counts and times are summed over processes and
    divided by ``runs``; ratios are taken over the sums. ``self.<layer>_s``
    covers the program process only (not its pool workers), so for a CLI
    run those self times plus ``trace.untraced_s`` equal ``trace.wall_s``.
    """
    total = Counter()
    span_total = Counter()
    span_self = Counter()
    span_count = Counter()
    layer_self = Counter()
    main_self = 0.0
    main_wall = 0.0
    sweep_chunks = 0
    engines = Counter()
    cli_start = []
    for doc in documents:
        total.update(doc["counters"])
        rows = span_self_times(doc["spans"])
        names = {span[0]: span[2] for span in doc["spans"]}
        for name, duration, self_s, thread, parent in rows:
            span_total[name] += duration
            span_self[name] += self_s
            span_count[name] += 1
            if name == "spec.run_specs" and names.get(parent) == "sweep.run":
                sweep_chunks += 1
            if doc["role"] == "main":
                layer_self[SPAN_LAYER[name]] += self_s
                if thread == doc["main_thread"]:
                    main_self += self_s
        if doc["role"] == "main":
            main_wall += doc["wall_s"]
            if doc["cli_start_s"] is not None:
                cli_start.append(doc["cli_start_s"])
        for stats in doc["engines"]:
            for key in ("poolSpawns", "chunksDispatched", "chunksReplayed", "rebuilds"):
                engines[key] += stats.get(key, 0)
    n = max(runs, 1)

    def per_run(value: float) -> float:
        return value / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "cli.start_s": sum(cli_start) / len(cli_start) if cli_start else 0.0,
        "programs.resolve_calls": per_run(total["programs.resolve_calls"]),
        "programs.resolve_s": per_run(span_total["programs.resolve"]),
        "store.counts_hits": per_run(total["store.counts_hits"]),
        "store.counts_misses": per_run(total["store.counts_misses"]),
        "distillation.catalog_builds": per_run(total["distillation.catalog_builds"]),
        "distillation.catalog_s": per_run(span_total["distillation.catalog"]),
        "distillation.design_calls": per_run(total["distillation.design_calls"]),
        "distillation.select_s": per_run(span_self["distillation.design"]),
        "stages.points": per_run(total["stages.points"]),
        "stages.solve_s": per_run(span_self["stages.pipeline"]),
        "kernel.vectorized_points": per_run(total["kernel.vectorized_points"]),
        "kernel.scalar_points": per_run(total["kernel.scalar_points"]),
        "kernel.scalar_fallbacks": per_run(total["kernel.scalar_fallbacks"]),
        "kernel.s": per_run(span_self["kernel.batch"]),
        "spec.hash_calls": per_run(total["spec.hash_calls"]),
        "spec.hash_s": per_run(span_total["spec.hash"]),
        "spec.hashes_per_point": ratio(total["spec.hash_calls"], total["spec.points"]),
        "spec.run_specs_self_s": per_run(span_self["spec.run_specs"]),
        "store.get_calls": per_run(total["store.get_calls"]),
        "store.get_hits": per_run(total["store.get_hits"]),
        "store.hit_ratio": ratio(total["store.get_hits"], total["store.get_calls"]),
        "store.read_s": per_run(span_total["store.read"]),
        "store.decode_s": per_run(span_self["store.get"]),
        "store.mem_hit_ratio": ratio(
            total["store.get_calls"] - total["store.disk_reads_in_get"],
            total["store.get_calls"],
        ),
        "store.put_docs": per_run(total["store.put_docs"]),
        "store.put_s": per_run(span_total["store.put"]),
        "store.bytes_written": per_run(total["store.bytes_written"]),
        "batch.calls": per_run(total["batch.calls"]),
        "batch.points": per_run(total["batch.points"]),
        "batch.s": per_run(span_self["batch.estimate"]),
        "batch.serial_fallbacks": per_run(total["batch.serial_fallbacks"]),
        "engine.run_s": per_run(span_total["engine.run"]),
        "engine.pool_spawns": per_run(engines["poolSpawns"]),
        "engine.chunks_dispatched": per_run(engines["chunksDispatched"]),
        "engine.chunks_replayed": per_run(engines["chunksReplayed"]),
        "engine.rebuilds": per_run(engines["rebuilds"]),
        "sweep.chunks": per_run(sweep_chunks),
        "sweep.self_s": per_run(span_self["sweep.run"]),
        "optimize.evaluations": per_run(total["optimize.evaluations"]),
        "optimize.probes": per_run(total["optimize.probes"]),
        "optimize.self_s": per_run(span_self["optimize.run"]),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = per_run(layer_self[layer])
    metrics["trace.wall_s"] = per_run(main_wall)
    metrics["trace.untraced_s"] = per_run(main_wall - main_self)
    metrics["trace.spans"] = per_run(sum(span_count.values()))
    return metrics
