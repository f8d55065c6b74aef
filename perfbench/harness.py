"""One benchmark run: set up, warm up, measure a closed query loop.

A run is one client in one process: the next query starts when the
previous one has returned and been checked.  It sets up SESSIONS
sessions in turn, evenly spread over the measurement window; each
serves the queries until the next takes over.  Timed runs measure with
no instrumentation at all; a traced run alternates untraced and traced
queries (so host drift hits both alike) and reports per-layer metrics
from the traced ones plus the tracing overhead.

Query latency is reported relative to the host: right after each
measured untraced query the run times a fixed reference task, and the
query's relative time is its wall time over the task's.  On a shared
host the speed of the whole machine swings by up to 1.7x in phases of
seconds to minutes (the user CPU time of a query swings with its wall
time; there is no steal time to subtract), which no statistic of raw
wall times over one run averages away; the ratio of two timings taken
a few milliseconds apart does.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from repro.storage import IOStats, PoolStats, get_codec

from .layers import LAYERS, LayerClock
from .workloads import BLOCK_SIZE, WORKLOADS

#: Sessions a run sets up, one after another, to serve its queries;
#: setup_s is the median of their set-up times.
SESSIONS = 20
#: p90 is only meaningful with ten samples beyond it, so a run measures
#: at least this many queries even when --seconds has already passed.
MIN_QUERIES = 100
#: Measurement stops here regardless, so a run ends well within 180 s.
MAX_MEASURE_S = 120.0
#: The host-reference task: a pure-Python loop of this many iterations
#: (interpreter-bound, like the engine's orchestration) ...
REFERENCE_LOOP = 100_000
#: ... plus a numpy pass over two arrays of this many float64s
#: (memory-bound, like the tile and vector kernels); ~15 ms in all.
REFERENCE_ELEMENTS = 1 << 20

#: End-to-end metrics (timed runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "query_rel.p50": "ratio",
    "query_rel.p90": "ratio",
    "io_blocks": "blocks",
    "device_mb": "MB",
    "store_growth_mb": "MB",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.  *_s and *_calls are
#: per traced query.
PER_LAYER = {
    "rlang.self_s": "s",
    "rlang.calls": "count",
    "core.optimize_s": "s",
    "core.execute_self_s": "s",
    "core.cost_ratio_min": "ratio",
    "core.cost_ratio_max": "ratio",
    "linalg.matmul_self_s": "s",
    "linalg.matmul_calls": "count",
    "linalg.lu_self_s": "s",
    "linalg.solve_self_s": "s",
    "storage.tile_self_s": "s",
    "storage.tile_calls": "count",
    "storage.codec_self_s": "s",
    "storage.codec_calls": "count",
    "storage.compression_ratio": "ratio",
    "storage.decoded_cache_hit_rate": "ratio",
    "storage.pool_self_s": "s",
    "storage.pool_calls": "count",
    "storage.pool_hit_rate": "ratio",
    "storage.pool_evictions": "count",
    "storage.prefetch_useful": "ratio",
    "storage.device_self_s": "s",
    "storage.device_s": "s",
    "storage.syscalls": "count",
    "storage.read_calls_per_block": "ratio",
    "other.self_s": "s",
    "trace.query_s": "s",
    "trace.overhead": "ratio",
}


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        workdir: str, backend: str = "pread",
        min_queries: int = MIN_QUERIES, sessions: int = SESSIONS) -> dict:
    """Run one workload; returns the result object ``run.py`` prints
    plus a ``"report"`` of everything else worth recording."""
    w = WORKLOADS[workload]
    reference = HostReference()
    probe_before = reference.best_ms()
    inputs = w.make_inputs(seed)
    ref = w.reference(inputs)

    loop = _QueryLoop(w, inputs, ref, workdir, backend, reference)
    try:
        loop.open_session()
        loop.query(clock=None, measured=False)  # the reference result
        loop.measure(seconds, trace, min_queries, sessions)
        calibration = loop.state.session.calibration_report()
    finally:
        loop.close_session()

    e2e = loop.end_to_end()
    report = {"workload": workload, "seed": seed, "backend": backend,
              "queries": loop.measured, "sessions": len(loop.setup_times),
              "error_rate": loop.failed / loop.attempted,
              "end_to_end": e2e, "wall": loop.wall(),
              "provenance": provenance(probe_before, reference.best_ms())}
    correct = loop.failed == 0
    if trace:
        metrics = loop.per_layer(calibration)
        problems = loop.wiring_problems(w)
        report["wiring_problems"] = problems
        correct = correct and not problems
    else:
        metrics = e2e
    units = PER_LAYER if trace else END_TO_END
    return {"correct": correct, "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
            "report": report}


class _QueryLoop:
    """Sets up sessions; runs, times, counts and checks queries."""

    def __init__(self, workload, inputs, ref, workdir: str,
                 backend: str, reference: HostReference) -> None:
        self.w = workload
        self.inputs = inputs
        self.ref = ref
        self.workdir = workdir
        self.backend = backend
        self.setup_times: list[float] = []
        # The session serving the queries, and its page files' directory.
        self.state = None
        self.state_dir = ""
        self.store = None
        self.first: dict[str, np.ndarray] | None = None
        self.attempted = 0
        self.failed = 0
        # Measured (post-warm-up) queries only.
        self.measured = 0
        self.io_blocks: list[int] = []
        self.device_bytes: list[int] = []
        self.growth_blocks: list[int] = []
        # Walls of measured queries by kind, and the counter deltas of
        # traced ones.
        self.untraced_walls: list[float] = []
        self.traced_walls: list[float] = []
        # Untraced walls over the host-reference task timed after each.
        self.reference = reference
        self.reference_walls: list[float] = []
        self.relative: list[float] = []
        self.clock = LayerClock()
        self.traced_io = IOStats()
        self.traced_pool = PoolStats()
        self.cache_hits = 0
        self.cache_misses = 0
        self.stray_spans = 0

    def open_session(self) -> None:
        """Set up a session on fresh page files — open it, load the
        inputs, flush; that is what setup_s times — and let it serve the
        queries from now on.  The previous session is closed and its
        page files removed."""
        state_dir = os.path.join(self.workdir,
                                 f"session-{len(self.setup_times)}")
        os.mkdir(state_dir)
        storage = self.w.storage(os.path.join(state_dir, "store.db"),
                                 self.backend)
        start = time.perf_counter()
        state = self.w.open(self.inputs, storage)
        self.setup_times.append(time.perf_counter() - start)
        self.close_session()
        self.state, self.state_dir = state, state_dir
        self.store = state.session.store

    def close_session(self) -> None:
        if self.state is None:
            return
        self.state.session.close()
        shutil.rmtree(self.state_dir)
        self.state = None
        # Free the closed session (engine state holds reference cycles)
        # so peak_rss_mb sees at most two sessions, not a
        # garbage-collector-dependent number of them.
        gc.collect()

    def measure(self, seconds: float, trace: bool, min_queries: int,
                sessions: int) -> None:
        """Queries for ``seconds`` and at least ``min_queries``.

        Between queries, at ``sessions - 1`` evenly spaced points of the
        window, a freshly set-up session takes over.  Within one session
        the page file grows by every result the session keeps (9.5 MB
        per ``chain`` query); left to grow for a whole run that is ~2.7
        GB of new page cache and writeback, and ``chain`` queries then
        slow down by up to half within the run, at a rate the host's
        memory and disk set.  Bounding each session's growth keeps that
        out of the query times, and the set-ups sample the host over the
        same span as the queries.
        """
        start = time.perf_counter()
        while True:
            n = self.measured
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and n >= min_queries
                    or elapsed >= MAX_MEASURE_S):
                break
            opened = len(self.setup_times)
            if opened < sessions and opened * seconds < sessions * elapsed:
                self.open_session()
            self.query(clock=self.clock if trace and n % 2 else None)

    def query(self, clock: LayerClock | None,
              measured: bool = True) -> None:
        """One query.  Exceptions and failed checks are counted, never
        raised."""
        device, pool = self.store.device, self.store.pool
        cache = self.store.tile_cache
        io0, pool0 = device.stats.snapshot(), pool.stats.snapshot()
        hits0, misses0 = cache.hits, cache.misses
        live0 = _live_blocks(self.store)
        covered0 = self.clock.covered_ns
        self.attempted += 1
        raw = None
        with clock.installed() if clock else contextlib.nullcontext():
            start = time.perf_counter_ns()
            try:
                raw = self.w.query(self.state)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            wall_ns = time.perf_counter_ns() - start
        if measured and clock is None:
            reference = self.reference.seconds()
            self.reference_walls.append(reference)
            self.relative.append(wall_ns / 1e9 / reference)
        io = device.stats.delta(io0)
        if measured:
            self.measured += 1
            self.io_blocks.append(io.total)
            self.device_bytes.append(io.bytes_read + io.bytes_written)
            self.growth_blocks.append(_live_blocks(self.store) - live0)
        if clock is not None:
            self.traced_walls.append(wall_ns / 1e9)
            self.traced_io = self.traced_io.merged(io)
            self.traced_pool = self.traced_pool.merged(
                pool.stats.delta(pool0))
            self.cache_hits += cache.hits - hits0
            self.cache_misses += cache.misses - misses0
            self.stray_spans += clock.open_spans
            if self.clock.covered_ns - covered0 > wall_ns:
                self.stray_spans += 1
        elif measured:
            self.untraced_walls.append(wall_ns / 1e9)
        if not self._passes(raw):
            self.failed += 1

    def _passes(self, raw) -> bool:
        if raw is None:
            return False
        try:
            observed = self.w.observe(self.state, raw)
            ok = self.w.check(observed, self.ref)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False
        if self.first is None:
            self.first = observed
            return ok
        # The determinism contract: every query repeats the first
        # bit for bit.
        same = all(observed[k].tobytes() == self.first[k].tobytes()
                   for k in self.first)
        return ok and same

    # ------------------------------------------------------------------
    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_times),
            "query_rel.p50": statistics.median(self.relative),
            "query_rel.p90": _p90(self.relative),
            "io_blocks": statistics.median(self.io_blocks),
            "device_mb": statistics.median(self.device_bytes) / 1e6,
            "store_growth_mb": statistics.median(self.growth_blocks)
            * BLOCK_SIZE / 1e6,
            # ru_maxrss is KiB on Linux.
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }

    def wall(self) -> dict[str, float]:
        """The raw wall times behind query_rel, for the report only:
        they follow the host's speed and bound nothing."""
        return {"query_s.p50": statistics.median(self.untraced_walls),
                "query_s.p90": _p90(self.untraced_walls),
                "host_reference_s.p50":
                    statistics.median(self.reference_walls)}

    def per_layer(self, calibration) -> dict[str, float]:
        n = max(1, len(self.traced_walls))
        clock, io, pool = self.clock, self.traced_io, self.traced_pool

        def self_s(layer):
            return clock.self_ns[layer] / 1e9 / n

        def calls(layer):
            return clock.calls[layer] / n

        medians = [m.median_ratio for m in calibration.models.values()
                   if m.median_ratio is not None]
        lookups = self.cache_hits + self.cache_misses
        wall = sum(self.traced_walls)
        return {
            "rlang.self_s": self_s("rlang"),
            "rlang.calls": calls("rlang"),
            "core.optimize_s": self_s("core.optimize"),
            "core.execute_self_s": self_s("core.execute"),
            "core.cost_ratio_min": min(medians, default=0.0),
            "core.cost_ratio_max": max(medians, default=0.0),
            "linalg.matmul_self_s": self_s("linalg.matmul"),
            "linalg.matmul_calls": calls("linalg.matmul"),
            "linalg.lu_self_s": self_s("linalg.lu"),
            "linalg.solve_self_s": self_s("linalg.solve"),
            "storage.tile_self_s": self_s("storage.tile"),
            "storage.tile_calls": calls("storage.tile"),
            "storage.codec_self_s": self_s("storage.codec"),
            "storage.codec_calls": calls("storage.codec"),
            "storage.compression_ratio": io.compression_ratio,
            "storage.decoded_cache_hit_rate":
                self.cache_hits / lookups if lookups else 0.0,
            "storage.pool_self_s": self_s("storage.pool"),
            "storage.pool_calls": calls("storage.pool"),
            "storage.pool_hit_rate": pool.hit_rate,
            "storage.pool_evictions": pool.evictions / n,
            "storage.prefetch_useful":
                pool.readahead_hits / pool.prefetched
                if pool.prefetched else 0.0,
            "storage.device_self_s": self_s("storage.device"),
            "storage.device_s": io.seconds / n,
            "storage.syscalls": io.syscalls / n,
            "storage.read_calls_per_block":
                io.read_calls / io.reads if io.reads else 0.0,
            "other.self_s": (wall - clock.covered_ns / 1e9) / n,
            "trace.query_s": wall / n,
            "trace.overhead": statistics.median(self.traced_walls)
            / statistics.median(self.untraced_walls) - 1.0,
        }

    def wiring_problems(self, w) -> list[str]:
        """Checks that the layer trace measured what it claims to."""
        clock = self.clock
        problems = []
        if not self.traced_walls or not self.untraced_walls:
            return ["traced run needs at least one traced and one "
                    "untraced query"]
        if self.stray_spans:
            problems.append(f"{self.stray_spans} span(s) left open or "
                            f"longer than their query")
        for layer in LAYERS:
            idle = layer in w.idle_layers
            if idle and clock.calls[layer]:
                problems.append(f"{layer}: {clock.calls[layer]} calls on "
                                f"a workload that must not reach it")
            if not idle and not clock.calls[layer]:
                problems.append(f"{layer}: no calls recorded; the "
                                f"wrapper is not where callers resolve it")
        return problems


def _p90(values: list[float]) -> float:
    return (statistics.quantiles(values, n=10)[8] if len(values) > 1
            else values[0])


class HostReference:
    """The fixed task each measured query's wall time is divided by.

    It mixes the two kinds of work a query does, interpreter-bound
    Python and memory-bound numpy, so a host phase that slows either
    slows the task alike.  It touches neither ``src/`` nor the store,
    so no change to the program moves it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.uniform(size=REFERENCE_ELEMENTS)
        self.b = self.a[::-1].copy()

    def seconds(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i
        np.sqrt(self.a * self.a + self.b * self.b).sum()
        return time.perf_counter() - start

    def best_ms(self) -> float:
        """Best of five runs, in ms: the host-speed probe recorded
        before and after each run."""
        return min(self.seconds() for _ in range(5)) * 1e3


def _live_blocks(store) -> int:
    """Pages held by the store's live arrays; a dropped array holds
    none.  (The device's allocation cursor is no measure of this: it
    never moves back when an array is dropped, and page files claim
    whole extents from it.)"""
    return sum(a.file.num_pages for a in store._arrays.values())


def provenance(probe_before_ms: float, probe_after_ms: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # delta+zstd tags each payload with the entropy coder that wrote it
    # (0 = zlib fallback, 1 = zstandard).
    tag = get_codec("delta+zstd").encode_tile(np.zeros(8))[0]
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "delta_zstd_entropy_backend": "zstandard" if tag == 1 else "zlib",
        "host_probe_ms": [probe_before_ms, probe_after_ms],
    }


def _git_commit() -> str | None:
    """HEAD's commit from the checkout's .git, or None outside git."""
    git = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def format_report(result: dict) -> str:
    """Human-readable lines printed before the JSON result."""
    report = result["report"]
    lines = [f"workload {report['workload']} seed {report['seed']} "
             f"backend {report['backend']}: {report['queries']} "
             f"measured queries, {result['attempted']} attempted, "
             f"{result['failed']} failed",
             "provenance " + json.dumps(report["provenance"])]
    for name, metric in result["metrics"].items():
        lines.append(f"{name} = {metric['value']!r} {metric['unit']}")
    for name, value in report["wall"].items():
        lines.append(f"{name} = {value!r} s (raw wall time, unbounded)")
    lines.append(f"error_rate = {report['error_rate']!r} ratio")
    for problem in report.get("wiring_problems", []):
        lines.append(f"wiring problem: {problem}")
    return "\n".join(lines)
