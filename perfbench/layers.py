"""Outside-in layer timing for the traced run.

Nothing under ``src/`` is instrumented for this: the benchmark wraps
each layer's public entry points for the duration of a traced query
and restores them afterwards.  A wrapper opens a span around the call;
spans nest on one stack (every workload runs on one thread), and a
layer's *self time* is its spans' durations minus the time of the
spans nested directly inside them.  Time inside no span at all is
``other`` — DAG building, session bookkeeping, result pulls that no
wrapped function covers.

Each function is wrapped at the name its caller resolves:
``core/evaluator.py`` binds the matmul kernels at import, so they are
replaced in that module's namespace (patching ``repro.linalg.matmul``
alone would count nothing); LU and the triangular solves are imported
lazily inside the evaluator, so their module attributes are what it
resolves; methods are replaced on the class that defines them.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

#: Layer names in report order.
LAYERS = ("rlang", "core.optimize", "core.execute", "linalg.matmul",
          "linalg.lu", "linalg.solve", "storage.tile", "storage.codec",
          "storage.pool", "storage.device")


def targets() -> list[tuple[str, object, str]]:
    """``(layer, owner, attribute)`` for every wrapped callable."""
    from repro.core import evaluator
    from repro.core.evaluator import Evaluator
    from repro.core.passes.base import Pipeline
    from repro.core.planner import Planner
    from repro.linalg import lu, solve
    from repro.rlang.interp import Interpreter
    from repro.storage import codecs
    from repro.storage.block_device import BlockDevice
    from repro.storage.buffer_pool import BufferPool
    from repro.storage.tile_store import TiledMatrix, TiledVector

    codec_classes = sorted({type(c) for c in codecs.CODECS.values()},
                           key=lambda cls: cls.__name__)
    return [
        ("rlang", Interpreter, "run"),
        ("core.optimize", Pipeline, "run"),
        ("core.optimize", Planner, "plan"),
        ("core.execute", Evaluator, "execute"),
        *[("linalg.matmul", evaluator, name) for name in (
            "square_tile_matmul", "crossprod_matmul", "bnlj_matmul")],
        ("linalg.lu", lu, "lu_decompose"),
        ("linalg.solve", solve, "lu_solve_factored"),
        *[("storage.tile", TiledMatrix, name) for name in (
            "read_tile", "write_tile", "read_submatrix",
            "read_submatrix_view", "write_submatrix", "to_numpy",
            "from_numpy")],
        *[("storage.tile", TiledVector, name) for name in (
            "read_chunk", "write_chunk", "gather", "scatter",
            "to_numpy", "from_numpy")],
        *[("storage.codec", cls, name) for cls in codec_classes
          for name in ("encode_tile", "decode_tile")],
        *[("storage.pool", BufferPool, name) for name in (
            "get", "get_many", "prefetch", "put", "flush",
            "invalidate", "clear")],
        *[("storage.device", BlockDevice, name) for name in (
            "read_block", "read_blocks", "write_block", "write_blocks",
            "sync")],
    ]


class LayerClock:
    """Per-layer self time and call counts from nested spans."""

    def __init__(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: Summed duration of outermost spans (time inside any layer).
        self.covered_ns = 0
        # One entry per open span: time of its direct child spans.
        self._stack: list[int] = []

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def wrap(self, layer: str, fn):
        if inspect.isgeneratorfunction(fn):
            # The body would run after the span closed.
            raise TypeError(f"cannot time generator {fn.__qualname__}")
        stack = self._stack
        self_ns, calls = self.self_ns, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_ns[layer] += duration - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += duration
                else:
                    self.covered_ns += duration
        return timed

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for layer, owner, attr in targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(layer, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
