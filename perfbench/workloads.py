"""The benchmark's three workloads.

Each workload makes its inputs from the run's seed, opens a session on
a page file and loads them (the timed set-up), runs one query against
the public ``RiotSession`` / ``RiotNGEngine`` API, and checks the
query's result against a numpy reference computed once per run.

A query builds a fresh DAG (or re-runs the R source) inside the
current session, which keeps the results of the queries it served
before, the way a user re-runs an analysis, so planning, execution and
the session's retention of forced results all count.
It ends with ``store.flush()``: a query is complete once its results
are on the device, which makes every query's block and byte counts its
own (no dirty frames carried into the next query) and exact.

Why these three (see README.md for the full rationale):

- ``chain``: out-of-core dense chain multiply on the raw tile path —
  tile store, buffer pool, device and BLAS; codec and R front end idle.
- ``ols-zstd``: read-mostly normal equations under the delta+zstd
  codec — the codec dominates, and LU runs only here.
- ``pathlen-r``: the paper's Example 1 as R source on an in-memory
  working set — front end, planner and evaluator; no BLAS or codec.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.core import RiotSession
from repro.core.engine import RiotNGEngine
from repro.rlang.values import RScalar
from repro.storage import StorageConfig

BLOCK_SIZE = 8192


class Workload:
    """One benchmark workload; subclasses fill in the steps below."""

    name = ""
    #: Buffer-pool budget in blocks of BLOCK_SIZE.
    pool_blocks = 0
    codec = "raw"
    #: Layers (see layers.LAYERS) this workload must never reach; the
    #: traced run checks they get no calls and every other layer does.
    idle_layers: frozenset[str] = frozenset()

    def storage(self, path: str, backend: str) -> StorageConfig:
        return StorageConfig(
            backend=backend, path=path if backend != "memory" else None,
            memory_bytes=self.pool_blocks * BLOCK_SIZE,
            block_size=BLOCK_SIZE, codec=self.codec)

    def make_inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def open(self, inputs: dict, storage: StorageConfig):
        """Open a session, load the inputs and flush; returns state
        whose ``session`` attribute is the ``RiotSession``."""
        raise NotImplementedError

    def query(self, state):
        """One user query: build, force, pull the result, flush."""
        raise NotImplementedError

    def observe(self, state, raw) -> dict[str, np.ndarray]:
        """The query's result as numpy arrays (outside the timing)."""
        return {"result": np.asarray(raw)}

    def reference(self, inputs: dict):
        raise NotImplementedError

    def check(self, observed: dict[str, np.ndarray], ref) -> bool:
        raise NotImplementedError


def _close_to(result: np.ndarray, ref: np.ndarray) -> bool:
    """allclose with an absolute tolerance scaled to the reference."""
    scale = float(np.max(np.abs(ref))) or 1.0
    return (result.shape == ref.shape
            and bool(np.allclose(result, ref, rtol=1e-9,
                                 atol=1e-9 * scale)))


class Chain(Workload):
    name = "chain"
    #: A 1024x128, B 128x1024, C 1024x128, D 128x1024.
    dims = (1024, 128, 1024, 128, 1024)
    pool_blocks = 96  # 768 KiB against 4 MiB of operands
    idle_layers = frozenset({"rlang", "linalg.lu", "linalg.solve",
                             "storage.codec"})

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        d = self.dims
        return {"mats": [rng.standard_normal((d[k], d[k + 1]))
                         for k in range(len(d) - 1)]}

    def open(self, inputs, storage):
        session = RiotSession(storage=storage)
        mats = [session.matrix(m) for m in inputs["mats"]]
        session.store.flush()
        return SimpleNamespace(session=session, mats=mats)

    def query(self, state):
        a, b, c, d = state.mats
        out = state.session.values(a @ b @ c @ d)
        state.session.store.flush()
        return out

    def reference(self, inputs):
        a, b, c, d = inputs["mats"]
        return a @ ((b @ c) @ d)

    def check(self, observed, ref):
        return _close_to(observed["result"], ref)


class OlsZstd(Workload):
    name = "ols-zstd"
    n_obs, n_feat = 2048, 256
    pool_blocks = 128  # 1 MiB against 4 MiB of X
    codec = "delta+zstd"
    idle_layers = frozenset({"rlang"})

    def make_inputs(self, seed):
        # Measurement-like values (2 decimals) compress to ~0.44 of
        # their bytes; pure N(0,1) doubles compress only to ~0.97 and
        # would hide what the codec does.
        rng = np.random.default_rng(seed)
        x = np.round(rng.standard_normal((self.n_obs, self.n_feat)), 2)
        beta = rng.standard_normal((self.n_feat, 1))
        y = np.round(x @ beta + rng.standard_normal((self.n_obs, 1)), 2)
        return {"X": x, "y": y}

    def open(self, inputs, storage):
        session = RiotSession(storage=storage)
        x = session.matrix(inputs["X"], name="X")
        y = session.matrix(inputs["y"], name="y")
        session.store.flush()
        return SimpleNamespace(session=session, X=x, y=y)

    def query(self, state):
        x, y = state.X, state.y
        session = state.session
        out = session.values(session.solve(x.T @ x, x.T @ y))
        session.store.flush()
        return out

    def reference(self, inputs):
        x, y = inputs["X"], inputs["y"]
        return np.linalg.solve(x.T @ x, x.T @ y)

    def check(self, observed, ref):
        return _close_to(observed["result"], ref)


#: Example 1 verbatim, plus two prints that stream the full vector d.
PATHLEN_SOURCE = """
d <- sqrt((x-xs)^2+(y-ys)^2) + sqrt((x-xe)^2+(y-ye)^2)
s <- sample(length(x), 100)
z <- d[s]
print(z)
print(mean(d))
print(sum(d > 150))
"""

PATHLEN_ENDPOINTS = {"xs": 0.0, "ys": 0.0, "xe": 100.0, "ye": 100.0}


class PathlenR(Workload):
    name = "pathlen-r"
    n_points = 1 << 20
    pool_blocks = (64 << 20) // BLOCK_SIZE  # the default 64 MiB
    idle_layers = frozenset({"linalg.matmul", "linalg.lu",
                             "linalg.solve", "storage.codec"})

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {"x": rng.uniform(0.0, 100.0, self.n_points),
                "y": rng.uniform(0.0, 100.0, self.n_points),
                "program_seed": int(rng.integers(1 << 31))}

    def open(self, inputs, storage):
        engine = RiotNGEngine(storage=storage)
        env = {"x": engine.make_vector(inputs["x"]),
               "y": engine.make_vector(inputs["y"]),
               **{k: RScalar(v) for k, v in PATHLEN_ENDPOINTS.items()}}
        engine.session.store.flush()
        return SimpleNamespace(session=engine.session, engine=engine,
                               env=env,
                               program_seed=inputs["program_seed"])

    def query(self, state):
        result = state.engine.run_program(
            PATHLEN_SOURCE, seed=state.program_seed, env=dict(state.env))
        state.session.store.flush()
        return result

    def observe(self, state, raw):
        values = state.session.values
        _z_line, mean_line, count_line = raw.output
        return {"z": np.asarray(values(raw.env["z"].node)),
                "s": np.asarray(values(raw.env["s"].node)),
                "mean": np.array([float(mean_line)]),
                "count": np.array([float(count_line)])}

    def reference(self, inputs):
        e = PATHLEN_ENDPOINTS
        x, y = inputs["x"], inputs["y"]
        return (np.sqrt((x - e["xs"]) ** 2 + (y - e["ys"]) ** 2)
                + np.sqrt((x - e["xe"]) ** 2 + (y - e["ye"]) ** 2))

    def check(self, observed, ref):
        pos = observed["s"].astype(np.int64) - 1
        if pos.size != 100 or pos.min() < 0 or pos.max() >= ref.size:
            return False
        mean = observed["mean"][0]
        return (bool(np.array_equal(observed["z"], ref[pos]))
                and abs(mean - ref.mean()) <= 1e-9 * abs(ref.mean())
                and observed["count"][0] == np.count_nonzero(ref > 150))


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Chain(), OlsZstd(), PathlenR())}
