"""The batched tile data path against numpy.

``read_submatrix``/``write_submatrix`` move a whole rectangle per pool
call, and ``to_numpy``/``from_numpy`` go through them one tile-row band
at a time.  Random matrices, tilings (named layouts and multi-page tile
shapes), linearizations, dtypes, pool sizes and rectangles — aligned or
not, empty included — must give numpy's answer bit for bit, and the
memory and pread backends must agree on the results and on every
block moved.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import ArrayStore, StorageConfig
from repro.storage.linearization import linearization_names

#: A small page so multi-page tiles and ragged grids stay cheap.
BLOCK = 256


@st.composite
def scenarios(draw):
    n1 = draw(st.integers(1, 60))
    n2 = draw(st.integers(1, 60))

    def rect():
        r0 = draw(st.integers(0, n1))
        c0 = draw(st.integers(0, n2))
        return (r0, draw(st.integers(r0, n1)),
                c0, draw(st.integers(c0, n2)))

    tiling = draw(st.sampled_from(["row", "col", "square", "shape"]))
    tile_shape = None
    if tiling == "shape":
        # Up to 400 scalars: 1-13 pages of 256 bytes per tile.
        tile_shape = (draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    return {
        "shape": (n1, n2),
        "layout": tiling if tile_shape is None else None,
        "tile_shape": tile_shape,
        "linearization": draw(st.sampled_from(linearization_names())),
        "dtype": draw(st.sampled_from(["float64", "float32"])),
        "pool_blocks": draw(st.integers(4, 24)),
        "ops": [(draw(st.sampled_from(["read", "write"])), rect())
                for _ in range(draw(st.integers(1, 6)))],
        "seed": draw(st.integers(0, 2 ** 16)),
    }


def _run(backend: str, sc: dict):
    """Play the scenario against a numpy model; return every array
    read and the device stats."""
    store = ArrayStore(storage=StorageConfig(
        backend=backend, block_size=BLOCK,
        memory_bytes=sc["pool_blocks"] * BLOCK))
    rng = np.random.default_rng(sc["seed"])
    dtype = np.dtype(sc["dtype"])
    model = rng.standard_normal(sc["shape"]).astype(dtype)
    mat = store.create_matrix(sc["shape"], tile_shape=sc["tile_shape"],
                              layout=sc["layout"],
                              linearization=sc["linearization"],
                              dtype=dtype)
    mat.from_numpy(model)
    seen = [mat.to_numpy()]
    assert np.array_equal(seen[-1], model)
    for op, (r0, r1, c0, c1) in sc["ops"]:
        if op == "read":
            got = mat.read_submatrix(r0, r1, c0, c1)
            assert got.dtype == dtype and got.flags.c_contiguous
            assert got.flags.writeable
            assert np.array_equal(got, model[r0:r1, c0:c1])
            seen.append(got)
        else:
            vals = rng.standard_normal((r1 - r0, c1 - c0)).astype(dtype)
            mat.write_submatrix(r0, c0, vals)
            model[r0:r1, c0:c1] = vals
    # Cold re-read: every value comes back from the device.
    store.flush()
    store.pool.clear()
    seen.append(mat.to_numpy())
    assert np.array_equal(seen[-1], model)
    stats = store.device.stats.snapshot()
    store.close()
    return seen, stats


@given(sc=scenarios())
@settings(max_examples=60, deadline=None)
def test_batched_path_matches_numpy_on_every_backend(sc):
    mem_seen, mem_stats = _run("memory", sc)
    file_seen, file_stats = _run("pread", sc)
    for a, b in zip(mem_seen, file_seen):
        assert a.tobytes() == b.tobytes()
    assert (file_stats.reads, file_stats.writes) == \
        (mem_stats.reads, mem_stats.writes)
    assert file_stats.total == mem_stats.total


def test_aligned_write_coalesces_evicted_write_back():
    """A tile-aligned rectangle larger than the pool: the dirty frames
    its own pages evict leave in one coalesced device write, not one
    write per block, and the block totals stay those of per-block
    eviction."""
    store = ArrayStore(storage=StorageConfig(memory_bytes=8 * 8192,
                                             block_size=8192))
    mat = store.create_matrix((128, 128), layout="square")  # 16 tiles
    vals = np.random.default_rng(3).standard_normal((128, 128))
    store.reset_stats()
    mat.write_submatrix(0, 0, vals)
    stats = store.device.stats
    assert stats.reads == 0
    assert stats.writes == 16 - 8  # the first 8 pages, evicted
    assert stats.write_calls < stats.writes
    store.flush()
    assert stats.writes == 16
    assert np.array_equal(mat.to_numpy(), vals)
