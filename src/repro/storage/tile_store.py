"""Tiled (chunked) array storage — the ChunkyStore analogue of RIOT §5.

Arrays are partitioned into rectangular tiles; each tile occupies whole pages
of a :class:`~repro.storage.pagefile.PageFile`, and the order of tiles on disk
is controlled by a :class:`~repro.storage.linearization.Linearization`.  Array
indexes are never stored explicitly (unlike the relational representation the
paper criticizes): a tile's grid coordinate determines its disk position
arithmetically.

Design points taken straight from the paper:

- *"With tiling, an array is partitioned into (hyper)rectangular tiles; each
  tile is stored in a disk block, but the aspect ratio of tiles can be
  controlled."* — :func:`tile_shape_for_layout` offers the paper's row,
  column, and square aspect ratios; custom shapes are accepted everywhere.
- *"For matrices, row and column layouts correspond to tiling strategies
  where tiles are long and skinny."*
- Square tiles of area B make each p x p submatrix cost O(p^2/B) I/Os, which
  is what the Appendix-A optimal matrix multiply needs.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Iterator

import numpy as np

from ..obs.tracer import Tracer
from .block_device import BlockDevice, DEFAULT_BLOCK_SIZE, IOStats
from .buffer_pool import BufferPool
from .codecs import TileCodec, get_codec
from .linearization import Linearization, make_linearization
from .pagefile import PageFile

_FLOAT = np.float64
_FLOAT_BYTES = 8

#: Chunks hinted ahead of a sequential scan (see ``TiledVector.scan``).
SCAN_PREFETCH_CHUNKS = 16


def tile_shape_for_layout(layout: str, shape: tuple[int, int],
                          scalars_per_block: int) -> tuple[int, int]:
    """Translate a named layout into a tile shape for a matrix.

    ``row``    long skinny horizontal tiles (1 x B), row-major order.
    ``col``    long skinny vertical tiles (B x 1) — R's default column order.
    ``square`` square tiles of area <= B (the Appendix-A layout).
    """
    n1, n2 = shape
    if n1 <= 0 or n2 <= 0:
        raise ValueError(
            f"cannot tile a zero- or negative-sized matrix: shape "
            f"{shape} (every dimension must be >= 1)")
    if scalars_per_block <= 0:
        raise ValueError(
            f"scalars_per_block must be positive, got {scalars_per_block}")
    if layout == "row":
        # Row-major packing: whole rows laid end to end.  When a row is
        # shorter than a block, several rows share one block so pages stay
        # full (no padding waste).
        if n2 >= scalars_per_block:
            return (1, scalars_per_block)
        return (min(n1, max(1, scalars_per_block // n2)), n2)
    if layout == "col":
        if n1 >= scalars_per_block:
            return (scalars_per_block, 1)
        return (n1, min(n2, max(1, scalars_per_block // n1)))
    if layout == "square":
        side = max(1, int(math.isqrt(scalars_per_block)))
        return (min(n1, side), min(n2, side))
    raise ValueError(f"unknown layout {layout!r}; use row|col|square")


class TiledVector:
    """A 1-D array stored as fixed-size chunks of float64 values."""

    def __init__(self, store: "ArrayStore", name: str, length: int,
                 chunk: int) -> None:
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        max_chunk = store.device.block_size // _FLOAT_BYTES
        if chunk > max_chunk:
            raise ValueError(
                f"chunk of {chunk} scalars exceeds one page ({max_chunk})")
        self.store = store
        self.name = name
        self.length = length
        self.chunk = chunk
        self.file = PageFile(store.device, name=name)
        self.file.allocate_pages(self.num_chunks)

    @classmethod
    def _attach(cls, store: "ArrayStore", name: str,
                entry: dict) -> "TiledVector":
        """Rebind a persisted vector (manifest entry) without I/O."""
        vec = cls.__new__(cls)
        vec.store = store
        vec.name = name
        vec.length = int(entry["length"])
        vec.chunk = int(entry["chunk"])
        vec.file = PageFile.attach(store.device, name, entry["pages"])
        return vec

    # ------------------------------------------------------------------
    @property
    def num_chunks(self) -> int:
        return -(-self.length // self.chunk) if self.length else 0

    def chunk_bounds(self, ci: int) -> tuple[int, int]:
        self._check_chunk(ci)
        lo = ci * self.chunk
        return lo, min(lo + self.chunk, self.length)

    def chunk_of(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(f"index {index} outside [0, {self.length})")
        return index // self.chunk

    # ------------------------------------------------------------------
    def read_chunk(self, ci: int) -> np.ndarray:
        """Read chunk ``ci``; returns a fresh float64 array."""
        lo, hi = self.chunk_bounds(ci)
        frame = self.store.pool.get(self.file.block_of(ci))
        return frame.view(_FLOAT)[: hi - lo].copy()

    def write_chunk(self, ci: int, values: np.ndarray) -> None:
        lo, hi = self.chunk_bounds(ci)
        vals = np.ascontiguousarray(values, dtype=_FLOAT)
        if vals.size != hi - lo:
            raise ValueError(
                f"chunk {ci} expects {hi - lo} values, got {vals.size}")
        buf = np.zeros(self.store.device.block_size, dtype=np.uint8)
        buf[: vals.size * _FLOAT_BYTES] = vals.view(np.uint8)
        self.store.pool.put(self.file.block_of(ci), buf)

    def blocks_for_chunks(self, chunk_ids) -> list[int]:
        """Device block keys backing the given chunks (prefetch hints)."""
        return [self.file.block_of(ci) for ci in chunk_ids]

    def scan(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start_index, values)`` for every chunk, in order.

        The scan announces its own footprint: every
        ``SCAN_PREFETCH_CHUNKS`` chunks it hints the next window to the
        buffer pool, so a cold scan issues a few large coalesced reads
        instead of one device call per chunk.
        """
        # Halve the lookahead against pool capacity so a consumer that
        # interleaves writes (copy loops) cannot evict prefetched chunks
        # before they are read, which would inflate block totals.
        window = min(SCAN_PREFETCH_CHUNKS,
                     max(1, (self.store.pool.capacity - 2) // 2))
        for ci in range(self.num_chunks):
            if ci % window == 0:
                hi = min(ci + window, self.num_chunks)
                self.store.pool.prefetch(
                    self.blocks_for_chunks(range(ci, hi)))
            lo, _ = self.chunk_bounds(ci)
            yield lo, self.read_chunk(ci)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Fetch arbitrary elements, touching only the containing chunks.

        This is the I/O path behind selective evaluation: fetching 100
        sampled elements reads at most 100 chunks, not the whole vector.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return np.empty(0, dtype=_FLOAT)
        if idx.min() < 0 or idx.max() >= self.length:
            raise IndexError("gather index out of range")
        out = np.empty(idx.size, dtype=_FLOAT)
        chunks = idx // self.chunk
        order = np.argsort(chunks, kind="stable")
        # Announce the exact chunk footprint: a dense sorted gather then
        # coalesces its chunk reads into a few device calls.
        self.store.pool.prefetch(
            self.blocks_for_chunks(np.unique(chunks).tolist()))
        pos = 0
        while pos < idx.size:
            ci = int(chunks[order[pos]])
            end = pos
            while end < idx.size and chunks[order[end]] == ci:
                end += 1
            data = self.read_chunk(ci)
            sel = order[pos:end]
            out[sel] = data[idx[sel] - ci * self.chunk]
            pos = end
        return out

    def scatter(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Write arbitrary elements (read-modify-write of touched chunks)."""
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values, dtype=_FLOAT)
        if idx.shape != vals.shape:
            raise ValueError("indices and values must align")
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.length:
            raise IndexError("scatter index out of range")
        chunks = idx // self.chunk
        order = np.argsort(chunks, kind="stable")
        pos = 0
        while pos < idx.size:
            ci = int(chunks[order[pos]])
            end = pos
            while end < idx.size and chunks[order[end]] == ci:
                end += 1
            data = self.read_chunk(ci)
            sel = order[pos:end]
            data[idx[sel] - ci * self.chunk] = vals[sel]
            self.write_chunk(ci, data)
            pos = end

    # ------------------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        out = np.empty(self.length, dtype=_FLOAT)
        for lo, data in self.scan():
            out[lo: lo + data.size] = data
        return out

    def from_numpy(self, values: np.ndarray) -> "TiledVector":
        vals = np.ascontiguousarray(values, dtype=_FLOAT)
        if vals.size != self.length:
            raise ValueError(
                f"expected {self.length} values, got {vals.size}")
        for ci in range(self.num_chunks):
            lo, hi = self.chunk_bounds(ci)
            self.write_chunk(ci, vals[lo:hi])
        return self

    def drop(self) -> None:
        for ci in range(self.num_chunks):
            self.store.pool.invalidate(self.file.block_of(ci))
        self.file.drop()

    def _check_chunk(self, ci: int) -> None:
        if not 0 <= ci < self.num_chunks:
            raise IndexError(
                f"chunk {ci} outside [0, {self.num_chunks}) of {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TiledVector({self.name!r}, length={self.length}, "
                f"chunk={self.chunk})")


class TiledMatrix:
    """A 2-D array stored as rectangular tiles over whole pages.

    Each matrix carries its own storage ``dtype`` (float64 or float32)
    and per-tile :class:`~repro.storage.codecs.TileCodec`.  With a
    non-``raw`` codec the ``tile_dir`` maps a tile's linearized
    position to its compressed payload length: a positive length means
    the payload occupies the first ``ceil(length / block_size)`` of
    the tile's pre-allocated pages, ``0`` is the raw-fallback sentinel
    for incompressible tiles, and an absent entry means the tile was
    never written (reads return zeros without touching the device).
    """

    def __init__(self, store: "ArrayStore", name: str,
                 shape: tuple[int, int], tile_shape: tuple[int, int],
                 linearization: str | Linearization = "row",
                 dtype: np.dtype | str | None = None,
                 codec: TileCodec | str | None = None) -> None:
        n1, n2 = shape
        th, tw = tile_shape
        if n1 <= 0 or n2 <= 0:
            raise ValueError(f"shape must be positive, got {shape}")
        if th <= 0 or tw <= 0:
            raise ValueError(f"tile shape must be positive, got {tile_shape}")
        self.store = store
        self.name = name
        self.shape = (n1, n2)
        self.dtype = (np.dtype(dtype) if dtype is not None
                      else store.dtype)
        self.codec = (get_codec(codec) if codec is not None
                      else store.codec)
        self.tile_dir: dict[int, int] = {}
        self.tile_shape = (min(th, n1), min(tw, n2))
        self.grid = (-(-n1 // self.tile_shape[0]),
                     -(-n2 // self.tile_shape[1]))
        if isinstance(linearization, Linearization):
            self.linearization = linearization
        else:
            self.linearization = make_linearization(
                linearization, self.grid[0], self.grid[1])
        th, tw = self.tile_shape
        self.pages_per_tile = -(-th * tw * self.dtype.itemsize
                                // store.device.block_size)
        self.file = PageFile(store.device, name=name)
        self.file.allocate_pages(
            self.grid[0] * self.grid[1] * self.pages_per_tile)
        self._index_blocks()

    @classmethod
    def _attach(cls, store: "ArrayStore", name: str,
                entry: dict) -> "TiledMatrix":
        """Rebind a persisted matrix (manifest entry) without I/O."""
        mat = cls.__new__(cls)
        mat.store = store
        mat.name = name
        mat.shape = tuple(int(d) for d in entry["shape"])
        mat.dtype = np.dtype(entry.get("dtype", "float64"))
        mat.codec = get_codec(entry.get("codec", "raw"))
        mat.tile_dir = {int(k): int(v)
                        for k, v in entry.get("tile_dir", {}).items()}
        mat.tile_shape = tuple(int(d) for d in entry["tile_shape"])
        mat.grid = (-(-mat.shape[0] // mat.tile_shape[0]),
                    -(-mat.shape[1] // mat.tile_shape[1]))
        mat.linearization = make_linearization(
            entry["linearization"], mat.grid[0], mat.grid[1])
        th, tw = mat.tile_shape
        mat.pages_per_tile = -(-th * tw * mat.dtype.itemsize
                               // store.device.block_size)
        mat.file = PageFile.attach(store.device, name, entry["pages"])
        mat._index_blocks()
        return mat

    def _index_blocks(self) -> None:
        """Build the tile->block table: ``_blocks[ti, tj]`` holds the
        device blocks of tile (ti, tj)'s pages in page order.  The page
        map never changes once allocated, so every block lookup indexes
        this table instead of walking linearization and page map."""
        lin, ppt = self.linearization, self.pages_per_tile
        positions = np.array([[lin.index(ti, tj)
                               for tj in range(self.grid[1])]
                              for ti in range(self.grid[0])],
                             dtype=np.int64)
        pages = positions[:, :, None] * ppt + np.arange(ppt)
        self._blocks = np.asarray(self.file.page_map,
                                  dtype=np.int64)[pages]

    # ------------------------------------------------------------------
    def tile_bounds(self, ti: int, tj: int) -> tuple[int, int, int, int]:
        """Return (row_lo, row_hi, col_lo, col_hi) of tile (ti, tj)."""
        self._check_tile(ti, tj)
        th, tw = self.tile_shape
        r0 = ti * th
        c0 = tj * tw
        return (r0, min(r0 + th, self.shape[0]),
                c0, min(c0 + tw, self.shape[1]))

    def _tile_span(self, r0: int, r1: int, c0: int, c1: int
                   ) -> tuple[int, int, int, int]:
        """Tile-grid ranges ``(ti0, ti1, tj0, tj1)`` covering the
        rectangle (r0:r1, c0:c1)."""
        if not (0 <= r0 <= r1 <= self.shape[0]
                and 0 <= c0 <= c1 <= self.shape[1]):
            raise IndexError(f"rectangle ({r0}:{r1}, {c0}:{c1}) out of range")
        th, tw = self.tile_shape
        return r0 // th, -(-r1 // th), c0 // tw, -(-c1 // tw)

    def tile_blocks(self, ti: int, tj: int) -> list[int]:
        """Device block keys backing tile (ti, tj) — the prefetch unit.

        Codec-aware: a compressed tile reports only the pages its
        payload occupies, and a never-written compressed tile reports
        none (its read is pure zeros, no I/O).
        """
        self._check_tile(ti, tj)
        blocks = self._blocks[ti, tj]
        if self.codec.name != "raw":
            comp = self.tile_dir.get(self.linearization.index(ti, tj))
            if comp is None:
                return []
            if comp > 0:
                blocks = blocks[:-(-comp // self.store.device.block_size)]
        return blocks.tolist()

    def submatrix_blocks(self, r0: int, r1: int, c0: int, c1: int
                         ) -> list[int]:
        """Device block keys for every tile covering the rectangle."""
        ti0, ti1, tj0, tj1 = self._tile_span(r0, r1, c0, c1)
        return self._grid_blocks(
            ti0, tj0, np.ones((ti1 - ti0, tj1 - tj0), dtype=bool))

    def _grid_blocks(self, ti0: int, tj0: int,
                     mask: np.ndarray) -> list[int]:
        """Device blocks of the tiles ``mask`` selects on the grid from
        (ti0, tj0), tile by tile in row-major order (codec-aware, as
        :meth:`tile_blocks`)."""
        if self.codec.name == "raw":
            a, b = mask.shape
            return self._blocks[ti0: ti0 + a,
                                tj0: tj0 + b][mask].ravel().tolist()
        return [bid for ti, tj in self._grid_coords(ti0, tj0, mask)
                for bid in self.tile_blocks(ti, tj)]

    @staticmethod
    def _grid_coords(ti0: int, tj0: int,
                     mask: np.ndarray) -> list[tuple[int, int]]:
        tis, tjs = np.nonzero(mask)
        return list(zip((tis + ti0).tolist(), (tjs + tj0).tolist()))

    def read_tile(self, ti: int, tj: int) -> np.ndarray:
        """Read tile (ti, tj) as a 2-D array (clipped at edges)."""
        r0, r1, c0, c1 = self.tile_bounds(ti, tj)
        full = self._read_full_tile(ti, tj)
        return full[: r1 - r0, : c1 - c0].copy()

    def _charge_codec(self, logical: int, compressed: int) -> None:
        """Record codec traffic on the v3 byte axis (under the pool
        lock, the serializer of every other stats mutation)."""
        with self.store.pool.lock:
            stats = self.store.device.stats
            stats.bytes_logical += logical
            stats.bytes_compressed += compressed

    def _read_raw_tiles(self, blocks: list[int]) -> np.ndarray:
        """Whole raw tiles from one pool call over their pages
        (``pages_per_tile`` ids per tile, as the table lists them): a
        fresh ``(n, th, tw)`` array of zero-padded tiles."""
        th, tw = self.tile_shape
        per_tile = (self.pages_per_tile * self.store.device.block_size
                    // self.dtype.itemsize)
        flat = np.concatenate(
            self.store.pool.get_many(blocks)).view(self.dtype)
        return flat.reshape(-1, per_tile)[:, : th * tw].reshape(-1, th, tw)

    def _read_tiles(self, ti0: int, tj0: int,
                    mask: np.ndarray) -> np.ndarray:
        """The zero-padded tiles ``mask`` selects on the grid from
        (ti0, tj0), in row-major order, as a fresh ``(n, th, tw)``
        array.  Raw tiles move in one pool call; compressed ones are
        decoded one tile at a time."""
        if self.codec.name == "raw":
            return self._read_raw_tiles(self._grid_blocks(ti0, tj0, mask))
        return np.stack([self._read_full_tile(ti, tj)
                         for ti, tj in self._grid_coords(ti0, tj0, mask)])

    def _read_full_tile(self, ti: int, tj: int) -> np.ndarray:
        """The decoded zero-padded (th, tw) tile.  May return a cached
        (read-only) array — callers must copy before mutating."""
        th, tw = self.tile_shape
        if self.codec.name == "raw":
            return self._read_raw_tiles(self._blocks[ti, tj].tolist())[0]
        logical = th * tw * self.dtype.itemsize
        comp = self.tile_dir.get(self.linearization.index(ti, tj))
        if comp is None:
            # Never written: sparse-file semantics without the I/O.
            return np.zeros((th, tw), dtype=self.dtype)
        if comp == 0:
            # Raw-fallback tile (incompressible at write time).
            tile = self._read_raw_tiles(self._blocks[ti, tj].tolist())[0]
            self._charge_codec(logical, logical)
            return tile
        cached = self.store.tile_cache.get((self.name, ti, tj))
        if cached is not None:
            return cached
        frames = self.store.pool.get_many(self.tile_blocks(ti, tj))
        payload = b"".join(f.tobytes() for f in frames)[:comp]
        tile = self.codec.decode_tile(payload, self.dtype,
                                      th * tw).reshape(th, tw)
        self._charge_codec(logical, comp)
        self.store.tile_cache.put((self.name, ti, tj), tile)
        return tile

    def write_tile(self, ti: int, tj: int, values: np.ndarray) -> None:
        r0, r1, c0, c1 = self.tile_bounds(ti, tj)
        vals = np.ascontiguousarray(values, dtype=self.dtype)
        if vals.shape != (r1 - r0, c1 - c0):
            raise ValueError(
                f"tile ({ti},{tj}) expects shape {(r1 - r0, c1 - c0)}, "
                f"got {vals.shape}")
        th, tw = self.tile_shape
        full = np.zeros((th, tw), dtype=self.dtype)
        full[: r1 - r0, : c1 - c0] = vals
        if self.codec.name == "raw":
            self._write_raw_tiles(ti, tj, full[None, None])
        else:
            self._write_encoded_tile(ti, tj, full)

    def _write_raw_tiles(self, ti0: int, tj0: int,
                         tiles: np.ndarray) -> None:
        """Install ``(a, b, th, tw)`` zero-padded tiles as the grid
        block from (ti0, tj0), every page in one pool call."""
        a, b, th, tw = tiles.shape
        bs = self.store.device.block_size
        pages = np.zeros((a, b, self.pages_per_tile * bs
                          // self.dtype.itemsize), dtype=self.dtype)
        # A view: the reshape only splits the last axis.
        pages[:, :, : th * tw].reshape(a, b, th, tw)[...] = tiles
        blocks = self._blocks[ti0: ti0 + a, tj0: tj0 + b].ravel().tolist()
        self.store.pool.put_many(
            zip(blocks, pages.view(np.uint8).reshape(-1, bs)))

    def _write_encoded_tile(self, ti: int, tj: int,
                            full: np.ndarray) -> None:
        bs = self.store.device.block_size
        th, tw = self.tile_shape
        logical = th * tw * self.dtype.itemsize
        pos = self.linearization.index(ti, tj)
        payload = self.codec.encode_tile(full)
        blocks = self._blocks[ti, tj].tolist()
        if len(payload) > len(blocks) * bs:
            # The payload outgrew the tile's page span: store raw
            # (tile_dir length 0 is the fallback sentinel).
            self.tile_dir[pos] = 0
            self.store.tile_cache.invalidate((self.name, ti, tj))
            self._write_raw_tiles(ti, tj, full[None, None])
            self._charge_codec(logical, logical)
            return
        nb = -(-len(payload) // bs)
        buf = np.frombuffer(payload, dtype=np.uint8)
        self.store.pool.put_many(
            (blocks[k], buf[k * bs: (k + 1) * bs]) for k in range(nb))
        # A shrinking payload strands stale higher pages in the pool;
        # drop them so they are neither flushed nor read back.
        for bid in blocks[nb:]:
            self.store.pool.invalidate(bid)
        self.tile_dir[pos] = len(payload)
        full.flags.writeable = False
        self.store.tile_cache.put((self.name, ti, tj), full)
        self._charge_codec(logical, len(payload))

    def tiles(self) -> Iterator[tuple[int, int]]:
        """Yield tile coordinates in on-disk (linearized) order."""
        total = self.grid[0] * self.grid[1]
        for pos in range(total):
            yield self.linearization.coords(pos)

    # ------------------------------------------------------------------
    def read_submatrix(self, r0: int, r1: int, c0: int, c1: int
                       ) -> np.ndarray:
        """Read an arbitrary aligned-or-not rectangle (touches its tiles).

        The covering tiles are assembled in one padded grid and the
        rectangle sliced out of it, which also drops the zero padding of
        ragged edge tiles.
        """
        ti0, ti1, tj0, tj1 = self._tile_span(r0, r1, c0, c1)
        # The rectangle's tile footprint is exact and about to be read in
        # full — announce it so the misses coalesce into large I/Os.
        self.store.pool.prefetch(self.submatrix_blocks(r0, r1, c0, c1))
        if r0 == r1 or c0 == c1:
            return np.empty((r1 - r0, c1 - c0), dtype=self.dtype)
        th, tw = self.tile_shape
        a, b = ti1 - ti0, tj1 - tj0
        tiles = self._read_tiles(ti0, tj0, np.ones((a, b), dtype=bool))
        grid = tiles.reshape(a, b, th, tw).transpose(0, 2, 1, 3).reshape(
            a * th, b * tw)
        r, c = ti0 * th, tj0 * tw
        return np.ascontiguousarray(grid[r0 - r: r1 - r, c0 - c: c1 - c])

    def read_submatrix_view(self, r0: int, r1: int, c0: int, c1: int
                            ) -> np.ndarray:
        """Read a rectangle, zero-copy off the mmap when legal.

        The fast path returns a **read-only** slice of the device's
        mapping, bypassing buffer-pool frames and I/O accounting (the
        documented trade of the ``zero_copy`` opt-in).  It engages only
        when every guard holds: the config opted in and is not
        sanitizing, the codec is ``raw``, the backend is mmap, the
        rectangle is exactly one tile, the tile's blocks are physically
        consecutive, and the pool holds no dirty frames for them.
        Everything else falls back to :meth:`read_submatrix` (a fresh
        writable copy), so callers may use this wherever they do not
        mutate the result.
        """
        store = self.store
        if (store.storage.zero_copy and not store.storage.sanitize
                and self.codec.name == "raw"
                and getattr(store.device, "mode", None) == "mmap"):
            th, tw = self.tile_shape
            if (r0 % th == 0 and c0 % tw == 0
                    and r0 // th < self.grid[0]
                    and c0 // tw < self.grid[1]):
                ti, tj = r0 // th, c0 // tw
                if (r0, r1, c0, c1) == self.tile_bounds(ti, tj):
                    blocks = self._blocks[ti, tj]
                    consecutive = bool(np.all(np.diff(blocks) == 1))
                    if consecutive and not store.pool.has_dirty(
                            blocks.tolist()):
                        raw = store.device.block_view(int(blocks[0]),
                                                      len(blocks))
                        flat = raw.view(self.dtype)[: th * tw]
                        return flat.reshape(th, tw)[: r1 - r0,
                                                    : c1 - c0]
        return self.read_submatrix(r0, r1, c0, c1)

    def write_submatrix(self, r0: int, c0: int, values: np.ndarray) -> None:
        """Write a rectangle in one pass over its covering tiles.

        Tiles the rectangle only partially covers are read whole first;
        the values are overlaid on one padded grid of every covering
        tile, and the grid goes back tile by tile — for raw tiles, every
        page in a single ``put_many``.
        """
        vals = np.ascontiguousarray(values, dtype=self.dtype)
        r1 = r0 + vals.shape[0]
        c1 = c0 + vals.shape[1]
        ti0, ti1, tj0, tj1 = self._tile_span(r0, r1, c0, c1)
        if vals.size == 0:
            return
        th, tw = self.tile_shape
        rows = np.arange(ti0, ti1) * th
        cols = np.arange(tj0, tj1) * tw
        partial = (((rows < r0) | (np.minimum(rows + th, self.shape[0])
                                   > r1))[:, None]
                   | ((cols < c0) | (np.minimum(cols + tw, self.shape[1])
                                     > c1))[None, :])
        a, b = partial.shape
        grid = np.zeros((a * th, b * tw), dtype=self.dtype)
        # (a, b, th, tw) view of the grid, one entry per tile.
        tiles = grid.reshape(a, th, b, tw).transpose(0, 2, 1, 3)
        if partial.any():
            # Announce the read-modify-write footprint up front so the
            # misses coalesce (and so a kernel span's sanitizer sees the
            # reads as part of the declared footprint, not stray demand
            # misses).
            self.store.pool.prefetch(self._grid_blocks(ti0, tj0, partial))
            tiles[partial] = self._read_tiles(ti0, tj0, partial)
        r, c = ti0 * th, tj0 * tw
        grid[r0 - r: r1 - r, c0 - c: c1 - c] = vals
        if self.codec.name == "raw":
            self._write_raw_tiles(ti0, tj0, tiles)
            return
        for i, j in np.ndindex(a, b):
            self._write_encoded_tile(ti0 + i, tj0 + j, tiles[i, j].copy())

    # ------------------------------------------------------------------
    def _bands(self) -> Iterator[tuple[int, int, int, int]]:
        """Tile-aligned rectangles covering the matrix one tile-row band
        at a time; a band is split so its footprint stays within the
        pool's capacity (one frame spare for demand faults)."""
        th, tw = self.tile_shape
        n1, n2 = self.shape
        width = tw * max(1, (self.store.pool.capacity - 1)
                         // self.pages_per_tile)
        for r0 in range(0, n1, th):
            for c0 in range(0, n2, width):
                yield r0, min(r0 + th, n1), c0, min(c0 + width, n2)

    def to_numpy(self) -> np.ndarray:
        out = np.empty(self.shape, dtype=self.dtype)
        for r0, r1, c0, c1 in self._bands():
            out[r0:r1, c0:c1] = self.read_submatrix(r0, r1, c0, c1)
        return out

    def from_numpy(self, values: np.ndarray) -> "TiledMatrix":
        vals = np.ascontiguousarray(values, dtype=self.dtype)
        if vals.shape != self.shape:
            raise ValueError(
                f"expected shape {self.shape}, got {vals.shape}")
        for r0, r1, c0, c1 in self._bands():
            self.write_submatrix(r0, c0, vals[r0:r1, c0:c1])
        return self

    def drop(self) -> None:
        for bid in self._blocks.ravel().tolist():
            self.store.pool.invalidate(bid)
        self._blocks = self._blocks[:0, :0]
        self.store.tile_cache.invalidate_matrix(self.name)
        self.tile_dir.clear()
        self.file.drop()

    def _check_tile(self, ti: int, tj: int) -> None:
        if not (0 <= ti < self.grid[0] and 0 <= tj < self.grid[1]):
            raise IndexError(
                f"tile ({ti},{tj}) outside grid {self.grid} of {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TiledMatrix({self.name!r}, shape={self.shape}, "
                f"tile={self.tile_shape}, "
                f"order={self.linearization.name})")


#: Minimum buffer-pool capacity in blocks.  Below this the store cannot
#: hold one tile plus working frames, and every cost model's streaming
#: assumption breaks.
MIN_POOL_BLOCKS = 4


class DecodedTileCache:
    """LRU cache of decoded (decompressed) full tiles.

    For codec-compressed matrices the buffer pool holds *compressed*
    frames — the unit the device serves and IOStats v3 charges — so a
    re-read of a cached tile would still pay the decode CPU.  This
    cache keeps the decoded ``(th, tw)`` arrays under its own byte
    budget and lock; entries are read-only, and ``raw`` tiles never
    enter (their pool frame already is the decoded form).
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bytes = max(0, int(capacity_bytes))
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> np.ndarray | None:
        with self._lock:
            tile = self._entries.get(key)
            if tile is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return tile

    def put(self, key: tuple, tile: np.ndarray) -> None:
        if tile.nbytes > self.capacity_bytes:
            return
        tile = tile if not tile.flags.writeable else tile.copy()
        tile.flags.writeable = False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = tile
            self._bytes += tile.nbytes
            while self._bytes > self.capacity_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes

    def invalidate(self, key: tuple) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes

    def invalidate_matrix(self, name: str) -> None:
        with self._lock:
            for key in [k for k in self._entries if k[0] == name]:
                self._bytes -= self._entries.pop(key).nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0


class ArrayStore:
    """Factory and shared context (device + buffer pool) for tiled arrays.

    Construct either from a :class:`~repro.storage.config.StorageConfig`
    (``ArrayStore(storage=StorageConfig(backend="mmap", ...))``) or from
    the classic keyword arguments, which describe the in-memory backend.
    The device always comes from
    :func:`~repro.storage.config.create_device` — the store never
    hard-codes a device class, so the same code runs against the
    simulator or a real page file.
    """

    def __init__(self, memory_bytes: int | None = None,
                 block_size: int | None = None,
                 policy: str | None = None, name: str = "riot-store",
                 scheduler: bool | None = None,
                 readahead_window: int | None = None,
                 storage: "StorageConfig | None" = None,
                 device: BlockDevice | None = None) -> None:
        from .config import StorageConfig, create_device
        if storage is None:
            storage = StorageConfig()
        overrides = {k: v for k, v in (
            ("memory_bytes", memory_bytes), ("block_size", block_size),
            ("policy", policy), ("scheduler", scheduler),
            ("readahead_window", readahead_window)) if v is not None}
        if overrides:
            storage = storage.with_options(**overrides)
        self.storage = storage
        self.dtype = np.dtype(storage.dtype)
        self.codec = get_codec(storage.codec)
        capacity = storage.memory_bytes // storage.block_size
        if capacity < MIN_POOL_BLOCKS:
            raise ValueError(
                f"memory budget of {storage.memory_bytes} bytes holds "
                f"only {capacity} block(s) of {storage.block_size} "
                f"bytes; the tile store needs at least "
                f"{MIN_POOL_BLOCKS} blocks "
                f"({MIN_POOL_BLOCKS * storage.block_size} bytes)")
        self.device = device if device is not None else \
            create_device(storage, name=name)
        pool_cls = BufferPool
        if storage.sanitize:
            # Imported lazily: repro.analysis depends on repro.storage,
            # not the other way around.
            from repro.analysis.sanitizers import SanitizingBufferPool
            pool_cls = SanitizingBufferPool
        self.pool = pool_cls(self.device, capacity,
                             policy=storage.policy,
                             readahead_window=storage.readahead_window)
        self.pool.scheduler.enabled = storage.scheduler
        # Decoded tiles live beside the pool under the same byte
        # budget; with codec raw everywhere the cache stays empty.
        self.tile_cache = DecodedTileCache(storage.memory_bytes)
        # Observability: one tracer per store, off by default.  Kernels
        # and the evaluator bracket their work in store.tracer.span();
        # spans close with IOStats/PoolStats deltas from this device
        # and pool (see repro.obs.tracer for the overhead contract).
        self.tracer = Tracer(device=self.device, pool=self.pool)
        if storage.sanitize:
            # The sanitizer checks pin balance and footprint coverage
            # at span boundaries; observers fire even with tracing off.
            self.pool.attach_tracer(self.tracer)
        self._counter = 0
        # Parallel plan workers create temporaries concurrently; the
        # name counter and registry are the store's only mutable state
        # not already serialized by the pool's lock.
        self._names_lock = threading.Lock()
        self._arrays: dict[str, TiledVector | TiledMatrix] = {}
        self._closed = False

    @property
    def scalars_per_block(self) -> int:
        """Float64 scalars per block — the cost models' fixed B.
        Vectors always store float64; matrices use
        :meth:`matrix_scalars_per_block`."""
        return self.device.block_size // _FLOAT_BYTES

    @property
    def matrix_scalars_per_block(self) -> int:
        """Scalars of the store's matrix dtype that fit one block."""
        return self.device.block_size // self.dtype.itemsize

    def io_ratio_estimate(self) -> float:
        """Compressed/logical device-byte ratio for planner costs.

        Prefers the measured ratio of codec traffic seen so far (via
        ``explain(analyze=True)``-style feedback); before any codec
        I/O happened, the configured codec's static estimate.  Clamped
        to 1.0 — compression never makes the plan look worse than the
        uncompressed cost model.
        """
        stats = self.device.stats
        if stats.bytes_logical > 0:
            return min(1.0, stats.compression_ratio)
        return min(1.0, self.codec.ratio_estimate)

    def _fresh_name(self, prefix: str) -> str:
        with self._names_lock:
            self._counter += 1
            return f"{prefix}_{self._counter}"

    def _register(self, array: "TiledVector | TiledMatrix"
                  ) -> "TiledVector | TiledMatrix":
        with self._names_lock:
            self._arrays[array.name] = array
        return array

    # ------------------------------------------------------------------
    def create_vector(self, length: int, chunk: int | None = None,
                      name: str | None = None) -> TiledVector:
        chunk = chunk or self.scalars_per_block
        return self._register(
            TiledVector(self, name or self._fresh_name("vec"),
                        length, chunk))

    def vector_from_numpy(self, values: np.ndarray,
                          name: str | None = None) -> TiledVector:
        vec = self.create_vector(int(np.asarray(values).size), name=name)
        return vec.from_numpy(values)

    def create_matrix(self, shape: tuple[int, int],
                      tile_shape: tuple[int, int] | None = None,
                      layout: str | None = None,
                      linearization: str = "row",
                      name: str | None = None,
                      dtype: np.dtype | str | None = None,
                      codec: "TileCodec | str | None" = None
                      ) -> TiledMatrix:
        dt = np.dtype(dtype) if dtype is not None else self.dtype
        if tile_shape is None:
            # Tile layout follows the matrix dtype: float32 tiles pack
            # twice the scalars into the same page span.
            tile_shape = tile_shape_for_layout(
                layout or "square", shape,
                self.device.block_size // dt.itemsize)
        return self._register(
            TiledMatrix(self, name or self._fresh_name("mat"),
                        shape, tile_shape, linearization,
                        dtype=dt, codec=codec))

    def matrix_from_numpy(self, values: np.ndarray,
                          layout: str = "square",
                          linearization: str = "row",
                          name: str | None = None,
                          dtype: np.dtype | str | None = None,
                          codec: "TileCodec | str | None" = None
                          ) -> TiledMatrix:
        vals = np.asarray(values)
        mat = self.create_matrix(vals.shape, layout=layout,
                                 linearization=linearization, name=name,
                                 dtype=dtype, codec=codec)
        return mat.from_numpy(vals)

    # ------------------------------------------------------------------
    # Persistence: on a file-backed device, the store writes its array
    # directory (shape, tiling, linearization, page map) into the
    # device manifest so a later session can reattach every array.
    # ------------------------------------------------------------------
    def _build_manifest(self) -> dict:
        entries: dict[str, dict] = {}
        for name, arr in self._arrays.items():
            if not arr.file.num_pages:
                continue  # dropped
            if isinstance(arr, TiledVector):
                entries[name] = {
                    "kind": "vector", "length": arr.length,
                    "chunk": arr.chunk, "pages": arr.file.page_map}
            else:
                entries[name] = {
                    "kind": "matrix", "shape": list(arr.shape),
                    "tile_shape": list(arr.tile_shape),
                    "linearization": arr.linearization.name,
                    "dtype": arr.dtype.name,
                    "codec": arr.codec.name,
                    "tile_dir": {str(k): int(v)
                                 for k, v in arr.tile_dir.items()},
                    "pages": arr.file.page_map}
        return entries

    def stored_names(self) -> list[str]:
        """Array names reachable in this store (live + persisted)."""
        names = set(self._arrays)
        names.update(getattr(self.device, "manifest", {}))
        return sorted(names)

    def _manifest_entry(self, name: str, kind: str) -> dict:
        entry = getattr(self.device, "manifest", {}).get(name)
        if entry is None:
            raise KeyError(
                f"no stored array named {name!r} in this page file "
                f"(have {sorted(getattr(self.device, 'manifest', {}))})")
        if entry["kind"] != kind:
            raise KeyError(
                f"stored array {name!r} is a {entry['kind']}, "
                f"not a {kind}")
        return entry

    def open_vector(self, name: str) -> TiledVector:
        """Reattach a vector persisted by an earlier session."""
        if name in self._arrays:
            arr = self._arrays[name]
            if not isinstance(arr, TiledVector):
                raise KeyError(f"{name!r} is not a vector")
            return arr
        entry = self._manifest_entry(name, "vector")
        return self._register(TiledVector._attach(self, name, entry))

    def open_matrix(self, name: str) -> TiledMatrix:
        """Reattach a matrix persisted by an earlier session."""
        if name in self._arrays:
            arr = self._arrays[name]
            if not isinstance(arr, TiledMatrix):
                raise KeyError(f"{name!r} is not a matrix")
            return arr
        entry = self._manifest_entry(name, "matrix")
        return self._register(TiledMatrix._attach(self, name, entry))

    # ------------------------------------------------------------------
    def io_stats(self) -> IOStats:
        return self.device.stats

    def reset_stats(self) -> None:
        self.device.reset_stats()
        self.pool.stats.__init__()

    def flush(self) -> None:
        self.pool.flush_all()
        if self.storage.fsync:
            self.device.sync()

    def close(self) -> None:
        """Flush dirty frames, persist the array directory, release the
        device.  Idempotent; after close the store must not be used."""
        if self._closed:
            return
        self._closed = True
        self.pool.flush_all()
        if hasattr(self.device, "manifest"):
            manifest = dict(self.device.manifest)
            manifest.update(self._build_manifest())
            self.device.manifest = manifest
        self.device.close()

    def __enter__(self) -> "ArrayStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
