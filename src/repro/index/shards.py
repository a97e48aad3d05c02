"""Memory-mapped embedding shards — the index format v3 vector store.

v2 kept the whole corpus in one compressed ``embeddings.npz``: every open
decompressed the full ``float64`` matrix and re-normalized each row.  v3
stores **unit-normalized float32** rows as raw little-endian shard files
under ``<root>/shards/``, so opening an index is a handful of ``stat``
calls plus ``mmap`` — no decompression, no copy, no re-normalization —
and the OS page cache shares the hot rows across processes.

Shards are append-only: a build writes ``shard-00000.f32`` and each
incremental ``index add`` appends ``shard-00001.f32``, ``shard-00002.f32``
... without touching earlier files.  Writes go through a temp file plus
atomic rename, and ``meta.json`` (written last) records each shard's row
count and content digest.  :meth:`ShardStore.open` validates file sizes
against the recorded row counts, so a truncated or partial shard is
detected at open time instead of producing garbage scores; byte-level
corruption that preserves the size is caught by :meth:`ShardStore.verify`
(which hashes every shard and is therefore not part of the open path).
"""

import hashlib
import os
from pathlib import Path

import numpy as np

from repro.errors import IndexStoreError

SHARD_DIR = "shards"
SHARD_DTYPE = np.dtype("<f4")
_SUFFIX = ".f32"


def shard_filename(ordinal):
    """Canonical shard file name for a build/add ordinal."""
    return f"shard-{ordinal:05d}{_SUFFIX}"


def next_shard_ordinal(root, specs=()):
    """First ordinal past everything on disk or referenced by ``specs``.

    Shard files are never overwritten in place: a rebuild writes its
    matrix under a fresh name and the old files are cleaned only after
    the new ``meta.json`` lands, so a crash mid-rebuild leaves the
    previous meta pointing at exactly the bytes it described.  Orphans
    from crashed writes merely bump the ordinal until cleanup.
    """
    taken = -1
    shard_dir = Path(root) / SHARD_DIR
    if shard_dir.is_dir():
        for path in shard_dir.glob(f"shard-*{_SUFFIX}"):
            stem = path.name[len("shard-"):-len(_SUFFIX)]
            if stem.isdigit():
                taken = max(taken, int(stem))
    for spec in specs:
        stem = spec["file"][len("shard-"):-len(_SUFFIX)]
        if stem.isdigit():
            taken = max(taken, int(stem))
    return taken + 1


def assign_partitions(specs, n):
    """Split shard files into ``n`` balanced disjoint partitions.

    Greedy longest-processing-time assignment over the shard row
    counts: shards are taken largest first and each goes to the
    currently lightest partition, so partitions stay within one shard
    of balanced without splitting any file (scatter-gather serving
    partitions by *whole* shards — the per-shard gemm is what makes
    partition scores bit-identical to single-process scores).
    Deterministic: ties break toward the lower shard ordinal and the
    lower partition index.  With more partitions than shards the
    surplus partitions come back empty.

    Args:
        specs: the ``meta.json`` shard spec list (``rows`` per shard,
            in ordinal order).
        n: partition count (>= 1).

    Returns:
        ``n`` ascending lists of shard ordinals, disjoint and jointly
        covering ``range(len(specs))``.
    """
    n = int(n)
    if n < 1:
        raise IndexStoreError(f"partition count must be >= 1, got {n}")
    sized = sorted(enumerate(int(s["rows"]) for s in specs),
                   key=lambda pair: (-pair[1], pair[0]))
    parts = [[] for _ in range(n)]
    loads = [0] * n
    for ordinal, rows in sized:
        lightest = min(range(n), key=lambda i: (loads[i], i))
        parts[lightest].append(ordinal)
        loads[lightest] += rows
    return [sorted(part) for part in parts]


def unit_rows_f32(matrix, eps=1e-12):
    """Unit-normalized ``float32`` copy of an embedding matrix.

    Normalization happens in the input precision (float64 for fresh
    embeddings) *before* the narrowing cast, so stored rows are as close
    to unit length as float32 allows.
    """
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return np.empty(matrix.shape, dtype=SHARD_DTYPE)
    wide = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(wide, axis=1, keepdims=True)
    return np.ascontiguousarray(wide / np.maximum(norms, eps),
                                dtype=SHARD_DTYPE)


def write_shard(root, ordinal, unit_matrix, fsync=False):
    """Atomically write one shard; returns its ``meta.json`` spec dict.

    ``unit_matrix`` must already be unit-normalized float32 (see
    :func:`unit_rows_f32`); this function is a plain byte writer so the
    store never double-normalizes reused rows.  ``fsync=True`` forces the
    bytes to stable storage before the rename — the streaming ingest
    checkpoint protocol depends on a checkpointed shard surviving a
    crash, while the v2 migration (whose meta.json lands last anyway)
    skips the sync.
    """
    unit_matrix = np.ascontiguousarray(unit_matrix, dtype=SHARD_DTYPE)
    if unit_matrix.ndim != 2 or not len(unit_matrix):
        raise IndexStoreError("refusing to write an empty embedding shard")
    shard_dir = Path(root) / SHARD_DIR
    shard_dir.mkdir(parents=True, exist_ok=True)
    path = shard_dir / shard_filename(ordinal)
    blob = unit_matrix.tobytes()
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    tmp.replace(path)
    return {
        "file": path.name,
        "rows": int(unit_matrix.shape[0]),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


class ShardStore:
    """Read side of the v3 vector store: validated, lazily-mapped shards.

    Args:
        root: index root directory (shards live under ``root/shards/``).
        hidden: embedding width every shard must match.
        specs: the ``meta.json`` shard spec list (``file``/``rows``/
            ``sha256`` per shard, in row order).
    """

    def __init__(self, root, hidden, specs):
        self.root = Path(root)
        self.hidden = int(hidden)
        self.specs = list(specs)
        self._blocks = None
        self._offsets = np.concatenate(
            ([0], np.cumsum([int(s["rows"]) for s in self.specs])),
        ).astype(np.int64)

    @property
    def rows(self):
        """Total stored rows across all shards."""
        return int(self._offsets[-1])

    def shard_path(self, spec):
        return self.root / SHARD_DIR / spec["file"]

    def open(self):
        """Map every shard read-only, validating sizes; returns ``self``.

        Raises:
            IndexStoreError: on a missing or size-mismatched (truncated /
                partially written) shard file.
        """
        if self._blocks is not None:
            return self
        blocks = []
        for spec in self.specs:
            path = self.shard_path(spec)
            rows = int(spec["rows"])
            expected = rows * self.hidden * SHARD_DTYPE.itemsize
            try:
                actual = path.stat().st_size
            except OSError as exc:
                raise IndexStoreError(
                    f"missing embedding shard {spec['file']} "
                    f"(partial write or deleted file? rebuild the index "
                    f"or restore the shard)") from exc
            if actual != expected:
                raise IndexStoreError(
                    f"embedding shard {spec['file']} is {actual} bytes, "
                    f"expected {expected} ({rows} rows x {self.hidden}): "
                    f"truncated or partial write — rebuild the index")
            blocks.append(np.memmap(path, dtype=SHARD_DTYPE, mode="r",
                                    shape=(rows, self.hidden)))
        self._blocks = blocks
        return self

    def blocks(self):
        """Per-shard ``(rows, hidden)`` float32 memmaps, in row order."""
        self.open()
        return self._blocks

    def row(self, row):
        """One stored row by global index (crosses shard boundaries)."""
        if not 0 <= row < self.rows:
            raise IndexStoreError(f"embedding row {row} out of range "
                                  f"(store has {self.rows})")
        shard = int(np.searchsorted(self._offsets, row, side="right")) - 1
        return self.blocks()[shard][row - int(self._offsets[shard])]

    def matrix(self):
        """The full matrix, materialized in RAM (copies every shard)."""
        blocks = self.blocks()
        if not blocks:
            return np.empty((0, self.hidden), dtype=SHARD_DTYPE)
        if len(blocks) == 1:
            return np.array(blocks[0])
        return np.concatenate([np.asarray(b) for b in blocks], axis=0)

    def verify(self):
        """Re-hash every shard; returns the list of corrupt file names.

        Catches byte corruption that preserves the file size (which the
        open-time size check cannot see).  Reads all data — keep it off
        the serving path.
        """
        bad = []
        for spec in self.specs:
            digest = hashlib.sha256(
                self.shard_path(spec).read_bytes()).hexdigest()
            if digest != spec.get("sha256", digest):
                bad.append(spec["file"])
        return bad
