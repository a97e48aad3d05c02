"""Content-addressed on-disk cache for extracted graphs.

Entries are keyed by SHA-256 over the *preprocessed* Verilog source plus
every frontend option that affects extraction (level, top module) plus
the frontend's **schema fingerprint** (IR format version and featurizer
vocabulary).  Identical sources therefore share one entry
regardless of file name or location, and any change to the source, the
options, the on-disk format, or the feature schema changes the key instead
of silently returning a stale graph — a ``FEATURE_DIM``/vocabulary change
can never resurrect fingerprints computed under the old schema.

Layout mirrors git's object store: ``<root>/<key[:2]>/<key[2:]>.dfg`` keeps
directories small on large corpora.  Blobs are the compressed-JSON payloads
of :mod:`repro.ir.serialize` (RTL and netlist graphs share the codec); a
corrupt blob (truncated write, disk fault, stale format) is treated as a
miss, counted in the stats, and deleted so the slot heals on the next
store.
"""

import hashlib
import os
from pathlib import Path

from repro.errors import ReproError
from repro.ir import serialize as ir_serialize


class CacheStats:
    """Counters for one cache lifetime (reset with a new instance)."""

    __slots__ = ("hits", "misses", "stores", "corrupt",
                 "hit_bytes", "store_bytes")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.hit_bytes = 0
        self.store_bytes = 0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"stores={self.stores}, corrupt={self.corrupt})")


def content_key(cleaned_text, options_fingerprint, top=None, schema=""):
    """SHA-256 hex key for preprocessed source + extraction options.

    Args:
        cleaned_text: preprocessed Verilog source.
        options_fingerprint: frontend options string (level, ...).
        top: top-module override, part of the key.
        schema: the frontend's schema fingerprint (IR format version +
            featurizer vocabulary digest); callers that do not care about
            feature-schema invalidation may leave it empty.
    """
    digest = hashlib.sha256()
    digest.update(f"gir\0schema={schema}\0".encode("utf-8"))
    digest.update(f"{options_fingerprint}\0top={top or ''}\0"
                  .encode("utf-8"))
    digest.update(cleaned_text.encode("utf-8"))
    return digest.hexdigest()


class DFGCache:
    """Persistent graph store under ``root``; safe to share across runs.

    Blobs are encoded with :mod:`repro.ir.serialize`, which handles every
    GraphIR level (including DFGs, which serialize as RTL-level IR).
    """

    def __init__(self, root):
        self.root = Path(root)
        self.stats = CacheStats()

    def blob_path(self, key):
        return self.root / key[:2] / f"{key[2:]}.dfg"

    def load(self, key):
        """The cached graph for ``key``, or ``None`` on a miss.

        Corrupt entries are deleted and reported as misses.
        """
        path = self.blob_path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            graph = ir_serialize.loads(blob)
        except ReproError:
            self.stats.corrupt += 1
            self.stats.misses += 1
            path.unlink(missing_ok=True)
            return None
        self.stats.hits += 1
        self.stats.hit_bytes += len(blob)
        return graph

    def store(self, key, graph):
        """Write ``graph`` under ``key`` (atomically via rename).

        The temp name carries the writer's pid: ingest workers write to
        the cache concurrently, and two processes storing the same key
        must not interleave bytes in a shared temp file (last rename
        wins; both wrote identical content anyway).
        """
        path = self.blob_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = ir_serialize.dumps(graph)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_bytes(blob)
        tmp.replace(path)
        self.stats.stores += 1
        self.stats.store_bytes += len(blob)

    def entry_count(self):
        """Number of blobs on disk (walks the store)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.dfg"))

    def disk_bytes(self):
        """Total size of all blobs on disk."""
        if not self.root.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.root.glob("*/*.dfg"))
