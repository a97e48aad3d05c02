"""Persistent hardware-fingerprint index (on-disk format v4).

On-disk layout under the index root::

    meta.json         entries (one per input file, failures included),
                      the row table (one spec per stored shard row:
                      whole designs plus their subgraph chunks), model
                      hash, pipeline options, shard specs, IVF config,
                      last-build report — always written last,
                      atomically: its presence marks a complete index
    shards/*.f32      unit-normalized float32 embedding rows as raw
                      memory-mapped shard files (append-only; see
                      :mod:`repro.index.shards`)
    ivf-NNNNN.npz     optional coarse quantizer for sublinear queries
                      (:mod:`repro.index.ann`)
    signatures.json   structural WL signatures, one per embedded entry
                      (:mod:`repro.index.wlsig`); powers the rank-fusion
                      channel that keeps partial theft detectable where
                      chunk cosines saturate
    model.npz         the exact model that produced the embeddings
    cache/            content-addressed DFG cache (survives rebuilds;
                      absent when the index was built with
                      ``use_cache=False``)

v4 stores each design at multiple granularities: one whole-design row
plus one row per overlapping subgraph chunk (:mod:`repro.index.chunks`
— fanin cones, connected regions, topological windows).  ``meta.json``
carries a ``rows`` table mapping every shard row to either a design or
a (parent, region) chunk, and queries aggregate chunk hits back to
parent designs (:meth:`~repro.index.engine.QueryEngine.query_groups`),
so a stolen *fraction* of a design still matches its victim head-on.
Designs too small to chunk store exactly one row, and an index with no
chunk rows serves bit-identically to v3.

This module is the row table's one writer and one reader:
:func:`row_specs` builds the specs of one design, and opening an index
validates the table once and maps every row to its design
(:class:`~repro.index.engine.RowMap`).  The engine, the content-key
lookups and ingest's embedding reuse all read that map, never the specs.

Opening an index is ``stat`` + ``mmap`` — no decompression, no
re-normalization (v2 paid both on every load).  Queries run through the
batched :class:`~repro.index.engine.QueryEngine` (the suspect pipeline
that feeds it is :meth:`repro.api.facade.Session.query_jobs`); the
embedding service and frontend are cached on the index object so a
lookup service embeds each suspect once and never re-fingerprints the
model per call.

One writer builds and grows indexes: the streaming ingest
(:func:`repro.index.ingest.ingest_corpus`).  ``index build`` is a fresh
ingest and ``index add`` an append; this module holds the read side, the
durable JSON writer, and the v2/v3 migration.
"""

import json
import os
import zipfile
from collections import Counter
from pathlib import Path

import numpy as np

from repro.core.persist import load_model
from repro.errors import IndexStoreError, ModelError
from repro.index.ann import IVF_NAME, IVFIndex, ivf_filename, ivf_plan
from repro.index.cache import DFGCache
from repro.index.chunks import ChunkConfig, chunk_parts, extract_chunks
from repro.index.engine import QueryEngine, RowMap
from repro.index.service import EmbeddingService
from repro.index.shards import (
    ShardStore,
    next_shard_ordinal,
    unit_rows_f32,
    write_shard,
)
from repro.index.wlsig import (
    SignatureScorer,
    load_signatures,
    wl_colors,
)
from repro.ir.frontends import get_frontend

META_NAME = "meta.json"
MODEL_NAME = "model.npz"
CACHE_DIR = "cache"
#: v2's single compressed ``embeddings.npz`` store; only read by
#: :func:`migrate_v2`.
LEGACY_EMBEDDINGS_NAME = "embeddings.npz"
#: v3: embeddings live in raw memory-mapped float32 shards (meta carries
#: the shard specs) with an optional IVF quantizer.  v4 adds the
#: ``rows`` table and multi-granularity chunk rows.  v2/v3 indexes are
#: refused with a migrate/rebuild message — ``migrate_index`` converts
#: them in place without re-embedding.
FORMAT_VERSION = 4


def _fsync_dir(path):
    """Best-effort directory fsync (required for rename durability on
    POSIX; silently skipped where directories cannot be opened)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _write_json_durable(path, payload):
    """fsync'd write + atomic rename + directory fsync: the file is
    either the old version or the complete new one, never a prefix, and
    the rename survives a crash.  ``meta.json`` and the ingest
    checkpoint both land this way."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    tmp.replace(path)
    _fsync_dir(path.parent)


def _corrupt(what):
    return IndexStoreError(f"corrupt index metadata: {what}")


def _read_meta(root):
    meta_path = Path(root) / META_NAME
    if not meta_path.is_file():
        raise IndexStoreError(
            f"no fingerprint index at {root} (missing {META_NAME}; "
            f"run 'gnn4ip index build' first)")
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _corrupt(exc) from exc
    if not isinstance(meta, dict):
        raise _corrupt(f"the top level must be an object, not "
                       f"{type(meta).__name__}")
    return meta


def row_specs(name, regions=()):
    """The row-table specs of one embedded entry, in stored order: its
    whole-design row, then one chunk row per region."""
    return ([{"kind": "design", "name": name}]
            + [{"kind": "chunk", "parent": name, "region": region}
               for region in regions])


def _scan_tables(meta):
    """Validate ``meta``'s entry and row tables and map rows to designs.

    The one reader of the v4 row table.  Returns ``(ok_entries, rows,
    row_map)``: the embedded entries, the row specs, and the
    :class:`~repro.index.engine.RowMap` from every row to its entry's
    ordinal among ``ok_entries``.  Design rows in entry order (as every
    writer stores them) are recognised with one list comparison; any
    other order is mapped by name.

    Raises:
        IndexStoreError: when a table has the wrong shape, an embedded
            entry lacks a key a hit reads, the design rows and embedded
            entries disagree in number, an embedded entry has no design
            row, or a chunk row names no embedded entry.
    """
    entries = meta.get("entries")
    if not isinstance(entries, list):
        raise _corrupt("'entries' is missing or not a list")
    rows = meta.get("rows") or []
    if not isinstance(rows, list):
        raise _corrupt(f"'rows' must be a list, not {type(rows).__name__}")
    try:
        ok_entries = [e for e in entries if e["status"] == "ok"]
    except (KeyError, TypeError):
        bad = next(i for i, e in enumerate(entries)
                   if not isinstance(e, dict) or "status" not in e)
        raise _corrupt(f"entry {bad} has no 'status'") from None
    # The keys a query hit reads.
    names = [e["name"] for e in ok_entries
             if "name" in e and "path" in e and "design" in e]
    if len(names) != len(ok_entries):
        bad, key = next((i, key) for i, e in enumerate(entries)
                        if e["status"] == "ok"
                        for key in ("name", "path", "design") if key not in e)
        raise _corrupt(f"entry {bad} has no {key!r}")
    try:
        design_names = [spec["name"] for spec in rows
                        if spec.get("kind") != "chunk"]
    except (AttributeError, KeyError, TypeError):
        bad = next(i for i, spec in enumerate(rows)
                   if not isinstance(spec, dict)
                   or (spec.get("kind") != "chunk" and "name" not in spec))
        raise _corrupt(f"row {bad} is neither a chunk nor a named "
                       f"design") from None
    if len(design_names) != len(ok_entries):
        raise IndexStoreError(
            f"row table lists {len(design_names)} design rows but the "
            f"metadata lists {len(ok_entries)} embedded entries "
            f"(partial write? rebuild the index)")
    chunk = np.zeros(len(rows), dtype=bool)
    if len(design_names) < len(rows):
        chunk[:] = [spec.get("kind") == "chunk" for spec in rows]
    design_row = design_ids = np.flatnonzero(~chunk)
    if design_names != names:
        # Out of entry order: pair the k-th design row of a name with
        # the k-th entry of that name (stable sorts by name).
        missing = Counter(names) - Counter(design_names)
        if missing:
            raise IndexStoreError(
                f"embedded entry {next(n for n in names if n in missing)!r} "
                f"has no design row in the row table (corrupt metadata? "
                f"rebuild the index)")
        design_row = np.empty(len(names), dtype=np.int64)
        design_row[sorted(range(len(names)), key=names.__getitem__)] = \
            design_ids[sorted(range(len(names)),
                              key=design_names.__getitem__)]
    parent = np.empty(len(rows), dtype=np.int64)
    parent[design_row] = np.arange(len(names))
    regions = [None] * len(rows)
    chunk_ids = np.flatnonzero(chunk).tolist()
    if chunk_ids:
        ordinal = dict(zip(names, range(len(names))))
        for row in chunk_ids:
            spec = rows[row]
            if "parent" not in spec:
                raise _corrupt(f"chunk row {row} has no 'parent'")
            if spec["parent"] not in ordinal:
                raise _corrupt(f"chunk row {row} names "
                               f"{spec['parent']!r}, which is no "
                               f"embedded entry")
            parent[row] = ordinal[spec["parent"]]
            regions[row] = spec.get("region")
    return ok_entries, rows, RowMap(parent, chunk, regions, design_row)


def refuse_zero_suspects(vectors, offsets, names):
    """Raise :class:`ModelError` naming the first suspect whose whole-
    design row (the first part of each ``offsets`` group) is exactly
    zero: it would score 0.0 against every design and flag nothing."""
    dead = np.flatnonzero(~vectors[offsets[:-1]].any(axis=1))
    if dead.size:
        raise ModelError(f"zero embedding for {names[dead[0]]}: it cannot "
                         f"be ranked")


class FingerprintIndex:
    """A loaded fingerprint index (see module docstring for the layout)."""

    def __init__(self, root, meta, shards, ivf=None):
        self.root = Path(root)
        self.meta = meta
        self.shards = shards
        self.ivf = ivf
        #: ``rows`` is the row table: one spec per stored shard row, in
        #: global row order (see :func:`row_specs`); ``row_map`` is the
        #: :class:`RowMap` read from it.
        self._ok_entries, self.rows, self.row_map = _scan_tables(meta)
        #: Stored rows that are subgraph chunks.
        self.chunk_row_count = len(self.rows) - len(self._ok_entries)
        self.entries = meta["entries"]
        self._by_key = None
        self._matrix = None
        self._engine = None
        self._frontend = None
        self._service = None
        self._scorer_loaded = False
        self._scorer = None

    # -- loading -------------------------------------------------------------
    @classmethod
    def load(cls, root):
        """Open an existing index; raises IndexStoreError when unusable.

        Opening maps the shards read-only and validates their sizes
        against the metadata (catching partial/truncated writes) but
        reads no embedding data.
        """
        root = Path(root)
        meta = _read_meta(root)
        version = meta.get("version")
        if version == 2:
            raise IndexStoreError(
                f"index at {root} uses the retired v2 format (compressed "
                f"float64 embeddings.npz, decompressed and re-normalized "
                f"on every open); run 'gnn4ip index migrate {root}' to "
                f"convert it in place without re-embedding, or rebuild "
                f"with 'gnn4ip index build'")
        if version == 3:
            raise IndexStoreError(
                f"index at {root} uses the retired v3 format (no row "
                f"table — single-granularity rows only); run 'gnn4ip "
                f"index migrate {root}' to convert it in place without "
                f"re-embedding (rebuild to also index subgraph chunks)")
        if version != FORMAT_VERSION:
            raise IndexStoreError(
                f"index version {version!r} is not supported "
                f"(expected {FORMAT_VERSION}); rebuild the index")
        store_spec = meta.get("store") or {}
        if not isinstance(store_spec, dict):
            raise _corrupt(f"'store' must be an object, not "
                           f"{type(store_spec).__name__}")
        try:
            shards = ShardStore(root, store_spec.get("hidden", 0),
                                store_spec.get("shards", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise _corrupt(f"bad shard specs in 'store': {exc!r}") from exc
        index = cls(root, meta, shards)
        if shards.rows != len(index.rows):
            raise IndexStoreError(
                f"embedding store has {shards.rows} rows but the "
                f"metadata lists {len(index.rows)} rows "
                f"(partial write? rebuild the index)")
        shards.open()  # size validation; no data is read
        # The quantizer is an optional accelerator, never a correctness
        # dependency: a missing, corrupt, or row-count-stale ivf.npz
        # (e.g. a crash between the quantizer write and the meta write
        # during `index add`) degrades to exact serving instead of
        # refusing an otherwise-intact index.  The next add/build refits
        # and heals it.
        ivf = None
        if meta.get("ivf"):
            try:
                ivf = IVFIndex.load(_ivf_path(root, meta))
            except IndexStoreError:
                ivf = None
            if ivf is not None and ivf.rows != len(index.rows):
                ivf = None
        index.ivf = ivf
        return index

    def model(self, **kwargs):
        """The model persisted with the index."""
        return load_model(self.root / MODEL_NAME, **kwargs)

    def frontend(self):
        """A frontend configured like the one the index was built with.

        Cached on the index: queries must extract suspects at the same
        level and with the same options the corpus was extracted with,
        and a lookup service reuses one frontend across calls.

        Raises:
            IndexStoreError: when the current feature schema no longer
                matches the one the index was built under (e.g. the
                vocabulary changed in a later version) — stored embeddings
                would be silently incomparable to fresh ones.
        """
        if self._frontend is not None:
            return self._frontend
        frontend = get_frontend(self.level)
        stored = self.meta["options"].get("schema")
        if stored is not None and stored != frontend.schema_fingerprint():
            raise IndexStoreError(
                f"the feature schema has changed since this index was "
                f"built ({stored} -> {frontend.schema_fingerprint()}); "
                f"rebuild the index")
        self._frontend = frontend
        return frontend

    @property
    def level(self):
        """Extraction level the index was built at (``rtl``/``netlist``)."""
        return self.meta["options"].get("level", "rtl")

    @property
    def top(self):
        """Top-module option the index was built with (usually None)."""
        return self.meta["options"]["top"]

    @property
    def use_cache(self):
        """Whether this index keeps a DFG cache (``--no-cache`` builds
        must not grow one behind the operator's back)."""
        return self.meta["options"].get("use_cache", True)

    # -- queries -------------------------------------------------------------
    def __len__(self):
        return len(self._ok_entries)

    @property
    def model_hash(self):
        return self.meta["model_hash"]

    @property
    def matrix(self):
        """The stored (unit float32) matrix, materialized on first use.

        The serving path never needs this — the engine scores straight
        off the memmaps; it exists for inspection.
        """
        if self._matrix is None:
            self._matrix = self.shards.matrix()
        return self._matrix

    @property
    def engine(self):
        """The batched :class:`QueryEngine` over the mapped shards."""
        if self._engine is None:
            self._engine = QueryEngine(self.shards.blocks(),
                                       self._ok_entries, ivf=self.ivf,
                                       row_map=self.row_map)
        return self._engine

    # -- chunking ------------------------------------------------------------
    @property
    def has_chunks(self):
        """True when any stored row is a subgraph chunk.  A chunking-
        enabled build over designs too small to chunk stores none, and
        then behaves exactly like a single-granularity index."""
        return self.chunk_row_count > 0

    def chunk_config(self):
        """The :class:`~repro.index.chunks.ChunkConfig` the index was
        built with, or ``None`` when chunking was disabled."""
        spec = self.meta.get("chunks")
        return None if not spec else ChunkConfig.from_dict(spec)

    def suspect_parts(self, graphs, encoder):
        """Decompose suspect graphs the same way the corpus is stored.

        Returns ``(parts, offsets, regions)``: the flat list of
        embedding parts for all suspects (each suspect contributes its
        prepared graph first, then one slice of it per chunk under the
        stored chunk config; see :func:`~repro.index.chunks.chunk_parts`),
        group prefix offsets (``len(graphs) + 1``), and per-part region
        descriptors (``None`` for the whole-suspect parts).  On a
        chunk-less index every suspect is a single part.
        """
        config = self.chunk_config() if self.has_chunks else None
        parts, regions, offsets = [], [], [0]
        for graph in graphs:
            chunks = (extract_chunks(graph, config) if config is not None
                      else [])
            parts.extend(chunk_parts(encoder, graph, chunks))
            regions.append(None)
            regions.extend(region for _, region in chunks)
            offsets.append(len(parts))
        return parts, offsets, regions

    def signature_scorer(self):
        """The structural :class:`~repro.index.wlsig.SignatureScorer`,
        or ``None`` when this index cannot serve the channel.

        Loaded lazily from ``signatures.json`` and cached.  The scorer
        only activates when *every* ok entry has a stored signature —
        a partially-signed corpus (e.g. ``index add`` onto a migrated
        index) would silently never rank the unsigned designs.
        """
        if not self._scorer_loaded:
            self._scorer_loaded = True
            stored = load_signatures(self.root)
            if stored is not None:
                colors, radius = stored
                if all(e["name"] in colors for e in self._ok_entries):
                    self._scorer = SignatureScorer(
                        [e["name"] for e in self._ok_entries],
                        [e["design"] for e in self._ok_entries],
                        colors, radius=radius)
        return self._scorer

    def suspect_struct(self, graphs):
        """Per-suspect structural score vectors for rank fusion, or
        ``None`` on an index without usable signatures."""
        scorer = self.signature_scorer()
        if scorer is None:
            return None
        return [scorer.scores(wl_colors(graph, scorer.radius))
                for graph in graphs]

    def _key_ordinals(self):
        """Content key -> ordinal of the first ok entry with that key,
        built on first use: a lookup service needs it, a vector-serving
        process never does."""
        if self._by_key is None:
            keys = [entry["key"] for entry in self._ok_entries]
            # Reversed, so that the first entry with a key wins.
            self._by_key = dict(zip(keys[::-1],
                                    range(len(keys) - 1, -1, -1)))
        return self._by_key

    def lookup_key(self, key):
        """Stored (unit float32) embedding for a content key, or None."""
        ordinal = self._key_ordinals().get(key)
        return (None if ordinal is None
                else self.shards.row(int(self.row_map.design_row[ordinal])))

    def entry_for_key(self, key):
        """The ok-entry dict whose embedding ``lookup_key`` would return,
        or None when the content key is not indexed."""
        ordinal = self._key_ordinals().get(key)
        return None if ordinal is None else self._ok_entries[ordinal]

    def service_for(self, model, batch_size=64):
        """A fingerprint-checked :class:`EmbeddingService` for ``model``.

        Cached on the index (keyed by model identity): repeated queries
        stop re-hashing every model weight per call, which used to
        dominate small-query latency.

        Raises:
            IndexStoreError: when ``model`` is not the model the index
                was built with (its embeddings would not be comparable).
        """
        if self._service is None or self._service.model is not model:
            service = EmbeddingService(model, batch_size=batch_size)
            if service.fingerprint != self.model_hash:
                raise IndexStoreError(
                    "model fingerprint does not match the index "
                    "(rebuild the index or query with its own model)")
            self._service = service
        return self._service

    def stats(self):
        """Summary dict for reports and the ``index stats`` command."""
        designs = {entry["design"] for entry in self._ok_entries}
        # Probe the cache only when its directory exists: stats on a
        # --no-cache index must not conjure an empty cache/ directory.
        cache_entries = cache_bytes = 0
        if (self.root / CACHE_DIR).is_dir():
            cache = DFGCache(self.root / CACHE_DIR)
            cache_entries = cache.entry_count()
            cache_bytes = cache.disk_bytes()
        return {
            "level": self.level,
            "entries": len(self.entries),
            "embedded": len(self),
            "failures": len(self.entries) - len(self),
            "designs": len(designs),
            "design_rows": len(self),
            "chunk_rows": self.chunk_row_count,
            "signed_entries": (len(self._ok_entries)
                               if self.signature_scorer() is not None
                               else 0),
            "hidden": self.shards.hidden if len(self) else 0,
            "shards": len(self.shards.specs),
            "ivf_clusters": self.ivf.n_clusters if self.ivf else 0,
            "model_hash": self.model_hash,
            "cache_entries": cache_entries,
            "cache_bytes": cache_bytes,
            "build": self.meta.get("build", {}),
        }


def _next_ivf_name(root):
    """Generation-named quantizer file nothing on disk uses yet.

    Like shards, the quantizer is never overwritten in place: a rebuild
    or add writes a fresh ``ivf-NNNNN.npz`` and the old one is cleaned
    only after the new ``meta.json`` lands, so a crash in between leaves
    the previous meta paired with exactly the quantizer it described.
    """
    taken = -1
    for path in Path(root).glob("ivf-*.npz"):
        stem = path.name[len("ivf-"):-len(".npz")]
        if stem.isdigit():
            taken = max(taken, int(stem))
    return ivf_filename(taken + 1)


def _ivf_path(root, meta):
    return Path(root) / meta["ivf"].get("file", IVF_NAME)


def _save_ivf(root, ivf, fitted_rows):
    """Persist a quantizer under a fresh generation name; returns its
    ``meta.json`` spec.  ``fitted_rows`` records how many rows the
    k-means actually saw, so later appends know when assign-only growth
    has outrun the centroids (:func:`~repro.index.ann.ivf_plan`)."""
    name = _next_ivf_name(root)
    ivf.save(Path(root) / name)
    return {"clusters": ivf.n_clusters, "file": name,
            "fitted_rows": int(fitted_rows)}


def _clean_stale_files(root, meta):
    """Drop files the just-written meta orphaned (the legacy v2 store,
    unreferenced shards, superseded quantizers)."""
    (root / LEGACY_EMBEDDINGS_NAME).unlink(missing_ok=True)
    live = {spec["file"] for spec in meta["store"]["shards"]}
    shard_dir = root / "shards"
    if shard_dir.is_dir():
        for path in shard_dir.glob("shard-*.f32"):
            if path.name not in live:
                path.unlink(missing_ok=True)
    live_ivf = (meta["ivf"] or {}).get("file") if meta.get("ivf") else None
    for path in Path(root).glob("ivf*.npz"):
        if path.name != live_ivf:
            path.unlink(missing_ok=True)


def migrate_index(root):
    """Convert a v2 or v3 index to v4 in place, without re-embedding.

    - **v3 -> v4** rewrites ``meta.json`` only: the shard rows already
      hold one whole-design embedding per ok entry, so the migration
      synthesizes the matching ``rows`` table (no chunk rows — rebuild
      the index to also store subgraph chunks) and stamps the version.
      Shards, quantizer, and model are untouched, and queries return
      exactly the scores the v3 index returned.
    - **v2 -> v4** additionally converts the compressed float64
      ``embeddings.npz`` store: unit-normalizes it once, writes the rows
      as a float32 shard (plus an IVF quantizer when the corpus is
      large enough), and removes the legacy store.

    Returns:
        The migrated, loaded :class:`FingerprintIndex`.
    """
    root = Path(root)
    meta = _read_meta(root)
    version = meta.get("version")
    if version == FORMAT_VERSION:
        return FingerprintIndex.load(root)
    if version not in (2, 3):
        raise IndexStoreError(
            f"cannot migrate index version {version!r} "
            f"(only v2 and v3); rebuild the index")
    if version == 2:
        try:
            with np.load(root / LEGACY_EMBEDDINGS_NAME,
                         allow_pickle=False) as data:
                matrix = data["matrix"]
                keys = [str(k) for k in data["keys"]]
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise IndexStoreError(
                f"corrupt embedding store: {exc}") from exc
        ok_keys = [e["key"] for e in meta["entries"] if e["status"] == "ok"]
        if keys != ok_keys or matrix.shape[0] != len(ok_keys):
            raise IndexStoreError(
                "embedding store does not match index metadata "
                "(partial write? rebuild the index)")
        unit_matrix = unit_rows_f32(matrix)
        meta["options"].setdefault("use_cache", True)
        meta["store"] = {
            "dtype": "float32",
            "hidden": int(matrix.shape[1]) if matrix.ndim == 2 else 0,
            "shards": ([write_shard(root, next_shard_ordinal(root),
                                    unit_matrix)]
                       if len(unit_matrix) else []),
        }
        meta["ivf"] = (_save_ivf(root, IVFIndex.fit(unit_matrix),
                                 len(unit_matrix))
                       if ivf_plan(len(unit_matrix)) == "fit" else None)
    # v2 and v3 laid out one shard row per ok entry, in entry order.
    meta["version"] = FORMAT_VERSION
    meta["rows"] = [spec for entry in meta["entries"]
                    if entry["status"] == "ok"
                    for spec in row_specs(entry["name"])]
    meta["chunks"] = None
    # v4 meta lands atomically first; only then is a v2 legacy store
    # removed, so a crash mid-migration never strands a half-converted
    # index (either version's meta always matches its files).
    _write_json_durable(root / META_NAME, meta)
    if version == 2:
        _clean_stale_files(root, meta)
    return FingerprintIndex.load(root)


#: Back-compat alias: the v2 migration entry point now handles v3 too.
migrate_v2 = migrate_index
