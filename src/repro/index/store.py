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

Opening an index is ``stat`` + ``mmap`` — no decompression, no
re-normalization (v2 paid both on every load).  Queries run through the
batched :class:`~repro.index.engine.QueryEngine`; the embedding service
and frontend are cached on the index object so a lookup service embeds
each suspect once and never re-fingerprints the model per call.
``add_to_index`` grows the corpus in place: new files append one shard
plus meta entries without re-embedding or rewriting what is already
stored.
"""

import json
import time
import zipfile
from dataclasses import dataclass  # noqa: F401 - re-export for back-compat
from pathlib import Path

import numpy as np

from repro.core.persist import load_model, save_model
from repro.errors import IndexStoreError, ModelError
from repro.index.ann import (
    IVF_NAME,
    MIN_ROWS as IVF_MIN_ROWS,
    REFIT_GROWTH,
    IVFIndex,
    ivf_filename,
)
from repro.index.cache import DFGCache
from repro.index.chunks import ChunkConfig, extract_chunks
from repro.index.engine import QueryEngine, QueryHit  # noqa: F401
from repro.index.extractor import CorpusExtractor
from repro.index.service import EmbeddingService
from repro.index.shards import (
    ShardStore,
    next_shard_ordinal,
    unit_rows_f32,
    write_shard,
)
from repro.index.wlsig import (
    SIG_NAME,
    SignatureScorer,
    load_signatures,
    wl_colors,
    write_signatures,
)
from repro.ir.frontends import RTLFrontend, get_frontend

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


def _write_meta(root, meta):
    """Atomic ``meta.json`` write — always the last file to land."""
    tmp = root / (META_NAME + ".tmp")
    tmp.write_text(json.dumps(meta, indent=1, sort_keys=True))
    tmp.replace(root / META_NAME)


def _read_meta(root):
    meta_path = Path(root) / META_NAME
    if not meta_path.is_file():
        raise IndexStoreError(
            f"no fingerprint index at {root} (missing {META_NAME}; "
            f"run 'gnn4ip index build' first)")
    try:
        return json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexStoreError(f"corrupt index metadata: {exc}") from exc


class FingerprintIndex:
    """A loaded fingerprint index (see module docstring for the layout)."""

    def __init__(self, root, meta, shards, ivf=None):
        self.root = Path(root)
        self.meta = meta
        self.shards = shards
        self.ivf = ivf
        self.entries = meta["entries"]
        self._ok_entries = [e for e in self.entries if e["status"] == "ok"]
        #: Row table: one spec per stored shard row, in global row order
        #: ({"kind": "design", "name": ...} or {"kind": "chunk",
        #: "parent": ..., "region": {...}}).
        self.rows = meta.get("rows") or []
        self._chunk_rows = 0
        self._design_row_by_name = {}
        for row, spec in enumerate(self.rows):
            if spec.get("kind") == "chunk":
                self._chunk_rows += 1
            else:
                self._design_row_by_name[spec["name"]] = row
        self._row_by_key = {}
        self._entry_by_key = {}
        for entry in self._ok_entries:
            self._row_by_key.setdefault(
                entry["key"], self._design_row_by_name[entry["name"]])
            self._entry_by_key.setdefault(entry["key"], entry)
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
        shards = ShardStore(root, store_spec.get("hidden", 0),
                            store_spec.get("shards", []))
        rows = meta.get("rows") or []
        ok_rows = sum(1 for e in meta["entries"] if e["status"] == "ok")
        design_rows = sum(1 for r in rows if r.get("kind") != "chunk")
        if design_rows != ok_rows:
            raise IndexStoreError(
                f"row table lists {design_rows} design rows but the "
                f"metadata lists {ok_rows} embedded entries "
                f"(partial write? rebuild the index)")
        if shards.rows != len(rows):
            raise IndexStoreError(
                f"embedding store has {shards.rows} rows but the "
                f"metadata lists {len(rows)} rows "
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
            if ivf is not None and ivf.rows != len(rows):
                ivf = None
        return cls(root, meta, shards, ivf=ivf)

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
        frontend = get_frontend(self.level,
                                do_trim=self.meta["options"].get("do_trim",
                                                                 True))
        stored = self.meta["options"].get("schema")
        if stored is not None and stored != frontend.schema_fingerprint():
            raise IndexStoreError(
                f"the feature schema has changed since this index was "
                f"built ({stored} -> {frontend.schema_fingerprint()}); "
                f"rebuild the index")
        self._frontend = frontend
        return frontend

    def pipeline(self):
        """Deprecated alias for :meth:`frontend` (same extract interface)."""
        return self.frontend()

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
        off the memmaps; it exists for rebuild reuse and inspection.
        """
        if self._matrix is None:
            self._matrix = self.shards.matrix()
        return self._matrix

    @property
    def engine(self):
        """The batched :class:`QueryEngine` over the mapped shards."""
        if self._engine is None:
            self._engine = QueryEngine(self.shards.blocks(),
                                       self._row_entries(), ivf=self.ivf)
        return self._engine

    def _row_entries(self):
        """Per-shard-row entry dicts for the engine.

        Without chunk rows this is exactly the ok entries (the engine
        then serves bit-identically to v3).  With chunks, every row —
        design or chunk — gets a dict carrying the parent design's
        ``parent_id`` (ordinal among ok entries) so the engine can
        aggregate chunk hits back to designs.
        """
        if not self._chunk_rows:
            return self._ok_entries
        by_name = {e["name"]: (ordinal, e)
                   for ordinal, e in enumerate(self._ok_entries)}
        entries = []
        counters = {}
        for spec in self.rows:
            if spec.get("kind") == "chunk":
                parent = spec["parent"]
                ordinal, entry = by_name[parent]
                nth = counters.get(parent, 0)
                counters[parent] = nth + 1
                entries.append({
                    "kind": "chunk",
                    "name": f"{parent}#chunk{nth}",
                    "path": entry["path"],
                    "design": entry["design"],
                    "parent": parent,
                    "parent_id": ordinal,
                    "region": spec.get("region"),
                })
            else:
                ordinal, entry = by_name[spec["name"]]
                entries.append(dict(entry, parent_id=ordinal))
        return entries

    # -- chunking ------------------------------------------------------------
    @property
    def has_chunks(self):
        """True when any stored row is a subgraph chunk.  A chunking-
        enabled build over designs too small to chunk stores none, and
        then behaves exactly like a single-granularity index."""
        return self._chunk_rows > 0

    @property
    def chunk_row_count(self):
        return self._chunk_rows

    def chunk_config(self):
        """The :class:`~repro.index.chunks.ChunkConfig` the index was
        built with, or ``None`` when chunking was disabled."""
        spec = self.meta.get("chunks")
        return None if not spec else ChunkConfig.from_dict(spec)

    def suspect_parts(self, graphs):
        """Decompose suspect graphs the same way the corpus is stored.

        Returns ``(parts, offsets, regions)``: the flat list of part
        graphs for all suspects (each suspect contributes itself first,
        then its chunks under the stored chunk config), group prefix
        offsets (``len(graphs) + 1``), and per-part region descriptors
        (``None`` for the whole-suspect parts).  On a chunk-less index
        every suspect is a single part.
        """
        config = self.chunk_config()
        parts, regions, offsets = [], [], [0]
        for graph in graphs:
            parts.append(graph)
            regions.append(None)
            if config is not None and self.has_chunks:
                for sub, region in extract_chunks(graph, config):
                    parts.append(sub)
                    regions.append(region)
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

    def _per_row(self, offsets, fusion):
        """Whether a request takes the plain per-row top-k path.

        True for single-part groups on a chunk-less index without the
        structural channel (``fusion`` is the request's ``struct`` or
        ``fused``); everything else aggregates per parent design.  The
        query, partial and merge halves share this one predicate, so a
        worker and a single process route any request the same way.
        """
        return (fusion is None and not self.engine.chunked
                and len(offsets) > 0
                and int(offsets[-1]) == len(offsets) - 1)

    def query_parts(self, vectors, offsets, regions=None, k=5, delta=0.0,
                    nprobe=None, exact=False, struct=None):
        """Ranked parent designs for part-vector groups (one group per
        suspect; see :meth:`suspect_parts`).  ``struct`` carries the
        optional per-suspect structural scores (:meth:`suspect_struct`)
        for rank fusion.  Single-part groups on a chunk-less index with
        no structural scores take the legacy (bit-identical) path."""
        if self._per_row(offsets, struct):
            return self.engine.query_many(vectors, k=k, delta=delta,
                                          nprobe=nprobe, exact=exact)
        return self.engine.query_groups(vectors, offsets, regions, k=k,
                                        delta=delta, nprobe=nprobe,
                                        exact=exact, struct=struct)

    def partial_parts(self, vectors, offsets, regions=None, k=5,
                      delta=0.0, nprobe=None, exact=False, fused=None,
                      shards=None):
        """Worker half of :meth:`query_parts` for scatter-gather serving.

        Scores only the shard files in ``shards`` and returns mergeable
        partials (:meth:`~repro.index.engine.QueryEngine.partial_many` /
        ``partial_groups``).  ``fused`` flags which groups the front
        will fuse — the structural scores themselves never reach the
        workers (fuse at the front).  ``fused is None`` stands in for
        ``struct is None`` in the shared routing predicate.
        """
        if self._per_row(offsets, fused):
            return self.engine.partial_many(vectors, k=k, delta=delta,
                                            nprobe=nprobe, exact=exact,
                                            shards=shards)
        return self.engine.partial_groups(vectors, offsets, regions, k=k,
                                          delta=delta, nprobe=nprobe,
                                          exact=exact, fused=fused,
                                          shards=shards)

    def merge_parts(self, partials, offsets, regions=None, k=5,
                    delta=0.0, struct=None):
        """Gather half of :meth:`query_parts`: merge partition partials.

        ``partials`` holds one :meth:`partial_parts` result per
        partition (disjoint shard subsets, same request).  Returns hit
        lists bit-identical to :meth:`query_parts` on the full index;
        ``struct`` is applied here, after the merge.
        """
        if self._per_row(offsets, struct):
            return self.engine.merge_many(partials, k=k, delta=delta)
        return self.engine.merge_groups(partials, offsets, regions, k=k,
                                        delta=delta, struct=struct)

    def lookup_key(self, key):
        """Stored (unit float32) embedding for a content key, or None."""
        row = self._row_by_key.get(key)
        return None if row is None else self.shards.row(row)

    def entry_for_key(self, key):
        """The ok-entry dict whose embedding ``lookup_key`` would return,
        or None when the content key is not indexed."""
        row = self._row_by_key.get(key)
        return None if row is None else self._ok_entries[row]

    def query_vector(self, vector, k=5, delta=0.0, nprobe=None,
                     exact=False):
        """Top-k entries by cosine similarity to ``vector``.

        Delegates to :meth:`query_many` with a batch of one, so single
        and batched queries share one code path (and, in exact mode, are
        bit-identical).
        """
        return self.query_many([vector], k=k, delta=delta, nprobe=nprobe,
                               exact=exact)[0]

    def query_many(self, vectors, k=5, delta=0.0, nprobe=None,
                   exact=False):
        """Top-k hit lists for a whole batch of query vectors."""
        return self.engine.query_many(vectors, k=k, delta=delta,
                                      nprobe=nprobe, exact=exact)

    def service_for(self, model, batch_size=64):
        """A fingerprint-checked :class:`EmbeddingService` for ``model``.

        Cached on the index (keyed by model identity): repeated
        ``query_graph`` calls stop re-hashing every model weight per
        call, which used to dominate small-query latency.

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

    def query_graph(self, graph, model, k=5, nprobe=None, exact=False):
        """Embed a suspect graph and rank it against the index."""
        return self.query_graphs([graph], model, k=k, nprobe=nprobe,
                                 exact=exact)[0]

    def query_graphs(self, graphs, model, k=5, nprobe=None, exact=False):
        """Embed many suspects in one batched pass and rank each.

        On a chunked index every suspect is decomposed like the corpus
        (:meth:`suspect_parts`), all parts are embedded in the same
        batched pass, and chunk-level scores are aggregated back to one
        ranked design list per suspect.  When the index carries
        structural signatures (``signatures.json``), ranking fuses the
        embedding channel with WL reverse containment
        (:mod:`repro.index.wlsig`) so a grafted fraction of a stored
        design outranks incidental host overlap.

        Raises:
            IndexStoreError: when ``model`` is not the model the index was
                built with (its embeddings would not be comparable).
        """
        service = self.service_for(model)
        struct = self.suspect_struct(graphs)
        parts, offsets, regions = self.suspect_parts(graphs)
        vectors = service.embed_graphs(parts)
        return self.query_parts(vectors, offsets, regions, k=k,
                                delta=model.delta, nprobe=nprobe,
                                exact=exact, struct=struct)

    def stats(self):
        """Summary dict for reports and the ``index stats`` command."""
        designs = {}
        failures = 0
        for entry in self.entries:
            if entry["status"] == "ok":
                designs[entry["design"]] = designs.get(entry["design"], 0) + 1
            else:
                failures += 1
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
            "failures": failures,
            "designs": len(designs),
            "design_rows": len(self),
            "chunk_rows": self._chunk_rows,
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


def _unique_names(results, taken=()):
    """File stems, suffixed where needed so index names stay unique.

    ``taken`` seeds the reserved set with names already in the index, so
    incremental adds cannot collide with existing entries.
    """
    taken = set(taken)
    names = []
    for result in results:
        candidate, suffix = result.name, 1
        while candidate in taken:
            suffix += 1
            candidate = f"{result.name}#{suffix}"
        taken.add(candidate)
        names.append(candidate)
    return names


def _result_entries(results, names):
    entries = []
    for result, name in zip(results, names):
        entry = {"name": name, "path": result.path, "key": result.key,
                 "status": "ok" if result.ok else "error"}
        if result.ok:
            entry["design"] = result.graph.name
            entry["nodes"] = len(result.graph)
            entry["edges"] = result.graph.num_edges
            entry["cached"] = result.cached
        else:
            entry["error"] = result.error
        entries.append(entry)
    return entries


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


def _maybe_fit_ivf(root, unit_matrix, meta):
    """Fit + persist the coarse quantizer when the corpus is big enough.

    ``fitted_rows`` records how many rows the k-means actually saw, so
    later appends know when assign-only growth has outrun the centroids
    and a re-fit is due (:data:`~repro.index.ann.REFIT_GROWTH`).
    """
    if len(unit_matrix) >= IVF_MIN_ROWS:
        ivf = IVFIndex.fit(unit_matrix)
        name = _next_ivf_name(root)
        ivf.save(root / name)
        meta["ivf"] = {"clusters": ivf.n_clusters, "file": name,
                       "fitted_rows": len(unit_matrix)}
    else:
        meta["ivf"] = None


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


def build_index(root, paths, model, pipeline=None, jobs=None,
                use_cache=True, top=None, batch_size=64, level=None,
                frontend=None, chunks=True, chunk_config=None,
                progress=None):
    """Build (or rebuild) a fingerprint index over Verilog files.

    Extraction fans out over worker processes and reuses the index's graph
    cache; embedding runs batched.  Files the frontend rejects become
    failure entries instead of aborting the build.

    Args:
        level: extraction level (``rtl`` / ``netlist``); defaults to the
            level of the model's featurizer, so a netlist-trained model
            indexes at the netlist level without extra flags.
        frontend: explicit :mod:`repro.ir.frontends` frontend (overrides
            ``level`` and ``pipeline``).
        chunks: also store one embedding row per subgraph chunk of each
            design (:mod:`repro.index.chunks`), enabling partial-theft
            matching; designs too small to chunk store only their
            whole-design row.
        chunk_config: :class:`~repro.index.chunks.ChunkConfig` override
            (defaults apply when ``None``).
        progress: optional ``callback(done, total)`` forwarded to the
            extraction phase (the build's dominant cost).

    Returns:
        (index, report) — the loaded :class:`FingerprintIndex` and a dict
        describing the build (counts, cache stats, timings).

    Raises:
        ModelError: when the model's featurizer level does not match the
            requested extraction level (its embeddings would be garbage).
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    paths = [str(p) for p in paths]
    if not paths:
        raise IndexStoreError("no input files to index")

    model_level = getattr(model.encoder, "featurizer", None)
    model_level = model_level.level if model_level is not None else "rtl"
    if frontend is None:
        if pipeline is not None:
            if level not in (None, "rtl"):
                raise ValueError(
                    f"pipeline= selects the RTL frontend and conflicts "
                    f"with level={level!r}; pass frontend= instead")
            frontend = RTLFrontend(pipeline=pipeline)
        else:
            frontend = get_frontend(level if level is not None
                                    else model_level)
    if frontend.level != model_level:
        raise ModelError(
            f"cannot build a {frontend.level}-level index with a "
            f"{model_level}-level model (train with --level "
            f"{frontend.level} or change --level)")

    start = time.perf_counter()
    cache = DFGCache(root / CACHE_DIR) if use_cache else None
    extractor = CorpusExtractor(cache=cache, jobs=jobs, frontend=frontend)
    results = extractor.extract_paths(paths, top=top, progress=progress)
    extract_seconds = time.perf_counter() - start

    ok = [r for r in results if r.ok]
    service = EmbeddingService(model, batch_size=batch_size)
    chunk_opts = (chunk_config or ChunkConfig()) if chunks else None
    per_ok_chunks = [extract_chunks(r.graph, chunk_opts) if chunk_opts
                     else [] for r in ok]

    # Rebuild fast path: embeddings from a previous build of this index
    # are reused for unchanged content keys, provided the model is the
    # same one (fingerprint match).  Chunk rows are reused too, when the
    # chunk options are unchanged (same content + same config => the
    # same chunk set).  --no-cache recomputes everything.
    previous = {}
    previous_chunks = {}
    if use_cache:
        try:
            old = FingerprintIndex.load(root)
            if old.model_hash == service.fingerprint:
                matrix = old.matrix
                key_by_name = {e["name"]: e["key"]
                               for e in old._ok_entries}
                same_chunks = (chunk_opts is not None
                               and old.meta.get("chunks")
                               == chunk_opts.as_dict())
                for row, spec in enumerate(old.rows):
                    if spec.get("kind") == "chunk":
                        if same_chunks:
                            key = key_by_name[spec["parent"]]
                            previous_chunks.setdefault(key, []).append(
                                matrix[row])
                    else:
                        previous[key_by_name[spec["name"]]] = matrix[row]
            # .matrix is a materialized copy; drop the old index now so
            # its shard memmaps are closed before cleanup unlinks the
            # files (deleting a mapped file fails on some platforms).
            del old
        except IndexStoreError:
            pass

    embed_start = time.perf_counter()
    fresh = [r for r in ok if r.key not in previous]
    # One batched pass embeds the fresh whole designs and every chunk
    # whose vectors cannot be reused from the previous build.
    fresh_chunk_slots = []
    chunk_graphs = []
    for i, result in enumerate(ok):
        subs = per_ok_chunks[i]
        if subs and len(previous_chunks.get(result.key, ())) != len(subs):
            fresh_chunk_slots.append((i, len(subs)))
            chunk_graphs.extend(sub for sub, _ in subs)
    embed_graphs = [r.graph for r in fresh] + chunk_graphs
    unit = unit_rows_f32(
        service.embed_graphs(embed_graphs)
        if embed_graphs else np.empty((0, model.encoder.hidden)))
    fresh_rows = {r.key: unit[i] for i, r in enumerate(fresh)}
    cursor = len(fresh)
    chunk_vectors = {}  # ok-ordinal -> (n_chunks, hidden) unit rows
    for i, count in fresh_chunk_slots:
        chunk_vectors[i] = unit[cursor:cursor + count]
        cursor += count
    for i, result in enumerate(ok):
        if per_ok_chunks[i] and i not in chunk_vectors:
            chunk_vectors[i] = np.stack(previous_chunks[result.key])
    embed_seconds = time.perf_counter() - embed_start

    names = _unique_names(results)
    ok_names = [name for result, name in zip(results, names) if result.ok]
    # Row layout: whole-design rows first (ok order), then chunk rows
    # grouped by design.  The rows table mirrors it spec for spec.
    design_rows = [previous[r.key] if r.key in previous
                   else fresh_rows[r.key] for r in ok]
    row_specs = [{"kind": "design", "name": name} for name in ok_names]
    chunk_rows = []
    for i in range(len(ok)):
        for j, (_, region) in enumerate(per_ok_chunks[i]):
            row_specs.append({"kind": "chunk", "parent": ok_names[i],
                              "region": region})
            chunk_rows.append(chunk_vectors[i][j])
    unit_matrix = (np.stack(design_rows + chunk_rows)
                   if design_rows or chunk_rows
                   else np.empty((0, model.encoder.hidden),
                                 dtype=np.float32))

    report = {
        "files": len(results),
        "embedded": len(ok),
        "embedded_fresh": len(fresh),
        "embeddings_reused": len(ok) - len(fresh),
        "failures": len(results) - len(ok),
        "chunk_rows": len(chunk_rows),
        "cache": cache.stats.as_dict() if cache else None,
        "extract_seconds": extract_seconds,
        "embed_seconds": embed_seconds,
        "jobs": extractor.last_jobs,
    }
    specs = ([write_shard(root, next_shard_ordinal(root), unit_matrix)]
             if len(unit_matrix) else [])
    meta = {
        "version": FORMAT_VERSION,
        "model_hash": service.fingerprint,
        "options": {
            "top": top,
            "level": frontend.level,
            "do_trim": getattr(frontend, "do_trim", True),
            "schema": frontend.schema_fingerprint(),
            "use_cache": use_cache,
        },
        "store": {
            "dtype": "float32",
            "hidden": int(model.encoder.hidden),
            "shards": specs,
        },
        "entries": _result_entries(results, names),
        "rows": row_specs,
        "chunks": chunk_opts.as_dict() if chunk_opts else None,
        "build": report,
    }
    _maybe_fit_ivf(root, unit_matrix, meta)
    save_model(model, root / MODEL_NAME)
    # Structural signatures ride along with every multi-granularity
    # build (the graphs are already in hand; wl_colors is one pass per
    # graph).  Chunk-less indexes get no signature file so their
    # serving contract stays bit-identical to v3 — the structural
    # channel exists to fix what chunk granularity breaks.
    if chunk_rows:
        write_signatures(root, {name: wl_colors(result.graph)
                                for result, name in zip(ok, ok_names)})
    else:
        (root / SIG_NAME).unlink(missing_ok=True)
    # meta.json is written before any stale file is removed (and after
    # everything it references exists): its presence marks a complete
    # index, and load() cross-checks it against the shard files.
    _write_meta(root, meta)
    _clean_stale_files(root, meta)
    return FingerprintIndex.load(root), report


def add_to_index(root, paths, jobs=None, batch_size=64):
    """Incrementally add files to an existing index.

    Appends exactly one new shard plus meta entries: existing shards,
    the model, and the quantizer's centroids are left untouched, and
    files whose content key is already indexed reuse the stored vector
    instead of re-embedding (the incremental-construction idea — grow
    the index in place instead of rebuilding).

    Returns:
        (index, report) — the reloaded index and a build-style dict with
        ``"mode": "add"``.
    """
    root = Path(root)
    index = FingerprintIndex.load(root)
    paths = [str(p) for p in paths]
    if not paths:
        raise IndexStoreError("no input files to add")
    model = index.model()
    frontend = index.frontend()

    start = time.perf_counter()
    cache = DFGCache(root / CACHE_DIR) if index.use_cache else None
    extractor = CorpusExtractor(cache=cache, jobs=jobs, frontend=frontend)
    results = extractor.extract_paths(paths, top=index.top)
    extract_seconds = time.perf_counter() - start

    ok = [r for r in results if r.ok]
    chunk_opts = index.chunk_config()
    per_ok_chunks = [extract_chunks(r.graph, chunk_opts) if chunk_opts
                     else [] for r in ok]
    embed_start = time.perf_counter()
    fresh = [r for r in ok if index.lookup_key(r.key) is None]
    chunk_graphs = [sub for subs in per_ok_chunks for sub, _ in subs]
    embed_graphs = [r.graph for r in fresh] + chunk_graphs
    if embed_graphs:
        service = index.service_for(model, batch_size=batch_size)
        unit = unit_rows_f32(service.embed_graphs(embed_graphs))
    else:
        unit = np.empty((0, index.shards.hidden), dtype=np.float32)
    fresh_rows = {r.key: unit[i] for i, r in enumerate(fresh)}
    chunk_unit = unit[len(fresh):]
    design_rows = [fresh_rows[r.key] if r.key in fresh_rows
                   else index.lookup_key(r.key) for r in ok]
    new_unit = (np.concatenate(
        [np.stack(design_rows) if design_rows
         else np.empty((0, index.shards.hidden), dtype=np.float32),
         chunk_unit])
        if design_rows or len(chunk_unit) else
        np.empty((0, index.shards.hidden), dtype=np.float32))
    embed_seconds = time.perf_counter() - embed_start

    meta = index.meta
    if len(new_unit):
        ordinal = next_shard_ordinal(root, meta["store"]["shards"])
        meta["store"]["shards"].append(write_shard(root, ordinal,
                                                   new_unit))
        total = index.shards.rows + len(new_unit)
        fitted = ((meta.get("ivf") or {}).get("fitted_rows", 0)
                  if index.ivf is not None else 0)
        refit_due = (total - fitted
                     > max(IVF_MIN_ROWS, int(REFIT_GROWTH * fitted)))
        if index.ivf is not None and not refit_due:
            # Grow the quantizer in place: new rows join their nearest
            # existing centroid; no re-clustering, no reassignment.
            index.ivf.add(new_unit)
            name = _next_ivf_name(root)
            index.ivf.save(root / name)
            meta["ivf"]["file"] = name
        elif total >= IVF_MIN_ROWS:
            # Covers the first crossing of the size threshold, a
            # quantizer load() dropped as stale, and assign-only growth
            # crossing REFIT_GROWTH since the last k-means (centroids
            # fitted on a fraction of the corpus probe poorly against
            # the rest) — refit from everything.
            ivf = IVFIndex.fit(
                np.concatenate([index.matrix, new_unit], axis=0))
            name = _next_ivf_name(root)
            ivf.save(root / name)
            meta["ivf"] = {"clusters": ivf.n_clusters, "file": name,
                           "fitted_rows": total}

    existing_names = [e["name"] for e in meta["entries"]]
    names = _unique_names(results, taken=existing_names)
    ok_names = [name for result, name in zip(results, names) if result.ok]
    meta["entries"].extend(_result_entries(results, names))
    # The appended shard mirrors the build layout batch-locally: the
    # batch's design rows first, then its chunk rows grouped by design.
    rows = meta.setdefault("rows", [])
    rows.extend({"kind": "design", "name": name} for name in ok_names)
    for i in range(len(ok)):
        rows.extend({"kind": "chunk", "parent": ok_names[i],
                     "region": region} for _, region in per_ok_chunks[i])
    report = {
        "mode": "add",
        "files": len(results),
        "embedded": len(ok),
        "embedded_fresh": len(fresh),
        "embeddings_reused": len(ok) - len(fresh),
        "failures": len(results) - len(ok),
        "chunk_rows": len(chunk_graphs),
        "cache": cache.stats.as_dict() if cache else None,
        "extract_seconds": extract_seconds,
        "embed_seconds": embed_seconds,
        "jobs": extractor.last_jobs,
    }
    meta["build"] = report
    # Extend the signature file for the appended designs.  An index
    # without one (migrated from v3, never re-extracted) stays without:
    # a partially-signed corpus could never serve the structural
    # channel anyway.
    stored = load_signatures(root)
    if stored is not None:
        colors, radius = stored
        colors.update({name: wl_colors(result.graph, radius)
                       for result, name in zip(ok, ok_names)})
        write_signatures(root, colors, radius=radius)
    _write_meta(root, meta)
    _clean_stale_files(root, meta)
    return FingerprintIndex.load(root), report


def _design_row_specs(meta):
    """v4 row table for a chunk-less index: one design row per ok entry,
    in entry order (exactly how v2/v3 laid out their shard rows)."""
    return [{"kind": "design", "name": entry["name"]}
            for entry in meta["entries"] if entry["status"] == "ok"]


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
    if version == 3:
        meta["version"] = FORMAT_VERSION
        meta["rows"] = _design_row_specs(meta)
        meta["chunks"] = None
        _write_meta(root, meta)
        return FingerprintIndex.load(root)
    if version != 2:
        raise IndexStoreError(
            f"cannot migrate index version {version!r} "
            f"(only v2 and v3); rebuild the index")
    try:
        with np.load(root / LEGACY_EMBEDDINGS_NAME,
                     allow_pickle=False) as data:
            matrix = data["matrix"]
            keys = [str(k) for k in data["keys"]]
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise IndexStoreError(f"corrupt embedding store: {exc}") from exc
    ok_keys = [e["key"] for e in meta["entries"] if e["status"] == "ok"]
    if keys != ok_keys or matrix.shape[0] != len(ok_keys):
        raise IndexStoreError(
            "embedding store does not match index metadata "
            "(partial write? rebuild the index)")
    unit_matrix = unit_rows_f32(matrix)
    hidden = int(matrix.shape[1]) if matrix.ndim == 2 else 0
    meta["version"] = FORMAT_VERSION
    meta["options"].setdefault("use_cache", True)
    meta["store"] = {
        "dtype": "float32",
        "hidden": hidden,
        "shards": ([write_shard(root, next_shard_ordinal(root),
                                unit_matrix)]
                   if len(unit_matrix) else []),
    }
    meta["rows"] = _design_row_specs(meta)
    meta["chunks"] = None
    _maybe_fit_ivf(root, unit_matrix, meta)
    # v4 meta lands atomically first; only then is the legacy store
    # removed, so a crash mid-migration never strands a half-converted
    # index (either version's meta always matches its files).
    _write_meta(root, meta)
    _clean_stale_files(root, meta)
    return FingerprintIndex.load(root)


#: Back-compat alias: the v2 migration entry point now handles v3 too.
migrate_v2 = migrate_index
