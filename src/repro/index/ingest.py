"""The index writer: streaming multiprocess ingest with checkpointed resume.

Every index is written here.  ``index build`` (:meth:`Corpus.build
<repro.api.facade.Corpus.build>`) is a **fresh** ingest, ``index add``
(:meth:`Corpus.add <repro.api.facade.Corpus.add>`) an **append** ingest
over the opened index, and ``index ingest`` picks fresh, append, or
**resume** from what it finds at the root (see :func:`ingest_corpus`).

- a **work queue** of design sources feeds N worker processes, each
  running the full extract → chunk → embed pipeline (the model is
  shipped to the workers once, at pool start) and returning only the
  unit-normalized float32 rows plus a small metadata record — graphs
  never accumulate in the parent, so peak memory stays flat regardless
  of corpus size;
- **embedding reuse**: content whose key an existing index already holds
  (the base index of an append, or the root's previous index on a fresh
  rebuild with the same model, options, and chunk config and the cache
  on) skips chunking, embedding, and WL signing in the worker; the
  parent copies that key's stored rows, chunk regions, and signature
  colors from the old index's memmaps instead;
- results stream back **in input order** (deterministic layout: two
  runs over the same corpus produce identical indexes) and are flushed
  to the append-only v4 shard files in bounded-size batches;
- a failing design is **recorded and skipped**, never fatal: its error
  entry lands in the checkpoint and the final index like any other;
- every flush durably lands (``fsync``) one shard, one WL-signature
  sidecar line, and one atomically-replaced **checkpoint**, in that
  order — a kill at any instant leaves a checkpoint that refers only to
  bytes already on disk, and ``ingest_corpus`` resumes exactly where it
  stopped, producing an index byte-equivalent to an uninterrupted run;
- finalize merges the sidecar into ``signatures.json``, compacts the
  per-flush mini-shards into one, fits, grows, or drops the IVF
  quantizer (:func:`~repro.index.ann.ivf_plan`; a fit runs in a
  background thread), and durably writes ``meta.json`` last, so the
  index is never observable half-built.

Crash-ordering contract (what resume relies on)::

    shard-NNNNN.f32   (fsync, atomic rename)     <- rows land first
    ingest.sigs.jsonl (append + fsync)           <- signature sidecar
    ingest.json       (fsync, atomic rename)     <- checkpoint LAST

A checkpoint therefore never references a shard that is missing or
short; an orphan shard from a crash between steps is re-done on resume
and cleaned at finalize.  Writing never touches the files of the index
already at the root — its ``meta.json`` stays valid (and servable), and
its shards readable for reuse, until the new meta atomically replaces
it; only then are superseded files removed.
"""

import hashlib
import json
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.persist import load_model, save_model
from repro.errors import IndexStoreError, ModelError
from repro.index.ann import IVFIndex, ivf_plan
from repro.index.cache import DFGCache
from repro.index.chunks import ChunkConfig, chunk_parts, extract_chunks
from repro.index.service import EmbeddingService
from repro.index.shards import (
    SHARD_DTYPE,
    ShardStore,
    next_shard_ordinal,
    unit_rows_f32,
    write_shard,
)
from repro.index.store import (
    CACHE_DIR,
    FORMAT_VERSION,
    META_NAME,
    MODEL_NAME,
    FingerprintIndex,
    _clean_stale_files,
    _ivf_path,
    _read_meta,
    _save_ivf,
    _write_json_durable,
    row_specs,
)
from repro.index.wlsig import (
    SIG_NAME,
    SIG_RADIUS,
    load_signatures,
    wl_colors,
    write_signatures,
)
from repro.ir.frontends import get_frontend

#: Durable ingest checkpoint (atomically replaced per flush); its
#: presence marks an ingest in progress — ``resume=True`` picks it up.
CHECKPOINT_NAME = "ingest.json"
#: Append-only WL-signature sidecar (one JSON line per flush).  Merged
#: into ``signatures.json`` at finalize and removed with the checkpoint.
SIG_SIDECAR_NAME = "ingest.sigs.jsonl"
#: Bump when the checkpoint schema changes shape: an old checkpoint is
#: refused (restart with ``fresh=True``) rather than misread.
CHECKPOINT_VERSION = 1
#: Finalize compacts this ingest's per-flush mini-shards into a single
#: shard when it wrote at least this many — hundreds of 2k-row blocks
#: would otherwise tax every future query's block loop.
COMPACT_MIN_SHARDS = 8


def default_jobs(task_count=None):
    """Worker count: one per core, capped at 8 and at the task count."""
    jobs = min(os.cpu_count() or 1, 8)
    if task_count is not None:
        jobs = min(jobs, max(task_count, 1))
    return jobs


def walk_sources(sources):
    """Expand files and directory trees into a sorted ``.v`` file list.

    Directories are walked recursively (this is how an **external**
    Verilog tree is ingested — point it at the root).  Duplicates are
    dropped; order is deterministic (sorted within each directory,
    sources in argument order).
    """
    paths = []
    for source in sources:
        path = Path(source)
        if path.is_dir():
            paths.extend(sorted(path.rglob("*.v")))
        else:
            paths.append(path)
    seen = set()
    unique = []
    for path in paths:
        if str(path) not in seen:
            seen.add(str(path))
            unique.append(path)
    return unique


@dataclass
class IngestConfig:
    """Tunables for :func:`ingest_corpus`.

    Attributes:
        jobs: worker processes (``None`` auto-sizes to the machine,
            ``1`` forces the serial in-process path).
        flush_rows: embedding rows buffered in the parent before a
            shard flush + checkpoint; bounds peak parent memory
            (``flush_rows`` × hidden × 4 bytes of row data).
        batch_size: graphs per packed embedding forward pass inside
            each worker.
        level: extraction level for a fresh index (defaults to the
            model's level); appends always use the index's own level.
        top: top-module override applied to every file.
        use_cache: probe/populate the content-addressed graph cache; a
            fresh ingest also reuses the root's previous index rows
            only with the cache on.
        chunks: also store one row per subgraph chunk (fresh indexes
            only; appends follow the index's stored chunk config).
        chunk_config: :class:`~repro.index.chunks.ChunkConfig` override.
        progress: callable invoked with a stats dict (``done``,
            ``total``, ``failed``, ``rows``, ``rows_per_sec``,
            ``designs_per_sec``, ``eta_seconds``, ``elapsed_seconds``)
            every ``progress_every`` seconds and once at the end.
        progress_every: minimum seconds between progress callbacks.
        stop_after: checkpoint and pause after this many designs are
            processed *in this session* (``ingest_corpus`` then returns
            ``(None, report)`` with ``state: "paused"``); ``None`` runs
            to completion.  The pause/resume seam for bounded ingest
            windows — and for tests that prove resume correctness.
    """

    jobs: int = None
    flush_rows: int = 2048
    batch_size: int = 64
    level: str = None
    top: str = None
    use_cache: bool = True
    chunks: bool = True
    chunk_config: object = None
    progress: object = field(default=None, repr=False)
    progress_every: float = 2.0
    stop_after: int = None


# -- worker side --------------------------------------------------------------
#: Per-worker-process state, built once by the pool initializer so the
#: model is unpickled and the frontend constructed once per worker, not
#: once per file.
_WORKER = {}


def _init_ingest_worker(model, level, top, chunk_spec,
                        cache_dir, batch_size, reuse):
    frontend = get_frontend(level)
    _WORKER["frontend"] = frontend
    _WORKER["service"] = EmbeddingService(model, batch_size=batch_size)
    _WORKER["top"] = top
    _WORKER["chunks"] = (ChunkConfig.from_dict(chunk_spec)
                         if chunk_spec else None)
    _WORKER["cache"] = DFGCache(cache_dir) if cache_dir else None
    _WORKER["want_colors"] = chunk_spec is not None
    # Content key -> whether the reuse source also holds its WL colors.
    _WORKER["reuse"] = reuse


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def _hex_colors(colors):
    """WL color counts in the sidecar's JSON form ``{hex: count}``."""
    return {format(color, "x"): int(count)
            for color, count in sorted(colors.items())}


def _ingest_task(task):
    """Worker: full extract → chunk → embed pipeline for one file.

    Returns ``(seq, payload)`` where the payload is a small picklable
    dict — embedding rows as raw float32 bytes, never graphs — so the
    parent's memory footprint per in-flight result is a few kilobytes.
    Content the reuse source already holds is only loaded (so cache
    counts stay truthful) and flagged ``reuse``: the parent fills in its
    stored rows.  Any exception is captured as an error payload: one bad
    design can never take down the run.
    """
    seq, path = task
    payload = {"path": str(path),
               "stem": os.path.splitext(os.path.basename(str(path)))[0],
               "key": None}
    frontend = _WORKER["frontend"]
    try:
        with open(path) as handle:
            text = handle.read()
        cleaned = frontend.preprocess_text(text)
        payload["key"] = frontend.content_key(cleaned, top=_WORKER["top"])
        cache = _WORKER["cache"]
        graph = cache.load(payload["key"]) if cache is not None else None
        payload["cached"] = graph is not None
        if graph is None:
            graph = frontend.extract_preprocessed(cleaned,
                                                  top=_WORKER["top"])
            if cache is not None:
                cache.store(payload["key"], graph)
        payload.update(design=graph.name, nodes=len(graph),
                       edges=graph.num_edges)
        signed = _WORKER["reuse"].get(payload["key"])
        if signed is not None:
            payload["reuse"] = True
        else:
            chunk_opts = _WORKER["chunks"]
            chunks = extract_chunks(graph, chunk_opts) if chunk_opts else []
            service = _WORKER["service"]
            unit = unit_rows_f32(service.embed_graphs(
                chunk_parts(service.model.encoder, graph, chunks)))
            payload.update(rows=unit.tobytes(), n_rows=int(unit.shape[0]),
                           regions=[region for _, region in chunks])
        if _WORKER["want_colors"] and not signed:
            payload["colors"] = _hex_colors(wl_colors(graph))
        return seq, payload
    except Exception as exc:  # noqa: BLE001 - per-item isolation is the point
        payload["error"] = _describe(exc)
        return seq, payload


# -- durable writes -----------------------------------------------------------
def _append_sidecar(path, colors_by_name):
    """Append one durable JSONL line of ``{name: {hex: count}}``."""
    with open(path, "a") as handle:
        handle.write(json.dumps(colors_by_name, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def _read_sidecar(path):
    """Merged ``{name: Counter-dict}`` from the sidecar (later lines
    win — a re-done flush after a crash simply overwrites its names)."""
    from collections import Counter

    colors = {}
    if not Path(path).is_file():
        return colors
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                batch = json.loads(line)
            except json.JSONDecodeError:
                # A torn final line (crash mid-append): every complete
                # line before it is valid, and the items it described
                # are not in the checkpoint, so they will be re-done.
                continue
            colors.update(batch)
    return {name: Counter({int(color, 16): int(count)
                           for color, count in mapping.items()})
            for name, mapping in colors.items()}


def _input_digest(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path).encode("utf-8") + b"\n")
    return digest.hexdigest()


# -- the ingest driver --------------------------------------------------------
class _IngestState:
    """Mutable run state: checkpointed fields plus session counters."""

    def __init__(self, root, paths, checkpoint):
        self.root = Path(root)
        self.paths = paths
        self.mode = checkpoint["mode"]
        self.options = checkpoint["options"]
        self.chunk_spec = checkpoint["chunks"]
        self.hidden = checkpoint["hidden"]
        self.model_hash = checkpoint["model_hash"]
        self.input_digest = checkpoint["input_digest"]
        self.base = checkpoint["base"]
        self.completed = checkpoint["completed"]
        self.entries = checkpoint["entries"]
        self.rows = checkpoint["rows"]
        self.shards = checkpoint["shards"]
        self.taken = set(checkpoint["taken_base_names"])
        self.taken.update(e["name"] for e in self.entries)
        self.reused = checkpoint.get("reused", 0)
        self.flushes = 0

    @property
    def new_rows(self):
        return sum(int(spec["rows"]) for spec in self.shards)

    def checkpoint_payload(self):
        return {
            "version": CHECKPOINT_VERSION,
            "mode": self.mode,
            "model_hash": self.model_hash,
            "options": self.options,
            "chunks": self.chunk_spec,
            "hidden": self.hidden,
            "input_digest": self.input_digest,
            "base": self.base,
            "total": len(self.paths),
            "completed": self.completed,
            "entries": self.entries,
            "rows": self.rows,
            "shards": self.shards,
            "reused": self.reused,
            "taken_base_names": sorted(
                self.taken - {e["name"] for e in self.entries}),
        }

    def write_checkpoint(self):
        _write_json_durable(self.root / CHECKPOINT_NAME,
                            self.checkpoint_payload())
        self.flushes += 1

    def unique_name(self, stem):
        candidate, suffix = stem, 1
        while candidate in self.taken:
            suffix += 1
            candidate = f"{stem}#{suffix}"
        self.taken.add(candidate)
        return candidate


def _resume_error(root, why):
    return IndexStoreError(
        f"cannot resume the ingest checkpoint at {root}: {why}; "
        f"restart from scratch with fresh=True "
        f"('gnn4ip index ingest --fresh')")


def _load_checkpoint(root, paths, model_hash):
    """Validated checkpoint dict for a resume, or None when absent."""
    path = Path(root) / CHECKPOINT_NAME
    if not path.is_file():
        return None
    try:
        checkpoint = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _resume_error(root, f"checkpoint file is corrupt ({exc})")
    if checkpoint.get("version") != CHECKPOINT_VERSION:
        raise _resume_error(
            root, f"checkpoint version {checkpoint.get('version')!r} is "
                  f"not supported (expected {CHECKPOINT_VERSION})")
    if checkpoint["input_digest"] != _input_digest(paths):
        raise _resume_error(
            root, "the input file list changed since the checkpoint was "
                  "written (resume requires the identical source list)")
    if model_hash is not None and checkpoint["model_hash"] != model_hash:
        raise _resume_error(
            root, "the model changed since the checkpoint was written")
    # Every checkpointed shard must hold exactly the bytes the
    # checkpoint says it does — a short file here means external
    # truncation (the flush protocol itself never checkpoints a shard
    # before it is fully on disk).
    for spec in checkpoint["shards"]:
        shard = Path(root) / "shards" / spec["file"]
        expected = (int(spec["rows"]) * int(checkpoint["hidden"])
                    * SHARD_DTYPE.itemsize)
        actual = shard.stat().st_size if shard.is_file() else -1
        if actual != expected:
            raise _resume_error(
                root, f"checkpointed shard {spec['file']} is "
                      f"{'missing' if actual < 0 else f'{actual} bytes'}, "
                      f"expected {expected} ({spec['rows']} rows x "
                      f"{checkpoint['hidden']}): truncated or deleted "
                      f"outside the ingest protocol")
    return checkpoint


def _fresh_checkpoint(root, paths, model, service, config):
    """Checkpoint skeleton for a brand-new index (mode ``fresh``)."""
    model_level = getattr(model.encoder, "featurizer", None)
    model_level = model_level.level if model_level is not None else "rtl"
    frontend = get_frontend(config.level if config.level is not None
                            else model_level)
    if frontend.level != model_level:
        raise ModelError(
            f"cannot ingest a {frontend.level}-level index with a "
            f"{model_level}-level model (train with --level "
            f"{frontend.level} or change --level)")
    chunk_opts = ((config.chunk_config or ChunkConfig())
                  if config.chunks else None)
    return {
        "version": CHECKPOINT_VERSION,
        "mode": "fresh",
        "model_hash": service.fingerprint,
        "options": {
            "top": config.top,
            "level": frontend.level,
            # Trimming is no longer optional; the key stays so metas and
            # checkpoints keep their bytes and _reuse_source's options
            # equality still matches indexes written before.
            "do_trim": True,
            "schema": frontend.schema_fingerprint(),
            "use_cache": config.use_cache,
        },
        "chunks": chunk_opts.as_dict() if chunk_opts else None,
        "hidden": int(model.encoder.hidden),
        "input_digest": _input_digest(paths),
        "base": None,
        "total": len(paths),
        "completed": 0,
        "entries": [],
        "rows": [],
        "shards": [],
        "taken_base_names": [],
    }


def _append_checkpoint(root, paths, index, service, config):
    """Checkpoint skeleton for growing an existing index (``append``)."""
    if service.fingerprint != index.model_hash:
        raise IndexStoreError(
            "model fingerprint does not match the index (ingest with "
            "the index's own model, or rebuild with fresh=True)")
    meta = index.meta
    return {
        "version": CHECKPOINT_VERSION,
        "mode": "append",
        "model_hash": index.model_hash,
        "options": dict(meta["options"]),
        "chunks": meta.get("chunks"),
        "hidden": int(meta["store"]["hidden"]),
        "input_digest": _input_digest(paths),
        "base": {
            "entries": len(meta["entries"]),
            "rows": len(meta.get("rows") or []),
            "shards": len(meta["store"]["shards"]),
        },
        "total": len(paths),
        "completed": 0,
        "entries": [],
        "rows": [],
        "shards": [],
        "taken_base_names": [e["name"] for e in meta["entries"]],
    }


class _StoredRows:
    """An existing index's rows, chunk regions, and WL colors by content
    key: what embedding reuse copies instead of re-embedding.

    Rows are read through the index's shard memmaps; the files stay on
    disk until the new ``meta.json`` lands, and the copies go into this
    run's own shards.
    """

    def __init__(self, index, signed):
        self.index = index
        #: Design ordinal -> its chunk rows, ascending.
        self.chunks = {}
        chunk_ids = np.flatnonzero(index.row_map.chunk)
        for row, parent in zip(chunk_ids.tolist(),
                               index.row_map.parent[chunk_ids].tolist()):
            self.chunks.setdefault(parent, []).append(row)
        stored = load_signatures(index.root) if signed else None
        self.colors = ({} if stored is None or stored[1] != SIG_RADIUS
                       else stored[0])

    def keys(self):
        """``{content key: colors stored}`` for the worker initializer."""
        return {key: self.index.entry_for_key(key)["name"] in self.colors
                for key in self.index._key_ordinals()}

    def fill(self, payload):
        """Complete a worker's ``reuse`` payload from the stored index:
        the key's design row, then its chunk rows with their regions."""
        ordinal = self.index._key_ordinals()[payload["key"]]
        chunks = self.chunks.get(ordinal, [])
        rows = [int(self.index.row_map.design_row[ordinal])] + chunks
        payload.update(
            rows=np.stack([self.index.shards.row(r) for r in rows]).tobytes(),
            n_rows=len(rows),
            regions=[self.index.row_map.regions[r] for r in chunks])
        name = self.index.entry_for_key(payload["key"])["name"]
        if name in self.colors:
            payload["colors"] = _hex_colors(self.colors[name])


def _reuse_source(root, state, index=None):
    """The stored rows this run may copy instead of re-embedding, or None.

    An append reuses its base index (``index``, loaded from ``root``
    when not given) for content it already holds.  A fresh ingest reuses
    the root's previous index only when the cache is on and that index
    was built with the same model, options, and chunk config (same
    content + same config => the same rows).
    """
    if state.mode == "fresh" and not state.options.get("use_cache", True):
        return None
    if index is None:
        try:
            index = FingerprintIndex.load(root)
        except IndexStoreError:
            return None
    if (index.model_hash != state.model_hash
            or (state.mode == "fresh"
                and (index.meta["options"] != state.options
                     or index.meta.get("chunks") != state.chunk_spec))):
        return None
    return _StoredRows(index, signed=state.chunk_spec is not None)


def _entry_from_payload(state, payload):
    """Index entry dict (plus row specs) for one worker payload."""
    name = state.unique_name(payload["stem"])
    entry = {"name": name, "path": payload["path"], "key": payload["key"],
             "status": "error" if "error" in payload else "ok"}
    if "error" in payload:
        entry["error"] = payload["error"]
        return entry, []
    entry.update(design=payload["design"], nodes=payload["nodes"],
                 edges=payload["edges"], cached=payload["cached"])
    return entry, row_specs(name, payload["regions"])


class _FlushBuffer:
    """Bounded accumulator of embedding rows between shard flushes."""

    def __init__(self, hidden):
        self.hidden = hidden
        self.blobs = []
        self.rows = 0
        self.colors = {}

    def add(self, payload, name):
        if "error" in payload:
            return
        self.blobs.append(payload["rows"])
        self.rows += payload["n_rows"]
        if "colors" in payload:
            self.colors[name] = payload["colors"]

    def matrix(self):
        if not self.rows:
            return np.empty((0, self.hidden), dtype=SHARD_DTYPE)
        return np.frombuffer(b"".join(self.blobs),
                             dtype=SHARD_DTYPE).reshape(-1, self.hidden)

    def clear(self):
        self.blobs, self.rows, self.colors = [], 0, {}


def _flush(state, buffer):
    """Land one flush durably: shard, sidecar line, checkpoint — in
    that order, so the checkpoint only ever references durable bytes."""
    if buffer.rows:
        # next_shard_ordinal scans the shards directory, so base-index
        # shards and crash orphans are cleared automatically.
        ordinal = next_shard_ordinal(state.root, state.shards)
        state.shards.append(write_shard(state.root, ordinal,
                                        buffer.matrix(), fsync=True))
    if buffer.colors:
        _append_sidecar(state.root / SIG_SIDECAR_NAME, buffer.colors)
    buffer.clear()
    state.write_checkpoint()


def _progress_stats(state, session_done, session_rows, failed, started):
    elapsed = max(time.monotonic() - started, 1e-9)
    remaining = len(state.paths) - state.completed
    designs_per_sec = session_done / elapsed
    return {
        "done": state.completed,
        "total": len(state.paths),
        "failed": failed,
        "rows": state.new_rows,
        "rows_per_sec": session_rows / elapsed,
        "designs_per_sec": designs_per_sec,
        "eta_seconds": (remaining / designs_per_sec
                        if designs_per_sec > 0 else None),
        "elapsed_seconds": elapsed,
    }


def _compact_shards(state):
    """Merge this ingest's per-flush mini-shards into one shard.

    Pure byte concatenation of already-unit rows (no re-normalization,
    no re-embedding): the merged shard is bit-identical to the parts it
    replaces, so query results cannot change.  Old mini-shards become
    stale files, removed only after the new ``meta.json`` lands.
    """
    if len(state.shards) < COMPACT_MIN_SHARDS:
        return False
    store = ShardStore(state.root, state.hidden, state.shards)
    merged = store.matrix()
    ordinal = next_shard_ordinal(state.root, state.shards)
    state.shards = [write_shard(state.root, ordinal, merged, fsync=True)]
    return True


def _finalize(state, model, service, config, report):
    """Assemble and atomically publish the completed index."""
    root = state.root
    if state.mode == "append":
        meta = _read_meta(root)
        base = state.base
        if (meta.get("version") != FORMAT_VERSION
                or meta["model_hash"] != state.model_hash
                or len(meta["entries"]) < base["entries"]):
            raise _resume_error(
                root, "the base index changed while the ingest was "
                      "suspended (model or entry count mismatch)")
        # Idempotent re-finalize: a crash after meta landed but before
        # the checkpoint was removed re-runs this merge over the *base
        # prefix* of the already-merged meta, producing the same result.
        meta["entries"] = meta["entries"][:base["entries"]] + state.entries
        meta["rows"] = (meta.get("rows") or [])[:base["rows"]] + state.rows
        meta["store"]["shards"] = (meta["store"]["shards"][:base["shards"]]
                                   + state.shards)
    else:
        meta = {
            "version": FORMAT_VERSION,
            "model_hash": state.model_hash,
            "options": state.options,
            "store": {
                "dtype": "float32",
                "hidden": state.hidden,
                "shards": state.shards,
            },
            "entries": state.entries,
            "rows": state.rows,
            "chunks": state.chunk_spec,
        }

    # IVF: fit, grow in place, or none, as ann.ivf_plan decides.  A fit
    # runs in a background thread, overlapped with the signature merge
    # below.
    store = ShardStore(root, state.hidden, meta["store"]["shards"])
    ivf_box = {}

    def _fit_ivf():
        current, fitted = None, 0
        if state.mode == "append" and meta.get("ivf"):
            try:
                current = IVFIndex.load(_ivf_path(root, meta))
            except IndexStoreError:
                current = None
            fitted = meta["ivf"].get("fitted_rows", 0)
        plan = ivf_plan(store.rows, state.new_rows, current, fitted)
        if plan == "grow":
            current.add(ShardStore(root, state.hidden,
                                   state.shards).matrix())
            ivf_box["spec"] = (current, fitted)
        elif plan == "fit":
            ivf_box["spec"] = (IVFIndex.fit(store.matrix()), store.rows)

    fitter = threading.Thread(target=_fit_ivf, name="ingest-ivf-fit")
    fitter.start()

    # Signatures: merge the sidecar into signatures.json.  Fresh chunked
    # ingests sign everything; appends extend an existing signature file
    # (an unsigned base index stays unsigned — a partially-signed corpus
    # could never serve the structural channel).
    sidecar = _read_sidecar(root / SIG_SIDECAR_NAME)
    if state.mode == "append":
        stored = load_signatures(root)
        if stored is not None:
            colors, radius = stored
            colors.update(sidecar)
            write_signatures(root, colors, radius=radius)
    elif report["chunk_rows"]:
        write_signatures(root, sidecar, radius=SIG_RADIUS)
    else:
        (root / SIG_NAME).unlink(missing_ok=True)

    fitter.join()
    meta["ivf"] = (_save_ivf(root, *ivf_box["spec"]) if "spec" in ivf_box
                   else None)
    meta["build"] = report
    if state.mode == "fresh":
        save_model(model, root / MODEL_NAME)
    _write_json_durable(root / META_NAME, meta)
    # Only after the new meta is live may the ingest scaffolding and any
    # superseded files disappear.
    (root / CHECKPOINT_NAME).unlink(missing_ok=True)
    (root / SIG_SIDECAR_NAME).unlink(missing_ok=True)
    _clean_stale_files(root, meta)
    return FingerprintIndex.load(root)


def ingest_corpus(root, paths, model=None, config=None, resume=True,
                  fresh=False):
    """Streaming, resumable, multiprocess corpus ingest: the one writer
    of fingerprint indexes (``index build`` is ``fresh=True``, ``index
    add`` is an append with ``resume=False``).

    Modes (selected automatically):

    - **resume** — a checkpoint exists at ``root`` and ``resume`` is
      true: continue exactly where the previous run stopped (the input
      list and model must be unchanged).
    - **append** — no checkpoint, but a loadable index exists: stream
      the new designs in without touching existing files (the index
      keeps serving its old meta until the new one atomically lands).
      Content the index already holds reuses its stored rows.
    - **fresh** — otherwise (or whenever ``fresh=True``): build a new
      index from scratch, discarding any checkpoint or existing index.
      With ``use_cache`` on, content the root's previous index holds
      reuses its stored rows when that index was built with the same
      model, options, and chunk config.

    Args:
        root: index directory.
        paths: Verilog files to ingest (see :func:`walk_sources` for
            expanding a directory tree).
        model: a :class:`~repro.core.gnn4ip.GNN4IP`; required for fresh
            ingests, optional for append/resume (defaults to the
            index's own persisted model).
        config: an :class:`IngestConfig`.
        resume: pick up an existing checkpoint (refused loudly when its
            input list, model, or shard bytes do not match).
        fresh: ignore any checkpoint and existing index and start over.

    Returns:
        ``(index, report)``.  ``index`` is the loaded
        :class:`~repro.index.store.FingerprintIndex`, or ``None`` when
        the run paused at ``config.stop_after`` (the report then has
        ``ingest.state == "paused"``).
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    config = config if config is not None else IngestConfig()
    paths = [str(p) for p in paths]
    if not paths:
        raise IndexStoreError("no input files to ingest")

    if fresh:
        (root / CHECKPOINT_NAME).unlink(missing_ok=True)
        (root / SIG_SIDECAR_NAME).unlink(missing_ok=True)

    # -- mode selection + model resolution ------------------------------------
    checkpoint = None
    if resume and not fresh:
        checkpoint = _load_checkpoint(root, paths, None)
    base_index = None
    if checkpoint is None:
        if not fresh and (root / META_NAME).is_file():
            base_index = FingerprintIndex.load(root)
        if model is None:
            if base_index is not None:
                model = base_index.model()
            else:
                raise ModelError("a fresh ingest needs a model "
                                 "(pass model=... or --model)")
        service = EmbeddingService(model, batch_size=config.batch_size)
        if base_index is not None:
            checkpoint = _append_checkpoint(root, paths, base_index,
                                            service, config)
        else:
            checkpoint = _fresh_checkpoint(root, paths, model, service,
                                           config)
        resumed = False
    else:
        if model is None:
            model_path = root / MODEL_NAME
            if not model_path.is_file():
                raise _resume_error(root, "model.npz is missing")
            model = load_model(model_path)
        service = EmbeddingService(model, batch_size=config.batch_size)
        if service.fingerprint != checkpoint["model_hash"]:
            raise _resume_error(
                root, "the model changed since the checkpoint was written")
        resumed = True

    state = _IngestState(root, paths, checkpoint)
    # The running code's feature schema must match the one the rows
    # already on disk were extracted under, or old and new rows would be
    # silently incomparable.
    check_frontend = get_frontend(state.options["level"])
    if state.options.get("schema") not in (None,
                                           check_frontend
                                           .schema_fingerprint()):
        raise _resume_error(
            root, "the feature schema changed since the checkpoint was "
                  "written (stored rows would not be comparable)")
    # The model must be durable before the first checkpoint: a resumed
    # fresh ingest reloads it from the index root.
    if state.mode == "fresh" and not resumed:
        save_model(model, root / MODEL_NAME)

    remaining = paths[state.completed:]
    cache_dir = (str(root / CACHE_DIR)
                 if state.options.get("use_cache", True) else None)
    reuse = _reuse_source(root, state, base_index)
    init_args = (model, state.options["level"], state.options["top"],
                 state.chunk_spec, cache_dir, config.batch_size,
                 reuse.keys() if reuse else {})

    jobs = (config.jobs if config.jobs is not None
            else default_jobs(len(remaining)))
    buffer = _FlushBuffer(state.hidden)
    started = time.monotonic()
    session_done = session_rows = failed_this_run = 0
    last_progress = started
    paused = False

    def _emit_progress(force=False):
        nonlocal last_progress
        if config.progress is None:
            return
        now = time.monotonic()
        if force or now - last_progress >= config.progress_every:
            last_progress = now
            config.progress(_progress_stats(state, session_done,
                                            session_rows,
                                            failed_this_run, started))

    def _consume(payload):
        nonlocal session_done, session_rows, failed_this_run
        if payload.pop("reuse", False):
            reuse.fill(payload)
            state.reused += 1
        entry, row_specs = _entry_from_payload(state, payload)
        state.entries.append(entry)
        state.rows.extend(row_specs)
        buffer.add(payload, entry["name"])
        state.completed += 1
        session_done += 1
        session_rows += payload.get("n_rows", 0)
        if entry["status"] == "error":
            failed_this_run += 1
        if buffer.rows >= config.flush_rows:
            _flush(state, buffer)
        _emit_progress()

    tasks = [(state.completed + i, path)
             for i, path in enumerate(remaining)]
    if config.stop_after is not None:
        tasks = tasks[:config.stop_after]
        paused = len(tasks) < len(remaining)

    pool = None
    try:
        if jobs > 1 and len(tasks) > 1:
            chunksize = max(1, min(16, len(tasks) // (jobs * 4) or 1))
            pool = multiprocessing.Pool(processes=jobs,
                                        initializer=_init_ingest_worker,
                                        initargs=init_args)
            for _seq, payload in pool.imap(_ingest_task, tasks,
                                           chunksize=chunksize):
                _consume(payload)
        else:
            jobs = 1
            _init_ingest_worker(*init_args)
            for task in tasks:
                _consume(_ingest_task(task)[1])
    except KeyboardInterrupt:
        # Land what is already complete before propagating: the next
        # run resumes from this flush instead of from the last one.
        _flush(state, buffer)
        raise
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()

    _flush(state, buffer)
    # Drop the reuse source's shard maps: finalize may remove the files.
    reuse = None
    elapsed = time.monotonic() - started
    compacted = False
    if not paused:
        compacted = _compact_shards(state)

    ok_entries = [e for e in state.entries if e["status"] == "ok"]
    # Each embedded entry stores one design row; the rest are chunks.
    chunk_rows = len(state.rows) - len(ok_entries)
    cached = sum(1 for e in ok_entries if e.get("cached"))
    # Only what ingest measures: cache outcomes of the embedded entries
    # (a worker's cache counters never reach the parent).
    report = {
        "files": len(state.entries),
        "embedded": len(ok_entries),
        "embedded_fresh": len(ok_entries) - state.reused,
        "embeddings_reused": state.reused,
        "failures": len(state.entries) - len(ok_entries),
        "chunk_rows": chunk_rows,
        "cache": ({"hits": cached, "misses": len(ok_entries) - cached}
                  if state.options.get("use_cache", True) else None),
        "jobs": jobs,
        "ingest": {
            "state": "paused" if paused else "complete",
            "resumed": resumed,
            "ingest_mode": state.mode,
            "completed": state.completed,
            "total": len(paths),
            "session_designs": session_done,
            "session_rows": session_rows,
            "flushes": state.flushes,
            "flush_rows": config.flush_rows,
            "shards_written": len(state.shards),
            "compacted": compacted,
            "wall_seconds": elapsed,
            "designs_per_sec": session_done / max(elapsed, 1e-9),
            "rows_per_sec": session_rows / max(elapsed, 1e-9),
        },
    }
    _emit_progress(force=True)
    if paused:
        return None, report
    index = _finalize(state, model, service, config, report)
    return index, report
