"""Corpus-scale fingerprint index.

Treats DFG extraction as a cacheable, parallelizable build step and
embedding as a batched query service: ``ingest_corpus`` streams a corpus
through worker processes (extract through a content-addressed DFG cache,
chunk, embed in packed batches) into memory-mapped float32 shards that
open without decompressing or copying; a fresh ingest builds an index,
an append grows it in place, and content an index already holds reuses
its stored rows.  The
:class:`~repro.index.engine.QueryEngine` answers whole batches of top-k
nearest-design queries per BLAS pass, optionally pre-filtered by an IVF
coarse quantizer (:mod:`repro.index.ann`) that probes only the nearest
clusters and re-ranks candidates exactly.
"""

from repro.index.ann import IVFIndex
from repro.index.cache import CacheStats, DFGCache, content_key
from repro.index.chunks import ChunkConfig, extract_chunks
from repro.index.engine import QueryEngine
from repro.index.ingest import (
    IngestConfig,
    default_jobs,
    ingest_corpus,
    walk_sources,
)
from repro.index.service import EmbeddingService, model_fingerprint
from repro.index.shards import ShardStore
from repro.index.store import FingerprintIndex, migrate_index, migrate_v2
from repro.index.wlsig import SignatureScorer, wl_colors

__all__ = [
    "CacheStats", "DFGCache", "content_key",
    "ChunkConfig", "extract_chunks",
    "default_jobs",
    "EmbeddingService", "model_fingerprint",
    "FingerprintIndex", "IngestConfig", "QueryEngine",
    "IVFIndex", "ShardStore", "SignatureScorer",
    "ingest_corpus", "migrate_index", "migrate_v2",
    "walk_sources", "wl_colors",
]
