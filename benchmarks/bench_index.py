"""Fingerprint-index benchmark: cache leverage, batched embedding, training.

Two scaling claims are measured and enforced, and one training figure is
pinned:

- **Cold vs warm indexing** — rebuilding an unchanged corpus (a fresh
  ingest, what ``index build`` runs) must be at least 2x faster than the
  first build, because every DFG comes out of the content-addressed
  cache instead of the Verilog front-end and every stored row is reused
  instead of re-embedded.
- **Batched vs per-graph embedding** — embedding the corpus through the
  block-diagonal batched forward pass must beat one ``embed`` call
  (a batch of one) per graph.
- **Training epoch** — the trainer's epoch time is recorded, and three
  seeded dropout-free epochs must reproduce a pinned loss trajectory.

Results are also written as JSON (``benchmarks/out/bench_index.json`` and
``benchmarks/out/bench_train.json``) so future PRs can track them.
"""

import json
import time

import numpy as np
import pytest

from conftest import OUT_DIR, report
from repro.core import GNN4IP, Trainer, build_pair_dataset
from repro.designs import materialize_corpus, rtl_records
from repro.index import EmbeddingService, IngestConfig, ingest_corpus
from repro.ir.frontends import get_frontend
from repro.nn import batched_forward, pack_prepared

#: Small but non-trivial slice of the generated corpus; extraction cost
#: dominates indexing, which is exactly what the cache is for.
FAMILIES = ("adder8", "addsub8", "cmp8", "mux8", "barrel8", "counter8",
            "lfsr8", "crc8")
INSTANCES = 4


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory, config):
    root = tmp_path_factory.mktemp("index_corpus")
    return materialize_corpus(root, families=list(FAMILIES),
                              instances_per_design=INSTANCES,
                              seed=config.seed)


def _build(root, corpus_files, model, jobs=1):
    return ingest_corpus(root, corpus_files, model, IngestConfig(jobs=jobs),
                         fresh=True)


def _write_json(payload):
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "bench_index.json", "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def bench_index_cold_vs_warm(benchmark, corpus_files, tmp_path_factory,
                             config):
    """Warm rebuilds must be >= 2x faster than the cold build."""
    root = tmp_path_factory.mktemp("index_store")
    model = GNN4IP(seed=config.seed)

    start = time.perf_counter()
    cold_index, cold_report = _build(root, corpus_files, model)
    cold = time.perf_counter() - start
    # Content repeated within the corpus is a cache hit on its second
    # occurrence, so a cold build misses once per distinct content key.
    distinct = len({e["key"] for e in cold_index.entries})

    start = time.perf_counter()
    _, warm_report = _build(root, corpus_files, model)
    warm = time.perf_counter() - start

    benchmark(_build, root, corpus_files, model)

    assert cold_report["cache"]["misses"] == distinct
    assert warm_report["cache"]["misses"] == 0
    speedup = cold / warm
    lines = [f"corpus: {len(corpus_files)} files, "
             f"{cold_report['embedded']} embedded",
             f"cold build: {cold * 1000:8.1f} ms "
             f"({cold_report['cache']['misses']} cache misses, "
             f"{distinct} distinct designs)",
             f"warm build: {warm * 1000:8.1f} ms "
             f"({warm_report['cache']['hits']} cache hits, "
             f"{warm_report['embeddings_reused']} embeddings reused)",
             f"speedup:    {speedup:8.2f}x (required: >= 2x)"]
    report("index_cold_vs_warm", "\n".join(lines))

    payload = {"corpus_files": len(corpus_files),
               "cold_seconds": cold, "warm_seconds": warm,
               "warm_speedup": speedup}
    existing = {}
    out_path = OUT_DIR / "bench_index.json"
    if out_path.exists():
        existing = json.loads(out_path.read_text())
    existing.update(payload)
    _write_json(existing)
    assert speedup >= 2.0, \
        f"warm rebuild only {speedup:.2f}x faster than cold"


def bench_index_batched_embedding(benchmark, corpus_files, config):
    """Batched embedding must beat one-at-a-time embedding."""
    frontend = get_frontend("rtl")
    graphs = [frontend.extract_file(path) for path in corpus_files]
    model = GNN4IP(seed=config.seed)
    service = EmbeddingService(model)

    def timed(fn, repeats=5):
        fn()  # warm numpy/scipy code paths
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - start) / repeats

    # End-to-end: both sides start from raw DFGs, so both pay prepare()
    # (features + adjacency normalization) inside the timed region.
    single_s = timed(lambda: [model.encoder.embed(g) for g in graphs])
    batched_s = timed(lambda: service.embed_graphs(graphs))

    # Forward-pass only: both sides get prepared graphs, isolating the
    # block-diagonal batching win from the shared prepare() cost.
    prepared = [model.encoder.prepare(g) for g in graphs]
    single_fwd_s = timed(
        lambda: [batched_forward(model.encoder, pack_prepared([p]))
                 for p in prepared])
    batched_fwd_s = timed(lambda: service.embed_graphs(prepared))
    benchmark(service.embed_graphs, prepared)

    single_eps = len(graphs) / single_s
    batched_eps = len(graphs) / batched_s
    lines = [f"graphs: {len(graphs)}",
             f"end-to-end one-at-a-time: {single_s * 1000:8.1f} ms "
             f"({single_eps:8.0f} graphs/s)",
             f"end-to-end batched:       {batched_s * 1000:8.1f} ms "
             f"({batched_eps:8.0f} graphs/s)",
             f"end-to-end speedup:       {single_s / batched_s:8.2f}x",
             f"forward-only one-at-a-time: {single_fwd_s * 1000:6.1f} ms",
             f"forward-only batched:       {batched_fwd_s * 1000:6.1f} ms",
             f"forward-only speedup:     "
             f"{single_fwd_s / batched_fwd_s:8.2f}x"]
    report("index_batched_embedding", "\n".join(lines))

    existing = {}
    out_path = OUT_DIR / "bench_index.json"
    if out_path.exists():
        existing = json.loads(out_path.read_text())
    existing.update({"graphs": len(graphs),
                     "per_graph_seconds": single_s,
                     "batched_seconds": batched_s,
                     "per_graph_eps": single_eps,
                     "batched_eps": batched_eps,
                     "batched_speedup": single_s / batched_s,
                     "forward_per_graph_seconds": single_fwd_s,
                     "forward_batched_seconds": batched_fwd_s,
                     "forward_batched_speedup":
                         single_fwd_s / batched_fwd_s})
    _write_json(existing)
    assert batched_s < single_s, \
        "batched embedding slower than per-graph embedding"


#: Epoch losses of three seeded dropout-free epochs (1-3, after a warm-up
#: epoch 0) on this bench's corpus, measured when training went through a
#: batched autograd forward; the one forward and its hand-derived backward
#: must stay on that trajectory.
PINNED_LOSSES = [0.58542040008119, 0.6139065246421932, 0.6354580427121329]


def bench_train_epoch(benchmark, config):
    """Time a training epoch; its seeded losses must match the pinned ones."""
    records = rtl_records(families=list(FAMILIES),
                          instances_per_design=INSTANCES,
                          seed=config.seed)
    dataset = build_pair_dataset(records, seed=config.seed)

    trainer = Trainer(GNN4IP(seed=config.seed, dropout=0.0),
                      seed=config.seed)
    trainer.train_epoch(dataset, 0)  # warm caches + prepare()
    losses = []
    start = time.perf_counter()
    for epoch in range(1, len(PINNED_LOSSES) + 1):
        loss, _ = trainer.train_epoch(dataset, epoch)
        losses.append(loss)
    epoch_s = (time.perf_counter() - start) / len(PINNED_LOSSES)
    benchmark(trainer.train_epoch, dataset, len(PINNED_LOSSES) + 1)

    pairs = len(dataset.train_pairs)
    lines = [f"graphs: {len(records)}, train pairs: {pairs}",
             f"epoch: {epoch_s * 1000:8.1f} ms ({pairs / epoch_s:8.0f} pairs/s)",
             "losses: " + ", ".join(f"{loss:.15f}" for loss in losses)]
    report("train_epoch", "\n".join(lines))

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "bench_train.json", "w") as handle:
        json.dump({"graphs": len(records), "train_pairs": pairs,
                   "epoch_seconds": epoch_s, "losses": losses},
                  handle, indent=2, sort_keys=True)

    np.testing.assert_allclose(losses, PINNED_LOSSES, rtol=1e-12,
                               atol=1e-12)


def bench_index_parallel_extraction(corpus_files, tmp_path_factory,
                                    config):
    """Parallel and serial ingest agree entry-for-entry and row-for-row."""
    model = GNN4IP(seed=config.seed)
    roots = tmp_path_factory.mktemp("parallel_ingest")
    serial, _ = _build(roots / "serial", corpus_files, model, jobs=1)
    parallel, _ = _build(roots / "parallel", corpus_files, model, jobs=2)
    mismatches = sum(
        1 for a, b in zip(serial.entries, parallel.entries)
        if (a["key"], a.get("nodes"), a.get("edges"))
        != (b["key"], b.get("nodes"), b.get("edges")))
    same_rows = np.array_equal(serial.matrix, parallel.matrix)
    lines = [f"files: {len(corpus_files)}",
             f"serial ok:   {len(serial)}",
             f"parallel ok: {len(parallel)}",
             f"mismatches:  {mismatches}",
             f"rows equal:  {same_rows}"]
    report("index_parallel_extraction", "\n".join(lines))
    assert mismatches == 0 and same_rows
