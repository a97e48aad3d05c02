"""Scatter-gather serving: partitioned partials must merge bit-identically.

Three layers, matching the serving stack:

- engine: ``partial_many``/``partial_groups`` per shard partition,
  merged with ``merge_many``/``merge_groups``, must equal the
  single-process ``query_many``/``query_groups`` result *exactly* —
  dataclass equality, every float bit included.  Duplicate stored rows
  force real score ties across partition boundaries, so these tests
  also pin the deterministic tie orders.
- worker pool: real spawned processes over a real on-disk index,
  including crash-mid-query detection and respawn.
- HTTP: an N-worker ``ReproServer`` must answer byte-identically to an
  in-process one, plus the ops surface (stats histograms, 429
  backpressure with ``Retry-After``, graceful drain, keep-alive reuse).
"""

import asyncio
import json
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import Corpus, Detector, IngestConfig, Session
from repro.client import AsyncClient, ServerError
from repro.core import GNN4IP
from repro.errors import IndexStoreError
from repro.index.ann import IVFIndex, ivf_filename
from repro.index.engine import QueryEngine
from repro.index.shards import assign_partitions, unit_rows_f32, write_shard
from repro.index.store import FORMAT_VERSION
from repro.server import ReproServer
from repro.server.batcher import BacklogFull, MicroBatcher
from repro.server.metrics import Histogram
from repro.server.protocol import ProtocolError, recv_msg, send_msg
from repro.server.worker import WorkerPool, WorkerPoolError

SEED = 11
HIDDEN = 12
N = 240
SHARDS = 3

ADDER = """
module adder(input [3:0] a, input [3:0] b, output [4:0] s);
  assign s = a + b;
endmodule
"""

MUX = """
module mux(input [7:0] d, input [2:0] sel, output q);
  assign q = d[sel];
endmodule
"""


# -- synthetic fixtures ------------------------------------------------------

def _corpus_rows():
    rng = np.random.default_rng(SEED)
    rows = unit_rows_f32(rng.standard_normal((N, HIDDEN)))
    # Bit-identical duplicates in *different* shards: real exact-score
    # ties that cross partition boundaries.
    rows[5] = rows[N // 2 + 5]
    rows[6] = rows[N - 7]
    return rows


def _write_synthetic_index(root, rows):
    per = len(rows) // SHARDS
    specs = []
    for i in range(SHARDS):
        stop = len(rows) if i == SHARDS - 1 else (i + 1) * per
        specs.append(write_shard(root, i, rows[i * per:stop]))
    entries = [{"name": f"d{i:05d}", "path": f"d{i:05d}.v",
                "key": f"{i:064d}", "design": f"fam{i}", "status": "ok"}
               for i in range(len(rows))]
    table = [{"kind": "design", "name": f"d{i:05d}"}
             for i in range(len(rows))]
    ivf = IVFIndex.fit(rows, n_clusters=12, seed=SEED)
    ivf.save(root / ivf_filename(0))
    meta = {"version": FORMAT_VERSION, "model_hash": "test",
            "options": {"top": None, "level": "rtl", "use_cache": False},
            "store": {"dtype": "float32", "hidden": HIDDEN,
                      "shards": specs},
            "entries": entries, "rows": table,
            "ivf": {"file": ivf_filename(0), "clusters": 12}}
    (root / "meta.json").write_text(json.dumps(meta))


@pytest.fixture(scope="module")
def disk_index(tmp_path_factory):
    """(index_root, rows) — a synthetic on-disk v4 index, 3 shards + IVF."""
    root = tmp_path_factory.mktemp("scatter_idx")
    rows = _corpus_rows()
    _write_synthetic_index(root, rows)
    return root, rows


@pytest.fixture(scope="module")
def queries(disk_index):
    _, rows = disk_index
    rng = np.random.default_rng(SEED + 1)
    picks = rng.choice(N, size=7, replace=False)
    out = unit_rows_f32(rows[picks]
                        + 0.05 * rng.standard_normal((7, HIDDEN)))
    out[0] = rows[5]  # exact hit onto a duplicated (tied) stored row
    return out


@pytest.fixture(scope="module")
def pool(disk_index):
    """One spawned 2-worker pool shared by the pool-level tests."""
    root, _ = disk_index
    with WorkerPool(root, 2) as pool:
        yield pool


@pytest.fixture(scope="module")
def rtl_session(tmp_path_factory):
    """A real (model-backed, signature-bearing) 2-design corpus."""
    src = tmp_path_factory.mktemp("scatter_rtl")
    (src / "adder.v").write_text(ADDER)
    (src / "mux.v").write_text(MUX)
    detector = Detector.from_model(GNN4IP(seed=0))
    corpus, _ = Corpus.build(tmp_path_factory.mktemp("scatter_rtl_idx")
                             / "idx", sorted(src.glob("*.v")), detector,
                             IngestConfig(jobs=1))
    return Session(detector=detector, corpus=corpus)


# -- partition assignment ----------------------------------------------------

class TestAssignPartitions:
    SPECS = [{"rows": r} for r in (100, 50, 60, 10, 30)]

    def test_disjoint_cover_and_balance(self):
        parts = assign_partitions(self.SPECS, 2)
        flat = sorted(o for part in parts for o in part)
        assert flat == list(range(len(self.SPECS)))
        loads = [sum(self.SPECS[o]["rows"] for o in part)
                 for part in parts]
        # LPT keeps the spread within one largest shard.
        assert max(loads) - min(loads) <= 100
        assert all(part == sorted(part) for part in parts)

    def test_deterministic(self):
        assert assign_partitions(self.SPECS, 3) == \
            assign_partitions(self.SPECS, 3)

    def test_surplus_partitions_empty(self):
        parts = assign_partitions(self.SPECS, 8)
        assert sum(1 for part in parts if not part) == 3
        flat = sorted(o for part in parts for o in part)
        assert flat == list(range(len(self.SPECS)))

    def test_bad_count_raises(self):
        with pytest.raises(IndexStoreError):
            assign_partitions(self.SPECS, 0)


# -- engine partials ---------------------------------------------------------

def _blocks(rows):
    per = len(rows) // SHARDS
    return [rows[i * per:(len(rows) if i == SHARDS - 1 else (i + 1) * per)]
            for i in range(SHARDS)]


def _plain_entries(n):
    return [{"name": f"d{i:05d}", "path": f"d{i:05d}.v",
             "design": f"fam{i}", "status": "ok"} for i in range(n)]


PARTITIONS = ([[0, 2], [1]], [[0], [1], [2]], [[0, 1, 2], []])


class TestEnginePartials:
    @pytest.fixture(scope="class")
    def engine(self):
        rows = _corpus_rows()
        return QueryEngine(_blocks(rows), _plain_entries(N),
                           ivf=IVFIndex.fit(rows, n_clusters=12,
                                            seed=SEED))

    @pytest.mark.parametrize("kwargs", [{"exact": True}, {"nprobe": 4},
                                        {}])
    @pytest.mark.parametrize("shard_sets", PARTITIONS)
    def test_plain_merge_bitident(self, engine, queries, kwargs,
                                  shard_sets):
        direct = engine.query_many(queries, k=5, **kwargs)
        partials = [engine.partial_many(queries, k=5, shards=s, **kwargs)
                    for s in shard_sets]
        assert engine.merge_many(partials, k=5) == direct

    def test_single_query_padding_path(self, engine, queries):
        direct = engine.query_many(queries[:1], k=5, exact=True)
        partials = [engine.partial_many(queries[:1], k=5, exact=True,
                                        shards=s) for s in [[0, 1], [2]]]
        assert engine.merge_many(partials, k=5) == direct

    def test_k_exceeds_rows(self, engine, queries):
        direct = engine.query_many(queries[:2], k=N + 10, exact=True)
        partials = [engine.partial_many(queries[:2], k=N + 10, exact=True,
                                        shards=s) for s in [[0], [1, 2]]]
        assert engine.merge_many(partials, k=N + 10) == direct

    @pytest.mark.parametrize("kwargs", [{"exact": True}, {"nprobe": 4}])
    def test_grouped_multipart_bitident(self, engine, queries, kwargs):
        # Two suspects of 3 + 4 parts, with chunk-style regions.
        offsets = [0, 3, 7]
        regions = [None, {"kind": "window", "start": 0}, {"kind": "cone"},
                   None, {"kind": "window", "start": 1},
                   {"kind": "region"}, {"kind": "cone"}]
        direct = engine.query_groups(queries, offsets, regions, k=4,
                                     **kwargs)
        partials = [engine.partial_groups(queries, offsets, regions, k=4,
                                          shards=s, **kwargs)
                    for s in [[1], [0, 2]]]
        assert engine.merge_groups(partials, offsets, regions, k=4) == \
            direct

    def test_fused_struct_joins_at_merge(self, engine, queries):
        """Workers never see struct scores; merge applies them — and the
        result still matches the single-process fused call exactly."""
        offsets = [0, 2, 4, 5]
        regions = [None, {"kind": "cone"}, None, {"kind": "cone"}, None]
        rng = np.random.default_rng(SEED + 3)
        struct = [rng.random(N), None, rng.random(N)]
        fused = [s is not None for s in struct]
        direct = engine.query_groups(queries[:5], offsets, regions, k=4,
                                     struct=struct)
        partials = [engine.partial_groups(queries[:5], offsets, regions,
                                          k=4, fused=fused, shards=s)
                    for s in [[0, 2], [1]]]
        assert engine.merge_groups(partials, offsets, regions, k=4,
                                   struct=struct) == direct

    def test_empty_partition_is_noop(self, engine, queries):
        direct = engine.query_many(queries, k=3, exact=True)
        partials = [engine.partial_many(queries, k=3, exact=True,
                                        shards=s)
                    for s in [[0, 1, 2], []]]
        assert engine.merge_many(partials, k=3) == direct

    def test_bad_shard_subset_raises(self, engine, queries):
        with pytest.raises(IndexStoreError):
            engine.partial_many(queries, shards=[7])


class TestBlockedTopK:
    """Rows long enough for the block prefilter of the top-k routine.

    At 6144 rows a full-corpus selection prefilters by block maxima for
    k <= 2 (``2 * (k + 1) * 1024 <= n``) and partitions directly above
    that, while single-shard partitions (2048 rows) never prefilter —
    so merges compare the two branches against each other, with exact
    ties spread across blocks and shards.
    """

    ROWS = 6144
    TRIPLE = (5, 1030, 4100)  # blocks 0/1/4, shards 0/0/2

    @pytest.fixture(scope="class")
    def engine(self):
        rng = np.random.default_rng(SEED + 7)
        rows = unit_rows_f32(rng.standard_normal((self.ROWS, HIDDEN)))
        for dup in self.TRIPLE[1:]:
            rows[dup] = rows[self.TRIPLE[0]]
        rows[3000] = rows[2047]  # adjacent shards, different blocks
        return QueryEngine(_blocks(rows), _plain_entries(self.ROWS))

    @pytest.fixture(scope="class")
    def block_queries(self, engine):
        flat = np.concatenate([np.asarray(b) for b in engine._blocks])
        rng = np.random.default_rng(SEED + 8)
        out = unit_rows_f32(flat[rng.choice(self.ROWS, size=6)]
                            + 0.05 * rng.standard_normal((6, HIDDEN)))
        out[0] = flat[self.TRIPLE[0]]  # three-way tie at rank 1
        out[1] = flat[2047]
        return out

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    @pytest.mark.parametrize("shard_sets", PARTITIONS)
    def test_merge_bitident_across_prefilter_switch(
            self, engine, block_queries, k, shard_sets):
        direct = engine.query_many(block_queries, k=k, exact=True)
        partials = [engine.partial_many(block_queries, k=k, exact=True,
                                        shards=s) for s in shard_sets]
        assert all(len(p.rows) == min(k, sum(len(engine._blocks[o])
                                             for o in s))
                   for s, part in zip(shard_sets, partials) for p in part)
        assert engine.merge_many(partials, k=k) == direct
        singles = [engine.query_many(q, k=k, exact=True)[0]
                   for q in block_queries]
        assert singles == direct

    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_matches_full_sort(self, engine, block_queries, k):
        """Against a full ``(-score, row id)`` sort of the same scores."""
        scores = np.concatenate([block_queries @ np.asarray(b).T
                                 for b in engine._blocks], axis=1)
        ids = np.arange(self.ROWS)
        direct = engine.query_many(block_queries, k=k, exact=True)
        for row, hits in zip(scores, direct):
            expected = np.lexsort((ids, -row))[:k]
            assert [h.name for h in hits] == \
                [f"d{i:05d}" for i in expected]
            assert [h.score for h in hits] == \
                [float(row[i]) for i in expected]
        assert [h.name for h in direct[0][:3]] == \
            [f"d{i:05d}" for i in self.TRIPLE][:k]


class TestChunkedEnginePartials:
    """Chunk rows aggregate to parents inside each partition; the merge
    must reduce per-partition parent partials to the global answer."""

    @pytest.fixture(scope="class")
    def engine(self):
        rng = np.random.default_rng(SEED + 4)
        parents = 30
        entries, vecs = [], []
        for p in range(parents):
            base = rng.standard_normal(HIDDEN)
            entries.append({"name": f"p{p:03d}", "path": f"p{p:03d}.v",
                            "design": f"fam{p}", "status": "ok",
                            "parent_id": p})
            vecs.append(base)
            for c in range(p % 4):  # 0-3 chunks per design
                entries.append({"kind": "chunk",
                                "name": f"p{p:03d}#chunk{c}",
                                "path": f"p{p:03d}.v",
                                "design": f"fam{p}", "parent": f"p{p:03d}",
                                "parent_id": p,
                                "region": {"kind": "cone", "n": c}})
                vecs.append(base + 0.3 * rng.standard_normal(HIDDEN))
        rows = unit_rows_f32(np.array(vecs))
        # Duplicate a chunk row across shard boundary for ties.
        rows[1] = rows[len(rows) - 2]
        return QueryEngine(_blocks(rows), entries,
                           ivf=IVFIndex.fit(rows, n_clusters=8,
                                            seed=SEED))

    @pytest.fixture(scope="class")
    def chunk_queries(self, engine):
        rng = np.random.default_rng(SEED + 5)
        flat = np.concatenate([np.asarray(b) for b in engine._blocks])
        picks = rng.choice(len(flat), size=5, replace=False)
        return unit_rows_f32(flat[picks]
                             + 0.05 * rng.standard_normal((5, HIDDEN)))

    @pytest.mark.parametrize("kwargs", [{"exact": True}, {"nprobe": 3},
                                        {}])
    @pytest.mark.parametrize("shard_sets", PARTITIONS)
    def test_chunked_query_many_bitident(self, engine, chunk_queries,
                                         kwargs, shard_sets):
        direct = engine.query_many(chunk_queries, k=4, **kwargs)
        partials = [engine.partial_many(chunk_queries, k=4, shards=s,
                                        **kwargs) for s in shard_sets]
        assert engine.merge_many(partials, k=4) == direct

    def test_chunked_fused_groups_bitident(self, engine, chunk_queries):
        offsets = [0, 3, 5]
        regions = [None, {"kind": "cone", "n": 0}, {"kind": "cone", "n": 1},
                   None, {"kind": "cone", "n": 0}]
        rng = np.random.default_rng(SEED + 6)
        struct = [rng.random(engine.n_parents), None]
        direct = engine.query_groups(chunk_queries, offsets, regions, k=4,
                                     struct=struct)
        partials = [engine.partial_groups(chunk_queries, offsets, regions,
                                          k=4,
                                          fused=[True, False], shards=s)
                    for s in [[0], [1], [2]]]
        assert engine.merge_groups(partials, offsets, regions, k=4,
                                   struct=struct) == direct


# -- facade partition plumbing ----------------------------------------------

class TestCorpusPartition:
    def test_partition_rows_sum_to_total(self, disk_index):
        root, _ = disk_index
        opened = [Corpus.open(root, partition=(i, 2)) for i in range(2)]
        assert sum(c.partition_rows for c in opened) == N
        ordinals = sorted(o for c in opened for o in c.partition)
        assert ordinals == list(range(SHARDS))

    def test_out_of_range_partition(self, disk_index):
        root, _ = disk_index
        with pytest.raises(IndexStoreError):
            Corpus.open(root, partition=(2, 2))

    def test_scoped_partials_merge_to_full_answer(self, disk_index,
                                                  queries):
        root, _ = disk_index
        whole = Corpus.open(root)
        offsets = list(range(len(queries) + 1))
        direct = whole.index.query_parts(queries, offsets, None, k=5,
                                         exact=True)
        partials = [
            Corpus.open(root, partition=(i, 2)).partial_parts(
                queries, offsets, None, k=5, exact=True)
            for i in range(2)]
        assert whole.merge_parts(partials, offsets, None, k=5) == direct

    def test_partition_holds_one_copy_of_its_rows(self, disk_index,
                                                  queries):
        """An IVF pass over a partitioned open makes the engine resident
        in exactly its own partition's rows (``rows x hidden`` float32)."""
        root, _ = disk_index
        for i in range(2):
            corpus = Corpus.open(root, partition=(i, 2))
            corpus.partial_parts(queries, list(range(len(queries) + 1)),
                                 None, k=5)
            engine = corpus.index.engine
            assert sum(lists.vectors.size
                       for lists in engine._lists.values()) == \
                corpus.partition_rows * HIDDEN


# -- the worker pool ---------------------------------------------------------

class TestWorkerPool:
    def _scatter(self, pool, queries, **kwargs):
        offsets = list(range(len(queries) + 1))
        return pool.scatter(queries, offsets, None, k=5,
                            delta=0.0, nprobe=kwargs.get("nprobe"),
                            exact=kwargs.get("exact", False), fused=None)

    @pytest.mark.parametrize("kwargs", [{"exact": True}, {"nprobe": 4},
                                        {}])
    def test_scatter_merge_bitident(self, pool, disk_index, queries,
                                    kwargs):
        root, _ = disk_index
        corpus = Corpus.open(root)
        offsets = list(range(len(queries) + 1))
        direct = corpus.index.query_parts(queries, offsets, None, k=5,
                                          nprobe=kwargs.get("nprobe"),
                                          exact=kwargs.get("exact",
                                                           False))
        partials = self._scatter(pool, queries, **kwargs)
        assert corpus.merge_parts(partials, offsets, None, k=5) == direct

    def test_hello_reports_partition(self, pool):
        stats = pool.stats()
        assert [w["worker"] for w in stats] == [0, 1]
        assert sum(w["rows"] for w in stats) == N
        assert all(w["alive"] for w in stats)

    def test_more_workers_than_shards(self, disk_index, queries):
        root, _ = disk_index
        corpus = Corpus.open(root)
        offsets = list(range(len(queries) + 1))
        direct = corpus.index.query_parts(queries, offsets, None, k=5,
                                          exact=True)
        with WorkerPool(root, SHARDS + 1) as wide:
            assert any(w["rows"] == 0 for w in wide.stats())
            partials = self._scatter(wide, queries, exact=True)
        assert corpus.merge_parts(partials, offsets, None, k=5) == direct

    def test_idle_kill_heals_transparently(self, pool, queries):
        os.kill(pool.members[0].pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while (pool.members[0].process.is_alive()
               and time.monotonic() < deadline):
            time.sleep(0.05)
        before = pool.respawns
        partials = self._scatter(pool, queries, exact=True)
        assert len(partials) == 2
        assert pool.respawns == before + 1

    def test_crash_mid_query_raises_and_respawns(self, pool, queries):
        send_msg(pool.members[0].conn, {"op": "crash_next"})
        before = pool.respawns
        with pytest.raises(WorkerPoolError):
            self._scatter(pool, queries, exact=True)
        assert pool.respawns == before + 1
        # The pool is whole again: the very next scatter succeeds.
        assert len(self._scatter(pool, queries, exact=True)) == 2

    def test_worker_side_error_keeps_type(self, pool):
        bad = np.zeros((2, HIDDEN + 3), dtype=np.float64)
        with pytest.raises(IndexStoreError):
            self._scatter(pool, bad)


# -- protocol framing --------------------------------------------------------

class TestProtocol:
    def test_roundtrip_and_eof(self):
        a, b = socket.socketpair()
        payload = {"op": "query", "vectors": np.arange(6.0).reshape(2, 3)}
        send_msg(a, payload)
        out = recv_msg(b)
        assert out["op"] == "query"
        np.testing.assert_array_equal(out["vectors"],
                                      payload["vectors"])
        a.close()
        with pytest.raises(EOFError):
            recv_msg(b)
        b.close()

    def test_torn_frame(self):
        a, b = socket.socketpair()
        import struct as struct_mod
        a.sendall(struct_mod.pack("!Q", 100) + b"short")
        a.close()
        with pytest.raises(ProtocolError):
            recv_msg(b)
        b.close()


# -- metrics -----------------------------------------------------------------

class TestHistogram:
    def test_quantiles_bound_observations(self):
        hist = Histogram([0.01, 0.1, 1.0])
        for value in (0.005, 0.02, 0.05, 0.5, 2.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["max"] == 2.0
        assert snap["sum"] == pytest.approx(2.575)
        assert snap["p50"] == 0.1     # 3rd of 5 lands in the 0.1 bucket
        assert snap["p99"] == 2.0     # overflow bucket reports the max
        assert snap["buckets"] == {"0.01": 1, "0.1": 3, "1": 4}

    def test_empty(self):
        snap = Histogram([1.0]).snapshot()
        assert snap["count"] == 0
        assert snap["p99"] == 0.0


# -- micro-batcher: continuous gulps, backpressure, cancellation -------------

class HeldProcess:
    """A batch processor whose every pass waits for :meth:`release`.

    Records each gulp as its pass starts, so a test can see a pass is
    running in the executor and queue more work behind it.
    """

    def __init__(self):
        self.gulps = []
        self._permits = threading.Semaphore(0)

    def __call__(self, jobs):
        self.gulps.append(list(jobs))
        assert self._permits.acquire(timeout=30), "pass never released"
        return [f"ok:{job}" for job in jobs]

    def started(self, passes):
        return lambda: len(self.gulps) == passes

    def release(self, passes=1):
        self._permits.release(passes)


async def _until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        await asyncio.sleep(0.001)


def _finish_within(seconds, scenario):
    """``asyncio.run(scenario())`` in a daemon thread that must finish
    in ``seconds``."""
    errors = []

    def run():
        try:
            asyncio.run(scenario())
        except BaseException as error:  # re-raised in the test's thread
            errors.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if errors:
        raise errors[0]


class TestBatcherEdges:
    def test_arrivals_during_a_pass_form_the_next_gulp(self):
        async def scenario():
            process = HeldProcess()
            batcher = MicroBatcher(process)
            await batcher.start()
            first = asyncio.create_task(batcher.submit("first"))
            await _until(process.started(1))
            rest = [asyncio.create_task(batcher.submit(f"j{i}"))
                    for i in range(5)]
            await _until(lambda: batcher.pending == 5)
            process.release(2)
            assert await first == "ok:first"
            assert await asyncio.gather(*rest) == [f"ok:j{i}"
                                                   for i in range(5)]
            assert process.gulps == [["first"],
                                     [f"j{i}" for i in range(5)]]
            assert (batcher.batches, batcher.jobs) == (2, 6)
            await batcher.stop()

        asyncio.run(scenario())

    def test_lone_submit_needs_no_timer(self):
        """With the loop's clock stopped no timer can ever fire, so a
        lone submit that completes was gulped without waiting."""

        async def scenario():
            loop = asyncio.get_running_loop()
            frozen = loop.time()
            loop.time = lambda: frozen
            batcher = MicroBatcher(lambda jobs: [f"ok:{j}" for j in jobs])
            await batcher.start()
            try:
                assert await batcher.submit("solo") == "ok:solo"
                assert (batcher.batches, batcher.jobs) == (1, 1)
            finally:
                await batcher.stop()
                del loop.time

        _finish_within(30, scenario)

    def test_backpressure_rejects_at_cap(self):
        async def scenario():
            process = HeldProcess()
            batcher = MicroBatcher(process, max_pending=1)
            await batcher.start()
            first = asyncio.create_task(batcher.submit("a"))
            await _until(process.started(1))  # "a" held, queue empty
            second = asyncio.create_task(batcher.submit("b"))
            await _until(lambda: batcher.pending == 1)  # "b" queued
            with pytest.raises(BacklogFull):
                await batcher.submit("c")
            assert batcher.rejected == 1
            process.release(2)
            assert await first == "ok:a"
            assert await second == "ok:b"
            await batcher.stop()

        asyncio.run(scenario())

    def test_cancel_one_waiter_mid_batch(self):
        async def scenario():
            process = HeldProcess()
            batcher = MicroBatcher(process)
            await batcher.start()
            plug = asyncio.create_task(batcher.submit("plug"))
            await _until(process.started(1))
            doomed = asyncio.create_task(batcher.submit("a"))
            kept = asyncio.create_task(batcher.submit("b"))
            await _until(lambda: batcher.pending == 2)
            process.release()
            assert await plug == "ok:plug"
            await _until(process.started(2))  # a+b gulp in the executor
            assert process.gulps[-1] == ["a", "b"]
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            # The surviving waiter still gets its result; the batcher
            # keeps serving afterwards.
            process.release(2)
            assert await kept == "ok:b"
            assert await batcher.submit("c") == "ok:c"
            await batcher.stop()

        asyncio.run(scenario())


# -- HTTP parity and the ops surface -----------------------------------------

def _vector_suspects(queries):
    return [[float(v) for v in q] for q in queries]


class TestHttpScatterGather:
    def test_pooled_serving_matches_inprocess(self, disk_index, queries):
        root, _ = disk_index

        async def scenario():
            inproc = ReproServer(Session(corpus=Corpus.open(root)),
                                 port=0)
            pooled = ReproServer(Session(corpus=Corpus.open(root)),
                                 port=0, workers=2)
            await inproc.start()
            await pooled.start()
            a = AsyncClient(port=inproc.port)
            b = AsyncClient(port=pooled.port)
            try:
                for kwargs in ({"exact": True}, {"nprobe": 4}, {}):
                    ra = await asyncio.gather(*[
                        a.query(vectors=[q], k=5, **kwargs)
                        for q in _vector_suspects(queries)])
                    rb = await asyncio.gather(*[
                        b.query(vectors=[q], k=5, **kwargs)
                        for q in _vector_suspects(queries)])
                    assert [r["results"] for r in ra] == \
                        [r["results"] for r in rb]
                multi_a = await a.query(
                    vectors=_vector_suspects(queries), k=3)
                multi_b = await b.query(
                    vectors=_vector_suspects(queries), k=3)
                assert multi_a["results"] == multi_b["results"]

                stats = await b.stats()
                serving = stats["serving"]
                assert serving["mode"] == "scatter-gather"
                assert serving["workers"] == 2
                assert sum(w["rows"]
                           for w in serving["worker_rows"]) == N
                assert stats["request_seconds"]["count"] > 0
                assert stats["batch_jobs"]["count"] > 0
                assert stats["scatter_seconds"]["count"] > 0
            finally:
                await a.close()
                await b.close()
                await inproc.stop()
                await pooled.stop()

        asyncio.run(scenario())

    def test_source_suspects_fuse_at_front(self, rtl_session):
        """Real corpus, source suspects: the WL-signature fusion channel
        must survive scatter-gather untouched (fuse at the front)."""

        async def scenario():
            corpus_root = rtl_session.corpus.index.root
            inproc = ReproServer(rtl_session, port=0)
            pooled = ReproServer(
                Session(detector=rtl_session.detector,
                        corpus=Corpus.open(corpus_root)),
                port=0, workers=2)
            await inproc.start()
            await pooled.start()
            a = AsyncClient(port=inproc.port)
            b = AsyncClient(port=pooled.port)
            try:
                ra = await a.query(sources=[ADDER, MUX], k=2)
                rb = await b.query(sources=[ADDER, MUX], k=2)
                assert ra["results"] == rb["results"]
                assert ra["results"][0]["matches"][0]["design"] == "adder"
            finally:
                await a.close()
                await b.close()
                await inproc.stop()
                await pooled.stop()

        asyncio.run(scenario())

    def test_worker_crash_returns_500_then_recovers(self, disk_index,
                                                    queries):
        root, _ = disk_index

        async def scenario():
            server = ReproServer(Session(corpus=Corpus.open(root)),
                                 port=0, workers=2)
            await server.start()
            client = AsyncClient(port=server.port)
            try:
                send_msg(server.pool.members[0].conn,
                         {"op": "crash_next"})
                with pytest.raises(ServerError) as excinfo:
                    await client.query(
                        vectors=[_vector_suspects(queries)[0]], k=5)
                assert excinfo.value.status == 500
                assert excinfo.value.error_type == "WorkerPoolError"
                # Not a hang, and the pool healed: next request works.
                out = await client.query(
                    vectors=[_vector_suspects(queries)[0]], k=5)
                assert out["results"][0]["matches"]
                assert server.pool.respawns == 1
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_backpressure_429_with_retry_after(self, disk_index, queries):
        root, _ = disk_index

        async def scenario():
            server = ReproServer(Session(corpus=Corpus.open(root)),
                                 port=0, max_pending=0)
            await server.start()
            client = AsyncClient(port=server.port)
            try:
                with pytest.raises(ServerError) as excinfo:
                    await client.query(
                        vectors=[_vector_suspects(queries)[0]], k=5)
                assert excinfo.value.status == 429
                # Raw exchange: the 429 carries Retry-After.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                body = json.dumps({"suspects": [
                    {"vector": _vector_suspects(queries)[0]}]}).encode()
                writer.write(
                    b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: " + str(len(body)).encode()
                    + b"\r\nConnection: close\r\n\r\n" + body)
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert raw.split(b"\r\n", 1)[0].endswith(
                    b"429 Too Many Requests")
                assert b"Retry-After: 1" in raw
                stats = await client.stats()
                assert stats["serving"]["rejected_requests"] >= 2
                assert stats["serving"]["max_pending"] == 0
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_drain_answers_inflight_then_stops(self, disk_index, queries):
        root, _ = disk_index

        async def scenario():
            server = ReproServer(Session(corpus=Corpus.open(root)),
                                 port=0, workers=2)
            await server.start()
            # Hold the query's pass so it is still in flight when the
            # drain starts.
            process = server.batcher._process
            held, release = threading.Event(), threading.Event()

            def gated(jobs):
                held.set()
                release.wait(30)
                return process(jobs)

            server.batcher._process = gated
            client = AsyncClient(port=server.port)
            pending = asyncio.create_task(client.query(
                vectors=[_vector_suspects(queries)[0]], k=5))
            await _until(held.is_set)
            drain = asyncio.create_task(server.drain(timeout=10))
            await asyncio.sleep(0.05)
            assert not drain.done(), "drain did not wait for the request"
            release.set()
            await drain
            out = await pending
            assert out["results"][0]["matches"], \
                "in-flight request lost during drain"
            assert server.pool is None  # workers stopped by the drain
            with pytest.raises((ConnectionError, OSError, ServerError)):
                fresh = AsyncClient(port=server.port)
                await fresh.healthz()
            await client.close()

        asyncio.run(scenario())

    def test_async_client_keepalive_single_connection(self, disk_index):
        root, _ = disk_index

        async def scenario():
            server = ReproServer(Session(corpus=Corpus.open(root)),
                                 port=0)
            await server.start()
            client = AsyncClient(port=server.port)
            try:
                for _ in range(6):
                    await client.healthz()
                assert server.connections == 1
                assert server.requests == 6
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_json_access_log(self, disk_index, queries):
        root, _ = disk_index

        async def scenario():
            import io
            stream = io.StringIO()
            server = ReproServer(Session(corpus=Corpus.open(root)),
                                 port=0, log_json=True,
                                 log_stream=stream)
            await server.start()
            client = AsyncClient(port=server.port)
            try:
                await client.healthz()
                await client.query(
                    vectors=[_vector_suspects(queries)[0]], k=2)
            finally:
                await client.close()
                await server.stop()
            lines = [json.loads(line) for line
                     in stream.getvalue().splitlines()]
            assert [rec["path"] for rec in lines] == \
                ["/v1/healthz", "/v1/query"]
            assert all(rec["status"] == 200 for rec in lines)
            assert all(rec["seconds"] >= 0 for rec in lines)

        asyncio.run(scenario())
