"""Golden digests of the query engine's IVF hit lists.

``tests/data/query_golden.json`` pins one sha256 per hit list the
engine returns for a seeded clustered store: every hit's rank, name,
piracy flag and the float32 bits of its score.  The store has a few
thousand rows in four uneven shards, an IVF at the default cluster
count, and duplicated rows, so exact score ties occur inside the lists
and at their top-k boundaries.  The calls cover ``query_many`` with
batches of 1 and 32 queries at several probe counts and ``k`` both
inside and beyond the probed pool, and ``partial``/``merge`` over two
shard partitions.  Any change to scoring, selection or hit
construction that moves a hit, reorders a tie or changes a score bit
shows up as a digest mismatch naming the call.

When a change is *intentional*, regenerate the fixture and commit the
diff alongside the change::

    PYTHONPATH=src python tests/test_query_golden.py regenerate
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.index import IVFIndex, QueryEngine
from repro.index.shards import unit_rows_f32

GOLDEN_PATH = Path(__file__).parent / "data" / "query_golden.json"

ROWS = 3000
HIDDEN = 16
#: Uneven shard sizes; they sum to ``ROWS``.
SHARDS = (1100, 250, 1300, 350)
#: Rows overwritten with copies of other rows (bit-equal duplicates).
DUPLICATES = 400
#: Beyond the probed pool at one and eight probes, inside it at all.
K_BEYOND_POOL = 1000
PARTITIONS = ([0, 2], [1, 3])
DELTA = 0.97


def golden_store():
    """``(engine, queries)``: a four-shard engine with an IVF over
    seeded clustered rows, and 32 query vectors near stored rows (four
    of them exact copies of duplicated rows)."""
    rng = np.random.default_rng(20)
    centers = rng.standard_normal((30, HIDDEN))
    labels = rng.integers(0, len(centers), size=ROWS)
    rows = unit_rows_f32(centers[labels]
                         + 0.15 * rng.standard_normal((ROWS, HIDDEN)))
    sources = rng.choice(ROWS, size=DUPLICATES, replace=False)
    targets = rng.choice(np.setdiff1d(np.arange(ROWS), sources),
                         size=DUPLICATES, replace=False)
    rows[targets] = rows[sources]
    ivf = IVFIndex.fit(rows)
    entries = [{"name": f"d{i:04d}", "path": f"d{i:04d}.v",
                "design": f"fam{labels[i]}", "status": "ok"}
               for i in range(ROWS)]
    engine = QueryEngine(np.split(rows, np.cumsum(SHARDS)[:-1]), entries,
                         ivf=ivf)
    picks = rng.choice(ROWS, size=28, replace=False)
    queries = unit_rows_f32(rows[picks]
                            + 0.05 * rng.standard_normal((28, HIDDEN)))
    queries = np.concatenate([queries, rows[sources[:4]]])
    return engine, queries


def hits_digest(hits):
    """sha256 over each hit's 1-based rank, name, piracy flag and the
    float32 bits of its score, in list order."""
    payload = json.dumps([
        [rank, hit.name, bool(hit.is_piracy),
         int(np.float32(hit.score).view(np.uint32))]
        for rank, hit in enumerate(hits, 1)])
    return hashlib.sha256(payload.encode()).hexdigest()


def current_digests():
    engine, queries = golden_store()
    digests = {}
    for nprobe in (1, 8, engine.ivf.n_clusters):
        for k in (10, K_BEYOND_POOL):
            name = f"nprobe{nprobe}/k{k}"
            batch = engine.query_many(queries, k=k, delta=DELTA,
                                      nprobe=nprobe)
            for i, hits in enumerate(batch):
                digests[f"{name}/batch32/q{i:02d}"] = hits_digest(hits)
            for i in (0, 7, 30):
                (hits,) = engine.query_many(queries[i], k=k, delta=DELTA,
                                            nprobe=nprobe)
                digests[f"{name}/batch1/q{i:02d}"] = hits_digest(hits)
            offsets = np.arange(len(queries) + 1)
            partials = [engine.partial(queries, offsets, k=k, delta=DELTA,
                                       nprobe=nprobe, exact=False,
                                       shards=shards)
                        for shards in PARTITIONS]
            merged = engine.merge(partials, offsets, k=k, delta=DELTA)
            for i, hits in enumerate(merged):
                digests[f"{name}/merged/q{i:02d}"] = hits_digest(hits)
    return digests


@pytest.fixture(scope="module")
def digests():
    return current_digests()


def test_hit_lists_match_golden(digests):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(golden)
    drifted = sorted(key for key in golden if digests[key] != golden[key])
    assert not drifted, (
        f"query hit lists drifted for {drifted} -- if the change is "
        "intentional, regenerate with:\n"
        "  PYTHONPATH=src python tests/test_query_golden.py regenerate")


def test_store_exercises_ties_and_short_pools():
    """The fixture really covers what it claims: tied scores inside
    the returned lists, and ``K_BEYOND_POOL`` outrunning the probed
    pool at one and eight probes but not at all clusters, and a tie at
    the k=10 boundary."""
    engine, queries = golden_store()
    full = engine.ivf.n_clusters
    for nprobe in (1, 8, full):
        batch = engine.query_many(queries, k=K_BEYOND_POOL, nprobe=nprobe)
        lengths = [len(hits) for hits in batch]
        if nprobe == full:
            assert min(lengths) == K_BEYOND_POOL
        else:
            assert max(lengths) < K_BEYOND_POOL
        ties = sum(len(hits) - len({hit.score for hit in hits})
                   for hits in batch)
        assert ties > 0
        # The 10th hit ties with the best row left out of the top 10.
        tens = engine.query_many(queries, k=10, nprobe=nprobe)
        elevens = engine.query_many(queries, k=11, nprobe=nprobe)
        assert any(ten[-1].score == eleven[-1].score
                   for ten, eleven in zip(tens, elevens))
    top = engine.query_many(queries[28:], k=2, nprobe=full)
    assert all(hits[0].score == hits[1].score for hits in top)


if __name__ == "__main__":
    if sys.argv[1:] == ["regenerate"]:
        GOLDEN_PATH.write_text(
            json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
