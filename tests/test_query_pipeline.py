"""One suspect-query pipeline: a served job ranks as it would alone.

``Session.query`` runs one job through ``Session.query_jobs``; the HTTP
server's batch pass runs a whole micro-batched gulp through it.  These
tests put every kind of job in one gulp and check that each job's
outcome -- its hits, or the exception that failed it -- is the outcome
of that job queried alone.

The corpus is a small chunked, WL-signed RTL index with a hand-fitted
2-cluster IVF, so a gulp can mix fused source jobs (structural channel,
exact scoring) with IVF-probed vector jobs.
"""

import asyncio
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import Corpus, Detector, IngestConfig, QueryJob, Session
from repro.client import AsyncClient
from repro.core import GNN4IP
from repro.designs.corpus import canonical_variant
from repro.errors import IndexStoreError, ModelError, ParseError
from repro.index.ann import IVFIndex, ivf_filename
from repro.index.service import EmbeddingService
from repro.server import ReproServer
from repro.server.app import query_reply

FAMILIES = ("adder8", "cmp8", "parity16", "mux8", "counter8")

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


@pytest.fixture(scope="module")
def signed_session(tmp_path_factory):
    """A chunked, signed RTL index whose IVF has two hand-fitted
    clusters, plus a stored row from the smaller cluster."""
    sources = tmp_path_factory.mktemp("pipeline_src")
    for name in FAMILIES:
        (sources / f"{name}.v").write_text(canonical_variant(name).verilog)
    detector = Detector.from_model(GNN4IP(seed=0))
    root = tmp_path_factory.mktemp("pipeline_idx") / "idx"
    corpus, _ = Corpus.build(
        root, sorted(sources.glob("*.v")), detector, IngestConfig(jobs=1)
    )
    assert corpus.index.has_chunks
    assert corpus.index.signature_scorer() is not None
    rows = corpus.index.matrix
    ivf = IVFIndex.fit(rows, n_clusters=2, seed=0)
    ivf.save(root / ivf_filename(0))
    meta = json.loads((root / "meta.json").read_text())
    meta["ivf"] = {"file": ivf_filename(0), "clusters": 2, "fitted_rows": len(rows)}
    (root / "meta.json").write_text(json.dumps(meta))
    session = Session(detector=detector, corpus=Corpus.open(root))
    assign = ivf.probe(rows, 1)[:, 0]
    small = np.argmin(np.bincount(assign, minlength=2))
    vector = np.asarray(rows[np.flatnonzero(assign == small)[0]], dtype=np.float64)
    return session, vector


def outcome(result):
    """A job's outcome in comparable form: reply JSON or error."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return [r.as_json() for r in result]


def alone(session, job):
    """``Session.query`` of one job on its own."""
    suspects = job.suspects if job.vectors is None else list(job.vectors)
    try:
        return session.query(
            suspects,
            k=job.k,
            nprobe=job.nprobe,
            exact=job.exact,
            top=job.top,
            labels=job.labels,
            allow_paths=job.allow_paths,
        )
    except Exception as exc:
        return exc


def test_gulp_mate_keeps_vector_job_on_ivf(signed_session):
    """A fused source job in the gulp must not move a vector job off
    its IVF probe: the reply bytes equal the job served alone."""
    session, vector = signed_session
    server = ReproServer(session)

    def vector_job():
        return QueryJob(vectors=np.asarray([vector]), labels=[None], k=10, nprobe=1)

    source_job = QueryJob(
        suspects=[ADDER], labels=[None], k=10, nprobe=1, allow_paths=False
    )
    (served_alone,) = server._process_query_jobs([vector_job()])
    served_with_mate, mate = server._process_query_jobs([vector_job(), source_job])
    assert not isinstance(mate, Exception)
    serving = session.corpus.serving_description(nprobe=1)
    assert serving == "ivf:1 probes"
    assert query_reply(served_with_mate, serving) == query_reply(served_alone, serving)
    assert outcome(served_alone) == outcome(alone(session, vector_job()))
    # The probe prunes: exact scoring would rank other designs.
    exact = session.query([vector], k=10, exact=True)
    assert outcome(served_alone) != outcome(exact)


def test_served_serving_label_follows_the_route(signed_session):
    """The reply's ``serving`` names how the job was scored: a source
    job on the signed index is fused, so exact; a vector job probes."""
    session, vector = signed_session

    async def run():
        server = ReproServer(session, port=0)
        await server.start()
        try:
            async with AsyncClient(port=server.port) as client:
                source = await client.query(sources=[ADDER], k=10, nprobe=1)
                vectors = await client.query(vectors=[vector], k=10, nprobe=1)
                return source, vectors
        finally:
            await server.stop()

    source, vectors = asyncio.run(run())
    assert source["serving"] == "exact"
    assert vectors["serving"] == "ivf:1 probes"
    # The fused source job's hits are those of exact scoring.
    (alone_exact,) = session.query([ADDER], k=10, exact=True, allow_paths=False)
    assert source["results"][0]["matches"] == alone_exact.as_dict()["matches"]


def test_serve_announces_both_routes(signed_session):
    """``gnn4ip serve``'s start-up line names each route where they
    differ: the signed index probes vector queries and scores every
    source query exactly, fused."""
    session, _ = signed_session
    corpus = session.corpus
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(corpus.index.root)]
        + ["--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    # A server that never announces is killed, ending the read loop.
    deadline = threading.Timer(120, server.kill)
    deadline.start()
    lines = []
    try:
        for line in server.stdout:
            lines.append(line.rstrip("\n"))
            if line.startswith("serving on"):
                break
    finally:
        deadline.cancel()
        server.terminate()
        server.communicate(timeout=60)
    vectors = corpus.serving_description()
    assert vectors == "ivf:2 probes"
    expected = f"(vectors {vectors}, sources exact)"
    assert f"index: {len(corpus)} designs at level rtl {expected}" in lines


def gulp_jobs(vector):
    """One job of each kind, named."""
    return {
        "vector": QueryJob(vectors=np.asarray([vector]), labels=["v"], k=10),
        "vector_exact": QueryJob(vectors=np.asarray([vector]), k=10, exact=True),
        "source": QueryJob(suspects=[ADDER], allow_paths=False),
        "source_k0": QueryJob(suspects=[ADDER], k=0, allow_paths=False),
        "bad_verilog": QueryJob(suspects=["module oops("], allow_paths=False),
        "zero_vector": QueryJob(vectors=np.zeros((1, len(vector)))),
        "wrong_width": QueryJob(vectors=np.ones((1, 3))),
        "embeds_to_zero": QueryJob(suspects=[MUX], labels=["m.v"], allow_paths=False),
    }


#: The jobs in :func:`gulp_jobs` that fail, and their error types.
FAILING = {
    "bad_verilog": ParseError,
    "zero_vector": IndexStoreError,
    "wrong_width": IndexStoreError,
    "embeds_to_zero": ModelError,
}


@pytest.mark.parametrize("name", sorted(gulp_jobs(np.ones(1))))
def test_served_equals_alone(signed_session, monkeypatch, name):
    session, vector = signed_session
    embed = EmbeddingService.embed_graphs

    def embed_graphs(service, graphs):
        # The model maps every part of "mux" to the zero vector.
        rows = embed(service, graphs)
        rows[[g.name == "mux" for g in graphs]] = 0.0
        return rows

    monkeypatch.setattr(EmbeddingService, "embed_graphs", embed_graphs)
    jobs = gulp_jobs(vector)
    served = ReproServer(session)._process_query_jobs(list(jobs.values()))
    got = dict(zip(jobs, served))[name]
    assert isinstance(got, FAILING.get(name, list))
    assert outcome(got) == outcome(alone(session, jobs[name]))


def test_label_count_mismatch_fails_one_job(signed_session):
    """A job whose labels do not match its suspects, one per suspect,
    fails with ``ValueError``; it neither drops suspects nor hands its
    surplus hit lists to the next job."""
    session, _ = signed_session
    rows = np.asarray(session.corpus.index.matrix[:5], dtype=np.float64)
    short = QueryJob(vectors=rows[:3], labels=["a"], k=3)
    mate = QueryJob(vectors=rows[3:], labels=["x", "y"], k=3)
    source = QueryJob(suspects=[ADDER, MUX], labels=["a"], allow_paths=False)
    with pytest.raises(ValueError, match="1 labels for 3 suspects"):
        session.query(list(rows[:3]), k=3, labels=["a"])
    with pytest.raises(ValueError, match="1 labels for 2 suspects"):
        session.query([ADDER, MUX], labels=["a"], allow_paths=False)
    got_short, got_mate, got_source = session.query_jobs([short, mate, source])
    assert isinstance(got_short, ValueError)
    assert isinstance(got_source, ValueError)
    assert [r.label for r in got_mate] == ["x", "y"]
    assert outcome(got_mate) == outcome(alone(session, mate))
