"""HTTP service round trips: endpoints, envelopes, micro-batching.

Each test drives a real ``ReproServer`` on an ephemeral port and the
stdlib clients from :mod:`repro.client` inside one ``asyncio.run`` —
no external processes, no third-party test plugins.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.api import Corpus, Detector, IngestConfig, Session
from repro.client import AsyncClient, Client, ServerError
from repro.core import GNN4IP
from repro.index.service import EmbeddingService
from repro.server import ReproServer

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
def session(tmp_path_factory):
    root = tmp_path_factory.mktemp("served_corpus")
    (root / "adder.v").write_text(ADDER)
    (root / "mux.v").write_text(MUX)
    detector = Detector.from_model(GNN4IP(seed=0))
    corpus, _ = Corpus.build(tmp_path_factory.mktemp("srv") / "idx",
                             sorted(root.glob("*.v")), detector,
                             IngestConfig(jobs=1))
    return Session(detector=detector, corpus=corpus)


@pytest.fixture(scope="module")
def netlist_session(tmp_path_factory):
    root = tmp_path_factory.mktemp("served_netlist_corpus")
    (root / "adder.v").write_text(ADDER)
    (root / "mux.v").write_text(MUX)
    detector = Detector.from_model(GNN4IP(seed=0, featurizer="netlist"))
    corpus, _ = Corpus.build(tmp_path_factory.mktemp("srvn") / "idx",
                             sorted(root.glob("*.v")), detector,
                             IngestConfig(level="netlist", jobs=1))
    return Session(detector=detector, corpus=corpus)


def serve(session, scenario, **server_kwargs):
    """Run ``scenario(server, async_client)`` against a live server."""

    async def runner():
        server = ReproServer(session, port=0, **server_kwargs)
        await server.start()
        client = AsyncClient("127.0.0.1", server.port)
        try:
            await scenario(server, client)
        finally:
            await client.close()
            await server.stop()

    asyncio.run(runner())


def serve_within(seconds, session, scenario, **server_kwargs):
    """:func:`serve` in a daemon thread that must finish in ``seconds``:
    a request that stalls the server fails the test, not the run."""
    errors = []

    def run():
        try:
            serve(session, scenario, **server_kwargs)
        except BaseException as error:  # re-raised in the test's thread
            errors.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"server still busy after {seconds} s"
    if errors:
        raise errors[0]


class _Plug(Exception):
    """Raised by the held pass :func:`one_gulp` queues requests behind."""


async def until(predicate, timeout=30.0):
    """Poll ``predicate`` on the event loop until it holds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, \
            "condition not reached"
        await asyncio.sleep(0.001)


async def one_gulp(server, *requests):
    """Await ``requests`` after queuing them all behind a held pass, so
    the batcher takes them as one gulp.

    The held pass serves a plug job submitted straight to the batcher.
    Its processor waits until every request is queued, then raises:
    that fails the plug alone and leaves the served counters (gulps,
    jobs) as if it had never run.
    """
    batcher = server.batcher
    process = batcher._process
    plug = object()
    held, release = threading.Event(), threading.Event()

    def gated(jobs):
        if jobs[0] is plug:
            held.set()
            release.wait(30)
            raise _Plug()
        return process(jobs)

    batcher._process = gated
    try:
        plugged = asyncio.ensure_future(batcher.submit(plug))
        await until(held.is_set)
        tasks = [asyncio.ensure_future(request) for request in requests]
        await until(lambda: batcher.pending == len(tasks))
        release.set()
        with pytest.raises(_Plug):
            await plugged
        return await asyncio.gather(*tasks)
    finally:
        release.set()
        batcher._process = process


async def expect_error(coro, status, error_type=None):
    with pytest.raises(ServerError) as excinfo:
        await coro
    assert excinfo.value.status == status
    if error_type is not None:
        assert excinfo.value.error_type == error_type
    return excinfo.value


class TestEndpoints:
    def test_healthz(self, session):
        async def scenario(server, client):
            health = await client.healthz()
            assert health["status"] == "ok"
            assert health["designs"] == 2
            assert health["level"] == "rtl"

        serve(session, scenario)

    def test_query_two_suspects_ranked(self, session):
        """The acceptance round trip: >= 2 suspects in one request,
        embedded as one batch, each answered with ranked matches."""

        async def scenario(server, client):
            out = await client.query(sources=[ADDER, MUX],
                                     labels=["adder.v", "mux.v"], k=2)
            assert out["serving"] == "exact"
            adder_result, mux_result = out["results"]
            assert adder_result["label"] == "adder.v"
            assert [m["rank"] for m in adder_result["matches"]] == [1, 2]
            assert adder_result["matches"][0]["design"] == "adder"
            assert adder_result["matches"][0]["score"] == \
                pytest.approx(1.0, abs=1e-6)
            assert adder_result["matches"][0]["is_piracy"] is True
            assert mux_result["matches"][0]["design"] == "mux"
            # The whole request was served as one micro-batch.
            assert server.batcher.batches == 1
            assert server.batcher.jobs == 1

        serve(session, scenario)

    def test_query_vector_suspects(self, session):
        vector = session.fingerprint(ADDER).vector

        async def scenario(server, client):
            out = await client.query(vectors=[vector], k=1)
            assert out["results"][0]["matches"][0]["design"] == "adder"

        serve(session, scenario)

    def test_fingerprint_and_compare(self, session):
        async def scenario(server, client):
            fingerprint = await client.fingerprint(ADDER, label="a.v")
            assert fingerprint["design"] == "adder"
            assert fingerprint["label"] == "a.v"
            assert len(fingerprint["vector"]) == 16
            comparison = await client.compare(ADDER, ADDER)
            assert comparison["verdict"] == "PIRACY"
            assert comparison["score"] == pytest.approx(1.0)

        serve(session, scenario)

    def test_sync_client(self, session):
        async def scenario(server, client):
            sync = Client("127.0.0.1", server.port)
            loop = asyncio.get_running_loop()
            health = await loop.run_in_executor(None, sync.healthz)
            assert health["status"] == "ok"
            out = await loop.run_in_executor(
                None, lambda: sync.query(sources=[ADDER], k=1))
            assert out["results"][0]["matches"][0]["design"] == "adder"
            await loop.run_in_executor(None, sync.close)

        serve(session, scenario)

    def test_sync_client_reuses_one_connection(self, session):
        """Keep-alive: many sync requests ride one TCP connection."""

        async def scenario(server, client):
            loop = asyncio.get_running_loop()

            def burst():
                with Client("127.0.0.1", server.port) as sync:
                    for _ in range(8):
                        sync.healthz()
                    sync.fingerprint(ADDER)

            before = server.connections
            await loop.run_in_executor(None, burst)
            assert server.connections == before + 1
            assert server.requests >= 9

        serve(session, scenario)

    def test_sync_client_reconnects_after_close(self, session):
        """An explicitly closed client transparently reopens, and error
        envelopes still propagate (they are answers, not transport
        failures, so they must not trigger the retry path)."""

        async def scenario(server, client):
            loop = asyncio.get_running_loop()

            def exercise():
                sync = Client("127.0.0.1", server.port)
                assert sync.healthz()["status"] == "ok"
                sync.close()
                assert sync.healthz()["status"] == "ok"  # fresh socket
                with pytest.raises(ServerError) as excinfo:
                    sync.request("GET", "/v1/nope")
                sync.close()
                return excinfo.value.status

            assert await loop.run_in_executor(None, exercise) == 404

        serve(session, scenario)

    def test_connection_close_header_honored(self, session):
        """A request carrying ``Connection: close`` ends the keep-alive
        loop; the server closes after responding."""

        async def scenario(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            try:
                writer.write(b"GET /v1/healthz HTTP/1.1\r\n"
                             b"Host: x\r\nConnection: close\r\n\r\n")
                await writer.drain()
                raw = await reader.read()  # EOF => server closed
                assert b"Connection: close" in raw
                assert b'"status": "ok"' in raw
            finally:
                writer.close()

        serve(session, scenario)

    def test_stats_counts_requests(self, session):
        async def scenario(server, client):
            await client.query(sources=[ADDER], k=1)
            stats = await client.stats()
            assert stats["requests"] >= 1
            assert stats["query_batches"] >= 1
            assert stats["index"]["embedded"] == 2

        serve(session, scenario)


class TestMicroBatching:
    def test_concurrent_queries_coalesce(self, session):
        vector = session.fingerprint(ADDER).vector

        async def scenario(server, client):
            outs = await one_gulp(
                server,
                *[client.query(vectors=[vector], k=1) for _ in range(16)])
            for out in outs:
                assert out["results"][0]["matches"][0]["design"] == "adder"
            stats = await client.stats()
            assert stats["batched_requests"] == 16
            # Coalescing happened: far fewer engine gulps than requests.
            assert stats["query_batches"] <= 8

        serve(session, scenario)

    def test_one_bad_suspect_fails_only_its_request(self, session):
        async def scenario(server, client):
            good, bad = await one_gulp(
                server,
                client.query(sources=[ADDER], k=1),
                expect_error(client.query(sources=["module oops("]),
                             400))
            assert good["results"][0]["matches"][0]["design"] == "adder"
            assert bad.status == 400

        serve(session, scenario)

    def test_deeply_nested_suspect_fails_only_its_request(self, session):
        nested = "(" * 3000 + "a" + ")" * 3000
        deep = (f"module deep(input a, output y);\n"
                f"assign y = {nested};\nendmodule")

        async def scenario(server, client):
            first, bad, second = await one_gulp(
                server,
                client.query(sources=[ADDER], k=1),
                expect_error(client.query(sources=[deep]), 400),
                client.query(sources=[MUX], k=1))
            assert first["results"][0]["matches"][0]["design"] == "adder"
            assert second["results"][0]["matches"][0]["design"] == "mux"
            assert bad.error_type == "ParseError"
            assert "nesting" in str(bad)
            # All three rode one micro-batch gulp.
            assert server.batcher.batches == 1

        serve(session, scenario)

    def test_truncated_genvar_fails_only_its_request(self, session):
        # A source the parser once looped on forever, stalling the
        # extraction thread for every later request.
        async def scenario(server, client):
            first, bad = await one_gulp(
                server,
                client.query(sources=[ADDER], k=1),
                expect_error(client.query(sources=["module m; genvar i"]),
                             400, "ParseError"))
            assert first["results"][0]["matches"][0]["design"] == "adder"
            assert "genvar" in str(bad)
            second = await client.query(sources=[MUX], k=1)
            assert second["results"][0]["matches"][0]["design"] == "mux"

        serve_within(60, session, scenario)

    @pytest.mark.parametrize("fixture", ["session", "netlist_session"])
    def test_empty_design_fails_only_its_request(self, request, fixture):
        async def scenario(server, client):
            first, bad, second = await one_gulp(
                server,
                client.query(sources=[ADDER], k=1),
                expect_error(client.query(sources=["module m(); endmodule"]),
                             400, "GraphIRError"),
                client.query(sources=[MUX], k=1))
            assert first["results"][0]["matches"][0]["design"] == "adder"
            assert second["results"][0]["matches"][0]["design"] == "mux"
            assert "empty" in str(bad)
            # All three rode one micro-batch gulp.
            assert server.batcher.batches == 1

        serve(request.getfixturevalue(fixture), scenario)

    def test_non_finite_vector_fails_only_its_request(self, session):
        """A NaN vector (which JSON bodies can carry) or an all-zero one
        is that request's 409, like a width mismatch; its gulp-mate
        still gets matches."""
        vector = session.fingerprint(ADDER).vector
        poisoned = np.array(vector, dtype=np.float64)
        poisoned[0] = np.nan
        zero = np.zeros_like(poisoned)

        async def scenario(server, client):
            good, bad, flat = await one_gulp(
                server,
                client.query(vectors=[vector], k=1),
                expect_error(client.query(vectors=[poisoned], k=1), 409,
                             "IndexStoreError"),
                expect_error(client.query(vectors=[vector, zero], k=1),
                             409, "IndexStoreError"))
            assert good["results"][0]["matches"][0]["design"] == "adder"
            assert "finite" in str(bad)
            assert "all zero" in str(flat)
            # All three rode one micro-batch gulp.
            assert server.batcher.batches == 1

        serve(session, scenario)

    def test_suspect_embedding_to_zero_fails_only_its_request(
            self, session, monkeypatch):
        embed = EmbeddingService.embed_graphs

        def embed_graphs(service, graphs):
            # The model maps every part of "mux" to the zero vector.
            rows = embed(service, graphs)
            rows[[g.name == "mux" for g in graphs]] = 0.0
            return rows

        monkeypatch.setattr(EmbeddingService, "embed_graphs", embed_graphs)

        async def scenario(server, client):
            good, bad = await one_gulp(
                server,
                client.query(sources=[ADDER], k=1),
                expect_error(client.query(sources=[MUX], labels=["m.v"]),
                             400, "ModelError"))
            assert good["results"][0]["matches"][0]["design"] == "adder"
            assert "zero embedding for m.v" in str(bad)
            # Both rode one micro-batch gulp.
            assert server.batcher.batches == 1

        serve(session, scenario)

    def test_untyped_extraction_error_fails_only_its_request(
            self, session, monkeypatch):
        extract = session.extract

        def flaky_extract(source, **kwargs):
            if source == MUX:
                raise ValueError("secret internal state")
            return extract(source, **kwargs)

        monkeypatch.setattr(session, "extract", flaky_extract)

        async def scenario(server, client):
            good, bad = await one_gulp(
                server,
                client.query(sources=[ADDER], k=1),
                expect_error(client.query(sources=[MUX]), 500,
                             "ValueError"))
            assert good["results"][0]["matches"][0]["design"] == "adder"
            assert "secret" not in str(bad)
            # Both rode one micro-batch gulp.
            assert server.batcher.batches == 1

        serve(session, scenario)


class TestErrorEnvelopes:
    def test_unknown_route_404(self, session):
        async def scenario(server, client):
            error = await expect_error(client.request("GET", "/nope"), 404)
            assert "no route" in str(error)

        serve(session, scenario)

    def test_wrong_method_405(self, session):
        async def scenario(server, client):
            await expect_error(client.request("GET", "/v1/query"), 405)

        serve(session, scenario)

    def test_malformed_json_400(self, session):
        async def scenario(server, client):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            body = b"{not json"
            writer.write(b"POST /v1/query HTTP/1.1\r\n"
                         b"Host: x\r\n"
                         b"Content-Length: %d\r\n"
                         b"Connection: close\r\n\r\n" % len(body) + body)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert b"400" in head.split(b"\r\n")[0]
            envelope = json.loads(payload)
            assert envelope["error"]["status"] == 400
            assert "JSON" in envelope["error"]["message"]

        serve(session, scenario)

    def test_empty_suspects_400(self, session):
        async def scenario(server, client):
            await expect_error(
                client.request("POST", "/v1/query", {"suspects": []}), 400)

        serve(session, scenario)

    def test_source_strings_are_never_paths(self, session, tmp_path):
        """A remote 'source' naming a readable local file must be parsed
        as (broken) Verilog text, not read off the server's disk."""
        secret = tmp_path / "secret.v"
        secret.write_text(ADDER)

        async def scenario(server, client):
            error = await expect_error(client.fingerprint(str(secret)),
                                       400)
            assert "secret" not in str(error)  # no existence oracle
            await expect_error(client.query(sources=[str(secret)]), 400)
            await expect_error(client.compare(str(secret), ADDER), 400)

        serve(session, scenario)

    def test_negative_content_length_400(self, session):
        async def scenario(server, client):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            writer.write(b"POST /v1/query HTTP/1.1\r\n"
                         b"Host: x\r\n"
                         b"Content-Length: -5\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b"400" in raw.split(b"\r\n", 1)[0]
            envelope = json.loads(raw.partition(b"\r\n\r\n")[2])
            assert envelope["error"]["status"] == 400

        serve(session, scenario)

    def test_bad_verilog_400(self, session):
        async def scenario(server, client):
            error = await expect_error(
                client.query(sources=["module oops(endmodule"]), 400)
            assert error.error_type in ("ParseError", "LexerError")

        serve(session, scenario)

    @pytest.mark.parametrize("field", ["k", "nprobe"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_counts_400(self, session, field, flag):
        """JSON ``true``/``false`` are not counts, though Python's
        ``bool`` is an ``int``: ``"k": true`` must not serve as k=1."""
        vector = session.fingerprint(ADDER).vector

        async def scenario(server, client):
            payload = {"suspects": [{"vector": [float(v) for v in vector]}],
                       field: flag}
            error = await expect_error(
                client.request("POST", "/v1/query", payload), 400,
                "HttpError")
            assert repr(field) in str(error)

        serve(session, scenario)

    def test_exact_takes_only_a_boolean(self, session):
        """``"exact"`` is a JSON boolean: a string such as ``"false"``,
        a list, a number or null is refused, not read as truthy."""
        vector = [float(v) for v in session.fingerprint(ADDER).vector]

        async def scenario(server, client):
            for exact in ("false", "true", [0], [], 1, 0, None, {}):
                payload = {"suspects": [{"vector": vector}], "exact": exact}
                error = await expect_error(
                    client.request("POST", "/v1/query", payload), 400,
                    "HttpError")
                assert "'exact'" in str(error), exact
            for exact in (True, False):
                out = await client.request(
                    "POST", "/v1/query",
                    {"suspects": [{"vector": vector}], "exact": exact})
                assert out["results"][0]["matches"][0]["design"] == "adder"

        serve(session, scenario)

    def test_label_takes_only_a_string(self, session):
        """A suspect label (on ``/v1/query`` and ``/v1/fingerprint``) is
        a string, null or absent; any other JSON value is refused
        instead of echoed back."""
        vector = [float(v) for v in session.fingerprint(ADDER).vector]

        async def scenario(server, client):
            for label in (5, 0, 1.5, True, {"a": [1, 2]}, ["x"]):
                payload = {"suspects": [{"vector": vector},
                                        {"vector": vector, "label": label}]}
                error = await expect_error(
                    client.request("POST", "/v1/query", payload), 400,
                    "HttpError")
                assert "suspects[1].label" in str(error), label
                error = await expect_error(
                    client.request("POST", "/v1/fingerprint",
                                   {"source": ADDER, "label": label}),
                    400, "HttpError")
                assert "'label'" in str(error), label
            for label in (None, "a.v"):
                out = await client.request(
                    "POST", "/v1/fingerprint",
                    {"source": ADDER, "label": label})
                assert out["label"] == label
            payload = {"suspects": [{"vector": vector, "label": 'α "β"'},
                                    {"vector": vector, "label": None},
                                    {"vector": vector, "label": ""},
                                    {"vector": vector}]}
            out = await client.request("POST", "/v1/query", payload)
            assert [r["label"] for r in out["results"]] == [
                'α "β"', "suspect[1]", "suspect[2]", "suspect[3]"]

        serve(session, scenario)

    @pytest.mark.parametrize("endpoint", ["fingerprint", "compare",
                                          "query"])
    def test_non_object_body_400(self, session, endpoint):
        """A JSON body that is not an object is a 400 on every route
        that reads one, not a 500 from looking fields up in it."""
        async def scenario(server, client):
            for body in ([1, 2], "x", 3):
                error = await expect_error(
                    client.request("POST", f"/v1/{endpoint}", body), 400,
                    "HttpError")
                assert "JSON object" in str(error), body

        serve(session, scenario)

    @pytest.mark.parametrize("endpoint", ["fingerprint", "compare",
                                          "query"])
    def test_top_takes_only_a_string_or_null(self, session, endpoint):
        """``"top"`` names a module or is null; any other JSON value is
        a 400 on every endpoint that extracts, not a 500 from inside
        extraction."""
        bodies = {"fingerprint": {"source": ADDER},
                  "compare": {"a": ADDER, "b": ADDER},
                  "query": {"suspects": [ADDER], "k": 1}}

        async def scenario(server, client):
            path = f"/v1/{endpoint}"
            for top in (["x"], 5, {"m": 1}, True):
                error = await expect_error(
                    client.request("POST", path,
                                   dict(bodies[endpoint], top=top)),
                    400, "HttpError")
                assert "'top'" in str(error), top
            for top in (None, "adder"):
                await client.request("POST", path,
                                     dict(bodies[endpoint], top=top))

        serve(session, scenario)

    def test_suspect_with_source_and_vector_400(self, session):
        """A suspect is a source or a vector; one carrying both is
        refused by index instead of served as a vector."""
        vector = [float(v) for v in session.fingerprint(ADDER).vector]

        async def scenario(server, client):
            payload = {"suspects": [{"vector": vector},
                                    {"vector": vector, "source": MUX}]}
            error = await expect_error(
                client.request("POST", "/v1/query", payload), 400,
                "HttpError")
            assert "suspects[1]" in str(error)

        serve(session, scenario)

    def test_wrong_vector_width_409(self, session):
        async def scenario(server, client):
            await expect_error(
                client.query(vectors=[np.zeros(3)]), 409,
                "IndexStoreError")

        serve(session, scenario)

    def test_oversized_payload_413(self, session):
        """A Content-Length beyond the body cap is refused up front
        (no buffering of the body) with the 413 envelope."""
        from repro.server.http import MAX_BODY_BYTES

        async def scenario(server, client):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            writer.write(b"POST /v1/query HTTP/1.1\r\n"
                         b"Host: x\r\n"
                         b"Content-Length: %d\r\n"
                         b"Connection: close\r\n\r\n"
                         % (MAX_BODY_BYTES + 1))
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b"413" in raw.split(b"\r\n", 1)[0]
            envelope = json.loads(raw.partition(b"\r\n\r\n")[2])
            assert envelope["error"]["status"] == 413
            assert "too large" in envelope["error"]["message"]

        serve(session, scenario)

    def test_unknown_v1_route_404(self, session):
        """An unknown path under the /v1/ prefix is a 404 envelope,
        not a 405 (it matches no known endpoint at all)."""
        async def scenario(server, client):
            error = await expect_error(
                client.request("POST", "/v1/evaluate", {}), 404)
            assert "no route" in str(error)

        serve(session, scenario)

    def test_level_mismatched_suspect_400(self, netlist_session):
        """Source a netlist-level corpus cannot synthesize (non-constant
        part-select) is that request's 400, never a 500."""
        bad = ("module odd(input [7:0] a, input [2:0] i, output [1:0] y);\n"
               "  assign y = a[i +: 2];\nendmodule\n")

        async def scenario(server, client):
            error = await expect_error(client.query(sources=[bad]), 400,
                                       "SynthesisError")
            assert "const" in str(error)
            # The server stays healthy for well-formed suspects.
            health = await client.healthz()
            assert health["level"] == "netlist"

        serve(netlist_session, scenario)

    def test_mismatched_model_query_409(self, session):
        """Serving with a detector that is not the index's model is a
        409 fingerprint conflict, not a 500."""
        mismatched = Session(
            detector=Detector.from_model(GNN4IP(seed=99)),
            corpus=session.corpus)

        async def scenario(server, client):
            await expect_error(client.query(sources=[ADDER]), 409,
                               "IndexStoreError")

        serve(mismatched, scenario)

    def test_internal_error_500_hides_details(self, session,
                                              monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("secret internal state")

        monkeypatch.setattr(session, "fingerprint", boom)

        async def scenario(server, client):
            error = await expect_error(client.fingerprint(ADDER), 500,
                                       "RuntimeError")
            assert "secret" not in str(error)

        serve(session, scenario)


class TestServingOps:
    """Keep-alive reuse and backpressure against a real corpus-backed
    session (the synthetic-index deep dive lives in
    ``test_serve_scatter.py``)."""

    def test_sequential_asyncclient_reuses_one_connection(self, session):
        async def scenario(server, client):
            for _ in range(5):
                await client.healthz()
            await client.fingerprint(ADDER)
            assert server.connections == 1
            assert server.requests == 6

        serve(session, scenario)

    def test_sync_client_keepalive_retries_after_restart(self, session):
        """The sync client replays once on a stale pooled socket."""

        async def scenario(server, client):
            loop = asyncio.get_running_loop()
            sync = Client(port=server.port)
            try:
                assert (await loop.run_in_executor(
                    None, sync.healthz))["status"] == "ok"
                # Simulate a dead pooled socket: close it client-side,
                # then issue a request on the (now stale) connection.
                sync._connection.sock.close()
                assert (await loop.run_in_executor(
                    None, sync.healthz))["status"] == "ok"
            finally:
                sync.close()

        serve(session, scenario)

    def test_request_seconds_include_reply_encoding(self, session,
                                                    monkeypatch):
        """The request clock stops after the reply is encoded and
        written: a slow ``response_bytes`` shows in ``/v1/stats``
        ``request_seconds`` and in the access log."""
        import io
        import time

        from repro.server import app

        delay = 0.05
        encode = app.response_bytes

        def slow_response_bytes(*args, **kwargs):
            time.sleep(delay)
            return encode(*args, **kwargs)

        monkeypatch.setattr(app, "response_bytes", slow_response_bytes)
        stream = io.StringIO()

        async def scenario(server, client):
            await client.healthz()
            await client.fingerprint(ADDER)
            stats = await client.stats()
            timed = stats["request_seconds"]
            assert timed["count"] == 2
            assert timed["sum"] >= 2 * delay
            assert timed["max"] >= delay

        serve(session, scenario, log_json=True, log_stream=stream)
        seconds = [json.loads(line)["seconds"]
                   for line in stream.getvalue().splitlines()]
        assert len(seconds) == 3
        assert all(value >= delay for value in seconds)

    def test_backpressure_cap_rejects_with_429(self, session):
        async def scenario(server, client):
            await expect_error(client.query(sources=[ADDER], k=1), 429)
            stats = await client.stats()
            assert stats["serving"]["rejected_requests"] == 1
            assert stats["serving"]["max_pending"] == 0
            assert stats["serving"]["pending_requests"] == 0

        serve(session, scenario, max_pending=0)
