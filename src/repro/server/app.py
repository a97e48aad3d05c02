"""The asyncio detection service: routes, batching, error envelopes.

``ReproServer`` exposes a :class:`~repro.api.facade.Session` over HTTP
(stdlib only — no web framework):

- ``POST /v1/fingerprint`` — embed one design.
- ``POST /v1/query`` — rank the corpus against suspects (multi-suspect
  per request; concurrent requests micro-batched through
  :meth:`~repro.api.facade.Session.query_jobs`, the pipeline
  ``Session.query`` runs: one embedding pass, one engine call per
  routing group).
- ``POST /v1/compare`` — pairwise piracy check.
- ``GET /v1/healthz`` / ``GET /v1/stats`` — liveness and counters.

Failures map to JSON error envelopes
``{"error": {"type", "message", "status"}}``:
:class:`~repro.errors.ModelError` and other library errors are 400s,
:class:`~repro.errors.IndexStoreError` (fingerprint mismatch, empty or
corrupt index) is 409, protocol problems keep their HTTP status, and
anything unexpected is a 500 that names the exception type only.

The model, featurizer, frontend, and memory-mapped engine stay hot in
the bound session across requests — the whole point of running a
long-lived process instead of a CLI call per suspect.
"""

import asyncio
import contextlib
import json
import sys
import time

import numpy as np

from repro import __version__
from repro.api.facade import QueryJob
from repro.api.types import encode_json
from repro.errors import IndexStoreError, ReproError
from repro.server.batcher import BacklogFull, MicroBatcher
from repro.server.http import HttpError, read_request, response_bytes
from repro.server.metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_S,
    Histogram,
)
from repro.server.worker import WorkerPool


def error_envelope(exc, status=None):
    """(payload, status) for an exception, per the mapping above."""
    if status is None:
        if isinstance(exc, HttpError):
            status = exc.status
        elif isinstance(exc, IndexStoreError):
            status = 409
        elif isinstance(exc, (ReproError, OSError)):
            status = 400
        else:
            status = 500
    if status >= 500 and not isinstance(exc, HttpError):
        # Never leak internal state through a 500 message.
        message = f"internal error ({type(exc).__name__})"
    else:
        message = str(exc)
    return {"error": {"type": type(exc).__name__, "message": message,
                      "status": status}}, status


def _is_int(value):
    """True for a JSON integer: ``bool`` is an ``int`` subclass, but
    ``true``/``false`` are not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_suspects(payload):
    """Split a request's suspect list into sources/vectors + labels."""
    suspects = payload.get("suspects")
    if not isinstance(suspects, list) or not suspects:
        raise HttpError(400, "body must carry a non-empty 'suspects' list")
    sources, vectors, labels = [], [], []
    for i, suspect in enumerate(suspects):
        if isinstance(suspect, str):
            suspect = {"source": suspect}
        if not isinstance(suspect, dict):
            raise HttpError(400, f"suspects[{i}] must be an object or a "
                                 f"source string")
        label = suspect.get("label")
        if label is not None and not isinstance(label, str):
            raise HttpError(400, f"suspects[{i}].label must be a string")
        labels.append(label)
        if "vector" in suspect and "source" in suspect:
            raise HttpError(400, f"suspects[{i}] carries both a 'source' "
                                 f"and a 'vector'; send one")
        if "vector" in suspect:
            if not isinstance(suspect["vector"], list):
                raise HttpError(400, f"suspects[{i}].vector must be a list "
                                     f"of numbers")
            vectors.append(suspect["vector"])
        elif "source" in suspect:
            sources.append(suspect["source"])
        else:
            raise HttpError(400, f"suspects[{i}] needs a 'source' or a "
                                 f"'vector'")
    if sources and vectors:
        raise HttpError(400, "cannot mix 'source' and 'vector' suspects "
                             "in one request")
    return sources or None, vectors or None, labels


def query_reply(results, serving):
    """The ``/v1/query`` reply body: ``json.dumps`` of ``{"results":
    [QueryResult.as_dict()], "serving": serving}``, written straight
    from the hits."""
    return ('{"results": [%s], "serving": %s}' % (
        ", ".join([result.as_json() for result in results]),
        encode_json(serving))).encode()


def _top_of(payload):
    """The request's ``top`` module option: a name string, or null."""
    top = payload.get("top")
    if top is not None and not isinstance(top, str):
        raise HttpError(400, "'top' must be a module name string or null")
    return top


class ReproServer:
    """The async detection service over one bound session.

    Args:
        workers: ``0`` (default) serves queries in-process; ``N >= 1``
            forks N partitioned query workers and scatter-gathers every
            embedded batch across them (:mod:`repro.server.worker`) —
            results stay bit-identical to in-process serving because the
            per-partition partials merge through the engine's own
            block-maxima merge and the structural channel fuses at the
            front.  Requires a corpus loaded from disk (workers re-open
            the index root as read-only mmaps).
        max_pending: refuse ``/v1/query`` submits past this many queued
            requests with a 429 + ``Retry-After`` (``None`` = unbounded).
        log_json: emit one structured JSON access-log line per request.
    """

    def __init__(self, session, host="127.0.0.1", port=0, max_batch=256,
                 workers=0, max_pending=None, log_json=False,
                 log_stream=None):
        self.session = session
        self.host = host
        self.port = port
        self.workers = int(workers or 0)
        if self.workers and session.corpus is None:
            raise ValueError("--workers needs a corpus-backed session")
        self.batcher = MicroBatcher(self._process_query_jobs,
                                    max_batch=max_batch,
                                    max_pending=max_pending)
        self.pool = None
        self.log_json = bool(log_json)
        self._log_stream = log_stream if log_stream is not None else sys.stdout
        self.requests = 0
        self.errors = 0
        #: Accepted TCP connections (with keep-alive, many requests can
        #: share one — tests and stats use the ratio).
        self.connections = 0
        #: Requests parsed but not yet answered (drain waits on this).
        self.inflight = 0
        self.request_seconds = Histogram(LATENCY_BUCKETS_S)
        self.batch_jobs = Histogram(BATCH_SIZE_BUCKETS)
        self.scatter_seconds = Histogram(LATENCY_BUCKETS_S)
        self.started_at = None
        self._server = None
        self._writers = set()
        self._drained = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self):
        """Bind the socket and start the batch worker.  With ``port=0``
        the OS picks an ephemeral port; ``self.port`` holds the real one."""
        if self.workers and self.pool is None:
            pool = WorkerPool(self.session.corpus.index.root, self.workers)
            # Spawning + index opens block; keep the loop responsive.
            await asyncio.get_running_loop().run_in_executor(None,
                                                             pool.start)
            self.pool = pool
        await self.batcher.start()
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()
        return self

    async def stop(self):
        if self._server is not None:
            self._server.close()
            # Idle keep-alive connections sit blocked in read_request;
            # close their transports so the handler tasks wind down
            # (3.12's wait_closed waits for handlers, not just the
            # listener).
            for writer in list(self._writers):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.stop()
        if self.pool is not None:
            pool, self.pool = self.pool, None
            await asyncio.get_running_loop().run_in_executor(None, pool.stop)

    async def drain(self, timeout=30.0):
        """Graceful shutdown: stop accepting, answer what's in flight,
        then :meth:`stop` (which also stops the worker pool).

        In-flight means parsed requests whose response has not been
        written — including everything queued in the micro-batcher.
        Keep-alive connections that go idle are simply closed; ones
        that keep submitting extend the drain until ``timeout``, after
        which shutdown proceeds anyway.
        """
        if self._server is not None:
            self._server.close()  # refuse new connections, keep transports
        if self.inflight:
            self._drained = asyncio.Event()
            if self.inflight:  # re-check: last response may have just landed
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._drained.wait(), timeout)
            self._drained = None
        await self.stop()

    # -- connection handling -------------------------------------------------
    async def _handle(self, reader, writer):
        """Serve requests off one connection until it winds down.

        HTTP/1.1 keep-alive: the loop answers request after request on
        the same socket (the sync client's connection reuse depends on
        it) and exits on a clean client close, a ``Connection: close``
        request, or a framing error — after a malformed head or torn
        body the byte stream can no longer be trusted to start a next
        request.
        """
        self.connections += 1
        self._writers.add(writer)
        try:
            while True:
                request = None
                started = None
                counted = False
                try:
                    try:
                        request = await read_request(reader)
                        if request is None:
                            return  # client closed cleanly between requests
                        started = time.perf_counter()
                        # Only a *parsed* request is in flight — an idle
                        # keep-alive connection parked in read_request
                        # must not hold up a drain.
                        self.inflight += 1
                        counted = True
                        payload, status = await self._dispatch(request)
                    except Exception as exc:  # every failure -> an envelope
                        payload, status = error_envelope(exc)
                    keep_alive = (request is not None
                                  and request.headers.get("connection", "")
                                  .strip().lower() != "close")
                    self.requests += 1
                    if status >= 400:
                        self.errors += 1
                    extra = {"Retry-After": "1"} if status == 429 else None
                    writer.write(response_bytes(status, payload,
                                                keep_alive=keep_alive,
                                                extra_headers=extra))
                    await writer.drain()
                    # The clock covers encoding the reply and writing it.
                    seconds = (time.perf_counter() - started
                               if started is not None else 0.0)
                    self.request_seconds.observe(seconds)
                    if self.log_json:
                        self._access_log(writer, request, status, seconds)
                finally:
                    if counted:
                        self.inflight -= 1
                        if self._drained is not None and self.inflight == 0:
                            self._drained.set()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _access_log(self, writer, request, status, seconds):
        """One JSON line per answered request (``--log-json``)."""
        peer = writer.get_extra_info("peername")
        record = {
            "ts": round(time.time(), 6),
            "remote": peer[0] if isinstance(peer, tuple) else str(peer),
            "method": request.method if request else None,
            "path": request.path if request else None,
            "status": status,
            "seconds": round(seconds, 6),
        }
        print(json.dumps(record, sort_keys=True), file=self._log_stream,
              flush=True)

    async def _dispatch(self, request):
        route = (request.method, request.path)
        if route == ("GET", "/v1/healthz"):
            return self._healthz(), 200
        if route == ("GET", "/v1/stats"):
            return self._stats(), 200
        if route == ("POST", "/v1/fingerprint"):
            return await self._fingerprint(request.json()), 200
        if route == ("POST", "/v1/compare"):
            return await self._compare(request.json()), 200
        if route == ("POST", "/v1/query"):
            return await self._query(request.json()), 200
        known_paths = {"/v1/fingerprint", "/v1/compare", "/v1/query",
                       "/v1/healthz", "/v1/stats"}
        if request.path in known_paths:
            raise HttpError(405, f"{request.method} is not allowed on "
                                 f"{request.path}")
        raise HttpError(404, f"no route for {request.path}")

    # -- endpoints -----------------------------------------------------------
    def _healthz(self):
        corpus = self.session.corpus
        return {
            "status": "ok",
            "version": __version__,
            "designs": len(corpus) if corpus is not None else 0,
            "level": corpus.level if corpus is not None else None,
        }

    def _stats(self):
        corpus = self.session.corpus
        index = {}
        if corpus is not None:
            index = corpus.stats()
            index.pop("build", None)
        batches = self.batcher.batches
        serving = {
            "workers": self.workers,
            "mode": "scatter-gather" if self.pool is not None
                    else "in-process",
            "pending_requests": self.batcher.pending,
            "max_pending": self.batcher.max_pending,
            "rejected_requests": self.batcher.rejected,
        }
        if self.pool is not None:
            serving["worker_rows"] = self.pool.stats()
            serving["worker_respawns"] = self.pool.respawns
        return {
            "uptime_seconds": time.time() - self.started_at,
            "requests": self.requests,
            "errors": self.errors,
            "inflight": self.inflight,
            "query_batches": batches,
            "batched_requests": self.batcher.jobs,
            "mean_requests_per_batch": (self.batcher.jobs / batches
                                        if batches else 0.0),
            "serving": serving,
            "request_seconds": self.request_seconds.snapshot(),
            "batch_jobs": self.batch_jobs.snapshot(),
            "scatter_seconds": self.scatter_seconds.snapshot(),
            "index": index,
        }

    async def _fingerprint(self, payload):
        source = payload.get("source")
        if not isinstance(source, str):
            raise HttpError(400, "body must carry Verilog text in 'source'")
        label = payload.get("label")
        if label is not None and not isinstance(label, str):
            raise HttpError(400, "'label' must be a string")
        top = _top_of(payload)
        loop = asyncio.get_running_loop()
        fingerprint = await loop.run_in_executor(
            None, lambda: self.session.fingerprint(
                source, top=top, label=label, allow_paths=False))
        return fingerprint.as_dict()

    async def _compare(self, payload):
        sides = []
        for side in ("a", "b"):
            suspect = payload.get(side)
            if isinstance(suspect, dict):
                suspect = suspect.get("source")
            if not isinstance(suspect, str):
                raise HttpError(400, f"body must carry Verilog text in "
                                     f"'{side}' (string or "
                                     f"{{'source': ...}})")
            sides.append(suspect)
        top = _top_of(payload)
        loop = asyncio.get_running_loop()
        comparison = await loop.run_in_executor(
            None, lambda: self.session.compare(sides[0], sides[1], top=top,
                                               allow_paths=False))
        return comparison.as_dict()

    async def _query(self, payload):
        if self.session.corpus is None:
            raise HttpError(400, "this server has no corpus bound")
        sources, vectors, labels = _parse_suspects(payload)
        top = _top_of(payload)
        k = payload.get("k", 5)
        nprobe = payload.get("nprobe")
        exact = payload.get("exact", False)
        if not isinstance(exact, bool):
            raise HttpError(400, "'exact' must be a boolean")
        if not _is_int(k) or k < 0:
            raise HttpError(400, "'k' must be a non-negative integer")
        if nprobe is not None and (not _is_int(nprobe) or nprobe < 1):
            raise HttpError(400, "'nprobe' must be a positive integer")
        if vectors is not None:
            try:
                stacked = np.asarray(vectors, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise HttpError(400, f"malformed vector suspects: {exc}") \
                    from exc
            if stacked.ndim != 2:
                bad = next((i for i, v in enumerate(vectors)
                            if np.ndim(v) != 1), 0)
                raise HttpError(400, f"suspects[{bad}].vector must be a "
                                     f"flat list of numbers")
            vectors = stacked
        job = QueryJob(suspects=sources, vectors=vectors, labels=labels,
                       k=k, nprobe=nprobe, exact=exact, top=top,
                       allow_paths=False)
        try:
            results = await self.batcher.submit(job)
        except BacklogFull as exc:
            raise HttpError(429, f"server is at capacity: {exc}") from exc
        serving = self.session.corpus.serving_description(
            nprobe=nprobe, exact=exact, sources=sources is not None)
        return query_reply(results, serving)

    # -- the batch processor (runs in the executor) --------------------------
    def _process_query_jobs(self, jobs):
        """Serve a gulp of query jobs through :meth:`Session.query_jobs`
        (the pipeline ``Session.query`` runs), scatter-gathered across
        the worker pool when there is one."""
        self.batch_jobs.observe(len(jobs))
        score = self._scatter if self.pool is not None else None
        return self.session.query_jobs(jobs, score=score)

    def _scatter(self, vectors, offsets, regions, k, delta, nprobe, exact,
                 struct):
        """Score one group on the workers: each scores its shard
        partition and returns mergeable partials.  The engine's
        block-maxima merge plus fusion at the front (workers never see
        struct scores, only which groups *have* them) keeps the hits
        bit-identical to the in-process ``QueryEngine.query_groups``."""
        fused = None if struct is None else [s is not None for s in struct]
        started = time.perf_counter()
        partials = self.pool.scatter(vectors, offsets, regions, k=k,
                                     delta=delta, nprobe=nprobe,
                                     exact=exact, fused=fused)
        self.scatter_seconds.observe(time.perf_counter() - started)
        return self.session.corpus.index.engine.merge(
            partials, offsets, regions, k=k, delta=delta, struct=struct)
