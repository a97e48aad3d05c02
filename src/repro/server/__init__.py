"""Long-lived asyncio detection service over the public facade.

``gnn4ip serve <index_dir>`` (or :func:`run` programmatically) keeps one
:class:`~repro.api.facade.Session` hot — model weights, featurizer,
frontend, and the memory-mapped query engine load once — and serves
``/v1/fingerprint``, ``/v1/query``, ``/v1/compare``, ``/v1/healthz``,
and ``/v1/stats`` with micro-batched request coalescing (see
:mod:`repro.server.batcher`).  Pure stdlib: asyncio + json, no web
framework.
"""

import asyncio
import contextlib
import signal

from repro.server.app import ReproServer, error_envelope
from repro.server.batcher import MicroBatcher
from repro.server.http import HttpError, Request, read_request, response_bytes

__all__ = [
    "ReproServer", "MicroBatcher", "HttpError", "Request",
    "read_request", "response_bytes", "error_envelope", "run",
]


def _announce(message):
    """Default announcer: flushed, so subprocess pipes see the port line
    immediately (stdout is block-buffered under a pipe)."""
    print(message, flush=True)


def _routes(corpus):
    """How the corpus scores queries by default: one description, or
    one per query kind where vector and source queries differ (a signed
    index fuses source queries and scores them exactly)."""
    vectors = corpus.serving_description()
    sources = corpus.serving_description(sources=True)
    if vectors == sources:
        return vectors
    return f"vectors {vectors}, sources {sources}"


def run(session, host="127.0.0.1", port=8000, max_batch=256, workers=0,
        max_pending=None, log_json=False, drain_timeout_s=30.0,
        announce=_announce):
    """Serve ``session`` until SIGINT/SIGTERM; returns a process exit code.

    Announces ``serving on http://host:port`` (the real port, so
    ``--port 0`` callers — CI smoke jobs, tests — can parse it) before
    blocking.  ``workers >= 1`` turns on scatter-gather serving over a
    partitioned worker pool (:mod:`repro.server.worker`).  A signal
    triggers a graceful drain: the listener closes first, in-flight
    requests finish (up to ``drain_timeout_s``), then the batcher and
    the worker pool stop.
    """

    async def _main():
        server = ReproServer(session, host=host, port=port,
                             max_batch=max_batch,
                             workers=workers, max_pending=max_pending,
                             log_json=log_json)
        await server.start()
        corpus = session.corpus
        if corpus is not None:
            announce(f"index: {len(corpus)} designs at level "
                     f"{corpus.level} ({_routes(corpus)})")
        if server.pool is not None:
            rows = [w.get("rows", 0) for w in server.pool.stats()]
            announce(f"workers: {server.workers} partitions "
                     f"(rows per worker: {rows})")
        announce(f"serving on http://{server.host}:{server.port}")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop.set)
        try:
            await stop.wait()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        announce("draining (in-flight requests finish, listener closed)")
        await server.drain(timeout=drain_timeout_s)
        announce("shutdown complete")
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        return 0
