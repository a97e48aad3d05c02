"""Partitioned query workers and the front-side pool that drives them.

``gnn4ip serve --workers N`` forks N query workers with a spawn
context.  Each worker opens the index scoped to a disjoint partition
of the shard *files* (:func:`repro.index.shards.assign_partitions`)
as read-only mmaps — the OS page cache shares the bytes, so N workers
cost no extra index memory — and answers
:meth:`~repro.index.engine.QueryEngine.partial` requests for its
partition over a unix-domain socket in a ``0700`` temp directory (see
:mod:`repro.server.protocol` for framing and the trust argument).

The front scatters every embedded batch to all workers and merges the
per-partition partials with the engine's block-maxima merge
(:meth:`~repro.index.engine.QueryEngine.merge`), which keeps results
bit-identical to single-process serving.  Workers never see the
structural channel: WL-signature scores join at the front, after the
per-partition embed/struct rank candidates are merged (fuse at the
front, not in the workers).

Worker processes inherit single-thread BLAS caps: with one worker per
core, intra-gemm threading would only oversubscribe, and capping both
sides keeps the 1-worker vs N-worker comparison honest.
"""

import multiprocessing
import os
import shutil
import socket
import tempfile
import time

from repro.api.facade import Corpus
from repro.errors import ReproError
from repro.server.protocol import ProtocolError, recv_msg, send_msg

#: Exported to worker processes around spawn (existing values win).
BLAS_CAPS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Ceiling on worker startup (spawn + index open + hello).
START_TIMEOUT_S = 120.0
#: Ceiling on one partial query; a worker past this is treated as dead.
REPLY_TIMEOUT_S = 600.0


class WorkerPoolError(Exception):
    """A worker died or desynchronized mid-query.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the client
    did nothing wrong, so the HTTP layer maps this to a 500 envelope
    rather than a 4xx.  The pool respawns the lost worker before the
    next scatter.
    """


def worker_main(socket_path, which, count, index_dir):
    """Entry point of one query worker process.

    Opens the index scoped to partition ``which`` of ``count``, sends
    a hello frame (partition row count and shard ordinals), then
    serves ``query`` requests until a ``stop`` frame or the channel
    closes.  Query-time :class:`~repro.errors.ReproError` (and any
    other exception) is reported back as an ``error`` frame instead of
    killing the worker.

    Fault injection: a ``crash_next`` frame arms the worker to
    ``os._exit`` on its *next* query without replying — the only
    deterministic way to exercise the front's died-mid-query path
    (a worker killed while idle is transparently respawned before the
    next scatter and no request ever fails).
    """
    corpus = Corpus.open(index_dir, partition=(which, count))
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(socket_path)
    crash_next = False
    try:
        send_msg(sock, {"op": "hello", "worker": which, "pid": os.getpid(),
                        "rows": corpus.partition_rows,
                        "shards": corpus.partition})
        while True:
            try:
                msg = recv_msg(sock)
            except (EOFError, ProtocolError, OSError):
                break
            op = msg.get("op")
            if op == "stop":
                break
            if op == "crash_next":
                crash_next = True
                continue
            if op != "query":
                send_msg(sock, {"op": "error", "id": msg.get("id"),
                                "kind": "ProtocolError",
                                "message": f"unknown op {op!r}"})
                continue
            if crash_next:
                os._exit(1)
            try:
                partial = corpus.index.engine.partial(
                    msg["vectors"], msg["offsets"], msg["regions"],
                    k=msg["k"], delta=msg["delta"], nprobe=msg["nprobe"],
                    exact=msg["exact"], fused=msg["fused"],
                    shards=corpus.partition)
                reply = {"op": "result", "id": msg["id"], "partials": partial}
            except Exception as exc:
                reply = {"op": "error", "id": msg["id"],
                         "kind": type(exc).__name__, "message": str(exc)}
            send_msg(sock, reply)
    finally:
        sock.close()


class _Member:
    """One live worker: its process, channel, and hello-reported stats."""

    __slots__ = ("process", "conn", "rows", "shards", "pid")

    def __init__(self, process, conn, rows, shards, pid):
        self.process = process
        self.conn = conn
        self.rows = int(rows)
        self.shards = list(shards)
        self.pid = int(pid)


class WorkerPool:
    """Spawn, feed, and supervise the partitioned query workers.

    :meth:`scatter` is called from the MicroBatcher's executor thread,
    which serializes batches — at most one scatter is ever in flight,
    so plain blocking socket I/O here never stalls the event loop and
    needs no per-connection locking.

    Args:
        index_dir: index root every worker opens (read-only mmaps).
        workers: partition count; worker ``i`` owns partition ``i``.
    """

    def __init__(self, index_dir, workers,
                 start_timeout_s=START_TIMEOUT_S,
                 reply_timeout_s=REPLY_TIMEOUT_S):
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"worker count must be >= 1, got {workers}")
        self.index_dir = str(index_dir)
        self.workers = workers
        self.respawns = 0
        self._start_timeout = float(start_timeout_s)
        self._reply_timeout = float(reply_timeout_s)
        self._ctx = multiprocessing.get_context("spawn")
        self._dir = None
        self._path = None
        self._listener = None
        self._members = {}
        self._next_id = 0

    # -- lifecycle ---------------------------------------------------

    def start(self):
        """Spawn all workers and wait for their hellos; returns self."""
        if self._listener is not None:
            return self
        self._dir = tempfile.mkdtemp(prefix="gnn4ip-serve-")
        self._path = os.path.join(self._dir, "workers.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self._path)
        listener.listen(self.workers)
        self._listener = listener
        try:
            self._spawn_members(range(self.workers))
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self):
        """Stop workers (polite stop frame, then terminate) and clean up."""
        for member in self._members.values():
            try:
                send_msg(member.conn, {"op": "stop"})
            except OSError:
                pass
        for member in self._members.values():
            try:
                member.conn.close()
            except OSError:
                pass
            member.process.join(timeout=5)
            if member.process.is_alive():
                member.process.terminate()
                member.process.join(timeout=5)
        self._members.clear()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
            self._path = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    # -- supervision -------------------------------------------------

    def _spawn_members(self, which_ids):
        """Spawn the given partitions and collect their hellos.

        BLAS caps are exported around the spawn (the child copies the
        environment at exec time) and restored afterwards; the parent's
        already-loaded BLAS is unaffected either way.
        """
        which_ids = list(which_ids)
        if not which_ids:
            return
        saved = {var: os.environ.get(var) for var in BLAS_CAPS}
        for var, val in BLAS_CAPS.items():
            os.environ.setdefault(var, val)
        try:
            pending = {}
            for which in which_ids:
                proc = self._ctx.Process(
                    target=worker_main,
                    args=(self._path, which, self.workers, self.index_dir),
                    daemon=True, name=f"gnn4ip-worker-{which}")
                proc.start()
                pending[which] = proc
        finally:
            for var, prev in saved.items():
                if prev is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = prev
        deadline = time.monotonic() + self._start_timeout
        while pending:
            for which, proc in pending.items():
                if not proc.is_alive():
                    raise WorkerPoolError(
                        f"worker {which} exited with code {proc.exitcode} "
                        f"before reporting ready")
            if time.monotonic() > deadline:
                raise WorkerPoolError(
                    f"workers {sorted(pending)} failed to report ready "
                    f"within {self._start_timeout:.0f}s")
            self._listener.settimeout(0.2)
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            conn.settimeout(self._reply_timeout)
            hello = recv_msg(conn)
            which = int(hello["worker"])
            proc = pending.pop(which, None)
            if proc is None:
                conn.close()
                raise WorkerPoolError(
                    f"unexpected hello from worker {which}")
            self._members[which] = _Member(proc, conn, hello["rows"],
                                           hello["shards"], hello["pid"])

    def _bury(self, which):
        member = self._members.pop(which, None)
        if member is None:
            return
        try:
            member.conn.close()
        except OSError:
            pass
        if member.process.is_alive():
            member.process.terminate()
        member.process.join(timeout=5)

    def _ensure_members(self):
        """Respawn any dead workers so the pool covers every partition."""
        for which in range(self.workers):
            member = self._members.get(which)
            if member is not None and not member.process.is_alive():
                self._bury(which)
        missing = [w for w in range(self.workers) if w not in self._members]
        if missing:
            self.respawns += len(missing)
            self._spawn_members(missing)

    # -- queries -----------------------------------------------------

    def scatter(self, vectors, offsets, regions=None, k=5, delta=0.0,
                nprobe=None, exact=False, fused=None):
        """Fan one batch out to every worker; partials in partition order.

        The returned list feeds
        :meth:`~repro.index.engine.QueryEngine.merge`, whose block-maxima
        merge makes the final hits bit-identical to a single-process
        :meth:`~repro.index.engine.QueryEngine.query_groups` call.

        Raises:
            ReproError: re-raised worker-side query errors (same type
                name, so the HTTP envelope matches single-process).
            WorkerPoolError: a worker died or desynchronized; the lost
                workers are respawned before this raises, so the *next*
                request sees a full pool.
        """
        self._ensure_members()
        self._next_id += 1
        msg = {"op": "query", "id": self._next_id, "vectors": vectors,
               "offsets": offsets, "regions": regions, "k": k,
               "delta": delta, "nprobe": nprobe, "exact": exact,
               "fused": fused}
        dead = []
        replies = {}
        members = sorted(self._members.items())
        for which, member in members:
            try:
                send_msg(member.conn, msg)
            except OSError:
                dead.append(which)
        # Drain every surviving worker before raising anything, or the
        # next scatter would read this batch's stale reply frames.
        for which, member in members:
            if which in dead:
                continue
            try:
                reply = recv_msg(member.conn)
            except (EOFError, ProtocolError, OSError):
                dead.append(which)
                continue
            if reply.get("id") != msg["id"]:
                dead.append(which)
                continue
            replies[which] = reply
        if dead:
            for which in dead:
                self._bury(which)
            self._ensure_members()
            raise WorkerPoolError(
                f"worker(s) {sorted(set(dead))} died mid-query; "
                f"respawned — retry the request")
        for which in sorted(replies):
            reply = replies[which]
            if reply.get("op") == "error":
                self._raise_remote(reply)
        return [replies[which]["partials"] for which in sorted(replies)]

    @staticmethod
    def _raise_remote(reply):
        """Re-raise a worker-side error under its original ReproError
        type when possible (keeps HTTP status parity with in-process
        serving); anything else becomes a WorkerPoolError → 500."""
        import repro.errors as _errors
        cls = getattr(_errors, str(reply.get("kind")), None)
        if isinstance(cls, type) and issubclass(cls, ReproError):
            raise cls(reply.get("message", "worker query failed"))
        raise WorkerPoolError(
            f"worker query failed: {reply.get('kind')}: "
            f"{reply.get('message')}")

    # -- introspection -----------------------------------------------

    @property
    def members(self):
        """Live workers as ``{partition: _Member}`` (read-only view)."""
        return dict(self._members)

    def stats(self):
        """Per-worker stats for ``/v1/stats`` (partition order)."""
        out = []
        for which in range(self.workers):
            member = self._members.get(which)
            if member is None:
                out.append({"worker": which, "alive": False})
            else:
                out.append({"worker": which,
                            "alive": member.process.is_alive(),
                            "pid": member.pid,
                            "rows": member.rows,
                            "shards": member.shards})
        return out
