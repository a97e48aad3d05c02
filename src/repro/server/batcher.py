"""Micro-batching request queue.

Concurrent requests land in one queue; a single worker drains it in
gulps and hands each gulp to a batch processor, so suspects that arrive
together are embedded in one packed forward pass and scored with one
BLAS matmul instead of one pass per request.

Batching is continuous: as soon as the worker is free it takes
everything already queued, so requests that arrive while a pass runs
in the executor form the next gulp.  The running pass is the collection
window; there is no timer, and a request that finds the worker idle
starts at once.  64 concurrent single-suspect requests still cost
roughly one 64-row batch instead of 64 1-row batches (see
``benchmarks/bench_query.py``'s served-vs-in-process floor).

Backpressure: with ``max_pending`` set, a submit that would push the
queue past the cap is refused with :class:`BacklogFull` instead of
letting latency grow without bound — the HTTP layer turns that into a
429 with a ``Retry-After`` header, which load balancers and well-behaved
clients treat as "shed to another replica / back off".
"""

import asyncio


class BacklogFull(Exception):
    """Submit refused: the pending-job queue is at ``max_pending``."""


class MicroBatcher:
    """Coalesce concurrently submitted jobs into batched processing.

    Args:
        process: ``callable(list[job]) -> list[result]`` run in the
            default executor (numpy work releases the GIL inside BLAS,
            so the event loop keeps accepting connections).  Must return
            one result per job, in order; a returned ``Exception``
            instance fails only that job's waiter, while an exception
            *raised* by the callable fails the whole gulp.
        max_batch: hard cap on jobs per gulp.
        max_pending: refuse submits past this many queued jobs
            (``None`` = unbounded, the historical behavior).
    """

    def __init__(self, process, max_batch=256, max_pending=None):
        self._process = process
        self.max_batch = max_batch
        self.max_pending = max_pending
        self._queue = None
        self._worker = None
        #: Gulps processed / jobs processed — served via ``/v1/stats`` so
        #: operators (and the benchmark) can see coalescing happen.
        self.batches = 0
        self.jobs = 0
        #: Submits refused by the ``max_pending`` cap.
        self.rejected = 0

    async def start(self):
        self._queue = asyncio.Queue()
        self._worker = asyncio.create_task(self._run())

    async def stop(self):
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None

    @property
    def pending(self):
        """Jobs queued and not yet gulped (the backpressure gauge)."""
        return self._queue.qsize() if self._queue is not None else 0

    async def submit(self, job):
        """Enqueue one job and wait for its result.

        Raises:
            BacklogFull: the queue is at ``max_pending`` — nothing was
                enqueued; the caller should shed the request.
        """
        if (self.max_pending is not None
                and self._queue.qsize() >= self.max_pending):
            self.rejected += 1
            raise BacklogFull(
                f"{self._queue.qsize()} requests already pending "
                f"(max_pending={self.max_pending})")
        future = asyncio.get_running_loop().create_future()
        await self._queue.put((job, future))
        return await future

    async def _run(self):
        loop = asyncio.get_running_loop()
        while True:
            # Everything queued while the previous pass ran is one gulp.
            batch = [await self._queue.get()]
            while len(batch) < self.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            jobs = [job for job, _ in batch]
            try:
                results = await loop.run_in_executor(None, self._process,
                                                     jobs)
            except Exception as exc:
                for _, future in batch:
                    if not future.done():
                        future.set_exception(exc)
                continue
            self.batches += 1
            self.jobs += len(jobs)
            for (_, future), result in zip(batch, results):
                if future.done():
                    continue
                if isinstance(result, Exception):
                    future.set_exception(result)
                else:
                    future.set_result(result)
