"""Fixed-bucket histograms for the serving ops surface.

``/v1/stats`` reports request latency, micro-batch size, and scatter
latency as cumulative-bucket histograms (Prometheus-style ``le``
buckets) plus exact count/sum/max.  Quantiles are read off the bucket
table — each reported percentile is the upper bound of the bucket the
rank falls in, an *upper estimate* whose resolution is the bucket
spacing.  Observation is O(#buckets) with no allocation, so it sits on
the per-request hot path without showing up in the latency it measures.
"""

import bisect
import threading

#: Log-spaced seconds: 1 ms .. 10 s covers a cold mmap page walk on the
#: slow end and single-vector responses on the fast end.
LATENCY_BUCKETS_S = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                     0.25, 0.5, 1.0, 2.5, 5.0, 10.0)
#: Powers of two up to the default ``max_batch``.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Histogram:
    """Cumulative fixed-bucket histogram, thread-safe.

    Observed from both the event loop (request latency) and the
    executor thread (batch sizes), hence the lock — contention is nil
    at the service's request rates.
    """

    def __init__(self, buckets):
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +overflow
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._lock = threading.Lock()

    def observe(self, value):
        value = float(value)
        slot = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[slot] += 1
            self.count += 1
            self.total += value
            if value > self.max:
                self.max = value

    def quantile(self, q):
        """Upper-bound estimate of the q-quantile (0 < q <= 1)."""
        with self._lock:
            count = self.count
            counts = list(self._counts)
        if not count:
            return 0.0
        rank = q * count
        seen = 0
        for slot, bucket_count in enumerate(counts):
            seen += bucket_count
            if seen >= rank:
                if slot < len(self.buckets):
                    return self.buckets[slot]
                return self.max  # overflow bucket: only the max bounds it
        return self.max

    def snapshot(self):
        """JSON-ready view for ``/v1/stats``."""
        with self._lock:
            count = self.count
            total = self.total
            peak = self.max
            counts = list(self._counts)
        cumulative = {}
        seen = 0
        for bucket, bucket_count in zip(self.buckets, counts):
            seen += bucket_count
            cumulative[f"{bucket:g}"] = seen
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "max": peak,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": cumulative,
        }
