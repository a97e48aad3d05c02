"""IVF coarse quantizer: pure-numpy spherical k-means over stored rows.

An exact top-k query scores the suspect against every stored fingerprint.
That is one BLAS matmul — fast, but linear in the corpus.  The IVF
(inverted-file) pre-filter makes it sublinear: k-means clusters the unit
embedding rows once at build time, each query probes only the ``nprobe``
clusters whose centroids score highest, and the rows of those clusters
are re-ranked with **exact** dot products.  Results are approximate only
in which rows make the candidate pool; scores are never approximated.
``benchmarks/bench_query.py`` enforces the recall@10 floor.

This module owns the quantizer only: :meth:`IVFIndex.probe` returns the
probed *cluster ids*, and :meth:`IVFIndex.inverted_lists` the row ids in
cluster order.  The lists that carry the vectors themselves live in the
query engine (:mod:`repro.index.engine`), which gathers each partition's
rows into cluster order once and scores probed clusters as contiguous
slices of that copy.

The quantizer grows in place: ``IVFIndex.add`` assigns new rows to their
nearest existing centroid, so an append (``index add``) never re-runs
k-means or touches existing assignments until :func:`ivf_plan` says the
growth since the last fit calls for a re-fit.  Persistence is a single
``ivf.npz`` (centroids + per-row assignments) written atomically; the
inverted lists are rebuilt from the assignments at load time (one argsort
over int32 row ids — microseconds at corpus scale).
"""

import zipfile
from pathlib import Path

import numpy as np

from repro.errors import IndexStoreError

#: Legacy fixed quantizer file name; current indexes reference a
#: generation-named ``ivf-NNNNN.npz`` from ``meta.json`` so a rebuild
#: never overwrites the file the live metadata points at.
IVF_NAME = "ivf.npz"


def ivf_filename(ordinal):
    """Generation-named quantizer file for a build/add ordinal."""
    return f"ivf-{ordinal:05d}.npz"


#: Probe count used when a query does not choose one: with sqrt-scaled
#: cluster counts this keeps recall@10 well above 0.95 on clustered
#: corpora (see benchmarks/bench_query.py) at a fraction of exact cost.
DEFAULT_NPROBE = 8
#: Corpora below this size are served exactly; an IVF would only add
#: overhead (and k-means over a handful of rows is meaningless).
MIN_ROWS = 256
#: Re-fit (instead of grow) the quantizer when the rows appended since
#: the last k-means fit exceed this fraction of the fitted row count:
#: assign-only growth never moves centroids, so recall drifts down as
#: the corpus outgrows the distribution the centroids were fitted on.
REFIT_GROWTH = 0.5


def ivf_plan(rows, new_rows=0, current=None, fitted_rows=0):
    """The one quantizer policy for a store that now holds ``rows`` rows.

    Args:
        rows: stored rows after the write, ``new_rows`` of them new.
        current: the quantizer the index held before the write, or
            ``None`` (never fitted, missing, or corrupt).
        fitted_rows: how many rows ``current``'s last k-means saw.

    Returns:
        ``"grow"`` when ``current`` covers exactly the rows stored before
        the write and the rows added since its fit stay within
        ``max(MIN_ROWS, REFIT_GROWTH * fitted_rows)`` (new rows then join
        their nearest centroid); otherwise ``"fit"`` from every row when
        the store holds at least :data:`MIN_ROWS`; else ``None`` (serve
        exactly).
    """
    if (current is not None and current.rows == rows - new_rows
            and rows - fitted_rows
            <= max(MIN_ROWS, int(REFIT_GROWTH * fitted_rows))):
        return "grow"
    return "fit" if rows >= MIN_ROWS else None


def default_clusters(rows):
    """sqrt-scaled cluster count, the usual IVF sizing rule."""
    return max(4, min(1024, int(round(rows ** 0.5))))


class IVFIndex:
    """Coarse quantizer + inverted lists over the stored embedding rows."""

    def __init__(self, centroids, assignments):
        self.centroids = np.ascontiguousarray(centroids, dtype=np.float32)
        self.assignments = np.ascontiguousarray(assignments,
                                                dtype=np.int32)
        self._lists = None

    @property
    def n_clusters(self):
        return int(self.centroids.shape[0])

    @property
    def rows(self):
        return int(self.assignments.shape[0])

    # -- construction --------------------------------------------------------
    @classmethod
    def fit(cls, unit_matrix, n_clusters=None, seed=0, iterations=12):
        """Spherical k-means over unit rows (cosine == dot for unit data).

        Pure numpy: assignment is one matmul per iteration, centroid
        updates are per-dimension ``bincount`` sums.  Empty clusters are
        reseeded from random rows between iterations; a run ended by the
        iteration cap may still finish with a few unused centroids,
        which cost a probe slot but are otherwise harmless (their
        inverted lists are empty).  Deterministic for a given
        (matrix, n_clusters, seed).
        """
        matrix = np.ascontiguousarray(unit_matrix, dtype=np.float32)
        rows = matrix.shape[0]
        if rows == 0:
            raise IndexStoreError("cannot fit an IVF over an empty store")
        if n_clusters is None:
            n_clusters = default_clusters(rows)
        n_clusters = min(n_clusters, rows)
        rng = np.random.default_rng(seed)
        centroids = matrix[rng.choice(rows, size=n_clusters,
                                      replace=False)].copy()
        assign = np.full(rows, -1, dtype=np.int64)
        for _ in range(iterations):
            new_assign = np.argmax(matrix @ centroids.T, axis=1)
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
            counts = np.bincount(assign, minlength=n_clusters)
            sums = np.empty((n_clusters, matrix.shape[1]), dtype=np.float64)
            for dim in range(matrix.shape[1]):
                sums[:, dim] = np.bincount(assign, weights=matrix[:, dim],
                                           minlength=n_clusters)
            empty = counts == 0
            if empty.any():
                sums[empty] = matrix[rng.choice(rows, size=int(empty.sum()))]
            norms = np.linalg.norm(sums, axis=1, keepdims=True)
            centroids = (sums / np.maximum(norms, 1e-12)).astype(np.float32)
        # One final assignment against the *returned* centroids: when the
        # iteration cap ends the loop right after a centroid update, the
        # loop-carried assignments describe the previous centroids and
        # the persisted inverted lists would disagree with probe()'s
        # centroid ranking.
        assign = np.argmax(matrix @ centroids.T, axis=1)
        return cls(centroids, assign.astype(np.int32))

    def assign(self, unit_vectors):
        """Nearest-centroid id for each (unit) vector."""
        vectors = np.ascontiguousarray(unit_vectors, dtype=np.float32)
        return np.argmax(vectors @ self.centroids.T, axis=1).astype(np.int32)

    def add(self, unit_vectors):
        """Append new rows (assigned to existing centroids) in place."""
        if len(unit_vectors):
            self.assignments = np.concatenate(
                [self.assignments, self.assign(unit_vectors)])
            self._lists = None

    # -- probing -------------------------------------------------------------
    def effective_nprobe(self, nprobe):
        """The probe count actually used for a requested value.

        ``None`` means :data:`DEFAULT_NPROBE`; everything is clamped to
        ``[1, n_clusters]``.  The single source of truth for both the
        probe itself and any user-facing report of it.
        """
        if nprobe is None:
            nprobe = DEFAULT_NPROBE
        return max(1, min(int(nprobe), self.n_clusters))

    def inverted_lists(self):
        """(row_ids sorted by cluster, per-cluster start offsets).

        Cluster ``c`` holds ``row_ids[starts[c]:starts[c + 1]]``, in
        ascending row order.  Cached until :meth:`add` changes the
        assignments.
        """
        if self._lists is None:
            order = np.argsort(self.assignments, kind="stable")
            counts = np.bincount(self.assignments,
                                 minlength=self.n_clusters)
            starts = np.concatenate(([0], np.cumsum(counts)))
            self._lists = (order.astype(np.int64), starts.astype(np.int64))
        return self._lists

    def probe(self, unit_queries, nprobe=None):
        """The probed clusters for a batch of queries.

        Returns an ``(n, nprobe)`` array of cluster ids: row ``i`` holds
        the :meth:`effective_nprobe` clusters whose centroids score
        highest against query ``i``, in no particular order.  The engine
        re-ranks the rows of those clusters exactly.
        """
        queries = np.ascontiguousarray(unit_queries, dtype=np.float32)
        nprobe = self.effective_nprobe(nprobe)
        if nprobe == self.n_clusters:
            return np.broadcast_to(np.arange(self.n_clusters),
                                   (len(queries), self.n_clusters))
        scores = queries @ self.centroids.T
        return np.argpartition(-scores, nprobe - 1, axis=1)[:, :nprobe]

    # -- persistence ---------------------------------------------------------
    def save(self, path):
        """Write ``ivf.npz`` atomically (temp file + rename)."""
        path = Path(path)
        tmp = path.with_suffix(".tmp.npz")
        np.savez(tmp, centroids=self.centroids,
                 assignments=self.assignments)
        tmp.replace(path)

    @classmethod
    def load(cls, path):
        try:
            with np.load(path, allow_pickle=False) as data:
                return cls(data["centroids"], data["assignments"])
        except (OSError, KeyError, ValueError,
                zipfile.BadZipFile) as exc:
            raise IndexStoreError(
                f"corrupt IVF quantizer at {path}: {exc} "
                f"(rebuild the index or delete the file to serve "
                f"exact-only)") from exc
