"""Batched sublinear query serving over the memory-mapped shard store.

One :class:`QueryEngine` turns the stored corpus into a lookup service
with **one query path**: every query is scatter-gather over groups of
query parts.  The worker half (:meth:`~QueryEngine.partial`) scores a
subset of the shard files and returns mergeable partials; the gather
half (:meth:`~QueryEngine.merge`) reduces disjoint partials to ranked
hits (:class:`~repro.index.match.Match` rows, built once with their
ranks).  The in-process entry points are that pipeline over a single
partition holding every shard — ``query_groups`` is
``merge([partial(...)])`` and ``query_many(v)`` is ``query_groups``
over single-part groups — so single-process and multi-worker serving
agree bit for bit by construction.

- **Batched scoring** — a whole batch of suspects is scored against each
  shard with one BLAS matmul per shard, instead of one pass per suspect.
  Single-row batches are padded to two rows before the matmul so BLAS
  always takes the same gemm kernel: a lone query vector is
  **bit-identical** to the same vector inside any batch (OpenBLAS routes
  1-row gemms to a differently-rounded kernel otherwise).  A row's score
  never depends on which partition scored it.
- **One top-k routine** — every ranking boundary (per-row hits,
  partition partials, their merge, parent ranking, fused ranking)
  selects through ``_top_sel``: ``argpartition`` (O(n)) plus a sort of
  only ``k`` survivors, never a full ``argsort`` of the corpus; long
  rows first keep their ``k`` best score blocks.  Ties order by a total
  key (lower row / parent id) *including* at the top-k boundary, so a
  partition's top-k always contains every row of the global top-k it
  owns — the property merging relies on.  A partial is therefore
  already ranked under the merge's order: the one-partition merge
  behind ``query_many`` turns it into hits without selecting again.
- **IVF pre-filter** — with a fitted :class:`~repro.index.ann.IVFIndex`,
  only the rows in the ``nprobe`` best clusters are scored (exact dot
  products, so scores are never approximated — only the candidate pool
  is).  The inverted lists carry their vectors: the first IVF pass over
  a shard subset gathers that partition's rows once into cluster order
  (``rows x hidden`` float32, one resident copy per partition) and
  records each cluster's angular radius ``theta_c``, the largest angle
  between its centroid and a row it holds.  No row of cluster ``c``
  scores above ``cos(max(0, angle(q, c) - theta_c))`` against a unit
  query ``q``, so each pass runs in two steps, with no loop over
  clusters: it scores every query's highest-bound probed cluster in
  place (a contiguous slice of the resident copy) and takes that
  cluster's k-th score as the query's floor, then gathers, with one
  ``np.take`` for the batch, only the other probed clusters whose bound
  (plus a float32 slack) reaches the floor, and scores each query
  against its own slice.  The skipped clusters cannot hold a row of the
  probed pool's top-k, boundary ties included, so hits and score bits
  are those of scoring the whole pool.  On a 50k-row, 224-cluster
  store, a 32-vector k=10 pass at the default 8 probes scores about
  23,000 rows instead of 58,800.  ``exact=True`` is the escape hatch
  that bypasses the quantizer entirely.
- **Chunk aggregation** — a v4 index stores extra rows for subgraph
  chunks (:mod:`repro.index.chunks`); a :class:`RowMap` says which
  design each row belongs to.  ``query_groups`` scores a *group* of
  query parts (the whole suspect plus its own chunks) against every
  stored row, reduces to one score per parent design (block maximum over
  the part x row score matrix), and ranks parents by best score, then
  coverage (the fraction of the parent's rows above ``delta``), then
  id.  Hits carry the matching evidence: which stored region matched
  (``region``), which suspect region matched it (``query_region``), and
  the coverage.
  Vector queries on an index without chunk rows never enter this
  path — ``query_many`` on it is bit-identical to v3 serving.
- **Two reductions, one routing predicate** — plain per-row top-k and
  per-parent aggregation stay separate reductions even though a
  chunk-less row is its own parent and aggregation would rank it
  identically: the parent reduction pays ``np.unique`` plus scatter
  (``ufunc.at``) passes over every candidate row and builds coverage
  evidence nobody reads.  Routed through it, a 32-vector, k=10 IVF pass
  over a 50k-row, 4-shard chunk-less index takes about 33 ms instead of
  2.9 ms (one Xeon core, BLAS on one thread).  Both halves pick the
  reduction with one private predicate (``_row_route``): per-row when the
  engine holds no chunk rows, no fusion is asked for and every group
  holds exactly one part; per-parent otherwise.  Nothing above the
  engine routes a query.
- **Structural rank fusion** — when the caller also supplies per-group
  structural scores (:mod:`repro.index.wlsig` reverse-containment, one
  score per parent design), parents are ranked by the *better of their
  two channel ranks*: the embedding channel (suspect chunks vs stored
  chunk rows) finds regions the encoder separates, the structural
  channel finds regions it cannot.  The reported ``score`` then becomes
  the delta-comparable whole-suspect vs whole-design cosine — chunk
  cosines live in a saturated region of the embedding space and must
  not be compared against the decision boundary — while ``via`` /
  ``region`` / ``query_region`` / ``coverage`` keep describing the best
  raw (part, row) pairing as locality evidence.  Fused queries always
  score exactly: the structural channel visits every stored design
  anyway, so the IVF shortcut buys nothing there.  The structural
  channel ranks every stored design globally, so it is never computed
  in partials: ``struct`` goes to :meth:`~QueryEngine.merge` and
  fusion happens once, after the merge ("fuse at the front").

Partitions are whole shard files
(:func:`repro.index.shards.assign_partitions`).  Duplicate content keys
reuse the stored vector bit-for-bit, so exact score ties are real on
corpora with duplicate designs; the deterministic tie orders above keep
every partition layout on the same answer.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import IndexStoreError
from repro.index.match import Match

#: Why :meth:`QueryEngine.check_vectors` refuses an all-zero client
#: vector: it has no direction, so it scores 0.0 against every row and
#: flags nothing.
ZERO_VECTOR_MESSAGE = ("query vectors must not be all zero (a zero vector "
                       "scores 0.0 against every row)")

#: Slack added to a cluster's score bound before it is compared with a
#: query's floor: covers float32 rounding in the scores on both sides
#: of the comparison (a float32 dot of unit vectors errs by at most
#: about ``hidden`` units in the last place).
_BOUND_SLACK = 1e-5

#: Row-segment width for two-stage exact top-k: a long row first keeps
#: its k best segments by maximum (the top-k elements of a row always
#: live in its top-k blocks by max), then partitions only their
#: ~k*_BLOCK members instead of the full row.
_BLOCK = 1024


def _spans(lo, hi):
    """Concatenated ``arange(lo[i], hi[i])`` over every ``i``."""
    counts = hi - lo
    ends = np.cumsum(counts)
    return (np.repeat(lo - ends + counts, counts)
            + np.arange(ends[-1] if len(ends) else 0))


def _unit64(vectors):
    """Float64 copy of ``vectors`` with rows scaled to unit length (all
    zero rows stay zero)."""
    wide = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(wide, axis=-1, keepdims=True)
    return wide / np.maximum(norms, 1e-12)


class InvertedLists(NamedTuple):
    """One partition's IVF inverted lists, vectors included.

    Attributes:
        rows: the partition's global row ids, grouped by cluster (each
            cluster's rows ascending).
        vectors: ``(len(rows), hidden)`` C-contiguous float32 copy of
            those rows, aligned with ``rows``.
        starts: ``n_clusters + 1`` offsets; cluster ``c`` is
            ``rows[starts[c]:starts[c + 1]]``.
        theta: per cluster, the largest angle (radians, float64) between
            its centroid and any row of it this partition holds; 0 for
            a cluster with no rows here.
    """

    rows: np.ndarray
    vectors: np.ndarray
    starts: np.ndarray
    theta: np.ndarray


class RowMap(NamedTuple):
    """Which stored design each row belongs to.

    Built by the index's one reader of its v4 row table
    (:func:`repro.index.store._scan_tables`).  A design's ordinal is its
    position in the engine's entries, one per design.

    Attributes:
        parent: per row, the ordinal of its design (int64).
        chunk: per row, whether it is a subgraph chunk (bool).
        regions: per row, the chunk's region descriptor (``None`` for a
            whole-design row).
        design_row: per design, its whole-design row (int64).
    """

    parent: np.ndarray
    chunk: np.ndarray
    regions: list
    design_row: np.ndarray


@dataclass
class PartialTopK:
    """One query's partition-local top-k (mergeable).

    Produced by :meth:`QueryEngine.partial` on the per-row route;
    disjoint partitions' partials merge via :meth:`QueryEngine.merge`
    into the same hit lists as the single-process query (itself a
    one-partition merge).

    Attributes:
        rows: global row ids, ranked under ``(-score, row id)``.
        scores: exact cosine scores aligned with ``rows``.
    """

    rows: np.ndarray
    scores: np.ndarray


@dataclass
class PartialGroups:
    """One group's partition-local per-parent reduction (mergeable).

    Produced by :meth:`QueryEngine.partial` on the per-parent route;
    merged by :meth:`QueryEngine.merge`.  All arrays align with
    ``parents`` (candidate parent ids, ascending).  ``embed`` and
    ``design`` are only attached by fused partials; ``design`` is NaN
    unless this partition owns the parent's whole-design row.

    Attributes:
        parents: parent design ids with at least one scored row here.
        best: best (part, row) cosine per parent.
        best_row: lowest global row id attaining ``best``.
        best_part: query part index that produced ``best`` there.
        above: rows of the parent scoring above delta in this
            partition (coverage numerator; the denominator is global).
        embed: embedding-channel score per parent (fused only).
        design: whole-suspect vs whole-design cosine (fused only).
    """

    parents: np.ndarray
    best: np.ndarray
    best_row: np.ndarray
    best_part: np.ndarray
    above: np.ndarray
    embed: np.ndarray = None
    design: np.ndarray = None


class QueryEngine:
    """Score query vectors against the stored (unit float32) corpus.

    Args:
        blocks: per-shard ``(rows, hidden)`` float32 arrays or memmaps,
            in global row order (``ShardStore.blocks()``).  The engine is
            deliberately storage-agnostic — it sees plain row blocks, so
            tests and benchmarks feed in-memory arrays while production
            feeds memmaps — and therefore keeps its own row-offset table
            rather than depending on :class:`ShardStore`.
        entries: the ok index entries, one per stored design; a hit
            reads its ``name``, ``path`` and ``design``.
        ivf: optional fitted :class:`~repro.index.ann.IVFIndex` over the
            same rows.
        row_map: the :class:`RowMap` from rows to ``entries``; ``None``
            means one whole-design row per entry, in entry order.

    Raises:
        IndexStoreError: when ``ivf`` was fitted over a different number
            of rows than ``blocks`` hold (its lists would name the wrong
            rows).
    """

    def __init__(self, blocks, entries, ivf=None, row_map=None):
        self._blocks = list(blocks)
        self._entries = entries
        self.ivf = ivf
        self._offsets = np.concatenate(
            ([0], np.cumsum([len(b) for b in self._blocks]))
        ).astype(np.int64)
        if ivf is not None and ivf.rows != len(self):
            raise IndexStoreError(
                f"the IVF quantizer covers {ivf.rows} rows but the store "
                f"holds {len(self)} (refit it over the stored rows)")
        #: Shard subset -> its :class:`InvertedLists`, built on the
        #: subset's first IVF pass.
        self._lists = {}
        #: Unit float64 centroids: the fixed points the cluster score
        #: bounds measure angles from.
        self._centroids = None if ivf is None else _unit64(ivf.centroids)
        #: Global row ids, sliced per partition instead of rebuilt.
        self._rows = np.arange(self._offsets[-1], dtype=np.int64)
        self.hidden = (int(self._blocks[0].shape[1]) if self._blocks
                       else 0)
        if row_map is None:
            row_map = RowMap(self._rows, np.zeros(len(self), dtype=bool),
                             [None] * len(self), self._rows)
        self._parent_of, self._is_chunk, self._regions, self._parent_row = \
            row_map
        self.n_parents = len(entries)
        self._parent_counts = np.bincount(self._parent_of,
                                          minlength=self.n_parents)
        #: True when any stored row is a subgraph chunk; plain designs
        #: keep the legacy (bit-identical) scoring paths.
        self.chunked = bool(self._is_chunk.any())

    def __len__(self):
        return int(self._offsets[-1])

    # -- scoring -------------------------------------------------------------
    def _checked(self, vectors):
        """``(n, hidden)`` float64 query batch, validated against the
        store width and for finite values.

        Raises:
            IndexStoreError: on an empty store, a wrong width, or a
                value that is not finite.
        """
        if not len(self):
            raise IndexStoreError("the fingerprint index is empty")
        queries = np.asarray(vectors, dtype=np.float64)
        if queries.size == 0 and (queries.ndim == 1 or not len(queries)):
            # No rows (including a plain []) is an empty batch, not a
            # shape error; rows of width 0 are.
            return np.empty((0, self.hidden))
        if queries.ndim == 1:
            queries = queries[None]
        if queries.ndim != 2 or queries.shape[1] != self.hidden:
            raise IndexStoreError(
                f"query vectors have shape {queries.shape}, expected "
                f"(n, {self.hidden})")
        if not np.isfinite(queries).all():
            raise IndexStoreError(
                "query vectors must be finite (no NaN or infinity)")
        return queries

    def check_vectors(self, vectors):
        """Client-supplied query vectors as an ``(n, hidden)`` float64
        batch.

        Raises:
            IndexStoreError: on an empty store, a wrong width, a value
                that is not finite, or an all-zero row
                (:data:`ZERO_VECTOR_MESSAGE`).
                Embedded suspect parts skip the zero check: a chunk may
                embed to zero where its whole design does not.
        """
        queries = self._checked(vectors)
        if not queries.any(axis=1).all():
            raise IndexStoreError(ZERO_VECTOR_MESSAGE)
        return queries

    def _as_queries(self, vectors):
        """Unit float32 query batch (see :meth:`_checked`)."""
        queries = self._checked(vectors)
        norms = np.linalg.norm(queries, axis=1, keepdims=True)
        unit = queries / np.maximum(norms, 1e-12)
        return np.ascontiguousarray(unit, dtype=np.float32)

    @staticmethod
    def _top_sel(scores, k, *ties):
        """Positions of the best-k ``scores``, ranked.

        The ranking is the total order ``(-score, ties)``, where
        ``ties`` are ``np.lexsort`` keys (least significant first) that
        make it total — a row id, or a parent's coverage then id.  The
        selection is a true top-k of that order *including* at the
        boundary: a partition's top-k holds every member of the global
        top-k it owns, which is what makes partials mergeable.

        ``argpartition`` is O(n); only the ``k`` survivors get sorted.
        A row that dwarfs the candidate pool first keeps its ``k`` best
        ``_BLOCK``-wide segments by maximum (those segments always hold
        ``k`` scores at least as large as the k-th best) and partitions
        only their members.  Either way the k-th score is exact; when it
        is tied beyond the boundary, one comparison pass over the row
        lets the tied positions first under ``ties`` win.
        """
        n = len(scores)
        k = min(max(int(k), 0), n)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        if k == n:
            return np.lexsort(ties + (-scores,))
        if n >= 4 * _BLOCK and 2 * (k + 1) * _BLOCK <= n:
            maxima = np.maximum.reduceat(scores, np.arange(0, n, _BLOCK))
            top = np.argpartition(maxima, len(maxima) - k)[-k:]
            span = (top[:, None] * _BLOCK
                    + np.arange(_BLOCK, dtype=np.int64)).ravel()
            span = span[span < n]
            vals = scores[span]
            pos = span[np.argpartition(vals, len(vals) - k)[-k:]]
        else:
            # Ascending argpartition + tail slice: top-k in O(n) without
            # negating (copying) the score row.
            pos = np.argpartition(scores, n - k)[n - k:]
        boundary = scores[pos].min()
        if np.count_nonzero(scores >= boundary) > k:
            strict = np.nonzero(scores > boundary)[0]
            tied = np.nonzero(scores == boundary)[0]
            order = np.lexsort(tuple(key[tied] for key in ties))
            pos = np.concatenate([strict, tied[order[:k - len(strict)]]])
        order = np.lexsort(tuple(key[pos] for key in ties)
                           + (-scores[pos],))
        return pos[order]

    # -- queries -------------------------------------------------------------
    def query_many(self, vectors, k=5, delta=0.0, nprobe=None,
                   exact=False):
        """Top-k hit lists for a batch of query vectors, in input order:
        :meth:`query_groups` with each vector its own single-part group.

        Args:
            vectors: ``(n, hidden)`` array-like (or one 1-D vector).
            k: hits per query.
            delta: piracy decision threshold on the cosine score.
            nprobe: IVF clusters to probe; ``None`` means the
                quantizer's default (:data:`repro.index.ann.DEFAULT_NPROBE`).
            exact: bypass the IVF pre-filter and score every stored row.
        """
        queries = self._checked(vectors)
        offsets = np.arange(len(queries) + 1, dtype=np.int64)
        return self.query_groups(queries, offsets, k=k, delta=delta,
                                 nprobe=nprobe, exact=exact)

    def query_groups(self, parts, offsets, regions=None, k=5, delta=0.0,
                     nprobe=None, exact=False, struct=None):
        """Ranked hits for groups of query parts.

        The merge of one partition holding every shard, with the
        structural channel fused at the merge: identical to any
        scatter-gather serving of the same request by construction.

        Args:
            parts: ``(P, hidden)`` array-like of part vectors for all
                groups, concatenated in group order (each group is one
                suspect: its whole-design vector plus its chunk
                vectors, see ``FingerprintIndex.suspect_parts``).
            offsets: ``len(groups) + 1`` prefix offsets into ``parts``.
            regions: per-part region descriptors aligned with ``parts``
                (``None`` entries mean "the whole suspect").
            k: hits per group.
            struct: optional per-group structural score vectors (one
                float per parent design, see
                :meth:`repro.index.wlsig.SignatureScorer.scores`) —
                ``None`` entries keep that group on pure embedding
                ranking.  Groups with scores are ranked by fused
                channel rank (see the module docstring).

        Returns:
            One :class:`Match` list per group, at most ``k`` long.  On
            the per-row route (see :meth:`_row_route`) the hits are
            stored rows ranked by score, then row id; otherwise they are
            parent designs ranked by best part-vs-row score, then higher
            coverage, then lower parent id (without fusion), and carry
            the parent evidence fields.
        """
        fused = None if struct is None else [s is not None for s in struct]
        partial = self.partial(parts, offsets, regions, k=k, delta=delta,
                               nprobe=nprobe, exact=exact, fused=fused)
        return self.merge([partial], offsets, regions, k=k, delta=delta,
                          struct=struct)

    # -- routing -------------------------------------------------------------
    def _row_route(self, offsets, fusion):
        """Whether a request takes the plain per-row top-k route.

        True on a chunk-less engine, without the structural channel
        (``fusion`` is the request's ``fused`` flags or its ``struct``
        scores), when every group holds exactly one part; every other
        request reduces per parent design.  :meth:`partial` and
        :meth:`merge` both route through here, so a worker and the front
        send any request down the same path.
        """
        return (fusion is None and not self.chunked
                and bool(np.all(np.diff(offsets) == 1)))

    def _exact(self, exact, fused):
        """Whether a request scores every row of its partition.

        Besides ``exact=True`` and a store without a quantizer, fused
        queries score exactly (see the module docstring): the structural
        channel ranks every parent, so pruning the embedding channel's
        candidates would only desynchronize the two rank lists.  One
        fused group moves its whole batch onto exact scoring.
        """
        return bool(exact) or self.ivf is None or any(fused or ())

    def serving_description(self, nprobe=None, exact=False, fused=False):
        """How a query is scored: ``"exact"``, or ``"ivf:N probes"``
        with the clamp the quantizer actually applies.  ``fused`` says
        whether it is ranked with the structural channel (a source
        query on a signed index), which always scores exactly."""
        if self._exact(exact, [fused]):
            return "exact"
        return f"ivf:{self.ivf.effective_nprobe(nprobe)} probes"

    # -- partials ------------------------------------------------------------
    def _shard_subset(self, shards):
        """Validated ascending shard ordinals (``None`` = every shard)."""
        if shards is None:
            return list(range(len(self._blocks)))
        shards = sorted({int(s) for s in shards})
        if shards and not (0 <= shards[0]
                           and shards[-1] < len(self._blocks)):
            raise IndexStoreError(
                f"shard partition {shards} out of range for "
                f"{len(self._blocks)} shards")
        return shards

    def _partition_scores(self, queries, shards):
        """Exact scores over a shard subset + their global row ids.

        One gemm per shard, so a row's score is bit-identical whichever
        partition computes it.  1-row batches are padded to 2: BLAS then
        uses the same gemm kernel for every batch size, keeping single
        and batched scores bit-equal.
        """
        padded = queries
        if len(queries) == 1:
            padded = np.concatenate([queries, np.zeros_like(queries)])
        parts = [padded @ np.asarray(self._blocks[s]).T for s in shards]
        scores = (parts[0] if len(parts) == 1
                  else np.concatenate(parts, axis=1))
        rows = self._rows
        if len(shards) < len(self._blocks):
            rows = np.concatenate([rows[self._offsets[s]:
                                        self._offsets[s + 1]]
                                   for s in shards])
        return scores[:len(queries)], rows

    def inverted_lists(self, shards):
        """The IVF inverted lists of a shard subset, vectors included.

        Built on the subset's first call and kept: the quantizer's
        cluster-ordered row ids, filtered once to the rows ``shards``
        own, plus one gather of those rows and one pass over them for
        each cluster's angular radius ``theta``.  The copy costs ``rows
        x hidden`` float32 per subset; a serving worker only ever asks
        for its own partition, so N workers together hold one copy of
        the store.
        """
        key = tuple(shards)
        lists = self._lists.get(key)
        if lists is None:
            order, starts = self.ivf.inverted_lists()
            cluster = np.repeat(np.arange(self.ivf.n_clusters),
                                np.diff(starts))
            shard = np.searchsorted(self._offsets, order, side="right") - 1
            keep = np.isin(shard, shards)
            rows, shard, cluster = order[keep], shard[keep], cluster[keep]
            vectors = np.empty((len(rows), self.hidden), dtype=np.float32)
            for s in shards:
                mine = shard == s
                vectors[mine] = np.asarray(self._blocks[s])[
                    rows[mine] - self._offsets[s]]
            counts = np.bincount(cluster, minlength=self.ivf.n_clusters)
            starts = np.concatenate(([0], np.cumsum(counts))).astype(
                np.int64)
            theta = np.zeros(self.ivf.n_clusters)
            if len(rows):
                # Cosines in float64 over exact row norms: arccos of a
                # float32 dot near 1 would be off by up to ~4e-4 rad.
                wide = vectors.astype(np.float64)
                norms = np.sqrt(np.einsum("ij,ij->i", wide, wide))
                cos = (np.einsum("ij,ij->i", wide, self._centroids[cluster])
                       / np.maximum(norms, 1e-12))
                held = counts > 0
                theta[held] = np.arccos(np.clip(
                    np.minimum.reduceat(cos, starts[:-1][held]), -1.0, 1.0))
            lists = self._lists[key] = InvertedLists(rows, vectors, starts,
                                                     theta)
        return lists

    def _probed_pools(self, queries, nprobe, k, shards):
        """Per query, the rows of its probed pool that can still reach
        its top-k, with their exact scores: ``(rows, scores)`` pairs.

        For unit ``q``, no row of cluster ``c`` scores above
        ``cos(max(0, angle(q, c) - theta_c))`` (triangle inequality on
        the sphere).  Step 1 scores each query's highest-bound probed
        cluster, a contiguous slice of the resident copy, and takes its
        k-th score as the query's floor: a lower bound on the k-th score
        of the whole pool.  Step 2 gathers, once for the batch, the
        other probed clusters whose bound plus :data:`_BOUND_SLACK`
        (more for vectors wider than about 40) reaches the floor.  A
        cluster left out holds no row of the pool's top-k, boundary ties
        included.  A first cluster with fewer than ``k`` rows gives no
        floor, and nothing is left out.  ``k`` is at least 1.
        """
        lists = self.inverted_lists(shards)
        clusters = self.ivf.probe(queries, nprobe)
        begin, end = lists.starts[clusters], lists.starts[clusters + 1]
        cos = np.einsum("ij,ikj->ik", _unit64(queries),
                        self._centroids[clusters])
        gap = np.arccos(np.clip(cos, -1.0, 1.0)) - lists.theta[clusters]
        bound = np.where(end > begin, np.cos(np.maximum(gap, 0.0)), -np.inf)
        top = np.arange(len(queries)), np.argmax(bound, axis=1)
        heads = list(zip(begin[top].tolist(), end[top].tolist()))
        # einsum, as in step 2: a row scores the same bits in a slice of
        # the resident copy as in a gathered one.
        head_scores = [np.einsum("ij,j->i", lists.vectors[lo:hi], query)
                       for (lo, hi), query in zip(heads, queries)]
        floor = np.array([np.partition(s, len(s) - k)[len(s) - k]
                          if len(s) >= k else -np.inf for s in head_scores])
        slack = max(_BOUND_SLACK, 2 * self.hidden * np.finfo(np.float32).eps)
        keep = bound + slack >= floor[:, None]
        keep[top] = False
        pos = _spans(begin[keep], end[keep])
        counts = np.where(keep, end - begin, 0).sum(axis=1)
        offsets = np.concatenate(([0], np.cumsum(counts))).tolist()
        rows = lists.rows[pos]
        # One gather for the whole batch; each query scores only its own
        # slice.  einsum's per-row reduction does not depend on how many
        # rows sit beside it, so a row scores the same bits whichever
        # probe or partition put it in the slice.
        vectors = np.take(lists.vectors, pos, axis=0)
        for i, query in enumerate(queries):
            lo, hi = offsets[i], offsets[i + 1]
            head_lo, head_hi = heads[i]
            yield (np.concatenate((lists.rows[head_lo:head_hi],
                                   rows[lo:hi])),
                   np.concatenate((head_scores[i],
                                   np.einsum("ij,j->i", vectors[lo:hi],
                                             query))))

    def partial(self, parts, offsets, regions=None, *, k, delta, nprobe,
                exact, fused=None, shards=None):
        """Partition-local partials for groups of query parts.

        The worker half of scatter-gather serving: same request as
        :meth:`query_groups`, but it scores only the rows in ``shards``
        (ordinals into the engine's block list; ``None`` is every shard)
        and returns one mergeable partial per group — a
        :class:`PartialTopK` on the per-row route, a
        :class:`PartialGroups` otherwise (see :meth:`_row_route`).  The
        structural channel stays with the caller: ``fused`` only *flags*
        which groups will be fused, so their scoring matches the fused
        contract (exact, with the embed/design channels attached).  Feed
        every partition's partials, and the structural scores, to
        :meth:`merge` (fuse at the front).
        """
        queries = self._as_queries(parts)
        offsets = np.asarray(offsets, dtype=np.int64)
        if (len(offsets) < 1 or offsets[0] != 0
                or offsets[-1] != len(queries)
                or np.any(np.diff(offsets) < 0)):
            raise IndexStoreError(
                f"part offsets {offsets.tolist()} do not partition "
                f"{len(queries)} query parts")
        if fused is not None and len(fused) != len(offsets) - 1:
            # The flags stand for the front's structural score vectors.
            raise IndexStoreError(
                f"{len(fused)} structural score vectors (fused flags) "
                f"for {len(offsets) - 1} query groups")
        shards = self._shard_subset(shards)
        if len(offsets) == 1:
            return []
        exact = self._exact(exact, fused)
        if self._row_route(offsets, fused):
            return self._partial_rows(queries, k, nprobe, exact, shards)
        if regions is None:
            regions = [None] * len(queries)
        if fused is None:
            fused = [False] * (len(offsets) - 1)
        return self._partial_grouped(queries, offsets, regions, delta,
                                     nprobe, exact, fused, shards)

    def _partial_rows(self, queries, k, nprobe, exact, shards):
        """Per-row partials: each query's partition-local top-k rows."""
        k = int(k)
        if not shards or k < 1:
            return [PartialTopK(rows=np.empty(0, dtype=np.int64),
                                scores=np.empty(0, dtype=np.float32))
                    for _ in range(len(queries))]
        if exact:
            scores, rows = self._partition_scores(queries, shards)
            pools = ((rows, row_scores) for row_scores in scores)
        else:
            pools = self._probed_pools(queries, nprobe, k, shards)
        out = []
        for rows, scores in pools:
            sel = self._top_sel(scores, k, rows)
            out.append(PartialTopK(rows=rows[sel], scores=scores[sel]))
        return out

    def _partial_grouped(self, queries, offsets, regions, delta, nprobe,
                         exact, fused, shards):
        """Per-parent partials, one per group.

        A group's candidate rows, with its ``(parts, rows)`` score
        block, come either from one gemm per shard over the whole
        partition (``exact``) or from the union of its parts' probed
        clusters; then one reduction runs: :meth:`_fused_partial` for a
        fused group, :meth:`_parent_partials` for any other.
        """

        def empty_partial(is_fused):
            empty = np.empty(0, dtype=np.int64)
            return PartialGroups(
                parents=empty, best=np.empty(0), best_row=empty,
                best_part=empty, above=empty,
                embed=np.empty(0) if is_fused else None,
                design=np.empty(0) if is_fused else None)

        if not shards:
            return [empty_partial(bool(f)) for f in fused]
        if exact:
            scores, partition_rows = self._partition_scores(queries, shards)
        else:
            lists = self.inverted_lists(shards)
            probed = self.ivf.probe(queries, nprobe)
        out = []
        for g in range(len(offsets) - 1):
            lo, hi = int(offsets[g]), int(offsets[g + 1])
            if exact:
                rows, block = partition_rows, scores[lo:hi]
            else:
                clusters = np.unique(probed[lo:hi])
                pos = _spans(lists.starts[clusters],
                             lists.starts[clusters + 1])
                rows, first = np.unique(lists.rows[pos], return_index=True)
                # einsum, not a BLAS gemm: BLAS picks differently-rounded
                # kernels by matrix shape, so a gemm'd row score would
                # depend on how many neighbours the probe (or the
                # partition) put beside it.  einsum's per-cell reduction
                # is shape-invariant, which partitioned grouped queries
                # rely on.
                block = np.einsum("ij,kj->ik",
                                  np.take(lists.vectors, pos[first], axis=0),
                                  queries[lo:hi]).T
            if hi == lo or not len(rows):
                out.append(empty_partial(bool(fused[g])))
            elif fused[g]:
                out.append(self._fused_partial(block, regions[lo:hi], rows,
                                               delta))
            else:
                uniq, _, best, best_row, best_part, above = \
                    self._parent_partials(rows, block.max(axis=0),
                                          block.argmax(axis=0), delta)
                out.append(PartialGroups(
                    parents=uniq, best=best, best_row=best_row,
                    best_part=best_part, above=above))
        return out

    def _parent_partials(self, rows, row_best, row_part, delta):
        """Per-parent reduction of per-row best scores (sparse).

        Each quantity merges across disjoint row sets without changing
        value (max for ``best``, lowest-row argmax for
        ``best_row``/``best_part``, sum for ``above``), which is what
        makes scatter-gather serving bit-identical.

        Args:
            rows: scored global row ids (ascending).
            row_best: best score over the group's parts, per row.
            row_part: which part produced it, per row.

        Returns:
            ``(uniq, inverse, best, best_row, best_part, above)`` —
            candidate parent ids (ascending), the rows->uniq inverse
            map, and aligned per-parent arrays.
        """
        uniq, inverse = np.unique(self._parent_of[rows], return_inverse=True)
        best = np.full(len(uniq), -np.inf, dtype=np.float64)
        np.maximum.at(best, inverse, row_best)
        # Lowest candidate position attaining each parent's maximum:
        # deterministic tie-break toward the lower global row id
        # (``rows`` is ascending).
        at_max = row_best >= best[inverse]
        pos_best = np.full(len(uniq), len(rows), dtype=np.int64)
        np.minimum.at(pos_best, inverse[at_max], np.nonzero(at_max)[0])
        above = np.bincount(inverse[row_best > delta],
                            minlength=len(uniq)).astype(np.int64)
        return (uniq, inverse, best, rows[pos_best],
                np.asarray(row_part)[pos_best].astype(np.int64), above)

    def _fused_partial(self, block, group_regions, rows, delta):
        """Per-parent fusion inputs over the scored rows (sparse).

        Besides the evidence reduction shared with the non-fused path,
        the fused channel needs two extras per candidate parent: the
        embedding-channel score (best chunk-vs-chunk cosine) and the
        delta-comparable whole-vs-whole ``design`` score.  Each design
        row lives in exactly one partition, so ``design`` is NaN for
        every non-owner partial and merging keeps the one real value.

        The embedding channel is the best cosine between the suspect's
        chunk parts and stored chunk rows, falling back to the whole
        suspect on a suspect too small to chunk, and to whole-design
        rows on a chunk-less index.

        Args:
            block: ``(parts, len(rows))`` score matrix for this group,
                whole-suspect part first.
            rows: scored global row ids (ascending; a partition's rows,
                every row for a single-partition query).
        """
        row_best = block.max(axis=0)
        row_part = block.argmax(axis=0)
        uniq, inverse, best, best_row, best_part, above = \
            self._parent_partials(rows, row_best, row_part, delta)
        chunk_parts = [i for i, region in enumerate(group_regions)
                       if region is not None] or [0]
        if self.chunked:
            embed_rows = np.where(self._is_chunk[rows],
                                  block[chunk_parts].max(axis=0), -np.inf)
        else:
            embed_rows = block[0]
        embed = np.full(len(uniq), -np.inf)
        np.maximum.at(embed, inverse, embed_rows)
        drow = self._parent_row[uniq]
        pos = np.searchsorted(rows, drow)
        have = pos < len(rows)
        have &= rows[np.minimum(pos, len(rows) - 1)] == drow
        design = np.full(len(uniq), np.nan)
        design[have] = block[0, pos[have]]
        return PartialGroups(parents=uniq, best=best, best_row=best_row,
                             best_part=best_part, above=above,
                             embed=embed, design=design)

    # -- merges --------------------------------------------------------------
    def merge(self, partials, offsets, regions=None, *, k, delta,
              struct=None):
        """Hit lists from per-partition :meth:`partial` results.

        The gather half: merges each group's partials across disjoint
        partitions, then ranks them, on the route :meth:`partial` took.
        Structural fusion happens *here* — the structural channel ranks
        every stored design globally, so it cannot be computed per
        partition; ``struct`` follows the :meth:`query_groups` contract
        (fuse at the front).

        Args:
            partials: one :meth:`partial` result per partition, all for
                the same request over disjoint shard subsets.

        Raises:
            IndexStoreError: when the partitions' partials disagree on
                the group count, or ``struct`` does.
        """
        if not partials:
            return []
        groups = len(partials[0])
        if any(len(p) != groups for p in partials):
            raise IndexStoreError(
                "partition partials disagree on the query group count")
        if struct is not None and len(struct) != groups:
            raise IndexStoreError(
                f"{len(struct)} structural score vectors for "
                f"{groups} query groups")
        offsets = np.asarray(offsets, dtype=np.int64)
        if self._row_route(offsets, struct):
            return self._merge_rows(partials, k, delta)
        if regions is None:
            regions = [None] * int(offsets[-1])
        results = []
        for g in range(groups):
            per_part = [p[g] for p in partials]
            group_regions = regions[int(offsets[g]):int(offsets[g + 1])]
            if struct is not None and struct[g] is not None:
                results.append(self._rank_fused(per_part, group_regions,
                                                struct[g], k, delta))
            else:
                results.append(self._rank_parents(per_part, group_regions,
                                                  k, delta))
        return results

    def _merge_rows(self, partials, k, delta):
        """Per-row hits: top-k of each query's concatenated partials.

        A single partition's partials are already ranked top-k lists
        under the merge's own total order, so they become hits without a
        second selection.
        """
        if len(partials) == 1:
            top = max(int(k), 0)
            return [self._hits(p.rows[:top], p.scores[:top], delta)
                    for p in partials[0]]
        results = []
        for per_query in zip(*partials):
            rows = np.concatenate([p.rows for p in per_query])
            scores = np.concatenate([p.scores for p in per_query])
            sel = self._top_sel(scores, k, rows)
            results.append(self._hits(rows[sel], scores[sel], delta))
        return results

    @staticmethod
    def _merge_parent_partials(partials):
        """Sparse merged per-parent evidence from disjoint-row partials.

        Returns ``(parents, best, best_row, best_part, above)`` aligned
        with the ascending candidate parent ids.
        """
        allp = np.concatenate([p.parents for p in partials])
        allbest = np.concatenate([p.best for p in partials])
        allrow = np.concatenate([p.best_row for p in partials])
        allpart = np.concatenate([p.best_part for p in partials])
        allabove = np.concatenate([p.above for p in partials])
        # Best evidence per parent under (-score, row id): order the
        # concatenated candidates and keep each parent's first.
        order = np.lexsort((allrow, -allbest, allp))
        first = np.ones(len(order), dtype=bool)
        first[1:] = allp[order][1:] != allp[order][:-1]
        pick = order[first]
        uniq = allp[pick]
        above = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(above, np.searchsorted(uniq, allp), allabove)
        return uniq, allbest[pick], allrow[pick], allpart[pick], above

    def _rank_parents(self, partials, group_regions, k, delta):
        """One group's hits without fusion: parents ranked under the
        total order ``(-best, -coverage, parent id)``."""
        uniq, best, best_row, best_part, above = \
            self._merge_parent_partials(partials)
        coverage = above / np.maximum(self._parent_counts[uniq], 1)
        sel = self._top_sel(best, k, uniq, -coverage)
        return self._parent_hits(uniq[sel], best_row[sel], best_part[sel],
                                 best[sel], coverage[sel], group_regions,
                                 delta)

    @staticmethod
    def _channel_ranks(channel):
        """0-based descending rank per parent, stable toward lower id."""
        order = np.argsort(-channel, kind="stable")
        ranks = np.empty(len(channel), dtype=np.int64)
        ranks[order] = np.arange(len(channel), dtype=np.int64)
        return ranks

    def _rank_fused(self, partials, group_regions, struct, k, delta):
        """One group's hits under structural rank fusion.

        Two independent channels rank every parent design, and a parent
        keeps the *better* of its two ranks: the embedding channel
        (:meth:`_fused_partial`) and the caller-supplied structural
        reverse-containment scores (:mod:`repro.index.wlsig`).  The
        minimum-rank fusion lets either channel carry a scenario the
        other is blind to: chunk cosines rescue grafts whose WL colors
        were destroyed at the graft boundary, containment rescues
        grafts the saturated chunk-embedding space cannot separate.
        Reported scores are whole-vs-whole cosines (the delta-comparable
        pairing); evidence fields keep describing the best raw
        (part, row) pair.

        Args:
            partials: the group's fused partials, one per partition.
            struct: structural score per parent design.
        """
        if not any(len(p.parents) for p in partials):
            return []
        parent_counts, n_parents = self._parent_counts, self.n_parents
        struct = np.asarray(struct, dtype=np.float64)
        if struct.shape != (n_parents,):
            raise IndexStoreError(
                f"structural scores have shape {struct.shape}, expected "
                f"({n_parents},)")
        uniq, _, best_row, best_part, above = \
            self._merge_parent_partials(partials)

        def dense(values, fill):
            out = np.full(n_parents, fill, dtype=values.dtype)
            out[uniq] = values
            return out

        best_row, best_part = dense(best_row, 0), dense(best_part, 0)
        coverage = dense(above, 0) / np.maximum(parent_counts, 1)
        allp = np.concatenate([p.parents for p in partials])
        embed = np.full(n_parents, -np.inf)
        np.maximum.at(embed, allp,
                      np.concatenate([p.embed for p in partials]))
        alldesign = np.concatenate([p.design for p in partials])
        have = ~np.isnan(alldesign)
        design = np.full(n_parents, np.nan)
        design[allp[have]] = alldesign[have]
        fused = np.minimum(self._channel_ranks(embed),
                           self._channel_ranks(struct))
        sel = self._top_sel(-fused, k, np.arange(n_parents, dtype=np.int64))
        return self._parent_hits(sel, best_row[sel], best_part[sel],
                                 design[sel], coverage[sel], group_regions,
                                 delta, struct=struct[sel])

    # -- hits ----------------------------------------------------------------
    def _hits(self, rows, scores, delta):
        """Ranked :class:`Match` rows for ranked row ids with their
        (rank-aligned) scores."""
        entries, delta = self._entries, float(delta)
        hits = []
        for rank, (parent, score) in enumerate(
                zip(self._parent_of[rows].tolist(), scores.tolist()), 1):
            entry = entries[parent]
            hits.append(Match(rank, entry["name"], entry["path"],
                              entry["design"], score, score > delta))
        return hits

    def _parent_hits(self, parents, rows, parts, scores, coverage,
                     group_regions, delta, struct=None):
        """Ranked :class:`Match` rows for ranked parents; every other
        array is rank-aligned evidence (best row, best query part,
        score, coverage, and the structural score under fusion)."""
        hits = []
        for rank, (parent, row) in enumerate(zip(parents.tolist(),
                                                 rows.tolist())):
            entry = self._entries[parent]
            score = float(scores[rank])
            hits.append(Match(
                rank=rank + 1, name=entry["name"], path=entry["path"],
                design=entry["design"], score=score,
                is_piracy=bool(score > delta),
                via="chunk" if self._is_chunk[row] else "design",
                region=self._regions[row],
                query_region=group_regions[int(parts[rank])],
                coverage=float(coverage[rank]),
                struct=None if struct is None else float(struct[rank])))
        return hits
