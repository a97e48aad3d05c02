"""Batched sublinear query serving over the memory-mapped shard store.

One :class:`QueryEngine` turns the stored corpus into a lookup service
with **one query path**: every query is scatter-gather.  The worker half
(:meth:`~QueryEngine.partial_many` / :meth:`~QueryEngine.partial_groups`)
scores a subset of the shard files and returns mergeable partials; the
gather half (:meth:`~QueryEngine.merge_many` /
:meth:`~QueryEngine.merge_groups`) reduces disjoint partials to ranked
hits (:class:`~repro.index.match.Match` rows, built once with their
ranks).  The in-process entry points are that pipeline over a single
partition holding every shard — ``query_many(v)`` is
``merge_many([partial_many(v)])`` and ``query_groups`` is
``merge_groups([partial_groups(...)])`` — so single-process and
multi-worker serving agree bit for bit by construction.

- **Batched scoring** — a whole batch of suspects is scored against each
  shard with one BLAS matmul per shard, instead of one pass per suspect.
  Single-row batches are padded to two rows before the matmul so BLAS
  always takes the same gemm kernel: a lone ``query_vector`` call is
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
  (``rows x hidden`` float32, one resident copy per partition), and
  every later pass gathers the batch's probed clusters from it once and
  scores each query against its own slice.  ``exact=True`` is the
  escape hatch that bypasses the quantizer entirely.
- **Chunk aggregation** — a v4 index stores extra rows for subgraph
  chunks (:mod:`repro.index.chunks`), each carrying a parent-design
  back-pointer.  ``query_groups`` scores a *group* of query parts (the
  whole suspect plus its own chunks) against every stored row, reduces
  to one score per parent design (block maximum over the part x row
  score matrix), and ranks parents by best score, then coverage (the
  fraction of the parent's rows above ``delta``), then id.  Hits carry
  the matching evidence: which stored region matched (``region``),
  which suspect region matched it (``query_region``), and the coverage.
  An index without chunk rows never enters this path — ``query_many``
  on it is bit-identical to v3 serving.
- **Two reductions, on purpose** — plain per-row top-k and per-parent
  aggregation stay separate reductions even though a chunk-less row is
  its own parent and aggregation would rank it identically: the parent
  reduction pays ``np.unique`` plus scatter (``ufunc.at``) passes over
  every candidate row and builds coverage evidence nobody reads.
  Routed through it, a 32-vector, k=10 IVF pass over a 50k-row,
  4-shard chunk-less index takes about 33 ms instead of 2.9 ms (one
  Xeon core, BLAS on one thread).
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
  in partials: ``struct`` goes to :meth:`~QueryEngine.merge_groups`
  and fusion happens once, after the merge ("fuse at the front").

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


class InvertedLists(NamedTuple):
    """One partition's IVF inverted lists, vectors included.

    Attributes:
        rows: the partition's global row ids, grouped by cluster (each
            cluster's rows ascending).
        vectors: ``(len(rows), hidden)`` C-contiguous float32 copy of
            those rows, aligned with ``rows``.
        starts: ``n_clusters + 1`` offsets; cluster ``c`` is
            ``rows[starts[c]:starts[c + 1]]``.
    """

    rows: np.ndarray
    vectors: np.ndarray
    starts: np.ndarray


@dataclass
class PartialTopK:
    """One query's partition-local top-k (mergeable).

    Produced by :meth:`QueryEngine.partial_many`; disjoint partitions'
    partials merge via :meth:`QueryEngine.merge_many` into the same hit
    lists as the single-process query (itself a one-partition merge).

    Attributes:
        rows: global row ids, ranked under ``(-score, row id)``.
        scores: exact cosine scores aligned with ``rows``.
    """

    rows: np.ndarray
    scores: np.ndarray


@dataclass
class PartialGroups:
    """One group's partition-local per-parent reduction (mergeable).

    Produced by :meth:`QueryEngine.partial_groups`; merged by
    :meth:`QueryEngine.merge_groups`.  All arrays align with
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
        entries: the ok index entries, one per stored row, in row order.
        ivf: optional fitted :class:`~repro.index.ann.IVFIndex` over the
            same rows.

    Raises:
        IndexStoreError: when ``ivf`` was fitted over a different number
            of rows than ``blocks`` hold (its lists would name the wrong
            rows).
    """

    def __init__(self, blocks, entries, ivf=None):
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
        #: Global row ids, sliced per partition instead of rebuilt.
        self._rows = np.arange(self._offsets[-1], dtype=np.int64)
        self.hidden = (int(self._blocks[0].shape[1]) if self._blocks
                       else 0)
        #: True when any stored row is a subgraph chunk; plain designs
        #: keep the legacy (bit-identical) scoring paths.
        self.chunked = any(e.get("kind") == "chunk" for e in entries)
        self._is_chunk = np.array([e.get("kind") == "chunk"
                                   for e in entries], dtype=bool)
        if self.chunked:
            parent_of = np.array([int(e["parent_id"]) for e in entries],
                                 dtype=np.int64)
            self._parent_of = parent_of
            self.n_parents = int(parent_of.max()) + 1 if len(parent_of) \
                else 0
            self._parent_row = np.full(self.n_parents, -1, dtype=np.int64)
            for row, entry in enumerate(entries):
                if entry.get("kind") != "chunk":
                    self._parent_row[int(entry["parent_id"])] = row
            self._parent_counts = np.bincount(parent_of,
                                              minlength=self.n_parents)

    def __len__(self):
        return int(self._offsets[-1])

    # -- scoring -------------------------------------------------------------
    def _as_queries(self, vectors):
        """Unit float32 query batch, validated against the store width
        and for finite values."""
        queries = np.asarray(vectors, dtype=np.float64)
        if queries.size == 0:
            # Any empty input (including a plain []) is an empty batch,
            # not a shape error.
            return np.empty((0, self.hidden), dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None]
        if queries.ndim != 2 or queries.shape[1] != self.hidden:
            raise IndexStoreError(
                f"query vectors have shape {queries.shape}, expected "
                f"(n, {self.hidden})")
        if not np.isfinite(queries).all():
            raise IndexStoreError(
                "query vectors must be finite (no NaN or infinity)")
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
        """Top-k hit lists for a batch of query vectors, in input order.

        The merge of one partition holding every shard: identical to
        any scatter-gather serving of the same batch by construction.

        Args:
            vectors: ``(n, hidden)`` array-like (or one 1-D vector).
            k: hits per query.
            delta: piracy decision threshold on the cosine score.
            nprobe: IVF clusters to probe; ``None`` means the
                quantizer's default (:data:`repro.index.ann.DEFAULT_NPROBE`).
            exact: bypass the IVF pre-filter and score every stored row.
        """
        partial = self.partial_many(vectors, k=k, delta=delta,
                                    nprobe=nprobe, exact=exact)
        return self.merge_many([partial], k=k, delta=delta)

    def query_groups(self, parts, offsets, regions=None, k=5, delta=0.0,
                     nprobe=None, exact=False, struct=None):
        """Ranked parent designs for groups of query parts.

        The merge of one partition holding every shard, with the
        structural channel fused at the merge.

        Args:
            parts: ``(P, hidden)`` array-like of part vectors for all
                groups, concatenated in group order (each group is one
                suspect: its whole-design vector plus its chunk
                vectors, see ``FingerprintIndex.suspect_parts``).
            offsets: ``len(groups) + 1`` prefix offsets into ``parts``.
            regions: per-part region descriptors aligned with ``parts``
                (``None`` entries mean "the whole suspect").
            k: parent designs per group.
            struct: optional per-group structural score vectors (one
                float per parent design, see
                :meth:`repro.index.wlsig.SignatureScorer.scores`) —
                ``None`` entries keep that group on pure embedding
                ranking.  Groups with scores are ranked by fused
                channel rank (see the module docstring).

        Returns:
            One :class:`Match` list per group — at most ``k`` parent
            designs; without fusion, ranked by best part-vs-row score,
            ties broken by higher coverage, then lower parent id.
        """
        fused = None if struct is None else [s is not None for s in struct]
        partial = self.partial_groups(parts, offsets, regions, k=k,
                                      delta=delta, nprobe=nprobe,
                                      exact=exact, fused=fused)
        return self.merge_groups([partial], offsets, regions, k=k,
                                 delta=delta, struct=struct)

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
        own, plus one gather of those rows.  The copy costs ``rows x
        hidden`` float32 per subset; a serving worker only ever asks for
        its own partition, so N workers together hold one copy of the
        store.
        """
        key = tuple(shards)
        lists = self._lists.get(key)
        if lists is None:
            order, starts = self.ivf.inverted_lists()
            cluster = np.repeat(np.arange(self.ivf.n_clusters),
                                np.diff(starts))
            shard = np.searchsorted(self._offsets, order, side="right") - 1
            keep = np.isin(shard, shards)
            rows, shard = order[keep], shard[keep]
            vectors = np.empty((len(rows), self.hidden), dtype=np.float32)
            for s in shards:
                mine = shard == s
                vectors[mine] = np.asarray(self._blocks[s])[
                    rows[mine] - self._offsets[s]]
            counts = np.bincount(cluster[keep],
                                 minlength=self.ivf.n_clusters)
            lists = self._lists[key] = InvertedLists(
                rows, vectors,
                np.concatenate(([0], np.cumsum(counts))).astype(np.int64))
        return lists

    def partial_many(self, vectors, k=5, delta=0.0, nprobe=None,
                     exact=False, shards=None):
        """Partition-local partials for a batch of query vectors.

        The worker half of scatter-gather serving: scores only the rows
        in ``shards`` (ordinals into the engine's block list; ``None``
        is every shard) and returns mergeable partials — one
        :class:`PartialTopK` per query, or one :class:`PartialGroups`
        per query on a chunked index (each vector is a single-part
        group, aggregated back to parent designs).  Feed every
        partition's partials to :meth:`merge_many`.
        """
        if not len(self):
            raise IndexStoreError("the fingerprint index is empty")
        queries = self._as_queries(vectors)
        shards = self._shard_subset(shards)
        if not len(queries):
            return []
        if self.chunked:
            offsets = np.arange(len(queries) + 1, dtype=np.int64)
            return self._partial_grouped(queries, offsets,
                                         [None] * len(queries), k, delta,
                                         nprobe, exact, None, shards)
        if not shards:
            return [PartialTopK(rows=np.empty(0, dtype=np.int64),
                                scores=np.empty(0, dtype=np.float32))
                    for _ in range(len(queries))]
        if exact or self.ivf is None:
            scores, rows = self._partition_scores(queries, shards)
            out = []
            for i in range(len(queries)):
                sel = self._top_sel(scores[i], k, rows)
                out.append(PartialTopK(rows=rows[sel],
                                       scores=scores[i][sel]))
            return out
        lists = self.inverted_lists(shards)
        clusters = self.ivf.probe(queries, nprobe)
        begin, end = lists.starts[clusters], lists.starts[clusters + 1]
        pos = _spans(begin.ravel(), end.ravel())
        counts = (end - begin).sum(axis=1)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        cand_rows = lists.rows[pos]
        # One gather for the whole batch; each query scores only its own
        # slice.  einsum's per-row reduction does not depend on how many
        # rows sit beside it, so a row scores the same bits whichever
        # probe or partition put it in the slice.
        cand_vectors = np.take(lists.vectors, pos, axis=0)
        out = []
        for i, query in enumerate(queries):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            rows = cand_rows[lo:hi]
            scores = np.einsum("ij,j->i", cand_vectors[lo:hi], query)
            sel = self._top_sel(scores, k, rows)
            out.append(PartialTopK(rows=rows[sel], scores=scores[sel]))
        return out

    def partial_groups(self, parts, offsets, regions=None, k=5,
                       delta=0.0, nprobe=None, exact=False, fused=None,
                       shards=None):
        """Partition-local per-parent partials for groups of parts.

        The grouped worker half of scatter-gather: same contract as
        :meth:`query_groups`, except the structural channel stays with
        the caller — ``fused`` only *flags* which groups will be fused,
        so their scoring matches the fused contract (exact, with the
        embed/design channels attached).  The structural scores
        themselves go to :meth:`merge_groups` (fuse at the front).
        """
        if not len(self):
            raise IndexStoreError("the fingerprint index is empty")
        queries = self._as_queries(parts)
        offsets = np.asarray(offsets, dtype=np.int64)
        if (len(offsets) < 1 or offsets[0] != 0
                or offsets[-1] != len(queries)
                or np.any(np.diff(offsets) < 0)):
            raise IndexStoreError(
                f"part offsets {offsets.tolist()} do not partition "
                f"{len(queries)} query parts")
        if regions is None:
            regions = [None] * len(queries)
        if fused is not None and len(fused) != len(offsets) - 1:
            # The flags stand for the front's structural score vectors.
            raise IndexStoreError(
                f"{len(fused)} structural score vectors (fused flags) "
                f"for {len(offsets) - 1} query groups")
        if len(offsets) == 1:
            return []
        return self._partial_grouped(queries, offsets, regions, k, delta,
                                     nprobe, exact, fused,
                                     self._shard_subset(shards))

    def _partial_grouped(self, queries, offsets, regions, k, delta,
                         nprobe, exact, fused, shards):
        """Grouped partials (queries already validated unit float32)."""
        groups = len(offsets) - 1
        if fused is None:
            fused = [False] * groups

        def empty_partial(is_fused):
            empty = np.empty(0, dtype=np.int64)
            return PartialGroups(
                parents=empty, best=np.empty(0), best_row=empty,
                best_part=empty, above=empty,
                embed=np.empty(0) if is_fused else None,
                design=np.empty(0) if is_fused else None)

        if not shards:
            return [empty_partial(bool(f)) for f in fused]
        if any(fused) or exact or self.ivf is None:
            # Fused queries score exactly (see the module docstring):
            # the structural channel ranks every parent, so pruning the
            # embedding channel's candidates would only desynchronize
            # the two rank lists.  One fused group forces the whole
            # batch onto exact scoring.
            scores, rows = self._partition_scores(queries, shards)
            out = []
            for g in range(groups):
                lo, hi = int(offsets[g]), int(offsets[g + 1])
                if hi == lo:
                    out.append(empty_partial(bool(fused[g])))
                    continue
                block = scores[lo:hi]
                if fused[g]:
                    out.append(self._fused_partial(block, regions[lo:hi],
                                                   rows, delta))
                    continue
                uniq, _, best, best_row, best_part, above = \
                    self._parent_partials(rows, block.max(axis=0),
                                          block.argmax(axis=0), delta)
                out.append(PartialGroups(
                    parents=uniq, best=best, best_row=best_row,
                    best_part=best_part, above=above))
            return out
        lists = self.inverted_lists(shards)
        probed = self.ivf.probe(queries, nprobe)
        out = []
        for g in range(groups):
            lo, hi = int(offsets[g]), int(offsets[g + 1])
            clusters = np.unique(probed[lo:hi])
            pos = _spans(lists.starts[clusters], lists.starts[clusters + 1])
            rows, first = np.unique(lists.rows[pos], return_index=True)
            if not len(rows):
                out.append(empty_partial(False))
                continue
            # einsum, not a BLAS gemm: BLAS picks differently-rounded
            # kernels by matrix shape, so a gemm'd row score would
            # depend on how many neighbours the probe (or the partition)
            # put beside it.  einsum's per-cell reduction is
            # shape-invariant, which partitioned grouped queries rely on.
            block = np.einsum("ij,kj->ik",
                              np.take(lists.vectors, pos[first], axis=0),
                              queries[lo:hi])
            uniq, _, best, best_row, best_part, above = \
                self._parent_partials(rows, block.max(axis=1),
                                      block.argmax(axis=1), delta)
            out.append(PartialGroups(parents=uniq, best=best,
                                     best_row=best_row,
                                     best_part=best_part, above=above))
        return out

    def _parent_arrays(self):
        """(parent_of, parent_row, parent_counts) — on a chunk-less
        engine every row is its own parent, so grouped queries degrade
        to plain per-row ranking."""
        if self.chunked:
            return self._parent_of, self._parent_row, self._parent_counts
        return self._rows, self._rows, np.ones(len(self), dtype=np.int64)

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
        parent_of = self._parent_arrays()[0]
        uniq, inverse = np.unique(parent_of[rows], return_inverse=True)
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
        parent_row = self._parent_arrays()[1]
        drow = parent_row[uniq]
        pos = np.searchsorted(rows, drow)
        have = pos < len(rows)
        have &= rows[np.minimum(pos, len(rows) - 1)] == drow
        design = np.full(len(uniq), np.nan)
        design[have] = block[0, pos[have]]
        return PartialGroups(parents=uniq, best=best, best_row=best_row,
                             best_part=best_part, above=above,
                             embed=embed, design=design)

    # -- merges --------------------------------------------------------------
    def merge_many(self, partials, k=5, delta=0.0):
        """Hit lists from per-partition ``partial_many`` results.

        A single partition's partials are already ranked top-k lists
        under the merge's own total order, so they become hits without a
        second selection.

        Args:
            partials: one ``partial_many`` result per partition, all
                for the same query batch over disjoint shard subsets.

        Raises:
            IndexStoreError: when the partitions' partials disagree on
                the query count.
        """
        if not partials:
            return []
        n = len(partials[0])
        if any(len(p) != n for p in partials):
            raise IndexStoreError(
                "partition partials disagree on the query count")
        if self.chunked:
            offsets = np.arange(n + 1, dtype=np.int64)
            return self.merge_groups(partials, offsets, [None] * n,
                                     k=k, delta=delta)
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

    def merge_groups(self, partials, offsets, regions=None, k=5,
                     delta=0.0, struct=None):
        """Hit lists from per-partition ``partial_groups`` results.

        The gather half: merges each group's per-parent partials across
        disjoint partitions, then ranks them.  Structural fusion happens
        *here* — the structural channel ranks every stored design
        globally, so it cannot be computed per partition; ``struct``
        follows the :meth:`query_groups` contract (fuse at the front).

        Args:
            partials: one ``partial_groups`` result per partition, all
                for the same groups over disjoint shard subsets.
        """
        if not partials:
            return []
        groups = len(partials[0])
        if any(len(p) != groups for p in partials):
            raise IndexStoreError(
                "partition partials disagree on the query group count")
        offsets = np.asarray(offsets, dtype=np.int64)
        if regions is None:
            regions = [None] * int(offsets[-1])
        if struct is not None and len(struct) != groups:
            raise IndexStoreError(
                f"{len(struct)} structural score vectors for "
                f"{groups} query groups")
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
        coverage = above / np.maximum(self._parent_arrays()[2][uniq], 1)
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
        parent_counts = self._parent_arrays()[2]
        n_parents = len(parent_counts)
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
        for rank, (row, score) in enumerate(zip(rows.tolist(),
                                                scores.tolist()), 1):
            entry = entries[row]
            hits.append(Match(rank, entry["name"], entry["path"],
                              entry["design"], score, score > delta))
        return hits

    def _parent_hits(self, parents, rows, parts, scores, coverage,
                     group_regions, delta, struct=None):
        """Ranked :class:`Match` rows for ranked parents; every other
        array is rank-aligned evidence (best row, best query part,
        score, coverage, and the structural score under fusion)."""
        parent_row = self._parent_arrays()[1]
        hits = []
        for rank, parent in enumerate(parents.tolist()):
            row_entry = self._entries[int(rows[rank])]
            parent_entry = self._entries[int(parent_row[parent])]
            score = float(scores[rank])
            hits.append(Match(
                rank=rank + 1, name=parent_entry["name"],
                path=parent_entry["path"], design=parent_entry["design"],
                score=score, is_piracy=bool(score > delta),
                via=("chunk" if row_entry.get("kind") == "chunk"
                     else "design"),
                region=row_entry.get("region"),
                query_region=group_regions[int(parts[rank])],
                coverage=float(coverage[rank]),
                struct=None if struct is None else float(struct[rank])))
        return hits
