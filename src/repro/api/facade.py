"""The public facade: ``Detector``, ``Corpus``, and ``Session``.

These three objects are the supported programmatic surface of the
reproduction (see ``docs/api.md`` for the stability contract).  They wrap
the fast internals grown in earlier PRs — GraphIR frontends, the batched
:class:`~repro.index.service.EmbeddingService`, the memory-mapped shard
store, and the sublinear :class:`~repro.index.engine.QueryEngine` —
behind a small, typed API, so notebooks, CI pipelines, the bundled HTTP
server, and the CLI all share one wiring instead of each re-deriving it:

- :class:`Detector` — a loaded model.  Fingerprints designs and compares
  pairs; loads the model once and caches the embedding service and the
  extraction frontend across calls.
- :class:`Corpus` — a fingerprint index on disk.  Open / build / add /
  migrate, plus typed top-k queries.
- :class:`Session` — a Detector bound to a Corpus: the one blessed entry
  point for detection work.  Reuses stored embeddings and the on-disk
  graph cache where possible and batches multi-suspect queries through
  one BLAS pass.

A *suspect* argument anywhere in this module may be a
:class:`~repro.ir.graphir.GraphIR`, a filesystem path (``pathlib.Path``,
any ``os.PathLike``, or a newline-free string naming an existing file or
ending in ``.v``), or a string of Verilog source text.
"""

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api.config import DetectorConfig
from repro.api.types import (
    ORIGIN_CACHE,
    ORIGIN_EXTRACTED,
    ORIGIN_INDEX,
    Comparison,
    Fingerprint,
    QueryResult,
)
from repro.calib import ARTIFACT_NAME, Calibration
from repro.core.gnn4ip import GNN4IP
from repro.core.persist import load_model
from repro.errors import IndexStoreError, ModelError, ReproError
from repro.index.cache import DFGCache
from repro.index.ingest import ingest_corpus
from repro.index.service import EmbeddingService
from repro.index.shards import assign_partitions
from repro.index.store import (
    CACHE_DIR,
    FORMAT_VERSION,
    FingerprintIndex,
    migrate_index,
    refuse_zero_suspects,
)
from repro.ir.frontends import get_frontend
from repro.ir.graphir import GraphIR


def _names_file(text):
    """Whether ``text`` names an existing file.  A string that cannot be
    a path at all (longer than the filesystem allows, say) is not one:
    it is source text."""
    try:
        return Path(text).is_file()
    except (OSError, ValueError):
        return False


def _job_labels(job, count):
    """A job's labels, one per suspect (``None`` where the caller gave
    none).

    Raises:
        ValueError: when the job names a different number of labels than
            it has suspects.
    """
    if job.labels is None:
        return [None] * count
    if len(job.labels) != count:
        raise ValueError(f"{len(job.labels)} labels for {count} suspects; "
                         f"give one label per suspect")
    return list(job.labels)


def _resolve_suspect(suspect, label=None, allow_paths=True):
    """Normalize a suspect to ``(graph_or_None, text_or_None, label)``.

    Strings are Verilog source unless they are newline-free and either
    name an existing file or end in ``.v`` (in which case the file is
    read — a missing ``.v`` path raises the usual ``FileNotFoundError``
    instead of being parsed as one-line source).

    ``allow_paths=False`` disables every filesystem access: strings are
    always source text and path-like objects are rejected.  Services
    handling **untrusted** input (the HTTP server) must use it — the
    convenience heuristic would otherwise let a remote caller probe and
    read local files by sending a filename as "source".
    """
    if isinstance(suspect, GraphIR):
        return suspect, None, label if label is not None else suspect.name
    if isinstance(suspect, os.PathLike):
        if not allow_paths:
            raise TypeError("path suspects are not accepted here "
                            "(untrusted-input mode)")
        path = Path(suspect)
        return None, path.read_text(), label if label is not None else str(path)
    if isinstance(suspect, str):
        if allow_paths and "\n" not in suspect \
                and (suspect.endswith(".v") or _names_file(suspect)):
            with open(suspect) as handle:
                return None, handle.read(), (label if label is not None
                                             else suspect)
        return None, suspect, label
    raise TypeError(f"suspect must be a GraphIR, a path, or Verilog "
                    f"source text, not {type(suspect).__name__}")


@dataclass
class QueryJob:
    """One query request for :meth:`Session.query_jobs`.

    A job carries ``suspects`` (GraphIRs, paths or Verilog source; see
    the module docstring) or ``vectors`` (precomputed embeddings, one
    per row), not both.  ``labels`` name the suspects in the results,
    one per suspect (a job with another count fails with
    ``ValueError``); a ``None`` label falls back to the suspect's own
    name (a graph's, a path), then to ``suspect[i]``.
    ``allow_paths=False`` takes every string as source text (untrusted
    input; see :func:`_resolve_suspect`).
    """

    suspects: list = None
    vectors: object = None
    labels: list = None
    k: int = 5
    nprobe: int = None
    exact: bool = False
    top: str = None
    allow_paths: bool = True


class Detector:
    """A loaded detection model with cached embedding machinery.

    Construct through :meth:`load`, :meth:`from_config`,
    :meth:`from_model`, or (explicitly) :meth:`untrained` — a missing
    model is always a loud :class:`~repro.errors.ModelError`, never a
    silent fall-back to random weights.
    """

    def __init__(self, model, *, level=None, delta=None, batch_size=64):
        featurizer = getattr(model.encoder, "featurizer", None)
        model_level = featurizer.level if featurizer is not None else "rtl"
        if level is not None and level != model_level:
            raise ModelError(
                f"model was trained at level {model_level!r}, not "
                f"{level!r}; train one with --level {level} or drop the "
                f"level override")
        self.model = model
        if delta is not None:
            self.model.delta = float(delta)
        self._service = EmbeddingService(model, batch_size=batch_size)
        self._frontend = None

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_config(cls, config):
        """Build a detector from a :class:`~repro.api.config.DetectorConfig`.

        Raises:
            ModelError: when no model path is configured and
                ``allow_untrained`` is not set, when the file is missing
                or not a model archive, or when the model's level
                conflicts with ``config.level``.
        """
        path = config.model_path()
        if path is None:
            if not config.allow_untrained:
                raise ModelError(
                    "no model configured: pass DetectorConfig(model=...) "
                    "or opt in to an untrained model with "
                    "allow_untrained=True")
            model = GNN4IP(seed=config.seed,
                           featurizer=config.level or "rtl")
        else:
            model = load_model(path)
        return cls(model, level=config.level, delta=config.delta,
                   batch_size=config.batch_size)

    @classmethod
    def load(cls, path, level=None, delta=None, batch_size=64):
        """Load a saved model (:class:`~repro.errors.ModelError` when
        missing or incompatible)."""
        return cls.from_config(DetectorConfig(model=path, level=level,
                                              delta=delta,
                                              batch_size=batch_size))

    @classmethod
    def untrained(cls, level="rtl", seed=0, delta=None):
        """An explicitly-requested fresh model (tests, smoke runs)."""
        return cls.from_config(DetectorConfig(level=level, seed=seed,
                                              delta=delta,
                                              allow_untrained=True))

    @classmethod
    def from_model(cls, model, delta=None, batch_size=64):
        """Wrap an in-memory :class:`~repro.core.gnn4ip.GNN4IP`."""
        return cls(model, delta=delta, batch_size=batch_size)

    # -- cached machinery ----------------------------------------------------
    @property
    def level(self):
        featurizer = getattr(self.model.encoder, "featurizer", None)
        return featurizer.level if featurizer is not None else "rtl"

    @property
    def delta(self):
        return self.model.delta

    @delta.setter
    def delta(self, value):
        self.model.delta = float(value)

    @property
    def service(self):
        """The batched embedding service (one per detector)."""
        return self._service

    @property
    def fingerprint_hash(self):
        """SHA-256 model fingerprint (computed once, cached)."""
        return self._service.fingerprint

    def frontend(self):
        """The extraction frontend for this model's level (cached)."""
        if self._frontend is None:
            self._frontend = get_frontend(self.level)
        return self._frontend

    # -- operations ----------------------------------------------------------
    def _graph_of(self, suspect, top=None, label=None, allow_paths=True):
        """(graph, content_key, label) for any suspect form."""
        graph, text, label = _resolve_suspect(suspect, label,
                                              allow_paths=allow_paths)
        if graph is not None:
            return graph, None, label
        frontend = self.frontend()
        cleaned = frontend.preprocess_text(text)
        key = frontend.content_key(cleaned, top=top)
        return frontend.extract_preprocessed(cleaned, top=top), key, label

    def fingerprint(self, suspect, top=None, label=None, allow_paths=True):
        """Embed one design; returns a :class:`~repro.api.types.Fingerprint`."""
        graph, key, label = self._graph_of(suspect, top=top, label=label,
                                           allow_paths=allow_paths)
        vector = self._service.embed_one(graph)
        return Fingerprint(vector=vector, key=key, design=graph.name,
                           level=self.level, origin=ORIGIN_EXTRACTED,
                           label=label)

    def compare(self, a, b, top=None, allow_paths=True):
        """Pairwise piracy check (Algorithm 1) on two suspects."""
        graph_a = self._graph_of(a, top=top, allow_paths=allow_paths)[0]
        graph_b = self._graph_of(b, top=top, allow_paths=allow_paths)[0]
        score = self.model.similarity(graph_a, graph_b)
        return Comparison(score=score, delta=self.model.delta,
                          is_piracy=bool(score > self.model.delta))

    def compare_fingerprints(self, fp_a, fp_b):
        """Piracy check from two precomputed fingerprints."""
        score = self.model.similarity_from_embeddings(fp_a.vector,
                                                      fp_b.vector)
        return Comparison(score=score, delta=self.model.delta,
                          is_piracy=bool(score > self.model.delta),
                          origins=(fp_a.origin, fp_b.origin))


class Corpus:
    """A fingerprint index on disk, wrapped for facade consumers.

    All constructors go through the v4 on-disk format checks: a v2 or v3
    index is refused with a migration message
    (:class:`~repro.errors.IndexStoreError`), use :meth:`migrate`.
    Queries run through :meth:`Session.query`.
    """

    #: Sentinel: the calibration artifact has not been looked up yet
    #: (``None`` is a valid cached answer — "no artifact on disk").
    _CALIBRATION_UNSET = object()

    def __init__(self, index):
        self._index = index
        self._detector = None
        self._partition = None
        self._calibration = Corpus._CALIBRATION_UNSET

    @classmethod
    def open(cls, root, partition=None):
        """Open an existing index (IndexStoreError when unusable).

        Args:
            partition: optional ``(which, count)`` pair for
                scatter-gather serving — the corpus then scopes its
                partial queries to partition ``which`` of ``count``
                balanced shard-file partitions (see
                :func:`repro.index.shards.assign_partitions`).  Whole-
                corpus queries (:meth:`Session.query`) are unaffected; the
                mmap'd shards are shared through the OS page cache, and
                IVF queries add one resident copy of each partition's
                rows (the engine's inverted lists), so N partitioned
                opens together hold one copy of the store.
        """
        corpus = cls(FingerprintIndex.load(root))
        if partition is not None:
            corpus.set_partition(*partition)
        return corpus

    def set_partition(self, which, count):
        """Scope partial queries to partition ``which`` of ``count``;
        returns the partition's shard ordinals."""
        parts = assign_partitions(self._index.shards.specs, count)
        which = int(which)
        if not 0 <= which < len(parts):
            raise IndexStoreError(
                f"partition {which} out of range for {len(parts)} "
                f"partitions")
        self._partition = parts[which]
        return self._partition

    @property
    def partition(self):
        """Shard ordinals partial queries score (``None`` = unscoped)."""
        return self._partition

    @property
    def partition_rows(self):
        """Stored rows in this corpus's partition (all rows when
        unscoped)."""
        specs = self._index.shards.specs
        if self._partition is None:
            return self._index.shards.rows
        return sum(int(specs[s]["rows"]) for s in self._partition)

    @classmethod
    def build(cls, root, paths, detector, config=None):
        """Build (or rebuild) an index: a fresh :meth:`ingest`.

        A rebuild over the cache reuses the previous index's rows for
        unchanged content when the model, options, and chunk config are
        unchanged.

        Args:
            detector: a :class:`Detector` (or a bare
                :class:`~repro.core.gnn4ip.GNN4IP`).
            config: an :class:`~repro.index.ingest.IngestConfig`.

        Returns:
            ``(corpus, report)``; ``corpus`` is ``None`` when the run
            paused at ``config.stop_after``.
        """
        return cls.ingest(root, paths, detector, config, fresh=True)

    @classmethod
    def ingest(cls, root, paths, detector=None, config=None, resume=True,
               fresh=False):
        """Streaming, resumable ingest; returns ``(corpus, report)``.

        The one index writer (:meth:`build` and :meth:`add` are its
        fresh and append modes): a multiprocess extract→chunk→embed
        worker pool, bounded-size shard flushes (flat peak memory), and
        a durable checkpoint so a killed ingest resumes exactly where it
        stopped — see :func:`repro.index.ingest.ingest_corpus`.  With an
        existing index at ``root`` and no checkpoint, new designs are
        appended in place.

        Args:
            detector: a :class:`Detector` (or bare
                :class:`~repro.core.gnn4ip.GNN4IP`); required for a
                fresh index, optional when resuming or appending (the
                index's own model is the default).
            config: an :class:`~repro.index.ingest.IngestConfig`.
            resume: pick up an existing checkpoint at ``root``.
            fresh: discard any checkpoint and existing index.

        Returns:
            ``(corpus, report)``; ``corpus`` is ``None`` when the run
            paused at ``config.stop_after``.
        """
        model = (detector.model if isinstance(detector, Detector)
                 else detector)
        index, report = ingest_corpus(root, paths, model=model,
                                      config=config, resume=resume,
                                      fresh=fresh)
        if index is None:
            return None, report
        return cls(index), report

    @classmethod
    def migrate(cls, root):
        """Convert a v2/v3 index to v4 in place; returns the opened
        corpus (no re-embedding; rebuild to also index chunks)."""
        return cls(migrate_index(root))

    def add(self, paths, config=None):
        """Append designs in place; returns the report.

        An append :meth:`ingest` (ignoring any checkpoint) with the
        index's own model, level, and chunk config; content the index
        already holds reuses its stored rows.

        Args:
            config: an :class:`~repro.index.ingest.IngestConfig` (its
                ``jobs``, ``flush_rows``, ``batch_size``, and
                ``progress`` apply).
        """
        self._index, report = ingest_corpus(self.root, paths, config=config,
                                            resume=False)
        return report

    # -- introspection -------------------------------------------------------
    @property
    def index(self):
        """The underlying :class:`~repro.index.store.FingerprintIndex`
        (internal surface — may change between versions)."""
        return self._index

    @property
    def root(self):
        return self._index.root

    @property
    def level(self):
        return self._index.level

    @property
    def top(self):
        return self._index.top

    @property
    def use_cache(self):
        return self._index.use_cache

    @property
    def model_hash(self):
        return self._index.model_hash

    @property
    def entries(self):
        return self._index.entries

    @property
    def shard_count(self):
        return len(self._index.shards.specs)

    @property
    def ivf_clusters(self):
        return self._index.ivf.n_clusters if self._index.ivf else 0

    def __len__(self):
        return len(self._index)

    def stats(self):
        return self._index.stats()

    def serving_description(self, nprobe=None, exact=False, sources=False):
        """How a query with these flags is served: ``"exact"`` or
        ``"ivf:N probes"`` with the clamp the quantizer actually applies
        (:meth:`~repro.index.engine.QueryEngine.serving_description`).
        ``sources`` marks a query by suspect source: on a signed index
        it is fused with the structural channel, so it scores exactly."""
        fused = sources and self._index.signature_scorer() is not None
        return self._index.engine.serving_description(nprobe, exact, fused)

    def frontend(self):
        return self._index.frontend()

    def detector(self):
        """A :class:`Detector` over the index's own persisted model
        (loaded once, cached on the corpus)."""
        if self._detector is None:
            self._detector = Detector.from_model(self._index.model())
        return self._detector

    def calibration(self):
        """The index's persisted calibration artifact, or ``None``.

        Looks for ``calibration.json`` in the index root (written by
        ``gnn4ip calibrate`` / :meth:`Session.calibrate`), validates it
        against this corpus's model hash, on-disk format version, and
        level, and caches the result — including the negative "no
        artifact" answer.  A stale artifact raises
        :class:`~repro.errors.CalibrationError` instead of being
        silently applied.
        """
        if self._calibration is Corpus._CALIBRATION_UNSET:
            path = self.root / ARTIFACT_NAME
            if not path.is_file():
                self._calibration = None
            else:
                self._calibration = Calibration.load(
                    path, model_hash=self.model_hash,
                    index_format=FORMAT_VERSION, level=self.level)
        return self._calibration

    def set_calibration(self, artifact):
        """Replace the cached calibration (e.g. after a fresh fit)."""
        self._calibration = artifact

    # -- queries -------------------------------------------------------------
    def lookup(self, key):
        """Stored embedding for a content key, or ``None``."""
        return self._index.lookup_key(key)

    def entry_for_key(self, key):
        """The stored ok-entry dict for a content key, or ``None``."""
        return self._index.entry_for_key(key)


class Session:
    """A :class:`Detector` bound to a :class:`Corpus` — the blessed entry
    point.

    The session owns nothing heavyweight itself; it wires the cached
    pieces together so repeated calls stay hot: the detector's embedding
    service and frontend, the corpus's memory-mapped engine and stored
    rows, and the on-disk graph cache.  ``fingerprint`` reuses stored
    index rows (then the graph cache) before extracting from scratch;
    ``query`` embeds every suspect in one batched forward pass and scores
    the whole batch in one engine call.
    """

    def __init__(self, detector=None, corpus=None):
        if detector is None and corpus is None:
            raise ValueError("a Session needs a detector, a corpus, "
                             "or both")
        if detector is not None and corpus is not None \
                and detector.level != corpus.level:
            raise ModelError(
                f"the corpus was built at level {corpus.level!r} but the "
                f"detector runs at {detector.level!r}")
        self._detector = detector
        self.corpus = corpus

    @classmethod
    def open(cls, index_dir, model=None, delta=None, partition=None):
        """Open an index directory, binding its own model (or ``model``).

        The one-call entry point::

            session = Session.open("library.index")
            results = session.query(["suspect_a.v", "suspect_b.v"], k=5)

        ``partition`` is forwarded to :meth:`Corpus.open` — serving
        workers open the same index scoped to their shard partition.
        """
        corpus = Corpus.open(index_dir, partition=partition)
        detector = Detector.load(model, delta=delta) if model else None
        return cls(detector=detector, corpus=corpus)

    @property
    def detector(self):
        """The bound detector (the corpus's own model, loaded lazily,
        when none was supplied)."""
        if self._detector is None:
            self._detector = self.corpus.detector()
        return self._detector

    @property
    def bound_detector(self):
        """The detector only if one is already bound — never triggers a
        lazy model load (vector-only consumers probe this)."""
        return self._detector

    @property
    def delta(self):
        return self.detector.delta

    # -- extraction ----------------------------------------------------------
    def _frontend(self):
        return (self.corpus.frontend() if self.corpus is not None
                else self.detector.frontend())

    def _default_top(self):
        return self.corpus.top if self.corpus is not None else None

    def extract(self, suspect, top=None, allow_paths=True):
        """Extract a suspect to GraphIR with the session's frontend and
        default top-module option."""
        graph, text, _ = _resolve_suspect(suspect, allow_paths=allow_paths)
        if graph is not None:
            return graph
        top = top if top is not None else self._default_top()
        return self._frontend().extract(text, top=top)

    # -- operations ----------------------------------------------------------
    def fingerprint(self, suspect, top=None, label=None, allow_paths=True):
        """Embed a suspect, reusing index rows and the graph cache.

        Resolution order (the ``origin`` field records which won):
        a stored index row for the same content under the same model,
        the index's on-disk graph cache, then fresh extraction.  A
        ``--no-cache`` corpus never grows a cache directory as a side
        effect.  ``allow_paths=False`` treats string suspects strictly
        as source text (untrusted-input mode; see
        :func:`_resolve_suspect`).
        """
        if self.corpus is None:
            return self.detector.fingerprint(suspect, top=top, label=label,
                                             allow_paths=allow_paths)
        graph, text, label = _resolve_suspect(suspect, label,
                                              allow_paths=allow_paths)
        if graph is not None:
            vector = self.detector.service.embed_one(graph)
            return Fingerprint(vector=vector, key=None, design=graph.name,
                               level=self.detector.level,
                               origin=ORIGIN_EXTRACTED, label=label)
        frontend = self._frontend()
        top = top if top is not None else self._default_top()
        cleaned = frontend.preprocess_text(text)
        key = frontend.content_key(cleaned, top=top)
        if self.detector.fingerprint_hash == self.corpus.model_hash:
            stored = self.corpus.lookup(key)
            if stored is not None:
                entry = self.corpus.entry_for_key(key)
                return Fingerprint(vector=stored, key=key,
                                   design=entry["design"],
                                   level=self.corpus.level,
                                   origin=ORIGIN_INDEX, label=label)
        # Respect the corpus's cache policy: a --no-cache index must not
        # grow a cache/ directory as a side effect of lookups.
        cache = (DFGCache(self.corpus.root / CACHE_DIR)
                 if self.corpus.use_cache else None)
        graph = cache.load(key) if cache is not None else None
        origin = ORIGIN_CACHE if graph is not None else ORIGIN_EXTRACTED
        if graph is None:
            graph = frontend.extract_preprocessed(cleaned, top=top)
            if cache is not None:
                cache.store(key, graph)
        vector = self.detector.service.embed_one(graph)
        return Fingerprint(vector=vector, key=key, design=graph.name,
                           level=self.corpus.level, origin=origin,
                           label=label)

    def compare(self, a, b, top=None, allow_paths=True):
        """Pairwise check; with a corpus bound, both sides reuse stored
        embeddings / cached graphs where possible.  A fitted corpus
        calibration annotates the result with a probability, confidence
        band, and calibrated verdict (raw score and delta unchanged).
        """
        if self.corpus is None:
            return self.detector.compare(a, b, top=top,
                                         allow_paths=allow_paths)
        fp_a = self.fingerprint(a, top=top, allow_paths=allow_paths)
        fp_b = self.fingerprint(b, top=top, allow_paths=allow_paths)
        comparison = self.detector.compare_fingerprints(fp_a, fp_b)
        artifact = self.corpus.calibration()
        if artifact is not None:
            artifact.annotate_comparison(comparison)
        return comparison

    @property
    def default_delta(self):
        """The decision boundary vector-only queries are judged against.

        The bound detector's delta when one is (or can be) bound; a
        corpus whose persisted model cannot be loaded (synthetic /
        model-less stores) falls back to 0.0.  Resolving eagerly here
        keeps verdicts independent of call order — the first *source*
        query must not silently change the threshold later vector
        queries use.
        """
        if self._detector is not None:
            return self._detector.delta
        if self.corpus is not None:
            try:
                return self.detector.delta
            except ModelError:
                return 0.0
        return 0.0

    def evaluate(self, config=None, **overrides):
        """Run the adversarial piracy-scenario evaluation on this session.

        Generates the attack suite from :mod:`repro.eval.scenarios` for
        every configured design family present in the bound corpus,
        pushes all suspects through one batched :meth:`query` pass, and
        scores detection quality per scenario and overall.

        Args:
            config: an :class:`~repro.eval.runner.EvalConfig` (defaults
                to the small default corpus configuration).
            **overrides: field overrides applied on top of ``config``
                (e.g. ``scenarios=("netlist_obfuscate_s2",)``, ``seed=7``).

        Returns:
            :class:`~repro.eval.report.EvalReport`

        Raises:
            EvalError: no corpus bound, level mismatch, or no
                configured family present in the corpus.
        """
        from dataclasses import replace

        from repro.eval.runner import EvalConfig, evaluate_session

        config = config if config is not None else EvalConfig(
            level=self.corpus.level if self.corpus is not None else "rtl")
        if overrides:
            config = replace(config, **overrides)
        return evaluate_session(self, config)

    def calibrate(self, config=None, bootstrap=32, save=True, **overrides):
        """Fit a calibration artifact for this session's corpus.

        Generates the scenario suite (genuine suspects plus the
        configured impostor families), runs it through one batched
        :meth:`query` pass, fits both calibration tiers, and — with
        ``save`` — persists ``calibration.json`` into the index root so
        every later :meth:`query`/:meth:`compare` (in-process, CLI, or
        served) reports calibrated probabilities.

        Args:
            config: an :class:`~repro.eval.runner.EvalConfig`; defaults
                to the corpus's level with standard settings.
            bootstrap: confidence-band bootstrap replicas (0 disables
                bands; probabilities are unaffected).
            save: write the artifact next to the index.
            **overrides: ``EvalConfig`` field overrides.

        Returns:
            the fitted :class:`~repro.calib.Calibration`.

        Raises:
            EvalError: no corpus bound or no configured family present.
            CalibrationError: too little or single-class fit data.
        """
        from dataclasses import replace

        from repro.eval.runner import EvalConfig, fit_session_calibration

        if self.corpus is None:
            raise ModelError("calibration needs a corpus bound; "
                             "open one with Session.open(index_dir)")
        config = config if config is not None else EvalConfig(
            level=self.corpus.level)
        if overrides:
            config = replace(config, **overrides)
        # The fit queries must run *un*-annotated: an existing artifact
        # adds nothing to the raw evidence rows, and a stale one would
        # make the refit refuse — the one command that fixes staleness
        # has to work on a stale index.
        self.corpus.set_calibration(None)
        artifact = fit_session_calibration(self, config,
                                           bootstrap=bootstrap)
        if save:
            artifact.save(self.corpus.root)
        self.corpus.set_calibration(artifact)
        return artifact

    def query(self, suspects, k=5, nprobe=None, exact=False, top=None,
              labels=None, allow_paths=True):
        """Rank the corpus against a batch of suspects.

        Suspects may be GraphIRs, paths, source strings, or — for
        callers that already hold embeddings — numeric vectors; forms
        cannot be mixed with vectors in one call.  The batch is one
        :meth:`query_jobs` job: graph suspects are embedded in **one**
        batched forward pass and scored in one engine call.
        """
        suspects = list(suspects)
        vectors = [np.asarray(s, dtype=np.float64) for s in suspects
                   if isinstance(s, (np.ndarray, list, tuple))]
        if vectors and len(vectors) != len(suspects):
            raise TypeError("cannot mix vector suspects with "
                            "graph/source suspects in one query")
        job = QueryJob(suspects=None if vectors else suspects,
                       vectors=vectors or None, labels=labels, k=k,
                       nprobe=nprobe, exact=exact, top=top,
                       allow_paths=allow_paths)
        (outcome,) = self.query_jobs([job])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def query_jobs(self, jobs, score=None):
        """Serve a batch of query jobs with shared heavy passes.

        The one suspect-query pipeline: :meth:`query` runs it for one
        job, the HTTP server for each micro-batched gulp.  In order, it

        1. extracts every job's suspects and decomposes them the way the
           corpus is stored (parts, and structural scores on a signed
           index);
        2. embeds every part across the jobs in one batched pass;
        3. refuses a suspect whose whole-design row embeds to zero;
        4. validates vector jobs
           (:meth:`~repro.index.engine.QueryEngine.check_vectors`);
        5. scores each group of jobs with one ``score`` call;
        6. labels the hit lists and annotates them with the corpus
           calibration.

        A group only holds jobs that would be routed the same way alone:
        the same ``k``, ``nprobe`` and ``exact``, and all fused (ranked
        with the structural channel) or none.  A job's hits therefore do
        not depend on the other jobs in its batch.

        Args:
            jobs: :class:`QueryJob` list.
            score: ``callable(vectors, offsets, regions, k=, delta=,
                nprobe=, exact=, struct=)`` returning one hit list per
                offsets group; defaults to the engine's
                :meth:`~repro.index.engine.QueryEngine.query_groups`
                (the server passes its scatter-gather here).

        Returns:
            One entry per job, in order: its
            :class:`~repro.api.types.QueryResult` list, or the exception
            that failed that job alone.  Any exception from extracting a
            job's suspects is that job's; a shared pass (embedding,
            scoring) hands its :class:`~repro.errors.ReproError` to
            every job it served and lets any other exception escape.

        Raises:
            ModelError: when the session has no corpus bound.
        """
        if self.corpus is None:
            raise ModelError("this session has no corpus bound; "
                             "open one with Session.open(index_dir)")
        index = self.corpus.index
        if score is None:
            score = index.engine.query_groups
        out = [None] * len(jobs)
        # A stale artifact fails every job loudly: silently dropping
        # probabilities would hide the problem.
        try:
            calibration = self.corpus.calibration()
        except ReproError as exc:
            return [exc] * len(jobs)
        # ready[idx] = (part vectors, group prefix offsets with one group
        # per suspect, per-part regions, per-suspect structural scores or
        # None, labels).
        ready = {}
        extracted = {}
        for idx, job in enumerate(jobs):
            if job.vectors is not None:
                continue
            try:
                extracted[idx] = self._decompose(job)
            except Exception as exc:
                # Typed errors become the job's 4xx at the server;
                # anything else its 500, which names the type only.
                out[idx] = exc
        if extracted:
            try:
                service = index.service_for(self.detector.model)
                embedded = service.embed_graphs(
                    [part for parts, *_ in extracted.values()
                     for part in parts])
            except ReproError as exc:
                for idx in extracted:
                    out[idx] = exc
            else:
                cursor = 0
                for idx, (parts, offsets, regions, struct, labels,
                          names) in extracted.items():
                    rows = embedded[cursor:cursor + len(parts)]
                    cursor += len(parts)
                    try:
                        refuse_zero_suspects(rows, offsets, names)
                    except ModelError as exc:
                        out[idx] = exc
                    else:
                        ready[idx] = rows, offsets, regions, struct, labels
        for idx, job in enumerate(jobs):
            if job.vectors is None:
                continue
            # Each supplied vector is its own single-part group.
            try:
                rows = index.engine.check_vectors(job.vectors)
                labels = _job_labels(job, len(rows))
            except (ReproError, ValueError) as exc:
                out[idx] = exc
                continue
            ready[idx] = (rows, list(range(len(rows) + 1)),
                          [None] * len(rows), None, labels)

        groups = {}
        for idx, entry in ready.items():
            job = jobs[idx]
            key = (job.k, job.nprobe, job.exact, entry[3] is not None)
            groups.setdefault(key, []).append(idx)
        # default_delta keeps verdicts call-order independent
        # (model-less synthetic stores fall back to 0.0).
        delta = self.default_delta
        for (k, nprobe, exact, fused), members in groups.items():
            offsets, regions, struct = [0], [], []
            for idx in members:
                _, job_offsets, job_regions, job_struct, _ = ready[idx]
                base = offsets[-1]
                offsets.extend(base + off for off in job_offsets[1:])
                regions.extend(job_regions)
                struct.extend(job_struct or ())
            try:
                hit_lists = score(
                    np.concatenate([ready[idx][0] for idx in members]),
                    offsets, regions, k=k, delta=delta, nprobe=nprobe,
                    exact=exact, struct=struct if fused else None)
            except ReproError as exc:
                for idx in members:
                    out[idx] = exc
                continue
            cursor = 0
            for idx in members:
                _, job_offsets, _, _, labels = ready[idx]
                count = len(job_offsets) - 1
                results = [
                    QueryResult(label=label or f"suspect[{i}]",
                                matches=hits)
                    for i, (label, hits) in enumerate(zip(
                        labels, hit_lists[cursor:cursor + count]))]
                cursor += count
                if calibration is not None:
                    for result in results:
                        calibration.annotate_matches(result.matches)
                out[idx] = results
        return out

    def _decompose(self, job):
        """A suspect job's graphs, decomposed the way the corpus is
        stored: ``(parts, offsets, regions, struct, labels, names)``.

        A label is the caller's, else the suspect's own name (a graph's,
        a path), else ``None``; ``names`` name the suspects in errors
        (the label, else the graph's name).
        """
        index = self.corpus.index
        graphs, labels = [], []
        for suspect, label in zip(job.suspects,
                                  _job_labels(job, len(job.suspects))):
            graph, text, label = _resolve_suspect(
                suspect, label, allow_paths=job.allow_paths)
            if graph is None:
                graph = self.extract(text, top=job.top, allow_paths=False)
            graphs.append(graph)
            labels.append(label)
        parts, offsets, regions = index.suspect_parts(
            graphs, self.detector.model.encoder)
        return (parts, offsets, regions, index.suspect_struct(graphs),
                labels, [label or graph.name
                         for label, graph in zip(labels, graphs)])
