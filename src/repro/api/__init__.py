"""Public API facade for the GNN4IP reproduction.

This package is the **stable programmatic surface**: everything else
under ``repro.*`` (the index internals, the nn stack, the frontends) is
implementation detail that may change between versions; see
``docs/api.md`` for the contract.

Three facade objects cover the paper's deployment workflow:

>>> from repro.api import Detector, Corpus, Session          # doctest: +SKIP
>>> detector = Detector.load("model.npz")                    # doctest: +SKIP
>>> corpus, report = Corpus.build("lib.index", paths, detector)  # doctest: +SKIP
>>> session = Session(detector=detector, corpus=corpus)      # doctest: +SKIP
>>> for result in session.query(["suspect.v"], k=5):         # doctest: +SKIP
...     for match in result:
...         print(match.rank, match.design, match.score, match.is_piracy)
"""

from repro.api.config import DetectorConfig
from repro.api.facade import Corpus, Detector, Session
from repro.index.ingest import IngestConfig, walk_sources
from repro.api.types import (
    ORIGIN_CACHE,
    ORIGIN_EXTRACTED,
    ORIGIN_INDEX,
    Comparison,
    Fingerprint,
    Match,
    QueryResult,
)

__all__ = [
    "DetectorConfig", "IngestConfig", "walk_sources",
    "Detector", "Corpus", "Session",
    "Comparison", "Fingerprint", "Match", "QueryResult",
    "ORIGIN_CACHE", "ORIGIN_EXTRACTED", "ORIGIN_INDEX",
]
