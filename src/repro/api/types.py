"""Typed results returned by the public facade.

Every result object carries an ``as_dict()`` serializer producing plain
JSON-compatible data.  These serializers are the single wire format for
the whole surface: the HTTP server's response bodies, the CLI's
``--json`` output, and library consumers all read the same shapes, so a
script that parses ``gnn4ip compare --json`` also parses a
``POST /v1/compare`` response.  :class:`QueryResult` and
:class:`Match` also write themselves as JSON text (``as_json()``),
byte-identical to ``json.dumps`` of their ``as_dict()``: the server's
``/v1/query`` replies are built from that text.

:class:`Match` lives beside the query engine that builds it
(:mod:`repro.index.match`) and is re-exported here unchanged.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.index.match import Match  # noqa: F401  (public re-export)
from repro.index.match import encode_json

#: Where a fingerprint's embedding came from (cheapest first): reused
#: straight from the index's stored rows, rebuilt from the on-disk graph
#: cache, or extracted + embedded from scratch.
ORIGIN_INDEX = "index"
ORIGIN_CACHE = "cache"
ORIGIN_EXTRACTED = "extracted"


@dataclass
class Fingerprint:
    """One design's embedding under a fixed model.

    Attributes:
        vector: the embedding row (numpy float array).
        key: content-address of the preprocessed source under the
            frontend that extracted it (``None`` for raw-graph inputs).
        design: the design (module) name, when known.
        level: extraction level (``rtl`` / ``netlist``).
        origin: :data:`ORIGIN_INDEX`, :data:`ORIGIN_CACHE`, or
            :data:`ORIGIN_EXTRACTED`.
        label: caller-supplied label (usually the source path).
    """

    vector: np.ndarray
    key: str = None
    design: str = None
    level: str = None
    origin: str = ORIGIN_EXTRACTED
    label: str = None

    def as_dict(self):
        return {
            "vector": [float(v) for v in np.asarray(self.vector).ravel()],
            "key": self.key,
            "design": self.design,
            "level": self.level,
            "origin": self.origin,
            "label": self.label,
        }


@dataclass
class Comparison:
    """A pairwise piracy check (paper Algorithm 1).

    ``score``/``delta``/``is_piracy`` are the raw decision (unchanged
    for compatibility).  When a calibration artifact is bound to the
    session, ``probability`` carries the calibrated piracy probability
    with its bootstrap band in ``confidence_low``/``confidence_high``,
    and ``verdict`` follows the calibrated operating point instead of
    the raw delta cut (see docs/api.md for the precedence rules).
    """

    score: float
    delta: float
    is_piracy: bool
    #: Embedding origins for the two sides, when the comparison ran
    #: through a :class:`~repro.api.facade.Session` with an index bound.
    origins: tuple = None
    #: Calibrated piracy probability in [0, 1] (``None`` uncalibrated).
    probability: float = None
    confidence_low: float = None
    confidence_high: float = None
    #: Calibrated yes/no decision at the artifact's operating point
    #: (``None`` uncalibrated — ``verdict`` then falls back to the raw
    #: ``is_piracy`` delta cut).
    calibrated_piracy: bool = None

    @property
    def flagged(self):
        """The effective decision: calibrated operating point when a
        calibration is attached, the raw delta cut otherwise."""
        return (self.is_piracy if self.calibrated_piracy is None
                else self.calibrated_piracy)

    @property
    def verdict(self):
        """Human-readable verdict string (the CLI's wording)."""
        return "PIRACY" if self.flagged else "no piracy"

    def as_dict(self):
        return {
            "score": float(self.score),
            "delta": float(self.delta),
            "is_piracy": bool(self.is_piracy),
            "verdict": self.verdict,
            "origins": list(self.origins) if self.origins else None,
            "probability": (None if self.probability is None
                            else float(self.probability)),
            "confidence_low": (None if self.confidence_low is None
                               else float(self.confidence_low)),
            "confidence_high": (None if self.confidence_high is None
                                else float(self.confidence_high)),
        }


@dataclass
class QueryResult:
    """Ranked matches for one suspect in a query batch."""

    label: str
    matches: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.matches)

    def __len__(self):
        return len(self.matches)

    def __getitem__(self, item):
        return self.matches[item]

    def as_dict(self):
        return {
            "label": self.label,
            "matches": [m.as_dict() for m in self.matches],
        }

    def as_json(self):
        """``json.dumps(self.as_dict())``, written from
        :meth:`Match.as_json` without building the dicts."""
        return '{"label": %s, "matches": [%s]}' % (
            encode_json(self.label),
            ", ".join([m.as_json() for m in self.matches]))
