"""The ranked hit type: one corpus match for one query design.

:class:`~repro.index.engine.QueryEngine` builds these directly, with
their 1-based ranks, and every consumer reads the same objects: the
public facade (re-exported as :class:`repro.api.Match`), the HTTP
server's reply bodies through :meth:`Match.as_dict`, and calibration,
which annotates them in place.  The module imports nothing from the
rest of the package, so the engine and the API can both depend on it.
"""

from dataclasses import dataclass


@dataclass
class Match:
    """One ranked corpus hit for a query design.

    ``rank`` is the hit's 1-based position in its query's ranked list.
    The four fields after ``is_piracy`` are locality evidence from chunk-level
    aggregation (format-v4 indexes): *which region* of the stored
    design matched (``region``), which region of the suspect matched it
    (``query_region``), whether the winning row was a whole design or a
    chunk (``via``), and the fraction of the design's stored rows
    scoring above delta (``coverage``).  They keep their defaults on a
    chunk-less index.

    ``struct`` is the structural reverse-containment score from rank
    fusion (``None`` outside fused queries).  When the session has a
    calibration artifact bound, ``probability`` carries the calibrated
    piracy probability for this match with its bootstrap confidence
    band in ``confidence_low``/``confidence_high``; ``verdict`` then
    reflects the calibrated operating point.  Raw ``score`` and
    ``is_piracy`` (the delta cut) are unchanged for compatibility.
    """

    rank: int
    name: str
    path: str
    design: str
    score: float
    is_piracy: bool
    via: str = "design"
    region: dict = None
    query_region: dict = None
    coverage: float = None
    struct: float = None
    probability: float = None
    confidence_low: float = None
    confidence_high: float = None
    calibrated_piracy: bool = None

    @property
    def flagged(self):
        """The effective decision: calibrated operating point when a
        calibration is attached, the raw delta cut otherwise."""
        return (self.is_piracy if self.calibrated_piracy is None
                else self.calibrated_piracy)

    @property
    def verdict(self):
        """Calibrated verdict when a probability is attached, the raw
        delta cut otherwise."""
        return "PIRACY" if self.flagged else "no piracy"

    def as_dict(self):
        return {
            "rank": int(self.rank),
            "name": self.name,
            "path": self.path,
            "design": self.design,
            "score": float(self.score),
            "is_piracy": bool(self.is_piracy),
            "via": self.via,
            "region": self.region,
            "query_region": self.query_region,
            "coverage": (None if self.coverage is None
                         else float(self.coverage)),
            "struct": (None if self.struct is None
                       else float(self.struct)),
            "probability": (None if self.probability is None
                            else float(self.probability)),
            "confidence_low": (None if self.confidence_low is None
                               else float(self.confidence_low)),
            "confidence_high": (None if self.confidence_high is None
                                else float(self.confidence_high)),
            "verdict": self.verdict,
        }
