"""The ranked hit type: one corpus match for one query design.

:class:`~repro.index.engine.QueryEngine` builds these directly, with
their 1-based ranks, and every consumer reads the same objects: the
public facade (re-exported as :class:`repro.api.Match`), the HTTP
server's reply bodies, and calibration, which annotates them in
place.  The module imports nothing from the
rest of the package, so the engine and the API can both depend on it.

A match has two wire forms built from one key list, :data:`KEYS`:
:meth:`Match.as_dict` (the CLI's ``--json``, library callers) and
:meth:`Match.as_json`, the same object as JSON text, byte-identical to
``json.dumps(match.as_dict())``.  The HTTP server writes ``/v1/query``
replies from the text form without building the dicts.
"""

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

#: A match's wire keys, in wire order.  ``as_dict`` and ``as_json``
#: both follow this list, so their key sets and orders cannot differ.
KEYS = (
    "rank",
    "name",
    "path",
    "design",
    "score",
    "is_piracy",
    "via",
    "region",
    "query_region",
    "coverage",
    "struct",
    "probability",
    "confidence_low",
    "confidence_high",
    "verdict",
)

#: Locality evidence and calibration fields: all ``None`` for a plain
#: vector query on an uncalibrated index, the common served case.
EVIDENCE = (
    "region",
    "query_region",
    "coverage",
    "struct",
    "probability",
    "confidence_low",
    "confidence_high",
)


def encode_json(value):
    """``json.dumps(value)``, with the scalar types a reply holds written
    directly: ``null``/``true``/``false``, ``float.__repr__`` for finite
    floats, ``NaN``/``Infinity``/``-Infinity`` otherwise, and
    ``encode_basestring_ascii`` for strings.  Anything else (region
    dicts) goes through ``json.dumps``."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is float:
        if math.isfinite(value):
            return float.__repr__(value)
        if value != value:
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _template(nulls=()):
    """A ``%``-format string for one match object: every key of
    :data:`KEYS` written as a literal, followed by a ``%s`` slot for its
    value or by ``null`` for the keys in ``nulls``."""
    return "{%s}" % ", ".join(
        f"{json.dumps(key)}: {'null' if key in nulls else '%s'}" for key in KEYS
    )


_TEMPLATE = _template()
#: The template with every :data:`EVIDENCE` field already ``null``.
_PLAIN_TEMPLATE = _template(EVIDENCE)


def _float_or_none(value):
    return None if value is None else float(value)


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
        return (
            self.is_piracy if self.calibrated_piracy is None else self.calibrated_piracy
        )

    @property
    def verdict(self):
        """Calibrated verdict when a probability is attached, the raw
        delta cut otherwise."""
        return "PIRACY" if self.flagged else "no piracy"

    def _wire_values(self):
        """The wire values in :data:`KEYS` order."""
        return (
            int(self.rank),
            self.name,
            self.path,
            self.design,
            float(self.score),
            bool(self.is_piracy),
            self.via,
            self.region,
            self.query_region,
            _float_or_none(self.coverage),
            _float_or_none(self.struct),
            _float_or_none(self.probability),
            _float_or_none(self.confidence_low),
            _float_or_none(self.confidence_high),
            self.verdict,
        )

    def as_dict(self):
        return dict(zip(KEYS, self._wire_values()))

    def as_json(self):
        """``json.dumps(self.as_dict())``, written without the dict.

        A hit with every :data:`EVIDENCE` field ``None``, a finite score
        and string names fills the constant plain template; any other
        hit encodes each value by JSON's rules (:func:`encode_json`).
        """
        score = float(self.score)
        if (
            self.region is None
            and self.query_region is None
            and self.coverage is None
            and self.struct is None
            and self.probability is None
            and self.confidence_low is None
            and self.confidence_high is None
            and math.isfinite(score)
        ):
            try:
                return _PLAIN_TEMPLATE % (
                    int(self.rank),
                    encode_basestring_ascii(self.name),
                    encode_basestring_ascii(self.path),
                    encode_basestring_ascii(self.design),
                    float.__repr__(score),
                    "true" if self.is_piracy else "false",
                    encode_basestring_ascii(self.via),
                    encode_basestring_ascii(self.verdict),
                )
            except TypeError:  # a name, path, design or via that is no str
                pass
        return _TEMPLATE % tuple(map(encode_json, self._wire_values()))
