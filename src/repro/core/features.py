"""Node featurization: per-frontend label vocabularies and one-hot encodings.

The paper initializes each node embedding "by directly converting the node's
name to its corresponding one-hot vector" (§III-C).  Like hw2vec, the name is
first normalized to a type label; each extraction frontend has its own fixed
vocabulary:

- **rtl** — every label the dataflow analyzer can emit (operators, signal
  roles, constants), preserved verbatim from the original DFG-only path.
- **netlist** — the gate cell library (``and`` ... ``mux``, ``dff``) plus
  port roles and constants, matching :mod:`repro.netlist.to_ir`.

Featurizers implement the :class:`repro.ir.Featurizer` protocol: they carry
their level, reject graphs from the wrong frontend with
:class:`~repro.errors.ModelError`, and expose a stable schema
:meth:`~OneHotFeaturizer.fingerprint` that cache keys and index metadata
fold in, so a vocabulary change invalidates stale cached artifacts instead
of silently reusing them.
"""

import hashlib

import numpy as np

from repro.errors import ModelError
from repro.ir.graphir import LEVEL_NETLIST, LEVEL_RTL
from repro.ir.oplabels import BINARY_OP_LABELS, GATE_LABELS, UNARY_OP_LABELS
from repro.netlist.cells import CELLS, DFF

#: Bump when the meaning of existing labels changes (not needed for pure
#: vocabulary additions, which already change the fingerprint).
SCHEMA_VERSION = 1

#: Labels the analyzer can attach to op nodes beyond plain operators.
_STRUCTURAL_LABELS = (
    "branch", "concat", "repeat", "pointer", "partselect", "partassign",
    "func", "dff", "posedge", "negedge", "nand", "nor", "buf",
)
_SIGNAL_LABELS = ("input", "output", "wire", "reg")
_CONST_LABELS = ("const",)


def _build_vocabulary():
    labels = []
    seen = set()
    for label in (
            list(BINARY_OP_LABELS.values())
            + list(UNARY_OP_LABELS.values())
            + list(GATE_LABELS.values())
            + list(_STRUCTURAL_LABELS)
            + list(_SIGNAL_LABELS)
            + list(_CONST_LABELS)):
        if label not in seen:
            seen.add(label)
            labels.append(label)
    return tuple(labels)


class OneHotFeaturizer:
    """Vocabulary-driven one-hot featurizer for one graph level.

    Implements the :class:`repro.ir.Featurizer` protocol.

    Args:
        name: registry name (also what model configs persist).
        level: the ``GraphIR.level`` this featurizer accepts.
        vocabulary: ordered label tuple; order defines feature columns.
    """

    __slots__ = ("name", "level", "vocabulary", "label_index", "dim")

    def __init__(self, name, level, vocabulary):
        self.name = name
        self.level = level
        self.vocabulary = tuple(vocabulary)
        self.label_index = {label: i
                            for i, label in enumerate(self.vocabulary)}
        self.dim = len(self.vocabulary)

    def fingerprint(self):
        """Stable hex digest of the feature schema.

        Covers the schema version, name, level, and the exact vocabulary
        order — anything that changes the meaning of a feature column.
        """
        digest = hashlib.sha256()
        digest.update(f"feat-v{SCHEMA_VERSION}:{self.name}:{self.level}\0"
                      .encode("utf-8"))
        digest.update("\0".join(self.vocabulary).encode("utf-8"))
        return digest.hexdigest()[:16]

    def check(self, graph):
        """Raise :class:`ModelError` when ``graph`` is from another level."""
        level = getattr(graph, "level", self.level)
        if level != self.level:
            raise ModelError(
                f"featurizer {self.name!r} expects {self.level} graphs, "
                f"got a {level} graph ({graph.name!r}); extract at "
                f"--level {self.level} or load a {level} model")

    def features(self, graph):
        """(N, dim) one-hot feature matrix for a GraphIR.

        Raises:
            ModelError: when the graph comes from a different level.
            KeyError: if the graph contains a label outside the vocabulary,
                which would indicate a frontend/vocabulary mismatch.
        """
        self.check(graph)
        count = len(graph)
        columns = np.fromiter(map(self.label_index.__getitem__,
                                  graph.labels()),
                              dtype=np.intp, count=count)
        features = np.zeros((count, self.dim))
        features[np.arange(count), columns] = 1.0
        return features

    def __repr__(self):
        return (f"OneHotFeaturizer({self.name!r}, level={self.level!r}, "
                f"dim={self.dim})")


def _netlist_vocabulary():
    return tuple(sorted(CELLS)) + (DFF,) + ("input", "output", "const")


#: The RTL featurizer's fixed, ordered node-label vocabulary.
VOCABULARY = _build_vocabulary()

RTL_FEATURIZER = OneHotFeaturizer("rtl", LEVEL_RTL, VOCABULARY)
NETLIST_FEATURIZER = OneHotFeaturizer("netlist", LEVEL_NETLIST,
                                      _netlist_vocabulary())

#: label -> index map (RTL); aliases the featurizer's so they cannot drift.
LABEL_INDEX = RTL_FEATURIZER.label_index

#: Dimensionality of the RTL one-hot node features.
FEATURE_DIM = RTL_FEATURIZER.dim

#: Featurizer registry, keyed by the name persisted in model configs.
FEATURIZERS = {f.name: f for f in (RTL_FEATURIZER, NETLIST_FEATURIZER)}


def get_featurizer(featurizer):
    """Resolve a featurizer by registry name (or pass one through).

    Raises:
        ModelError: for an unknown registry name.
    """
    if isinstance(featurizer, str):
        try:
            return FEATURIZERS[featurizer]
        except KeyError:
            raise ModelError(
                f"unknown featurizer {featurizer!r} "
                f"(known: {sorted(FEATURIZERS)})") from None
    return featurizer


def label_index(label):
    """Index of ``label`` in the RTL vocabulary (KeyError if unknown)."""
    return LABEL_INDEX[label]


def one_hot_features(graph):
    """(N, FEATURE_DIM) one-hot feature matrix for an RTL graph.

    Kept as the RTL fast path for existing callers; equivalent to
    ``RTL_FEATURIZER.features(graph)``.
    """
    return RTL_FEATURIZER.features(graph)
