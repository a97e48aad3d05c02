"""Level-selectable extraction frontends: Verilog text -> GraphIR.

A frontend owns one extraction level end-to-end: preprocessing, the
level-specific lowering, the default featurizer, and the fingerprints that
make extraction content-addressable.  The fingerprint index, the ingest
workers, the training corpora and the CLI (whose ``--level rtl|netlist``
flags pick one) all extract through a frontend:

- :class:`RTLFrontend` — the paper's five-phase dataflow flow
  (preprocess / parse / analyze / merge / trim), emitting RTL-level IR;
  the only way to get an RTL graph.
- :class:`NetlistFrontend` — parse + elaborate, then *synthesize* to a
  gate-level netlist (bit-blasting RTL when the input is not already
  structural) and lower it through :func:`~repro.netlist.to_ir.netlist_to_ir`.

Both share the same preprocessor, so one ``.v`` corpus can be indexed at
either level; a structural netlist file flows through the synthesizer
unchanged because gate instances lower to themselves.
"""

from repro.core.features import get_featurizer
from repro.errors import GraphIRError
from repro.ir import serialize as ir_serialize
from repro.ir.graphir import LEVEL_NETLIST, LEVEL_RTL


class _Frontend:
    """Shared frontend behavior (fingerprints, convenience entry points)."""

    #: Extraction level; matches the ``GraphIR.level`` this frontend emits.
    level = None

    def __init__(self, featurizer=None):
        self.featurizer = get_featurizer(featurizer
                                         if featurizer is not None
                                         else self.level)

    # -- extraction (level-specific) ------------------------------------
    def preprocess_text(self, text):
        raise NotImplementedError

    def _lower(self, cleaned, top=None):
        """Level-specific lowering of preprocessed text to a GraphIR."""
        raise NotImplementedError

    def extract_preprocessed(self, cleaned, top=None):
        """Lower preprocessed text; returns a non-empty GraphIR.

        Raises:
            GraphIRError: when the design lowers to a graph with no
                nodes (e.g. ``module m(); endmodule``), which has nothing
                to embed.
        """
        graph = self._lower(cleaned, top=top)
        if len(graph) == 0:
            raise GraphIRError(
                f"design {graph.name!r} lowers to an empty {self.level} "
                f"graph; there is nothing to fingerprint")
        return graph

    def extract(self, text, top=None):
        """Preprocess + extract in one call; returns a GraphIR."""
        return self.extract_preprocessed(self.preprocess_text(text), top=top)

    def extract_file(self, path, top=None):
        """Run the frontend on a Verilog file."""
        with open(path) as handle:
            return self.extract(handle.read(), top=top)

    # -- fingerprints ----------------------------------------------------
    def options_fingerprint(self):
        """Stable string over every option that affects the output graph."""
        raise NotImplementedError

    def schema_fingerprint(self):
        """Stable string over everything that affects *downstream* meaning:
        the level, the IR serialization format, and the featurizer schema.

        Folded into content-addressed cache keys (see
        :func:`repro.index.cache.content_key`), so a feature-vocabulary or
        format change can never silently reuse stale cached fingerprints.
        """
        return (f"{self.level}:ir-v{ir_serialize.FORMAT_VERSION}"
                f":feat={self.featurizer.fingerprint()}")

    def content_key(self, cleaned, top=None):
        """Cache/index key for preprocessed source under this frontend."""
        from repro.index.cache import content_key

        return content_key(cleaned, self.options_fingerprint(), top=top,
                           schema=self.schema_fingerprint())


class RTLFrontend(_Frontend):
    """The paper's five-phase dataflow flow, straight to RTL GraphIR.

    Preprocess, parse, elaborate, then dataflow analysis (which merges
    the per-signal trees as it builds them) and trim.
    """

    level = LEVEL_RTL

    def preprocess_text(self, text):
        from repro.verilog import preprocess

        return preprocess(text)

    def _lower(self, cleaned, top=None):
        from repro.dataflow.analyzer import analyze
        from repro.dataflow.elaborate import elaborate
        from repro.dataflow.trim import trim
        from repro.verilog import parse

        return trim(analyze(elaborate(parse(cleaned), top=top)))

    def options_fingerprint(self):
        # "trim=1" is kept from when trimming was optional: it is part of
        # every RTL content key, so existing caches and indexes stay valid.
        return f"level={self.level}:trim=1"


class NetlistFrontend(_Frontend):
    """Gate-level frontend: synthesize (when needed) and lower to IR."""

    level = LEVEL_NETLIST

    def preprocess_text(self, text):
        from repro.verilog import preprocess

        return preprocess(text)

    def _lower(self, cleaned, top=None):
        from repro.dataflow.elaborate import elaborate
        from repro.netlist.to_ir import netlist_to_ir
        from repro.synth.synthesize import synthesize
        from repro.verilog import parse

        module = elaborate(parse(cleaned), top=top)
        return netlist_to_ir(synthesize(module))

    def options_fingerprint(self):
        from repro.synth.synthesize import SYNTH_VERSION

        return f"level={self.level}:synth-v{SYNTH_VERSION}"


def get_frontend(level, featurizer=None):
    """Build the frontend for ``level`` (``rtl`` or ``netlist``).

    Raises:
        ValueError: for an unknown level.
    """
    if level in (None, LEVEL_RTL):
        return RTLFrontend(featurizer=featurizer)
    if level == LEVEL_NETLIST:
        return NetlistFrontend(featurizer=featurizer)
    raise ValueError(f"unknown extraction level {level!r} "
                     f"(expected 'rtl' or 'netlist')")
