"""Golden digests of the Verilog front end's GraphIR output.

``tests/data/frontend_golden.json`` pins one digest per extraction: the
node kinds, labels and names plus both adjacency lists of the GraphIR
that preprocess -> parse -> elaborate -> analyze / synthesize produces.
It covers every design family at the RTL level, every synthesizable
family at the netlist level too, and gate-level obfuscations of the
synthesizable families written out as structural Verilog (the shape of
a pirated suspect), at both levels.  Any
front-end change that moves a node or an edge -- a parser fast path, an
elaboration shortcut, a synthesis shortcut -- shows up as a digest
mismatch naming the extraction.

When a change is *intentional*, regenerate the fixture and commit the
diff alongside the change::

    PYTHONPATH=src python tests/test_frontend_golden.py regenerate
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.designs.base import family_names
from repro.designs.corpus import SYNTHESIZABLE_FAMILIES, canonical_variant
from repro.ir.frontends import get_frontend
from repro.netlist.verilog_io import write_netlist
from repro.obfuscate.transforms import obfuscate
from repro.synth.synthesize import synthesize_verilog

GOLDEN_PATH = Path(__file__).parent / "data" / "frontend_golden.json"

LEVELS = ("rtl", "netlist")
#: Obfuscation pipelines applied to each family's synthesized base
#: design; a fixed list keeps the suspects' shapes stable while the
#: seed picks every gate and wire the transforms touch.
PIPELINES = (("decompose", "inverter_pairs"), ("demorgan",),
             ("buffers", "duplicate"), ("inverter_pairs", "demorgan"))
OBFUSCATION_SEEDS = (1, 3)
#: Families that stay RTL-only (processors, protocols, sequential
#: controllers): the training corpora extract them at the RTL level.
RTL_ONLY_FAMILIES = tuple(name for name in family_names()
                          if name not in SYNTHESIZABLE_FAMILIES)


def graph_digest(graph):
    """sha256 over every node's kind, label and name and both
    adjacency lists, in node-id order."""
    payload = json.dumps({
        "nodes": [[node.kind, node.label, node.name] for node in graph.nodes],
        "succ": [graph.successors(i) for i in range(len(graph))],
        "pred": [graph.predecessors(i) for i in range(len(graph))],
    })
    return hashlib.sha256(payload.encode()).hexdigest()


def family_sources(names=SYNTHESIZABLE_FAMILIES):
    """``(key, verilog, top)`` for each family's canonical RTL."""
    for name in names:
        variant = canonical_variant(name)
        yield f"family/{name}", variant.verilog, variant.top


def obfuscated_sources():
    """``(key, verilog, None)`` for structural Verilog of obfuscated
    copies of each family's synthesized canonical design."""
    for offset, name in enumerate(SYNTHESIZABLE_FAMILIES):
        variant = canonical_variant(name, offset=offset)
        base = synthesize_verilog(variant.verilog, top=variant.top)
        yield f"netlist/{name}/base", write_netlist(base), None
        for seed in OBFUSCATION_SEEDS:
            for slot, transforms in enumerate(PIPELINES):
                copy = obfuscate(base, seed=seed * 7919 + 97 * offset + slot,
                                 transforms=transforms)
                yield (f"netlist/{name}/seed{seed}-slot{slot}",
                       write_netlist(copy), None)


def current_digests():
    frontends = {level: get_frontend(level) for level in LEVELS}
    digests = {}
    for sources in (family_sources(), obfuscated_sources()):
        for key, verilog, top in sources:
            for level in LEVELS:
                graph = frontends[level].extract(verilog, top=top)
                digests[f"{level}:{key}"] = graph_digest(graph)
    for key, verilog, top in family_sources(RTL_ONLY_FAMILIES):
        graph = frontends["rtl"].extract(verilog, top=top)
        digests[f"rtl:{key}"] = graph_digest(graph)
    return digests


@pytest.fixture(scope="module")
def digests():
    return current_digests()


def test_frontend_matches_golden(digests):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(golden)
    drifted = sorted(key for key in golden if digests[key] != golden[key])
    assert not drifted, (
        f"front-end output drifted for {drifted} -- if the change is "
        "intentional, regenerate with:\n"
        "  PYTHONPATH=src python tests/test_frontend_golden.py regenerate")


def test_golden_covers_every_family_at_both_levels():
    golden = json.loads(GOLDEN_PATH.read_text())
    for name in SYNTHESIZABLE_FAMILIES:
        for level in LEVELS:
            assert f"{level}:family/{name}" in golden
            assert f"{level}:netlist/{name}/base" in golden
    for name in family_names():
        assert f"rtl:family/{name}" in golden


if __name__ == "__main__":
    if sys.argv[1:] == ["regenerate"]:
        GOLDEN_PATH.write_text(
            json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
