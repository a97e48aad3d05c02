"""Corpus assembly: RTL and netlist datasets of graph records.

Turns design-family variants (RTL) and synthesized/obfuscated netlists into
:class:`~repro.core.dataset.GraphRecord` lists ready for pair-dataset
construction — the reproduction of the paper's "390 RTL codes and 143
netlists" collection (scaled by arguments).
"""

import zlib

from repro.core.dataset import GraphRecord
from repro.designs.base import family_names, generate_corpus, get_family
from repro.designs.iscas import ISCAS_BENCHMARKS, iscas_netlist
from repro.errors import DatasetError
from repro.ir.frontends import get_frontend
from repro.netlist.verilog_io import write_netlist
from repro.obfuscate.transforms import obfuscate
from repro.synth.synthesize import synthesize_verilog

#: Families whose netlists are produced by synthesizing their RTL.  These
#: are the combinational / simple sequential designs where bit blasting is
#: cheap; processor families stay RTL-only (as most soft IPs do).
SYNTHESIZABLE_FAMILIES = (
    "adder8", "addsub8", "mult4", "cmp8", "absdiff8", "satadd8",
    "prienc8", "dec3to8", "mux8", "parity16", "popcount8",
    "bin2gray8", "gray2bin8", "barrel8", "counter8", "updown4",
    "lfsr8", "shiftreg8", "crc8", "hamenc74", "hamdec74",
)

#: Every RTL graph of the corpora comes out of this one frontend.
_RTL = get_frontend("rtl")


def rtl_records(families=None, instances_per_design=4, seed=0, verbose=False):
    """RTL corpus: dataflow-graph records from design-family variants."""
    variants = generate_corpus(families=families,
                               instances_per_design=instances_per_design,
                               seed=seed)
    records = []
    for variant in variants:
        graph = _RTL.extract(variant.verilog, top=variant.top)
        graph.name = variant.instance
        records.append(GraphRecord(design=variant.design,
                                   instance=variant.instance,
                                   graph=graph, kind="rtl"))
        if verbose:
            print(f"  rtl {variant.instance}: {len(graph)} nodes")
    return records


def _netlist_graph(netlist, instance_name):
    graph = _RTL.extract(write_netlist(netlist))
    graph.name = instance_name
    return graph


def canonical_variant(name, offset=0, seed=0):
    """The canonical (unrewritten) RTL instance of a family under the
    netlist-corpus seeding scheme.

    ``offset`` is the family's position in its corpus list.  The netlist
    corpus builders and the evaluation harness's scenario generator both
    derive their base designs here, so an attack suspect is produced from
    exactly the IP instance the corpus indexed.
    """
    family = get_family(name)
    return family.generate(seed=seed + 31 * offset, rewrite=False)


def _netlist_variants(families, instances_per_design, seed):
    """Yield ``(design, index, netlist)`` synthesized-variant triples.

    The single source of the variant-generation scheme shared by
    :func:`netlist_records` and :func:`netlist_ir_records`: instance 0 of
    each design is the plain synthesized netlist; the others are
    behaviour-preserving obfuscations with increasing seeds, mirroring how
    netlist "hardware instances" of one design differ in practice.
    """
    if families is None:
        families = [n for n in SYNTHESIZABLE_FAMILIES if n in family_names()]
    for offset, name in enumerate(families):
        variant = canonical_variant(name, offset=offset, seed=seed)
        base = synthesize_verilog(variant.verilog, top=variant.top)
        for index in range(instances_per_design):
            if index == 0:
                net = base
            else:
                net = obfuscate(base, seed=seed + 1000 * offset + index,
                                strength=1 + index % 3)
            yield name, index, net


def netlist_records(families=None, instances_per_design=3, seed=0,
                    verbose=False):
    """Netlist corpus: synthesize family RTL, then obfuscate for variants.

    Graphs are netlists round-tripped through structural Verilog into RTL
    dataflow graphs (the paper's original netlist treatment); see
    :func:`netlist_ir_records` for the direct gate-level IR corpus.
    """
    records = []
    for name, index, net in _netlist_variants(families, instances_per_design,
                                              seed):
        instance = f"{name}_net{index}"
        graph = _netlist_graph(net, instance)
        records.append(GraphRecord(design=name, instance=instance,
                                   graph=graph, kind="netlist"))
        if verbose:
            print(f"  netlist {instance}: {len(graph)} nodes")
    return records


def netlist_ir_records(families=None, instances_per_design=3, seed=0,
                       verbose=False):
    """Gate-level GraphIR corpus for the netlist detection scenario.

    The same synthesized-plus-obfuscated instances as
    :func:`netlist_records` (one shared generation scheme,
    :func:`_netlist_variants`), but the graphs are lowered *directly* to
    netlist-level :class:`~repro.ir.graphir.GraphIR` (cell-library node
    labels) instead of being round-tripped through structural Verilog into
    RTL dataflow graphs — this is the corpus for models trained with the
    ``netlist`` featurizer.
    """
    from repro.netlist.to_ir import netlist_to_ir

    records = []
    for name, index, net in _netlist_variants(families, instances_per_design,
                                              seed):
        instance = f"{name}_nir{index}"
        graph = netlist_to_ir(net, name=instance)
        records.append(GraphRecord(design=name, instance=instance,
                                   graph=graph, kind="netlist"))
        if verbose:
            print(f"  netlist-ir {instance}: {len(graph)} nodes")
    return records


def iscas_records(names=None, obfuscated_per_benchmark=None, seed=0,
                  strength=2, verbose=False):
    """ISCAS'85 corpus: each benchmark plus obfuscated instances.

    Args:
        names: benchmark subset (default all six).
        obfuscated_per_benchmark: instances per benchmark; defaults to the
            paper's per-benchmark counts (scaled down via an int).
    """
    names = list(names) if names is not None else list(ISCAS_BENCHMARKS)
    records = []
    for name in names:
        if name not in ISCAS_BENCHMARKS:
            raise DatasetError(f"unknown ISCAS benchmark {name!r}")
        count = obfuscated_per_benchmark
        if count is None:
            count = ISCAS_BENCHMARKS[name][2]
        base = iscas_netlist(name)
        records.append(GraphRecord(design=name, instance=f"{name}_orig",
                                   graph=_netlist_graph(base, f"{name}_orig"),
                                   kind="netlist"))
        name_seed = zlib.crc32(name.encode()) % 997
        for index in range(count):
            net = obfuscate(base, seed=seed + 7919 * index + name_seed,
                            strength=strength)
            instance = f"{name}_obf{index}"
            records.append(GraphRecord(
                design=name, instance=instance,
                graph=_netlist_graph(net, instance), kind="netlist"))
            if verbose:
                print(f"  iscas {instance}: {len(records[-1].graph)} nodes")
    return records


def mips_visualization_records(instances_per_design=8, seed=0):
    """Pipeline-vs-single-cycle MIPS instances for Fig. 4(b,c)."""
    records = []
    for family_name in ("mips_pipeline", "mips_single"):
        family = get_family(family_name)
        for variant in family.variants(instances_per_design, seed=seed):
            graph = _RTL.extract(variant.verilog, top=variant.top)
            graph.name = variant.instance
            records.append(GraphRecord(design=family_name,
                                       instance=variant.instance,
                                       graph=graph, kind="rtl"))
    return records


def default_rtl_families(small=True):
    """The family list used by the benchmark harnesses."""
    names = family_names()
    if not small:
        return names
    # "alu" is deliberately absent: it is the subset block of the MIPS
    # designs (Table II case 3), and training it as a separate design would
    # teach the model to push the MIPS/ALU pair apart.
    preferred = [
        "adder8", "addsub8", "mult4", "cmp8", "prienc8", "mux8",
        "parity16", "barrel8", "counter8", "lfsr8", "fifo4x8", "traffic",
        "seqdet", "rs232", "uart_rx", "aes", "crc8", "hamdec74", "fpa",
        "mips_single", "mips_pipeline",
    ]
    return [n for n in preferred if n in names]


def materialize_corpus(directory, families=None, instances_per_design=4,
                       seed=0):
    """Write generated RTL instances as ``.v`` files under ``directory``.

    This is the bridge between the synthetic design families and
    file-oriented tooling (the fingerprint index, external EDA flows):
    each variant becomes ``<instance>.v``.  Returns the written paths in
    generation order.
    """
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for variant in generate_corpus(families=families,
                                   instances_per_design=instances_per_design,
                                   seed=seed):
        path = directory / f"{variant.instance}.v"
        path.write_text(variant.verilog)
        paths.append(path)
    return paths


def materialize_netlist_corpus(directory, families=None,
                               instances_per_design=3, seed=0):
    """Write synthesized-plus-obfuscated netlists as ``.v`` files.

    The gate-level sibling of :func:`materialize_corpus`, sharing the
    variant scheme of :func:`netlist_records` (instance 0 is the plain
    synthesized netlist, the rest are behaviour-preserving obfuscations):
    each instance becomes a self-contained structural
    ``<design>_net<i>.v`` that flows through either extraction frontend.
    The evaluation harness indexes these as the defender's IP library.
    Returns the written paths in generation order.
    """
    from pathlib import Path

    from repro.netlist.verilog_io import write_netlist

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, index, net in _netlist_variants(families, instances_per_design,
                                              seed):
        path = directory / f"{name}_net{index}.v"
        path.write_text(write_netlist(net))
        paths.append(path)
    return paths


def corpus_statistics(records):
    """Summary of a record list (sizes per design, Table I style)."""
    designs = {}
    total_nodes = 0
    for record in records:
        designs.setdefault(record.design, []).append(len(record.graph))
        total_nodes += len(record.graph)
    return {
        "designs": len(designs),
        "graphs": len(records),
        "mean_nodes": total_nodes / max(len(records), 1),
        "per_design": {k: len(v) for k, v in sorted(designs.items())},
    }
