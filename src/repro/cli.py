"""Command-line interface: ``gnn4ip`` with extract / train / compare /
index / serve.

Every detection subcommand is a thin argparse shim over the public
facade (:mod:`repro.api`): the CLI parses flags, builds
``Detector`` / ``Corpus`` / ``Session`` objects, and formats their typed
results — all wiring (model loading, embedding reuse, caching, batched
queries) lives behind the facade, so library consumers and the HTTP
server share exactly the code paths exercised here.

Detection commands work at two levels: ``rtl`` (the paper's data-flow
graphs) and ``netlist`` (gate-level graphs, synthesized from the input when
it is not already structural).  ``--level`` selects the frontend; models
remember the level they were trained for and refuse the other one.
Running without ``--model`` requires an explicit ``--allow-untrained``
opt-in — an untrained model scores with random weights, which is never a
silent default.

Examples::

    gnn4ip extract-dfg design.v
    gnn4ip train --families adder8 cmp8 alu --epochs 40 --save model.npz
    gnn4ip train --level netlist --epochs 40 --save netmodel.npz
    gnn4ip compare a.v b.v --model model.npz
    gnn4ip compare a.v b.v --model model.npz --json
    gnn4ip compare a.v b.v --level netlist --model netmodel.npz
    gnn4ip corpus --instances 3
    gnn4ip index build my.index --families --instances 4 --model model.npz
    gnn4ip index build net.index --level netlist --families --model net.npz
    gnn4ip index add my.index new_designs/
    gnn4ip index ingest big.index /path/to/verilog/tree --model model.npz
    gnn4ip index ingest big.index more/ --progress --json
    gnn4ip index query my.index suspect.v -k 5
    gnn4ip index query my.index s1.v s2.v s3.v --nprobe 8 --json
    gnn4ip index query my.index suspect.v --exact
    gnn4ip index migrate old.index
    gnn4ip index stats my.index
    gnn4ip compare a.v b.v --index my.index
    gnn4ip serve my.index --port 8000
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro import __version__
from repro.api import Corpus, Detector, IngestConfig, Session
from repro.index.ingest import CHECKPOINT_NAME, walk_sources
from repro.core import GNN4IP, Trainer, build_pair_dataset
from repro.core.persist import load_model, save_model  # noqa: F401 - re-export
from repro.designs import (
    default_rtl_families,
    family_names,
    materialize_corpus,
    netlist_ir_records,
    rtl_records,
)
from repro.errors import ReproError
from repro.ir import KIND_SIGNAL
from repro.ir.frontends import get_frontend


def _cmd_extract(args):
    graph = get_frontend("rtl").extract_file(args.file, top=args.top)
    roles = [n.label for n in graph.nodes if n.kind == KIND_SIGNAL]
    print(f"design: {graph.name}")
    print(f"nodes:  {len(graph)}")
    print(f"edges:  {graph.num_edges}")
    print(f"roots (outputs): {roles.count('output')}")
    print(f"leaves (inputs): {roles.count('input')}")
    if args.labels:
        for label, count in sorted(graph.label_counts().items()):
            print(f"  {label:12s} {count}")
    if args.edges:
        for node in graph.nodes:
            for dep in graph.successors(node.node_id):
                print(f"  {node.node_id} -> {dep}")
    return 0


def _cmd_train(args):
    if args.level == "netlist":
        families = args.families or None
        print(f"generating netlist corpus (synthesized RTL families) x "
              f"{args.instances} instances")
        records = netlist_ir_records(families=families,
                                     instances_per_design=args.instances,
                                     seed=args.seed)
    else:
        families = args.families or default_rtl_families()
        print(f"generating corpus: {len(families)} designs x "
              f"{args.instances} instances")
        records = rtl_records(families=families,
                              instances_per_design=args.instances,
                              seed=args.seed)
    dataset = build_pair_dataset(records, seed=args.seed)
    summary = dataset.summary()
    print(f"pairs: {summary['pairs']} "
          f"({summary['similar_pairs']} similar / "
          f"{summary['different_pairs']} different)")
    model = GNN4IP(seed=args.seed, featurizer=args.level)
    trainer = Trainer(model, seed=args.seed)
    trainer.fit(dataset, epochs=args.epochs, verbose=True)
    result = trainer.test(dataset)
    print(f"delta: {model.delta:+.4f}")
    print(f"test accuracy: {result['accuracy']:.4f}")
    print(result["confusion"].as_text())
    if args.save:
        save_model(model, args.save)
        print(f"model saved to {args.save}")
    return 0


def _cli_detector(model_path, args, level=None):
    """Detector from ``--model``, or an untrained one behind the explicit
    ``--allow-untrained`` opt-in (the facade itself always refuses).

    Returns ``None`` (after printing the error) when neither is given.
    """
    if model_path:
        return Detector.load(model_path, level=level)
    if not getattr(args, "allow_untrained", False):
        print("error: no --model given (pass --allow-untrained to run "
              "with an untrained model)", file=sys.stderr)
        return None
    print("warning: comparing with an untrained model", file=sys.stderr)
    return Detector.untrained(level=level or "rtl",
                              seed=getattr(args, "seed", 0))


def _apply_delta_override(detector, args):
    """Apply ``--delta`` in one place (compare + serve share it).

    The override moves the *raw-score* boundary only: ``score``,
    ``is_piracy``, and uncalibrated verdicts follow it, while calibrated
    verdicts keep the artifact's fitted operating point — see
    docs/api.md ("Delta overrides vs calibrated verdicts").
    """
    if getattr(args, "delta", None) is not None:
        detector.delta = args.delta


def _cmd_compare(args):
    corpus = Corpus.open(args.index) if args.index else None
    if corpus is not None and args.level and args.level != corpus.level:
        print(f"error: index was built at --level {corpus.level}, "
              f"not {args.level}", file=sys.stderr)
        return 1
    if args.model:
        detector = Detector.load(args.model, level=args.level)
    elif corpus is not None:
        detector = corpus.detector()
    else:
        detector = _cli_detector(None, args, level=args.level)
        if detector is None:
            return 1
    _apply_delta_override(detector, args)

    if corpus is not None:
        session = Session(detector=detector, corpus=corpus)
        comparison = session.compare(Path(args.file_a), Path(args.file_b))
        if comparison.origins:
            for path, origin in zip((args.file_a, args.file_b),
                                    comparison.origins):
                print(f"{path}: embedding from {origin}", file=sys.stderr)
    else:
        comparison = detector.compare(Path(args.file_a), Path(args.file_b))
    if args.json:
        print(json.dumps(comparison.as_dict(), indent=1, sort_keys=True))
    else:
        line = (f"similarity: {comparison.score:+.4f} "
                f"(delta {comparison.delta:+.4f}) -> {comparison.verdict}")
        if comparison.probability is not None:
            line += (f"  p(piracy)={comparison.probability:.3f} "
                     f"[{comparison.confidence_low:.3f}, "
                     f"{comparison.confidence_high:.3f}]")
        print(line)
    return 2 if comparison.flagged else 0


def _cmd_corpus(args):
    names = family_names()
    print(f"{len(names)} registered design families:")
    from repro.designs import get_family
    for name in names:
        family = get_family(name)
        styles = ", ".join(family.style_names())
        print(f"  {name:16s} {family.description:40s} [{styles}]")
    return 0


# -- index subcommands --------------------------------------------------------
def _collect_sources(sources):
    """Expand files/directories into a sorted, deduplicated .v file list."""
    return walk_sources(sources)


def _print_progress(stats):
    """``--progress`` line on stderr (the ingest loop already throttles
    its callback to ``IngestConfig.progress_every``)."""
    eta = stats["eta_seconds"]
    print(f"progress: {stats['done']}/{stats['total']} designs "
          f"({stats['failed']} failed)  {stats['rows']} rows  "
          f"{stats['rows_per_sec']:.1f} rows/s  "
          f"eta {'?' if eta is None else f'{eta:.0f}s'}",
          file=sys.stderr)


def _add_throughput(report):
    """Attach the ``--json`` throughput summary (the same shape for
    build, add, and ingest) from the ingest's own timing."""
    ing = report["ingest"]
    report["throughput"] = {
        "wall_seconds": ing["wall_seconds"],
        "designs_per_sec": ing["designs_per_sec"],
        "rows_per_sec": ing["rows_per_sec"],
    }
    return report["throughput"]


def _print_reuse(report):
    """Embedding-reuse and DFG-cache lines of a write report."""
    if report["embeddings_reused"]:
        print(f"embeddings: {report['embedded_fresh']} fresh, "
              f"{report['embeddings_reused']} reused")
    if report["cache"] is not None:
        print(f"cache: {report['cache']['hits']} hits / "
              f"{report['cache']['misses']} misses")


def _print_failures(entries):
    for entry in entries:
        if entry["status"] == "error":
            print(f"  FAILED {entry['path']}: {entry['error']}",
                  file=sys.stderr)


def _cmd_index_build(args):
    paths = _collect_sources(args.sources)
    if args.families is not None:
        families = args.families or default_rtl_families()
        corpus_dir = Path(args.index_dir) / "corpus"
        generated = materialize_corpus(corpus_dir, families=families,
                                       instances_per_design=args.instances,
                                       seed=args.seed)
        print(f"generated {len(generated)} RTL files under {corpus_dir}")
        paths.extend(generated)
    if not paths:
        print("error: no input files (pass sources or --families)",
              file=sys.stderr)
        return 1
    detector = _cli_detector(args.model, args, level=args.level)
    if detector is None:
        return 1
    corpus, report = Corpus.build(
        args.index_dir, paths, detector,
        IngestConfig(level=args.level, jobs=args.jobs,
                     use_cache=not args.no_cache, chunks=not args.no_chunks,
                     progress=_print_progress if args.progress else None))
    throughput = _add_throughput(report)
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(f"indexed {report['embedded']}/{report['files']} files "
              f"at level {corpus.level} "
              f"({report['failures']} failures) with "
              f"{report['jobs']} workers")
        if report.get("chunk_rows"):
            print(f"chunks: {report['chunk_rows']} subgraph rows for "
                  f"partial-theft locality")
        _print_reuse(report)
        print(f"wall: {throughput['wall_seconds']:.3f}s  "
              f"({throughput['designs_per_sec']:.1f} designs/s, "
              f"{throughput['rows_per_sec']:.1f} rows/s)")
    _print_failures(corpus.entries)
    return 0


def _cmd_index_ingest(args):
    paths = walk_sources(args.sources)
    if not paths:
        print("error: no input files (pass .v files or directories)",
              file=sys.stderr)
        return 1
    root = Path(args.index_dir)
    # The model is only mandatory for a brand-new index: resumes and
    # appends default to the model the index already carries.
    have_base = (not args.fresh
                 and ((root / "meta.json").is_file()
                      or (root / CHECKPOINT_NAME).is_file()))
    detector = None
    if args.model or not have_base:
        detector = _cli_detector(args.model, args, level=args.level)
        if detector is None:
            return 1
    config = IngestConfig(jobs=args.jobs, flush_rows=args.flush_rows,
                          level=args.level,
                          use_cache=not args.no_cache,
                          chunks=not args.no_chunks,
                          progress=_print_progress if args.progress else None)
    corpus, report = Corpus.ingest(args.index_dir, paths, detector,
                                   config, resume=not args.no_resume,
                                   fresh=args.fresh)
    ing = report["ingest"]
    _add_throughput(report)
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(f"ingested {report['embedded']}/{report['files']} designs "
              f"({report['failures']} failures, {ing['ingest_mode']} "
              f"mode) with {report['jobs']} workers")
        print(f"throughput: {ing['designs_per_sec']:.1f} designs/s, "
              f"{ing['rows_per_sec']:.1f} rows/s over "
              f"{ing['wall_seconds']:.1f}s  ({ing['flushes']} flushes, "
              f"{ing['shards_written']} shard(s))")
        _print_reuse(report)
        if ing["resumed"]:
            print(f"resumed from checkpoint: "
                  f"{ing['completed'] - ing['session_designs']} designs "
                  f"already done")
    if corpus is None:
        print(f"paused at {ing['completed']}/{ing['total']} designs; "
              f"rerun to resume from the checkpoint", file=sys.stderr)
        return 0
    _print_failures(corpus.entries[-report["files"]:])
    return 0 if report["embedded"] or not report["failures"] else 1


def _cmd_index_add(args):
    paths = _collect_sources(args.sources)
    if not paths:
        print("error: no input files to add", file=sys.stderr)
        return 1
    corpus = Corpus.open(args.index_dir)
    report = corpus.add(paths, IngestConfig(jobs=args.jobs))
    print(f"added {report['embedded']}/{report['files']} files "
          f"({report['embedded_fresh']} embedded fresh, "
          f"{report['embeddings_reused']} reused, "
          f"{report['failures']} failures)")
    print(f"index now: {len(corpus)} designs in "
          f"{corpus.shard_count} shard(s)")
    # Only this run's entries (appended last) — earlier failure entries
    # in the index must not be re-reported as this add's failures.
    _print_failures(corpus.entries[-report["files"]:])
    # Partial failures are recorded, not fatal (same as build); but an
    # add that added nothing at all must not look like success.
    return 0 if report["embedded"] or not report["failures"] else 1


def _cmd_index_query(args):
    corpus = Corpus.open(args.index_dir)
    detector = (Detector.load(args.model) if args.model
                else corpus.detector())
    session = Session(detector=detector, corpus=corpus)
    graphs, labels, failures = [], [], 0
    for path in args.files:
        try:
            graphs.append(session.extract(Path(path), top=args.top))
            labels.append(path)
        except (ReproError, OSError) as exc:
            failures += 1
            print(f"error: {path}: {exc}", file=sys.stderr)
    if not graphs:
        return 1
    # One batched embed for every suspect, one engine pass for the batch.
    results = session.query(graphs, k=args.k, nprobe=args.nprobe,
                            exact=args.exact, labels=labels)
    serving = corpus.serving_description(nprobe=args.nprobe,
                                         exact=args.exact)
    piracy = 0
    if args.json:
        piracy = sum(match.flagged
                     for result in results for match in result)
        payload = {"index": str(args.index_dir), "designs": len(corpus),
                   "serving": serving, "delta": detector.delta,
                   "failures": failures,
                   "results": [result.as_dict() for result in results]}
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for result in results:
            if len(labels) > 1:
                print(f"== {result.label}")
            print(f"top {len(result)} of {len(corpus)} indexed designs "
                  f"({serving}, delta {detector.delta:+.4f}):")
            for match in result:
                flag = "PIRACY" if match.flagged else "      "
                piracy += match.flagged
                prob = ("" if match.probability is None
                        else f"  p={match.probability:.3f} "
                             f"[{match.confidence_low:.3f}, "
                             f"{match.confidence_high:.3f}]")
                print(f"  {match.rank:2d}. {match.score:+.4f} {flag} "
                      f"{match.design:16s} {match.name}{prob}")
    if piracy:
        return 2
    return 1 if failures else 0


def _cmd_index_migrate(args):
    try:
        Corpus.open(args.index_dir)
    except ReproError:
        pass  # not loadable as v4 — attempt the actual migration
    else:
        print(f"{args.index_dir} is already format v4; nothing to do")
        return 0
    corpus = Corpus.migrate(args.index_dir)
    ivf = (f", ivf quantizer with {corpus.ivf_clusters} clusters"
           if corpus.ivf_clusters else "")
    print(f"migrated {args.index_dir} to format v4: {len(corpus)} "
          f"embeddings in {corpus.shard_count} shard(s){ivf}")
    print("note: migrated indexes carry no chunk rows; rebuild to "
          "index subgraph chunks for partial-theft locality")
    return 0


def _cmd_index_stats(args):
    stats = Corpus.open(args.index_dir).stats()
    build = stats.pop("build", {})
    for key in ("level", "entries", "embedded", "failures", "designs",
                "design_rows", "chunk_rows", "signed_entries", "hidden",
                "shards", "ivf_clusters", "cache_entries", "cache_bytes"):
        print(f"{key:14s} {stats[key]}")
    print(f"{'model_hash':14s} {stats['model_hash'][:16]}...")
    if build:
        # Only fields the writer measured: an index written by an older
        # version has no ingest block, a --no-cache one no cache block.
        parts = [f"{build.get('embedded', '?')} embedded"]
        if build.get("embeddings_reused"):
            parts.append(f"{build['embeddings_reused']} reused")
        if build.get("cache"):
            parts.append(f"{build['cache']['hits']} cache hits")
        if "ingest" in build:
            parts.append(f"{build['ingest']['wall_seconds']:.3f}s wall")
        print(f"{'last build':14s} {', '.join(parts)}")
    return 0


def _cmd_eval(args):
    from repro.eval import EvalConfig, run_evaluation

    # Flags default to None and fall back to the EvalConfig defaults, so
    # the CLI, Session.evaluate, and bench_eval can never disagree on
    # what "the small default corpus" is.
    def fallback(value, default):
        return value if value is not None else default

    config = EvalConfig(
        level=args.level,
        families=tuple(fallback(args.families, EvalConfig.families)),
        holdouts=tuple(fallback(args.holdouts, EvalConfig.holdouts)),
        corpus_instances=fallback(args.instances,
                                  EvalConfig.corpus_instances),
        suspects_per_design=fallback(args.suspects,
                                     EvalConfig.suspects_per_design),
        scenarios=tuple(args.scenarios) if args.scenarios else None,
        recall_ks=tuple(fallback(args.recall_at, EvalConfig.recall_ks)),
        seed=fallback(args.seed, EvalConfig.seed),
        # No explicit --epochs: train unless untrained was asked for.
        epochs=fallback(args.epochs,
                        0 if args.allow_untrained else EvalConfig.epochs),
        train_instances=fallback(args.train_instances,
                                 EvalConfig.train_instances),
        theft_fractions=tuple(args.theft_fraction)
        if args.theft_fraction else EvalConfig.theft_fractions,
        check_equivalence=not args.no_equivalence,
        baselines=tuple(args.baselines) if args.baselines else (),
        allow_untrained=args.allow_untrained,
        negative_families=tuple(fallback(args.negative_families,
                                         EvalConfig.negative_families)),
        negatives_per_design=fallback(args.negatives_per_design,
                                      EvalConfig.negatives_per_design),
        calibration=not args.no_calibration,
        calibration_method=fallback(args.calibration_method,
                                    EvalConfig.calibration_method),
        hard_negatives=fallback(args.hard_negatives,
                                EvalConfig.hard_negatives),
        hard_negative_epochs=fallback(args.hard_negative_epochs,
                                      EvalConfig.hard_negative_epochs),
        jobs=args.jobs)
    if not args.model and config.epochs > 0 and not args.json:
        print(f"training a {config.level}-level model "
              f"({config.epochs} epochs) ...", file=sys.stderr)
    report = run_evaluation(config, workdir=args.workdir,
                            model=args.model)
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    if args.json:
        print(report.to_json())
    else:
        print(report.render_text())
    return 0


def _cmd_attack(args):
    from repro.attacks import run_attack
    from repro.netlist.verilog_io import write_netlist
    from repro.synth import synthesize_verilog

    text = Path(args.file).read_text()
    netlist = synthesize_verilog(text, top=args.top)
    options = {}
    if args.library:
        options["library"] = args.library
    if args.name:
        options["name"] = args.name
    result = run_attack(args.attack, netlist, seed=args.seed,
                        check=args.check, vectors=args.vectors, **options)
    source = write_netlist(result.netlist)
    if args.out:
        Path(args.out).write_text(source)
        print(f"attacked netlist written to {args.out}", file=sys.stderr)
    if args.provenance:
        Path(args.provenance).write_text(
            json.dumps(result.provenance, indent=1, sort_keys=True) + "\n")
        print(f"provenance written to {args.provenance}", file=sys.stderr)
    if args.json:
        print(json.dumps({
            "attack": result.attack,
            "base_gates": netlist.num_gates,
            "gates": result.netlist.num_gates,
            "semantics_preserving": result.semantics_preserving,
            "provenance": result.provenance,
        }, indent=1, sort_keys=True))
    elif not args.out:
        print(source, end="")
    else:
        stages = " -> ".join(s["stage"]
                             for s in result.provenance["stages"])
        print(f"{result.attack}: {netlist.num_gates} -> "
              f"{result.netlist.num_gates} gates via {stages}")
    return 0


def _cmd_calibrate(args):
    from repro.calib import ARTIFACT_NAME
    from repro.eval import EvalConfig

    session = Session.open(args.index_dir, model=args.model)
    config = EvalConfig(level=session.corpus.level,
                        calibration_method=args.method,
                        calibration_seed=args.seed)
    start = time.monotonic()
    artifact = session.calibrate(config=config, bootstrap=args.bootstrap,
                                 save=not args.no_save)
    seconds = time.monotonic() - start
    summary = artifact.describe()
    summary["seconds"] = round(seconds, 3)
    summary["artifact"] = (None if args.no_save
                           else str(Path(args.index_dir) / ARTIFACT_NAME))
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    print(f"calibration fit on {summary.get('suspects', '?')} suspects "
          f"({summary.get('positives', '?')} genuine / "
          f"{summary.get('negatives', '?')} impostor) in {seconds:.1f}s")
    print(f"tiers: {' + '.join(summary['tiers'])}  "
          f"pair method {artifact.pair.method} "
          f"(threshold {artifact.pair.threshold:.3f})  "
          f"match threshold {artifact.match.threshold:.3f}")
    if not args.no_save:
        print(f"artifact written to {summary['artifact']}")
        print("queries and compares against this index now report "
              "calibrated probabilities")
    return 0


def _cmd_serve(args):
    from repro.server import run

    corpus = Corpus.open(args.index_dir)
    detector = (Detector.load(args.model) if args.model
                else corpus.detector())
    _apply_delta_override(detector, args)
    session = Session(detector=detector, corpus=corpus)
    return run(session, host=args.host, port=args.port,
               max_batch=args.max_batch, workers=args.workers,
               max_pending=args.max_pending, log_json=args.log_json)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gnn4ip",
        description="GNN4IP: hardware IP piracy detection (DAC'21 repro)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract-dfg",
                               help="extract and summarize a DFG")
    p_extract.add_argument("file")
    p_extract.add_argument("--top", default=None, help="top module name")
    p_extract.add_argument("--labels", action="store_true",
                           help="print the label histogram")
    p_extract.add_argument("--edges", action="store_true",
                           help="print the edge list")
    p_extract.set_defaults(func=_cmd_extract)

    p_train = sub.add_parser("train", help="train on the generated corpus")
    p_train.add_argument("--families", nargs="*", default=None)
    p_train.add_argument("--instances", type=int, default=4)
    p_train.add_argument("--epochs", type=int, default=40)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--level", choices=("rtl", "netlist"),
                         default="rtl",
                         help="train on RTL dataflow graphs or "
                              "synthesized gate-level netlists")
    p_train.add_argument("--save", default=None, help="output .npz path")
    p_train.set_defaults(func=_cmd_train)

    p_compare = sub.add_parser("compare",
                               help="piracy check on two Verilog files")
    p_compare.add_argument("file_a")
    p_compare.add_argument("file_b")
    p_compare.add_argument("--model", default=None,
                           help=".npz from 'gnn4ip train --save'")
    p_compare.add_argument("--index", default=None,
                           help="fingerprint index dir; reuses its model, "
                                "stored embeddings, and DFG cache")
    p_compare.add_argument("--delta", type=float, default=None)
    p_compare.add_argument("--seed", type=int, default=0)
    p_compare.add_argument("--level", choices=("rtl", "netlist"),
                           default=None,
                           help="compare RTL dataflow graphs (default) or "
                                "synthesized gate-level netlists; must "
                                "match the model/index level")
    p_compare.add_argument("--allow-untrained", action="store_true",
                           help="permit running without --model/--index "
                                "(untrained weights; scores are noise)")
    p_compare.add_argument("--json", action="store_true",
                           help="machine-readable output (same shape as "
                                "the server's /v1/compare response)")
    p_compare.set_defaults(func=_cmd_compare)

    p_corpus = sub.add_parser("corpus", help="list design families")
    p_corpus.set_defaults(func=_cmd_corpus)

    p_index = sub.add_parser("index",
                             help="persistent hardware-fingerprint index")
    index_sub = p_index.add_subparsers(dest="index_command", required=True)

    p_build = index_sub.add_parser(
        "build", help="extract + embed a corpus into an index")
    p_build.add_argument("index_dir", help="index output directory")
    p_build.add_argument("sources", nargs="*",
                         help="Verilog files or directories (scanned "
                              "recursively for *.v)")
    p_build.add_argument("--families", nargs="*", default=None,
                         help="also index generated RTL families "
                              "(no names = the default benchmark set)")
    p_build.add_argument("--instances", type=int, default=4,
                         help="instances per generated family")
    p_build.add_argument("--model", default=None,
                         help=".npz model (or --allow-untrained)")
    p_build.add_argument("--allow-untrained", action="store_true",
                         help="permit building without --model "
                              "(untrained weights; scores are noise)")
    p_build.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: auto)")
    p_build.add_argument("--no-cache", action="store_true",
                         help="bypass the content-addressed graph cache")
    p_build.add_argument("--no-chunks", action="store_true",
                         help="index whole designs only (skip the "
                              "subgraph-chunk rows that power "
                              "partial-theft locality)")
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--level", choices=("rtl", "netlist"),
                         default=None,
                         help="extraction level (default: the model's "
                              "level, rtl for fresh models)")
    p_build.add_argument("--progress", action="store_true",
                         help="periodic progress lines on stderr")
    p_build.add_argument("--json", action="store_true",
                         help="machine-readable build report (including "
                              "a throughput summary)")
    p_build.set_defaults(func=_cmd_index_build)

    p_ingest = index_sub.add_parser(
        "ingest",
        help="streaming multiprocess ingest with checkpointed resume "
             "(the writer behind build and add; walks external "
             "Verilog trees)")
    p_ingest.add_argument("index_dir", help="index directory (created, "
                                            "resumed, or appended to)")
    p_ingest.add_argument("sources", nargs="+",
                          help="Verilog files or directory trees "
                               "(scanned recursively for *.v)")
    p_ingest.add_argument("--model", default=None,
                          help=".npz model; required for a new index, "
                               "defaults to the index's own model when "
                               "resuming or appending")
    p_ingest.add_argument("--allow-untrained", action="store_true",
                          help="permit a new index without --model "
                               "(untrained weights; scores are noise)")
    p_ingest.add_argument("--jobs", type=int, default=None,
                          help="extract+embed worker processes "
                               "(default: auto)")
    p_ingest.add_argument("--flush-rows", type=int, default=2048,
                          help="embedding rows buffered between durable "
                               "shard flushes (bounds peak memory)")
    p_ingest.add_argument("--fresh", action="store_true",
                          help="discard any checkpoint and existing "
                               "index; start from scratch")
    p_ingest.add_argument("--no-resume", action="store_true",
                          help="fail instead of resuming when a "
                               "checkpoint exists")
    p_ingest.add_argument("--no-cache", action="store_true",
                          help="bypass the content-addressed graph cache")
    p_ingest.add_argument("--no-chunks", action="store_true",
                          help="index whole designs only (new indexes; "
                               "appends follow the index's own config)")
    p_ingest.add_argument("--seed", type=int, default=0)
    p_ingest.add_argument("--level", choices=("rtl", "netlist"),
                          default=None,
                          help="extraction level for a new index "
                               "(default: the model's level)")
    p_ingest.add_argument("--progress", action="store_true",
                          help="periodic progress lines on stderr "
                               "(designs done/total, rows/s, ETA)")
    p_ingest.add_argument("--json", action="store_true",
                          help="machine-readable ingest report with the "
                               "throughput summary")
    p_ingest.set_defaults(func=_cmd_index_ingest)

    p_add = index_sub.add_parser(
        "add", help="append designs to an existing index (no rebuild)")
    p_add.add_argument("index_dir")
    p_add.add_argument("sources", nargs="+",
                       help="Verilog files or directories (scanned "
                            "recursively for *.v)")
    p_add.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: auto)")
    p_add.set_defaults(func=_cmd_index_add)

    p_query = index_sub.add_parser(
        "query", help="rank indexed designs against suspect files")
    p_query.add_argument("index_dir")
    p_query.add_argument("files", nargs="+",
                         help="suspect Verilog files (embedded as one "
                              "batch, one ranked table each)")
    p_query.add_argument("-k", type=int, default=5,
                         help="number of hits to report")
    p_query.add_argument("--model", default=None,
                         help="override model (fingerprint must match)")
    p_query.add_argument("--top", default=None, help="top module name")
    p_query.add_argument("--nprobe", type=int, default=None,
                         help="IVF clusters to probe (implies the "
                              "approximate pre-filter when the index "
                              "has a quantizer)")
    p_query.add_argument("--exact", action="store_true",
                         help="score every stored fingerprint, bypassing "
                              "the IVF pre-filter")
    p_query.add_argument("--json", action="store_true",
                         help="machine-readable output (same match shape "
                              "as the server's /v1/query response)")
    p_query.set_defaults(func=_cmd_index_query)

    p_migrate = index_sub.add_parser(
        "migrate", help="convert a v2/v3 index to the multi-granularity "
                        "v4 format in place (no re-embedding)")
    p_migrate.add_argument("index_dir")
    p_migrate.set_defaults(func=_cmd_index_migrate)

    p_stats = index_sub.add_parser("stats", help="index + cache statistics")
    p_stats.add_argument("index_dir")
    p_stats.set_defaults(func=_cmd_index_stats)

    p_eval = sub.add_parser(
        "eval", help="adversarial piracy-scenario evaluation "
                     "(recall@k, confusion at delta, AUC per scenario)")
    p_eval.add_argument("--model", default=None,
                        help=".npz model to evaluate (default: train one "
                             "on the evaluation families)")
    p_eval.add_argument("--level", choices=("rtl", "netlist"),
                        default="netlist",
                        help="corpus and detection level")
    p_eval.add_argument("--families", nargs="*", default=None,
                        help="corpus design families (default: the small "
                             "default corpus)")
    p_eval.add_argument("--holdouts", nargs="*", default=None,
                        help="held-out families for negatives and graft "
                             "hosts (never indexed)")
    p_eval.add_argument("--instances", type=int, default=None,
                        help="corpus instances per design")
    p_eval.add_argument("--suspects", type=int, default=None,
                        help="suspects per design per scenario")
    p_eval.add_argument("--scenarios", nargs="*", default=None,
                        help="scenario subset (default: all; see "
                             "docs/evaluation.md)")
    p_eval.add_argument("--recall-at", nargs="*", type=int, default=None,
                        help="k values for recall@k (default: 1 5 10)")
    p_eval.add_argument("--epochs", type=int, default=None,
                        help="training epochs when no --model is given")
    p_eval.add_argument("--train-instances", type=int, default=None,
                        help="training instances per design")
    p_eval.add_argument("--theft-fraction", nargs="+", type=float,
                        default=None,
                        help="fraction(s) of stolen logic grafted in the "
                             "partial-theft scenario (each fraction gets "
                             "its own suspect sweep)")
    p_eval.add_argument("--baselines", nargs="*", default=None,
                        help="also score classical baselines "
                             "(wl_kernel, spectral)")
    p_eval.add_argument("--no-equivalence", action="store_true",
                        help="skip the functional-equivalence spot checks")
    p_eval.add_argument("--no-calibration", action="store_true",
                        help="skip the out-of-fold calibration quality "
                             "block (ECE, calibrated confusion)")
    p_eval.add_argument("--calibration-method",
                        choices=("platt", "isotonic"), default=None,
                        help="pair-tier calibrator (default: platt)")
    p_eval.add_argument("--negative-families", nargs="*", default=None,
                        help="impostor families queried as never-indexed "
                             "negatives for calibration (default: a "
                             "curated four-family pool)")
    p_eval.add_argument("--negatives-per-design", type=int, default=None,
                        help="suspects per negative family design")
    p_eval.add_argument("--hard-negatives", type=int, default=None,
                        help="mine N hard negatives per training design "
                             "and fine-tune on them (0 = off, the "
                             "default; training is unchanged when off)")
    p_eval.add_argument("--hard-negative-epochs", type=int, default=None,
                        help="fine-tuning epochs for mined hard "
                             "negatives")
    p_eval.add_argument("--allow-untrained", action="store_true",
                        help="evaluate an untrained model (scores are "
                             "noise; smoke runs only)")
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--jobs", type=int, default=None,
                        help="index-build worker processes")
    p_eval.add_argument("--workdir", default=None,
                        help="directory for the materialized corpus and "
                             "index (default: a temporary directory)")
    p_eval.add_argument("--out", default=None,
                        help="also write the JSON report to this path")
    p_eval.add_argument("--json", action="store_true",
                        help="print the machine-readable report")
    p_eval.set_defaults(func=_cmd_eval)

    p_attack = sub.add_parser(
        "attack", help="stage a named attack pipeline on a Verilog design "
                       "(emits the attacked netlist + provenance chain)")
    p_attack.add_argument("attack",
                          choices=("tech_remap", "retime", "fsm_reencode",
                                   "wrapper", "trojan"),
                          help="attack pipeline to stage")
    p_attack.add_argument("file", help="Verilog source (RTL or netlist)")
    p_attack.add_argument("--top", default=None, help="top module name")
    p_attack.add_argument("--seed", type=int, default=0,
                          help="pipeline seed (stages derive child seeds)")
    p_attack.add_argument("--library",
                          choices=("nand", "nor", "aig"), default=None,
                          help="tech_remap target vocabulary "
                               "(default: seed-chosen)")
    p_attack.add_argument("--name", default=None,
                          help="module name of the attacked netlist")
    p_attack.add_argument("--check", action="store_true",
                          help="run generation-time equivalence (or "
                               "trojan on/off-trigger) checks")
    p_attack.add_argument("--vectors", type=int, default=24,
                          help="random vectors per check")
    p_attack.add_argument("--out", default=None,
                          help="write the attacked Verilog here "
                               "(default: stdout)")
    p_attack.add_argument("--provenance", default=None,
                          help="write the provenance chain JSON here")
    p_attack.add_argument("--json", action="store_true",
                          help="machine-readable summary (includes the "
                               "provenance chain)")
    p_attack.set_defaults(func=_cmd_attack)

    p_calibrate = sub.add_parser(
        "calibrate",
        help="fit probability calibration for an index (writes "
             "calibration.json next to the shards; queries then report "
             "calibrated probabilities and confidence bands)")
    p_calibrate.add_argument("index_dir", help="fingerprint index to "
                                               "calibrate")
    p_calibrate.add_argument("--model", default=None,
                             help="override model (fingerprint must "
                                  "match the index)")
    p_calibrate.add_argument("--method", choices=("platt", "isotonic"),
                             default="platt",
                             help="pair-tier calibrator family")
    p_calibrate.add_argument("--bootstrap", type=int, default=32,
                             help="bootstrap replicas behind the "
                                  "confidence bands (0 disables bands)")
    p_calibrate.add_argument("--seed", type=int, default=0,
                             help="bootstrap resampling seed")
    p_calibrate.add_argument("--no-save", action="store_true",
                             help="fit and report without writing the "
                                  "artifact")
    p_calibrate.add_argument("--json", action="store_true",
                             help="machine-readable summary")
    p_calibrate.set_defaults(func=_cmd_calibrate)

    p_serve = sub.add_parser(
        "serve", help="run the async HTTP detection service over an index")
    p_serve.add_argument("index_dir", help="fingerprint index to serve")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8000,
                         help="listen port (0 = ephemeral; the real port "
                              "is announced on stdout)")
    p_serve.add_argument("--model", default=None,
                         help="override model (fingerprint must match "
                              "for stored-embedding reuse)")
    p_serve.add_argument("--delta", type=float, default=None,
                         help="decision-boundary override")
    p_serve.add_argument("--max-batch", type=int, default=256,
                         help="max concurrent requests per micro-batch")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="fork N partitioned query workers and "
                              "scatter-gather each batch across them "
                              "(0 = serve in-process; results are "
                              "bit-identical either way)")
    p_serve.add_argument("--max-pending", type=int, default=None,
                         help="refuse queries past this many pending "
                              "requests with 429 + Retry-After "
                              "(default: unbounded)")
    p_serve.add_argument("--log-json", action="store_true",
                         help="emit one JSON access-log line per request")
    p_serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
