"""Table III: similarity scores for obfuscated ISCAS'85 benchmarks.

Paper reference (per-benchmark mean score between each benchmark and its
TrustHub-obfuscated instances, plus the cross-benchmark mean):

    c432 +0.9998   c499 +0.9928   c880 +0.9996
    c1355 +0.9993  c1908 +0.9999  c6288 +0.9945
    benchmarks vs their obfuscations overall: +0.9976
    between different benchmarks:             -0.1606

Shape to reproduce: every within-benchmark mean near +1, a much lower
cross-benchmark mean, and — the paper's headline claim — the original IP
"recognized in its obfuscated version 100% of the time", which we measure
as identification accuracy (argmax over the six originals).

Our obfuscator is harsher than TrustHub's camouflaged instances (gate
decomposition / De Morgan rewrites can double the gate count), so the
transform strength here is 1 (single structural transform + full rename),
the closest match to camouflage-style obfuscation.  Training uses a
disjoint obfuscation-seed range from evaluation.
"""

import numpy as np

from conftest import report
from repro.designs import ISCAS_BENCHMARKS, iscas_records

_STRENGTH = 1


def bench_table3_obfuscated_iscas(benchmark, iscas_trained, config):
    model = iscas_trained
    counts = config.iscas_obfuscated
    records = iscas_records(obfuscated_per_benchmark=counts,
                            seed=0, strength=_STRENGTH)

    by_design = {}
    for record in records:
        by_design.setdefault(record.design, []).append(record)

    embeddings = {}
    for design, items in by_design.items():
        embeddings[design] = [model.encoder.embed(r.graph) for r in items]

    benchmark(model.encoder.embed, by_design["c432"][0].graph)

    lines = [f"{'Circuit':8s} {'Function':42s} {'#circ':5s} {'Score':>8s}"
             f" {'Paper':>8s}"]
    paper_scores = {"c432": 0.9998, "c499": 0.9928, "c880": 0.9996,
                    "c1355": 0.9993, "c1908": 0.9999, "c6288": 0.9945}
    within_all = []
    for design in ISCAS_BENCHMARKS:
        base = embeddings[design][0]
        scores = [model.similarity_from_embeddings(base, other)
                  for other in embeddings[design][1:]]
        mean = float(np.mean(scores))
        within_all.extend(scores)
        function = ISCAS_BENCHMARKS[design][1]
        lines.append(f"{design:8s} {function:42s} {len(scores):5d} "
                     f"{mean:+8.4f} {paper_scores[design]:+8.4f}")

    designs = list(ISCAS_BENCHMARKS)
    cross = []
    for i, design_a in enumerate(designs):
        for design_b in designs[i + 1:]:
            cross.append(model.similarity_from_embeddings(
                embeddings[design_a][0], embeddings[design_b][0]))

    # Identification: each obfuscated instance must score highest against
    # its own original — the paper's "recognizes the original IP" claim.
    # c499 and c1355 are the same function by construction (c1355 = c499
    # with XORs expanded to NANDs, as in the real ISCAS suite), so a match
    # to either counts for both.
    twins = {"c499": {"c499", "c1355"}, "c1355": {"c499", "c1355"}}
    identified = 0
    total = 0
    for design in designs:
        accept = twins.get(design, {design})
        for obf in embeddings[design][1:]:
            scores = {d: model.similarity_from_embeddings(
                embeddings[d][0], obf) for d in designs}
            if max(scores, key=scores.get) in accept:
                identified += 1
            total += 1

    within_mean = float(np.mean(within_all))
    cross_mean = float(np.mean(cross))
    lines += [
        "",
        f"within-benchmark mean:  {within_mean:+.4f}  (paper +0.9976)",
        f"cross-benchmark mean:   {cross_mean:+.4f}  (paper -0.1606)",
        f"original IP identified in obfuscated instance: "
        f"{identified}/{total} = {identified / total * 100:.1f}% "
        f"(paper 100%)",
    ]
    report("table3", "\n".join(lines))

    # Shape assertions (the exact values are printed above; no copy of
    # this bench's output is committed): obfuscated instances stay close
    # to their original and clearly closer than different benchmarks
    # are to each other.
    assert within_mean > 0.8
    assert cross_mean < within_mean - 0.2
    assert identified / total > 0.65
