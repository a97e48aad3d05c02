"""Full IP-piracy detection workflow on a generated RTL corpus.

Scenario (the paper's threat model, §III-A): an IP vendor holds a corpus
of designs.  A suspect design arrives — actually a stolen, reworked copy
of the vendor's UART transmitter (signals renamed, statements reordered,
operands swapped).  GNN4IP is trained on the corpus and then judges the
suspect against every owned IP.

Run:  python examples/piracy_detection.py
"""

from repro.core import GNN4IP, Trainer, build_pair_dataset
from repro.designs import get_family, rtl_records
from repro.index import QueryEngine
from repro.index.shards import unit_rows_f32
from repro.ir.frontends import get_frontend
from repro.obfuscate import make_rtl_variant

CORPUS_FAMILIES = ("adder8", "cmp8", "mux8", "counter8", "lfsr8", "crc8",
                   "alu", "rs232", "uart_rx", "seqdet", "fifo4x8", "traffic")


def main():
    # --- 1. Build the vendor's corpus and train ------------------------
    print("generating corpus...")
    records = rtl_records(families=CORPUS_FAMILIES, instances_per_design=4,
                          seed=0)
    dataset = build_pair_dataset(records, test_fraction=0.2, seed=0,
                                 max_negative_ratio=3.5)
    summary = dataset.summary()
    print(f"  {summary['graphs']} instances, {summary['pairs']} pairs "
          f"({summary['similar_pairs']} similar)")

    model = GNN4IP(seed=0)
    trainer = Trainer(model, seed=0)
    print("training (60 epochs)...")
    history = trainer.fit(dataset, epochs=60, verbose=True, log_every=20)
    result = trainer.test(dataset)
    print(f"  held-out accuracy: {result['accuracy'] * 100:.2f}%  "
          f"delta={model.delta:+.3f}")

    # --- 2. The adversary reworks a stolen UART transmitter -------------
    original = get_family("rs232").generate(seed=99, style="counter_fsm",
                                            rewrite=False)
    stolen_text = make_rtl_variant(original.verilog, seed=1234)
    suspect = get_frontend("rtl").extract(stolen_text, top=original.top)
    print("\nsuspect design: reworked copy of the UART TX "
          f"({len(suspect)} DFG nodes)")

    # --- 3. Sweep the IP library for matches -----------------------------
    library = unit_rows_f32(model.encoder.embed_many(
        [record.graph for record in records]))
    entries = [{"name": record.instance, "path": record.instance,
                "design": record.design} for record in records]
    engine = QueryEngine([library], entries)
    hits = engine.query_many(model.encoder.embed(suspect), k=len(records),
                             delta=model.delta)[0]
    # Hits are ranked, so each design's first hit is its best instance.
    report = {}
    for hit in hits:
        report.setdefault(hit.design, hit)
    print(f"\n{'owned design':16s} {'best instance':28s} {'score':>8s}"
          f"  verdict")
    for hit in report.values():
        verdict = "PIRACY" if hit.is_piracy else "-"
        print(f"{hit.design:16s} {hit.name:28s} {hit.score:+8.4f}  "
              f"{verdict}")

    best_name, best_score = hits[0].design, hits[0].score
    print(f"\nbest match: {best_name} (score {best_score:+.4f})")
    if best_name == "rs232":
        print("the stolen UART was correctly traced to its source IP")
    else:
        print("unexpected best match; try more training epochs")


if __name__ == "__main__":
    main()
