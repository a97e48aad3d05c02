"""Obfuscation resilience (the paper's §IV-E, Table III scenario).

A gate-level ALU netlist is obfuscated with behaviour-preserving rewrites
(inverter pairs, gate decomposition, De Morgan restructuring, renaming).
The example verifies the rewrites preserve behaviour via random-vector
equivalence checking, then shows a trained GNN4IP still scores the
obfuscated copies as the same IP while scoring other circuits low.

Run:  python examples/obfuscation_resilience.py
"""

from repro.core import GNN4IP, Trainer, build_pair_dataset
from repro.designs import iscas_records, netlist_records
from repro.designs.iscas import iscas_netlist
from repro.obfuscate import obfuscate
from repro.sim import check_netlists_equivalent


def main():
    # --- 1. Obfuscate c880 (8-bit ALU) and verify equivalence -----------
    base = iscas_netlist("c880")
    print(f"c880: {base.num_gates} gates, "
          f"{len(base.inputs)} inputs, {len(base.outputs)} outputs")
    variants = []
    for seed in range(3):
        variant = obfuscate(base, seed=seed, strength=1)
        report = check_netlists_equivalent(base, variant, vectors=64,
                                           seed=seed)
        print(f"  obfuscated #{seed}: {variant.num_gates} gates "
              f"({variant.num_gates - base.num_gates:+d}), "
              f"equivalence check: "
              f"{'PASS' if report.equivalent else 'FAIL'}")
        variants.append(variant)

    # --- 2. Train GNN4IP on a netlist corpus ----------------------------
    print("\ntraining on a netlist corpus...")
    records = netlist_records(
        families=("adder8", "mult4", "cmp8", "prienc8", "barrel8",
                  "counter8", "lfsr8", "crc8"),
        instances_per_design=4, seed=0)
    records += iscas_records(names=["c432", "c880", "c1908"],
                             obfuscated_per_benchmark=3, seed=7,
                             strength=1)
    dataset = build_pair_dataset(records, seed=0, max_negative_ratio=3.5)
    model = GNN4IP(seed=0)
    trainer = Trainer(model, seed=0)
    trainer.fit(dataset, epochs=60)
    result = trainer.test(dataset)
    print(f"  held-out accuracy: {result['accuracy'] * 100:.2f}%")

    # --- 3. Score the fresh obfuscated instances ------------------------
    from repro.ir.frontends import get_frontend
    from repro.netlist import write_netlist

    frontend = get_frontend("rtl")
    base_graph = frontend.extract(write_netlist(base))
    print(f"\nc880 vs its obfuscated instances "
          f"(delta = {model.delta:+.3f}):")
    for index, variant in enumerate(variants):
        graph = frontend.extract(write_netlist(variant))
        score = model.similarity(base_graph, graph)
        verdict = "same IP" if score > model.delta else "different"
        print(f"  instance #{index}: score {score:+.4f} -> {verdict}")

    other = frontend.extract(write_netlist(iscas_netlist("c432")))
    cross = model.similarity(base_graph, other)
    print(f"\nc880 vs c432 (different design): {cross:+.4f} -> "
          f"{'same IP' if cross > model.delta else 'different'}")


if __name__ == "__main__":
    main()
