"""Quickstart: the paper's Fig. 1 motivational example, end to end.

Two full adders with very different Verilog (behavioral vs gate-level)
are converted to data-flow graphs and scored for similarity, against a
third, unrelated circuit.

Run:  python examples/quickstart.py
"""

from repro.core import GNN4IP, GraphRecord, Trainer
from repro.ir.frontends import get_frontend

ADDER_BEHAVIORAL = """
module ADDER(input Num1, input Num2, input Cin,
             output reg Sum, output reg Cout);
  always @(Num1, Num2, Cin) begin
    Sum <= ((Num1 ^ Num2) ^ Cin);
    Cout <= (((Num1 ^ Num2) && Cin) || (Num1 && Num2));
  end
endmodule
"""

ADDER_STRUCTURAL = """
module ADDER(Num1, Num2, Cin, Sum, Cout);
  input Num1, Num2, Cin;
  output Sum, Cout;
  wire t1, t2, t3;
  xor (t1, Num1, Num2);
  and (t2, Num1, Num2);
  and (t3, t1, Cin);
  xor (Sum, t1, Cin);
  or (Cout, t3, t2);
endmodule
"""

UNRELATED_MUX = """
module picker(input [3:0] d, input [1:0] sel, output reg y);
  always @(*) begin
    case (sel)
      2'd0: y = d[0];
      2'd1: y = d[1];
      2'd2: y = d[2];
      default: y = d[3];
    endcase
  end
endmodule
"""


def main():
    # 1. Extract DFGs (preprocess -> parse -> analyze -> merge -> trim).
    frontend = get_frontend("rtl")
    adder_a = frontend.extract(ADDER_BEHAVIORAL)
    adder_b = frontend.extract(ADDER_STRUCTURAL)
    mux = frontend.extract(UNRELATED_MUX)
    for graph, title in ((adder_a, "behavioral adder"),
                         (adder_b, "structural adder"),
                         (mux, "unrelated mux")):
        stats = graph.stats()
        print(f"{title:18s} -> {stats['nodes']:3d} nodes, "
              f"{stats['edges']:3d} edges")

    # 2. Train a small GNN4IP model on labeled pairs.  A real corpus would
    #    be much larger (see examples/piracy_detection.py); three graphs
    #    are enough to illustrate the mechanics, so we train on all pairs
    #    instead of holding some out.
    records = [
        GraphRecord("adder", "adder_behavioral", adder_a),
        GraphRecord("adder", "adder_structural", adder_b),
        GraphRecord("mux", "mux_case", mux),
    ]
    from repro.core.dataset import PairDataset, make_pairs
    pairs = make_pairs(records)
    dataset = PairDataset(records=records, train_pairs=pairs,
                          test_pairs=pairs)
    model = GNN4IP(seed=0)
    trainer = Trainer(model, seed=0, lr=0.01)
    trainer.fit(dataset, epochs=150)

    # 3. Score pairs: the two adders are "different codes, same design".
    same = model.similarity(adder_a, adder_b)
    different = model.similarity(adder_a, mux)
    print(f"\nsimilarity(adder_a, adder_b) = {same:+.4f}")
    print(f"similarity(adder_a, mux)     = {different:+.4f}")
    print(f"decision boundary delta      = {model.delta:+.4f}")
    print(f"\nadder pair verdict: "
          f"{'PIRACY' if model.predict(adder_a, adder_b) else 'no piracy'}")
    print(f"mux pair verdict:   "
          f"{'PIRACY' if model.predict(adder_a, mux) else 'no piracy'}")


if __name__ == "__main__":
    main()
