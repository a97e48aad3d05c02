"""Check two user-provided Verilog files for IP piracy.

Usage:
    python examples/custom_design_check.py [file_a.v file_b.v]

Without arguments, two demo files are written to a temp directory and
compared.  With arguments, your own files are compared — hierarchical
designs are flattened automatically, so multi-module files work.
"""

import sys
import tempfile
from pathlib import Path

from repro.core import GNN4IP, Trainer, build_pair_dataset
from repro.designs import default_rtl_families, rtl_records
from repro.ir.frontends import get_frontend

DEMO_A = """
// A small checksum engine.
module checksum(input clk, input rst, input [7:0] data_in,
                output reg [7:0] digest);
  always @(posedge clk) begin
    if (rst)
      digest <= 8'd0;
    else
      digest <= (digest ^ data_in) + {digest[6:0], 1'b0};
  end
endmodule
"""

DEMO_B = """
// The "same" engine after a rogue employee renamed everything and
// swapped some operands.
module hash_unit(input clk, input clear, input [7:0] word,
                 output reg [7:0] state);
  always @(posedge clk) begin
    if (clear)
      state <= 8'd0;
    else
      state <= {state[6:0], 1'b0} + (word ^ state);
  end
endmodule
"""


def main(argv):
    if len(argv) == 3:
        path_a, path_b = Path(argv[1]), Path(argv[2])
    else:
        tmp = Path(tempfile.mkdtemp(prefix="gnn4ip_demo_"))
        path_a = tmp / "original.v"
        path_b = tmp / "suspect.v"
        path_a.write_text(DEMO_A)
        path_b.write_text(DEMO_B)
        print(f"no files given; using demo designs in {tmp}\n")

    frontend = get_frontend("rtl")
    graph_a = frontend.extract_file(path_a)
    graph_b = frontend.extract_file(path_b)
    print(f"{path_a.name}: {len(graph_a)} DFG nodes")
    print(f"{path_b.name}: {len(graph_b)} DFG nodes")

    print("\ntraining a reference model on the built-in corpus "
          "(one-time cost; use repro.cli save/load to persist)...")
    records = rtl_records(families=default_rtl_families()[:14],
                          instances_per_design=3, seed=0)
    dataset = build_pair_dataset(records, seed=0, max_negative_ratio=3.5)
    model = GNN4IP(seed=0)
    Trainer(model, seed=0).fit(dataset, epochs=40)

    score = model.similarity(graph_a, graph_b)
    print(f"\nsimilarity score: {score:+.4f}")
    print(f"decision boundary: {model.delta:+.4f}")
    if score > model.delta:
        print("verdict: PIRACY — the designs implement the same IP")
        return 2
    print("verdict: no piracy detected")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
