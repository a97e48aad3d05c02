"""Matching a suspect design against an in-memory IP library.

The library is a :class:`QueryEngine` over embedding rows held in memory,
as in ``examples/piracy_detection.py``: no index directory on disk.
"""

import pytest

from repro.core import GNN4IP
from repro.index import QueryEngine
from repro.index.shards import unit_rows_f32
from repro.ir.frontends import get_frontend

extract_rtl = get_frontend("rtl").extract

XOR = "module a(input x, input y, output z); assign z = x ^ y; endmodule"
ADD = ("module b(input [3:0] x, input [3:0] y, output [4:0] z); "
       "assign z = x + y; endmodule")
FSM = """
module c(input clk, input rst, output reg [1:0] s);
  always @(posedge clk) begin
    if (rst) s <= 2'd0;
    else s <= s + 2'd1;
  end
endmodule
"""

LIBRARY = (("xor_ip", "xor_0", XOR), ("adder_ip", "add_0", ADD),
           ("fsm_ip", "fsm_0", FSM))


@pytest.fixture(scope="module")
def library_matcher():
    model = GNN4IP(seed=0, delta=0.95)
    graphs = [extract_rtl(text) for _, _, text in LIBRARY]
    rows = unit_rows_f32(model.encoder.embed_many(graphs))
    entries = [{"name": instance, "path": instance, "design": design}
               for design, instance, _ in LIBRARY]
    engine = QueryEngine([rows], entries)

    def match(text, top_k=len(LIBRARY)):
        vector = model.encoder.embed(extract_rtl(text))
        return engine.query_many(vector, k=top_k, delta=model.delta)[0]

    return model, engine, match


class TestIPMatcher:
    def test_len(self, library_matcher):
        _, engine, _ = library_matcher
        assert len(engine) == 3

    def test_exact_copy_scores_one(self, library_matcher):
        _, _, match = library_matcher
        hits = match(XOR)
        assert hits[0].design == "xor_ip"
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)
        assert hits[0].is_piracy

    def test_sorted_descending(self, library_matcher):
        _, _, match = library_matcher
        scores = [hit.score for hit in match(ADD)]
        assert len(scores) == 3
        assert scores == sorted(scores, reverse=True)

    def test_top_k(self, library_matcher):
        _, _, match = library_matcher
        assert len(match(XOR, top_k=2)) == 2

    def test_best_design(self, library_matcher):
        _, _, match = library_matcher
        best = match(FSM, top_k=1)[0]
        assert best.design == "fsm_ip"
        assert best.score == pytest.approx(1.0, abs=1e-6)

    def test_match_scores_agree_with_model(self, library_matcher):
        model, _, match = library_matcher
        scores = {hit.name: hit.score for hit in match(ADD)}
        direct = model.similarity(extract_rtl(ADD),
                                  extract_rtl(XOR))
        # Library rows are stored as float32 unit vectors, the model
        # scores in float64: agreement is to float32 precision.
        assert scores["xor_0"] == pytest.approx(direct, abs=1e-6)
