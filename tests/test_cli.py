"""CLI tests: extract-dfg / train / compare / corpus round trips."""

import numpy as np
import pytest

from repro.cli import build_parser, load_model, main, save_model
from repro.core import GNN4IP
from repro.errors import ModelError

ADDER = """
module adder(input [3:0] a, input [3:0] b, output [4:0] s);
  assign s = a + b;
endmodule
"""

ADDER_VARIANT = """
module adder(input [3:0] x, input [3:0] y, output [4:0] total);
  wire [4:0] t;
  assign t = x + y;
  assign total = t;
endmodule
"""

MUX = """
module mux(input [7:0] d, input [2:0] sel, output q);
  assign q = d[sel];
endmodule
"""


@pytest.fixture
def verilog_files(tmp_path):
    paths = {}
    for name, text in (("adder.v", ADDER), ("adder2.v", ADDER_VARIANT),
                       ("mux.v", MUX)):
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_extract_args(self):
        args = build_parser().parse_args(
            ["extract-dfg", "f.v", "--labels"])
        assert args.file == "f.v"
        assert args.labels


class TestExtract:
    def test_extract_runs(self, verilog_files, capsys):
        assert main(["extract-dfg", verilog_files["adder.v"]]) == 0
        out = capsys.readouterr().out
        assert "nodes:" in out
        assert "design: adder" in out

    def test_extract_labels(self, verilog_files, capsys):
        main(["extract-dfg", verilog_files["adder.v"], "--labels"])
        assert "plus" in capsys.readouterr().out

    def test_extract_edges(self, verilog_files, capsys):
        main(["extract-dfg", verilog_files["adder.v"], "--edges"])
        assert "->" in capsys.readouterr().out

    def test_extract_refuses_empty_design(self, tmp_path, capsys):
        # Like ingest and /v1/query: nothing to fingerprint is an error.
        path = tmp_path / "empty.v"
        path.write_text("module m(); endmodule\n")
        assert main(["extract-dfg", str(path)]) == 1
        assert "empty rtl graph" in capsys.readouterr().err


class TestCompareAndModelIO:
    def test_untrained_compare_needs_opt_in(self, verilog_files, capsys):
        code = main(["compare", verilog_files["adder.v"],
                     verilog_files["mux.v"]])
        captured = capsys.readouterr()
        assert code == 1
        assert "allow-untrained" in captured.err
        assert "similarity:" not in captured.out

    def test_untrained_compare_warns(self, verilog_files, capsys):
        code = main(["compare", verilog_files["adder.v"],
                     verilog_files["mux.v"], "--allow-untrained"])
        captured = capsys.readouterr()
        assert "similarity:" in captured.out
        assert "untrained" in captured.err
        assert code in (0, 2)

    def test_identical_files_are_piracy(self, verilog_files, capsys):
        code = main(["compare", verilog_files["adder.v"],
                     verilog_files["adder.v"], "--delta", "0.9",
                     "--allow-untrained"])
        assert code == 2  # piracy detected -> exit code 2
        assert "PIRACY" in capsys.readouterr().out

    def test_save_load_roundtrip(self, tmp_path):
        model = GNN4IP(seed=1, delta=0.37)
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.delta == pytest.approx(0.37)
        for (name_a, tensor_a), (name_b, tensor_b) in zip(
                model.encoder.named_parameters(),
                loaded.encoder.named_parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(tensor_a.data, tensor_b.data)

    def test_save_load_preserves_architecture(self, tmp_path):
        model = GNN4IP(seed=2, hidden=8, num_layers=3)
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.encoder.hidden == 8
        assert len(loaded.encoder.convs) == 3

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ModelError, match="not found"):
            load_model(str(tmp_path / "absent.npz"))

    def test_load_foreign_npz(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        np.savez(path, weights=np.zeros((3, 3)), other=np.ones(4))
        with pytest.raises(ModelError, match="not a gnn4ip model"):
            load_model(path)

    def test_load_incompatible_state(self, tmp_path):
        path = str(tmp_path / "partial.npz")
        np.savez(path, __delta__=np.array(0.5), junk=np.zeros(2))
        with pytest.raises(ModelError, match="compatible"):
            load_model(path)

    def test_load_non_npz_file(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_text("definitely not a numpy archive")
        with pytest.raises(ModelError):
            load_model(str(path))

    def test_cli_reports_model_errors(self, verilog_files, tmp_path,
                                      capsys):
        code = main(["compare", verilog_files["adder.v"],
                     verilog_files["mux.v"],
                     "--model", str(tmp_path / "absent.npz")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_compare_with_saved_model(self, verilog_files, tmp_path,
                                      capsys):
        path = str(tmp_path / "model.npz")
        save_model(GNN4IP(seed=0, delta=0.5), path)
        main(["compare", verilog_files["adder.v"], verilog_files["adder2.v"],
              "--model", path])
        assert "similarity:" in capsys.readouterr().out


class TestVersionAndJson:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_compare_json_output(self, verilog_files, tmp_path, capsys):
        import json

        path = str(tmp_path / "model.npz")
        save_model(GNN4IP(seed=0, delta=0.5), path)
        code = main(["compare", verilog_files["adder.v"],
                     verilog_files["adder.v"], "--model", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_piracy"] is True
        assert payload["verdict"] == "PIRACY"
        assert payload["score"] == pytest.approx(1.0)
        assert payload["delta"] == pytest.approx(0.5)
        assert code == 2


class TestCorpusCommand:
    def test_lists_families(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "adder8" in out
        assert "mips_pipeline" in out


class TestTrainCommand:
    def test_small_training_run(self, tmp_path, capsys):
        path = str(tmp_path / "m.npz")
        code = main(["train", "--families", "adder8", "cmp8", "counter8",
                     "--instances", "3", "--epochs", "3", "--save", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out
        loaded = load_model(path)
        assert isinstance(loaded, GNN4IP)
