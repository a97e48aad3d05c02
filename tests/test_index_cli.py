"""CLI round trips for the index subcommands and ``compare --index``."""

import json

import pytest

from repro.cli import main
from repro.core import GNN4IP, save_model

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
def corpus(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    for name, text in (("adder.v", ADDER), ("adder2.v", ADDER_VARIANT),
                       ("mux.v", MUX)):
        (root / name).write_text(text)
    return root


@pytest.fixture
def index_dir(corpus, tmp_path, capsys):
    path = tmp_path / "idx"
    assert main(["index", "build", str(path), str(corpus),
                 "--allow-untrained"]) == 0
    capsys.readouterr()
    return path


class TestIndexBuild:
    def test_build_from_directory(self, corpus, tmp_path, capsys):
        code = main(["index", "build", str(tmp_path / "idx"), str(corpus),
                     "--allow-untrained"])
        assert code == 0
        out = capsys.readouterr().out
        assert "indexed 3/3 files" in out
        assert (tmp_path / "idx" / "meta.json").is_file()
        assert (tmp_path / "idx" / "shards" / "shard-00000.f32").is_file()
        assert (tmp_path / "idx" / "model.npz").is_file()

    def test_build_warm_cache(self, index_dir, corpus, capsys):
        assert main(["index", "build", str(index_dir), str(corpus),
                     "--allow-untrained"]) == 0
        assert "cache: 3 hits / 0 misses" in capsys.readouterr().out

    def test_build_no_cache(self, index_dir, corpus, capsys):
        assert main(["index", "build", str(index_dir), str(corpus),
                     "--no-cache", "--allow-untrained"]) == 0
        assert "cache:" not in capsys.readouterr().out

    def test_build_without_model_needs_opt_in(self, corpus, tmp_path,
                                              capsys):
        code = main(["index", "build", str(tmp_path / "idx"), str(corpus)])
        assert code == 1
        assert "allow-untrained" in capsys.readouterr().err
        assert not (tmp_path / "idx" / "meta.json").exists()

    def test_build_generated_families(self, tmp_path, capsys):
        path = tmp_path / "gen_idx"
        code = main(["index", "build", str(path), "--allow-untrained",
                     "--families", "adder8", "cmp8", "--instances", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "generated 4 RTL files" in out
        assert "indexed 4/4 files" in out
        assert sorted(p.name for p in (path / "corpus").glob("*.v"))

    def test_build_without_inputs_fails(self, tmp_path, capsys):
        assert main(["index", "build", str(tmp_path / "empty_idx")]) == 1
        assert "no input files" in capsys.readouterr().err

    def test_build_records_failures(self, corpus, tmp_path, capsys):
        (corpus / "broken.v").write_text("module oops(endmodule")
        code = main(["index", "build", str(tmp_path / "idx"), str(corpus),
                     "--allow-untrained"])
        assert code == 0
        captured = capsys.readouterr()
        assert "1 failures" in captured.out
        assert "FAILED" in captured.err
        meta = json.loads((tmp_path / "idx" / "meta.json").read_text())
        failed = [e for e in meta["entries"] if e["status"] == "error"]
        assert len(failed) == 1

    def test_build_with_trained_model(self, corpus, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        save_model(GNN4IP(seed=4, delta=0.3), model_path)
        code = main(["index", "build", str(tmp_path / "idx"), str(corpus),
                     "--model", str(model_path)])
        assert code == 0
        assert "untrained" not in capsys.readouterr().err


class TestIndexQuery:
    def test_self_query_ranks_first(self, index_dir, corpus, capsys):
        code = main(["index", "query", str(index_dir),
                     str(corpus / "adder.v"), "-k", "3"])
        assert code == 2  # piracy hits found
        out = capsys.readouterr().out
        first_hit = out.splitlines()[1]
        assert "adder" in first_hit
        assert "+1.0000" in first_hit

    def test_unrelated_query(self, index_dir, tmp_path, capsys):
        suspect = tmp_path / "other.v"
        suspect.write_text("""
        module other(input [1:0] a, output y);
          assign y = a[0] & a[1];
        endmodule
        """)
        code = main(["index", "query", str(index_dir), str(suspect)])
        assert code in (0, 2)
        assert "top" in capsys.readouterr().out

    def test_foreign_model_rejected(self, index_dir, corpus, tmp_path,
                                    capsys):
        model_path = tmp_path / "foreign.npz"
        save_model(GNN4IP(seed=9), model_path)
        code = main(["index", "query", str(index_dir),
                     str(corpus / "adder.v"), "--model", str(model_path)])
        assert code == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_missing_index(self, tmp_path, corpus, capsys):
        code = main(["index", "query", str(tmp_path / "nope"),
                     str(corpus / "adder.v")])
        assert code == 1
        assert "index build" in capsys.readouterr().err


class TestIndexStats:
    def test_stats_output(self, index_dir, capsys):
        assert main(["index", "stats", str(index_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries        3" in out
        assert "model_hash" in out
        assert "last build" in out

    def test_malformed_meta_is_an_error_line(self, index_dir, capsys):
        meta_path = index_dir / "meta.json"
        meta_path.write_text(json.dumps([json.loads(meta_path.read_text())]))
        assert main(["index", "stats", str(index_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt index metadata: ")
        assert "Traceback" not in err


class TestCompareWithIndex:
    def test_reuses_index_embeddings(self, index_dir, corpus, capsys):
        code = main(["compare", str(corpus / "adder.v"),
                     str(corpus / "adder2.v"), "--index", str(index_dir)])
        captured = capsys.readouterr()
        assert "similarity:" in captured.out
        assert captured.err.count("embedding from index") == 2
        assert code in (0, 2)

    def test_unindexed_file_falls_back(self, index_dir, tmp_path, corpus,
                                       capsys):
        fresh = tmp_path / "fresh.v"
        fresh.write_text("""
        module fresh(input [3:0] a, output [3:0] y);
          assign y = ~a;
        endmodule
        """)
        code = main(["compare", str(corpus / "adder.v"), str(fresh),
                     "--index", str(index_dir)])
        captured = capsys.readouterr()
        assert "embedding from index" in captured.err
        assert "embedding from extracted" in captured.err
        assert code in (0, 2)
        # The extraction landed in the shared cache: second compare hits it.
        code = main(["compare", str(corpus / "adder.v"), str(fresh),
                     "--index", str(index_dir)])
        assert "embedding from cache" in capsys.readouterr().err

    def test_identical_files_piracy_exit(self, index_dir, corpus, capsys):
        code = main(["compare", str(corpus / "adder.v"),
                     str(corpus / "adder.v"), "--index", str(index_dir),
                     "--delta", "0.9"])
        capsys.readouterr()
        assert code == 2
