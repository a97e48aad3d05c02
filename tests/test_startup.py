"""Start-up budget: what a fresh process imports before its first answer.

Importing scipy is most of a cold start, and only embedding a graph
needs it; only a source query needs the Verilog frontend.  Each test
runs a fresh interpreter and reads its ``sys.modules``: the CLI, the
server and its scatter-gather workers must start, open an index and
serve a vector query without scipy, ``repro.verilog`` or
``repro.dataflow``; the first source query loads scipy and ranks exactly
as an in-process query.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import Corpus, Detector, IngestConfig, Session
from repro.core import GNN4IP
from repro.index import FingerprintIndex

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

ADDER = """
module adder(input [3:0] a, input [3:0] b, output [4:0] s);
  assign s = a + b;
endmodule
"""

MUX = """
module mux(input [7:0] d, input [2:0] sel, output q);
  assign q = d[sel];
endmodule
"""

XOR_CHAIN = """
module xchain(input [3:0] a, input [3:0] b, output x);
  assign x = ^(a ^ b);
endmodule
"""

LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in
                        ("scipy", "repro"))))
"""

RTL_FRONTEND = ("repro.verilog", "repro.dataflow")


def fresh(code, *args):
    """Run ``code`` in a fresh interpreter; returns its last stdout line
    decoded as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    paths = []
    for name, text in (("adder", ADDER), ("mux", MUX), ("xchain", XOR_CHAIN)):
        path = root / f"{name}.v"
        path.write_text(text)
        paths.append(path)
    Corpus.build(
        root / "idx",
        paths,
        Detector.from_model(GNN4IP(seed=0)),
        IngestConfig(jobs=1),
    )
    return root / "idx"


def test_cli_and_server_imports_leave_out_scipy():
    loaded = fresh("import repro.cli, repro.server, repro.server.worker" + LOADED)
    assert "repro.server.worker" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]


def test_cli_import_leaves_out_generators_and_obfuscation():
    loaded = fresh("import repro.cli" + LOADED)
    assert "repro.cli" in loaded
    assert not [
        m
        for m in loaded
        if m.startswith(("repro.designs", "repro.obfuscate", "repro.synth"))
    ]


def test_vector_query_leaves_out_scipy(index_dir):
    vector = FingerprintIndex.load(index_dir).matrix[0].tolist()
    code = (
        "import json, sys\n"
        "from repro.api import Session\n"
        "session = Session.open(sys.argv[1])\n"
        "matches = session.query([json.loads(sys.argv[2])], k=2)[0].matches\n"
        "assert matches[0].score > 0.999\n"
    )
    loaded = fresh(code + LOADED, str(index_dir), json.dumps(vector))
    assert "repro.index.engine" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]


def test_cli_and_vector_query_leave_out_the_rtl_frontend(index_dir):
    vector = FingerprintIndex.load(index_dir).matrix[0].tolist()
    code = (
        "import json, sys\n"
        "import repro.cli, repro.server, repro.server.worker\n"
        "from repro.api import Session\n"
        "session = Session.open(sys.argv[1])\n"
        "matches = session.query([json.loads(sys.argv[2])], k=2)[0].matches\n"
        "assert matches[0].score > 0.999\n"
    )
    loaded = fresh(code + LOADED, str(index_dir), json.dumps(vector))
    assert "repro.core.features" in loaded
    assert not [m for m in loaded if m.startswith(RTL_FRONTEND)]


def test_first_source_query_loads_scipy_and_ranks_as_in_process(index_dir):
    code = (
        "import json, sys\n"
        "from repro.api import Session\n"
        "session = Session.open(sys.argv[1])\n"
        "opened = 'scipy' in sys.modules\n"
        "results = session.query([sys.argv[2]], k=3)\n"
        "ranking = [[[m.name, m.score] for m in r.matches] for r in results]\n"
        "print(json.dumps([opened, 'scipy.sparse' in sys.modules, ranking]))\n"
    )
    opened, queried, served = fresh(code, str(index_dir), MUX)
    assert not opened
    assert queried
    local = Session.open(index_dir).query([MUX], k=3)
    assert served == [[[m.name, m.score] for m in r.matches] for r in local]
