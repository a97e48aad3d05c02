"""Golden digests of served ``/v1/query`` reply bodies.

``tests/data/reply_golden.json`` pins the sha256 of the exact bytes a
live :class:`~repro.server.ReproServer` writes as the body of each
``POST /v1/query`` below:

- vector batches at ``k`` 10 and 0 (IVF and exact) on the seeded tied
  store of ``tests/test_query_golden.py``, written out as an on-disk
  index;
- the same store with a calibration artifact, so every match carries a
  probability, its confidence band and the calibrated verdict;
- fused source queries on a chunked, signed netlist index, so matches
  carry ``region``, ``query_region``, ``coverage`` and ``struct``;
- suspect labels with non-ASCII characters, quotes, backslashes and
  control characters.

Any change to the reply encoding -- key order, separators, float or
string spelling -- shows up as a digest mismatch naming the request.
The scores inside the bodies are the engine's, so a change that moves
a score bit shows up here too (``tests/test_query_golden.py`` names
the hit list).

When a change is *intentional*, regenerate the fixture and commit the
diff alongside the change::

    PYTHONPATH=src python tests/test_reply_golden.py regenerate
"""

import asyncio
import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

# The tied store lives beside this file; importable under any pytest
# import mode and when the file runs as a script.
sys.path.insert(0, str(Path(__file__).parent))

from test_query_golden import SHARDS, golden_store  # noqa: E402

from repro.api import Corpus, Detector, IngestConfig, Session  # noqa: E402
from repro.calib import (  # noqa: E402
    Calibration,
    IsotonicCalibrator,
    ScoreCalibrator,
)
from repro.core import GNN4IP  # noqa: E402
from repro.designs.corpus import canonical_variant  # noqa: E402
from repro.eval.scenarios import graft_netlists  # noqa: E402
from repro.index.shards import write_shard  # noqa: E402
from repro.index.store import FORMAT_VERSION  # noqa: E402
from repro.netlist import write_netlist  # noqa: E402
from repro.server import ReproServer  # noqa: E402
from repro.synth import synthesize_verilog  # noqa: E402

GOLDEN_PATH = Path(__file__).parent / "data" / "reply_golden.json"

#: Families stored in the chunked netlist index.
FAMILIES = ("adder8", "cmp8", "parity16", "mux8")

#: Suspect labels that exercise string escaping: non-ASCII (in and
#: beyond the BMP), quotes, backslashes, control characters, and the
#: empty label that falls back to ``suspect[i]``.
LABELS = ('café "α" ✓', "日本語.v", 'say "hi" \\ back\\slash',
          "tab\there\nnewline\x00\x1f\x7f", "emoji 😀  ", "")


def _vector_store(root, calibrated=False):
    """Write the tied store of ``test_query_golden`` as an on-disk v4
    index (model-less, so served verdicts judge against delta 0.0);
    ``calibrated`` adds an isotonic pair-tier calibration artifact."""
    engine, queries = golden_store()
    rows = np.concatenate(engine._blocks)
    bounds = np.cumsum(SHARDS)[:-1]
    specs = [write_shard(root, i, block)
             for i, block in enumerate(np.split(rows, bounds))]
    engine.ivf.save(root / "ivf-0.npz")
    entries = [dict(entry, key=f"{i:064x}")
               for i, entry in enumerate(engine._entries)]
    meta = {"version": FORMAT_VERSION, "model_hash": "golden",
            "options": {"top": None, "level": "rtl", "use_cache": False},
            "store": {"dtype": "float32", "hidden": rows.shape[1],
                      "shards": specs},
            "entries": entries,
            "rows": [{"kind": "design", "name": e["name"]} for e in entries],
            "ivf": {"file": "ivf-0.npz",
                    "clusters": engine.ivf.n_clusters}}
    (root / "meta.json").write_text(json.dumps(meta))
    if calibrated:
        # Piecewise-linear isotonic tiers: interpolation only, so the
        # probabilities are exact functions of the scores.
        def tier(shift):
            return IsotonicCalibrator([0.9, 0.95, 0.99],
                                      [0.05 + shift, 0.5, 0.95 - shift])

        pair = ScoreCalibrator("isotonic", tier(0.0), threshold=0.6,
                               replicas=[tier(0.02), tier(-0.03),
                                         tier(0.04)])
        Calibration(model_hash="golden", index_format=FORMAT_VERSION,
                    level="rtl", delta=0.0, pair=pair).save(root)
    return Session(corpus=Corpus.open(root)), queries


@contextmanager
def _inside(directory):
    """Run with ``directory`` as the working directory, so the index
    stores paths relative to it."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _netlist_store(root):
    """A chunked, WL-signed netlist index over ``FAMILIES`` and three
    source suspects: a partial theft (40% of adder8 grafted into
    cmp8), a verbatim parity16 and the mux8 RTL."""
    sources = root / "src"
    sources.mkdir()
    paths = []
    for name in FAMILIES:
        path = sources / f"{name}.v"
        path.write_text(canonical_variant(name).verilog)
        paths.append(path.relative_to(root))
    detector = Detector.from_model(GNN4IP(seed=0, featurizer="netlist"))
    with _inside(root):
        corpus, _ = Corpus.build(root / "idx", paths, detector,
                                 IngestConfig(level="netlist", jobs=1))
    host, stolen = canonical_variant("cmp8"), canonical_variant("adder8")
    graft = graft_netlists(synthesize_verilog(host.verilog, top=host.top),
                           synthesize_verilog(stolen.verilog,
                                              top=stolen.top),
                           fraction=0.4, seed=7)
    suspects = [write_netlist(graft), canonical_variant("parity16").verilog,
                canonical_variant("mux8").verilog]
    return Session(detector=detector, corpus=corpus), suspects


async def _post(port, payload):
    """The raw body of one ``POST /v1/query`` (status must be 200)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode()
    writer.write(b"POST /v1/query HTTP/1.1\r\nHost: golden\r\n"
                 b"Content-Type: application/json\r\n"
                 b"Content-Length: %d\r\nConnection: close\r\n\r\n"
                 % len(body) + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, reply = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 "), raw[:300]
    return reply


def served_bodies(session, requests):
    """``{name: body bytes}`` for ``{name: payload}`` served by one
    in-process server over ``session``."""

    async def run():
        server = ReproServer(session, port=0)
        await server.start()
        try:
            return {name: await _post(server.port, payload)
                    for name, payload in requests.items()}
        finally:
            await server.stop()

    return asyncio.run(run())


def _vectors(queries):
    return [{"vector": [float(v) for v in q]} for q in queries]


def current_bodies():
    """``{request name: reply body}`` for every pinned request."""
    bodies = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for store, calibrated in (("tied", False), ("calibrated", True)):
            root = tmp / store
            root.mkdir()
            session, queries = _vector_store(root, calibrated=calibrated)
            requests = {f"{store}/k10": {"suspects": _vectors(queries),
                                         "k": 10},
                        f"{store}/k0": {"suspects": _vectors(queries),
                                        "k": 0},
                        f"{store}/k10/exact": {
                            "suspects": _vectors(queries[:8]), "k": 10,
                            "exact": True}}
            if not calibrated:
                labelled = _vectors(queries[:len(LABELS) + 1])
                for suspect, label in zip(labelled, LABELS):
                    suspect["label"] = label
                requests["tied/labels"] = {"suspects": labelled, "k": 3}
            bodies.update(served_bodies(session, requests))
        root = tmp / "netlist"
        root.mkdir()
        session, suspects = _netlist_store(root)
        fused = [{"source": s, "label": label} for s, label in
                 zip(suspects, ("graft.v", "parity16.v", "mux8.v"))]
        bodies.update(served_bodies(session, {
            "netlist/fused/k4": {"suspects": fused, "k": 4},
            "netlist/fused/k2/exact": {"suspects": fused, "k": 2,
                                       "exact": True}}))
    return bodies


def digests_of(bodies):
    return {name: hashlib.sha256(body).hexdigest()
            for name, body in bodies.items()}


@pytest.fixture(scope="module")
def bodies():
    return current_bodies()


def test_reply_bodies_match_golden(bodies):
    golden = json.loads(GOLDEN_PATH.read_text())
    digests = digests_of(bodies)
    assert sorted(digests) == sorted(golden)
    drifted = sorted(key for key in golden if digests[key] != golden[key])
    assert not drifted, (
        f"/v1/query reply bytes drifted for {drifted} -- if the change is "
        "intentional, regenerate with:\n"
        "  PYTHONPATH=src python tests/test_reply_golden.py regenerate")


def test_bodies_are_json_dumps_of_their_payload(bodies):
    """Each body is exactly ``json.dumps`` of what it decodes to."""
    for name, body in bodies.items():
        assert body == json.dumps(json.loads(body)).encode(), name


def test_requests_cover_what_they_claim(bodies):
    """The pinned replies really carry every optional field: locality
    evidence and structural scores, calibrated probabilities and bands
    with both verdicts, escaped labels, and empty hit lists."""
    replies = {name: json.loads(body) for name, body in bodies.items()}

    def matches(name):
        return [m for r in replies[name]["results"] for m in r["matches"]]

    fused = matches("netlist/fused/k4")
    assert any(m["via"] == "chunk" and m["region"] is not None
               for m in fused)
    assert any(m["query_region"] is not None for m in fused)
    assert all(m["coverage"] is not None and m["struct"] is not None
               for m in fused)
    calibrated = matches("calibrated/k10")
    assert all(m["probability"] is not None
               and m["confidence_low"] <= m["probability"]
               <= m["confidence_high"] for m in calibrated)
    assert {m["verdict"] for m in calibrated} == {"PIRACY", "no piracy"}
    assert all(m["probability"] is None for m in matches("tied/k10"))
    labels = [r["label"] for r in replies["tied/labels"]["results"]]
    assert labels[:len(LABELS) - 1] == list(LABELS[:-1])
    assert labels[len(LABELS) - 1:] == [f"suspect[{len(LABELS) - 1}]",
                                        f"suspect[{len(LABELS)}]"]
    assert b"\\u00e9" in bodies["tied/labels"]
    assert b"\\ud83d\\ude00" in bodies["tied/labels"]
    assert all(not r["matches"] for r in replies["tied/k0"]["results"])
    assert replies["tied/k10"]["serving"].startswith("ivf:")
    assert replies["tied/k10/exact"]["serving"] == "exact"


if __name__ == "__main__":
    if sys.argv[1:] == ["regenerate"]:
        GOLDEN_PATH.write_text(json.dumps(digests_of(current_bodies()),
                                          indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
