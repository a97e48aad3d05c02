"""Streaming-ingest benchmark: memory, worker scaling, kill-and-resume.

Three production claims from the ingest pipeline are measured and
enforced (see ``repro.index.ingest``):

- **Flat peak memory** — streaming ingest flushes embedding rows to
  shards in bounded batches instead of holding every graph until the
  end, so its peak RSS over the full corpus must stay within 1.25x of
  its peak over every 4th file (4x the designs, flat memory) *and*
  under an absolute cap.
- **Worker scaling** — with >= 4 usable cores, multi-worker ingest must
  embed at >= 2x the single-worker rows/sec.  On smaller machines the
  multiprocess path still runs and the ratio is only reported.
- **Kill-and-resume equivalence** — an ingest SIGKILLed mid-stream
  (a real kill -9, after at least one durable flush) must resume from
  its checkpoint and produce an index whose top-k query results are
  identical to an uninterrupted run: same names, scores within float32
  epsilon.

Corpus size defaults to 1200 designs (CI scale); set
``REPRO_BENCH_INGEST_N`` to override, or ``REPRO_BENCH_FULL=1`` for the
20k-design paper-scale run.  Results land in
``benchmarks/out/bench_ingest.json``.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import FULL, OUT_DIR, report
from repro.api import Corpus, Detector, Session
from repro.designs import materialize_corpus
from repro.index import IngestConfig, ingest_corpus
from repro.index.ingest import CHECKPOINT_NAME
from repro.ir.frontends import get_frontend

N_DESIGNS = int(os.environ.get("REPRO_BENCH_INGEST_N",
                               20_000 if FULL else 1200))
#: Streaming peak RSS must stay under this whatever the corpus size.
ABS_RSS_CAP_MB = 512
#: Full-corpus peak RSS over the peak of an ingest of every 4th file.
RSS_GROWTH_CAP = 1.25
#: Single-module families: replicas are stamped out by renaming the one
#: top module, which multi-module designs would break.
FAMILIES = ("adder8", "addsub8", "cmp8", "mux8", "barrel8", "counter8",
            "lfsr8", "crc8")
SEED = 2

#: Subprocess runner: performs one ingest and reports its own peak RSS +
#: throughput as JSON on stdout.  RSS must be measured in a separate
#: process per run — ru_maxrss is a process-lifetime high-water mark and
#: never goes back down.
RUNNER = """
import json, resource, sys
from pathlib import Path

root, listfile = sys.argv[1], sys.argv[2]
jobs, flush_rows, seed = (int(a) for a in sys.argv[3:6])
paths = json.loads(Path(listfile).read_text())

from repro.core import GNN4IP
from repro.index import IngestConfig, ingest_corpus
index, rep = ingest_corpus(
    root, paths, GNN4IP(seed=seed),
    IngestConfig(jobs=jobs, flush_rows=flush_rows, use_cache=False))
wall = rep["ingest"]["wall_seconds"]
rows = rep["ingest"]["session_rows"]
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"peak_rss_mb": peak_kb / 1024.0,
                  "wall_seconds": wall, "rows": rows,
                  "rows_per_sec": rows / max(wall, 1e-9),
                  "embedded": rep["embedded"]}))
"""

#: Kill-and-resume victim: a plain streaming ingest the parent will
#: SIGKILL mid-run (no cooperation — the checkpoint protocol is what is
#: under test).
VICTIM = """
import json, sys
from pathlib import Path

root, listfile = sys.argv[1], sys.argv[2]
flush_rows, seed = int(sys.argv[3]), int(sys.argv[4])
paths = json.loads(Path(listfile).read_text())

from repro.core import GNN4IP
from repro.index import IngestConfig, ingest_corpus
ingest_corpus(root, paths, GNN4IP(seed=seed),
              IngestConfig(jobs=1, flush_rows=flush_rows,
                           use_cache=False))
"""


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _subprocess_env():
    env = dict(os.environ)
    src = str(OUT_DIR.parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_script(script, args, **popen_kwargs):
    out = subprocess.run([sys.executable, "-c", script, *args],
                         env=_subprocess_env(), capture_output=True,
                         text=True, **popen_kwargs)
    assert out.returncode == 0, f"subprocess failed:\n{out.stderr}"
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """N synthetic designs: unique base instances from the generator,
    replicated with unique module names (the cache is off in every run,
    so replicas cost full extract+embed like distinct designs)."""
    root = tmp_path_factory.mktemp("ingest_corpus")
    base = [p.read_text() for p in
            materialize_corpus(root / "base", families=list(FAMILIES),
                               instances_per_design=4, seed=SEED)]
    corpus_dir = root / "designs"
    corpus_dir.mkdir()
    paths = []
    for i in range(N_DESIGNS):
        text = base[i % len(base)]
        name = re.search(r"module\s+(\w+)", text).group(1)
        path = corpus_dir / f"d{i:05d}.v"
        path.write_text(re.sub(rf"\b{name}\b", f"{name}_r{i}", text))
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def listfile(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("ingest_lists") / "corpus.json"
    path.write_text(json.dumps(corpus))
    return str(path)


def _merge_out(payload):
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / "bench_ingest.json"
    existing = json.loads(out_path.read_text()) if out_path.exists() \
        else {}
    existing.update(payload)
    with open(out_path, "w") as handle:
        json.dump(existing, handle, indent=2, sort_keys=True)


def bench_ingest_peak_rss(corpus, listfile, tmp_path_factory):
    """Streaming peak RSS is flat in corpus size and under the cap."""
    roots = tmp_path_factory.mktemp("rss_roots")
    quarter_list = roots / "quarter.json"
    quarter_list.write_text(json.dumps(corpus[::4]))
    quarter = _run_script(RUNNER, [str(roots / "quarter"),
                                   str(quarter_list), "1", "2048",
                                   str(SEED)])
    full = _run_script(RUNNER, [str(roots / "full"), listfile, "1",
                                "2048", str(SEED)])
    ratio = full["peak_rss_mb"] / max(quarter["peak_rss_mb"], 1e-9)
    lines = [f"designs: {len(corpus)} (REPRO_BENCH_INGEST_N)",
             f"every 4th file ({len(corpus[::4])}) peak RSS: "
             f"{quarter['peak_rss_mb']:8.1f} MB "
             f"({quarter['wall_seconds']:.1f}s)",
             f"full corpus peak RSS:   {full['peak_rss_mb']:8.1f} MB "
             f"({full['wall_seconds']:.1f}s)",
             f"ratio: {ratio:.2f}x (required: <= {RSS_GROWTH_CAP}x and "
             f"<= {ABS_RSS_CAP_MB} MB absolute)"]
    report("ingest_peak_rss", "\n".join(lines))
    _merge_out({"designs": len(corpus),
                "quarter_peak_rss_mb": quarter["peak_rss_mb"],
                "streaming_peak_rss_mb": full["peak_rss_mb"],
                "quarter_wall_seconds": quarter["wall_seconds"],
                "streaming_wall_seconds": full["wall_seconds"],
                "streaming_rows_per_sec": full["rows_per_sec"],
                "rss_ratio": ratio})
    assert ratio <= RSS_GROWTH_CAP, \
        (f"ingest peak RSS grew {ratio:.2f}x from {len(corpus[::4])} to "
         f"{len(corpus)} designs")
    assert full["peak_rss_mb"] <= ABS_RSS_CAP_MB, \
        f"ingest peaked at {full['peak_rss_mb']:.0f} MB"


def bench_ingest_worker_scaling(corpus, listfile, tmp_path_factory):
    """Multi-worker rows/sec vs single-worker (enforced >= 2x when the
    machine has >= 4 usable cores; reported otherwise)."""
    cores = _usable_cores()
    workers = max(2, min(4, cores))
    roots = tmp_path_factory.mktemp("scaling_roots")
    single = _run_script(RUNNER, [str(roots / "w1"), listfile, "1", "2048",
                                  str(SEED)])
    multi = _run_script(RUNNER, [str(roots / "wN"), listfile, str(workers),
                                 "2048", str(SEED)])
    speedup = multi["rows_per_sec"] / max(single["rows_per_sec"], 1e-9)
    enforced = cores >= 4
    lines = [f"designs: {len(corpus)}, usable cores: {cores}",
             f"jobs=1:         {single['rows_per_sec']:8.0f} rows/s "
             f"({single['wall_seconds']:.1f}s)",
             f"jobs={workers}:         {multi['rows_per_sec']:8.0f} "
             f"rows/s ({multi['wall_seconds']:.1f}s)",
             f"speedup:        {speedup:8.2f}x "
             f"({'required: >= 2x' if enforced else 'not enforced: < 4 cores'})"]
    report("ingest_worker_scaling", "\n".join(lines))
    _merge_out({"cores": cores, "workers": workers,
                "single_rows_per_sec": single["rows_per_sec"],
                "multi_rows_per_sec": multi["rows_per_sec"],
                "worker_speedup": speedup,
                "scaling_enforced": enforced})
    assert multi["embedded"] == single["embedded"] == len(corpus)
    if enforced:
        assert speedup >= 2.0, \
            (f"{workers} workers only {speedup:.2f}x faster than one "
             f"on {cores} cores")


def bench_ingest_kill_and_resume(corpus, tmp_path_factory):
    """kill -9 mid-ingest, resume, and match the uninterrupted index."""
    n_kill = min(len(corpus), 600)
    subset = corpus[:n_kill]
    work = tmp_path_factory.mktemp("kill_resume")
    listfile = work / "subset.json"
    listfile.write_text(json.dumps(subset))
    flush_rows = 64

    # The victim runs in its own process group so the kill cannot leak
    # to the test runner; SIGKILL means no atexit, no cleanup — only
    # the bytes already fsynced survive, exactly the crash being tested.
    victim_root = work / "killed"
    victim = subprocess.Popen(
        [sys.executable, "-c", VICTIM, str(victim_root), str(listfile),
         str(flush_rows), str(SEED)],
        env=_subprocess_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    checkpoint_path = victim_root / CHECKPOINT_NAME
    killed_at = None
    deadline = time.monotonic() + 300
    try:
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                pytest.fail("victim finished before it could be killed "
                            f"(stderr: {victim.stderr.read()[-500:]})")
            try:
                done = json.loads(
                    checkpoint_path.read_text())["completed"]
            except (OSError, json.JSONDecodeError, KeyError):
                done = 0  # not yet flushed / mid-rename: keep polling
            if 0 < done < n_kill:
                killed_at = done
                os.killpg(victim.pid, signal.SIGKILL)
                break
            time.sleep(0.01)
    finally:
        if victim.poll() is None and killed_at is None:
            os.killpg(victim.pid, signal.SIGKILL)
        victim.wait()
    assert killed_at is not None, "never saw a checkpoint to kill after"
    assert checkpoint_path.is_file()

    resume_start = time.monotonic()
    resumed_index, resume_report = ingest_corpus(
        victim_root, subset,
        config=IngestConfig(jobs=1, flush_rows=flush_rows))
    resume_seconds = time.monotonic() - resume_start
    assert resume_report["ingest"]["resumed"] is True
    # Resume continued from the checkpoint instead of starting over.
    assert resume_report["ingest"]["session_designs"] <= \
        n_kill - killed_at + flush_rows

    from repro.core import GNN4IP
    uninterrupted, _ = ingest_corpus(
        work / "onego", subset, GNN4IP(seed=SEED),
        IngestConfig(jobs=1, flush_rows=flush_rows, use_cache=False))

    detector = Detector.from_model(resumed_index.model())
    resumed = Session(detector=detector, corpus=Corpus(resumed_index))
    onego = Session(detector=detector, corpus=Corpus(uninterrupted))
    suspects = [open(subset[i]).read()
                for i in range(0, n_kill, max(1, n_kill // 5))][:5]
    max_delta = 0.0
    for text in suspects:
        graph = get_frontend("rtl").extract(text)
        (got,) = resumed.query([graph], k=10)
        (want,) = onego.query([graph], k=10)
        assert [h.name for h in got] == [h.name for h in want]
        deltas = np.abs(np.array([h.score for h in got])
                        - np.array([h.score for h in want]))
        max_delta = max(max_delta, float(deltas.max()))
        assert max_delta <= 2e-6

    lines = [f"designs: {n_kill}, flush_rows: {flush_rows}",
             f"SIGKILLed after {killed_at} checkpointed designs",
             f"resume finished {resume_report['ingest']['session_designs']}"
             f" remaining designs in {resume_seconds:.1f}s",
             f"top-10 names identical on {len(suspects)} probes, "
             f"max |score delta| = {max_delta:.2e} (required <= 2e-6)"]
    report("ingest_kill_and_resume", "\n".join(lines))
    _merge_out({"kill_designs": n_kill, "killed_at": killed_at,
                "resume_session_designs":
                    resume_report["ingest"]["session_designs"],
                "resume_seconds": resume_seconds,
                "max_score_delta": max_delta,
                "probes": len(suspects)})
