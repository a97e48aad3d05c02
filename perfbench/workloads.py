"""The two workloads: what each sets up, runs as one op, and checks.

Every workload is a closed loop with one caller and follows the same
shape:

- ``setup(seed)`` builds the inputs from the seed untimed, then does
  several times over the set-up a user pays before the first op, each
  ending in a warm-up op so that lazy loads finish untimed; it returns
  one ``Sample`` per set-up, from which ``run.py`` derives ``setup_s``.
- ``run(seconds)`` issues ops until the time is up and returns one
  ``Sample`` per op.
- ``check()`` verifies the program's outputs and returns
  ``(correct, failed_ops)``.

Every set-up and every op is bracketed by a host probe (``HostProbe``):
a fixed pure-Python kernel of a few milliseconds that shares no code
with the program.  On a shared host, co-tenant load slows a core by
about 1.6x, switching on and off within seconds and for a share of the
time that drifts over minutes; the probe slows with it, so ``run.py``
can tell which samples ran on a slowed core.

Inputs come from the program's own design generators and obfuscator.
The IP library is fixed -- one base design per family, generated with
seed 0 -- and ``--seed`` drives every obfuscated instance and suspect
made from it.  Seeding the bases too would swing the total graph size,
and with it every timing, by more than the bounds between seeds.
"""

import gc
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

#: Families indexed by the source-query workload: small and mid-size
#: combinational and sequential designs, all synthesizable.
CORPUS_FAMILIES = ("adder8", "mult4", "cmp8", "prienc8", "barrel8",
                   "counter8", "lfsr8", "crc8", "popcount8", "hamdec74",
                   "mux8", "updown4", "parity16", "shiftreg8")
LEVEL = "netlist"
QUERY_K = 5
SERVE_K = 10
SERVE_ROWS = 50000
SERVE_SHARDS = 4
#: Vectors per served request: the engine pass the server's
#: micro-batcher forms under the repository's serving benchmark
#: (benchmarks/bench_serve.py: 32 in flight, k=10, IVF-backed store).
SERVE_BATCH = 32
#: Obfuscation pipelines, one per instance slot.  Fixing which transforms
#: run -- the seed still picks every gate and wire they touch -- keeps the
#: obfuscated designs' sizes within a few percent across seeds; letting
#: the seed pick the transforms too swings a design's size up to 3x.
PIPELINES = (("decompose", "inverter_pairs"), ("demorgan",),
             ("buffers", "duplicate"), ("inverter_pairs", "demorgan"),
             ("decompose",))
SETUP_REPEATS = 7


class Sample(NamedTuple):
    """One timed op or set-up: its wall time and the host probe's times
    just before and just after it."""

    seconds: float
    probe_before: float
    probe_after: float


class HostProbe:
    """Times a fixed pure-Python kernel of a few milliseconds with the
    collector off, so that its time depends on the host's speed alone,
    not on the program or its heap."""

    def __init__(self):
        self.times = []

    @staticmethod
    def _kernel():
        table = {}
        for i in range(10000):
            table[str(i)] = [i, i * 2]
        return sum(len(key) + value[1] for key, value in table.items())

    def __call__(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.times.append(elapsed)
        return elapsed


def _model(seed):
    from repro.core.gnn4ip import GNN4IP

    return GNN4IP(seed=seed, featurizer=LEVEL)


def _fresh_ingest(root, paths, model):
    from repro.api import Corpus
    from repro.index.ingest import IngestConfig

    # jobs=1 is the serial in-process path: no pool start-up per call and
    # every layer runs where the tracer can see it.
    return Corpus.ingest(root, paths, detector=model,
                         config=IngestConfig(jobs=1), fresh=True)


def _bases(families):
    """``(offset, name, netlist)``: each family's fixed base design."""
    from repro.designs.corpus import canonical_variant
    from repro.synth.synthesize import synthesize_verilog

    for offset, name in enumerate(families):
        variant = canonical_variant(name, offset=offset)
        yield offset, name, synthesize_verilog(variant.verilog,
                                               top=variant.top)


def _obfuscated(base, seed, offset, slot):
    from repro.obfuscate.transforms import obfuscate

    return obfuscate(base, seed=seed * 7919 + 97 * offset + slot,
                     transforms=PIPELINES[slot])


def _library(seed, families, instances):
    """``(name, index, netlist)``: instance 0 is the family's base
    design, instance i an obfuscation by pipeline slot i - 1."""
    for offset, name, base in _bases(families):
        for index in range(instances):
            yield name, index, (base if index == 0 else _obfuscated(
                base, seed, offset, index - 1))


def _write_tree(directory, seed, families, instances):
    from repro.netlist.verilog_io import write_netlist

    directory.mkdir(parents=True)
    paths = []
    for name, index, net in _library(seed, families, instances):
        paths.append(directory / f"{name}_net{index}.v")
        paths[-1].write_text(write_netlist(net))
    return paths


def _suspect_sources(seed, families):
    """Per family: the indexed base design verbatim, plus four fresh
    obfuscations of it (the pirate's restyled copies)."""
    from repro.netlist.verilog_io import write_netlist

    suspects = []
    for offset, name, base in _bases(families):
        suspects.append((write_netlist(base), f"{name}_net0"))
        suspects.extend((write_netlist(_obfuscated(base, seed, offset,
                                                   slot)), None)
                        for slot in range(1, len(PIPELINES)))
    return suspects


def _probed(probe, fn):
    """``(Sample, fn())`` for one probed, timed call of ``fn``."""
    before = probe()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return Sample(elapsed, before, probe()), result


def _loop(seconds, probe, op, record):
    """Time ``op()`` until ``seconds`` have passed, with a probe between
    every two ops; ``record(result)`` keeps each result, untimed."""
    samples = []
    deadline = time.perf_counter() + seconds
    before = probe()
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        result = op()
        elapsed = time.perf_counter() - start
        record(result)
        after = probe()
        samples.append(Sample(elapsed, before, after))
        before = after
    return samples


class Workload:
    """Defaults: nothing running outside this process.  ``work`` is the
    run's scratch directory, ``src_dir`` the program's sources and
    ``trace`` whether layer spans are recorded."""

    def __init__(self, work, src_dir, trace):
        self.work = work
        self.src_dir = src_dir
        self.trace = trace
        self.probe = HostProbe()

    def server_state(self):
        """``(span totals, stats)`` of the server process, or ``None``."""
        return None

    def stop(self):
        """Stop every process the workload started."""


class SourceQuery(Workload):
    """Rank one Verilog suspect against a netlist index per op.

    The op is ``Session.query`` on source text: preprocess, parse,
    elaborate, synthesize, lower, chunk, WL-sign, embed every part, then
    score and fuse against the stored rows.  Set-up is building the index
    by ingest and opening a session on it.
    """

    def setup(self, seed):
        from repro.api import Session

        self.paths = _write_tree(self.work / "src", seed, CORPUS_FAMILIES, 2)
        self.suspects = _suspect_sources(seed, CORPUS_FAMILIES)
        self.order = np.random.default_rng(seed).permutation(
            len(self.suspects))
        model = _model(0)
        samples = []
        for repeat in range(SETUP_REPEATS):
            root = self.work / f"index{repeat}"

            def build():
                _fresh_ingest(root, self.paths, model)
                session = Session.open(root)
                session.query([self.suspects[0][0]], k=QUERY_K)
                return session

            sample, self.session = _probed(self.probe, build)
            samples.append(sample)
        self.reference = [self._query(i) for i in range(len(self.suspects))]
        return samples

    def _query(self, i):
        result = self.session.query([self.suspects[i][0]], k=QUERY_K)[0]
        return [(m.name, m.score) for m in result.matches]

    def run(self, seconds):
        self.seen = []

        def op():
            i = int(self.order[len(self.seen) % len(self.order)])
            return i, self._query(i)

        return _loop(seconds, self.probe, op, self.seen.append)

    def check(self):
        names = {p.stem for p in self.paths}
        for ranked in self.reference:
            if len(ranked) != QUERY_K or not all(n in names
                                                 for n, _ in ranked):
                return False, 0
        # A verbatim copy of an indexed design must find that design with
        # cosine 1; fused ranking may place structural look-alikes first.
        for (_, expected), ranked in zip(self.suspects, self.reference):
            if expected is not None and not any(
                    n == expected and s > 0.9999 for n, s in ranked):
                return False, 0
        # Every op must reproduce the ranking its suspect got at set-up.
        failed = sum(ranked != self.reference[i] for i, ranked in self.seen)
        return failed == 0, failed


class VectorServe(Workload):
    """Served top-k queries by precomputed embedding over HTTP.

    ``gnn4ip serve`` runs in its own process over a 50k-row index with an
    IVF quantizer, so queries take the default probe-then-rescore path.
    One caller in this process sends ``/v1/query`` requests of 32
    vectors (k=10) through ``repro.client.Client`` on one keep-alive
    connection, one at a time; each is one engine pass in the server.
    ``benchmarks/bench_serve.py`` keeps 32 single-vector requests in
    flight over an IVF-backed 50k-row store, which the server's
    micro-batcher coalesces into passes of about that size; no record of
    real traffic exists.  Sending the pass's vectors in one request
    leaves the batcher's coalescing unmeasured, but lets every request
    be probed on its own (see ``HostProbe``): with 32 requests in flight
    no probe can fall between two of them.  Client and server are pinned
    to one core, so that the probe times the core that does the work.
    The op is one request, timed from send to parsed reply.  Set-up is
    starting the server until it answers its first query.
    """

    segment_seconds = 0.0

    def __init__(self, work, src_dir, trace):
        super().__init__(work, src_dir, trace)
        self.snapshot_path = str(work / "server-spans.json") if trace else "-"
        self.process = None

    def _write_index(self, seed):
        """A v4 store of clustered unit rows with a saved model and an IVF
        fitted as ingest fits one (default cluster count, seed 0): the
        shape an ingest produces, at a size ingest cannot reach in a
        run."""
        from repro.core.persist import save_model
        from repro.index.ann import IVFIndex, ivf_filename
        from repro.index.service import model_fingerprint
        from repro.index.shards import unit_rows_f32, write_shard
        from repro.index.store import FORMAT_VERSION, META_NAME, MODEL_NAME

        rng = np.random.default_rng(seed)
        model = _model(0)
        hidden = model.encoder.hidden
        families = SERVE_ROWS // 100
        centers = rng.standard_normal((families, hidden))
        labels = rng.integers(0, families, size=SERVE_ROWS)
        rows = unit_rows_f32(centers[labels]
                             + 0.15 * rng.standard_normal((SERVE_ROWS,
                                                           hidden)))
        root = self.work / "served"
        root.mkdir()
        specs = [write_shard(root, i, block) for i, block in
                 enumerate(np.array_split(rows, SERVE_SHARDS))]
        save_model(model, root / MODEL_NAME)
        ivf = IVFIndex.fit(rows)
        ivf.save(root / ivf_filename(0))
        names = [f"d{i:06d}" for i in range(SERVE_ROWS)]
        meta = {
            "version": FORMAT_VERSION,
            "model_hash": model_fingerprint(model),
            "options": {"top": None, "level": LEVEL, "use_cache": False},
            "store": {"dtype": "float32", "hidden": hidden,
                      "shards": specs},
            "entries": [{"name": n, "path": f"{n}.v", "key": f"{i:064x}",
                         "design": f"fam{labels[i]}", "status": "ok"}
                        for i, n in enumerate(names)],
            "rows": [{"kind": "design", "name": n} for n in names],
            "chunks": None,
            "ivf": {"clusters": ivf.n_clusters, "file": ivf_filename(0),
                    "fitted_rows": SERVE_ROWS},
        }
        (root / META_NAME).write_text(json.dumps(meta))
        picks = rng.choice(SERVE_ROWS, size=256, replace=False)
        queries = unit_rows_f32(rows[picks] + 0.05 * rng.standard_normal(
            (len(picks), hidden)))
        return root, [[float(v) for v in q] for q in queries]

    def _start(self):
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("serve_child.py")),
             self.src_dir, str(self.root), self.snapshot_path],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        for line in self.process.stdout:
            if line.startswith("serving on http://"):
                self.port = int(line.rsplit(":", 1)[1])
                break
        else:
            raise RuntimeError("the server exited before serving")
        self._request(self.queries[:1])

    def stop(self):
        if self.process is None:
            return
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()

    def _request(self, vectors):
        from repro.client import Client

        with Client("127.0.0.1", self.port) as client:
            return client.query(vectors=vectors, k=SERVE_K)

    def setup(self, seed):
        # The server inherits the pinning.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.root, self.queries = self._write_index(seed)
        samples = []
        for _ in range(SETUP_REPEATS):
            self.stop()
            sample, _ = _probed(self.probe, self._start)
            samples.append(sample)
        return samples

    def server_state(self):
        if self.snapshot_path == "-":
            return None
        return self._server_spans(), self._server_stats()

    def _server_spans(self):
        """Running span totals from the server process (SIGUSR1)."""
        path = Path(self.snapshot_path)
        path.unlink(missing_ok=True)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10
        while not path.is_file():
            if time.monotonic() > deadline:
                raise RuntimeError("the server wrote no span snapshot")
            time.sleep(0.01)
        return json.loads(path.read_text())

    def _server_stats(self):
        from repro.client import Client

        with Client("127.0.0.1", self.port) as client:
            return client.stats()

    def _batch(self, b):
        return self.queries[b * SERVE_BATCH:(b + 1) * SERVE_BATCH]

    def run(self, seconds):
        from repro.client import Client

        self.served = {}
        self.bad_replies = 0
        sent = itertools.count()
        batches = len(self.queries) // SERVE_BATCH

        def record(result):
            b, reply = result
            ranked = [[(m["name"], m["score"]) for m in r["matches"]]
                      for r in reply["results"]]
            if self.served.setdefault(b, ranked) != ranked:
                self.bad_replies += 1

        with Client("127.0.0.1", self.port) as client:
            def op():
                b = next(sent) % batches
                return b, client.query(vectors=self._batch(b), k=SERVE_K)

            return _loop(seconds, self.probe, op, record)

    def check(self):
        """Served rankings equal the in-process engine's, vector by
        vector (same names in the same order, scores to float32 noise),
        and every op got the reply its batch got first."""
        from repro.api import Session

        session = Session.open(self.root)
        for b, served in self.served.items():
            local = session.query([np.asarray(v) for v in self._batch(b)],
                                  k=SERVE_K)
            for mine, theirs in zip(local, served, strict=True):
                if len(theirs) != SERVE_K or [m.name for m in mine.matches] \
                        != [name for name, _ in theirs]:
                    return False, self.bad_replies
                if any(abs(m.score - score) > 1e-6
                       for m, (_, score) in zip(mine.matches, theirs)):
                    return False, self.bad_replies
        return self.bad_replies == 0, self.bad_replies


WORKLOADS = {
    "source_query": SourceQuery,
    "vector_serve": VectorServe,
}
