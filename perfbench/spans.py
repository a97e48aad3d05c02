"""Layer spans recorded from outside the program.

The tracer wraps named entry points of each layer (``module:Attr.path``)
with a timing shim and attributes every call's *self* time -- its
duration minus the time spent in nested wrapped calls -- to a layer.
Spans are kept in memory as per-layer totals (self nanoseconds and call
counts); nothing is written until the benchmark reads them.

Wrapping is all-or-nothing per run: ``--trace 0`` never installs it, so
end-to-end figures carry no tracing cost.  A target the program no longer
has is skipped and listed in ``missing``; its layer then reads 0 and its
work shows up in the op's untraced remainder instead.
"""

import importlib
import threading
import time

#: Layer -> entry points whose self time is that layer's.  Several
#: bindings of one function (``from x import f`` copies) are listed
#: separately because each module namespace is patched on its own.
LAYER_TARGETS = {
    "preprocess": ["repro.ir.frontends:NetlistFrontend.preprocess_text",
                   "repro.ir.frontends:RTLFrontend.preprocess_text"],
    "parse": ["repro.verilog:parse"],
    "elaborate": ["repro.dataflow.elaborate:elaborate"],
    "synth": ["repro.synth.synthesize:synthesize"],
    "lower_ir": ["repro.netlist.to_ir:netlist_to_ir"],
    "chunking": ["repro.index.store:extract_chunks"],
    "wl_signature": ["repro.index.store:wl_colors",
                     "repro.index.wlsig:SignatureScorer.scores"],
    "graph_prep": ["repro.core.hw2vec:HW2VEC.prepare"],
    "pack": ["repro.nn.batch:pack_prepared"],
    "gcn_forward": ["repro.nn.batch:batched_forward"],
    "ivf_probe": ["repro.index.ann:IVFIndex.probe"],
    "scoring": ["repro.index.engine:QueryEngine.query_many",
                "repro.index.engine:QueryEngine.query_groups"],
    "serve_batch": ["repro.server.app:ReproServer._process_query_jobs"],
    "http_codec": ["repro.server.app:response_bytes",
                   "repro.server.http:Request.json"],
}

#: Layers whose call count (per op) is reported as a work count.
COUNTED = {"graph_prep": "graphs_embedded", "gcn_forward": "forward_passes"}


def _resolve(target):
    """``(owner, attribute)`` for a ``module:Dotted.path`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attribute not in vars(owner):
        raise AttributeError(attribute)
    return owner, attribute


class Tracer:
    """Per-layer self time and call counts over wrapped entry points."""

    def __init__(self):
        # Re-entrant: a signal handler that snapshots (see serve_child.py)
        # may interrupt the main thread inside a span's update.
        self._lock = threading.RLock()
        self._local = threading.local()
        self.self_ns = {layer: 0 for layer in LAYER_TARGETS}
        self.calls = {layer: 0 for layer in LAYER_TARGETS}
        self.missing = []
        self._patched = []

    def install(self):
        for layer, targets in LAYER_TARGETS.items():
            for target in targets:
                try:
                    owner, attribute = _resolve(target)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                original = vars(owner)[attribute]
                setattr(owner, attribute, self._wrap(original, layer))
                self._patched.append((owner, attribute, original))
        return self

    def uninstall(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched = []

    def _wrap(self, original, layer):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.self_ns[layer] += elapsed - nested
                    tracer.calls[layer] += 1

        return traced

    def reset(self):
        with self._lock:
            for layer in self.self_ns:
                self.self_ns[layer] = 0
                self.calls[layer] = 0

    def snapshot(self):
        with self._lock:
            return {"self_ns": dict(self.self_ns), "calls": dict(self.calls)}


def layer_metrics(snapshot, ops, op_seconds=None):
    """Per-op layer figures from a tracer snapshot.

    ``op_seconds`` is the summed wall time of the measured ops when they
    ran in this process; the part of it no span covers is reported as
    ``untraced_ms``.
    """
    ops = max(ops, 1)
    metrics = {}
    for layer, total_ns in snapshot["self_ns"].items():
        metrics[f"{layer}_ms"] = (total_ns / 1e6 / ops, "ms")
    for layer, name in COUNTED.items():
        metrics[name] = (snapshot["calls"][layer] / ops, "count")
    if op_seconds is not None:
        traced_s = sum(snapshot["self_ns"].values()) / 1e9
        metrics["untraced_ms"] = ((op_seconds - traced_s) * 1000 / ops, "ms")
    return metrics
