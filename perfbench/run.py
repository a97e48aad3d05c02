"""The repository benchmark: end-to-end and per-layer timings.

Usage, from the repository root::

    python3 perfbench/run.py --workload source_query --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``workloads.py``):

- ``source_query``: one Verilog suspect ranked against a netlist index
  per op -- extraction, chunking, WL signatures, embedding, scoring.
- ``vector_serve``: 32-vector ``/v1/query`` requests, one at a time,
  to ``gnn4ip serve`` over a 50k-row IVF index -- HTTP, the serving
  batch path, IVF probe and shard scoring, no extraction.

With ``--trace 0`` nothing is instrumented and the last stdout line
carries the end-to-end metrics: median op latency (ms), ops per second
of op time (the reciprocal of the mean latency, so slow outliers count)
and the median of several set-ups.  A host probe (a fixed kernel that
shares no code with the program) runs between every two ops and around
every set-up; the end-to-end figures use only the ops and set-ups that
ran while the host was at its usual speed (see ``calm``).
With ``--trace 1`` the layer entry points are wrapped (``spans.py``)
and the line carries per-op self time per layer instead.  Either way
the run checks the program's outputs and reports ``correct``/
``attempted``/``failed``.

Everything the run writes goes to ``.perfbench-work/`` under the
current directory and is removed at exit.  BLAS is pinned to one thread
so that results do not depend on how many cores the host lends the run.
"""

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

WORK_DIR = ".perfbench-work"
#: A sample counts as taken on a slowed host when a probe around it took
#: more than SLOW_HOST times the run's CALM_QUANTILE-th percentile probe.
#: Co-tenant slow-downs stretch the probe by 1.6-2x, and op times grow a
#: few percent with every tenth of stretch below that.  A low quantile
#: keeps the reference calm while the slow share of a run is high.
SLOW_HOST = 1.2
CALM_QUANTILE = 2
#: Per-layer metrics only the served workload can fill.
SERVE_LAYER_METRICS = {"server_request_ms": "ms"}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calm(samples, probe_times):
    """The samples taken while the host ran at its usual speed: both
    probes around them within ``SLOW_HOST`` of the run's usual probe
    time (its ``CALM_QUANTILE`` quantile).  A slowed host is told apart
    by the probe alone, never by the program's own timings, so stalls
    of the program still count.  All samples if none qualifies."""
    usual = statistics.quantiles(probe_times, n=100)[CALM_QUANTILE - 1]
    kept = [s for s in samples
            if max(s.probe_before, s.probe_after) <= SLOW_HOST * usual]
    return kept or samples


def end_to_end(ops, setups, probe_times):
    """Over the calm ops: median latency and ops per second of op time;
    and the median calm set-up time."""
    latencies = [s.seconds for s in calm(ops, probe_times)]
    return {
        "p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "throughput": (len(latencies) / sum(latencies), "1/s"),
        "setup_s": (statistics.median([s.seconds for s in
                                       calm(setups, probe_times)]), "s"),
    }


def traced_layers(snapshot, latencies, before, after):
    """Per-op layer metrics of a traced run.  ``before``/``after`` are
    the server's ``(span totals, stats)`` around the run when the layers
    ran in a server process, else ``None`` and ``snapshot`` holds them."""
    from spans import layer_metrics

    ops = len(latencies)
    if before is None:
        metrics = layer_metrics(snapshot, ops, sum(latencies))
        metrics.update({name: (0.0, unit)
                        for name, unit in SERVE_LAYER_METRICS.items()})
        return metrics
    (spans_before, stats_before), (spans_after, stats_after) = before, after
    delta = {key: {layer: spans_after[key][layer] - spans_before[key][layer]
                   for layer in spans_after[key]}
             for key in ("self_ns", "calls")}
    metrics = layer_metrics(delta, ops, sum(latencies))
    requests = (stats_after["request_seconds"]["count"]
                - stats_before["request_seconds"]["count"])
    request_s = (stats_after["request_seconds"]["sum"]
                 - stats_before["request_seconds"]["sum"])
    metrics["server_request_ms"] = (request_s * 1000 / max(requests, 1),
                                    "ms")
    return metrics


def measure(args, src_dir, work):
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer().install() if args.trace else None
    workload = WORKLOADS[args.workload](work, str(src_dir), args.trace)
    try:
        setups = workload.setup(args.seed)
        if tracer is not None:
            tracer.reset()
        before = workload.server_state()
        gc.collect()
        ops = workload.run(args.seconds)
        after = workload.server_state()
        snapshot = tracer.snapshot() if tracer is not None else None
        correct, failed = workload.check()
    finally:
        workload.stop()
        if tracer is not None:
            tracer.uninstall()
    probe_times = workload.probe.times
    latencies = [s.seconds for s in ops]
    print(f"perfbench: {args.workload} seed {args.seed}: {len(ops)} ops "
          f"in {sum(latencies):.1f} s of op time; calm host for "
          f"{len(calm(ops, probe_times))} ops and "
          f"{len(calm(setups, probe_times))}/{len(setups)} set-ups",
          file=sys.stderr)
    if tracer is not None and tracer.missing:
        print(f"perfbench: not traced (gone from the program): "
              f"{', '.join(tracer.missing)}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(ops, setups, probe_times)
    else:
        metrics = traced_layers(snapshot, latencies, before, after)
    return {
        "correct": bool(correct),
        "attempted": len(latencies),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    # A terminated run still unwinds, so the server process and the work
    # directory are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    src_dir = root / "src"
    if not (src_dir / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src_dir / 'repro'}; "
              f"run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src_dir))
    parent = root / WORK_DIR
    parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
    try:
        result = measure(args, src_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
