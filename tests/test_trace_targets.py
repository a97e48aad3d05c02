"""The benchmark's layer tracer still finds every entry point it wraps.

``perfbench/spans.py`` names the program's layer entry points by
``module:Attr.path``; a target the program no longer has is skipped
and its layer reads 0.  Renaming one (``QueryEngine.query_many``,
``QueryEngine.query_groups``, ``ReproServer._process_query_jobs``, ...)
must fail here, not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracer = _spans_module().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
