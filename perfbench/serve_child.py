"""Run ``gnn4ip serve`` for the vector-serving workload.

Usage: ``python3 perfbench/serve_child.py <src_dir> <index_dir> <snapshot>``

Serves ``index_dir`` through the CLI's own ``serve`` command on an
ephemeral port (announced on stdout).  When ``snapshot`` is not ``-``
the layer tracer is installed before the server is built, and every
SIGUSR1 writes the tracer's running totals to ``snapshot`` so the
benchmark can difference them around its measured window.
"""

import json
import os
import signal
import sys


def main(argv):
    src_dir, index_dir, snapshot_path = argv
    sys.path.insert(0, src_dir)
    if snapshot_path != "-":
        from spans import Tracer

        tracer = Tracer().install()

        def dump(_signum, _frame):
            tmp = snapshot_path + ".tmp"
            with open(tmp, "w") as handle:
                json.dump(tracer.snapshot(), handle)
            os.replace(tmp, snapshot_path)

        signal.signal(signal.SIGUSR1, dump)

    from repro.cli import main as cli_main

    return cli_main(["serve", index_dir, "--port", "0"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
