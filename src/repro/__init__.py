"""GNN4IP reproduction: graph-learning based hardware IP piracy detection.

:mod:`repro.api` is the **stable public surface** (``Detector`` /
``Corpus`` / ``Session`` facades; see ``docs/api.md``), served over HTTP
by :mod:`repro.server` with :mod:`repro.client` as its client.  The
implementation layers mirror the paper's pipeline:

* :mod:`repro.verilog` — Verilog front-end (preprocess / lex / parse).
* :mod:`repro.dataflow` — data-flow graph extraction (Fig. 2 pipeline).
* :mod:`repro.ir` — unified GraphIR + extraction frontends.
* :mod:`repro.nn` — numpy GNN layers, forward and hand-derived backward.
* :mod:`repro.core` — ``hw2vec`` encoder and ``GNN4IP`` pair model.
* :mod:`repro.index` — corpus-scale fingerprint index + query engine.
* :mod:`repro.designs` — synthetic hardware-design corpus generators.
* :mod:`repro.obfuscate` — behaviour-preserving netlist obfuscation.
* :mod:`repro.baselines` — classical graph-similarity rivals.
"""

__version__ = "1.0.0"
