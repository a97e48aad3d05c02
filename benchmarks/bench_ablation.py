"""Ablations over the design choices the paper fixes in §IV.

The paper fixes: 2 GCN layers x 16 hidden units, pooling ratio 0.5, max
readout, dropout 0.1.  These benches sweep each knob on the RTL corpus and
also measure the embed-once-pair-many training optimization documented in
DESIGN.md.
"""

import time

from conftest import report
from repro.core import GNN4IP, Trainer, build_pair_dataset
from repro.designs import rtl_records
from repro.nn import batched_forward, pack_prepared

_ABLATION_FAMILIES = ("adder8", "cmp8", "mux8", "counter8", "lfsr8",
                      "crc8", "alu", "rs232")
_EPOCHS = 12


def _make_dataset(seed=0):
    records = rtl_records(families=_ABLATION_FAMILIES,
                          instances_per_design=4, seed=seed)
    return build_pair_dataset(records, seed=seed, max_negative_ratio=3.5)


def _run(dataset, **model_kwargs):
    model = GNN4IP(seed=0, **model_kwargs)
    trainer = Trainer(model, seed=0)
    start = time.perf_counter()
    trainer.fit(dataset, epochs=_EPOCHS)
    elapsed = time.perf_counter() - start
    result = trainer.test(dataset)
    return result["accuracy"], elapsed


def bench_ablation_readout(benchmark):
    dataset = _make_dataset()
    rows = []
    for mode in ("max", "mean", "sum"):
        accuracy, elapsed = _run(dataset, readout=mode)
        rows.append(f"  readout={mode:5s} accuracy={accuracy * 100:6.2f}% "
                    f"({elapsed:5.1f}s)")
    benchmark(_run, dataset, readout="max")
    report("ablation_readout", "\n".join(
        ["readout aggregation (paper uses max):"] + rows))


def bench_ablation_pool_ratio(benchmark):
    dataset = _make_dataset()
    rows = []
    for ratio in (0.25, 0.5, 0.75, 1.0):
        accuracy, elapsed = _run(dataset, pool_ratio=ratio)
        rows.append(f"  ratio={ratio:4.2f} accuracy={accuracy * 100:6.2f}% "
                    f"({elapsed:5.1f}s)")
    benchmark(_run, dataset, pool_ratio=0.5)
    report("ablation_pool_ratio", "\n".join(
        ["SAGPool keep ratio (paper uses 0.5):"] + rows))


def bench_ablation_depth_width(benchmark):
    dataset = _make_dataset()
    rows = []
    for layers, hidden in ((1, 16), (2, 16), (3, 16), (2, 8), (2, 32)):
        accuracy, elapsed = _run(dataset, num_layers=layers, hidden=hidden)
        rows.append(f"  layers={layers} hidden={hidden:2d} "
                    f"accuracy={accuracy * 100:6.2f}% ({elapsed:5.1f}s)")
    benchmark(_run, dataset, num_layers=2, hidden=16)
    report("ablation_depth_width", "\n".join(
        ["GCN depth/width (paper uses 2 x 16):"] + rows))


def bench_ablation_embed_once_speedup(benchmark):
    """Measure the shared-embedding optimization against naive pairing.

    Naive training embeds both graphs of every pair; the trainer embeds
    each distinct graph in a batch once.  The ratio grows with pair/graph
    density, and the gradients are identical (verified in the test suite).
    """
    dataset = _make_dataset()
    trainer = Trainer(GNN4IP(seed=0), seed=0)
    trainer._prepare_all(dataset)

    start = time.perf_counter()
    trainer.train_epoch(dataset, 0)
    shared = time.perf_counter() - start

    # Naive cost model: one forward+backward per *pair member* rather than
    # per unique graph; measured by embedding that many graphs.
    from repro.core.dataset import batches as batch_iter
    encoder = trainer.model.encoder
    naive_embeds = 0
    start = time.perf_counter()
    for batch in batch_iter(dataset.train_pairs, trainer.batch_size, seed=0):
        for i, j, _ in batch:
            for index in (i, j):
                batched_forward(encoder,
                                pack_prepared([trainer._prepared[index]]))
            naive_embeds += 2
        break  # one batch is enough to extrapolate the per-embed cost
    per_embed = (time.perf_counter() - start) / naive_embeds
    naive_estimate = per_embed * 2 * len(dataset.train_pairs)

    benchmark(trainer.train_epoch, dataset, 1)
    lines = [
        f"train pairs: {len(dataset.train_pairs)}, unique graphs: "
        f"{dataset.num_graphs}",
        f"embed-once epoch time:        {shared:7.2f} s",
        f"naive per-pair estimate:      {naive_estimate:7.2f} s "
        f"(forward only)",
        f"speedup (lower bound):        {naive_estimate / shared:7.1f}x",
    ]
    report("ablation_embed_once", "\n".join(lines))
    assert naive_estimate > shared
