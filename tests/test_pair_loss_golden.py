"""Golden values of the Eq. 7 pair loss and its embedding gradient.

``tests/data/pair_loss_golden.json`` pins, for each seeded batch below,
what :func:`~repro.nn.batch.batched_pair_loss` returns: the mean loss
(``float.hex``), the per-pair cosines (``float.hex``) and the sha256 of
the gradient's bytes with respect to the embedding rows.  The values
were recorded from a reverse-mode tape that differentiated the loss
step by step, so the closed form must keep that tape's rounding order
to reproduce them; the seeded training trajectories depend on it.

The batches cover positive weights 1 and not 1, all-positive and
all-negative batches, repeated pairs, a row on both sides of a pair,
negatives with an inactive hinge, an all-zero row and a nonzero margin
other than the paper's.

When a change is *intentional*, regenerate the fixture and commit the
diff alongside the change::

    PYTHONPATH=src python tests/test_pair_loss_golden.py regenerate
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn.batch import batched_pair_loss

GOLDEN_PATH = Path(__file__).parent / "data" / "pair_loss_golden.json"

HIDDEN = 16


def _random_pairs(rng, rows, count, labels):
    """``count`` random ``(i, j, label)`` pairs; ``labels`` is +1, -1 or
    ``None`` for a mix of both."""
    pairs = []
    for _ in range(count):
        i, j = (int(v) for v in rng.integers(0, rows, size=2))
        label = labels if labels is not None else int(rng.choice([1, -1]))
        pairs.append((i, j, label))
    return pairs


def golden_cases():
    """``{name: (embeddings, pairs, margin, positive_weight)}``."""
    cases = {}
    for k, weight in enumerate((1.0, 1.0, 1.0, 3.0, 7.25, 0.37, 32.0)):
        rng = np.random.default_rng(100 + k)
        rows = int(rng.integers(4, 13))
        embeddings = rng.normal(size=(rows, HIDDEN))
        pairs = _random_pairs(rng, rows, int(rng.integers(6, 40)), None)
        cases[f"mixed/{k}/w{weight}"] = (embeddings, pairs, 0.5, weight)
    for k, weight in enumerate((1.0, 2.5)):
        rng = np.random.default_rng(200 + k)
        embeddings = rng.normal(size=(7, HIDDEN))
        cases[f"all_positive/{k}/w{weight}"] = (
            embeddings, _random_pairs(rng, 7, 12, 1), 0.5, weight)
    for k, weight in enumerate((1.0, 4.0)):
        # Correlated rows so some negatives sit above the margin.
        rng = np.random.default_rng(300 + k)
        base = rng.normal(size=HIDDEN)
        embeddings = base + 0.6 * rng.normal(size=(8, HIDDEN))
        cases[f"all_negative/{k}/w{weight}"] = (
            embeddings, _random_pairs(rng, 8, 15, -1), 0.5, weight)
    rng = np.random.default_rng(400)
    embeddings = rng.normal(size=(5, HIDDEN))
    cases["repeated_pairs"] = (
        embeddings, [(0, 1, 1), (0, 1, 1), (2, 3, -1), (2, 3, -1),
                     (0, 1, -1), (4, 2, 1), (2, 4, 1)], 0.5, 3.0)
    rng = np.random.default_rng(401)
    embeddings = rng.normal(size=(4, HIDDEN))
    cases["self_pairs"] = (
        embeddings, [(1, 1, 1), (2, 2, -1), (1, 2, 1), (3, 3, -1),
                     (0, 1, -1)], 0.5, 2.0)
    rng = np.random.default_rng(402)
    embeddings = rng.normal(size=(6, HIDDEN))
    embeddings[3] = -embeddings[0] + 0.01 * rng.normal(size=HIDDEN)
    embeddings[4] = embeddings[1] + 0.05 * rng.normal(size=HIDDEN)
    cases["hinge_active_and_inactive"] = (
        embeddings, [(0, 3, -1), (1, 4, -1), (0, 2, -1), (4, 1, 1),
                     (5, 2, -1)], 0.5, 1.0)
    rng = np.random.default_rng(403)
    embeddings = np.maximum(rng.normal(size=(6, HIDDEN)), 0.0)
    embeddings[2] = 0.0
    cases["zero_row"] = (
        embeddings, [(2, 0, 1), (2, 1, -1), (2, 2, 1), (0, 1, -1),
                     (3, 4, 1), (5, 2, -1)], 0.5, 1.5)
    rng = np.random.default_rng(404)
    embeddings = np.maximum(rng.normal(size=(9, HIDDEN)), 0.0)
    cases["nonnegative_rows"] = (
        embeddings, _random_pairs(rng, 9, 30, None), 0.5, 5.0)
    for k, margin in enumerate((0.0, 0.8)):
        rng = np.random.default_rng(500 + k)
        embeddings = rng.normal(size=(6, HIDDEN))
        cases[f"margin/{margin}"] = (
            embeddings, _random_pairs(rng, 6, 20, None), margin, 2.0)
    rng = np.random.default_rng(600)
    cases["single_pair"] = (rng.normal(size=(2, HIDDEN)), [(0, 1, -1)],
                            0.5, 1.0)
    rng = np.random.default_rng(601)
    cases["large_batch"] = (rng.normal(size=(40, HIDDEN)),
                            _random_pairs(rng, 40, 64, None), 0.5, 9.0)
    return cases


def record(loss, cosines, grad):
    """The JSON form of one call's output."""
    grad = np.ascontiguousarray(grad, dtype=np.float64)
    return {"loss": float(loss).hex(),
            "cosines": [float(c).hex() for c in cosines],
            "grad_shape": list(grad.shape),
            "grad_sha256": hashlib.sha256(grad.tobytes()).hexdigest()}


def current_records():
    records = {}
    for name, (embeddings, pairs, margin, weight) in golden_cases().items():
        loss, cosines, grad = batched_pair_loss(
            embeddings, pairs, margin, positive_weight=weight)
        records[name] = record(loss, cosines, grad)
    return records


def test_cases_cover_what_they_claim():
    """Every claimed situation occurs in at least one batch."""
    cases = golden_cases()
    assert len(cases) >= 20
    weights = {weight for _, _, _, weight in cases.values()}
    assert 1.0 in weights and len(weights) > 1
    labels = [{label for _, _, label in pairs}
              for _, pairs, _, _ in cases.values()]
    assert {1} in labels and {-1} in labels
    assert any(len(set(pairs)) < len(pairs)
               for _, pairs, _, _ in cases.values())
    assert any(i == j for _, pairs, _, _ in cases.values()
               for i, j, _ in pairs)
    hinges = []
    for embeddings, pairs, margin, _ in cases.values():
        _, cosines, _ = batched_pair_loss(embeddings, pairs, margin)
        hinges += [cos - margin for cos, (_, _, label)
                   in zip(cosines, pairs) if label == -1]
    assert min(hinges) < 0 < max(hinges)


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_pair_loss_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    embeddings, pairs, margin, weight = golden_cases()[name]
    loss, cosines, grad = batched_pair_loss(embeddings, pairs, margin,
                                            positive_weight=weight)
    assert record(loss, cosines, grad) == golden[name], (
        f"pair loss output drifted for {name!r} -- if the change is "
        "intentional, regenerate with:\n"
        "  PYTHONPATH=src python tests/test_pair_loss_golden.py regenerate")


def test_golden_names_match_cases():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(golden_cases())


if __name__ == "__main__":
    if sys.argv[1:] == ["regenerate"]:
        GOLDEN_PATH.write_text(json.dumps(current_records(), indent=1,
                                          sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    else:
        print(__doc__)
