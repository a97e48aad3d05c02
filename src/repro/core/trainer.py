"""Training loop for GNN4IP (paper §IV: batch GD, batch 64, lr 0.001).

The trainer uses an *embed-once, pair-many* strategy: within a minibatch of
pairs, every distinct graph is embedded exactly once and the pair losses
are computed on the shared embeddings, so a graph appearing in k pairs is
propagated once instead of k times.

Each step packs the minibatch's unique graphs into one block-diagonal
system (:mod:`repro.nn.batch`) and runs the model's one forward pass,
:func:`~repro.nn.batch.batched_forward`, with this batch's dropout masks.
The pair losses are one vectorized cosine computation,
:func:`~repro.nn.batch.batched_pair_loss`, which also returns the
closed-form gradient with respect to the embeddings; that gradient goes
through the hand-derived :func:`~repro.nn.batch.batched_backward` into
the encoder's parameters.
"""

import time

from repro.core.dataset import batches
from repro.core.gnn4ip import GNN4IP, cosine_similarity_np
from repro.core.metrics import confusion_from_scores
from repro.errors import ModelError
from repro.nn.batch import (
    batched_backward,
    batched_embed,
    batched_forward,
    batched_pair_loss,
    pack_prepared,
)
from repro.nn.optim import SGD, Adam


class Trainer:
    """Fits a :class:`GNN4IP` model on a :class:`PairDataset`.

    Args:
        model: the pair model to train (its encoder holds the weights).
        lr: learning rate (paper: 0.001).
        batch_size: pairs per gradient step (paper: 64).
        margin: cosine-embedding-loss margin (paper: 0.5).
        optimizer: ``adam`` or ``sgd`` (the paper's batch gradient descent).
        seed: shuffling seed.
    """

    def __init__(self, model=None, lr=1e-3, batch_size=64, margin=0.5,
                 optimizer="adam", seed=0, positive_weight=None):
        self.model = model if model is not None else GNN4IP()
        self.batch_size = batch_size
        self.margin = margin
        self.seed = seed
        #: Loss weight for similar pairs.  ``None`` = auto-balance: the
        #: pair universe is heavily skewed toward dissimilar pairs (all
        #: cross-design combinations), and with the paper's plain accuracy
        #: objective an unweighted loss lets the negatives dominate.  The
        #: weight is computed from the dataset on first use.
        self.positive_weight = positive_weight
        params = self.model.encoder.parameters()
        if optimizer == "adam":
            self.optimizer = Adam(params, lr=lr)
        elif optimizer == "sgd":
            self.optimizer = SGD(params, lr=lr)
        else:
            raise ModelError(f"unknown optimizer {optimizer!r}")
        self._prepared = None
        self._prepared_records = None

    # ------------------------------------------------------------------
    def _prepare_all(self, dataset):
        """Prepared graphs of ``dataset.records``, cached per records list.

        The cache is keyed on the records object itself (and its length,
        since chunk augmentation extends it in place), so a trainer
        reused on another dataset of the same size prepares that one's
        graphs instead of scoring its pairs on stale ones.
        """
        records = dataset.records
        if (self._prepared_records is not records
                or len(self._prepared) != len(records)):
            encoder = self.model.encoder
            self._prepared = [encoder.prepare(r.graph) for r in records]
            self._prepared_records = records
        return self._prepared

    # ------------------------------------------------------------------
    def _balance_weight(self, dataset):
        if self.positive_weight is not None:
            return self.positive_weight
        positives = sum(1 for _, _, label in dataset.train_pairs
                        if label == 1)
        negatives = len(dataset.train_pairs) - positives
        if positives == 0:
            return 1.0
        # Cap the weight so a near-empty positive class cannot explode it.
        return min(negatives / positives, 32.0)

    def _step(self, batch, weight):
        """One gradient step on a minibatch of pairs; returns the loss."""
        encoder = self.model.encoder
        unique = sorted({i for i, _, _ in batch} | {j for _, j, _ in batch})
        row = {graph: r for r, graph in enumerate(unique)}
        packed = pack_prepared([self._prepared[g] for g in unique])
        masks = encoder.dropout.masks(packed.sizes, encoder.hidden,
                                      len(encoder.convs))
        ctx = {}
        embeddings = batched_forward(encoder, packed, masks, ctx)
        loss, _, d_embeddings = batched_pair_loss(
            embeddings, [(row[i], row[j], label) for i, j, label in batch],
            self.margin, positive_weight=weight)
        self.optimizer.zero_grad()
        batched_backward(encoder, packed, masks, ctx, d_embeddings)
        self.optimizer.step()
        return loss

    def train_epoch(self, dataset, epoch=0, extra_pairs=None):
        """One pass over the train pairs; returns (mean_loss, seconds).

        ``extra_pairs`` (e.g. mined hard negatives from
        :mod:`repro.calib.negatives`) are appended to the epoch's pair
        stream without mutating the dataset; ``None`` or an empty list
        leaves the epoch bit-identical to the unaugmented run.
        """
        self._prepare_all(dataset)
        weight = self._balance_weight(dataset)
        pairs = dataset.train_pairs
        if extra_pairs:
            pairs = list(pairs) + list(extra_pairs)
        total_loss = 0.0
        num_pairs = 0
        start = time.perf_counter()
        for batch in batches(pairs, self.batch_size,
                             seed=self.seed + epoch):
            total_loss += self._step(batch, weight) * len(batch)
            num_pairs += len(batch)
        elapsed = time.perf_counter() - start
        return total_loss / max(num_pairs, 1), elapsed

    def evaluate_pairs(self, dataset, pairs):
        """Similarities + labels for ``pairs`` using dropout-free embeddings.

        Embedding runs through the dropout-free batched forward pass in
        ``batch_size``-bounded packs, so memory stays bounded regardless of
        evaluation-set size.

        Returns:
            (similarities, labels01, seconds) — labels converted to {0, 1};
            all empty (with ~0 seconds) for an empty pair list.
        """
        self._prepare_all(dataset)
        unique = sorted({i for i, _, _ in pairs} | {j for _, j, _ in pairs})
        start = time.perf_counter()
        matrix = batched_embed(self.model.encoder,
                               [self._prepared[g] for g in unique],
                               batch_size=self.batch_size)
        vectors = {g: matrix[r] for r, g in enumerate(unique)}
        similarities = [cosine_similarity_np(vectors[i], vectors[j])
                        for i, j, _ in pairs]
        elapsed = time.perf_counter() - start
        labels = [1 if label == 1 else 0 for _, _, label in pairs]
        return similarities, labels, elapsed

    def fit(self, dataset, epochs=50, tune_delta=True, verbose=False,
            log_every=10, extra_pairs=None):
        """Train and then calibrate delta on the train split.

        ``extra_pairs`` ride along in every epoch's pair stream (see
        :meth:`train_epoch`); with ``None`` training is bit-identical
        to the unaugmented call.

        Returns:
            history dict with per-epoch losses and final train accuracy.
        """
        losses = []
        train_seconds = 0.0
        for epoch in range(epochs):
            loss, elapsed = self.train_epoch(dataset, epoch,
                                             extra_pairs=extra_pairs)
            losses.append(loss)
            train_seconds += elapsed
            if verbose and (epoch % log_every == 0 or epoch == epochs - 1):
                print(f"epoch {epoch:4d}  loss {loss:.4f}")
        history = {"losses": losses, "train_seconds": train_seconds,
                   "epochs": epochs}
        if tune_delta:
            similarities, labels, _ = self.evaluate_pairs(
                dataset, dataset.train_pairs)
            delta, accuracy = self.model.tune_delta(similarities, labels)
            history["delta"] = delta
            history["train_accuracy"] = accuracy
        return history

    def test(self, dataset):
        """Evaluate on the held-out pairs.

        Returns:
            dict with the confusion matrix, accuracy, FNR, and timing.
        """
        similarities, labels, elapsed = self.evaluate_pairs(
            dataset, dataset.test_pairs)
        matrix = confusion_from_scores(similarities, labels, self.model.delta)
        return {
            "confusion": matrix,
            "accuracy": matrix.accuracy,
            "false_negative_rate": matrix.false_negative_rate,
            "test_seconds": elapsed,
            "seconds_per_pair": elapsed / max(len(labels), 1),
            "similarities": similarities,
            "labels": labels,
        }


def train_model(dataset, epochs=50, seed=0, verbose=False, **model_kwargs):
    """Convenience: build, train, and delta-tune a GNN4IP model.

    Returns:
        (model, trainer, history)
    """
    model = GNN4IP(seed=seed, **model_kwargs)
    trainer = Trainer(model, seed=seed)
    history = trainer.fit(dataset, epochs=epochs, verbose=verbose)
    return model, trainer, history
