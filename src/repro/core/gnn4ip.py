"""GNN4IP: the pair model (paper Algorithm 1).

``gnn4ip(p1, p2)`` embeds both designs with hw2vec, computes their cosine
similarity Y_hat in [-1, 1], and compares it to the decision boundary delta:
Y_hat > delta -> piracy (label 1), else no piracy (label 0).
"""

import numpy as np

from repro.core.hw2vec import HW2VEC
from repro.errors import ModelError


def cosine_similarity_np(a, b, eps=1e-12):
    """Cosine similarity of two numpy vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = (np.linalg.norm(a) + eps) * (np.linalg.norm(b) + eps)
    return float(a @ b / denom)


class GNN4IP:
    """IP-piracy detector: hw2vec encoder + cosine threshold.

    Args:
        encoder: a (possibly trained) :class:`HW2VEC`; a fresh one is built
            from ``encoder_kwargs`` when omitted.
        delta: decision boundary on the similarity score.  The paper tunes
            delta for maximum accuracy; :meth:`tune_delta` does the same.
    """

    def __init__(self, encoder=None, delta=0.5, **encoder_kwargs):
        self.encoder = encoder if encoder is not None else HW2VEC(**encoder_kwargs)
        self.delta = float(delta)

    # -- inference -----------------------------------------------------------
    def similarity(self, graph_a, graph_b):
        """Similarity score Y_hat in [-1, 1] for two DFGs."""
        h_a = self.encoder.embed(graph_a)
        h_b = self.encoder.embed(graph_b)
        return cosine_similarity_np(h_a, h_b)

    def predict(self, graph_a, graph_b):
        """Binary piracy verdict per Algorithm 1 (1 = piracy)."""
        return int(self.similarity(graph_a, graph_b) > self.delta)

    def similarity_from_embeddings(self, h_a, h_b):
        """Score from precomputed embeddings."""
        return cosine_similarity_np(h_a, h_b)

    def predict_from_embeddings(self, h_a, h_b):
        return int(cosine_similarity_np(h_a, h_b) > self.delta)

    # -- threshold tuning ------------------------------------------------
    def tune_delta(self, similarities, labels):
        """Pick delta maximizing accuracy on (similarity, label) data.

        Args:
            similarities: iterable of float scores.
            labels: iterable of {0, 1} piracy labels.

        Returns:
            (best_delta, best_accuracy)
        """
        scores = np.asarray(list(similarities), dtype=np.float64)
        truth = np.asarray(list(labels), dtype=np.int64)
        if scores.size == 0:
            raise ModelError("cannot tune delta without scores")
        if set(np.unique(truth)) - {0, 1}:
            raise ModelError("labels must be 0/1")
        # Candidate thresholds are the midpoints between adjacent scores:
        # any value strictly between two neighbours classifies identically
        # on this data, and the midpoint generalizes best to unseen pairs.
        unique = np.unique(scores)
        midpoints = (unique[:-1] + unique[1:]) / 2.0
        candidates = np.concatenate([[-1.0, 1.0], midpoints])
        best_delta, best_accuracy = self.delta, -1.0
        for candidate in candidates:
            predictions = (scores > candidate).astype(np.int64)
            accuracy = float((predictions == truth).mean())
            if accuracy > best_accuracy:
                best_accuracy = accuracy
                best_delta = float(candidate)
        self.delta = best_delta
        return best_delta, best_accuracy
