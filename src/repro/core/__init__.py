"""GNN4IP core: featurization, hw2vec encoder, pair model, training."""

from repro.core.dataset import (
    GraphRecord,
    PairDataset,
    batches,
    build_pair_dataset,
    make_pairs,
    split_pairs,
)
from repro.core.features import (
    FEATURE_DIM,
    FEATURIZERS,
    LABEL_INDEX,
    NETLIST_FEATURIZER,
    RTL_FEATURIZER,
    VOCABULARY,
    OneHotFeaturizer,
    get_featurizer,
    label_index,
    one_hot_features,
)
from repro.core.gnn4ip import GNN4IP, cosine_similarity_np
from repro.core.hw2vec import HW2VEC, GraphSlice, PreparedGraph
from repro.core.metrics import ConfusionMatrix, confusion_from_scores
from repro.core.persist import load_model, save_model
from repro.core.trainer import Trainer, train_model

__all__ = [
    "GraphRecord", "PairDataset", "batches", "build_pair_dataset",
    "make_pairs", "split_pairs",
    "FEATURE_DIM", "FEATURIZERS", "LABEL_INDEX", "NETLIST_FEATURIZER",
    "RTL_FEATURIZER", "VOCABULARY", "OneHotFeaturizer", "get_featurizer",
    "label_index", "one_hot_features",
    "GNN4IP", "cosine_similarity_np",
    "HW2VEC", "GraphSlice", "PreparedGraph",
    "ConfusionMatrix", "confusion_from_scores",
    "load_model", "save_model",
    "Trainer", "train_model",
]
