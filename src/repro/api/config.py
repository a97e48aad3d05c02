"""Configuration dataclasses for the public facade.

Configs are plain data: constructing one never touches the filesystem.
Validation and loading happen when the config is handed to
:class:`~repro.api.facade.Detector` / :class:`~repro.api.facade.Corpus`.
Index writes (build, add, ingest) take
:class:`~repro.index.ingest.IngestConfig`.
"""

from dataclasses import dataclass
from pathlib import Path


@dataclass
class DetectorConfig:
    """How to obtain and run a detection model.

    Attributes:
        model: path to a ``.npz`` model archive from ``gnn4ip train
            --save`` (or :func:`repro.core.persist.save_model`).  When
            ``None``, the facade **refuses** to run with an untrained
            model (:class:`~repro.errors.ModelError`) unless
            ``allow_untrained`` is set — silently scoring with random
            weights is the one footgun this layer exists to remove.
        level: extraction level the detector must operate at (``rtl`` /
            ``netlist``).  ``None`` means "whatever the model was
            trained for"; a conflicting explicit level raises
            :class:`~repro.errors.ModelError`.
        delta: decision-boundary override (``None`` keeps the model's
            stored delta).
        allow_untrained: opt in to a fresh, untrained model when
            ``model`` is ``None`` (tests, smoke runs).
        seed: weight-init seed for an untrained model.
        batch_size: graphs per packed embedding forward pass.
    """

    model: str = None
    level: str = None
    delta: float = None
    allow_untrained: bool = False
    seed: int = 0
    batch_size: int = 64

    def model_path(self):
        return None if self.model is None else Path(self.model)

