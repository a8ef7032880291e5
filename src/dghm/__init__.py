"""Decoupled gradient harmonizing losses for partially annotated detection.

Subpackages:

* :mod:`dghm.losses`      -- per-example losses and analytic gradients
* :mod:`dghm.harmonizer`  -- gradient-density weighting (GHM / DGHM families)
* :mod:`dghm.simdata`     -- synthetic partially-annotated detection benchmark
* :mod:`dghm.model`       -- minimal MLP detector with hand-derived backprop
* :mod:`dghm.metrics`     -- recall / precision / NFPs / FROC / T-,R-recall
* :mod:`dghm.experiments` -- reproducible experiment grids and CSV exports
"""

from .harmonizer import (
    MODE_PARTITIONS,
    HarmonizerConfig,
    LossSpec,
    Mode,
    Partition,
    bin_counts,
    classification_loss_and_grad,
    flat_bins,
    gradient_density,
    harmonize_weights,
    partition_of,
)
from .losses import (
    FocalParams,
    SceParams,
    ce_grad_logit,
    ce_loss,
    focal_loss,
    gradient_norm,
    sce_loss,
    sigmoid,
)
from .metrics import Detections, MetricsReport
from .model import Predictor, TrainConfig, finite_difference_check, train
from .simdata import CorruptionSpec, Scene, SceneSpec, corrupt_annotations, iou

__all__ = [
    "MODE_PARTITIONS", "CorruptionSpec", "Detections", "FocalParams",
    "HarmonizerConfig", "LossSpec", "MetricsReport", "Mode", "Partition",
    "Predictor", "SceParams", "Scene", "SceneSpec", "TrainConfig",
    "bin_counts", "ce_grad_logit", "ce_loss",
    "classification_loss_and_grad", "corrupt_annotations",
    "finite_difference_check", "flat_bins", "focal_loss",
    "gradient_density", "gradient_norm", "harmonize_weights", "iou",
    "partition_of", "sce_loss", "sigmoid", "train",
]

__version__ = "0.1.0"
