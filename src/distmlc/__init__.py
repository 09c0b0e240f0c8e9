"""Distance-regression multi-label classification toolkit.

Trains a linear map between input-space and label-space distance
profiles and turns the predicted distances into multi-label predictions
via inverse-distance weighting, nearest-reference lookup, a linearized
multilateration solve, or per-label closed-form cubics. Hyper-parameters
are tuned with closed-form leave-one-out machinery; a full multi-label
metric suite and Friedman/Nemenyi comparison tooling are included.
"""
from .data import Dataset, load_dataset
from .linalg import pairwise_distances
from .metrics import EvalReport, evaluate
from .models import (
    BrMlmModel,
    DistanceModel,
    Prediction,
    TunedMlMlm,
    auto_alpha,
    br_mlm_predict,
    categorize_uncertainty,
    idw_scores,
    lls_mlm_predict,
    local_rcut,
    ml_mlm_predict,
    nn_mlm_predict,
    predict_deltas,
    train,
    train_br,
)
from .modelio import load_model, save_model
from .stats import ResultTable, average_ranks, cd_diagram_data, friedman_test, nemenyi_cd
from .tuning import cardinality_threshold, loo_deltas, search_power, tune_ml_mlm

__version__ = "0.1.0"

__all__ = [
    "BrMlmModel",
    "Dataset",
    "DistanceModel",
    "EvalReport",
    "Prediction",
    "ResultTable",
    "TunedMlMlm",
    "auto_alpha",
    "average_ranks",
    "br_mlm_predict",
    "cardinality_threshold",
    "categorize_uncertainty",
    "cd_diagram_data",
    "evaluate",
    "friedman_test",
    "idw_scores",
    "lls_mlm_predict",
    "load_dataset",
    "load_model",
    "local_rcut",
    "loo_deltas",
    "ml_mlm_predict",
    "nemenyi_cd",
    "nn_mlm_predict",
    "pairwise_distances",
    "predict_deltas",
    "save_model",
    "search_power",
    "train",
    "train_br",
    "tune_ml_mlm",
]
