"""Grid-Markov destination prediction with incremental model updates."""

from .errors import (ColdStartError, CorruptModelError, DegenerateTripError, EdpError,
                     FormatError)
from .grid import GridMap, l1_distance, unit_grid
from .ingest import (CellPath, RawTrajectory, TripDistanceHistogram, build_histogram,
                     discretize, generate_synthetic, parse_trajectories)
from .model import (SSTPMatrix, TransitionModel, build_sstp, count_start_dest, load_model,
                    load_sstp, random_sstp, save_model, save_sstp, train_initial)
from .predict import (HistoryIndex, PredictionResult, Predictor, Query, deviation_metrics,
                      estimate_total_distance, infer_future_location, predict_destination,
                      predicted_length)
from .update import ChangeSet, apply_update, refresh_in_place

__version__ = "0.1.0"

__all__ = [
    "ChangeSet", "CellPath", "ColdStartError", "CorruptModelError",
    "DegenerateTripError", "EdpError", "FormatError", "GridMap", "HistoryIndex",
    "PredictionResult", "Predictor", "Query", "RawTrajectory", "SSTPMatrix",
    "TransitionModel", "TripDistanceHistogram", "apply_update", "build_histogram", "build_sstp",
    "count_start_dest", "deviation_metrics",
    "discretize", "estimate_total_distance", "generate_synthetic",
    "infer_future_location", "l1_distance", "load_model", "load_sstp",
    "parse_trajectories", "predict_destination", "predicted_length",
    "random_sstp", "refresh_in_place", "save_model", "save_sstp", "train_initial",
    "unit_grid",
]
