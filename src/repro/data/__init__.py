"""Datasets: input problems and training-frame collection."""

from .problems import EVAL_SEED_BASE, TRAIN_SEED_BASE, InputProblem, generate_problems
from .dataset import RecordingSolver, collect_training_frames

__all__ = [
    "InputProblem",
    "generate_problems",
    "TRAIN_SEED_BASE",
    "EVAL_SEED_BASE",
    "RecordingSolver",
    "collect_training_frames",
]
