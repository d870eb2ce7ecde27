"""Data-free zero-shot learning over a teacher feedback channel.

A data owner trains a teacher on real features and serves softmax/gradient
feedback; a client with zero real data trains a conditional feature generator
and a student classifier against that channel, then runs conventional and
generalised zero-shot evaluation.
"""

from .client import (
    ArtifactBundle,
    ensure_quota,
    generate,
    run_algorithm1,
    train_black,
    train_generator_white,
    train_inductive_classifier,
    train_student,
    verify,
)
from .config import ExperimentConfig, parse_config
from .data import Dataset, SemanticTable, SplitBundle, SyntheticSpec, load_features, make_synthetic, save_features, split_azsl
from .evaluate import EvalReport, eval_czsl, eval_gzsl, harmonic_mean, per_class_top1, predict
from .experiment import TeacherSide, build_side, run_experiment, serve_experiment
from .regularizers import RegularizerState, fit_regularizer, reg_value_grad
from .server import TeacherModel, TeacherServer, feedback, train_teacher

__version__ = "0.1.0"
