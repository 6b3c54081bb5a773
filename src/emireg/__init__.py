"""Multimodal emotion-intensity regression on pre-extracted feature sequences.

A self-contained numpy training and evaluation engine: three projection
branches fused by concatenation (or averaging), a VAD-aware audio pathway,
a four-term objective (MSE, batch Pearson, auxiliary branch supervision,
latent regularization), AdamW with cosine annealing, gradient clipping and
EMA weights, plus a bit-exact feature/checkpoint format and a
synthetic dataset generator for end-to-end verification.
"""

from .data import (
    Batch,
    Sample,
    generate_synthetic,
    load_manifest,
    load_split,
    make_batches,
    read_feature_file,
    write_feature_file,
)
from .layers import Dropout, Linear, adaptive_avg_pool
from .losses import LossBreakdown, mse_loss, pearson_loss, total_loss, vad_reg_loss
from .metrics import EarlyStopper, EvalReport, mean_pcc, pearson
from .model import ForwardOutputs, Model, fuse
from .optim import AdamW, Ema, clip_global_norm, cosine_lr
from .schema import MODALITIES
from .train import RunRecord, TrainConfig, ablate, evaluate_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "Batch",
    "Dropout",
    "EarlyStopper",
    "Ema",
    "EvalReport",
    "ForwardOutputs",
    "Linear",
    "LossBreakdown",
    "MODALITIES",
    "Model",
    "RunRecord",
    "Sample",
    "TrainConfig",
    "ablate",
    "adaptive_avg_pool",
    "clip_global_norm",
    "cosine_lr",
    "evaluate_checkpoint",
    "fuse",
    "generate_synthetic",
    "load_manifest",
    "load_split",
    "make_batches",
    "mean_pcc",
    "mse_loss",
    "pearson",
    "pearson_loss",
    "read_feature_file",
    "total_loss",
    "train",
    "vad_reg_loss",
    "write_feature_file",
]
