"""The four training objectives and their weighted composition.

Every loss returns both its value and the analytic gradient with respect to
the predictions it consumes, so a single backward pass can accumulate all
terms. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .metrics import pearson_with_grad
from .schema import N_TARGETS, VAD_DIM
from .tensor import Array, as_tensor, ensure_finite

DEFAULT_CORR_EPS = 1e-8
CORR_MODES = ("per_dim", "flat")


@dataclass(frozen=True)
class LossWeights:
    """Non-negative weights of the composite objective.

    ``corr``/``aux``/``vad`` weigh whole terms; ``aux_visual``/``aux_audio``/
    ``aux_text`` weigh the per-branch pieces inside the auxiliary term.
    """

    corr: float = 0.5
    aux: float = 0.3
    vad: float = 0.1
    aux_visual: float = 1.0
    aux_audio: float = 1.0
    aux_text: float = 1.0

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not np.isfinite(value) or value < 0:
                raise ConfigError(f"loss weight {name} must be finite and >= 0, got {value}")

    def per_branch(self) -> dict[str, float]:
        return {"visual": self.aux_visual, "audio": self.aux_audio, "text": self.aux_text}


@dataclass
class LossBreakdown:
    """Per-step report of the objective terms and the weighted total."""

    mse: float
    corr: float
    aux: float
    vad: float
    total: float
    aux_per_branch: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "mse": self.mse,
            "corr": self.corr,
            "aux": self.aux,
            "vad": self.vad,
            "total": self.total,
        }
        for name, value in self.aux_per_branch.items():
            out[f"aux_{name}"] = value
        return out


@dataclass
class LossGrads:
    """Gradients of the weighted total w.r.t. the model outputs."""

    y_hat: Array
    aux: dict[str, Array]
    v_hat: Array | None


def _check_pred_target(y_hat: Array, y: Array, op: str) -> None:
    if y_hat.shape != y.shape:
        raise ShapeError(f"{op}: prediction {y_hat.shape} vs target {y.shape}")
    if y_hat.ndim != 2 or y_hat.shape[1] != N_TARGETS:
        raise ShapeError(f"{op}: expected [batch x {N_TARGETS}], got {y_hat.shape}")


def mse_loss(y_hat, y) -> tuple[float, Array]:
    """Mean over the batch of the per-sample mean squared error over 6 dims."""
    y_hat = as_tensor(y_hat)
    y = as_tensor(y)
    _check_pred_target(y_hat, y, "mse_loss")
    diff = y_hat - y
    value = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return value, grad


def pearson_loss(
    y_hat,
    y,
    eps: float = DEFAULT_CORR_EPS,
    mode: str = "per_dim",
) -> tuple[float, Array]:
    """Batch-level correlation objective: 1 - mean PCC.

    ``per_dim`` computes one PCC per target dimension over the batch and
    averages the six; ``flat`` computes a single PCC over all entries.
    Dimensions whose prediction or target variance is at or below ``eps``
    contribute PCC = 0 (so 1 to the loss) with a zero gradient, which keeps
    collapsed predictions penalized but gradient-safe.
    """
    y_hat = as_tensor(y_hat)
    y = as_tensor(y)
    _check_pred_target(y_hat, y, "pearson_loss")
    if y_hat.shape[0] < 2:
        raise ShapeError(f"pearson_loss needs batch >= 2, got {y_hat.shape[0]}")
    if mode not in CORR_MODES:
        raise ConfigError(f"unknown pearson mode {mode!r}")
    if mode == "flat":
        value, _, grad_flat = pearson_with_grad(y_hat.ravel(), y.ravel(), eps)
        return 1.0 - value, -grad_flat.reshape(y_hat.shape)
    grad = np.zeros_like(y_hat)
    total = 0.0
    for dim in range(N_TARGETS):
        value, _, g = pearson_with_grad(y_hat[:, dim], y[:, dim], eps)
        total += value
        grad[:, dim] = -g / N_TARGETS
    return 1.0 - total / N_TARGETS, grad


def aux_loss(
    aux_preds: dict[str, Array],
    y,
    weights: LossWeights,
) -> tuple[float, dict[str, Array], dict[str, float]]:
    """Weighted sum of per-branch MSE against the shared 6-D target."""
    per_branch_w = weights.per_branch()
    grads: dict[str, Array] = {}
    values: dict[str, float] = {}
    total = 0.0
    for name, pred in aux_preds.items():
        value, grad = mse_loss(pred, y)
        values[name] = value
        grads[name] = per_branch_w[name] * grad
        total += per_branch_w[name] * value
    return total, grads, values


def vad_reg_loss(v_hat) -> tuple[float, Array]:
    """Mean over the batch of the squared distance of v_hat to (0.5, 0.5, 0.5)."""
    v_hat = as_tensor(v_hat)
    if v_hat.ndim != 2 or v_hat.shape[1] != VAD_DIM:
        raise ShapeError(f"vad_reg_loss expects [batch x {VAD_DIM}], got {v_hat.shape}")
    diff = v_hat - 0.5
    batch = v_hat.shape[0]
    value = float(np.sum(diff * diff) / batch)
    return value, 2.0 * diff / batch


def total_loss(
    y_hat,
    y,
    aux_preds: dict[str, Array],
    v_hat,
    weights: LossWeights,
    corr_eps: float = DEFAULT_CORR_EPS,
    corr_mode: str = "per_dim",
) -> tuple[LossBreakdown, LossGrads]:
    """Compose the four terms, each gradient scaled by its term's weight.

    Every term is evaluated and differentiated whatever its weight, so logs
    stay comparable across configurations and a zero weight takes the same
    path as any other: its term's gradient is the product with 0. Without
    the VAD pathway (``v_hat`` None) the regularizer is 0.0 and has no
    gradient. A batch of one sample, which the trainer can produce as the
    final short batch, is treated as all-degenerate for the correlation term
    (value 1, zero gradient) rather than an error: on one row, ``flat`` mode
    would otherwise correlate its six values.
    """
    y_hat = as_tensor(y_hat)
    y = as_tensor(y)
    mse_value, mse_grad = mse_loss(y_hat, y)

    if y_hat.shape[0] >= 2:
        corr_value, corr_grad = pearson_loss(y_hat, y, eps=corr_eps, mode=corr_mode)
    else:
        corr_value, corr_grad = 1.0, np.zeros_like(y_hat)
    d_y_hat = mse_grad + weights.corr * corr_grad

    aux_value, aux_grads, aux_values = aux_loss(aux_preds, y, weights)
    d_aux = {name: weights.aux * g for name, g in aux_grads.items()}

    if v_hat is not None:
        vad_value, vad_grad = vad_reg_loss(v_hat)
        d_v_hat = weights.vad * vad_grad
    else:
        vad_value, d_v_hat = 0.0, None

    total = (
        mse_value
        + weights.corr * corr_value
        + weights.aux * aux_value
        + weights.vad * vad_value
    )
    ensure_finite(np.asarray(total), "total_loss")
    breakdown = LossBreakdown(
        mse=mse_value,
        corr=corr_value,
        aux=aux_value,
        vad=vad_value,
        total=total,
        aux_per_branch=aux_values,
    )
    return breakdown, LossGrads(y_hat=d_y_hat, aux=d_aux, v_hat=d_v_hat)
