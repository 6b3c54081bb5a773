"""The four training objectives and their weighted composition.

Every loss returns both its value and the analytic gradient with respect to
the predictions it consumes, so a single backward pass can accumulate all
terms. ``TrainConfig`` declares and validates each loss setting once: the
three term weights, the three per-branch auxiliary weights and the
correlation term's eps. ``total_loss`` and ``aux_loss`` read them from the
config they are given and keep no state of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeError
from .metrics import pearson_with_grad
from .schema import N_TARGETS, VAD_DIM
from .tensor import Array, as_tensor, ensure_finite

if TYPE_CHECKING:
    from .train import TrainConfig

DEFAULT_CORR_EPS = 1e-8


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


def pearson_loss(y_hat, y, eps: float = DEFAULT_CORR_EPS) -> tuple[float, Array]:
    """Batch-level correlation objective: 1 - mean PCC.

    One PCC per target dimension over the batch, averaged over the six.
    Dimensions whose prediction or target variance is at or below ``eps``
    contribute PCC = 0 (so 1 to the loss) with a zero gradient, which keeps
    collapsed predictions penalized but gradient-safe.
    """
    y_hat = as_tensor(y_hat)
    y = as_tensor(y)
    _check_pred_target(y_hat, y, "pearson_loss")
    if y_hat.shape[0] < 2:
        raise ShapeError(f"pearson_loss needs batch >= 2, got {y_hat.shape[0]}")
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
    config: TrainConfig,
) -> tuple[float, dict[str, Array], dict[str, float]]:
    """Sum of per-branch MSE against the shared 6-D target.

    Each branch's MSE is weighted by the config's ``lambda_visual``,
    ``lambda_audio`` or ``lambda_text``.
    """
    per_branch_w = {
        "visual": config.lambda_visual,
        "audio": config.lambda_audio,
        "text": config.lambda_text,
    }
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
    config: TrainConfig,
) -> tuple[LossBreakdown, LossGrads]:
    """Compose the four terms, each gradient scaled by its term's weight.

    The weights are the config's ``lambda_corr``, ``lambda_aux`` and
    ``lambda_vad``; the correlation term uses its ``corr_eps``, and the
    auxiliary term its per-branch weights (see ``aux_loss``). The config is
    taken as validated: its owner validates it.

    Every term is evaluated and differentiated whatever its weight, so logs
    stay comparable across configurations and a zero weight takes the same
    path as any other: its term's gradient is the product with 0. Without
    the VAD pathway (``v_hat`` None) the regularizer is 0.0 and has no
    gradient. A batch of one sample, which the trainer can produce as the
    final short batch, is treated as all-degenerate for the correlation term
    (value 1, zero gradient) rather than an error.
    """
    y_hat = as_tensor(y_hat)
    y = as_tensor(y)
    mse_value, mse_grad = mse_loss(y_hat, y)

    if y_hat.shape[0] >= 2:
        corr_value, corr_grad = pearson_loss(y_hat, y, eps=config.corr_eps)
    else:
        corr_value, corr_grad = 1.0, np.zeros_like(y_hat)
    d_y_hat = mse_grad + config.lambda_corr * corr_grad

    aux_value, aux_grads, aux_values = aux_loss(aux_preds, y, config)
    d_aux = {name: config.lambda_aux * g for name, g in aux_grads.items()}

    if v_hat is not None:
        vad_value, vad_grad = vad_reg_loss(v_hat)
        d_v_hat = config.lambda_vad * vad_grad
    else:
        vad_value, d_v_hat = 0.0, None

    total = (
        mse_value
        + config.lambda_corr * corr_value
        + config.lambda_aux * aux_value
        + config.lambda_vad * vad_value
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
