"""Evaluation metric (mean Pearson over the six targets) and run bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .schema import N_TARGETS
from .tensor import Array, as_tensor

DEGENERATE_EPS = 1e-12


def pearson_with_grad(x: Array, t: Array, eps: float) -> tuple[float, bool, Array]:
    """Population PCC of 1-D ``x`` against ``t``, the degenerate flag, and d PCC / d x.

    Both vectors are centred on their means before any product is formed, so
    a large common offset does not cancel the variance away. A variance at or
    below ``eps`` on either side gives PCC 0, the flag set, and a zero
    gradient. The metric and the correlation loss both use this one form.
    """
    n = x.size
    xc = x - x.mean()
    tc = t - t.mean()
    var_x = float(xc @ xc) / n
    var_t = float(tc @ tc) / n
    if var_x <= eps or var_t <= eps:
        return 0.0, True, np.zeros_like(x)
    sx = float(np.sqrt(xc @ xc))
    st = float(np.sqrt(tc @ tc))
    cov = float(xc @ tc)
    r = cov / (sx * st)
    grad = tc / (sx * st) - (r / (sx * sx)) * xc
    return r, False, grad


def pearson(x, y, eps: float = DEGENERATE_EPS) -> tuple[float, bool]:
    """Population Pearson correlation of two equal-length vectors.

    Returns ``(r, degenerate)``; a variance at or below ``eps`` on either
    side yields the degenerate value 0 with the flag set.
    """
    x = as_tensor(x).ravel()
    y = as_tensor(y).ravel()
    if x.size != y.size:
        raise ShapeError(f"pearson length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ShapeError(f"pearson needs length >= 2, got {x.size}")
    r, degenerate, _ = pearson_with_grad(x, y, eps)
    return r, degenerate


@dataclass
class EvalReport:
    """Per-dimension Pearson scores over an evaluation split and their mean."""

    p: list[float]
    p_mean: float
    n: int
    degenerate_dims: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "p_mean": self.p_mean,
            "n": self.n,
            "degenerate_dims": self.degenerate_dims,
        }


def mean_pcc(predictions, targets) -> EvalReport:
    """Challenge metric: per-column Pearson, averaged across the six targets.

    Degenerate columns score 0 and are flagged instead of erroring, so an
    evaluation always produces a report.
    """
    predictions = as_tensor(predictions)
    targets = as_tensor(targets)
    if predictions.shape != targets.shape:
        raise ShapeError(
            f"mean_pcc shapes differ: {predictions.shape} vs {targets.shape}"
        )
    if predictions.ndim != 2 or predictions.shape[1] != N_TARGETS:
        raise ShapeError(f"mean_pcc expects [N x {N_TARGETS}], got {predictions.shape}")
    if predictions.shape[0] < 2:
        raise ShapeError(f"mean_pcc needs N >= 2, got {predictions.shape[0]}")
    scores: list[float] = []
    degenerate: list[int] = []
    for dim in range(N_TARGETS):
        r, flag = pearson(predictions[:, dim], targets[:, dim])
        scores.append(r)
        if flag:
            degenerate.append(dim)
    return EvalReport(
        p=scores,
        p_mean=float(sum(scores) / N_TARGETS),
        n=predictions.shape[0],
        degenerate_dims=degenerate,
    )


class EarlyStopper:
    """Stop when the metric has not strictly improved for ``patience`` epochs."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ConfigError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = 0
        self.epoch = 0
        self.stale = 0

    def update(self, p_mean: float) -> tuple[bool, bool]:
        """Record one epoch's metric; returns ``(improved, stop)``."""
        self.epoch += 1
        if p_mean > self.best:
            self.best = p_mean
            self.best_epoch = self.epoch
            self.stale = 0
            return True, False
        self.stale += 1
        return False, self.stale >= self.patience
