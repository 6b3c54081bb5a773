"""Float64 array helpers: coercion, the finite check, activations, seeded streams.

Arrays are C-contiguous float64 ("row-major 64-bit reals"). The helpers are
pure and deterministic (same inputs give bit-identical outputs on a fixed
platform); :func:`ensure_finite` turns NaN/Inf into a
:class:`~emireg.errors.NumericError`. :func:`grad_check` compares an analytic
gradient with central finite differences, and :func:`seeded_rng` gives every
random consumer its own reproducible stream.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError

Array = np.ndarray


def as_tensor(data) -> Array:
    """Coerce to a C-contiguous float64 array (no copy when already one)."""
    return np.ascontiguousarray(data, dtype=np.float64)


def ensure_finite(x: Array, context: str) -> Array:
    """Return ``x`` unchanged, raising NumericError if any element is NaN/Inf."""
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values produced by {context}")
    return x


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """A PCG64 stream keyed by ``[seed, *key]``; equal arguments give equal streams."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def sigmoid(x) -> Array:
    """Numerically stable logistic function, elementwise; range (0, 1)."""
    x = as_tensor(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return ensure_finite(out, "sigmoid")


def sigmoid_grad_from_output(y: Array) -> Array:
    """d sigmoid / d x expressed through the forward output y = sigmoid(x)."""
    return y * (1.0 - y)


def relu(x) -> Array:
    return np.maximum(as_tensor(x), 0.0)


def relu_grad_mask(y: Array) -> Array:
    """Derivative of relu expressed through its output y = relu(x) (0 at the kink).

    ``y > 0`` exactly where ``x > 0``, so the mask equals the one the
    pre-activation would give.
    """
    return (y > 0).astype(np.float64)


def grad_check(
    f: Callable[[Array], tuple[float, Array]],
    x,
    eps: float = 1e-5,
) -> float:
    """Compare f's analytic gradient against central finite differences.

    ``f`` maps an array to ``(scalar value, gradient array of x's shape)``.
    Returns the max over coordinates of
    ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    """
    x = as_tensor(x).copy()
    _, analytic = f(x)
    analytic = as_tensor(analytic)
    if analytic.shape != x.shape:
        raise ShapeError(
            f"gradient shape {analytic.shape} does not match input shape {x.shape}"
        )
    flat = x.reshape(-1)
    grad_flat = analytic.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up, _ = f(x)
        flat[i] = orig - eps
        down, _ = f(x)
        flat[i] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError("non-finite value while probing finite differences")
        numeric = (up - down) / (2.0 * eps)
        a = grad_flat[i]
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        worst = max(worst, err)
    return worst
