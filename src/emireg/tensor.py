"""Float64 array helpers: coercion, the finite check, activations, seeded streams.

Arrays are C-contiguous float64 ("row-major 64-bit reals"). The helpers are
pure and deterministic (same inputs give bit-identical outputs on a fixed
platform); :func:`ensure_finite` turns NaN/Inf into a
:class:`~emireg.errors.NumericError`, and :func:`seeded_rng` gives every
random consumer its own reproducible stream.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

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
    """Numerically stable logistic function, elementwise, into a new array; range (0, 1)."""
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


def relu(x, out: Array | None = None) -> Array:
    """max(x, 0) elementwise; ``out`` may be ``x`` itself, for an in-place pass."""
    return np.maximum(as_tensor(x), 0.0, out=out)
