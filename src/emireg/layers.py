"""Differentiable building blocks: linear projection, dropout, adaptive pooling.

Layers follow a layer-local backward convention: ``forward`` caches what it
needs, ``backward`` takes the upstream gradient and returns the gradient
with respect to the layer input while accumulating parameter gradients in
place. A layer instance belongs to one training thread.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .tensor import Array, as_tensor, ensure_finite

GLOROT_GAIN = 6.0


class Param:
    """A learnable tensor paired with its gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value: Array):
        self.value = as_tensor(value)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> Array:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); keeps heads near 0.5."""
    fan_out, fan_in = shape if len(shape) == 2 else (shape[0], shape[0])
    bound = float(np.sqrt(GLOROT_GAIN / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    """Affine map ``y = x @ W.T + b`` over a batch of row vectors.

    ``weight`` is [out x in]. The input is cached by ``forward`` so that
    ``backward`` can form the parameter gradients.
    """

    def __init__(
        self,
        out_dim: int,
        in_dim: int,
        rng: np.random.Generator | None = None,
        bias: bool = True,
        init: str = "glorot",
    ):
        if out_dim < 1 or in_dim < 1:
            raise ConfigError(f"linear dims must be positive, got {out_dim}x{in_dim}")
        if init == "zero" or rng is None:
            w = np.zeros((out_dim, in_dim))
        else:
            w = glorot_uniform((out_dim, in_dim), rng)
        self.weight = Param(w)
        self.bias = Param(np.zeros(out_dim)) if bias else None
        self.out_dim = out_dim
        self.in_dim = in_dim
        self._input: Array | None = None

    def forward(self, x) -> Array:
        x = as_tensor(x)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"linear expects [batch x {self.in_dim}], got {x.shape} "
                f"against weight {self.weight.shape}"
            )
        self._input = x
        y = x @ self.weight.value.T
        if self.bias is not None:
            y += self.bias.value
        return ensure_finite(y, "linear forward")

    def backward(self, upstream) -> Array:
        """Accumulate weight/bias grads; return the gradient w.r.t. the input."""
        if self._input is None:
            raise StateError("linear backward called before forward")
        upstream = as_tensor(upstream)
        if upstream.shape != (self._input.shape[0], self.out_dim):
            raise ShapeError(
                f"upstream {upstream.shape} does not match forward batch "
                f"({self._input.shape[0]} x {self.out_dim})"
            )
        self.weight.grad += upstream.T @ self._input
        if self.bias is not None:
            self.bias.grad += upstream.sum(axis=0)
        return upstream @ self.weight.value


class Dropout:
    """Inverted dropout: kept elements scale by 1/(1-p); eval mode is identity.

    Masks come from the generator handed in at construction (the seeded run
    PRNG), so a fixed draw order keeps training reproducible.
    """

    def __init__(self, rate: float, rng: np.random.Generator):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self._mask: Array | None = None

    def forward(self, x, train: bool) -> Array:
        x = as_tensor(x)
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) < keep).astype(np.float64) / keep
        return x * self._mask

    def backward(self, upstream) -> Array:
        if self._mask is None:
            return as_tensor(upstream)
        return as_tensor(upstream) * self._mask


def _pool_bins(length: int, target: int) -> tuple[Array, Array]:
    """Start row and width of each bin when pooling ``length`` rows to ``target``.

    Bin b covers input rows [floor(b*L/T), ceil((b+1)*L/T)); every bin is
    non-empty for any L >= 1, including the upsampling case L < T.
    """
    b = np.arange(target)
    starts = (b * length) // target
    ends = ((b + 1) * length + target - 1) // target
    return starts, ends - starts


def adaptive_avg_pool(x, target: int, out: Array | None = None) -> Array:
    """Resample a [L x d] sequence to [target x d] by per-bin averaging.

    Each bin's rows are added in order and the sum divided by the bin width,
    so every output row is bit-identical to ``x[start:end].mean(axis=0)``.
    The loop runs over row positions within a bin (at most ceil(L/T) + 1),
    not over bins. ``out``, if given, is a C-contiguous float64
    [target x d] array that receives the result.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"adaptive_avg_pool expects [L x d], got {x.shape}")
    if target < 1:
        raise ConfigError(f"pool target must be >= 1, got {target}")
    length = x.shape[0]
    if length == 0:
        raise ShapeError("adaptive_avg_pool over an empty sequence")
    if out is not None and out.shape != (target, x.shape[1]):
        raise ShapeError(f"pool output {out.shape} != ({target}, {x.shape[1]})")
    starts, widths = _pool_bins(length, target)
    # "clip" never clips here (starts < length); it lets take write into out unbuffered
    out = np.take(x, starts, axis=0, out=out, mode="clip")
    for j in range(1, int(widths.max())):
        live = widths > j
        if live.all():
            out += x[starts + j]
        else:
            out[live] += x[starts[live] + j]
    out /= widths[:, None]
    return ensure_finite(out, "adaptive_avg_pool")


def adaptive_avg_pool_backward(upstream, length: int) -> Array:
    """Distribute each bin's gradient uniformly over the rows it averaged."""
    upstream = as_tensor(upstream)
    target = upstream.shape[0]
    if length == target:
        return upstream.copy()
    out = np.zeros((length, upstream.shape[1]))
    for b, (start, width) in enumerate(zip(*_pool_bins(length, target))):
        out[start : start + width] += upstream[b] / width
    return out
