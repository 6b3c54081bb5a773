"""Building blocks: parameters and their flat store, linear, dropout, pooling.

Layers keep no per-call state: a layer holds its parameters and settings,
and whatever a backward reads from its forward is handed back to it by the
caller. ``Linear.backward(x, upstream)`` takes the forward's input ``x``,
accumulates the parameter gradients in place and returns the gradient with
respect to ``x``; with ``input_grad=False`` it skips that product and
returns None, for layers whose input is not learned (the projections of
frozen features). A training ``Dropout.forward`` returns its keep-mask
beside its output, at rate 0 too, where every unit is kept, and
``Dropout.backward`` takes that mask, or the mask times a gate (the model
folds each activation's derivative into it). Pooling runs when batches are
built, on features that are not learned, so it has no backward; one call
pools a list of sequences into a new block, or into rows the caller owns,
split across every CPU the process may use, with the bytes of a serial pass.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .tensor import Array, as_tensor, ensure_finite

GLOROT_GAIN = 6.0
# keep-masks are drawn this many uniforms at a time: the same stream in the
# same order as one whole draw, without a float64 array of the mask's size
_MASK_CHUNK = 1 << 16


class Param:
    """A learnable tensor and its gradient accumulator.

    ``grad`` is None until a :class:`ParamStore` takes the Param in and binds
    it to a slice of the store's flat gradient vector.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value: Array):
        self.value = as_tensor(value)
        self.grad: Array | None = None

    @property
    def shape(self):
        return self.value.shape


class ParamStore(dict):
    """Named parameters whose values and grads live in two flat vectors.

    Built from ``name -> Param`` in a fixed order: each value is copied into
    its slice of ``value``, ``grad`` starts at zero, and each Param's
    ``value``/``grad`` becomes a reshaped view of its slice. The slices follow
    the dict order and tile the vectors, so one pass over a flat vector is
    one pass over every parameter in order.
    """

    def __init__(self, params: dict[str, Param]):
        super().__init__(params)
        self.value = np.empty(sum(p.value.size for p in self.values()))
        # np.zeros can take fresh zero pages, which a forward-only model never touches
        self.grad = np.zeros(self.value.size)
        values, grads = self.views(self.value), self.views(self.grad)
        for name, p in self.items():
            # one tensor at a time, so the values are not held twice over
            values[name][...] = p.value
            p.value, p.grad = values[name], grads[name]

    def views(self, flat: Array) -> dict[str, Array]:
        """Named, parameter-shaped views of a vector laid out like ``value``."""
        out: dict[str, Array] = {}
        start = 0
        for name, p in self.items():
            out[name] = flat[start : start + p.value.size].reshape(p.shape)
            start += p.value.size
        return out


def glorot_uniform(shape: tuple[int, int], rng: np.random.Generator) -> Array:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); keeps heads near 0.5."""
    fan_out, fan_in = shape
    bound = float(np.sqrt(GLOROT_GAIN / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    """Affine map ``y = x @ W.T + b`` over a batch of row vectors.

    ``weight`` is [out x in], Glorot-initialized from ``rng``, or zero
    without one.
    """

    def __init__(
        self,
        out_dim: int,
        in_dim: int,
        rng: np.random.Generator | None = None,
        bias: bool = True,
    ):
        if out_dim < 1 or in_dim < 1:
            raise ConfigError(f"linear dims must be positive, got {out_dim}x{in_dim}")
        if rng is None:
            w = np.zeros((out_dim, in_dim))
        else:
            w = glorot_uniform((out_dim, in_dim), rng)
        self.weight = Param(w)
        self.bias = Param(np.zeros(out_dim)) if bias else None
        self.out_dim = out_dim
        self.in_dim = in_dim

    def forward(self, x) -> Array:
        x = as_tensor(x)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"linear expects [batch x {self.in_dim}], got {x.shape} "
                f"against weight {self.weight.shape}"
            )
        y = x @ self.weight.value.T
        if self.bias is not None:
            y += self.bias.value
        return ensure_finite(y, "linear forward")

    def backward(self, x, upstream, input_grad: bool = True) -> Array | None:
        """Accumulate weight/bias grads; return the gradient w.r.t. the input ``x``.

        ``x`` is the input the forward was given. With ``input_grad=False``
        the ``upstream @ W`` product is skipped and None is returned; the
        parameter grads are the same either way.
        """
        x, upstream = as_tensor(x), as_tensor(upstream)
        if x.shape[1:] != (self.in_dim,) or upstream.shape != (x.shape[0], self.out_dim):
            raise ShapeError(
                f"linear backward expects input [batch x {self.in_dim}] and upstream "
                f"[batch x {self.out_dim}], got {x.shape} and {upstream.shape}"
            )
        if self.weight.grad is None:
            raise StateError("linear backward needs its parameters in a ParamStore")
        self.weight.grad += upstream.T @ x
        if self.bias is not None:
            self.bias.grad += upstream.sum(axis=0)
        return upstream @ self.weight.value if input_grad else None


class Dropout:
    """Inverted dropout: kept elements scale by 1/(1-p); eval mode is identity.

    Masks come from the generator handed in at construction (the seeded run
    PRNG), so a fixed draw order keeps training reproducible; a Dropout
    without one (``rng=None``) serves eval-mode forwards only. A training
    forward, at any rate, draws and returns a boolean keep-mask, one byte
    per element, beside its output; the uniforms behind it are drawn in
    chunks into one small buffer, so the mask has the bits of
    ``rng.random(shape) < 1 - rate``. An eval forward returns its input and
    None. ``backward`` follows a training forward and takes its mask, or
    the mask times a gate. Forward and backward multiply by the scale, then
    by the mask:
    ``(x * s) * 1`` is ``x * s`` and ``(x * s) * 0`` has the sign of
    ``x * 0``, so the result has the bits of ``x`` times a float mask of
    ``s`` and 0. At rate 0 every unit is kept and ``s`` is 1.0, so the
    output has the bits of ``x``, ``-0.0`` included.
    """

    def __init__(self, rate: float, rng: np.random.Generator | None):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self._scale = 1.0 / (1.0 - rate)

    def forward(self, x, train: bool) -> tuple[Array, Array | None]:
        x = as_tensor(x)
        if not train:
            return x, None
        if self.rng is None:
            raise StateError("a training forward needs a dropout generator")
        keep = np.empty(x.shape, dtype=np.bool_)
        flat = keep.reshape(-1)
        draw = np.empty(min(flat.size, _MASK_CHUNK))
        for start in range(0, flat.size, _MASK_CHUNK):
            part = draw[: min(_MASK_CHUNK, flat.size - start)]
            self.rng.random(out=part)
            np.less(part, 1.0 - self.rate, out=flat[start : start + part.size])
        out = x * self._scale
        out *= keep
        return out, keep

    def backward(self, keep: Array, upstream) -> Array:
        return as_tensor(upstream) * self._scale * keep


def adaptive_avg_pool(seqs, target: int, out: Sequence[Array] | None = None):
    """Resample N [L_i x d_i] sequences to [target x d_i] rows by per-bin averaging.

    Sequence ``i`` is pooled into row ``i`` of the result. Each bin's rows are
    added in order in float64 and the sum divided by the bin width, so every
    output row is bit-identical to ``x[start:end].mean(axis=0)`` of the float64
    sequence. A sequence may be float32 or float64: float32 rows widen,
    exactly, as they are added, so no sequence is copied whole. Without
    ``out`` the sequences share one width d and the result is a new float64
    [N x target x d] block (see :func:`pooled_block`). With ``out``, N
    float64 [target x d_i] arrays the caller owns, such as rows of larger
    blocks of different widths, each is written whole and ``out`` is returned.

    The sequences are split across the caller and ``min(usable CPUs, N) - 1``
    helper threads, started and joined within the call; each thread takes
    the next index from one shared iterator. A row's arithmetic does not
    depend on the thread that pools it, so the block has the bytes of a
    serial pass. Shapes are checked before any thread starts. A non-finite
    row raises the :class:`~emireg.errors.NumericError` of the first such
    sequence, as a serial pass would, once every helper has stopped.
    """
    seqs = [np.asarray(x) for x in seqs]
    _check_target(target)
    if not seqs:
        raise ShapeError("adaptive_avg_pool over no sequences")
    if out is not None and len(out) != len(seqs):
        raise ShapeError(f"pool output has {len(out)} rows for {len(seqs)} sequences")
    for i, x in enumerate(seqs):
        if x.ndim != 2:
            raise ShapeError(f"adaptive_avg_pool expects [L x d], got {x.shape}")
        if x.shape[0] == 0:
            raise ShapeError("adaptive_avg_pool over an empty sequence")
        rows = (target, seqs[0].shape[1]) if out is None else out[i].shape
        if rows != (target, x.shape[1]):
            raise ShapeError(f"pool output {rows} != ({target}, {x.shape[1]})")
        if out is not None and out[i].dtype != np.float64:
            raise ShapeError(f"pool output row {i} is {out[i].dtype}, not float64")
    if out is None:
        out = pooled_block(len(seqs), target, seqs[0].shape[1])

    indices = iter(range(len(seqs)))
    lock = threading.Lock()
    failed: list[tuple[int, Exception]] = []

    def work() -> None:
        # indices are taken in order and every one taken is pooled, so the
        # lowest failure recorded is the one a serial pass would raise
        while not failed:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            try:
                _pool_one(seqs[i], target, out[i])
            except Exception as exc:
                failed.append((i, exc))

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(seqs))
    if workers == 1:
        work()
    else:
        with ThreadPoolExecutor(workers - 1) as pool:  # leaving it joins every helper
            helpers = [pool.submit(work) for _ in range(workers - 1)]
            work()
        for helper in helpers:
            helper.result()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return out


def _check_target(target: int) -> None:
    if target < 1:
        raise ConfigError(f"pool target must be >= 1, got {target}")


def pooled_block(n: int, target: int, dim: int) -> Array:
    """An uninitialised float64 [n x target x dim] block for pooled sequences."""
    _check_target(target)
    if n * int(target) * dim * 8 > np.iinfo(np.intp).max:
        # numpy refuses such a shape; a merely huge one is a MemoryError
        raise ConfigError(f"a pooled [{n} x {target} x {dim}] block is too large")
    return np.empty((n, target, dim))


def _pool_one(x: Array, target: int, out: Array) -> None:
    """Pool one checked [L x d] sequence into the float64 [target x d] ``out``.

    The loop runs over row positions within a bin (at most ceil(L/T) + 1),
    not over bins. Worker threads run this and nothing that
    ``bench/probes.py`` wraps: its tracer keeps one span stack per process.
    """
    length = x.shape[0]
    # bin b covers rows [floor(b*L/T), ceil((b+1)*L/T)): never empty, even when L < T
    b = np.arange(target)
    starts = (b * length) // target
    widths = ((b + 1) * length + target - 1) // target - starts
    out[...] = x[starts]
    for j in range(1, int(widths.max())):
        live = widths > j
        if live.all():
            out += x[starts + j]
        else:
            out[live] += x[starts[live] + j]
    out /= widths[:, None]
    ensure_finite(out, "adaptive_avg_pool")
