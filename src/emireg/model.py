"""The full network: three modality branches, VAD audio pathway, fusion, head.

The architecture is a fixed DAG, so the backward pass is written as an
explicit reverse traversal instead of a tape. Each layer is named once, where
it is built: the name keys its initialization stream, which makes shared
layers start identically across configurations that add or remove the VAD
pathway, and it prefixes the layer's entries in the one flat parameter store,
whose order is construction order. Neither the layers nor the model keep
per-call state: a training forward returns, on its outputs, the record
``backward`` reads (see ``_TrainRecord``), every layer input and hidden-layer
gate the gradients need, and an eval forward returns none. So a backward
reads only the outputs it is given, whatever forwards ran in between. One
``Dropout``, on one generator, serves every branch and the fusion head. A
branch applies its activation in place on the projection output, so its
forward makes one ``[batch x align x hidden]`` array beside the dropout
output, and a training forward records in its place the keep-mask combined
with the activation's gate (see ``ACTIVATIONS``), a one-byte mask. A
backward forms each hidden layer's pre-activation gradient as one product,
the upstream gradient times that gate. The output head, the aux heads and
the VAD head each end in a sigmoid. A model is built from a
``TrainConfig``, which it validates and which declares every model setting
once. Built without ``init`` it draws nothing: every parameter starts at
zero for the caller to set, as a checkpoint load and training's EMA model
do. The fusion modes and the activations are defined here, once; the config
and the CLI read these tables.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ShapeError, StateError
from .layers import Dropout, Linear, Param, ParamStore
from .schema import MODALITIES, N_TARGETS, VAD_DIM
from .tensor import Array, as_tensor, relu, seeded_rng, sigmoid, sigmoid_grad_from_output

if TYPE_CHECKING:
    from .train import TrainConfig

FUSION_MODES = ("concat", "average")


def fused_width(hidden_dim: int, fusion: str) -> int:
    """Width of the fused vector: the branches side by side, or their average."""
    return len(MODALITIES) * hidden_dim if fusion == "concat" else hidden_dim


# name -> (forward, gate). ``forward(x, out=x)`` writes its output over its
# input, and ``forward(x)`` leaves ``x`` as it is. The gradient w.r.t. the
# pre-activation is the upstream gradient times ``gate(output)``: relu's is
# the bool ``output > 0``, and identity has none. A gate is exactly 0 or 1,
# so folding the 0/1 keep-mask into it keeps every bit of the two-step product.
ACTIVATIONS = {
    "relu": (relu, lambda out: out > 0),
    "identity": (lambda x, out=None: x, None),
}

_INIT_STREAM = 0x1217
_DROPOUT_STREAM = 0x2D0D


def _init_rng(seed: int, name: str) -> np.random.Generator:
    return seeded_rng(seed, _INIT_STREAM, zlib.crc32(name.encode("utf-8")))


@dataclass
class ForwardOutputs:
    """Everything one forward pass produces, shaped for the loss module.

    A training forward's ``record`` is what its ``backward`` reads; an eval
    forward's is None.
    """

    y_hat: Array
    y_logits: Array
    aux: dict[str, Array]
    v_hat: Array | None
    z: dict[str, Array]
    z_fus: Array
    record: _TrainRecord | None = None


@dataclass
class _TrainRecord:
    """What a training forward returns for ``backward``: the inputs it reads.

    It is the ``record`` of the forward's outputs, which hold the inputs of
    the aux heads (``z``), of the fusion hidden layer (``z_fus``) and of the
    VAD injection (``v_hat``); the rest is here. Every training forward
    draws its keep-masks, at dropout 0 too (all kept), and records for each
    hidden layer its keep-mask times its activation's gate at the activation
    output (``_gated``): a bool mask under relu and the keep-mask itself
    under identity. So each branch's gradient reaches the projection as
    ``[batch x align x hidden]``. The projection inputs are views of the
    caller's float64 features, so per branch the record owns one
    ``[batch x align x hidden]`` gate, one byte per element, plus small
    arrays.
    """

    rows: dict[str, Array]  # per branch, the projection input [batch*align x dim]
    a_mean: Array  # the audio pre-activation's time mean, the VAD head's input
    h_drop: Array  # the fusion hidden output after dropout, the output layer's input
    gate: dict[str, Array]  # keep-mask times activation gate, per branch and "fusion"


def _gated(gate, out: Array, upstream: Array) -> Array:
    """``upstream`` times an activation's gate at its output ``out``.

    ``upstream`` may be a keep-mask: times relu's bool gate it stays bool.
    """
    return upstream if gate is None else upstream * gate(out)


def fuse(z_visual, z_audio, z_text, mode: str) -> Array:
    """Join [batch x h] branch embeddings: ``concat`` keeps subspaces, ``average`` mixes."""
    parts = [as_tensor(z) for z in (z_visual, z_audio, z_text)]
    if any(p.shape != parts[0].shape for p in parts):
        raise ShapeError(
            "fuse expects equal embedding shapes, got "
            + ", ".join(str(p.shape) for p in parts)
        )
    if mode == "concat":
        out = np.concatenate(parts, axis=1)
    elif mode == "average":
        out = (parts[0] + parts[1] + parts[2]) / 3.0
    else:
        raise ConfigError(f"unknown fusion mode {mode!r}")
    return out


def unfuse_grad(d_fused: Array, hidden_dim: int, mode: str) -> dict[str, Array]:
    """Split the fused-representation gradient back onto the three branches.

    In ``concat`` mode each branch's gradient is a view of its columns of
    ``d_fused``; callers read it and never write into it.
    """
    if mode == "concat":
        return {
            m: d_fused[:, i * hidden_dim : (i + 1) * hidden_dim]
            for i, m in enumerate(MODALITIES)
        }
    if mode == "average":
        return {m: d_fused / 3.0 for m in MODALITIES}
    raise ConfigError(f"unknown fusion mode {mode!r}")


class Model:
    """Concatenation-fusion regressor with auxiliary heads and VAD audio prior.

    Branch pipeline per modality: adaptive pooling happens at batch assembly,
    then rows are projected to the hidden size, activated, dropped out, and
    mean-pooled over time into one embedding. The audio branch additionally
    predicts a 3-D latent from the pre-activation projected rows and injects
    it back additively; the injection map starts at zero so a fresh model
    behaves exactly like its VAD-free counterpart.

    Its settings are a ``TrainConfig``'s, validated here. With ``init`` the
    config's seed keys every initialization and dropout stream; without it
    the model draws nothing and every parameter starts at zero.
    """

    def __init__(self, config: TrainConfig, init: bool = True):
        config.validate()
        self.dims = dict(config.dims)
        self.hidden_dim = hidden_dim = config.hidden_dim
        self.fusion = config.fusion
        self.vad_enabled = config.vad_enabled
        self.hidden_activation = config.hidden_activation
        self._act, self._gate = ACTIVATIONS[config.hidden_activation]
        self.align_len = config.align_len
        self.fused_dim = fused_width(hidden_dim, config.fusion)

        named: dict[str, Param] = {}

        def linear(name: str, out_dim: int, in_dim: int, zero: bool = False) -> Linear:
            """A Linear whose params enter the store as ``name.weight``/``name.bias``."""
            rng = _init_rng(config.seed, name) if init and not zero else None
            layer = Linear(out_dim, in_dim, rng=rng, bias=not zero)
            named[f"{name}.weight"] = layer.weight
            if layer.bias is not None:
                named[f"{name}.bias"] = layer.bias
            return layer

        dropout_rng = seeded_rng(config.seed, _DROPOUT_STREAM) if init else None
        # one mask stream, drawn in the order visual, audio, text, fusion
        self.drop = Dropout(config.dropout, dropout_rng)
        self.proj = {m: linear(f"{m}.proj", hidden_dim, self.dims[m]) for m in MODALITIES}
        self.aux_head = {m: linear(f"{m}.aux", N_TARGETS, hidden_dim) for m in MODALITIES}
        if self.vad_enabled:
            self.vad_head = linear("vad.head", VAD_DIM, hidden_dim)
            # zero start keeps the injection inert until training engages it
            self.inj = linear("vad.inj", hidden_dim, VAD_DIM, zero=True)
        else:
            self.vad_head = None
            self.inj = None
        self.fusion_hidden = linear("fusion.hidden", hidden_dim, self.fused_dim)
        self.fusion_out = linear("fusion.out", N_TARGETS, hidden_dim)
        # after the name-keyed initialization, so every value keeps its bits
        self._params = ParamStore(named)

    # -- parameter plumbing ------------------------------------------------
    #
    # Every Param's value and grad is a view into the model's ParamStore, so
    # the optimizer, EMA, clipping and zeroing each make one pass over flat
    # vectors. A Param must be written in place, never rebound.

    def parameters(self) -> ParamStore:
        """The named parameters, in construction order, as one flat store."""
        return self._params

    def zero_grads(self) -> None:
        self._params.grad.fill(0.0)

    def set_values(self, values: dict[str, Array]) -> None:
        """Copy named tensors in; a name or shape not the model's own is a ConfigError."""
        params = self._params
        missing = set(params) - set(values)
        if missing:
            raise ConfigError(f"missing parameter values: {sorted(missing)}")
        unknown = set(values) - set(params)
        if unknown:
            raise ConfigError(f"unknown parameter values: {sorted(unknown)}")
        for name, p in params.items():
            incoming = as_tensor(values[name])
            if incoming.shape != p.value.shape:
                raise ConfigError(
                    f"parameter {name!r}: stored shape {incoming.shape} "
                    f"!= model shape {p.value.shape}"
                )
            p.value[...] = incoming

    # -- forward / backward -------------------------------------------------

    def forward(self, features: dict[str, Array], train: bool) -> ForwardOutputs:
        """Run the whole network on pooled features [batch x align x dim].

        Only with ``train`` do the outputs carry the record of the pass
        that ``backward`` reads; the model itself keeps nothing.
        """
        batch = None
        rows: dict[str, Array] = {}
        gate: dict[str, Array] = {}
        z: dict[str, Array] = {}
        for m in MODALITIES:
            x = as_tensor(features[m])
            if x.ndim != 3 or x.shape[2] != self.dims[m]:
                raise ConfigError(
                    f"{m} features must be [batch x {self.align_len} x {self.dims[m]}], "
                    f"got {x.shape}"
                )
            if x.shape[1] != self.align_len:
                raise ShapeError(
                    f"{m} features not aligned: {x.shape[1]} rows != {self.align_len}"
                )
            if batch is None:
                batch = x.shape[0]
                if batch == 0:
                    raise ShapeError("empty batch")
            elif x.shape[0] != batch:
                raise ShapeError(f"modalities disagree on batch size at {m}")
            flat = x.reshape(batch * self.align_len, self.dims[m])
            pre = self.proj[m].forward(flat).reshape(batch, self.align_len, self.hidden_dim)
            if m == "audio":
                a_mean = pre.mean(axis=1)  # before the activation overwrites pre
            act = self._act(pre, out=pre)
            dropped, keep = self.drop.forward(act, train)
            z[m] = dropped.mean(axis=1)
            if train:
                rows[m], gate[m] = flat, _gated(self._gate, act, keep)
            # free this branch's other arrays before the next branch allocates
            del pre, act, dropped, keep

        v_hat = None
        if self.vad_enabled:
            v_hat = sigmoid(self.vad_head.forward(a_mean))
            z["audio"] = z["audio"] + self.inj.forward(v_hat)

        z_fus = fuse(z["visual"], z["audio"], z["text"], self.fusion)
        h_act = self._act(self.fusion_hidden.forward(z_fus))
        h_drop, keep = self.drop.forward(h_act, train)
        y_logits = self.fusion_out.forward(h_drop)
        y_hat = sigmoid(y_logits)
        aux_logits = {m: self.aux_head[m].forward(z[m]) for m in MODALITIES}

        out = ForwardOutputs(
            y_hat=y_hat,
            y_logits=y_logits,
            aux={m: sigmoid(aux_logits[m]) for m in MODALITIES},
            v_hat=v_hat,
            z=z,
            z_fus=z_fus,
        )
        if train:
            gate["fusion"] = _gated(self._gate, h_act, keep)
            out.record = _TrainRecord(rows, a_mean, h_drop, gate)
        return out

    def backward(
        self,
        out: ForwardOutputs,
        d_y_hat: Array,
        d_aux: dict[str, Array],
        d_v_hat: Array | None,
    ) -> None:
        """Reverse traversal of the training forward that returned ``out``; accumulates grads.

        Returns None: the pooled input features are not learned, so the
        projections form no input gradient. The gradients are the full set
        ``losses.total_loss`` returns: every branch's in ``d_aux``, and in
        ``d_v_hat`` the regularizer's on the latent VAD vector (None without
        the VAD pathway).
        """
        rec = out.record
        if rec is None:
            raise StateError("model backward needs a training forward's outputs")
        batch = out.y_hat.shape[0]

        d_y_logits = as_tensor(d_y_hat) * sigmoid_grad_from_output(out.y_hat)
        d_h_drop = self.fusion_out.backward(rec.h_drop, d_y_logits)
        d_h_pre = self.drop.backward(rec.gate["fusion"], d_h_drop)
        d_z = unfuse_grad(
            self.fusion_hidden.backward(out.z_fus, d_h_pre), self.hidden_dim, self.fusion
        )

        for m in MODALITIES:
            d_logits = as_tensor(d_aux[m]) * sigmoid_grad_from_output(out.aux[m])
            d_z[m] = d_z[m] + self.aux_head[m].backward(out.z[m], d_logits)

        d_a_rows = None
        if self.vad_enabled:
            d_v_total = self.inj.backward(out.v_hat, d_z["audio"]) + as_tensor(d_v_hat)
            d_v_logits = d_v_total * sigmoid_grad_from_output(out.v_hat)
            # mean over time: every projected row shares the pooled gradient
            d_a_mean = self.vad_head.backward(rec.a_mean, d_v_logits)
            d_a_rows = (d_a_mean / self.align_len)[:, None, :]

        for m in MODALITIES:
            # [batch x 1 x h] broadcasts over time against the [batch x T x h] gate
            d_pre = self.drop.backward(rec.gate[m], d_z[m][:, None, :] / self.align_len)
            if m == "audio" and d_a_rows is not None:
                d_pre += d_a_rows
            self.proj[m].backward(
                rec.rows[m],
                d_pre.reshape(batch * self.align_len, self.hidden_dim),
                input_grad=False,
            )

