"""Shared fixtures-adjacent helpers for the test suite."""

import errno
import os
import threading
import tracemalloc

import numpy as np

from emireg import data
from emireg.losses import total_loss
from emireg.model import Model
from emireg.train import TrainConfig

TINY_DIMS = {"visual": 5, "audio": 4, "text": 3}
SMALL_DIMS = {"visual": 8, "audio": 7, "text": 6}
RELU_KINK_MARGIN = 1e-3

# the keys a config.json written before their variants were removed carries,
# at the values every run had then and has now
REMOVED_KEYS = {
    "corr_mode": "per_dim",
    "ema_cadence": "step",
    "lr_cadence": "epoch",
    "output_activation": "sigmoid",
}


def small_config(data_dir, run_dir, **overrides) -> TrainConfig:
    """Quick trainer config matched to the session-scoped small dataset."""
    base = dict(
        dims=dict(SMALL_DIMS),
        data_dir=str(data_dir),
        run_dir=str(run_dir),
        hidden_dim=8,
        batch_size=16,
        epochs=3,
        align_len=16,
        lr=1e-3,
        patience=8,
    )
    base.update(overrides)
    return TrainConfig(**base)


def param_loss_fn(model, features, targets, loss_config):
    """Build f(theta_vec) -> (total loss, grad_vec) over all parameters.

    The vector is the model's flat parameter store. Forward runs in training
    mode, which keeps the record ``backward`` reads; the models here have
    dropout 0, so the pass is the eval-mode one and gradients flow through
    an all-kept mask.
    """
    params = model.parameters()

    def f(vec):
        params.value[...] = vec
        model.zero_grads()
        out = model.forward(features, train=True)
        breakdown, grads = total_loss(out.y_hat, targets, out.aux, out.v_hat, loss_config)
        model.backward(out, grads.y_hat, grads.aux, grads.v_hat)
        return breakdown.total, params.grad.copy()

    return f, params.value.copy()


def min_preactivation(model, features):
    """Smallest |pre-activation| the hidden layers form on this input.

    Recomputed from the layers themselves: the projections on each
    modality's rows, and the fusion hidden layer on the fused embedding.
    """
    out = model.forward(features, train=True)
    pres = [
        model.proj[m].forward(x.reshape(-1, x.shape[-1])) for m, x in features.items()
    ]
    pres.append(model.fusion_hidden.forward(out.z_fus))
    return min(float(np.min(np.abs(p))) for p in pres)


def tiny_model_case(seed, batch=4, align=8, hidden=6, vad=True, fusion="concat"):
    """A small model plus inputs whose relu pre-activations clear the kink margin.

    Seeds that land within the margin are skipped deterministically so the
    finite-difference probes (eps 1e-5) never straddle a relu kink.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(64):
        model_seed = seed * 1000 + attempt
        config = TrainConfig(
            dims=TINY_DIMS,
            hidden_dim=hidden,
            align_len=align,
            dropout=0.0,
            vad_enabled=vad,
            fusion=fusion,
            seed=model_seed,
        )
        model = Model(config)
        if vad:
            # engage the injection path, which initializes to zero
            inj_rng = np.random.default_rng(model_seed + 7)
            model.inj.weight.value[...] = inj_rng.normal(
                0.0, 0.3, model.inj.weight.value.shape
            )
        features = {
            m: rng.normal(0.5, 1.0, (batch, align, d)) for m, d in TINY_DIMS.items()
        }
        targets = rng.uniform(0.1, 0.9, (batch, 6))
        if min_preactivation(model, features) > RELU_KINK_MARGIN:
            return model, features, targets
    raise AssertionError("could not find a kink-free configuration")


def default_loss_config():
    return TrainConfig(lambda_corr=0.5, lambda_aux=0.3, lambda_vad=0.1)


def use_cpus(monkeypatch, n: int) -> None:
    """Make the process see ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def count_thread_starts(monkeypatch) -> list:
    """A list that collects every thread started from now on."""
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def traced_memory(fn) -> tuple[int, int]:
    """Run ``fn()`` under tracemalloc: the bytes still held once it returned, and the peak.

    The result of ``fn`` is dropped before the held bytes are read, so
    ``kept`` is what the call left behind elsewhere.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def fail_replace_file_at(monkeypatch, call: int) -> None:
    """Make the ``call``-th ``data._replace_file`` from now on raise ENOSPC, once.

    A run writes ``config.json`` first, then each epoch ``last.emic`` and,
    when the score improves, ``best.emic``.
    """
    real_replace = data._replace_file
    calls = []

    def failing_replace(path, write):
        calls.append(path)
        if len(calls) == call:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        real_replace(path, write)

    monkeypatch.setattr(data, "_replace_file", failing_replace)
