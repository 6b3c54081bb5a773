import copy
import dataclasses

import numpy as np
import pytest

from emireg.errors import ConfigError, ShapeError, StateError
from emireg.layers import Dropout, Linear, adaptive_avg_pool
from emireg.model import _DROPOUT_STREAM, ACTIVATIONS, MODALITIES, Model, fuse, unfuse_grad
from emireg.tensor import relu, seeded_rng, sigmoid
from emireg.train import TrainConfig

from oracles import (
    column_means_loop,
    grad_check,
    model_param_grads_repeated,
    replay_keep_masks,
)
from support import TINY_DIMS, default_weights, param_loss_fn, tiny_model_case, traced_memory


def tiny_model(seed=0, **kwargs):
    defaults = dict(dims=TINY_DIMS, hidden_dim=6, align_len=8, dropout=0.0, seed=seed)
    defaults.update(kwargs)
    return Model(TrainConfig(**defaults))


def param_values(model):
    """A copy of every parameter value, by name."""
    return {name: p.value.copy() for name, p in model.parameters().items()}


def tiny_features(rng, batch=4, align=8):
    return {m: rng.normal(size=(batch, align, d)) for m, d in TINY_DIMS.items()}


def audio_before_injection(model, feats):
    """The audio branch's time mean before the VAD injection, recomputed (relu, no dropout)."""
    proj = model.proj["audio"]
    batch = feats["audio"].shape[0]
    flat = feats["audio"].reshape(batch * model.align_len, proj.in_dim)
    pre = (flat @ proj.weight.value.T + proj.bias.value).reshape(
        batch, model.align_len, model.hidden_dim
    )
    return relu(pre).mean(axis=1)


def model_layers(model):
    """Every Linear and Dropout a model holds, directly or in a dict."""
    for value in vars(model).values():
        for v in value.values() if isinstance(value, dict) else (value,):
            if isinstance(v, (Linear, Dropout)):
                yield v


def record_arrays(obj):
    """Every array a training record reaches through its fields and dicts."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from record_arrays(value)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from record_arrays(getattr(obj, f.name))


class TestFuse:
    def test_concat_order(self):
        out = fuse([[1.0, 2.0]], [[3.0, 4.0]], [[5.0, 6.0]], "concat")
        assert np.array_equal(out, [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])

    def test_average(self):
        out = fuse([[1.0, 2.0]], [[3.0, 4.0]], [[5.0, 6.0]], "average")
        assert np.array_equal(out, [[3.0, 4.0]])

    def test_concat_width_at_paper_hidden_size(self, rng):
        zs = [rng.normal(size=(2, 256)) for _ in range(3)]
        assert fuse(*zs, "concat").shape == (2, 768)

    def test_concat_is_lossless(self, rng):
        zs = {m: rng.normal(size=(3, 5)) for m in MODALITIES}
        fused = fuse(zs["visual"], zs["audio"], zs["text"], "concat")
        for i, m in enumerate(MODALITIES):
            assert np.array_equal(fused[:, 5 * i : 5 * (i + 1)], zs[m])

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            fuse([[1.0]], [[2.0]], [[3.0]], "bilinear")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fuse([[1.0, 2.0]], [[3.0]], [[5.0, 6.0]], "concat")

    def test_unfuse_concat_roundtrip(self, rng):
        d = rng.normal(size=(4, 15))
        parts = unfuse_grad(d, 5, "concat")
        assert np.array_equal(
            np.concatenate([parts[m] for m in MODALITIES], axis=1), d
        )

    def test_unfuse_average_splits_evenly(self, rng):
        d = rng.normal(size=(4, 5))
        parts = unfuse_grad(d, 5, "average")
        for m in MODALITIES:
            np.testing.assert_array_equal(parts[m], d / 3.0)


class TestBranch:
    """One branch of ``Model.forward`` at batch 1, on already pooled rows."""

    def test_constant_rows_reduce_to_projection(self, rng):
        model = tiny_model()
        c = rng.normal(size=TINY_DIMS["visual"])
        feats = tiny_features(rng, batch=1)
        feats["visual"] = np.tile(c, (1, 8, 1))  # time-invariant input
        z = model.forward(feats, train=False).z["visual"][0]
        expected = relu(model.proj["visual"].weight.value @ c)
        np.testing.assert_allclose(z, expected, atol=1e-12)

    def test_zero_input_zero_bias_gives_zero(self, rng):
        model = tiny_model()
        feats = tiny_features(rng, batch=1)
        feats["text"] = np.zeros((1, 8, TINY_DIMS["text"]))
        z = model.forward(feats, train=False).z["text"][0]
        assert np.array_equal(z, np.zeros(6))

    def test_step_by_step_composition(self, rng):
        model = tiny_model()
        seq = rng.normal(size=(11, TINY_DIMS["audio"]))
        pooled = adaptive_avg_pool([seq], 8)[0]
        feats = tiny_features(rng, batch=1)
        feats["audio"] = pooled[None]
        projected = pooled @ model.proj["audio"].weight.value.T
        expected = relu(projected).mean(axis=0)  # dropout off, so a no-op
        out = model.forward(feats, train=False)
        z = (out.z["audio"] - out.v_hat @ model.inj.weight.value.T)[0]  # undo the injection
        np.testing.assert_allclose(z, expected, atol=1e-12)

    def test_time_mean_against_per_column_loop(self, rng):
        model = tiny_model(hidden_dim=256, align_len=128)
        feats = tiny_features(rng, batch=2, align=128)
        z = model.forward(feats, train=False).z["visual"]
        for b in range(2):
            projected = feats["visual"][b] @ model.proj["visual"].weight.value.T
            expected = column_means_loop(relu(projected))  # [128 x 256] -> [256]
            np.testing.assert_allclose(z[b], expected, atol=1e-12, rtol=0)

    def test_dim_mismatch(self, rng):
        model = tiny_model()
        feats = tiny_features(rng, batch=1)
        feats["visual"] = np.zeros((1, 8, 99))
        with pytest.raises(ConfigError):
            model.forward(feats, train=False)


class TestVadPathway:
    def test_zero_injection_is_inert(self, rng):
        model = tiny_model()
        assert np.all(model.inj.weight.value == 0.0)  # zero-start by design
        feats = tiny_features(rng)
        out = model.forward(feats, train=False)
        np.testing.assert_array_equal(out.z["audio"], audio_before_injection(model, feats))

    def test_zero_vad_head_centers_latent(self, rng):
        model = tiny_model()
        model.vad_head.weight.value[...] = 0.0
        model.vad_head.bias.value[...] = 0.0
        out = model.forward(tiny_features(rng), train=False)
        assert np.all(out.v_hat == 0.5)

    def test_full_path_composition(self, rng):
        model = tiny_model()
        model.inj.weight.value[...] = rng.normal(size=(6, 3)) * 0.3
        feats = tiny_features(rng)
        out = model.forward(feats, train=False)
        proj = model.proj["audio"]
        pre = feats["audio"] @ proj.weight.value.T + proj.bias.value  # [4 x 8 x 6]
        a_mean = pre.mean(axis=1)
        v_expected = sigmoid(a_mean @ model.vad_head.weight.value.T + model.vad_head.bias.value)
        np.testing.assert_allclose(out.v_hat, v_expected, atol=1e-12)
        z_expected = relu(pre).mean(axis=1) + v_expected @ model.inj.weight.value.T
        np.testing.assert_allclose(out.z["audio"], z_expected, atol=1e-12)

    def test_vad_free_model_matches_zeroed_injection(self, rng):
        with_vad = tiny_model(seed=5)
        without = tiny_model(seed=5, vad_enabled=False)
        # name-keyed init makes the shared parameters identical already
        shared = param_values(without)
        for name, value in shared.items():
            np.testing.assert_array_equal(with_vad.parameters()[name].value, value)
        feats = tiny_features(rng)
        a = with_vad.forward(feats, train=False)
        b = without.forward(feats, train=False)
        assert np.array_equal(a.y_hat, b.y_hat)
        assert b.v_hat is None
        for m in MODALITIES:
            assert np.array_equal(a.aux[m], b.aux[m])


class TestModel:
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"fusion": "bilinear"}, "unknown fusion 'bilinear'"),
            ({"hidden_activation": "tanh"}, "unknown hidden_activation 'tanh'"),
            ({"output_activation": "relu"}, "unknown output_activation 'relu'"),
            ({"dropout": 1.0}, r"dropout must be in \[0, 1\), got 1.0"),
            ({"dims": {"visual": 5, "audio": 4}}, "dims must map"),
            # hidden_dim is the weight's first extent
            ({"hidden_dim": 2**62}, r"visual.proj weight \[4611686018427387904 x 5\]"),
        ],
    )
    def test_bad_config_is_refused_by_field(self, override, message):
        config = TrainConfig(**{"dims": TINY_DIMS, **override})
        with pytest.raises(ConfigError, match=message):
            Model(config)


class TestModelForward:
    def test_zero_features_zero_heads_give_half(self, rng):
        model = tiny_model()
        for name, p in model.parameters().items():
            p.value[...] = 0.0
        feats = {m: np.zeros((1, 8, d)) for m, d in TINY_DIMS.items()}
        out = model.forward(feats, train=False)
        assert np.all(out.y_hat == 0.5)
        assert np.all(out.v_hat == 0.5)
        for m in MODALITIES:
            assert np.all(out.aux[m] == 0.5)

    def test_output_shapes_at_paper_batch_size(self, rng):
        model = tiny_model()
        out = model.forward(tiny_features(rng, batch=32), train=False)
        assert out.y_hat.shape == (32, 6)
        assert out.v_hat.shape == (32, 3)
        for m in MODALITIES:
            assert out.aux[m].shape == (32, 6)
            assert out.z[m].shape == (32, 6)

    def test_outputs_in_unit_interval(self, rng):
        model = tiny_model(seed=3)
        out = model.forward(tiny_features(rng), train=False)
        for arr in (out.y_hat, out.v_hat, *out.aux.values()):
            assert np.all(arr > 0.0) and np.all(arr < 1.0)

    def test_eval_forward_is_repeatable(self, rng):
        model = tiny_model(seed=2, dropout=0.2)
        feats = tiny_features(rng)
        a = model.forward(feats, train=False)
        b = model.forward(feats, train=False)
        assert np.array_equal(a.y_hat, b.y_hat)
        assert np.array_equal(a.v_hat, b.v_hat)

    def test_eval_forward_keeps_nothing(self, rng):
        batch, align, hidden = 4, 64, 32
        model = tiny_model(hidden_dim=hidden, align_len=align)
        feats = tiny_features(rng, batch=batch, align=align)
        model.forward(feats, train=True)
        model.forward(feats, train=False)  # warm numpy's own caches

        def forward():
            out = model.forward(feats, train=False)
            assert out.z["visual"].shape == (batch, hidden)

        kept, _ = traced_memory(forward)
        branch_activation = batch * align * hidden * 8
        assert kept < branch_activation, kept
        assert model.forward(feats, train=False).record is None

    @pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
    def test_training_record_keeps_one_array_per_branch(self, rng, activation):
        # per branch the record owns one gate: the keep-mask times the
        # activation's derivative at its output
        model = tiny_model(dropout=0.2, hidden_activation=activation)
        feats = tiny_features(rng)
        stream = copy.deepcopy(model.drop.rng)
        rec = model.forward(feats, train=True).record
        keep = replay_keep_masks(stream, 0.2, 4, 8, 6)
        owned = []  # the record's own [B x T x h] arrays, one per block of memory
        for a in record_arrays(rec):
            if any(np.shares_memory(a, f) for f in feats.values()):
                continue  # the projection inputs are the caller's, not the record's
            if a.shape == (4, 8, 6) and not any(np.shares_memory(a, b) for b in owned):
                owned.append(a)
        assert len(owned) == len(MODALITIES)
        act, _ = ACTIVATIONS[activation]
        for m in MODALITIES:
            assert np.shares_memory(rec.rows[m], feats[m])
            layer = model.proj[m]
            flat = feats[m].reshape(32, TINY_DIMS[m])
            y = act(flat @ layer.weight.value.T + layer.bias.value).reshape(4, 8, 6)
            gate = rec.gate[m]
            if activation == "relu":
                assert gate.dtype == np.bool_
                assert np.array_equal(gate, keep[m] & (y > 0))
            elif activation == "sigmoid":
                assert gate.dtype == np.float64
                np.testing.assert_allclose(gate, keep[m] * y * (1 - y), rtol=0, atol=1e-12)
            else:
                assert gate.dtype == np.bool_ and np.array_equal(gate, keep[m])
        per_element = sum(a.nbytes for a in owned) / (len(MODALITIES) * 4 * 8 * 6)
        assert per_element == (8 if activation == "sigmoid" else 1)

    def test_training_forward_keeps_one_array_and_byte_masks(self, rng):
        batch, align, hidden = 4, 64, 32
        model = tiny_model(hidden_dim=hidden, align_len=align, dropout=0.2)
        feats = tiny_features(rng, batch=batch, align=align)
        model.forward(feats, train=True)  # warm numpy's own caches
        # the outputs, and the record on them, are held past the traced call
        held = []
        kept, _ = traced_memory(lambda: held.append(model.forward(feats, train=True)))
        assert held[0].record is not None
        # three float64 branch arrays and three one-byte masks, plus small ones
        branch_activation = batch * align * hidden * 8
        assert kept < 4 * branch_activation, kept

    def test_train_dropout_changes_outputs(self, rng):
        model = tiny_model(seed=2, dropout=0.5)
        feats = tiny_features(rng)
        a = model.forward(feats, train=True)
        b = model.forward(feats, train=True)
        assert not np.array_equal(a.y_hat, b.y_hat)

    def test_average_fusion_shapes(self, rng):
        model = tiny_model(fusion="average")
        out = model.forward(tiny_features(rng), train=False)
        assert out.z_fus.shape == (4, 6)
        assert out.y_hat.shape == (4, 6)

    def test_empty_batch_rejected(self):
        model = tiny_model()
        feats = {m: np.zeros((0, 8, d)) for m, d in TINY_DIMS.items()}
        with pytest.raises(ShapeError):
            model.forward(feats, train=False)

    def test_misaligned_rows_rejected(self, rng):
        model = tiny_model()
        feats = tiny_features(rng)
        feats["audio"] = feats["audio"][:, :5, :]
        with pytest.raises(ShapeError):
            model.forward(feats, train=False)

    def test_wrong_dim_rejected(self, rng):
        model = tiny_model()
        feats = tiny_features(rng)
        feats["text"] = np.zeros((4, 8, 99))
        with pytest.raises(ConfigError):
            model.forward(feats, train=False)


class TestModelBackward:
    def test_backward_before_forward(self, rng):
        # a model that ran no training forward has no record to reverse
        model = tiny_model()
        out = model.forward(tiny_features(rng), train=False)
        with pytest.raises(StateError):
            model.backward(out, np.ones((4, 6)), {}, None)
        assert np.all(model.parameters().grad == 0.0)

    def test_backward_after_eval_forward_raises(self, rng):
        # an eval forward's outputs carry no record, whatever ran before it
        model = tiny_model(seed=4)
        feats = tiny_features(rng)
        model.forward(feats, train=True)
        out = model.forward(feats, train=False)
        assert out.record is None
        model.zero_grads()
        with pytest.raises(StateError):
            model.backward(out, np.ones((4, 6)), {m: np.ones((4, 6)) for m in MODALITIES}, None)
        assert np.all(model.parameters().grad == 0.0)

    @pytest.mark.parametrize("between", ["eval", "train"])
    def test_backward_reads_only_its_own_forward(self, rng, between):
        # the gradients depend on the outputs passed in, not on a forward of
        # other features run between them and the backward
        feats, other = tiny_features(rng), tiny_features(rng)
        d_y_hat = rng.normal(size=(4, 6))
        d_aux = {m: rng.normal(size=(4, 6)) for m in MODALITIES}
        d_v_hat = rng.normal(size=(4, 3))
        grads = {}
        for case in (None, between):
            model = tiny_model(seed=3, dropout=0.2)
            model.inj.weight.value[...] = 0.1
            out = model.forward(feats, train=True)
            if case is not None:
                model.forward(other, train=case == "train")
            model.zero_grads()
            model.backward(out, d_y_hat, d_aux, d_v_hat)
            grads[case] = model.parameters().grad.tobytes()
        assert grads[between] == grads[None]

    def test_zero_upstream_zero_grads(self, rng):
        model = tiny_model()
        out = model.forward(tiny_features(rng), train=True)
        model.zero_grads()
        model.backward(
            out,
            np.zeros((4, 6)),
            {m: np.zeros((4, 6)) for m in MODALITIES},
            np.zeros((4, 3)),
        )
        for p in model.parameters().values():
            assert np.all(p.grad == 0.0)

    def test_no_aux_upstream_zeroes_aux_grads(self, rng):
        model = tiny_model(seed=4)
        out = model.forward(tiny_features(rng), train=True)
        model.zero_grads()
        model.backward(
            out,
            rng.normal(size=(4, 6)),
            {m: np.zeros((4, 6)) for m in MODALITIES},
            np.zeros((4, 3)),
        )
        for m in MODALITIES:
            assert np.all(model.aux_head[m].weight.grad == 0.0)
            assert np.all(model.aux_head[m].bias.grad == 0.0)

    @pytest.mark.parametrize("fusion", ["concat", "average"])
    @pytest.mark.parametrize("vad", [True, False])
    # each id says whether dropout is active
    @pytest.mark.parametrize(
        "dropout,activation",
        [
            pytest.param(0.2, "relu", id="True-relu"),
            pytest.param(0.0, "relu", id="False-relu"),
            pytest.param(0.2, "identity", id="True-identity"),
            pytest.param(0.0, "identity", id="False-identity"),
            pytest.param(0.2, "sigmoid", id="True-sigmoid"),
            pytest.param(0.0, "sigmoid", id="False-sigmoid"),
        ],
    )
    def test_param_grads_match_repeated_rows(self, rng, fusion, vad, dropout, activation):
        model = tiny_model(
            seed=3,
            dropout=dropout,
            vad_enabled=vad,
            fusion=fusion,
            hidden_activation=activation,
        )
        if vad:  # engage the injection path, which starts at zero
            model.inj.weight.value[...] = rng.normal(0.0, 0.3, model.inj.weight.shape)
        stream = copy.deepcopy(model.drop.rng)
        out = model.forward(tiny_features(rng), train=True)
        d_y_hat = rng.normal(size=(4, 6))
        d_aux = {m: rng.normal(size=(4, 6)) for m in MODALITIES}
        d_v_hat = rng.normal(size=(4, 3)) if vad else None
        model.zero_grads()
        assert model.backward(out, d_y_hat, d_aux, d_v_hat) is None
        keep = replay_keep_masks(stream, dropout, 4, 8, 6)
        expected = model_param_grads_repeated(model, out, keep, d_y_hat, d_aux, d_v_hat)
        params = model.parameters()
        assert set(expected) == set(params)
        for name, p in params.items():
            assert p.grad.tobytes() == expected[name].tobytes(), name

    def test_full_gradient_check(self):
        worst = 0.0
        for seed in range(3):
            model, feats, targets = tiny_model_case(seed)
            f, x0 = param_loss_fn(model, feats, targets, default_weights())
            worst = max(worst, grad_check(f, x0))
        assert worst < 1e-6

    def test_average_fusion_gradient_check(self):
        model, feats, targets = tiny_model_case(11, fusion="average")
        f, x0 = param_loss_fn(model, feats, targets, default_weights())
        assert grad_check(f, x0) < 1e-6

    def test_vad_free_gradient_check(self):
        model, feats, targets = tiny_model_case(12, vad=False)
        f, x0 = param_loss_fn(model, feats, targets, default_weights())
        assert grad_check(f, x0) < 1e-6


class TestLayerState:
    """A forward leaves nothing behind: its training record travels on its outputs."""

    def test_layers_hold_no_arrays_but_their_params(self, rng):
        model = tiny_model(seed=3, dropout=0.2)
        layers = list(model_layers(model))

        def held():
            return [
                (type(layer).__name__, name)
                for layer in layers
                for name, value in vars(layer).items()
                if isinstance(value, np.ndarray)
            ]

        feats = tiny_features(rng)
        before = dict(vars(model))
        out = model.forward(feats, train=True)
        assert held() == []
        model.backward(
            out,
            rng.normal(size=(4, 6)),
            {m: rng.normal(size=(4, 6)) for m in MODALITIES},
            rng.normal(size=(4, 3)),
        )
        assert held() == []
        model.forward(feats, train=False)
        assert held() == []
        # nor does the model: its attributes are the objects it was built with
        assert vars(model).keys() == before.keys()
        assert all(vars(model)[name] is value for name, value in before.items())
        assert sum(isinstance(layer, Dropout) for layer in layers) == 1
        assert len(layers) == 1 + 3 + 3 + 2 + 2  # dropout, proj, aux, vad, fusion

    def test_layer_forwards_between_forward_and_backward_change_no_grad(self, rng):
        feats = tiny_features(rng)
        inj = rng.normal(0.0, 0.3, (6, 3))
        d_y_hat = rng.normal(size=(4, 6))
        d_aux = {m: rng.normal(size=(4, 6)) for m in MODALITIES}
        d_v_hat = rng.normal(size=(4, 3))
        grads = []
        for interleave in (False, True):
            model = tiny_model(seed=3, dropout=0.2)
            model.inj.weight.value[...] = inj
            out = model.forward(feats, train=True)
            if interleave:  # same shapes as the recorded pass, other values
                model.fusion_hidden.forward(np.ones((4, model.fused_dim)))
                for m in MODALITIES:
                    model.proj[m].forward(np.ones((4 * 8, TINY_DIMS[m])))
            model.zero_grads()
            model.backward(out, d_y_hat, d_aux, d_v_hat)
            grads.append(model.parameters().grad.tobytes())
        assert grads[0] == grads[1]

    def test_masks_come_from_one_stream_in_branch_order(self, rng):
        # under identity each recorded gate is the keep-mask itself
        model = tiny_model(seed=3, dropout=0.2, hidden_activation="identity")
        rec = model.forward(tiny_features(rng), train=True).record
        stream = seeded_rng(3, _DROPOUT_STREAM)
        for key, shape in [*((m, (4, 8, 6)) for m in MODALITIES), ("fusion", (4, 6))]:
            assert np.array_equal(rec.gate[key], stream.random(shape) < 0.8), key


class TestParameterPlumbing:
    def test_param_count_formula(self):
        h, dv, da, dt = 6, 5, 4, 3
        model = tiny_model()
        expected = (
            (h * dv + h) + (h * da + h) + (h * dt + h)  # projectors
            + 3 * (6 * h + 6)  # aux heads
            + (3 * h + 3) + (h * 3)  # vad head + injection
            + (h * 3 * h + h) + (6 * h + 6)  # fusion head
        )
        assert model.parameters().value.size == expected

    def test_get_set_roundtrip(self, rng):
        model = tiny_model(seed=1)
        values = param_values(model)
        other = tiny_model(seed=9)
        other.set_values(values)
        feats = tiny_features(rng)
        a = model.forward(feats, train=False)
        b = other.forward(feats, train=False)
        assert np.array_equal(a.y_hat, b.y_hat)

    def test_set_values_rejects_missing(self):
        model = tiny_model()
        values = param_values(model)
        values.pop("fusion.out.bias")
        with pytest.raises(ConfigError):
            model.set_values(values)

    def test_set_values_rejects_unknown(self):
        # a checkpoint of a VAD model must not load silently into a VAD-free one
        model = tiny_model(vad_enabled=False)
        values = param_values(tiny_model(vad_enabled=True))
        before = model.parameters().value.copy()
        with pytest.raises(ConfigError, match=r"unknown parameter values: \['vad.head.bias'"):
            model.set_values(values)
        assert model.parameters().value.tobytes() == before.tobytes()

    def test_set_values_rejects_bad_shape(self):
        model = tiny_model()
        values = param_values(model)
        values["fusion.out.bias"] = np.zeros(7)
        with pytest.raises(ConfigError, match=r"'fusion.out.bias': stored shape \(7,\)"):
            model.set_values(values)

    def test_init_is_seed_deterministic(self, rng):
        a = param_values(tiny_model(seed=21))
        b = param_values(tiny_model(seed=21))
        for name in a:
            assert np.array_equal(a[name], b[name])


class TestParamStore:
    @pytest.mark.parametrize("vad", [True, False])
    def test_params_are_views_tiling_the_store_in_order(self, vad):
        def address(a):
            return a.__array_interface__["data"][0]

        store = tiny_model(vad_enabled=vad).parameters()
        start = 0
        for name, p in store.items():
            for flat, view in ((store.value, p.value), (store.grad, p.grad)):
                assert view.flags.c_contiguous, name
                assert address(view) == address(flat) + flat.itemsize * start, name
                assert np.shares_memory(view, flat), name
            start += p.value.size
        assert start == store.value.size == store.grad.size

    @pytest.mark.parametrize("vad", [True, False])
    def test_parameter_order_is_the_checkpoint_order(self, vad):
        # the checkpoint's tensor order
        names = [
            "visual.proj.weight", "visual.proj.bias",
            "audio.proj.weight", "audio.proj.bias",
            "text.proj.weight", "text.proj.bias",
            "visual.aux.weight", "visual.aux.bias",
            "audio.aux.weight", "audio.aux.bias",
            "text.aux.weight", "text.aux.bias",
        ]
        if vad:
            names += ["vad.head.weight", "vad.head.bias", "vad.inj.weight"]
        names += [
            "fusion.hidden.weight", "fusion.hidden.bias",
            "fusion.out.weight", "fusion.out.bias",
        ]
        assert list(tiny_model(vad_enabled=vad).parameters()) == names

    def test_zero_grads_clears_every_grad(self, rng):
        model = tiny_model(seed=4)
        out = model.forward(tiny_features(rng), train=True)
        model.backward(
            out,
            rng.normal(size=(4, 6)),
            {m: rng.normal(size=(4, 6)) for m in MODALITIES},
            rng.normal(size=(4, 3)),
        )
        assert all(np.any(p.grad != 0.0) for p in model.parameters().values())
        model.zero_grads()
        for p in model.parameters().values():
            assert np.all(p.grad == 0.0)
