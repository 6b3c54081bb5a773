import numpy as np
import pytest

from emireg.errors import ConfigError, NumericError
from emireg.layers import Param, ParamStore
from emireg import optim
from emireg.model import Model
from emireg.optim import AdamW, Ema, clip_global_norm, cosine_lr
from emireg.train import TrainConfig

from oracles import adamw_step_loop, clip_global_norm_loop, ema_closed_form, ema_update_loop
from support import SMALL_DIMS


def _params(rng, shapes=((3, 4), (5,))):
    return ParamStore({f"p{i}": Param(rng.normal(size=s)) for i, s in enumerate(shapes)})


class TestClipGlobalNorm:
    def test_below_threshold_untouched(self, rng):
        params = _params(rng)
        for p in params.values():
            p.grad[...] = 0.01
        before = {k: p.grad.copy() for k, p in params.items()}
        factor, norm = clip_global_norm(params, 1.0)
        assert factor == 1.0
        assert norm < 1.0
        for k, p in params.items():
            assert np.array_equal(p.grad, before[k])

    def test_factor_half(self):
        p = Param(np.zeros(4))
        params = ParamStore({"p": p})
        p.grad[...] = 1.0  # norm 2.0
        factor, norm = clip_global_norm(params, 1.0)
        assert norm == 2.0
        assert factor == 0.5
        assert np.all(p.grad == 0.5)

    def test_post_clip_norm_equals_max(self, rng):
        params = _params(rng)
        for p in params.values():
            p.grad[...] = rng.normal(size=p.grad.shape) * 10
        clip_global_norm(params, 1.0)
        post = np.sqrt(sum(float(np.sum(p.grad**2)) for p in params.values()))
        assert post == pytest.approx(1.0, abs=1e-12)
        assert post <= 1.0 + 1e-12

    def test_non_finite_norm(self):
        p = Param(np.zeros(2))
        params = ParamStore({"p": p})
        p.grad[...] = np.inf
        with pytest.raises(NumericError):
            clip_global_norm(params, 1.0)


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self, rng):
        params = _params(rng)
        snapshot = {k: p.value.copy() for k, p in params.items()}
        opt = AdamW(params, weight_decay=0.0)
        for _ in range(5):
            opt.step(0.1)
        for k, p in params.items():
            assert np.array_equal(p.value, snapshot[k])

    def test_hand_evaluated_first_step(self):
        # theta=0, g=1, wd=0, lr=0.1: bias-corrected m=1, v=1 -> theta ~ -0.1
        p = Param(np.zeros(1))
        opt = AdamW(ParamStore({"p": p}), weight_decay=0.0)
        p.grad[...] = 1.0
        opt.step(0.1)
        assert p.value[0] == pytest.approx(-0.1, abs=1e-8)

    def test_decay_only_shrinks_geometrically(self):
        p = Param(np.full(3, 2.0))
        opt = AdamW(ParamStore({"p": p}), weight_decay=0.01)
        for _ in range(4):
            opt.step(0.5)
        expected = 2.0 * (1 - 0.5 * 0.01) ** 4
        np.testing.assert_allclose(p.value, expected, rtol=1e-12)

    def test_step_counter(self, rng):
        params = _params(rng)
        opt = AdamW(params, weight_decay=1e-4)
        for i in range(3):
            opt.step(0.0)
        assert opt.t == 3

    def test_decoupled_decay_ignores_gradient_scaling(self, rng):
        # with g=0 the update reduces to pure decay regardless of moments
        p = Param(np.array([4.0]))
        opt = AdamW(ParamStore({"p": p}), weight_decay=0.1)
        p.grad[...] = 0.0
        opt.step(0.2)
        assert p.value[0] == pytest.approx(4.0 * (1 - 0.2 * 0.1), rel=1e-12)

    def test_non_finite_step_names_the_first_bad_tensor(self, rng):
        params = _params(rng, shapes=((3, 4), (5,), (2, 2)))
        params["p1"].grad[2] = np.nan
        params["p2"].grad[0, 1] = np.nan
        with pytest.raises(
            NumericError, match=r"^non-finite parameter 'p1' after optimizer step$"
        ):
            AdamW(params, weight_decay=1e-4).step(1e-3)

    def test_negative_lr_rejected(self, rng):
        opt = AdamW(_params(rng), weight_decay=1e-4)
        with pytest.raises(ConfigError):
            opt.step(-1e-3)


class TestCosineLr:
    def test_start_is_eta0(self):
        assert cosine_lr(0, 30, 1e-4) == pytest.approx(1e-4, abs=0)

    def test_end_is_eta_min(self):
        assert cosine_lr(30, 30, 1e-4, 0.0) == pytest.approx(0.0, abs=1e-20)
        assert cosine_lr(30, 30, 1e-4, 1e-6) == pytest.approx(1e-6, abs=1e-20)

    def test_midpoint(self):
        assert cosine_lr(15, 30, 1e-4, 0.0) == pytest.approx(5e-5, abs=1e-18)

    def test_monotone_non_increasing(self):
        values = [cosine_lr(t, 30, 1e-4, 1e-6) for t in range(31)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_horizon_rejected(self):
        with pytest.raises(ConfigError):
            cosine_lr(0, 0, 1e-4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            cosine_lr(31, 30, 1e-4)


def _shadow_of(params: ParamStore) -> ParamStore:
    """A zero store laid out like ``params``, for an Ema to average into."""
    return ParamStore({k: Param(np.zeros(p.shape)) for k, p in params.items()})


class TestEma:
    def test_paper_decay_single_update(self):
        p = Param(np.array([0.0]))
        params = ParamStore({"p": p})
        shadow = _shadow_of(params)
        ema = Ema(params, shadow, decay=0.999)
        shadow["p"].value[...] = 1.0
        ema.update()
        assert shadow["p"].value[0] == pytest.approx(0.999, abs=1e-15)

    def test_decay_zero_tracks_params(self, rng):
        params = _params(rng)
        shadow = _shadow_of(params)
        ema = Ema(params, shadow, decay=0.0)
        for p in params.values():
            p.value[...] = rng.normal(size=p.value.shape)
        ema.update()
        for k, p in params.items():
            assert np.array_equal(shadow[k].value, p.value)

    def test_decay_one_freezes_shadow(self, rng):
        params = _params(rng)
        shadow = _shadow_of(params)
        ema = Ema(params, shadow, decay=1.0)
        initial = shadow.value.copy()
        for _ in range(3):
            for p in params.values():
                p.value[...] += 1.0
            ema.update()
        assert np.array_equal(shadow.value, initial)

    def test_matches_closed_form_recursion(self, rng):
        p = Param(rng.normal(size=(4, 3)))
        initial = p.value.copy()
        params = ParamStore({"p": p})
        shadow = _shadow_of(params)
        ema = Ema(params, shadow, decay=0.9)
        history = []
        for _ in range(50):
            p.value[...] = rng.normal(size=(4, 3))
            history.append(p.value.copy())
            ema.update()
        expected = ema_closed_form(initial, history, 0.9)
        np.testing.assert_allclose(shadow["p"].value, expected, atol=1e-12)

    def test_shadows_start_as_copy(self, rng):
        params = _params(rng)
        shadow = _shadow_of(params)
        Ema(params, shadow, decay=0.5)
        assert shadow.value.tobytes() == params.value.tobytes()
        assert not np.shares_memory(shadow.value, params.value)

    def test_invalid_decay(self, rng):
        params = _params(rng)
        with pytest.raises(ConfigError):
            Ema(params, _shadow_of(params), decay=1.5)


class TestFlatUpdatesMatchPerTensorLoops:
    @pytest.mark.parametrize("vad", [True, False])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("block", [None, 7])
    def test_byte_equal_over_steps(self, vad, weight_decay, block, monkeypatch):
        if block is not None:
            # AdamW blocks that cut across tensors, with a short last block
            monkeypatch.setattr(optim, "_BLOCK", block)
        rng = np.random.default_rng(77)
        config = TrainConfig(
            dims=SMALL_DIMS, hidden_dim=8, align_len=16, vad_enabled=vad, seed=3
        )
        model = Model(config)
        store = model.parameters()
        opt = AdamW(store, weight_decay=weight_decay)
        ema_model = Model(config, init=False)
        ema = Ema(store, ema_model.parameters(), decay=0.9)
        values = {n: p.value.copy() for n, p in store.items()}
        shadows = {n: p.value.copy() for n, p in store.items()}
        m = {n: np.zeros(p.shape) for n, p in store.items()}
        v = {n: np.zeros(p.shape) for n, p in store.items()}
        for t in range(1, 7):
            # large grads on even steps make the clip fire
            scale = 10.0 if t % 2 == 0 else 1e-3
            grads = {n: rng.normal(size=p.shape) * scale for n, p in store.items()}
            model.zero_grads()
            for n, p in store.items():
                p.grad += grads[n]
            factor, norm = clip_global_norm(store, 1.0)
            assert (factor, norm) == clip_global_norm_loop(grads, 1.0)
            assert (factor != 1.0) == (t % 2 == 0)
            opt.step(1e-2)
            adamw_step_loop(values, grads, m, v, t, 1e-2, weight_decay)
            ema.update()
            ema_update_loop(shadows, values, 0.9)
            for flat, want in (
                (store.value, values),
                (store.grad, grads),
                (opt.m, m),
                (opt.v, v),
                (ema_model.parameters().value, shadows),
            ):
                got = store.views(flat)
                assert list(got) == list(want)
                for n in want:
                    assert got[n].tobytes() == want[n].tobytes(), (t, n)
