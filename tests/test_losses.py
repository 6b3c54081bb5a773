from dataclasses import replace

import numpy as np
import pytest

from emireg.errors import ShapeError
from emireg.losses import (
    aux_loss,
    mse_loss,
    pearson_loss,
    total_loss,
    vad_reg_loss,
)
from emireg.train import TrainConfig

from oracles import grad_check


def _batch(rng, n=8):
    return rng.uniform(0.05, 0.95, size=(n, 6))


class TestMse:
    def test_zero_at_equality(self, rng):
        y = _batch(rng)
        value, grad = mse_loss(y, y)
        assert value == 0.0
        assert np.array_equal(grad, np.zeros_like(y))

    def test_unit_error(self):
        value, _ = mse_loss(np.ones((4, 6)), np.zeros((4, 6)))
        assert value == 1.0

    def test_single_dim_error(self):
        # one sample, error 0.3 in one dim: 0.3^2 / 6 = 0.015
        y_hat = np.zeros((1, 6))
        y_hat[0, 2] = 0.3
        value, _ = mse_loss(y_hat, np.zeros((1, 6)))
        assert value == pytest.approx(0.015, abs=1e-15)

    def test_gradient_formula(self, rng):
        y_hat, y = _batch(rng), _batch(rng)
        _, grad = mse_loss(y_hat, y)
        np.testing.assert_allclose(grad, 2 * (y_hat - y) / (6 * y.shape[0]))

    def test_gradient_check(self, rng):
        y = _batch(rng)

        def f(y_hat):
            return mse_loss(y_hat, y)

        assert grad_check(f, _batch(rng)) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, 6)), np.zeros((3, 6)))


class TestPearsonLoss:
    def test_perfect_correlation(self, rng):
        y = _batch(rng)
        value, grad = pearson_loss(y, y)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_anti_correlation(self, rng):
        y = _batch(rng)
        value, _ = pearson_loss(1.0 - y, y)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_constant_prediction_degenerate(self, rng):
        y = _batch(rng)
        y_hat = np.full_like(y, 0.4)
        value, grad = pearson_loss(y_hat, y)
        assert value == 1.0
        assert np.array_equal(grad, np.zeros_like(y))

    def test_single_degenerate_dim(self, rng):
        y = _batch(rng)
        y_hat = y.copy()
        y_hat[:, 3] = 0.25  # one collapsed dim contributes 1, others 0
        value, _ = pearson_loss(y_hat, y)
        assert value == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_affine_invariance(self, rng):
        y = _batch(rng)
        y_hat = _batch(rng)
        base, _ = pearson_loss(y_hat, y)
        scaled, _ = pearson_loss(3.5 * y_hat + 0.7, y)
        assert scaled == pytest.approx(base, abs=1e-10)

    def test_negation_flips_contribution(self, rng):
        y = _batch(rng)
        y_hat = _batch(rng)
        base, _ = pearson_loss(y_hat, y)
        flipped, _ = pearson_loss(-y_hat, y)
        assert flipped == pytest.approx(2.0 - base, abs=1e-10)

    def test_batch_too_small(self):
        with pytest.raises(ShapeError):
            pearson_loss(np.zeros((1, 6)), np.zeros((1, 6)))

    def test_gradient_check_per_dim(self, rng):
        y = _batch(rng)

        def f(y_hat):
            return pearson_loss(y_hat, y)

        assert grad_check(f, _batch(rng)) < 1e-6


class TestAuxLoss:
    def test_zero_weights(self, rng):
        y = _batch(rng)
        preds = {m: _batch(rng) for m in ("visual", "audio", "text")}
        config = TrainConfig(lambda_visual=0.0, lambda_audio=0.0, lambda_text=0.0)
        total, grads, _ = aux_loss(preds, y, config)
        assert total == 0.0
        assert all(np.array_equal(g, np.zeros_like(y)) for g in grads.values())

    def test_exact_predictions(self, rng):
        y = _batch(rng)
        preds = {m: y.copy() for m in ("visual", "audio", "text")}
        total, _, _ = aux_loss(preds, y, TrainConfig())
        assert total == 0.0

    def test_composition_of_mse(self):
        # each branch with a single 0.3 error: 3 x 0.015 = 0.045
        y = np.zeros((1, 6))
        pred = np.zeros((1, 6))
        pred[0, 0] = 0.3
        preds = {m: pred.copy() for m in ("visual", "audio", "text")}
        total, _, per_branch = aux_loss(preds, y, TrainConfig())
        assert total == pytest.approx(0.045, abs=1e-15)
        assert per_branch["audio"] == pytest.approx(0.015, abs=1e-15)


class TestVadRegLoss:
    def test_center_is_zero(self):
        value, grad = vad_reg_loss(np.full((3, 3), 0.5))
        assert value == 0.0
        assert np.array_equal(grad, np.zeros((3, 3)))

    def test_corner(self):
        value, _ = vad_reg_loss(np.ones((1, 3)))
        assert value == 0.75

    def test_mixed(self):
        value, _ = vad_reg_loss(np.array([[0.0, 0.5, 1.0]]))
        assert value == 0.5

    def test_gradient_check(self, rng):
        def f(v):
            return vad_reg_loss(v)

        assert grad_check(f, rng.uniform(0.1, 0.9, (5, 3))) < 1e-6


def _reference_loss(y_hat, y, aux, v_hat, config) -> dict:
    """The objective composed term by term from the single-term losses."""
    mse, d_mse = mse_loss(y_hat, y)
    corr, d_corr = pearson_loss(y_hat, y, eps=config.corr_eps)
    branch_weights = {
        "visual": config.lambda_visual,
        "audio": config.lambda_audio,
        "text": config.lambda_text,
    }
    branches = {m: mse_loss(pred, y) for m, pred in aux.items()}
    aux_value = sum(branch_weights[m] * value for m, (value, _) in branches.items())
    vad, d_vad = vad_reg_loss(v_hat)
    out = {
        "total": mse
        + config.lambda_corr * corr
        + config.lambda_aux * aux_value
        + config.lambda_vad * vad,
        "mse": mse,
        "corr": corr,
        "aux": aux_value,
        "vad": vad,
        "d_y_hat": d_mse + config.lambda_corr * d_corr,
        "d_v_hat": config.lambda_vad * d_vad,
    }
    for m, (value, grad) in branches.items():
        out[f"aux_{m}"] = value
        out[f"d_{m}"] = config.lambda_aux * branch_weights[m] * grad
    return out


def _total_loss_entries(y_hat, y, aux, v_hat, config) -> dict:
    """``total_loss``'s breakdown and gradients, keyed as ``_reference_loss``'s."""
    breakdown, grads = total_loss(y_hat, y, aux, v_hat, config)
    out = breakdown.to_dict()
    out["d_y_hat"] = grads.y_hat
    out["d_v_hat"] = grads.v_hat
    for m, grad in grads.aux.items():
        out[f"d_{m}"] = grad
    return out


# each loss setting of TrainConfig -> a value other than its default, and the
# entries that value alone moves: a term weight moves the total and its term's
# gradient; a branch weight or eps moves its term's value as well
LOSS_SETTINGS = {
    "lambda_corr": (2.0, {"total", "d_y_hat"}),
    "lambda_aux": (2.0, {"total", "d_visual", "d_audio", "d_text"}),
    "lambda_vad": (2.0, {"total", "d_v_hat"}),
    "lambda_visual": (0.25, {"total", "aux", "d_visual"}),
    "lambda_audio": (0.25, {"total", "aux", "d_audio"}),
    "lambda_text": (0.25, {"total", "aux", "d_text"}),
    "corr_eps": (1.0, {"total", "corr", "d_y_hat"}),  # above every column's variance
}


class TestTotalLoss:
    def _outputs(self, rng, n=8):
        y_hat = _batch(rng, n)
        y = _batch(rng, n)
        aux = {m: _batch(rng, n) for m in ("visual", "audio", "text")}
        v_hat = rng.uniform(0.1, 0.9, (n, 3))
        return y_hat, y, aux, v_hat

    def test_all_zero_weights_give_pure_mse(self, rng):
        y_hat, y, aux, v_hat = self._outputs(rng)
        config = TrainConfig(lambda_corr=0.0, lambda_aux=0.0, lambda_vad=0.0)
        breakdown, grads = total_loss(y_hat, y, aux, v_hat, config)
        mse_value, mse_grad = mse_loss(y_hat, y)
        assert breakdown.total == mse_value
        np.testing.assert_array_equal(grads.y_hat, mse_grad)
        assert all(np.all(g == 0) for g in grads.aux.values())
        assert np.all(grads.v_hat == 0)

    @pytest.mark.parametrize("name", list(LOSS_SETTINGS))
    def test_each_setting_moves_only_its_own_term(self, rng, name):
        value, moved = LOSS_SETTINGS[name]
        outputs = self._outputs(rng)
        default = TrainConfig()
        changed = replace(default, **{name: value})
        before = _total_loss_entries(*outputs, default)
        after = _total_loss_entries(*outputs, changed)
        for config, got in ((default, before), (changed, after)):
            expected = _reference_loss(*outputs, config)
            assert set(got) == set(expected)
            for key, want in expected.items():
                np.testing.assert_allclose(got[key], want, rtol=1e-12, atol=1e-15, err_msg=key)
        assert {key for key in after if not np.array_equal(after[key], before[key])} == moved

    def test_weighted_sum(self, rng):
        y_hat, y, aux, v_hat = self._outputs(rng)
        config = TrainConfig(lambda_corr=1.0, lambda_aux=1.0, lambda_vad=1.0)
        breakdown, _ = total_loss(y_hat, y, aux, v_hat, config)
        expected = breakdown.mse + breakdown.corr + breakdown.aux + breakdown.vad
        assert breakdown.total == pytest.approx(expected, abs=1e-15)

    def test_breakdown_recomposes(self, rng):
        y_hat, y, aux, v_hat = self._outputs(rng)
        config = TrainConfig(lambda_corr=0.5, lambda_aux=0.3, lambda_vad=0.1)
        breakdown, _ = total_loss(y_hat, y, aux, v_hat, config)
        recomposed = (
            breakdown.mse
            + config.lambda_corr * breakdown.corr
            + config.lambda_aux * breakdown.aux
            + config.lambda_vad * breakdown.vad
        )
        assert abs(breakdown.total - recomposed) < 1e-15

    def test_hand_sum(self):
        # mse=0.1, corr=0.5, aux=0.2, vad=0.3 with unit weights -> 1.1
        assert 0.1 + 1.0 * 0.5 + 1.0 * 0.2 + 1.0 * 0.3 == pytest.approx(1.1)

    def test_gradient_check_y_hat(self, rng):
        _, y, aux, v_hat = self._outputs(rng)
        config = TrainConfig(lambda_corr=0.5, lambda_aux=0.3, lambda_vad=0.1)

        def f(y_hat):
            breakdown, grads = total_loss(y_hat, y, aux, v_hat, config)
            return breakdown.total, grads.y_hat

        assert grad_check(f, _batch(rng)) < 1e-6

    def test_gradient_check_v_hat(self, rng):
        y_hat, y, aux, _ = self._outputs(rng)
        config = TrainConfig(lambda_corr=0.5, lambda_aux=0.3, lambda_vad=0.1)

        def f(v_hat):
            breakdown, grads = total_loss(y_hat, y, aux, v_hat, config)
            return breakdown.total, grads.v_hat

        assert grad_check(f, rng.uniform(0.1, 0.9, (8, 3))) < 1e-6

    def test_gradient_check_aux(self, rng):
        y_hat, y, aux, v_hat = self._outputs(rng)
        config = TrainConfig(lambda_corr=0.5, lambda_aux=0.3, lambda_vad=0.1)

        def f(pred):
            current = dict(aux, audio=pred)
            breakdown, grads = total_loss(y_hat, y, current, v_hat, config)
            return breakdown.total, grads.aux["audio"]

        assert grad_check(f, _batch(rng)) < 1e-6

    def test_singleton_batch_is_degenerate_not_fatal(self, rng):
        y_hat = _batch(rng, 1)
        y = _batch(rng, 1)
        aux = {m: _batch(rng, 1) for m in ("visual", "audio", "text")}
        breakdown, grads = total_loss(y_hat, y, aux, None, TrainConfig())
        assert breakdown.corr == 1.0
        assert np.all(grads.y_hat == mse_loss(y_hat, y)[1] + 0.0)
