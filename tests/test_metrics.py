import math

import numpy as np
import pytest

from emireg.errors import ShapeError
from emireg.metrics import EarlyStopper, mean_pcc, pearson

from oracles import mean_pcc_two_pass, pearson_two_pass


class TestPearson:
    def test_positive_linear_map(self):
        r, degenerate = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert r == pytest.approx(1.0, abs=1e-12)
        assert not degenerate

    def test_negation(self):
        r, _ = pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_hand_case(self):
        # cov=1, var_x=2/3, var_y=14/9 -> r = sqrt(27/28)
        r, _ = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert r == pytest.approx(math.sqrt(27.0 / 28.0), abs=1e-12)
        assert r == pytest.approx(0.981981, abs=1e-6)

    def test_degenerate_flag(self):
        r, degenerate = pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert r == 0.0
        assert degenerate

    def test_affine_invariance(self, rng):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        base, _ = pearson(x, y)
        shifted, _ = pearson(2.5 * x + 1.0, y)
        assert shifted == pytest.approx(base, abs=1e-10)
        flipped, _ = pearson(-x, y)
        assert flipped == pytest.approx(-base, abs=1e-10)

    def test_self_correlation(self, rng):
        x = rng.normal(size=20)
        r, _ = pearson(x, x)
        assert r == pytest.approx(1.0, abs=1e-10)

    def test_against_two_pass_oracle(self, rng):
        for _ in range(50):
            x = rng.normal(size=100)
            y = 0.3 * x + rng.normal(size=100)
            r, _ = pearson(x, y)
            assert abs(r - pearson_two_pass(x, y)) < 1e-10

    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_large_offset_keeps_precision(self, rng, offset):
        # a raw-moment form cancels catastrophically here: errors near 1e-8 and 1e-4
        for _ in range(50):
            x = offset + rng.normal(size=32)
            y = offset + 0.5 * (x - offset) + rng.normal(size=32)
            r, _ = pearson(x, y)
            assert abs(r - pearson_two_pass(x, y)) < 1e-12

    def test_too_short(self):
        with pytest.raises(ShapeError):
            pearson([1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


class TestMeanPcc:
    def test_perfect_predictions(self, rng):
        targets = rng.uniform(size=(50, 6))
        report = mean_pcc(targets, targets)
        assert report.p_mean == pytest.approx(1.0, abs=1e-10)
        assert report.n == 50
        assert report.degenerate_dims == []

    def test_balanced_anti_correlation(self, rng):
        targets = rng.uniform(size=(40, 6))
        preds = targets.copy()
        preds[:, 3:] = 1.0 - preds[:, 3:]  # three aligned, three flipped
        report = mean_pcc(preds, targets)
        assert report.p_mean == pytest.approx(0.0, abs=1e-10)

    def test_against_two_pass_oracle(self, rng):
        preds = rng.normal(size=(100, 6))
        targets = 0.5 * preds + rng.normal(size=(100, 6))
        report = mean_pcc(preds, targets)
        scores, p_mean = mean_pcc_two_pass(preds, targets)
        assert abs(report.p_mean - p_mean) < 1e-10
        for mine, oracle in zip(report.p, scores):
            assert abs(mine - oracle) < 1e-10

    def test_degenerate_column_flagged(self, rng):
        preds = rng.uniform(size=(30, 6))
        preds[:, 2] = 0.7
        report = mean_pcc(preds, rng.uniform(size=(30, 6)))
        assert report.degenerate_dims == [2]
        assert report.p[2] == 0.0

    def test_column_permutation(self, rng):
        preds = rng.normal(size=(60, 6))
        targets = rng.normal(size=(60, 6))
        base = mean_pcc(preds, targets)
        perm = [3, 0, 5, 1, 4, 2]
        permuted = mean_pcc(preds[:, perm], targets[:, perm])
        assert permuted.p_mean == pytest.approx(base.p_mean, abs=1e-14)
        assert permuted.p == [base.p[i] for i in perm]

    def test_mean_is_exact_mean(self, rng):
        report = mean_pcc(rng.normal(size=(25, 6)), rng.normal(size=(25, 6)))
        assert report.p_mean == sum(report.p) / 6

    def test_report_json_keys(self, rng):
        report = mean_pcc(rng.normal(size=(10, 6)), rng.normal(size=(10, 6)))
        payload = report.to_dict()
        assert set(payload) == {"p", "p_mean", "n", "degenerate_dims"}
        assert len(payload["p"]) == 6

    def test_too_few_rows(self):
        with pytest.raises(ShapeError):
            mean_pcc(np.zeros((1, 6)), np.zeros((1, 6)))


class TestEarlyStopper:
    def test_improving_never_stops(self):
        stopper = EarlyStopper(patience=3)
        for value in np.linspace(0.1, 0.9, 20):
            improved, stop = stopper.update(value)
            assert improved and not stop
        assert stopper.best_epoch == 20

    def test_flat_after_best(self):
        # best at epoch 3, flat afterwards, patience 8 -> stop after epoch 11
        stopper = EarlyStopper(patience=8)
        history = [0.1, 0.2, 0.5] + [0.5] * 20
        stopped_at = None
        for epoch, value in enumerate(history, start=1):
            _, stop = stopper.update(value)
            if stop:
                stopped_at = epoch
                break
        assert stopped_at == 11
        assert stopper.best_epoch == 3

    def test_patience_one(self):
        stopper = EarlyStopper(patience=1)
        stopper.update(0.5)
        _, stop = stopper.update(0.5)  # equal is not a strict improvement
        assert stop

    def test_recovery_resets_counter(self):
        stopper = EarlyStopper(patience=3)
        for value in [0.5, 0.4, 0.4, 0.6, 0.5, 0.5]:
            _, stop = stopper.update(value)
            assert not stop
        assert stopper.best_epoch == 4
