import os
import sys
import threading

import numpy as np
import pytest

from emireg import layers
from emireg.errors import ConfigError, NumericError, ShapeError, StateError
from emireg.layers import Dropout, Linear, ParamStore, adaptive_avg_pool
from emireg.tensor import relu, sigmoid

from oracles import adaptive_avg_pool_loop, dropout_float_mask, grad_check, matmul_loops
from support import count_thread_starts, traced_memory, use_cpus


def stored(layer: Linear) -> Linear:
    """Put a standalone layer's parameters in a store, which gives them grads."""
    ParamStore({"weight": layer.weight, "bias": layer.bias})
    return layer


class TestLinear:
    def test_identity_weight(self, rng):
        layer = Linear(3, 3)
        layer.weight.value[...] = np.eye(3)
        x = rng.normal(size=(4, 3))
        assert np.array_equal(layer.forward(x), x)

    def test_zero_weight_constant_bias(self, rng):
        layer = Linear(2, 3)
        layer.weight.value[...] = 0.0
        layer.bias.value[...] = [1.5, -0.5]
        out = layer.forward(rng.normal(size=(5, 3)))
        assert np.array_equal(out, np.tile([1.5, -0.5], (5, 1)))

    def test_matches_matmul_plus_bias(self, rng):
        layer = Linear(4, 6, rng=rng)
        layer.bias.value[...] = rng.normal(size=4)
        x = rng.normal(size=(7, 6))
        expected = x @ layer.weight.value.T + layer.bias.value
        np.testing.assert_array_equal(layer.forward(x), expected)

    def test_against_triple_loop(self, rng):
        layer = Linear(5, 7, rng=rng)
        layer.bias.value[...] = rng.normal(size=5)
        x = rng.normal(size=(3, 7))
        expected = matmul_loops(x, layer.weight.value.T) + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-13, atol=1e-15)

    def test_zero_upstream_zero_grads(self, rng):
        layer = stored(Linear(2, 3, rng=rng))
        x = rng.normal(size=(4, 3))
        layer.forward(x)
        grad_in = layer.backward(x, np.zeros((4, 2)))
        assert np.array_equal(grad_in, np.zeros((4, 3)))
        assert np.array_equal(layer.weight.grad, np.zeros((2, 3)))
        assert np.array_equal(layer.bias.grad, np.zeros(2))

    def test_scalar_chain_rule(self):
        # batch 1, 1-in 1-out: dL/dw = u*x, dL/db = u, dL/dx = u*w
        layer = stored(Linear(1, 1))
        layer.weight.value[...] = [[2.0]]
        layer.bias.value[...] = [0.5]
        x = np.array([[3.0]])
        layer.forward(x)
        grad_in = layer.backward(x, np.array([[5.0]]))
        assert layer.weight.grad[0, 0] == 15.0
        assert layer.bias.grad[0] == 5.0
        assert grad_in[0, 0] == 10.0

    def test_grad_accumulates_across_backwards(self, rng):
        layer = stored(Linear(2, 3, rng=rng))
        x = rng.normal(size=(4, 3))
        up = rng.normal(size=(4, 2))
        layer.forward(x)
        layer.backward(x, up)
        first = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(x, up)
        np.testing.assert_allclose(layer.weight.grad, 2 * first)

    def test_backward_without_input_grad(self, rng):
        x = rng.normal(size=(6, 4))
        up = rng.normal(size=(6, 3))
        full, lean = (stored(Linear(3, 4, rng=np.random.default_rng(5))) for _ in range(2))
        full.forward(x)
        lean.forward(x)
        assert full.backward(x, up).shape == x.shape
        assert lean.backward(x, up, input_grad=False) is None
        assert lean.weight.grad.tobytes() == full.weight.grad.tobytes()
        assert lean.bias.grad.tobytes() == full.bias.grad.tobytes()

    def test_backward_outside_a_store(self, rng):
        layer = Linear(2, 3, rng=rng)
        x = np.zeros((4, 3))
        layer.forward(x)
        with pytest.raises(StateError, match="ParamStore"):
            layer.backward(x, np.zeros((4, 2)))

    def test_shape_errors(self, rng):
        layer = Linear(2, 3, rng=rng)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((4, 5)))
        x = np.zeros((4, 3))
        layer.forward(x)
        with pytest.raises(ShapeError):
            layer.backward(x, np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            layer.backward(np.zeros((4, 5)), np.zeros((4, 2)))

    def test_gradient_check_weights(self, rng):
        # treat the weight matrix as the variable of a scalar loss sum(c * y)
        layer = stored(Linear(3, 4, rng=rng))
        x = rng.normal(size=(5, 4))
        c = rng.normal(size=(5, 3))

        def f(w):
            layer.weight.value[...] = w
            layer.weight.grad[...] = 0.0
            y = layer.forward(x)
            layer.backward(x, c)
            return float(np.sum(c * y)), layer.weight.grad.copy()

        assert grad_check(f, layer.weight.value.copy()) < 1e-6

    def test_gradient_check_input(self, rng):
        layer = stored(Linear(3, 4, rng=rng))
        c = rng.normal(size=(2, 3))

        def f(x):
            y = layer.forward(x)
            return float(np.sum(c * y)), layer.backward(x, c)

        assert grad_check(f, rng.normal(size=(2, 4))) < 1e-6


class TestDropout:
    def test_p_zero_identity_both_modes(self, rng):
        layer = Dropout(0.0, np.random.default_rng(0))
        x = rng.normal(size=(3, 4))
        x[0, :2] = -0.0  # signed zeros keep their sign
        # a training forward draws its mask at rate 0 too: every unit kept
        out, keep = layer.forward(x, train=True)
        assert np.array_equal(out, x)
        assert out.tobytes() == x.tobytes()
        assert keep.dtype == np.bool_ and keep.shape == x.shape and keep.all()
        out, keep = layer.forward(x, train=False)
        assert np.array_equal(out, x)
        assert out is x and keep is None

    def test_eval_mode_exact_identity(self, rng):
        layer = Dropout(0.2, np.random.default_rng(0))
        x = rng.normal(size=(3, 4))
        out, _ = layer.forward(x, train=False)
        assert np.array_equal(out, x)

    def test_train_mode_mean_preserved(self):
        # inverted dropout keeps the expectation: mean of 1e6 ones stays ~1
        layer = Dropout(0.2, np.random.default_rng(7))
        out, _ = layer.forward(np.ones((1000, 1000)), train=True)
        assert abs(out.mean() - 1.0) < 0.01

    def test_kept_elements_scaled(self):
        layer = Dropout(0.5, np.random.default_rng(3))
        out, _ = layer.forward(np.ones((100, 100)), train=True)
        kept = out[out != 0.0]
        assert np.all(kept == 2.0)

    def test_backward_reuses_mask(self):
        layer = Dropout(0.5, np.random.default_rng(3))
        x = np.ones((50, 50))
        out, keep = layer.forward(x, train=True)
        grad = layer.backward(keep, np.ones_like(x))
        assert np.array_equal(grad, out)

    def test_bool_mask_gives_the_float_mask_bytes(self, rng):
        rate = 0.3
        layer = Dropout(rate, np.random.default_rng(5))
        x = rng.normal(size=(4, 6, 5))  # negatives: dropped ones become -0.0
        out, got = layer.forward(x, train=True)
        assert got.dtype == np.bool_ and got.nbytes == x.size
        keep = np.random.default_rng(5).random(x.shape) < 1.0 - rate
        assert np.array_equal(got, keep)
        mask = dropout_float_mask(keep, rate)
        assert out.tobytes() == (x * mask).tobytes()
        # [B x 1 x h] broadcasts over time, as the model's branches send it
        for up in (rng.normal(size=x.shape), rng.normal(size=(4, 1, 5))):
            assert layer.backward(got, up).tobytes() == (up * mask).tobytes()

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunked_mask_is_one_whole_draw(self, extra):
        rate = 0.3
        for size in (layers._MASK_CHUNK + extra, 2 * layers._MASK_CHUNK + extra):
            layer = Dropout(rate, np.random.default_rng(8))
            _, keep = layer.forward(np.ones(size), train=True)
            whole = np.random.default_rng(8)
            assert np.array_equal(keep, whole.random(size) < 1.0 - rate)
            # the same number of values was drawn
            assert layer.rng.bit_generator.state == whole.bit_generator.state

    def test_empty_mask_draws_nothing(self):
        layer = Dropout(0.3, np.random.default_rng(8))
        out, keep = layer.forward(np.ones((2, 0, 5)), train=True)
        assert out.shape == keep.shape == (2, 0, 5) and keep.dtype == np.bool_
        assert layer.rng.bit_generator.state == np.random.default_rng(8).bit_generator.state

    def test_training_forward_needs_a_generator(self):
        layer = Dropout(0.5, None)
        x = np.ones((2, 3))
        out, keep = layer.forward(x, train=False)
        assert out is x and keep is None
        with pytest.raises(StateError):
            layer.forward(x, train=True)

    def test_eval_backward_is_identity(self, rng):
        # a backward follows a training forward; at rate 0 its all-kept mask
        # passes the upstream gradient through, bytes and all
        layer = Dropout(0.0, np.random.default_rng(3))
        _, keep = layer.forward(np.ones((4, 4)), train=True)
        up = rng.normal(size=(4, 4))
        up[1, 1:3] = -0.0
        assert np.array_equal(layer.backward(keep, up), up)
        assert layer.backward(keep, up).tobytes() == up.tobytes()

    def test_eval_consumes_no_randomness(self):
        gen = np.random.default_rng(9)
        layer = Dropout(0.5, gen)
        before = gen.bit_generator.state["state"]["state"]
        layer.forward(np.ones((8, 8)), train=False)
        assert gen.bit_generator.state["state"]["state"] == before

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            Dropout(1.0, np.random.default_rng(0))


class TestAdaptiveAvgPool:
    def test_identity_when_lengths_match(self, rng):
        x = rng.normal(size=(16, 3))
        assert np.array_equal(adaptive_avg_pool([x], 16)[0], x)

    def test_even_split(self, rng):
        x = rng.normal(size=(256, 5))
        out = adaptive_avg_pool([x], 128)[0]
        for i in range(128):
            np.testing.assert_array_equal(out[i], x[2 * i : 2 * i + 2].mean(axis=0))

    def test_three_to_two(self):
        x = np.array([[0.0], [1.0], [5.0]])
        out = adaptive_avg_pool([x], 2)[0]
        assert out[0, 0] == 0.5  # mean(rows 0, 1)
        assert out[1, 0] == 3.0  # mean(rows 1, 2)

    def test_upsampling_repeats_bins(self):
        x = np.array([[1.0], [3.0]])
        out = adaptive_avg_pool([x], 4)[0]
        assert np.array_equal(out[:, 0], [1.0, 1.0, 3.0, 3.0])

    def test_global_mean_preserved_when_divisible(self, rng):
        x = rng.normal(size=(64, 4))
        out = adaptive_avg_pool([x], 16)[0]
        np.testing.assert_allclose(out.mean(axis=0), x.mean(axis=0), atol=1e-12)

    def test_empty_sequence_errors(self):
        with pytest.raises(ShapeError):
            adaptive_avg_pool([np.zeros((0, 3))], 4)

    def test_bit_identical_to_loop_oracle(self, rng):
        # covers up- and downsampling and mixed bin widths (e.g. 150 -> 128)
        for length in range(1, 401):
            x = rng.normal(size=(length, 2))
            for target in (1, 7, 16, 128, 300):
                out = adaptive_avg_pool([x], target)[0]
                expected = adaptive_avg_pool_loop(x, target)
                assert out.tobytes() == expected.tobytes(), (length, target)

    @pytest.mark.parametrize(
        "length, target", [(37, 128), (128, 128), (150, 128), (1, 16), (300, 1)]
    )
    def test_float32_input_pools_like_its_widened_copy(self, rng, length, target):
        # widening float32 to float64 is exact, so pooling must not care when it happens
        x32 = rng.normal(size=(length, 5)).astype(np.float32)
        got = adaptive_avg_pool([x32], target)
        expected = adaptive_avg_pool([x32.astype(np.float64)], target)[0]
        assert got.dtype == np.float64
        assert got[0].tobytes() == expected.tobytes()

    def test_float32_input_is_not_copied_whole(self, rng):
        x = rng.normal(size=(512, 64)).astype(np.float32)
        block_bytes = 128 * 64 * 8
        _, peak = traced_memory(lambda: adaptive_avg_pool([x], 128))
        # beside the returned block, a widened copy of the sequence alone
        # would take 2 * x.nbytes
        assert peak - block_bytes < x.nbytes

    def test_non_finite_input_raises(self):
        x = np.ones((9, 2))
        x[4, 1] = np.inf
        with pytest.raises(NumericError):
            adaptive_avg_pool([x], 3)


class TestAdaptiveAvgPoolBlock:
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_block_matches_loop_oracle_on_any_cpu_count(self, rng, monkeypatch, n):
        # lengths below, equal to and above the target, float32 and float64
        seqs = [
            rng.normal(size=(length, 3)).astype(dtype)
            for length, dtype in zip(
                [5, 16, 41, 16, 1, 200, 9], [np.float32, np.float64] * 4
            )
        ][:n]
        expected = [adaptive_avg_pool_loop(x.astype(np.float64), 16) for x in seqs]
        for cpus in (1, 2, 3, n + 2):
            use_cpus(monkeypatch, cpus)
            block = adaptive_avg_pool(seqs, 16)
            assert block.shape == (n, 16, 3) and block.dtype == np.float64
            for i in range(n):
                assert block[i].tobytes() == expected[i].tobytes(), (cpus, i)

    def test_more_threads_than_cores_pool_every_row(self, rng, monkeypatch):
        # a lost or repeated index on the shared iterator leaves a row
        # unwritten or changes bytes; a short switch interval makes threads
        # trade often. Every block stays alive, so none is allocated over an
        # earlier block's correct bytes.
        seqs = [rng.normal(size=(int(rng.integers(1, 40)), 3)) for _ in range(64)]
        use_cpus(monkeypatch, 1)
        serial = adaptive_avg_pool(seqs, 8)
        use_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            blocks = [adaptive_avg_pool(seqs, 8) for _ in range(20)]
        finally:
            sys.setswitchinterval(interval)
        for block in blocks:
            assert block.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_non_finite_sequence_raises_after_joining(self, rng, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        seqs = [rng.normal(size=(20, 2)) for _ in range(7)]
        seqs[3][5, 1] = np.nan
        before = threading.active_count()
        with pytest.raises(NumericError, match="^non-finite values produced by adaptive_avg_pool$"):
            adaptive_avg_pool(seqs, 8)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_empty_sequence_raises_before_any_thread(self, rng, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        seqs = [rng.normal(size=(20, 2)) for _ in range(5)]
        seqs[2] = np.zeros((0, 2))
        before = threading.active_count()
        with pytest.raises(ShapeError, match="empty sequence"):
            adaptive_avg_pool(seqs, 8)
        assert threading.active_count() == before

    def test_pools_into_rows_of_other_blocks(self, rng, monkeypatch):
        # each sequence into its own caller-owned row, whatever its width
        seqs = [rng.normal(size=(length, width)) for length, width in [(20, 4), (9, 5), (33, 4)]]
        blocks = [np.full((3, 8, 4), np.nan), np.full((2, 8, 5), np.nan)]
        rows = [blocks[0][2], blocks[1][0], blocks[0][0]]
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            assert adaptive_avg_pool(seqs, 8, out=rows) is rows
            for x, row in zip(seqs, rows):
                assert row.tobytes() == adaptive_avg_pool_loop(x, 8).tobytes()
            assert np.isnan(blocks[0][1]).all() and np.isnan(blocks[1][1]).all()

    def test_out_rows_are_checked(self, rng):
        seqs = [rng.normal(size=(20, 4)), rng.normal(size=(20, 5))]
        with pytest.raises(ShapeError, match="has 1 rows for 2 sequences"):
            adaptive_avg_pool(seqs, 8, out=[np.empty((8, 4))])
        with pytest.raises(ShapeError, match=r"pool output \(8, 4\) != \(8, 5\)"):
            adaptive_avg_pool(seqs, 8, out=[np.empty((8, 4)), np.empty((8, 4))])
        with pytest.raises(ShapeError, match="row 1 is float32, not float64"):
            adaptive_avg_pool(seqs, 8, out=[np.empty((8, 4)), np.empty((8, 5), np.float32)])

    def test_widths_must_agree(self, rng):
        seqs = [rng.normal(size=(20, 4)), rng.normal(size=(20, 5))]
        with pytest.raises(ShapeError, match=r"pool output \(8, 4\) != \(8, 5\)"):
            adaptive_avg_pool(seqs, 8)

    def test_bad_target_and_no_sequences(self, rng):
        with pytest.raises(ConfigError):
            adaptive_avg_pool([rng.normal(size=(4, 2))], 0)
        with pytest.raises(ConfigError, match="too large"):
            adaptive_avg_pool([rng.normal(size=(4, 2))], 2**62)
        with pytest.raises(ShapeError):
            adaptive_avg_pool([], 4)

    def test_one_cpu_starts_no_thread(self, rng, monkeypatch):
        started = count_thread_starts(monkeypatch)
        seqs = [rng.normal(size=(30, 3)) for _ in range(6)]
        use_cpus(monkeypatch, 1)
        adaptive_avg_pool(seqs, 8)
        assert started == []
        use_cpus(monkeypatch, 2)  # the counter sees a helper when there is one
        adaptive_avg_pool(seqs, 8)
        assert len(started) == 1

    def test_cpu_count_without_an_affinity_set(self, rng, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        started = count_thread_starts(monkeypatch)
        x = rng.normal(size=(30, 3))
        block = adaptive_avg_pool([x, x], 8)
        assert started == []
        assert block[1].tobytes() == adaptive_avg_pool_loop(x, 8).tobytes()


class TestActivationGradients:
    def test_relu_gradient_away_from_kink(self, rng):
        c = rng.normal(size=8)

        def f(x):
            return float(np.sum(c * relu(x))), c * (x > 0)

        x = rng.normal(size=8)
        x[np.abs(x) < 1e-3] += 0.1  # keep clear of the kink
        assert grad_check(f, x) < 1e-6

    def test_sigmoid_gradient(self, rng):
        c = rng.normal(size=8)

        def f(x):
            y = sigmoid(x)
            return float(np.sum(c * y)), c * y * (1 - y)

        assert grad_check(f, rng.normal(size=8)) < 1e-6
