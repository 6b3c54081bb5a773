import numpy as np

from emireg.tensor import relu, sigmoid

from oracles import grad_check


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_range_and_stability(self):
        x = np.array([-1000.0, -30.0, 0.0, 30.0, 1000.0])
        y = sigmoid(x)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)
        assert np.all(np.isfinite(y))

    def test_relu(self):
        out = relu(np.array([-3.0, 3.0]))
        assert out[0] == 0.0 and out[1] == 3.0

    def test_in_place_pass_gives_the_allocating_bytes(self):
        x = np.array([[-1000.0, -30.0, -0.5, -0.0], [0.0, 0.25, 30.0, 1000.0]])
        want = relu(x)
        y = x.copy()
        assert relu(y, out=y) is y
        assert y.tobytes() == want.tobytes()


class TestGradCheck:
    def test_quadratic_is_exact(self):
        def f(x):
            return float(x[0] ** 2), np.array([2.0 * x[0]])

        err = grad_check(f, np.array([3.0]))
        assert err < 1e-9

    def test_constant_function(self):
        def f(x):
            return 7.0, np.zeros_like(x)

        assert grad_check(f, np.array([1.0, 2.0])) == 0.0

    def test_detects_wrong_gradient(self):
        def f(x):
            return float(x[0] ** 2), np.array([3.0 * x[0]])  # wrong slope

        assert grad_check(f, np.array([3.0])) > 0.1

    def test_multivariate(self, rng):
        a = rng.normal(size=5)

        def f(x):
            return float(np.sum(a * x**3)), 3.0 * a * x**2

        assert grad_check(f, rng.normal(size=5)) < 1e-8

    def test_does_not_mutate_input(self):
        x = np.array([1.0, 2.0])
        snapshot = x.copy()

        def f(v):
            return float(np.sum(v)), np.ones_like(v)

        grad_check(f, x)
        assert np.array_equal(x, snapshot)
