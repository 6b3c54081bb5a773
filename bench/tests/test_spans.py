"""Tests for the benchmark's own logic: self time, percentile choice, wrapping.

    python3 -m pytest -q bench/tests
"""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from probes import REQUIRED_SPANS, layer_metrics, step_times  # noqa: E402
from spans import Span, TraceError, Tracer, aggregate, percentile, self_times, tail_percentile  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    tracer = Tracer("unused", clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
        with tracer.span("b"):
            pass
    names = [s.name for s in tracer.spans]
    assert names == ["root", "a", "a1", "b"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    assert self_times(tracer.spans) == [3, 2, 1, 4]


def test_aggregate_sums_calls_time_and_work():
    spans = [
        Span("op", 0.0, 4.0, -1),
        Span("leaf", 1.0, 2.0, 0, {"flop": 5.0}),
        Span("leaf", 2.0, 3.5, 0, {"flop": 7.0}),
    ]
    stats = aggregate(spans)
    assert stats["op"].calls == 1 and stats["op"].self_total == 1.5
    assert stats["leaf"].calls == 2
    assert stats["leaf"].total == stats["leaf"].self_total == 2.5
    assert stats["leaf"].work == {"flop": 12.0}


def test_out_of_order_close_is_an_error():
    tracer = Tracer("unused", clock=FakeClock(range(10)))
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(TraceError):
        tracer.close(outer)


def test_step_times_restart_in_each_train_call():
    f = "model.forward.train"
    spans = [
        Span("train", 0, 10, -1), Span(f, 1, 2, 0), Span(f, 3, 4, 0), Span(f, 7, 8, 0),
        Span("train", 20, 30, -1), Span(f, 21, 22, 4), Span(f, 25, 26, 4),
    ]
    assert step_times(spans) == [2, 4, 4]


# -- percentile choice ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
     (199, 90), (200, 95), (999, 95), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_traced_runs_collect_enough_step_times_for_a_p75_tail():
    pytest.importorskip("emireg")
    from workloads import STEP_GAPS

    assert tail_percentile(STEP_GAPS) == 75
    assert tail_percentile(STEP_GAPS - 1) == 50


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile(values[::-1], 99.9) == 100.0
    assert percentile([3.0], 50) == 3.0
    # exactly ten samples lie beyond the chosen tail percentile
    chosen = tail_percentile(len(values))
    assert sum(v > percentile(values, chosen) for v in values) == 10


# -- wrap / restore -------------------------------------------------------------------


@pytest.fixture
def fakepkg():
    """fakepkg.core defines f and C; fakepkg.train binds f and is shadowed by
    a function of the same name re-exported from the package."""
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    core = types.ModuleType("fakepkg.core")
    train_mod = types.ModuleType("fakepkg.train")
    exec("def f(x):\n    return x + 1\n\nclass C:\n    def m(self, x):\n        return 2 * x\n", core.__dict__)
    core.f.__module__ = core.C.__module__ = "fakepkg.core"
    train_mod.f = core.f
    exec("def train(x):\n    return f(x) * 10\n", train_mod.__dict__)
    train_mod.train.__module__ = "fakepkg.train"
    pkg.f, pkg.C, pkg.train = core.f, core.C, train_mod.train
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.train": train_mod}
    sys.modules.update(mods)
    yield types.SimpleNamespace(pkg=pkg, core=core, train=train_mod)
    for name in mods:
        sys.modules.pop(name, None)


def test_wrap_replaces_every_binding_and_restore_puts_back(fakepkg):
    f, m = fakepkg.core.f, fakepkg.core.C.m
    tracer = Tracer("fakepkg", clock=FakeClock(range(100)))
    assert tracer.wrap_function("f", "core.f") == 3
    tracer.wrap_method("C.m", lambda args, kwargs: f"core.C.m.{args[1]}")
    for owner in (fakepkg.pkg, fakepkg.core, fakepkg.train):
        assert owner.f is not f
    # a call through another module's own binding is traced
    assert fakepkg.train.train(1) == 20
    assert fakepkg.pkg.C().m(3) == 6
    assert [s.name for s in tracer.spans] == ["core.f", "core.C.m.3"]
    tracer.restore()
    for owner in (fakepkg.pkg, fakepkg.core, fakepkg.train):
        assert owner.f is f
    assert vars(fakepkg.core.C)["m"] is m
    fakepkg.train.train(1)
    assert len(tracer.spans) == 2


def test_resolve_sees_through_a_function_shadowing_its_submodule(fakepkg):
    tracer = Tracer("fakepkg")
    assert tracer.resolve("train") is fakepkg.train.train
    assert tracer.resolve("C.m") is vars(fakepkg.core.C)["m"]
    with pytest.raises(TraceError):
        tracer.resolve("missing")


def test_wrapper_closes_its_span_when_the_call_raises(fakepkg):
    tracer = Tracer("fakepkg", clock=FakeClock(range(100)))
    tracer.wrap_method("C.m", "m")
    with pytest.raises(TypeError):
        fakepkg.core.C().m(None)
    assert tracer.spans[0].end == 1 and tracer._stack == []
    tracer.restore()


def test_wrapper_nests_spans_and_records_work(fakepkg):
    tracer = Tracer("fakepkg", clock=FakeClock(range(100)))
    tracer.wrap_function("f", "f", lambda args, kwargs, result: {"in": args[0], "out": result})
    tracer.wrap_function("train", "train")
    assert fakepkg.pkg.train(4) == 50
    assert [(s.name, s.parent) for s in tracer.spans] == [("train", -1), ("f", 0)]
    assert tracer.spans[1].work == {"in": 4, "out": 5}
    assert self_times(tracer.spans) == [2, 1]
    tracer.restore()


def test_loop_makes_the_minimum_calls_once_time_is_up():
    pytest.importorskip("emireg")
    from workloads import Workload

    def op(wall):
        return lambda i: {"wall": wall}

    loop = Workload(None, 0, 0.0, False, Path(".")).loop
    prim, sec = loop(op(1.0), op(1.0), 0.0, 2, 5)
    assert (len(prim), len(sec)) == (2, 5)
    prim, sec = loop(op(1.0), op(1.0), 0.0, 6, 1)
    assert (len(prim), len(sec)) == (6, 1)  # no call beyond the minimums


def test_emireg_bindings_in_the_trainer_are_wrapped():
    emireg_losses = pytest.importorskip("emireg.losses")
    trainer = sys.modules["emireg.train"]  # the package attribute is the function
    original = emireg_losses.total_loss
    tracer = Tracer("emireg")
    assert tracer.wrap_function("total_loss", "losses.total_loss") >= 3
    assert trainer.total_loss is emireg_losses.total_loss is not original
    tracer.restore()
    assert trainer.total_loss is original


def test_missing_required_span_fails_loudly():
    tracer = Tracer("unused", clock=FakeClock(range(10)))
    with tracer.span(REQUIRED_SPANS[0]):
        pass
    with pytest.raises(TraceError, match="recorded no calls"):
        layer_metrics(tracer, overhead_frac=0.0)
