"""The benchmark's span contract, checked on a tiny run.

``bench/probes.py`` wraps emireg functions by name, and a traced benchmark
run fails when one of its ``REQUIRED_SPANS`` recorded no call. Here its
probes watch a small train, evaluate and predict, so a change that stops
calling a traced function (the data path's ``load_split``, ``make_batches``,
``read_feature_file`` and ``adaptive_avg_pool`` among them) fails the test
suite too. Both bench modules are loaded from their files; nothing under
``bench/`` is changed.
"""

import importlib.util
import sys
from pathlib import Path

from emireg.data import MANIFEST_NAME
from emireg.train import evaluate_checkpoint, predict_checkpoint, train

from support import small_config

BENCH = Path(__file__).resolve().parents[1] / "bench"
# spans the benchmark's workload opens around its own calls
OPENED_BY_THE_WORKLOAD = ("train", "evaluate_checkpoint", "predict_checkpoint")


def load_bench_module(name, monkeypatch):
    """Import ``bench/<name>.py`` from its path as the top-level module ``name``."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # probes imports spans by name
    spec.loader.exec_module(module)
    return module


def test_every_required_span_records_a_call(small_dataset, tmp_path, monkeypatch):
    spans = load_bench_module("spans", monkeypatch)
    probes = load_bench_module("probes", monkeypatch)
    cfg = small_config(small_dataset, tmp_path / "run", epochs=2)
    ckpt = tmp_path / "run" / "best.emic"
    tracer = spans.Tracer(probes.PACKAGE)
    probes.Probes(tracer).install()
    try:
        train(cfg)
        evaluate_checkpoint(cfg, ckpt, "val")
        predict_checkpoint(cfg, ckpt, Path(small_dataset) / MANIFEST_NAME, "test")
    finally:
        tracer.restore()
    recorded = spans.aggregate(tracer.spans)
    expected = [s for s in probes.REQUIRED_SPANS if s not in OPENED_BY_THE_WORKLOAD]
    assert [s for s in expected if s not in recorded] == []
    # the files are read while their split is pooled, not when it is loaded
    reads = [s for s in tracer.spans if s.name == "data.read_feature_file"]
    assert {tracer.spans[s.parent].name for s in reads} == {"data.make_batches"}
