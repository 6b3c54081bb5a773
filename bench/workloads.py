"""The workloads, their output checks and their end-to-end metrics.

Each workload is a closed loop: one caller in one process, the next call
only after the previous one returned. It calls only emireg's public
functions. All inputs come from ``generate_synthetic`` with the workload
seed, which also seeds the model and the batch order.

Every workload runs the same pipeline (train, set up, evaluate, predict);
they differ in shapes and in which operation is primary. The timed loop
interleaves the primary operation with the secondary one, which gets a
quarter of the primary's time, so that every end-to-end metric exists on
every workload.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import emireg
from emireg import TrainConfig
from probes import PACKAGE, Probes, layer_metrics
from spans import Tracer

REF_DIMS = {"visual": 512, "audio": 768, "text": 768}

SETUP_REPS = 5  # setup_s is the median of this many set-ups
MIN_REPS = 3  # timed calls per loop, however long they take
SECONDARY_SHARE = 0.25  # secondary calls take this share of the primary calls' time
STEP_GAPS = 40  # fewest step times whose p75 has MIN_BEYOND (10) samples beyond it


@dataclass(frozen=True)
class Spec:
    """Shapes, dataset size, training recipe and primary phase of one workload."""

    name: str
    primary: str  # "train": train() is timed for --seconds; "infer": evaluate+predict
    dims: dict
    hidden: int
    align: int
    batch: int
    n: int  # synthetic samples; 70% train, 15% val, 15% test
    epochs: int
    lr: float
    ema_decay: float
    eval_split: str

    def config(self, data_dir: Path, seed: int) -> TrainConfig:
        return TrainConfig(
            dims=dict(self.dims),
            data_dir=str(data_dir),
            hidden_dim=self.hidden,
            align_len=self.align,
            batch_size=self.batch,
            epochs=self.epochs,
            patience=self.epochs,
            lr=self.lr,
            ema_decay=self.ema_decay,
            seed=seed,
        )


# lr and ema_decay are raised from the paper's 1e-4 / 0.999 so that a short
# run learns: the EMA val p_mean must be clearly positive and steady across
# seeds to serve as a quality guard.
SPECS = {
    s.name: s
    for s in (
        # BLAS-bound: projection matmuls, dropout masks and pooling dominate
        Spec(
            name="train_ref", primary="train",
            dims=REF_DIMS, hidden=256, align=128, batch=32, n=150, epochs=2,
            lr=1e-3, ema_decay=0.9, eval_split="val",
        ),
        # forward only, from a checkpoint: load, pooling and eval-mode forward
        Spec(
            name="infer_ref", primary="infer",
            dims=REF_DIMS, hidden=256, align=128, batch=32, n=200, epochs=1,
            lr=2e-3, ema_decay=0.7, eval_split="train",
        ),
    )
}


def _public(name: str):
    """A public emireg function, wherever the package defines it."""
    obj = getattr(emireg, name, None)
    return obj if obj is not None else Tracer(PACKAGE).resolve(name)


# bound once, before any wrapper is installed, so the benchmark's own calls
# (set-up, output checks) never show up as spans
API = {
    name: _public(name)
    for name in (
        "generate_synthetic", "load_split", "make_batches", "load_checkpoint",
        "load_manifest", "mean_pcc", "train", "evaluate_checkpoint", "predict_checkpoint",
    )
}


@dataclass
class Ledger:
    """Operations attempted and failed; a failure is a raised call or a failed check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class Workload:
    """One invocation: set-up, a train phase, an inference phase, metrics."""

    def __init__(self, spec: Spec, seed: int, seconds: float, trace: bool, work_dir: Path):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work_dir
        self.ledger = Ledger()
        self.tracer = Tracer(PACKAGE)
        self.tracing = False
        self.overhead = 0.0
        self.samples: dict[str, list[float]] = {}  # per-call values behind each median
        self.config: TrainConfig | None = None

    def run(self) -> dict[str, tuple[float, str]]:
        spec = self.spec
        self.manifest = API["generate_synthetic"](
            self.work / "data", n=spec.n, dims=spec.dims, seed=self.seed
        )
        self.config = spec.config(self.manifest.parent, self.seed)
        # the first train() in a process is cold: it runs untimed, writes the
        # checkpoint, and gives the bytes every later run must reproduce
        ref = self.train_once(self.work / "run-ref")
        self.best_ckpt = self.work / "run-ref" / "best.emic"
        setup = [self.setup_once() for _ in range(SETUP_REPS)]

        def train_op(i: int) -> dict:
            run_dir = self.work / f"run-{i}"
            out = self.train_once(run_dir)
            for f, data in out["bytes"].items():
                self.ledger.check(data == ref["bytes"][f], f"{f} differs from the first run's")
            shutil.rmtree(run_dir)
            return out

        def infer_op(i: int) -> dict:
            return self.evaluate_and_predict(spec.eval_split)

        warm = infer_op(-1)  # untimed: inference is timed warm
        # a traced run needs enough train() calls for a step-time tail
        train_reps = math.ceil(STEP_GAPS / max(len(ref["record"].steps) - 1, 1))
        if spec.primary == "train":
            trains, infers = self.measure(train_op, infer_op, train_reps, 1)
        else:
            infers, trains = self.measure(infer_op, train_op, 1, train_reps)

        if spec.eval_split == "val":
            self.ledger.check(
                warm["p_mean"] == ref["record"].best_p_mean,
                f"evaluate p_mean {warm['p_mean']} != logged best {ref['record'].best_p_mean}",
            )
        for c in infers:
            self.ledger.check(
                c["p_mean"] == warm["p_mean"] and c["values"] == warm["values"],
                "repeated evaluate/predict differ",
            )

        if self.trace:
            return layer_metrics(self.tracer, self.overhead)
        self.samples = {
            "setup_s": setup,
            "train_samples_per_s": [t["samples"] / t["wall"] for t in trains],
            "eval_samples_per_s": [c["n"] / c["eval_wall"] for c in infers],
            "predict_samples_per_s": [c["n"] / c["predict_wall"] for c in infers],
        }
        metrics = {
            name: (statistics.median(values), "s" if name == "setup_s" else "samples/s")
            for name, values in self.samples.items()
        }
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["val_p_mean"] = (ref["record"].best_p_mean, "pcc")
        return metrics

    # -- phases -------------------------------------------------------------------

    def loop(self, primary, secondary, seconds: float, min_prim: int, min_sec: int) -> tuple[list, list]:
        """Interleave calls of ``primary`` and ``secondary`` for ``seconds``.

        A secondary call runs whenever the secondary calls so far took less
        than SECONDARY_SHARE of the primary calls' time, so both sample the
        host over the whole window rather than in two blocks. When the time
        is up, the loop goes on until each has its minimum number of calls.
        """
        prim: list[dict] = []
        sec: list[dict] = []
        start = time.perf_counter()
        while True:
            behind = sum(r["wall"] for r in sec) < SECONDARY_SHARE * sum(r["wall"] for r in prim)
            if time.perf_counter() - start >= seconds:
                need_prim, need_sec = len(prim) < min_prim, len(sec) < min_sec
                if not (need_prim or need_sec):
                    return prim, sec
                run_sec = need_sec and (behind or not need_prim)
            else:
                run_sec = behind
            if run_sec:
                sec.append(secondary(len(sec)))
            else:
                prim.append(primary(len(prim)))

    def measure(self, primary, secondary, traced_prim: int, traced_sec: int) -> tuple[list, list]:
        """The timed loop; a traced run splits it into an untraced and a traced half.

        The traced half gives the spans and makes at least ``traced_prim``
        and ``traced_sec`` calls. The ratio of the primary calls' median
        walls in the two halves gives the tracing overhead. The calls of
        both halves are returned, for the output checks.
        """
        if not self.trace:
            return self.loop(primary, secondary, self.seconds, MIN_REPS, MIN_REPS)
        plain = self.loop(primary, secondary, self.seconds / 2, 1, 1)
        traced = self.with_tracer(
            lambda: self.loop(primary, secondary, self.seconds / 2, traced_prim, traced_sec)
        )
        med = statistics.median
        self.overhead = med(r["wall"] for r in traced[0]) / med(r["wall"] for r in plain[0]) - 1.0
        return plain[0] + traced[0], plain[1] + traced[1]

    def with_tracer(self, fn):
        """Run ``fn`` with the probes installed; the originals come back after."""
        try:
            Probes(self.tracer).install()
            self.tracing = True
            return fn()
        finally:
            self.tracing = False
            self.tracer.restore()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracing else nullcontext()

    # -- operations -----------------------------------------------------------------

    def setup_once(self) -> float:
        """Time until the first batch can run, from public calls."""
        cfg = self.config
        load_split, make_batches = API["load_split"], API["make_batches"]
        start = time.perf_counter()
        if self.spec.primary == "train":
            train_samples = load_split(self.manifest, "train", cfg.dims)
            val_samples = load_split(self.manifest, "val", cfg.dims)
            make_batches(val_samples, cfg.batch_size, cfg.align_len, shuffle=False)
            rng = np.random.default_rng(self.seed)
            make_batches(train_samples, cfg.batch_size, cfg.align_len, shuffle=True, rng=rng)
        else:
            samples = load_split(self.manifest, self.spec.eval_split, cfg.dims)
            make_batches(samples, cfg.batch_size, cfg.align_len, shuffle=False)
            API["load_checkpoint"](self.best_ckpt)
        cfg.build_model()
        return time.perf_counter() - start

    def train_once(self, run_dir: Path) -> dict:
        """One checked train() call: its record, wall time and output bytes."""
        cfg = replace(self.config, run_dir=str(run_dir))
        with self.span("train"):
            record, wall = _timed(API["train"], cfg)
        self.ledger.attempted += 1
        log = (run_dir / "log.jsonl").read_bytes()
        types = [json.loads(line)["type"] for line in log.decode().splitlines()]
        self.ledger.check("abort" not in types, f"{run_dir.name}: abort record in log.jsonl")
        self.ledger.check(record.stop_reason == "completed", f"{run_dir.name}: stop reason {record.stop_reason}")
        outputs = {"log.jsonl": log, "best.emic": (run_dir / "best.emic").read_bytes()}
        samples = sum(step["batch"] for step in record.steps)
        return {"record": record, "wall": wall, "samples": samples, "bytes": outputs}

    def evaluate_and_predict(self, split: str) -> dict:
        """One evaluate_checkpoint and one predict_checkpoint call, checked."""
        cfg = self.config
        with self.span("evaluate_checkpoint"):
            report, eval_wall = _timed(API["evaluate_checkpoint"], cfg, self.best_ckpt, split)
        self.ledger.attempted += 1
        with self.span("predict_checkpoint"):
            (ids, values), predict_wall = _timed(
                API["predict_checkpoint"], cfg, self.best_ckpt, self.manifest, split
            )
        self.ledger.attempted += 1
        rows = [r for r in API["load_manifest"](self.manifest) if r.split == split]
        ok = self.ledger.check
        ok(ids == [r.id for r in rows], f"predict ids not in manifest order on {split}")
        ok(bool(np.all(np.isfinite(values))), "predict values not finite")
        ok(bool(np.all((values >= 0.0) & (values <= 1.0))), "predict values outside [0, 1]")
        targets = np.stack([r.target for r in rows])
        keep = ~np.all(targets == -1.0, axis=1)
        recomputed = API["mean_pcc"](values[keep], targets[keep]).p_mean
        ok(recomputed == report.p_mean, f"mean_pcc of predictions {recomputed} != evaluate p_mean {report.p_mean}")
        return {
            "n": len(rows),
            "p_mean": report.p_mean,
            "values": values.tobytes(),
            "eval_wall": eval_wall,
            "predict_wall": predict_wall,
            "wall": eval_wall + predict_wall,
        }
