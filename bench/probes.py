"""Which emireg functions the traced run wraps, and the per-layer metrics.

Span names follow the module that defines each function. ``Linear`` spans
are labelled by the role the layer plays in the model it belongs to, read
from the model's public attributes, because at the reference shapes the
audio and text projections have identical shapes.
"""

from __future__ import annotations

import os
import weakref

from spans import TraceError, Tracer, aggregate, percentile, tail_percentile

PACKAGE = "emireg"
MB = 1e6
MS = 1e3

MODALITIES = ("visual", "audio", "text")
LINEAR_ROLES = tuple(f"proj.{m}" for m in MODALITIES) + ("fusion", "aux", "vad")


def _train_flag(args: tuple, kwargs: dict) -> bool:
    return bool(kwargs["train"] if "train" in kwargs else args[2])


class Probes:
    """Installs the emireg wrappers on a tracer and labels Linear layers."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def label(self, model) -> None:
        """Map each Linear of ``model`` to its role."""
        for m, layer in model.proj.items():
            self.roles[layer] = f"proj.{m}"
        for layer in model.aux_head.values():
            self.roles[layer] = "aux"
        for layer in (model.vad_head, model.inj):
            if layer is not None:
                self.roles[layer] = "vad"
        self.roles[model.fusion_hidden] = "fusion"
        self.roles[model.fusion_out] = "fusion"

    def _linear_name(self, phase: str):
        def namer(args, kwargs):
            return f"layers.linear.{self.roles.get(args[0], 'unlabelled')}.{phase}"

        return namer

    def _model_forward_name(self, args, kwargs) -> str:
        # every Linear of a model runs inside its forward first, so label here
        self.label(args[0])
        return "model.forward.train" if _train_flag(args, kwargs) else "model.forward.eval"

    def install(self) -> None:
        t = self.tracer
        t.wrap_method("Linear.forward", self._linear_name("fwd"), _linear_fwd_work)
        t.wrap_method("Linear.backward", self._linear_name("bwd"), _linear_bwd_work)
        t.wrap_method("Dropout.forward", "layers.dropout.fwd")
        t.wrap_method("Dropout.backward", "layers.dropout.bwd")
        t.wrap_method("Model.forward", self._model_forward_name)
        t.wrap_method("Model.backward", "model.backward")
        t.wrap_function("adaptive_avg_pool", "layers.adaptive_avg_pool")
        t.wrap_function("read_feature_file", "data.read_feature_file", _file_work)
        t.wrap_function("load_split", "data.load_split")
        t.wrap_function("make_batches", "data.make_batches", _batches_work)
        t.wrap_function("save_checkpoint", "data.save_checkpoint", _file_work)
        t.wrap_function("load_checkpoint", "data.load_checkpoint")
        t.wrap_function("total_loss", "losses.total_loss")
        t.wrap_function("clip_global_norm", "optim.clip_global_norm")
        t.wrap_method("AdamW.step", "optim.adamw")
        t.wrap_method("Ema.update", "optim.ema")
        t.wrap_function("mean_pcc", "metrics.mean_pcc")


def _linear_fwd_work(args, kwargs, result) -> dict:
    layer = args[0]
    return {"flop": 2.0 * result.shape[0] * layer.in_dim * layer.out_dim}


def _linear_bwd_work(args, kwargs, result) -> dict:
    layer = args[0]
    rows = args[1].shape[0]
    weight_grad = 2.0 * rows * layer.in_dim * layer.out_dim
    # the input gradient is the `upstream @ W` product; count it only if formed
    input_grad = 0.0 if result is None else 2.0 * rows * layer.in_dim * layer.out_dim
    return {"flop": weight_grad + input_grad, "input_flop": input_grad}


def _file_work(args, kwargs, result) -> dict:
    return {"bytes": float(os.path.getsize(args[0]))}


def _batches_work(args, kwargs, result) -> dict:
    copied = sum(
        sum(a.nbytes for a in b.features.values()) + b.targets.nbytes for b in result
    )
    return {"bytes": float(copied)}


# -- per-layer metrics --------------------------------------------------------

# spans every traced workload must hit at least once
REQUIRED_SPANS = (
    [f"layers.linear.{r}.{p}" for r in LINEAR_ROLES for p in ("fwd", "bwd")]
    + ["layers.dropout.fwd", "layers.dropout.bwd"]
    + ["model.forward.train", "model.forward.eval", "model.backward"]
    + ["layers.adaptive_avg_pool", "data.read_feature_file", "data.load_split"]
    + ["data.make_batches", "data.save_checkpoint", "data.load_checkpoint"]
    + ["losses.total_loss", "optim.clip_global_norm", "optim.adamw", "optim.ema"]
    + ["metrics.mean_pcc", "train", "evaluate_checkpoint", "predict_checkpoint"]
)


def _self_ms_name(span: str) -> str:
    """Metric name of a span's mean self time per call."""
    if span == "train":
        return "train.self.ms"
    head, _, phase = span.rpartition(".")
    if phase in ("fwd", "bwd"):
        return f"{head}.{phase}_ms"
    return f"{span}.ms"


PER_LAYER_SPANS = [s for s in REQUIRED_SPANS if s not in ("evaluate_checkpoint", "predict_checkpoint")]


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced run.

    Times are mean self time per call in ms and megabytes are per call.
    Pooling calls are counted per feature file read.
    """
    spans = tracer.spans
    stats = aggregate(spans)
    missing = [s for s in REQUIRED_SPANS if s not in stats]
    if missing:
        raise TraceError(f"required spans recorded no calls: {', '.join(missing)}")

    out: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER_SPANS:
        st = stats[name]
        out[_self_ms_name(name)] = (st.self_total / st.calls * MS, "ms")
    out["train.ms"] = (stats["train"].total / stats["train"].calls * MS, "ms")

    proj = [stats[f"layers.linear.proj.{m}.{p}"] for m in MODALITIES for p in ("fwd", "bwd")]
    proj_flop = sum(st.work["flop"] for st in proj)
    proj_time = sum(st.total for st in proj)
    out["layers.linear.proj.gflops"] = (proj_flop / proj_time / 1e9, "GFLOP/s")
    bwd = [stats[f"layers.linear.proj.{m}.bwd"] for m in MODALITIES]
    input_flop = sum(st.work["input_flop"] for st in bwd)
    out["layers.linear.proj.bwd_input_gflop"] = (
        input_flop / stats["model.backward"].calls / 1e9,
        "GFLOP",
    )

    pool, reads = stats["layers.adaptive_avg_pool"], stats["data.read_feature_file"]
    out["layers.adaptive_avg_pool.calls"] = (pool.calls / reads.calls, "count")
    for name, metric in (
        ("data.read_feature_file", "data.read_feature_file.mb"),
        ("data.make_batches", "data.make_batches.mb_copied"),
        ("data.save_checkpoint", "data.save_checkpoint.mb"),
    ):
        out[metric] = (stats[name].work["bytes"] / stats[name].calls / MB, "MB")

    out.update(step_metrics(spans))
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def step_times(spans) -> list[float]:
    """Gaps between consecutive train-mode forward starts inside one train call."""
    gaps: list[float] = []
    last: dict[int, float] = {}
    for s in spans:
        if s.name != "model.forward.train":
            continue
        root = _root_of(spans, s)
        if root in last:
            gaps.append(s.start - last[root])
        last[root] = s.start
    return gaps


def _root_of(spans, s) -> int:
    index = -1
    while s.parent >= 0:
        index = s.parent
        s = spans[index]
    return index


def step_metrics(spans) -> dict[str, tuple[float, str]]:
    gaps = [g * MS for g in step_times(spans)]
    tail = tail_percentile(len(gaps)) or 50
    return {
        "train.step.ms.p50": (percentile(gaps, 50), "ms"),
        "train.step.ms.tail": (percentile(gaps, tail), "ms"),
        "train.step.tail_pct": (float(tail), "pct"),
        "train.step.count": (float(len(gaps)), "count"),
    }
