"""Training orchestration: epochs, EMA evaluation, early stopping, ablation.

A run is fully determined by (config, seed, dataset): batch order, dropout
masks, and initialization all derive from the config seed, logs carry no
timestamps, and checkpoints serialize in a fixed order, so two runs of the
same config are bit-identical.

What a run keeps resident: each split's pooled blocks and targets, held by
its manifest-order batches (the raw sequences are freed once pooled, before
the run directory is made), the model's flat parameter and gradient vectors,
the AdamW moments and the EMA shadows, one shuffled batch at a time, and
between a training forward and its backward one record of the pass, the
model's only per-call state: its outputs, and per branch one
``[batch x align x hidden]`` array and a one-byte keep-mask.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import data
from .errors import ConfigError, DataError, EmiregError, NumericError
from .losses import CORR_MODES, DEFAULT_CORR_EPS, LossWeights, total_loss
from .metrics import EarlyStopper, EvalReport, mean_pcc
from .model import ACTIVATIONS, FUSION_MODES, OUTPUT_ACTIVATIONS, Model, fused_width
from .optim import AdamW, Ema, clip_global_norm, cosine_lr
from .schema import MODALITIES
from .tensor import Array, seeded_rng

EMA_PREFIX = "ema/"
CADENCES = ("epoch", "step")

# config field -> the values it accepts; validation and the CLI read this
CHOICES = {
    "fusion": FUSION_MODES,
    "corr_mode": CORR_MODES,
    "hidden_activation": tuple(ACTIVATIONS),
    "output_activation": OUTPUT_ACTIVATIONS,
    "lr_cadence": CADENCES,
    "ema_cadence": CADENCES,
}

_SHUFFLE_STREAM = 0x5841

# a field's annotation -> the types its value may have; validation rejects
# any other type and never coerces, so a valid config keeps its bytes
_FIELD_TYPES = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
    "str | None": (str, type(None)),
    "dict[str, int] | None": (dict, type(None)),
}


def _has_type(value, allowed: tuple) -> bool:
    """``isinstance``, except that a bool is not a number here."""
    return isinstance(value, allowed) and (bool in allowed or not isinstance(value, bool))


@dataclass
class TrainConfig:
    """Every knob of a run; serializable and hashable for reproducibility."""

    dims: dict[str, int] | None = None
    data_dir: str | None = None
    run_dir: str | None = None
    hidden_dim: int = 256
    dropout: float = 0.2
    batch_size: int = 32
    lr: float = 1e-4
    weight_decay: float = 1e-4
    epochs: int = 30
    patience: int = 8
    clip_norm: float = 1.0
    ema_decay: float = 0.999
    align_len: int = 128
    fusion: str = "concat"
    vad_enabled: bool = True
    lambda_corr: float = LossWeights.corr
    lambda_aux: float = LossWeights.aux
    lambda_vad: float = LossWeights.vad
    lambda_visual: float = LossWeights.aux_visual
    lambda_audio: float = LossWeights.aux_audio
    lambda_text: float = LossWeights.aux_text
    corr_mode: str = "per_dim"
    corr_eps: float = DEFAULT_CORR_EPS
    hidden_activation: str = "relu"
    output_activation: str = "sigmoid"
    lr_cadence: str = "epoch"
    ema_cadence: str = "step"
    eta_min: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, _FIELD_TYPES[f.type]):
                raise ConfigError(
                    f"{f.name} must be {f.type}, got {type(value).__name__} {value!r}"
                )
        if self.dims is None or set(self.dims) != set(MODALITIES):
            raise ConfigError(f"dims must map {MODALITIES} to positive sizes")
        for m, d in self.dims.items():
            if not _has_type(d, (int,)) or d < 1:
                raise ConfigError(f"dims: {m} must be a positive int, got {d!r}")
        positive = {
            "hidden_dim": self.hidden_dim,
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "patience": self.patience,
            "align_len": self.align_len,
        }
        for name, value in positive.items():
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        nonnegative = {
            "lr": self.lr,
            "weight_decay": self.weight_decay,
            "clip_norm": self.clip_norm,
            "eta_min": self.eta_min,
            "corr_eps": self.corr_eps,
        }
        for name, value in nonnegative.items():
            if not np.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ConfigError(f"ema_decay must be in [0, 1], got {self.ema_decay}")
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"unknown {name} {value!r}, expected one of {allowed}")
        self.loss_weights()  # validates non-negativity
        # numpy refuses an array of more than intp's maximum bytes; the
        # projections and the fusion layer hold the widest weights
        widths = {f"{m}.proj": self.dims[m] for m in MODALITIES}
        widths["fusion.hidden"] = fused_width(self.hidden_dim, self.fusion)
        for name, width in widths.items():
            if self.hidden_dim * width * 8 > np.iinfo(np.intp).max:
                raise ConfigError(
                    f"{name} weight [{self.hidden_dim} x {width}] is too large to represent"
                )

    def loss_weights(self) -> LossWeights:
        return LossWeights(
            corr=self.lambda_corr,
            aux=self.lambda_aux,
            vad=self.lambda_vad,
            aux_visual=self.lambda_visual,
            aux_audio=self.lambda_audio,
            aux_text=self.lambda_text,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        if not isinstance(payload, dict):
            raise ConfigError(
                f"config must be a JSON object, got {type(payload).__name__}"
            )
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def config_hash(self) -> str:
        # run_dir names the output location, not the experiment
        payload = self.to_dict()
        payload.pop("run_dir")
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def build_model(self, init: bool = True) -> Model:
        """The configured model; without ``init`` it draws nothing.

        Then every parameter starts at zero and the caller must set every
        value, as a checkpoint load does.
        """
        return Model(
            dims=self.dims,
            hidden_dim=self.hidden_dim,
            fusion=self.fusion,
            vad_enabled=self.vad_enabled,
            dropout=self.dropout,
            hidden_activation=self.hidden_activation,
            output_activation=self.output_activation,
            align_len=self.align_len,
            seed=self.seed if init else None,
        )


@dataclass
class RunRecord:
    """What one training run produced, step by step.

    Its ``stop_reason`` is ``completed`` or ``early_stopping``: ``train``
    raises a numeric failure instead of returning a record.
    """

    config_hash: str
    run_dir: str
    steps: list[dict] = field(default_factory=list)
    evals: list[EvalReport] = field(default_factory=list)
    best_epoch: int = 0
    best_p_mean: float = float("-inf")
    stop_reason: str = ""


def _checkpoint_tensors(model: Model, ema: Ema) -> dict[str, Array]:
    tensors: dict[str, Array] = {}
    for name, p in model.parameters().items():
        tensors[name] = p.value
    for name, shadow in ema.shadows.items():
        tensors[EMA_PREFIX + name] = shadow
    return tensors


def _forward_batches(
    model: Model, batches: data.Batches
) -> tuple[list[str], Array, Array, Array]:
    """Eval-mode forward over batches: ids, predictions, logits and targets, in order."""
    ids, preds, logits, targets = [], [], [], []
    for batch in batches:
        out = model.forward(batch.features, train=False)
        ids.extend(batch.ids)
        preds.append(out.y_hat)
        logits.append(out.y_logits)
        targets.append(batch.targets)
    return ids, np.concatenate(preds), np.concatenate(logits), np.concatenate(targets)


def _score(preds: Array, targets: Array) -> EvalReport:
    """The metric over the rows whose targets are not all ``data.SENTINEL_TARGET``."""
    keep = ~np.all(targets == data.SENTINEL_TARGET, axis=1)
    scored = int(np.count_nonzero(keep))
    if scored < 2:
        raise DataError(
            f"evaluation split has {scored} row(s) without sentinel targets; "
            "the metric needs at least 2"
        )
    return mean_pcc(preds[keep], targets[keep])


def _eval_with_values(model: Model, values: Array, batches: data.Batches) -> EvalReport:
    """Score ``batches`` with the flat parameter vector ``values`` swapped in."""
    flat = model.parameters().value
    saved = flat.copy()
    flat[...] = values
    try:
        _, preds, _, targets = _forward_batches(model, batches)
        return _score(preds, targets)
    finally:
        flat[...] = saved


def _split_batches(config: TrainConfig, manifest_path, split: str) -> data.Batches:
    """One split's batches in manifest order.

    No name holds the split: the batches keep only its pooled blocks, so the
    raw sequences and their file mappings are freed once it is pooled.
    """
    return data.make_batches(
        data.load_split(manifest_path, split, config.dims),
        config.batch_size,
        config.align_len,
        shuffle=False,
    )


def train(config: TrainConfig) -> RunRecord:
    """Run the full recipe; writes config.json, log.jsonl, best/last checkpoints.

    A ``NumericError`` from a training step or an EMA evaluation is logged as
    an ``abort`` record, then the ``end`` record (``non_finite_loss``), and is
    raised once the log is closed; best/last stay the last completed epoch's.
    """
    config.validate()
    if config.data_dir is None:
        raise ConfigError("config.data_dir is required for training")
    if config.run_dir is None:
        raise ConfigError("config.run_dir is required for training")
    manifest = Path(config.data_dir) / data.MANIFEST_NAME
    train_batches = _split_batches(config, manifest, "train")
    val_batches = _split_batches(config, manifest, "val")
    if val_batches.n_samples < 2:
        raise DataError(
            f"val split has {val_batches.n_samples} row(s); the metric needs at least 2"
        )
    model = config.build_model()
    weights = config.loss_weights()
    optimizer = AdamW(model.parameters(), weight_decay=config.weight_decay)
    ema = Ema(model.parameters(), config.ema_decay)
    # only a run whose data loaded and whose model was built gets a directory
    run_dir = Path(config.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "config.json", "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    stopper = EarlyStopper(config.patience)
    record = RunRecord(config_hash=config.config_hash(), run_dir=str(run_dir))

    total_steps = len(train_batches) * config.epochs
    global_step = 0
    log_path = run_dir / "log.jsonl"
    with open(log_path, "w") as log:

        def emit(payload: dict) -> None:
            log.write(json.dumps(payload, sort_keys=True) + "\n")
            log.flush()

        record.stop_reason = "completed"
        failure = None
        try:
            for epoch in range(1, config.epochs + 1):
                lr = cosine_lr(epoch - 1, config.epochs, config.lr, config.eta_min)
                batches = train_batches.shuffled(seeded_rng(config.seed, _SHUFFLE_STREAM, epoch))
                for batch in batches:
                    if config.lr_cadence == "step":
                        lr = cosine_lr(global_step, total_steps, config.lr, config.eta_min)
                    model.zero_grads()
                    outputs = model.forward(batch.features, train=True)
                    breakdown, grads = total_loss(
                        outputs.y_hat,
                        batch.targets,
                        outputs.aux,
                        outputs.v_hat,
                        weights,
                        corr_eps=config.corr_eps,
                        corr_mode=config.corr_mode,
                    )
                    model.backward(grads.y_hat, grads.aux, grads.v_hat)
                    factor, norm = clip_global_norm(model.parameters(), config.clip_norm)
                    optimizer.step(lr)
                    if config.ema_cadence == "step":
                        ema.update()
                    global_step += 1
                    step_payload = {
                        "type": "step",
                        "epoch": epoch,
                        "step": global_step,
                        "lr": lr,
                        "batch": len(batch),
                        "grad_norm": norm,
                        "clip_factor": factor,
                        **breakdown.to_dict(),
                    }
                    record.steps.append(step_payload)
                    emit(step_payload)
                if config.ema_cadence == "epoch":
                    ema.update()

                report = _eval_with_values(model, ema.value, val_batches)
                record.evals.append(report)
                emit({"type": "eval", "epoch": epoch, "ema": True, **report.to_dict()})

                data.save_checkpoint(run_dir / "last.emic", _checkpoint_tensors(model, ema))
                improved, stop = stopper.update(report.p_mean)
                if improved:
                    data.save_checkpoint(
                        run_dir / "best.emic", _checkpoint_tensors(model, ema)
                    )
                if stop:
                    record.stop_reason = "early_stopping"
                    break
        except NumericError as exc:
            # keep the last-good checkpoints; raise once the log is closed
            failure = exc
            record.stop_reason = "non_finite_loss"
            emit({"type": "abort", "epoch": epoch, "step": global_step, "error": str(exc)})

        record.best_epoch = stopper.best_epoch
        record.best_p_mean = stopper.best
        emit(
            {
                "type": "end",
                "best_epoch": record.best_epoch,
                "best_p_mean": record.best_p_mean,
                "epochs_run": stopper.epoch,
                "stop_reason": record.stop_reason,
                "config_hash": record.config_hash,
            }
        )
    if failure is not None:
        raise failure
    return record


# -- checkpoint evaluation ------------------------------------------------------


def split_checkpoint(tensors: dict[str, Array]) -> tuple[dict, dict]:
    """Separate a checkpoint's raw parameters from its EMA shadows (prefix removed)."""
    raw = {k: v for k, v in tensors.items() if not k.startswith(EMA_PREFIX)}
    shadows = {
        k[len(EMA_PREFIX) :]: v for k, v in tensors.items() if k.startswith(EMA_PREFIX)
    }
    return raw, shadows


def load_model_from_checkpoint(
    config: TrainConfig, ckpt_path, use_ema: bool = True
) -> Model:
    tensors = data.load_checkpoint(ckpt_path)
    raw, shadows = split_checkpoint(tensors)
    # set_values below writes every parameter and rejects a missing one
    model = config.build_model(init=False)
    if use_ema:
        if not shadows:
            raise DataError(f"{ckpt_path}: checkpoint carries no EMA shadows")
        model.set_values(shadows)
    else:
        model.set_values(raw)
    return model


def _checkpoint_forward(
    config: TrainConfig, ckpt_path, manifest_path, split: str, use_ema: bool
) -> tuple[list[str], Array, Array, Array]:
    """Load a checkpoint and run it over one split in manifest order.

    The raw sequences are freed before the forward pass (see ``_split_batches``).
    """
    if split not in data.SPLITS:
        raise ConfigError(f"unknown split {split!r}, expected one of {data.SPLITS}")
    model = load_model_from_checkpoint(config, ckpt_path, use_ema=use_ema)
    return _forward_batches(model, _split_batches(config, manifest_path, split))


def evaluate_checkpoint(
    config: TrainConfig, ckpt_path, split: str, use_ema: bool = True
) -> EvalReport:
    """Eval-mode pass over a split in manifest order with chosen weights."""
    if config.data_dir is None:
        raise ConfigError("config.data_dir is required for evaluation")
    manifest = Path(config.data_dir) / data.MANIFEST_NAME
    _, preds, _, targets = _checkpoint_forward(config, ckpt_path, manifest, split, use_ema)
    return _score(preds, targets)


def predict_checkpoint(
    config: TrainConfig,
    ckpt_path,
    manifest_path,
    split: str,
    use_ema: bool = True,
    raw_logits: bool = False,
) -> tuple[list[str], Array]:
    """Predictions for one split in manifest order."""
    ids, preds, logits, _ = _checkpoint_forward(
        config, ckpt_path, manifest_path, split, use_ema
    )
    return ids, logits if raw_logits else preds


# -- ablation grid ----------------------------------------------------------------


ABLATION_CELLS = [
    (objective, vad, fusion)
    for objective in ("mse", "multi")
    for vad in (False, True)
    for fusion in ("average", "concat")
]


def cell_config(base: TrainConfig, objective: str, vad: bool, fusion: str) -> TrainConfig:
    """Derive one ablation cell: 'mse' zeroes the extra objective weights."""
    cfg = replace(base, fusion=fusion, vad_enabled=vad)
    if objective == "mse":
        cfg = replace(cfg, lambda_corr=0.0, lambda_aux=0.0)
    if not vad:
        cfg = replace(cfg, lambda_vad=0.0)
    return cfg


def cell_name(objective: str, vad: bool, fusion: str) -> str:
    return f"{objective}_{'vad' if vad else 'novad'}_{fusion}"


def ablate(base: TrainConfig, seeds: list[int] | None = None) -> tuple[list[dict], Path]:
    """Run the 2x2x2 grid {fusion} x {objective} x {vad}; write ablation.csv.

    All cells share the base seed(s) so differences reflect configuration.
    Failed cells are marked rather than sinking the whole grid; only package
    errors (EmiregError) mark a cell, any other exception propagates. A
    cell's ``error`` is the exception that failed it, or None; the CSV
    writes it as ``ErrorClass: message``.
    """
    base.validate()
    if base.run_dir is None:
        raise ConfigError("config.run_dir is required for the ablation grid")
    seeds = [base.seed] if seeds is None else list(seeds)
    if not seeds:
        raise ConfigError("ablate needs at least one seed")
    grid_dir = Path(base.run_dir)
    grid_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    for objective, vad, fusion in ABLATION_CELLS:
        name = cell_name(objective, vad, fusion)
        scores: list[float] = []
        best_epochs: list[int] = []
        error: EmiregError | None = None
        for seed in seeds:
            run_dir = grid_dir / (name if len(seeds) == 1 else f"{name}-seed{seed}")
            cfg = replace(
                cell_config(base, objective, vad, fusion),
                seed=seed,
                run_dir=str(run_dir),
            )
            try:
                record = train(cfg)
            except EmiregError as exc:
                error = exc
                break
            scores.append(record.best_p_mean)
            best_epochs.append(record.best_epoch)
        ok = error is None
        row = {
            "fusion": fusion,
            "objective": objective,
            "vad": vad,
            "p_mean": float(np.mean(scores)) if scores and ok else "",
            "p_spread": (
                float(np.max(scores) - np.min(scores)) if len(scores) > 1 and ok else ""
            ),
            "best_epoch": best_epochs[0] if best_epochs and ok else "",
            "status": "ok" if ok else "failed",
            "error": error,
        }
        rows.append(row)
    csv_path = grid_dir / "ablation.csv"
    columns = list(rows[0])
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            error = row["error"]
            text = "" if error is None else f"{type(error).__name__}: {error}"
            writer.writerow({**row, "error": text})
    return rows, csv_path
