"""Training orchestration: epochs, EMA evaluation, early stopping, ablation.

A run is fully determined by (config, seed, dataset): batch order, dropout
masks, and initialization all derive from the config seed, logs carry no
timestamps, and checkpoints serialize in a fixed order, so two runs of the
same config are bit-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import data
from .errors import ConfigError, DataError, EmiregError, NumericError
from .losses import LossWeights, total_loss
from .metrics import EarlyStopper, EvalReport, mean_pcc
from .model import MODALITIES, Model
from .optim import AdamW, Ema, clip_global_norm, cosine_lr
from .tensor import Array

EMA_PREFIX = "ema/"

_SHUFFLE_STREAM = 0x5841


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
    lambda_corr: float = 0.5
    lambda_aux: float = 0.3
    lambda_vad: float = 0.1
    lambda_visual: float = 1.0
    lambda_audio: float = 1.0
    lambda_text: float = 1.0
    corr_mode: str = "per_dim"
    corr_eps: float = 1e-8
    hidden_activation: str = "relu"
    output_activation: str = "sigmoid"
    lr_cadence: str = "epoch"
    ema_cadence: str = "step"
    eta_min: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.dims is None or set(self.dims) != set(MODALITIES):
            raise ConfigError(f"dims must map {MODALITIES} to positive sizes")
        for m, d in self.dims.items():
            if int(d) < 1:
                raise ConfigError(f"{m} feature dim must be positive, got {d}")
        positive = {
            "hidden_dim": self.hidden_dim,
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "patience": self.patience,
            "align_len": self.align_len,
        }
        for name, value in positive.items():
            if int(value) < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        nonnegative = {
            "lr": self.lr,
            "weight_decay": self.weight_decay,
            "clip_norm": self.clip_norm,
            "eta_min": self.eta_min,
        }
        for name, value in nonnegative.items():
            if not np.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.ema_decay <= 1.0:
            raise ConfigError(f"ema_decay must be in [0, 1], got {self.ema_decay}")
        if self.fusion not in ("concat", "average"):
            raise ConfigError(f"unknown fusion mode {self.fusion!r}")
        if self.corr_mode not in ("per_dim", "flat"):
            raise ConfigError(f"unknown corr_mode {self.corr_mode!r}")
        if self.lr_cadence not in ("epoch", "step"):
            raise ConfigError(f"unknown lr_cadence {self.lr_cadence!r}")
        if self.ema_cadence not in ("epoch", "step"):
            raise ConfigError(f"unknown ema_cadence {self.ema_cadence!r}")
        self.loss_weights()  # validates non-negativity

    def loss_weights(self) -> LossWeights:
        return LossWeights(
            corr=self.lambda_corr,
            aux=self.lambda_aux,
            vad=self.lambda_vad if self.vad_enabled else 0.0,
            aux_visual=self.lambda_visual,
            aux_audio=self.lambda_audio,
            aux_text=self.lambda_text,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def config_hash(self) -> str:
        # run_dir names the output location, not the experiment
        payload = self.to_dict()
        payload.pop("run_dir")
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def build_model(self) -> Model:
        return Model(
            dims=self.dims,
            hidden_dim=self.hidden_dim,
            fusion=self.fusion,
            vad_enabled=self.vad_enabled,
            dropout=self.dropout,
            hidden_activation=self.hidden_activation,
            output_activation=self.output_activation,
            align_len=self.align_len,
            seed=self.seed,
        )


@dataclass
class RunRecord:
    """What one training run produced, step by step."""

    config_hash: str
    run_dir: str
    steps: list[dict] = field(default_factory=list)
    evals: list[EvalReport] = field(default_factory=list)
    best_epoch: int = 0
    best_p_mean: float = float("-inf")
    stop_reason: str = ""
    abort_error: str = ""  # the NumericError message behind a non_finite_loss stop


def _shuffle_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed, _SHUFFLE_STREAM, epoch]))
    )


def _checkpoint_tensors(model: Model, ema: Ema) -> dict[str, Array]:
    tensors: dict[str, Array] = {}
    for name, p in model.parameters().items():
        tensors[name] = p.value
    for name, shadow in ema.shadows.items():
        tensors[EMA_PREFIX + name] = shadow
    return tensors


def _collect_predictions(
    model: Model, batches: list[data.Batch]
) -> tuple[Array, Array, list[str]]:
    preds, targets, ids = [], [], []
    for batch in batches:
        out = model.forward(batch.features, train=False)
        preds.append(out.y_hat)
        targets.append(batch.targets)
        ids.extend(batch.ids)
    return np.concatenate(preds, axis=0), np.concatenate(targets, axis=0), ids


def _eval_report(model: Model, batches: list[data.Batch]) -> EvalReport:
    preds, targets, _ = _collect_predictions(model, batches)
    keep = ~np.all(targets == -1.0, axis=1)
    if not np.any(keep):
        raise DataError("evaluation split has only sentinel targets")
    return mean_pcc(preds[keep], targets[keep])


def _eval_with_values(
    model: Model, values: dict[str, Array], batches: list[data.Batch]
) -> EvalReport:
    saved = model.get_values()
    model.set_values(values)
    try:
        return _eval_report(model, batches)
    finally:
        model.set_values(saved)


def train(config: TrainConfig) -> RunRecord:
    """Run the full recipe; writes config.json, log.jsonl, best/last checkpoints."""
    config.validate()
    if config.data_dir is None:
        raise ConfigError("config.data_dir is required for training")
    if config.run_dir is None:
        raise ConfigError("config.run_dir is required for training")
    run_dir = Path(config.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "config.json", "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    manifest = Path(config.data_dir) / data.MANIFEST_NAME
    train_samples = data.load_split(manifest, "train", config.dims)
    val_samples = data.load_split(manifest, "val", config.dims)
    val_batches = data.make_batches(
        val_samples, config.batch_size, config.align_len, shuffle=False
    )

    model = config.build_model()
    params = model.parameters()
    weights = config.loss_weights()
    optimizer = AdamW(params, weight_decay=config.weight_decay)
    ema = Ema(params, config.ema_decay)
    stopper = EarlyStopper(config.patience)
    record = RunRecord(config_hash=config.config_hash(), run_dir=str(run_dir))

    steps_per_epoch = (len(train_samples) + config.batch_size - 1) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    global_step = 0
    log_path = run_dir / "log.jsonl"
    with open(log_path, "w") as log:

        def emit(payload: dict) -> None:
            log.write(json.dumps(payload, sort_keys=True) + "\n")
            log.flush()

        record.stop_reason = "completed"
        for epoch in range(1, config.epochs + 1):
            lr = cosine_lr(epoch - 1, config.epochs, config.lr, config.eta_min)
            batches = data.make_batches(
                train_samples,
                config.batch_size,
                config.align_len,
                shuffle=True,
                rng=_shuffle_rng(config.seed, epoch),
            )
            aborted = False
            for batch in batches:
                if config.lr_cadence == "step":
                    lr = cosine_lr(global_step, total_steps, config.lr, config.eta_min)
                model.zero_grads()
                try:
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
                    factor, norm = clip_global_norm(params, config.clip_norm)
                    optimizer.step(lr)
                except NumericError as exc:
                    # keep the last-good checkpoints; do not overwrite them
                    record.stop_reason = "non_finite_loss"
                    record.abort_error = str(exc)
                    emit(
                        {
                            "type": "abort",
                            "epoch": epoch,
                            "step": global_step,
                            "error": str(exc),
                        }
                    )
                    aborted = True
                    break
                if config.ema_cadence == "step":
                    ema.update(params)
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
            if aborted:
                break
            if config.ema_cadence == "epoch":
                ema.update(params)

            report = _eval_with_values(model, ema.shadows, val_batches)
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
    return record


# -- checkpoint evaluation ------------------------------------------------------


def _split_checkpoint(tensors: dict[str, Array]) -> tuple[dict, dict]:
    raw = {k: v for k, v in tensors.items() if not k.startswith(EMA_PREFIX)}
    shadows = {
        k[len(EMA_PREFIX) :]: v for k, v in tensors.items() if k.startswith(EMA_PREFIX)
    }
    return raw, shadows


def load_model_from_checkpoint(
    config: TrainConfig, ckpt_path, use_ema: bool = True
) -> Model:
    tensors = data.load_checkpoint(ckpt_path)
    raw, shadows = _split_checkpoint(tensors)
    model = config.build_model()
    if use_ema:
        if not shadows:
            raise DataError(f"{ckpt_path}: checkpoint carries no EMA shadows")
        model.set_values(shadows)
    else:
        model.set_values(raw)
    return model


def evaluate_checkpoint(
    config: TrainConfig, ckpt_path, split: str, use_ema: bool = True
) -> EvalReport:
    """Eval-mode pass over a split in manifest order with chosen weights."""
    if split not in data.SPLITS:
        raise ConfigError(f"unknown split {split!r}")
    model = load_model_from_checkpoint(config, ckpt_path, use_ema=use_ema)
    manifest = Path(config.data_dir) / data.MANIFEST_NAME
    samples = data.load_split(manifest, split, config.dims)
    batches = data.make_batches(
        samples, config.batch_size, config.align_len, shuffle=False
    )
    return _eval_report(model, batches)


def predict_checkpoint(
    config: TrainConfig,
    ckpt_path,
    manifest_path,
    split: str,
    use_ema: bool = True,
    raw_logits: bool = False,
) -> tuple[list[str], Array]:
    """Predictions for one split in manifest order."""
    model = load_model_from_checkpoint(config, ckpt_path, use_ema=use_ema)
    samples = data.load_split(manifest_path, split, config.dims)
    batches = data.make_batches(
        samples, config.batch_size, config.align_len, shuffle=False
    )
    preds, logits, ids = [], [], []
    for batch in batches:
        out = model.forward(batch.features, train=False)
        preds.append(out.y_hat)
        logits.append(out.y_logits)
        ids.extend(batch.ids)
    values = np.concatenate(logits if raw_logits else preds, axis=0)
    return ids, values


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
    cell's ``error`` is the exception that failed it (a non_finite_loss stop
    counts as a NumericError), or None; the CSV writes it as
    ``ErrorClass: message``.
    """
    base.validate()
    if base.run_dir is None:
        raise ConfigError("config.run_dir is required for the ablation grid")
    seeds = list(seeds) if seeds else [base.seed]
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
            if record.stop_reason == "non_finite_loss":
                error = NumericError(record.abort_error)
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
