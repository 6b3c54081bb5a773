"""Training orchestration: epochs, EMA evaluation, early stopping, ablation.

A run is fully determined by (config, seed, the dataset's bytes): batch
order, dropout masks and initialization derive from the config seed, logs
carry no timestamps or paths, and checkpoints serialize in a fixed order,
so two runs of one config on copies of one dataset are bit-identical.

What a run keeps resident: one pooled block per modality and split, with
its targets, held by the split's batches and shuffled in place each epoch;
while a split is pooled, at most one batch of raw sequences is mapped, and
none is once the blocks are built, before the run directory is made. Then
the model's flat parameter and gradient vectors, the AdamW moments and the
EMA model's values. No batch is copied: each is a view of its block's rows.
The model keeps no per-call state: a training forward's outputs carry the
record its backward reads, one gate per branch, a ``[batch x align x
hidden]`` keep-mask folded with the activation's derivative (one byte per
element under relu), and the projection inputs, views of the pooled blocks;
the step drops them once its backward returns. A checkpoint is read in
place, as a mapping of its file, and only the chosen half of it is copied,
into the model, before the split is pooled.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import data
from .errors import ConfigError, DataError, EmiregError, NumericError
from .losses import DEFAULT_CORR_EPS, total_loss
from .metrics import EarlyStopper, EvalReport, mean_pcc
from .model import ACTIVATIONS, FUSION_MODES, Model, fused_width
from .optim import AdamW, Ema, clip_global_norm, cosine_lr
from .schema import MODALITIES
from .tensor import Array, seeded_rng

EMA_PREFIX = "ema/"

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


# a number field's int must fit numpy's int64: numpy holds an int from 2**64
# on only as an object, which np.isfinite refuses, and one past float64's
# range overflows the schedule's float arithmetic
_INT64 = np.iinfo(np.int64)

# a numeric field's rule: the phrase its error message quotes -> the test
_RULES = {
    ">= 1": lambda v: v >= 1,
    ">= 0": lambda v: v >= 0,
    "finite and >= 0": lambda v: np.isfinite(v) and v >= 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}


# a key of the variants removed from configs written before -> its one value,
# every run's behaviour: ``from_dict`` drops it at that value, refuses others
_REMOVED_KEYS = {
    "corr_mode": "per_dim",
    "output_activation": "sigmoid",
    "lr_cadence": "epoch",
    "ema_cadence": "step",
}


def _flag(default, help_text: str, rule: str | None = None, choices: tuple | None = None):
    """A config field with a ``--flag`` of its own: its help and its rule or choices."""
    return field(default=default, metadata={"help": help_text, "rule": rule, "choices": choices})


@dataclass
class TrainConfig:
    """Every knob of a run; serializable and hashable for reproducibility.

    A field declared with ``_flag`` carries its own help text and either a
    rule (a key of ``_RULES``) or a tuple of choices; ``validate`` applies
    them, and the CLI gives the field a ``--flag`` with that help and those
    choices. ``dims``, ``data_dir``, ``run_dir`` and ``vad_enabled`` have
    flags of their own in the CLI. Each model and loss setting is declared
    here once: ``Model(config)`` and ``losses.total_loss(..., config)`` read
    it from the config, and neither keeps a default of its own.
    """

    dims: dict[str, int] | None = None
    data_dir: str | None = None
    run_dir: str | None = None
    hidden_dim: int = _flag(256, "hidden/fused dimension", ">= 1")
    dropout: float = _flag(0.2, "dropout ratio", "in [0, 1)")
    batch_size: int = _flag(32, "batch size", ">= 1")
    lr: float = _flag(1e-4, "initial learning rate", "finite and >= 0")
    weight_decay: float = _flag(1e-4, "decoupled weight decay", "finite and >= 0")
    epochs: int = _flag(30, "training epochs", ">= 1")
    patience: int = _flag(8, "early-stopping patience", ">= 1")
    clip_norm: float = _flag(1.0, "gradient norm clip", "finite and >= 0")
    ema_decay: float = _flag(0.999, "EMA decay", "in [0, 1]")
    align_len: int = _flag(128, "temporal alignment length", ">= 1")
    fusion: str = _flag("concat", "fusion mode", choices=FUSION_MODES)
    vad_enabled: bool = True
    lambda_corr: float = _flag(0.5, "correlation-loss weight", "finite and >= 0")
    lambda_aux: float = _flag(0.3, "auxiliary-loss weight", "finite and >= 0")
    lambda_vad: float = _flag(0.1, "VAD-regularizer weight", "finite and >= 0")
    lambda_visual: float = _flag(1.0, "visual aux sub-weight", "finite and >= 0")
    lambda_audio: float = _flag(1.0, "audio aux sub-weight", "finite and >= 0")
    lambda_text: float = _flag(1.0, "text aux sub-weight", "finite and >= 0")
    corr_eps: float = _flag(DEFAULT_CORR_EPS, "correlation-loss variance floor", "finite and >= 0")
    hidden_activation: str = _flag("relu", "hidden activation", choices=tuple(ACTIVATIONS))
    eta_min: float = _flag(0.0, "cosine schedule floor", "finite and >= 0")
    seed: int = _flag(0, "run seed", ">= 0")

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, _FIELD_TYPES[f.type]):
                raise ConfigError(
                    f"{f.name} must be {f.type}, got {type(value).__name__} {value!r}"
                )
            if _has_type(value, (int,)) and not _INT64.min <= value <= _INT64.max:
                raise ConfigError(f"{f.name} is too large to represent as a 64-bit int")
        if self.dims is None or set(self.dims) != set(MODALITIES):
            raise ConfigError(f"dims must map {MODALITIES} to positive sizes")
        for m, d in self.dims.items():
            if not _has_type(d, (int,)) or d < 1:
                raise ConfigError(f"dims: {m} must be a positive int, got {d!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            rule, choices = f.metadata.get("rule"), f.metadata.get("choices")
            if rule is not None and not _RULES[rule](value):
                raise ConfigError(f"{f.name} must be {rule}, got {value}")
            if choices is not None and value not in choices:
                raise ConfigError(f"unknown {f.name} {value!r}, expected one of {choices}")
        # numpy refuses an array of more than intp's maximum bytes; the
        # projections and the fusion layer hold the widest weights
        widths = {f"{m}.proj": self.dims[m] for m in MODALITIES}
        widths["fusion.hidden"] = fused_width(self.hidden_dim, self.fusion)
        for name, width in widths.items():
            if self.hidden_dim * width * 8 > np.iinfo(np.intp).max:
                raise ConfigError(
                    f"{name} weight [{self.hidden_dim} x {width}] is too large to represent"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainConfig":
        if not isinstance(payload, dict):
            raise ConfigError(
                f"config must be a JSON object, got {type(payload).__name__}"
            )
        payload = dict(payload)
        for key, kept in _REMOVED_KEYS.items():
            if key in payload and payload.pop(key) != kept:
                raise ConfigError(
                    f"{key} is no longer a setting: its variants were removed, and every "
                    f"run has {key} {kept!r}"
                )
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        if not Path(path).exists():
            raise DataError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:  # bad JSON or UTF-8, or an int past Python's digit limit
                raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def config_hash(self) -> str:
        """sha256 of every field but ``data_dir`` and ``run_dir``, which name locations,
        not the experiment: copies of one dataset, run into any directory, share a hash."""
        payload = self.to_dict()
        del payload["data_dir"], payload["run_dir"]
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def build_model(self, init: bool = True) -> Model:
        """The configured model; without ``init`` it draws nothing and starts at zero."""
        return Model(self, init)


@dataclass
class RunRecord:
    """What one training run produced, step by step.

    Its ``stop_reason`` is ``completed`` or ``early_stopping``: ``train``
    raises a failure instead of returning a record.
    """

    config_hash: str
    run_dir: str
    steps: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_p_mean: float = float("-inf")
    stop_reason: str = "completed"


def _checkpoint_tensors(model: Model, ema_model: Model) -> dict[str, Array]:
    tensors = {name: p.value for name, p in model.parameters().items()}
    for name, p in ema_model.parameters().items():
        tensors[EMA_PREFIX + name] = p.value
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


def _split_batches(config: TrainConfig, manifest_path, split: str) -> data.Batches:
    """One split's batches in manifest order.

    No name holds the split's samples, which hold no features: the batches
    keep only the pooled blocks.
    """
    return data.make_batches(
        data.load_split(manifest_path, split, config.dims),
        config.batch_size,
        config.align_len,
        shuffle=False,
    )


def train(config: TrainConfig) -> RunRecord:
    """Run the full recipe; writes config.json, log.jsonl, best/last checkpoints.

    An ``EmiregError`` or ``OSError`` once the log is open is logged as an
    ``abort`` record with its class and message, then the ``end`` record
    (``non_finite_loss`` for a ``NumericError``, else ``error``), and is
    raised once the log is closed, or if the log cannot take them; best/last
    stay the last completed epoch's.
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
    optimizer = AdamW(model.parameters(), weight_decay=config.weight_decay)
    # the EMA weights are a second model, scored and saved as a loaded checkpoint's
    ema_model = config.build_model(init=False)
    ema = Ema(model.parameters(), ema_model.parameters(), config.ema_decay)
    # only a run whose data loaded and whose model was built gets a directory
    run_dir = Path(config.run_dir)
    created = not run_dir.exists()
    run_dir.mkdir(parents=True, exist_ok=True)

    def write_config(fh) -> None:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    try:
        data.replace_text_file(run_dir / "config.json", write_config)
    except BaseException:  # a directory this call made goes if empty, as a default one does
        if created and not any(run_dir.iterdir()):
            run_dir.rmdir()
        raise

    stopper = EarlyStopper(config.patience)
    record = RunRecord(config_hash=config.config_hash(), run_dir=str(run_dir))

    global_step = 0
    failure = None
    try:
        with open(run_dir / "log.jsonl", "w", encoding="utf-8") as log:

            def emit(payload: dict) -> None:
                log.write(json.dumps(payload, sort_keys=True) + "\n")
                log.flush()

            try:
                for epoch in range(1, config.epochs + 1):
                    lr = cosine_lr(epoch - 1, config.epochs, config.lr, config.eta_min)
                    train_batches.shuffle(seeded_rng(config.seed, _SHUFFLE_STREAM, epoch))
                    for batch in train_batches:
                        model.zero_grads()
                        outputs = model.forward(batch.features, train=True)
                        breakdown, grads = total_loss(
                            outputs.y_hat, batch.targets, outputs.aux, outputs.v_hat, config
                        )
                        model.backward(outputs, grads.y_hat, grads.aux, grads.v_hat)
                        # the record is spent; free it before the next forward
                        del outputs, grads
                        factor, norm = clip_global_norm(model.parameters(), config.clip_norm)
                        optimizer.step(lr)
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

                    _, preds, _, targets = _forward_batches(ema_model, val_batches)
                    report = _score(preds, targets)
                    emit({"type": "eval", "epoch": epoch, "ema": True, **report.to_dict()})

                    tensors = _checkpoint_tensors(model, ema_model)
                    data.save_checkpoint(run_dir / "last.emic", tensors)
                    improved, stop = stopper.update(report.p_mean)
                    if improved:
                        data.save_checkpoint(run_dir / "best.emic", tensors)
                    if stop:
                        record.stop_reason = "early_stopping"
                        break
            except (EmiregError, OSError) as exc:
                # keep the last-good checkpoints; raise once the log is closed
                failure = exc
                numeric = isinstance(exc, NumericError)
                record.stop_reason = "non_finite_loss" if numeric else "error"
                error = {"error": str(exc), "error_class": type(exc).__name__}
                emit({"type": "abort", "epoch": epoch, "step": global_step, **error})

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
    except OSError:  # the log could not take a failure's records: raise the failure
        if failure is None:
            raise
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


def _checkpoint_forward(
    config: TrainConfig, ckpt_path, manifest_path, split: str, use_ema: bool
) -> tuple[list[str], Array, Array, Array]:
    """Run a checkpoint's raw or EMA weights over one split in manifest order.

    The checkpoint's tensors are views of its mapped file, and the model
    copies in only the chosen half; the mapping is dropped before the split
    is pooled, and the raw sequences before the forward pass (see
    ``_split_batches``).
    """
    if split not in data.SPLITS:
        raise ConfigError(f"unknown split {split!r}, expected one of {data.SPLITS}")
    raw, shadows = split_checkpoint(data.load_checkpoint(ckpt_path))
    model = config.build_model(init=False)
    if use_ema and not shadows:
        raise DataError(f"{ckpt_path}: checkpoint carries no EMA shadows")
    # set_values writes every parameter and rejects a missing one
    model.set_values(shadows if use_ema else raw)
    del raw, shadows  # unmap the checkpoint before the split is pooled
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


def ablate(base: TrainConfig, seeds: Sequence[int] | None = None) -> tuple[list[dict], Path]:
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
    seeds = [base.seed] if seeds is None else seeds
    if not seeds:
        raise ConfigError("ablate needs at least one seed")
    several = bool(seeds[1:])  # not len(), which a range past 2**63 - 1 items overflows
    grid_dir = Path(base.run_dir)
    grid_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    for objective, vad, fusion in ABLATION_CELLS:
        name = cell_name(objective, vad, fusion)
        scores: list[float] = []
        best_epochs: list[int] = []
        error: EmiregError | None = None
        for seed in seeds:
            run_dir = grid_dir / (f"{name}-seed{seed}" if several else name)
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

    def write_grid(fh) -> None:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            error = row["error"]
            text = "" if error is None else f"{type(error).__name__}: {error}"
            writer.writerow({**row, "error": text})

    data.replace_text_file(csv_path, write_grid, newline="")
    return rows, csv_path
