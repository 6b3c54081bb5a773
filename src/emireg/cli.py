"""Command-line entry point: gen-synth, train, evaluate, predict, ablate, inspect.

Exit codes: 0 success, 1 usage/config error, 2 data or file-format error,
3 numeric failure (NaN/Inf in a training step or an EMA evaluation, which
ends ``train`` after its log is closed); ``ablate`` exits with the code of
its first failed cell's error. A command that runs out of memory, such as
``train`` asked for a model too large to allocate, prints
``emireg: out of memory: ...`` and exits 1; ``train`` builds its model
before it makes the run directory, so such a run leaves none. Diagnostics
go to stderr; machine-readable results (resolved config, eval reports) go
to stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data
from .errors import ConfigError, DataError, EmiregError, NumericError
from .schema import MODALITIES, TARGET_COLUMNS
# Use these names: the package attribute `train` is the function, not the submodule.
from .train import (
    TrainConfig,
    ablate,
    cell_name,
    evaluate_checkpoint,
    predict_checkpoint,
    split_checkpoint,
    train,
)

RUN_ROOT_ENV = "EMIREG_RUN_ROOT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# error class -> (exit code, label); the first class that matches wins
_ERROR_KINDS = (
    (ConfigError, EXIT_USAGE, "config error"),
    (NumericError, EXIT_NUMERIC, "numeric failure"),
    ((DataError, OSError), EXIT_DATA, "data error"),
    (MemoryError, EXIT_USAGE, "out of memory"),
)


def _classify(exc: Exception) -> tuple[int, str]:
    """The documented exit code and label of an error; other package errors exit 2."""
    for kind, code, label in _ERROR_KINDS:
        if isinstance(exc, kind):
            return code, label
    return EXIT_DATA, "error"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_dims(spec: str) -> dict[str, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"dims must be visual:audio:text, got {spec!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"dims must be integers, got {spec!r}") from exc
    if any(v < 1 for v in values):
        raise ConfigError(f"dims must be positive, got {spec!r}")
    return dict(zip(MODALITIES, values))


def _fresh_run_dir(root: Path, name: str) -> Path:
    """Create the first free ``name``, ``name-2``, ...; ``mkdir`` claims a name atomically."""
    candidate, suffix = root / name, 2
    while True:
        try:
            candidate.mkdir(parents=True)
            return candidate
        except FileExistsError:
            candidate, suffix = root / f"{name}-{suffix}", suffix + 1


@contextmanager
def _default_run_dir(cfg: TrainConfig, run_name: str):
    """Claim a fresh run directory if ``cfg`` names none.

    A claimed directory that a failed command left empty is removed, so the
    run leaves nothing, as a failed ``--run-dir`` run does.
    """
    claimed = None
    if cfg.run_dir is None:
        root = Path(os.environ.get(RUN_ROOT_ENV, "runs"))
        claimed = _fresh_run_dir(root, f"{run_name}-{cfg.config_hash()[:12]}")
        cfg.run_dir = str(claimed)
    try:
        yield
    except BaseException:
        if claimed is not None and not any(claimed.iterdir()):
            claimed.rmdir()
        raise


# the config fields that carry help text; each gets a flag of its own name,
# with dashes, and its help, choices and default from TrainConfig
_FLAG_FIELDS = [f for f in fields(TrainConfig) if "help" in f.metadata]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--data", help="dataset directory containing manifest.csv")
    parser.add_argument("--run-dir", help=f"run directory (default: ${RUN_ROOT_ENV} or ./runs)")
    parser.add_argument("--dims", help="feature dims as visual:audio:text")
    for f in _FLAG_FIELDS:
        choices = f.metadata["choices"]
        kind = {"choices": choices} if choices else {"type": type(f.default)}
        parser.add_argument(
            "--" + f.name.replace("_", "-"),
            dest=f.name,
            default=None,
            help=f"{f.metadata['help']} (default: {f.default})",
            **kind,
        )
    parser.add_argument(
        "--vad",
        dest="vad_enabled",
        choices=("on", "off"),
        default=None,
        help=f"VAD audio pathway (default: {'on' if TrainConfig.vad_enabled else 'off'})",
    )


def _sidecar_dims(path: Path):
    """The ``dims`` entry of a dataset sidecar; a malformed sidecar is a DataError.

    Its value is returned as read: ``TrainConfig.validate`` judges its type.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            sidecar = json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an int past Python's digit limit
            raise DataError(f"{path}: dataset sidecar is not valid JSON: {exc}") from exc
    if not isinstance(sidecar, dict) or "dims" not in sidecar:
        raise DataError(f"{path}: dataset sidecar must be a JSON object with a 'dims' key")
    return sidecar["dims"]


def _resolve_config(args) -> TrainConfig:
    """Precedence: defaults < config file < explicit flags.

    The dataset sidecar's ``dims`` apply only when neither the config file
    nor ``--dims`` gives them. ``data_dir`` is made absolute, so the
    ``config.json`` a run writes finds its data from any directory.
    """
    payload = TrainConfig().to_dict()
    if args.config:
        payload = TrainConfig.from_json(args.config).to_dict()
    if args.data:
        payload["data_dir"] = args.data
    if args.dims:
        payload["dims"] = _parse_dims(args.dims)
    # a data_dir of another type is left to validate, which names it
    data_dir = payload.get("data_dir")
    if payload.get("dims") is None and isinstance(data_dir, str) and data_dir:
        sidecar = Path(data_dir) / data.SIDECAR_NAME
        if sidecar.exists():
            payload["dims"] = _sidecar_dims(sidecar)
    for f in _FLAG_FIELDS:
        value = getattr(args, f.name)
        if value is not None:
            payload[f.name] = value
    if args.vad_enabled is not None:
        payload["vad_enabled"] = args.vad_enabled == "on"
    if args.run_dir:
        payload["run_dir"] = args.run_dir
    cfg = TrainConfig.from_dict(payload)
    cfg.validate()
    if cfg.data_dir is None:
        raise ConfigError("no dataset given: pass --data or set data_dir in --config")
    cfg.data_dir = str(Path(cfg.data_dir).resolve())
    return cfg


def _load_eval_config(args) -> TrainConfig:
    """Config for evaluate/predict: --config, else config.json beside the checkpoint."""
    if args.config:
        cfg = TrainConfig.from_json(args.config)
    else:
        sidecar = Path(args.ckpt).parent / "config.json"
        if not sidecar.exists():
            raise ConfigError(
                f"no --config given and {sidecar} does not exist"
            )
        cfg = TrainConfig.from_json(sidecar)
    if getattr(args, "data", None):
        cfg.data_dir = args.data
    if cfg.data_dir is None and not getattr(args, "manifest", None):
        raise ConfigError("no dataset given: pass --data or set data_dir in the config")
    cfg.validate()
    return cfg


def build_parser() -> _Parser:
    parser = _Parser(prog="emireg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--dims", required=True, help="feature dims as visual:audio:text")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    p.add_argument("--noise", type=float, default=0.0, help="target noise sigma (default: 0.0)")
    p.add_argument(
        "--mode",
        choices=data.SYNTHETIC_MODES,
        default="overlap",
        help="latent-to-modality assignment (default: overlap)",
    )
    p.add_argument("--out", required=True, help="output dataset directory")

    p = sub.add_parser("train", help="train a model; prints the resolved config")
    _add_config_flags(p)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint; prints a JSON report")
    p.add_argument("--ckpt", required=True, help="checkpoint file (.emic)")
    p.add_argument("--split", choices=data.SPLITS, default="val", help="split (default: val)")
    p.add_argument("--no-ema", action="store_true", help="use raw instead of EMA weights")
    p.add_argument("--config", help="config JSON (default: config.json beside the checkpoint)")
    p.add_argument("--data", help="override the dataset directory")

    p = sub.add_parser("predict", help="write a prediction CSV for a split")
    p.add_argument("--ckpt", required=True, help="checkpoint file (.emic)")
    p.add_argument("--manifest", help="manifest CSV (default: the configured dataset's)")
    p.add_argument("--split", choices=data.SPLITS, default="test", help="split (default: test)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--no-ema", action="store_true", help="use raw instead of EMA weights")
    p.add_argument("--raw", action="store_true", help="emit pre-sigmoid logits")
    p.add_argument("--config", help="config JSON (default: config.json beside the checkpoint)")
    p.add_argument("--data", help="override the dataset directory")

    p = sub.add_parser("ablate", help="run the 2x2x2 fusion/objective/VAD grid")
    _add_config_flags(p)
    p.add_argument("--seeds", type=int, default=1, help="seeds per cell (default: 1)")

    p = sub.add_parser("inspect", help="dump a checkpoint or feature-file header")
    p.add_argument("--ckpt", help="checkpoint file (.emic)")
    p.add_argument("--emif", help="feature file (.emif)")

    return parser


def _cmd_gen_synth(args) -> int:
    manifest = data.generate_synthetic(
        out_dir=args.out,
        n=args.n,
        dims=_parse_dims(args.dims),
        seed=args.seed,
        noise=args.noise,
        mode=args.mode,
    )
    print(f"wrote {args.n} samples under {Path(args.out)} (manifest: {manifest})",
          file=sys.stderr)
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    with _default_run_dir(cfg, "run"):
        print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        record = train(cfg)
    print(
        f"run {record.config_hash[:12]}: best epoch {record.best_epoch} "
        f"p_mean {record.best_p_mean:.6f} ({record.stop_reason}) -> {record.run_dir}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg = _load_eval_config(args)
    report = evaluate_checkpoint(
        cfg, args.ckpt, args.split, use_ema=not args.no_ema
    )
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def _cmd_predict(args) -> int:
    cfg = _load_eval_config(args)
    manifest = (
        Path(args.manifest)
        if args.manifest
        else Path(cfg.data_dir) / data.MANIFEST_NAME
    )
    ids, values = predict_checkpoint(
        cfg,
        args.ckpt,
        manifest,
        args.split,
        use_ema=not args.no_ema,
        raw_logits=args.raw,
    )
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    def write_rows(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", *TARGET_COLUMNS])
        for sample_id, row in zip(ids, values):
            writer.writerow([sample_id, *(repr(float(v)) for v in row)])

    data.replace_text_file(out_path, write_rows, newline="")
    print(f"wrote {len(ids)} predictions to {out_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_ablate(args) -> int:
    base = _resolve_config(args)
    # the seeds go on as a range, built lazily; ablate refuses an empty one
    if base.seed + args.seeds - 1 > np.iinfo(np.int64).max:
        raise ConfigError("--seeds: the last seed is too large to represent as a 64-bit int")
    with _default_run_dir(base, "ablation"):
        rows, csv_path = ablate(base, seeds=range(base.seed, base.seed + args.seeds))
    print(Path(csv_path).read_text(encoding="utf-8"), end="")
    print(f"grid written to {csv_path}", file=sys.stderr)
    failed = [r for r in rows if r["error"] is not None]
    if not failed:
        return EXIT_OK
    first = failed[0]
    code, label = _classify(first["error"])
    cell = cell_name(first["objective"], first["vad"], first["fusion"])
    print(
        f"emireg: {len(failed)} ablation cell(s) failed; first {cell}: "
        f"{label}: {first['error']}",
        file=sys.stderr,
    )
    return code


def _cmd_inspect(args) -> int:
    if bool(args.ckpt) == bool(args.emif):
        raise ConfigError("inspect needs exactly one of --ckpt or --emif")
    if args.emif:
        path = Path(args.emif)
        blocks = data.read_feature_file(path)
        print(f"{path}: magic {data.FEATURE_MAGIC.decode()} version {data.FEATURE_VERSION}")
        for m in MODALITIES:
            block = blocks[m]
            if block is None:
                print(f"  {m}: absent")
            else:
                print(f"  {m}: {block.shape[0]} x {block.shape[1]}")
        return EXIT_OK
    path = Path(args.ckpt)
    tensors = data.load_checkpoint(path)
    raw, shadows = split_checkpoint(tensors)
    print(f"{path}: magic {data.CHECKPOINT_MAGIC.decode()} version {data.CHECKPOINT_VERSION}")
    for name, value in tensors.items():
        print(f"  {name}: {'x'.join(str(e) for e in value.shape) or 'scalar'}")
    print(f"parameters: {sum(v.size for v in raw.values())}")
    print(f"tensors: {len(tensors)} ({len(raw)} raw, {len(shadows)} ema)")
    return EXIT_OK


_COMMANDS = {
    "gen-synth": _cmd_gen_synth,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "ablate": _cmd_ablate,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (EmiregError, OSError, MemoryError) as exc:
        code, label = _classify(exc)
        print(f"emireg: {label}: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
