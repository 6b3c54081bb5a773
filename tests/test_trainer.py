import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from emireg.data import MANIFEST_NAME, ManifestRow, write_feature_file, write_manifest
from emireg.cli import main
from emireg.errors import ConfigError, DataError, NumericError
from emireg.optim import cosine_lr
from emireg.train import (
    ABLATION_CELLS,
    RunRecord,
    TrainConfig,
    ablate,
    cell_config,
    evaluate_checkpoint,
    predict_checkpoint,
    train,
)

from support import SMALL_DIMS, small_config


def read_log(run_dir):
    return [json.loads(line) for line in (Path(run_dir) / "log.jsonl").read_text().splitlines()]


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = small_config(tmp_path / "d", tmp_path / "r", seed=5)
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump(cfg.to_dict(), fh)
        back = TrainConfig.from_json(path)
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()

    def test_hash_ignores_run_dir_only(self, tmp_path):
        a = small_config(tmp_path / "d", tmp_path / "r1")
        b = small_config(tmp_path / "d", tmp_path / "r2")
        c = small_config(tmp_path / "d", tmp_path / "r1", seed=99)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"dims": SMALL_DIMS, "warmup": 5})

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, tmp_path, epochs=0).validate()
        with pytest.raises(ConfigError):
            small_config(tmp_path, tmp_path, dropout=1.0).validate()
        with pytest.raises(ConfigError):
            small_config(tmp_path, tmp_path, fusion="gated").validate()
        with pytest.raises(ConfigError):
            TrainConfig(dims=None).validate()

    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert cfg.hidden_dim == 256
        assert cfg.dropout == 0.2
        assert cfg.batch_size == 32
        assert cfg.lr == 1e-4
        assert cfg.weight_decay == 1e-4
        assert cfg.epochs == 30
        assert cfg.patience == 8
        assert cfg.clip_norm == 1.0
        assert cfg.ema_decay == 0.999
        assert cfg.align_len == 128


class TestTrainLoop:
    def test_loss_decreases_and_layout(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=10, seed=42)
        record = train(cfg)
        run_dir = Path(record.run_dir)
        for artifact in ("config.json", "log.jsonl", "best.emic", "last.emic"):
            assert (run_dir / artifact).exists()
        first_epoch = [s["total"] for s in record.steps if s["epoch"] == 1]
        last_epoch = [s["total"] for s in record.steps if s["epoch"] == 10]
        assert np.mean(last_epoch) < np.mean(first_epoch)
        assert record.stop_reason == "completed"
        assert len(record.evals) == 10

    def test_determinism_bit_identical(self, small_dataset, tmp_path):
        runs = []
        for name in ("a", "b"):
            cfg = small_config(small_dataset, tmp_path / name, epochs=3, seed=42)
            runs.append(train(cfg))
        log_a = (Path(runs[0].run_dir) / "log.jsonl").read_bytes()
        log_b = (Path(runs[1].run_dir) / "log.jsonl").read_bytes()
        assert log_a == log_b
        for ckpt in ("best.emic", "last.emic"):
            assert (Path(runs[0].run_dir) / ckpt).read_bytes() == (
                Path(runs[1].run_dir) / ckpt
            ).read_bytes()
        assert [r.to_dict() for r in runs[0].evals] == [
            r.to_dict() for r in runs[1].evals
        ]

    def test_best_epoch_is_argmax(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=5)
        record = train(cfg)
        scores = [r.p_mean for r in record.evals]
        assert record.best_epoch == int(np.argmax(scores)) + 1
        assert record.best_p_mean == max(scores)

    def test_early_stopping_with_frozen_params(self, small_dataset, tmp_path):
        # lr 0 freezes the model, so the metric never improves after epoch 1
        cfg = small_config(
            small_dataset, tmp_path / "run", epochs=6, lr=0.0, patience=1
        )
        record = train(cfg)
        assert record.stop_reason == "early_stopping"
        assert record.best_epoch == 1
        assert len(record.evals) == 2

    def test_lr_follows_epoch_cosine(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=4, lr=1e-3)
        record = train(cfg)
        for step in record.steps:
            expected = cosine_lr(step["epoch"] - 1, 4, 1e-3, 0.0)
            assert step["lr"] == expected

    def test_step_cosine_cadence(self, small_dataset, tmp_path):
        cfg = small_config(
            small_dataset, tmp_path / "run", epochs=2, lr=1e-3, lr_cadence="step"
        )
        record = train(cfg)
        lrs = [s["lr"] for s in record.steps]
        assert lrs[0] == 1e-3
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_clipping_fires_iff_norm_exceeds(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=2, clip_norm=0.01)
        record = train(cfg)
        fired = 0
        for step in record.steps:
            if step["grad_norm"] > cfg.clip_norm:
                assert step["clip_factor"] == cfg.clip_norm / step["grad_norm"]
                fired += 1
            else:
                assert step["clip_factor"] == 1.0
        assert fired > 0

    def test_breakdown_recomposes_in_log(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=2)
        record = train(cfg)
        for step in record.steps:
            recomposed = (
                step["mse"]
                + cfg.lambda_corr * step["corr"]
                + cfg.lambda_aux * step["aux"]
                + cfg.lambda_vad * step["vad"]
            )
            assert abs(step["total"] - recomposed) < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_aborts_with_last_good_checkpoint(
        self, small_dataset, tmp_path
    ):
        # an absurd learning rate with weight decay compounds multiplicatively
        # until parameters overflow; the run must stop, not mask it
        cfg = small_config(
            small_dataset, tmp_path / "run", epochs=30, lr=1e12, patience=30
        )
        record = train(cfg)
        assert record.stop_reason == "non_finite_loss"
        log = read_log(record.run_dir)
        assert log[-2]["type"] == "abort"
        assert record.abort_error == log[-2]["error"] != ""
        assert log[-1]["type"] == "end"

    def test_zero_weights_match_mse_cell_config(self, small_dataset, tmp_path):
        # the ablation's 'mse' objective must be exactly the zero-weight run
        explicit = small_config(
            small_dataset,
            tmp_path / "a",
            epochs=2,
            lambda_corr=0.0,
            lambda_aux=0.0,
            lambda_vad=0.0,
            vad_enabled=False,
        )
        base = small_config(small_dataset, tmp_path / "unused", epochs=2)
        derived = cell_config(base, "mse", vad=False, fusion="concat")
        derived.run_dir = str(tmp_path / "b")
        rec_a = train(explicit)
        rec_b = train(derived)
        assert [s["mse"] for s in rec_a.steps] == [s["mse"] for s in rec_b.steps]
        assert (Path(rec_a.run_dir) / "log.jsonl").read_bytes() == (
            Path(rec_b.run_dir) / "log.jsonl"
        ).read_bytes()


class TestEvaluate:
    def test_repeatable(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=2)
        record = train(cfg)
        ckpt = Path(record.run_dir) / "best.emic"
        a = evaluate_checkpoint(cfg, ckpt, "val")
        b = evaluate_checkpoint(cfg, ckpt, "val")
        assert a.to_dict() == b.to_dict()

    def test_ema_and_raw_reports_differ(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=3)
        record = train(cfg)
        ckpt = Path(record.run_dir) / "best.emic"
        ema_report = evaluate_checkpoint(cfg, ckpt, "val", use_ema=True)
        raw_report = evaluate_checkpoint(cfg, ckpt, "val", use_ema=False)
        assert ema_report.p != raw_report.p

    def test_zero_decay_makes_ema_equal_raw(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=2, ema_decay=0.0)
        record = train(cfg)
        ckpt = Path(record.run_dir) / "last.emic"
        ema_report = evaluate_checkpoint(cfg, ckpt, "val", use_ema=True)
        raw_report = evaluate_checkpoint(cfg, ckpt, "val", use_ema=False)
        assert ema_report.to_dict() == raw_report.to_dict()

    def test_eval_matches_training_log(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=3)
        record = train(cfg)
        ckpt = Path(record.run_dir) / "last.emic"
        report = evaluate_checkpoint(cfg, ckpt, "val", use_ema=True)
        assert report.p_mean == record.evals[-1].p_mean

    def test_missing_split_errors(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=1)
        record = train(cfg)
        with pytest.raises(ConfigError):
            evaluate_checkpoint(cfg, Path(record.run_dir) / "best.emic", "holdout")


class TestPredict:
    def test_row_count_and_range(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=2)
        record = train(cfg)
        manifest = Path(cfg.data_dir) / MANIFEST_NAME
        ids, values = predict_checkpoint(
            cfg, Path(record.run_dir) / "best.emic", manifest, "test"
        )
        assert len(ids) == 18  # 15% of 120
        assert values.shape == (18, 6)
        assert np.all(values > 0.0) and np.all(values < 1.0)

    def test_raw_logits_differ(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=1)
        record = train(cfg)
        manifest = Path(cfg.data_dir) / MANIFEST_NAME
        _, probs = predict_checkpoint(
            cfg, Path(record.run_dir) / "best.emic", manifest, "val"
        )
        _, logits = predict_checkpoint(
            cfg, Path(record.run_dir) / "best.emic", manifest, "val", raw_logits=True
        )
        assert not np.array_equal(probs, logits)
        np.testing.assert_allclose(1 / (1 + np.exp(-logits)), probs, atol=1e-12)


class TestAblate:
    def test_grid_structure_and_order(self, small_dataset, tmp_path):
        base = small_config(small_dataset, tmp_path / "grid", epochs=1)
        rows, csv_path = ablate(base)
        assert len(rows) == 8
        assert [(r["objective"], r["vad"], r["fusion"]) for r in rows] == ABLATION_CELLS
        # the published ablation ordering survives as a subsequence:
        # baseline/average, baseline/concat, +multi-objective, +multi+vad
        key_rows = [rows[0], rows[1], rows[5], rows[7]]
        assert [(r["fusion"], r["objective"], r["vad"]) for r in key_rows] == [
            ("average", "mse", False),
            ("concat", "mse", False),
            ("concat", "multi", False),
            ("concat", "multi", True),
        ]
        lines = Path(csv_path).read_text().splitlines()
        assert len(lines) == 9
        assert lines[0] == "fusion,objective,vad,p_mean,p_spread,best_epoch,status,error"
        assert all(r["status"] == "ok" for r in rows)
        assert all(isinstance(r["p_mean"], float) for r in rows)

    def test_cells_share_init_for_shared_params(self, small_dataset, tmp_path):
        # name-keyed init: the concat cells differ from each other only via
        # config, and vad-free cells share every non-vad parameter
        base = small_config(small_dataset, tmp_path / "grid", epochs=1)
        on = cell_config(base, "multi", vad=True, fusion="concat").build_model()
        off = cell_config(base, "multi", vad=False, fusion="concat").build_model()
        for name, p in off.parameters().items():
            assert np.array_equal(p.value, on.parameters()[name].value)

    def test_multi_seed_spread(self, small_dataset, tmp_path):
        base = small_config(small_dataset, tmp_path / "grid", epochs=1)
        rows, _ = ablate(base, seeds=[1, 2])
        assert all(isinstance(r["p_spread"], float) for r in rows)

    def test_only_package_errors_mark_a_cell(
        self, small_dataset, tmp_path, monkeypatch, capsys
    ):
        # `emireg.train` as an attribute path resolves to the re-exported
        # function, so the trainer module is patched through sys.modules
        trainer = sys.modules["emireg.train"]
        real_train = trainer.train

        def buggy_train(cfg):
            raise NameError("name 'training' is not defined")

        monkeypatch.setattr(trainer, "train", buggy_train)
        base = small_config(small_dataset, tmp_path / "bug", epochs=1)
        with pytest.raises(NameError):
            ablate(base)

        def three_cells_fail(cfg):
            name = Path(cfg.run_dir).name
            if name == "mse_novad_concat":
                return RunRecord(
                    config_hash="", run_dir=cfg.run_dir, stop_reason="non_finite_loss",
                    abort_error="non-finite values produced by linear forward",
                )
            if name == "mse_vad_average":
                raise DataError("features/s3.emif: truncated")
            if name == "multi_vad_concat":
                raise NumericError("non-finite loss")
            return real_train(cfg)

        monkeypatch.setattr(trainer, "train", three_cells_fail)
        rows, csv_path = ablate(small_config(small_dataset, tmp_path / "grid", epochs=1))
        failed = [r for r in rows if r["status"] == "failed"]
        assert [type(r["error"]) for r in failed] == [NumericError, DataError, NumericError]
        with open(csv_path, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        errors = {(r["objective"], r["vad"], r["fusion"]): r["error"] for r in csv_rows}
        assert errors.pop(("mse", "False", "concat")) == (
            "NumericError: non-finite values produced by linear forward"
        )
        assert errors.pop(("mse", "True", "average")) == "DataError: features/s3.emif: truncated"
        assert errors.pop(("multi", "True", "concat")) == "NumericError: non-finite loss"
        assert list(errors.values()) == [""] * 5
        assert [r["status"] for r in csv_rows].count("ok") == 5

        # the first failed cell's error class sets the exit code: DataError -> 2
        def data_cell_first(cfg):
            if Path(cfg.run_dir).name in ("mse_vad_average", "multi_vad_concat"):
                return three_cells_fail(cfg)
            return RunRecord(
                config_hash="", run_dir=cfg.run_dir, best_epoch=1, best_p_mean=0.5,
                stop_reason="completed",
            )

        monkeypatch.setattr(trainer, "train", data_cell_first)
        capsys.readouterr()
        code = main([
            "ablate", "--data", str(small_dataset), "--run-dir", str(tmp_path / "cli"),
            "--hidden-dim", "8", "--batch-size", "16", "--epochs", "1",
            "--align-len", "16",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert (
            "2 ablation cell(s) failed; first mse_vad_average: "
            "data error: features/s3.emif: truncated"
        ) in err


class TestRobustness:
    def test_short_sequences_and_placeholders_train(self, tmp_path, rng):
        # sequences shorter than the alignment length, one modality missing:
        # the degenerate/placeholder rules keep training numerically alive
        root = tmp_path / "ds"
        root.mkdir()
        dims = dict(SMALL_DIMS)
        rows = []
        for i in range(24):
            blocks = {
                m: rng.normal(size=(int(rng.integers(1, 8)), d))
                for m, d in dims.items()
            }
            if i % 3 == 0:
                blocks["text"] = None
            rel = f"s{i}.emif"
            write_feature_file(root / rel, blocks)
            split = "train" if i < 16 else "val"
            rows.append(
                ManifestRow(
                    id=f"s{i}",
                    split=split,
                    path=rel,
                    target=np.full(6, 0.5) if i % 2 else rng.uniform(size=6),
                )
            )
        write_manifest(root / MANIFEST_NAME, rows)
        cfg = small_config(root, tmp_path / "run", epochs=2, batch_size=5)
        record = train(cfg)
        assert record.stop_reason in ("completed", "early_stopping")
        assert all(np.isfinite(s["total"]) for s in record.steps)

    def test_constant_targets_degenerate_metric(self, tmp_path, rng):
        # all-constant targets leave every metric column degenerate but alive
        root = tmp_path / "ds"
        root.mkdir()
        dims = dict(SMALL_DIMS)
        rows = []
        for i in range(12):
            rel = f"s{i}.emif"
            write_feature_file(
                root / rel, {m: rng.normal(size=(10, d)) for m, d in dims.items()}
            )
            split = "train" if i < 8 else "val"
            rows.append(
                ManifestRow(id=f"s{i}", split=split, path=rel, target=np.full(6, 0.5))
            )
        write_manifest(root / MANIFEST_NAME, rows)
        cfg = small_config(root, tmp_path / "run", epochs=2, batch_size=4)
        record = train(cfg)
        assert record.evals[-1].degenerate_dims == [0, 1, 2, 3, 4, 5]
        assert record.evals[-1].p_mean == 0.0
