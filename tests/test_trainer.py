import csv
import errno
import gc
import json
import sys
import tempfile
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emireg.data import MANIFEST_NAME, ManifestRow, write_feature_file, write_manifest
from emireg.cli import main
from emireg.errors import ConfigError, DataError, FormatError, NumericError
from emireg.optim import cosine_lr
from emireg import data, layers
from emireg.model import Model
from emireg.train import (
    ABLATION_CELLS,
    RunRecord,
    TrainConfig,
    _forward_batches,
    _score,
    ablate,
    cell_config,
    cell_name,
    evaluate_checkpoint,
    predict_checkpoint,
    split_checkpoint,
    train,
)

from support import REMOVED_KEYS, SMALL_DIMS, fail_replace_file_at, small_config, traced_memory


# random valid small configs for small_dataset: every choice field, zero
# weights and rates; batch 83 leaves a final batch of one of its 84 train
# rows, and align_len falls below or above its 48-192-row sequences
_RERUN_CONFIGS = st.fixed_dictionaries(
    {
        **{
            f.name: st.sampled_from(f.metadata["choices"])
            for f in fields(TrainConfig)
            if f.metadata.get("choices")
        },
        "vad_enabled": st.booleans(),
        "hidden_dim": st.integers(1, 8),
        "batch_size": st.sampled_from([16, 83]),
        "align_len": st.one_of(st.integers(1, 47), st.integers(193, 240)),
        "epochs": st.integers(1, 3),
        "patience": st.integers(1, 2),
        "dropout": st.sampled_from([0.0, 0.3]),
        "weight_decay": st.sampled_from([0.0, 1e-2]),
        "ema_decay": st.sampled_from([0.0, 0.9]),
        **{
            name: st.sampled_from([0.0, 0.5])
            for name in ("lambda_corr", "lambda_aux", "lambda_vad", "lambda_audio")
        },
        "seed": st.integers(0, 2**32),
    }
)
_RERUN = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def read_log(run_dir):
    return [json.loads(line) for line in (Path(run_dir) / "log.jsonl").read_text().splitlines()]


def eval_records(run_dir):
    return [r for r in read_log(run_dir) if r["type"] == "eval"]


def record_checkpoint_saves(monkeypatch):
    """Patch ``data.save_checkpoint`` to log each save: file name -> bytes per save."""
    saves: dict[str, list[bytes]] = {"best.emic": [], "last.emic": []}
    real_save = data.save_checkpoint

    def recording_save(path, tensors):
        real_save(path, tensors)
        saves[Path(path).name].append(Path(path).read_bytes())

    monkeypatch.setattr(data, "save_checkpoint", recording_save)
    return saves


def assert_numeric_abort(run_dir, saves, message, epoch, step):
    """The log ends ``abort`` then ``end``; the checkpoints are the last saves."""
    log = read_log(run_dir)
    assert log[-2] == {
        "type": "abort",
        "epoch": epoch,
        "step": step,
        "error": message,
        "error_class": "NumericError",
    }
    assert log[-1]["type"] == "end"
    assert log[-1]["stop_reason"] == "non_finite_loss"
    assert [r["type"] for r in log].count("eval") == epoch - 1
    for name in ("best.emic", "last.emic"):
        assert saves[name], f"no completed epoch saved {name}"
        assert (Path(run_dir) / name).read_bytes() == saves[name][-1]
    data.load_checkpoint(Path(run_dir) / "last.emic")


# values outside each rule, and values on its edge that must still pass
# past 2**64 numpy holds an int only as an object; 10**400 is past float64
TOO_BIG = [2**64, 10**400]
RULE_BAD = {
    ">= 1": [0, *TOO_BIG],
    ">= 0": [-1, *TOO_BIG],
    "finite and >= 0": [-1.0, float("nan"), float("inf"), *TOO_BIG],
    "in [0, 1)": [1.0, *TOO_BIG],
    "in [0, 1]": [1.5, *TOO_BIG],
}
RULE_EDGE = {
    ">= 1": [1],
    ">= 0": [0],
    "finite and >= 0": [0.0],
    "in [0, 1)": [0.0],
    "in [0, 1]": [0.0, 1.0],
}


def rule_cases():
    """(field, bad value, good values) for every field with a rule or choices."""
    for f in fields(TrainConfig):
        if "help" not in f.metadata:
            continue
        rule = f.metadata["rule"]
        if rule is None:
            yield pytest.param(f.name, "nope", f.metadata["choices"], id=f"{f.name}-nope")
            continue
        for bad in RULE_BAD[rule]:
            label = "10**400" if bad == 10**400 else bad
            yield pytest.param(f.name, bad, RULE_EDGE[rule], id=f"{f.name}-{label}")


class TestConfig:
    @pytest.mark.parametrize("name,bad,good", list(rule_cases()))
    def test_every_rule_and_choice_list_is_enforced(self, tmp_path, name, bad, good):
        cfg = small_config(tmp_path / "d", tmp_path / "run")
        with pytest.raises(ConfigError) as info:
            replace(cfg, **{name: bad}).validate()
        assert name in str(info.value)
        for value in good:
            replace(cfg, **{name: value}).validate()

    def test_json_roundtrip(self, tmp_path):
        cfg = small_config(tmp_path / "d", tmp_path / "r", seed=5)
        path = tmp_path / "config.json"
        with open(path, "w") as fh:
            json.dump(cfg.to_dict(), fh)
        back = TrainConfig.from_json(path)
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()

    def test_hash_ignores_locations_only(self, tmp_path):
        a = small_config(tmp_path / "d1", tmp_path / "r1")
        other_data = small_config(tmp_path / "d2", tmp_path / "r1")
        other_run = small_config(tmp_path / "d1", tmp_path / "r2")
        other_seed = small_config(tmp_path / "d1", tmp_path / "r1", seed=99)
        assert other_data.config_hash() == a.config_hash()
        assert other_run.config_hash() == a.config_hash()
        assert other_seed.config_hash() != a.config_hash()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"dims": SMALL_DIMS, "warmup": 5})

    def test_removed_keys_are_dropped_at_their_only_value(self):
        payload = {"dims": SMALL_DIMS, **REMOVED_KEYS}
        assert TrainConfig.from_dict(payload) == TrainConfig(dims=SMALL_DIMS)
        assert set(REMOVED_KEYS) <= set(payload)  # the caller's dict is left as it was
        assert not set(REMOVED_KEYS) & {f.name for f in fields(TrainConfig)}

    @pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
    @pytest.mark.parametrize("value", ["identity", "flat", None, 1])
    def test_removed_key_at_another_value_is_refused(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} is no longer a setting: .*removed"):
            TrainConfig.from_dict({"dims": SMALL_DIMS, key: value})

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, tmp_path, epochs=0).validate()
        with pytest.raises(ConfigError):
            small_config(tmp_path, tmp_path, dropout=1.0).validate()
        with pytest.raises(ConfigError):
            small_config(tmp_path, tmp_path, fusion="gated").validate()
        with pytest.raises(ConfigError):
            TrainConfig(dims=None).validate()
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            small_config(tmp_path, tmp_path, seed=-1).validate()

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_corr_eps_must_be_finite_and_non_negative(self, tmp_path, value):
        with pytest.raises(ConfigError, match="corr_eps"):
            small_config(tmp_path, tmp_path, corr_eps=value).validate()
        small_config(tmp_path, tmp_path, corr_eps=0.0).validate()

    @pytest.mark.parametrize(
        "field,value", [("hidden_activation", "tanh"), ("hidden_activation", "sigmoid")]
    )
    def test_unknown_activation_rejected_before_the_run_starts(self, tmp_path, field, value):
        cfg = small_config(tmp_path / "d", tmp_path / "run", **{field: value})
        with pytest.raises(ConfigError, match=field):
            train(cfg)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("hidden_dim", "abc"),
            ("hidden_dim", 2.5),
            ("epochs", True),
            ("seed", "7"),
            ("lr", "0.1"),
            ("dropout", False),
            ("vad_enabled", "false"),
            ("vad_enabled", 1),
            ("fusion", ["concat"]),
            ("data_dir", 5),
            ("dims", ["visual", "audio", "text"]),
            ("dims", {"visual": 8.0, "audio": 7, "text": 6}),
            ("dims", {"visual": True, "audio": 7, "text": 6}),
        ],
    )
    def test_wrong_type_rejected_not_coerced(self, tmp_path, field, value):
        cfg = replace(small_config(tmp_path / "d", tmp_path / "run"), **{field: value})
        with pytest.raises(ConfigError, match=field):
            cfg.validate()

    def test_int_for_float_field_keeps_its_bytes(self, tmp_path):
        cfg = small_config(tmp_path / "d", tmp_path / "run", lr=1, dropout=0)
        cfg.validate()
        assert cfg.lr == 1 and type(cfg.lr) is int

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '"lr"', "null"])
    def test_malformed_json_is_config_error(self, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            TrainConfig.from_json(path)

    def test_non_utf8_json_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"lr": "\xff"}')
        with pytest.raises(ConfigError):
            TrainConfig.from_json(path)

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
        assert len(eval_records(run_dir)) == 10

    @_RERUN
    @given(overrides=_RERUN_CONFIGS)
    def test_rerun_in_one_process_is_bit_identical(self, small_dataset, tmp_path, overrides):
        with tempfile.TemporaryDirectory(dir=tmp_path) as workdir:
            runs = [
                train(small_config(small_dataset, Path(workdir) / name, **overrides))
                for name in ("first", "second")
            ]
            for output in ("log.jsonl", "best.emic", "last.emic"):
                first, second = (Path(run.run_dir, output).read_bytes() for run in runs)
                assert first == second, output

    def test_no_raw_sample_alive_during_training(
        self, small_dataset, tmp_path, monkeypatch
    ):
        # a run keeps each split's pooled batches, never its raw samples
        loaded = []
        real_load = data.load_split

        def recording_load(*args, **kwargs):
            split = real_load(*args, **kwargs)
            loaded.extend(weakref.ref(s) for s in split)
            return split

        alive_per_step = []
        real_forward = Model.forward

        def checking_forward(self, features, train):
            if train:
                gc.collect()
                alive_per_step.append(sum(ref() is not None for ref in loaded))
            return real_forward(self, features, train)

        monkeypatch.setattr(data, "load_split", recording_load)
        monkeypatch.setattr(Model, "forward", checking_forward)
        record = train(small_config(small_dataset, tmp_path / "run", epochs=2))
        assert len(loaded) == 102  # the 84 train and 18 val samples
        assert len(alive_per_step) == len(record.steps) > 0
        assert alive_per_step == [0] * len(record.steps)

    def test_training_builds_no_shuffled_batch_in_fresh_memory(
        self, small_dataset, tmp_path, monkeypatch
    ):
        # every training batch is a read-only view of its split's pooled blocks,
        # which are shuffled in place, so a run copies no batch and keeps nothing
        fresh = []
        real_batch = data.Batches.batch

        def counting_batch(self, i):
            built = real_batch(self, i)
            arrays = [*built.features.values(), built.targets]
            if any(a.flags.owndata or a.flags.writeable for a in arrays):
                fresh.append(i)
            return built

        monkeypatch.setattr(data.Batches, "batch", counting_batch)
        cfg = small_config(small_dataset, tmp_path / "warm", epochs=2, align_len=64)
        train(cfg)  # warm numpy's and the interpreter's own caches
        fresh.clear()
        kept, _ = traced_memory(lambda: train(replace(cfg, run_dir=str(tmp_path / "run"))))
        assert fresh == []
        step_bytes = cfg.batch_size * cfg.align_len * sum(SMALL_DIMS.values()) * 8
        assert kept < step_bytes, kept

    def test_bad_feature_file_fails_before_the_run_directory(self, tmp_path):
        data_dir = tmp_path / "data"
        data.generate_synthetic(data_dir, n=20, dims=SMALL_DIMS, seed=0)
        emif = data_dir / "features" / "syn000016.emif"  # a val row
        raw = bytearray(emif.read_bytes())
        raw[15:19] = np.float32(np.inf).tobytes()  # the first visual value
        emif.write_bytes(bytes(raw))
        run_dir = tmp_path / "run"
        with pytest.raises(FormatError, match="non-finite value in visual payload") as err:
            train(small_config(data_dir, run_dir))
        assert err.value.offset == 15
        assert not run_dir.exists()

    def test_data_failure_leaves_no_run_directory(self, tmp_path):
        data_dir = tmp_path / "data"
        data.generate_synthetic(data_dir, n=7, dims=SMALL_DIMS, seed=0)
        run_dir = tmp_path / "run"
        with pytest.raises(DataError, match="val split has 1 row"):
            train(small_config(data_dir, run_dir))
        assert not run_dir.exists()

    def test_best_epoch_is_argmax(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=5)
        record = train(cfg)
        scores = [r["p_mean"] for r in eval_records(record.run_dir)]
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
        assert len(eval_records(record.run_dir)) == 2

    def test_lr_follows_epoch_cosine(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=4, lr=1e-3)
        record = train(cfg)
        for step in record.steps:
            expected = cosine_lr(step["epoch"] - 1, 4, 1e-3, 0.0)
            assert step["lr"] == expected

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
        self, small_dataset, tmp_path, monkeypatch
    ):
        # an absurd learning rate with weight decay compounds multiplicatively
        # until parameters overflow; the run must stop, not mask it
        saves = record_checkpoint_saves(monkeypatch)
        cfg = small_config(
            small_dataset, tmp_path / "run", epochs=30, lr=1e12, patience=30
        )
        with pytest.raises(NumericError) as caught:
            train(cfg)
        assert str(caught.value) != ""
        log = read_log(cfg.run_dir)
        steps = [r for r in log if r["type"] == "step"]
        epoch = log[-2]["epoch"]
        assert epoch > 1
        assert_numeric_abort(
            cfg.run_dir, saves, str(caught.value), epoch, steps[-1]["step"]
        )

    def test_numeric_error_in_ema_evaluation_aborts_the_same_way(
        self, small_dataset, tmp_path, monkeypatch
    ):
        # `emireg.train` as an attribute path resolves to the re-exported
        # function, so the trainer module is patched through sys.modules
        trainer = sys.modules["emireg.train"]
        real_forward = trainer._forward_batches
        calls = []

        def failing_on_epoch_two(model, batches):
            calls.append(None)
            if len(calls) == 2:
                raise NumericError("non-finite values produced by linear forward")
            return real_forward(model, batches)

        monkeypatch.setattr(trainer, "_forward_batches", failing_on_epoch_two)
        saves = record_checkpoint_saves(monkeypatch)
        cfg = small_config(small_dataset, tmp_path / "run", epochs=3)
        with pytest.raises(NumericError, match="produced by linear forward"):
            train(cfg)
        steps = [r for r in read_log(cfg.run_dir) if r["type"] == "step"]
        assert {r["epoch"] for r in steps} == {1, 2}
        assert len(saves["last.emic"]) == 1  # epoch 1's save only
        assert_numeric_abort(
            cfg.run_dir, saves, "non-finite values produced by linear forward",
            2, steps[-1]["step"],
        )

    def test_os_error_is_logged_as_abort_then_end(self, small_dataset, tmp_path, monkeypatch):
        fail_replace_file_at(monkeypatch, 3)  # config.json, last.emic, then epoch 1's best.emic
        cfg = small_config(small_dataset, tmp_path / "run", epochs=3)
        with pytest.raises(OSError, match="No space left on device") as caught:
            train(cfg)
        log = read_log(cfg.run_dir)
        steps = [r for r in log if r["type"] == "step"]
        assert {r["epoch"] for r in steps} == {1}
        assert log[-2] == {
            "type": "abort",
            "epoch": 1,
            "step": steps[-1]["step"],
            "error": str(caught.value),
            "error_class": "OSError",
        }
        assert log[-1]["type"] == "end"
        assert log[-1]["stop_reason"] == "error"
        assert [r["type"] for r in log].count("eval") == 1

    def test_failure_is_raised_when_the_log_cannot_take_it(
        self, small_dataset, tmp_path, monkeypatch
    ):
        trainer = sys.modules["emireg.train"]
        real_open = open

        class FullLog:
            """A log whose disk fills at the abort record; its close fails too, as a
            buffered file's does when it still holds bytes it could not write."""

            def __init__(self, fh):
                self.fh, self.full = fh, False

            def write(self, text):
                self.full = self.full or '"type": "abort"' in text
                if self.full:
                    raise OSError(errno.ENOSPC, "log disk full")
                return self.fh.write(text)

            def flush(self):
                self.fh.flush()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                if self.full:
                    raise OSError(errno.ENOSPC, "log disk full")

        monkeypatch.setattr(
            trainer, "open", lambda *a, **kw: FullLog(real_open(*a, **kw)), raising=False
        )
        fail_replace_file_at(monkeypatch, 3)
        cfg = small_config(small_dataset, tmp_path / "run", epochs=3)
        with pytest.raises(OSError, match="No space left on device"):
            train(cfg)
        assert read_log(cfg.run_dir)[-1]["type"] == "eval"

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
    @pytest.mark.parametrize("use_ema", [True, False])
    def test_checkpoint_load_draws_nothing(
        self, small_dataset, tmp_path, monkeypatch, use_ema
    ):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=2)
        train(cfg)
        ckpt = tmp_path / "run" / "best.emic"
        manifest = Path(small_dataset) / MANIFEST_NAME
        # the outputs of a model built with initialization draws
        raw, shadows = split_checkpoint(data.load_checkpoint(ckpt))
        drawn = cfg.build_model()
        drawn.set_values(shadows if use_ema else raw)
        batches = data.make_batches(
            data.load_split(manifest, "val", cfg.dims), cfg.batch_size, cfg.align_len
        )
        ids, preds, logits, targets = _forward_batches(drawn, batches)

        def no_draws(*args, **kwargs):
            raise AssertionError("glorot_uniform called")

        monkeypatch.setattr(layers, "glorot_uniform", no_draws)
        with pytest.raises(AssertionError):
            cfg.build_model()  # the patch is on the path a drawing build takes
        assert not cfg.build_model(init=False).parameters().value.any()
        report = evaluate_checkpoint(cfg, ckpt, "val", use_ema=use_ema)
        assert report.to_dict() == _score(preds, targets).to_dict()
        got_ids, got = predict_checkpoint(cfg, ckpt, manifest, "val", use_ema=use_ema)
        assert got_ids == ids and got.tobytes() == preds.tobytes()
        _, got = predict_checkpoint(
            cfg, ckpt, manifest, "val", use_ema=use_ema, raw_logits=True
        )
        assert got.tobytes() == logits.tobytes()

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
        assert eval_records(record.run_dir)[-1] == {
            "type": "eval", "epoch": 3, "ema": True, **report.to_dict()
        }

    @pytest.mark.parametrize("use_ema", [True, False])
    def test_checkpoint_is_copied_once_into_the_model(self, small_dataset, tmp_path, use_ema):
        # the fusion layer's 768 x 256 weight dominates the parameters, and
        # the checkpoint's tensors are views of its mapped file
        cfg = small_config(small_dataset, tmp_path / "run", epochs=1, hidden_dim=256,
                           batch_size=4)
        record = train(cfg)
        ckpt = Path(record.run_dir) / "best.emic"
        evaluate_checkpoint(cfg, ckpt, "val", use_ema=use_ema)  # warm numpy's own caches
        params = cfg.build_model(init=False).parameters().value.nbytes
        _, peak = traced_memory(lambda: evaluate_checkpoint(cfg, ckpt, "val", use_ema=use_ema))
        # building the model holds its layers' own arrays beside its flat
        # values and grads, 3 * params; a copy of the checkpoint's two
        # halves would add 2 * params more
        assert 2 * params < peak < 4 * params, (peak, params)

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

    def test_unknown_split_is_config_error_for_evaluate_and_predict(self, small_dataset, tmp_path):
        cfg = small_config(small_dataset, tmp_path / "run", epochs=1)
        ckpt = Path(train(cfg).run_dir) / "best.emic"
        with pytest.raises(ConfigError, match="bogus"):
            evaluate_checkpoint(cfg, ckpt, "bogus")
        with pytest.raises(ConfigError, match="bogus"):
            predict_checkpoint(cfg, ckpt, Path(cfg.data_dir) / MANIFEST_NAME, "bogus")


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

    def test_seeds_may_be_a_range_longer_than_an_index(self, small_dataset, tmp_path, monkeypatch):
        tried = []

        def failing_train(cfg):
            tried.append(Path(cfg.run_dir).name)
            raise DataError("cell failed")

        monkeypatch.setattr(sys.modules["emireg.train"], "train", failing_train)
        base = small_config(small_dataset, tmp_path / "grid", epochs=1, seed=0)
        rows, _ = ablate(base, seeds=range(0, 2**63))  # len() of this range overflows
        assert all(r["status"] == "failed" for r in rows)
        assert tried == [f"{cell_name(*cell)}-seed0" for cell in ABLATION_CELLS]

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

    def test_failed_write_keeps_the_previous_grid(self, small_dataset, tmp_path, monkeypatch):
        def quick_train(cfg):
            return RunRecord(
                config_hash="", run_dir=cfg.run_dir, best_epoch=1, best_p_mean=0.5,
                stop_reason="completed",
            )

        monkeypatch.setattr(sys.modules["emireg.train"], "train", quick_train)
        base = small_config(small_dataset, tmp_path / "grid", epochs=1)
        _, csv_path = ablate(base)
        before = Path(csv_path).read_bytes()

        class FailingAfterOneRow(csv.DictWriter):
            written = 0

            def writerow(self, row):
                if self.written == 2:  # the header and one row went through
                    raise OSError("no space left on device")
                self.written += 1
                return super().writerow(row)

        monkeypatch.setattr(csv, "DictWriter", FailingAfterOneRow)
        with pytest.raises(OSError, match="no space"):
            ablate(replace(base, seed=1))
        assert Path(csv_path).read_bytes() == before
        assert [p.name for p in Path(csv_path).parent.iterdir()] == ["ablation.csv"]

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
                raise NumericError("non-finite values produced by linear forward")
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
        last = eval_records(record.run_dir)[-1]
        assert last["degenerate_dims"] == [0, 1, 2, 3, 4, 5]
        assert last["p_mean"] == 0.0
