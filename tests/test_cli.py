import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from emireg.cli import main
from emireg.data import MANIFEST_NAME, generate_synthetic, load_manifest
from emireg.train import TrainConfig

from support import SMALL_DIMS

DIMS_FLAG = "8:7:6"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def trained_run(small_dataset, tmp_path):
    run_dir = tmp_path / "run"
    code = run_cli(
        "train",
        "--data", str(small_dataset),
        "--run-dir", str(run_dir),
        "--hidden-dim", "8",
        "--batch-size", "16",
        "--epochs", "2",
        "--align-len", "16",
        "--lr", "1e-3",
    )
    assert code == 0
    return run_dir


class TestGenSynth:
    def test_writes_dataset(self, tmp_path):
        out = tmp_path / "ds"
        code = run_cli(
            "gen-synth", "--n", "20", "--dims", DIMS_FLAG, "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        rows = load_manifest(out / MANIFEST_NAME)
        assert len(rows) == 20
        assert (out / "synth.json").exists()
        assert len(list((out / "features").glob("*.emif"))) == 20

    def test_same_invocation_identical_bytes(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("gen-synth", "--n", "12", "--dims", DIMS_FLAG, "--seed", "3",
                    "--out", str(out))
            digests.append(
                {
                    str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(out.rglob("*")) if p.is_file()
                }
            )
        assert digests[0] == digests[1]

    def test_disjoint_sidecar(self, tmp_path):
        out = tmp_path / "ds"
        run_cli("gen-synth", "--n", "10", "--dims", DIMS_FLAG, "--mode", "disjoint",
                "--out", str(out))
        sidecar = json.loads((out / "synth.json").read_text())
        assert sidecar["latent_assignment"]["audio"] == [2, 3]

    def test_malformed_dims_is_usage_error(self, tmp_path):
        assert run_cli("gen-synth", "--n", "10", "--dims", "8x7x6",
                       "--out", str(tmp_path / "d")) == 1

    def test_missing_required_flag(self, tmp_path, capsys):
        assert run_cli("gen-synth", "--n", "10") == 1
        assert "error" in capsys.readouterr().err


class TestTrain:
    def test_echoes_valid_config(self, small_dataset, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = run_cli(
            "train", "--data", str(small_dataset), "--run-dir", str(run_dir),
            "--hidden-dim", "8", "--batch-size", "16", "--epochs", "1",
            "--align-len", "16",
        )
        assert code == 0
        echoed = json.loads(capsys.readouterr().out)
        cfg = TrainConfig.from_dict(echoed)  # the echo round-trips
        assert cfg.hidden_dim == 8
        assert cfg.dims == SMALL_DIMS  # picked up from the sidecar
        saved = json.loads((run_dir / "config.json").read_text())
        assert saved == echoed

    def test_echo_reusable_as_config_file(self, small_dataset, tmp_path, capsys):
        run_dir = tmp_path / "run1"
        run_cli("train", "--data", str(small_dataset), "--run-dir", str(run_dir),
                "--hidden-dim", "8", "--batch-size", "16", "--epochs", "1",
                "--align-len", "16")
        echo = capsys.readouterr().out
        config_path = tmp_path / "echo.json"
        config_path.write_text(echo)
        code = run_cli("train", "--config", str(config_path),
                       "--run-dir", str(tmp_path / "run2"))
        assert code == 0
        a = json.loads((tmp_path / "run1" / "config.json").read_text())
        b = json.loads((tmp_path / "run2" / "config.json").read_text())
        assert {k: v for k, v in a.items() if k != "run_dir"} == {
            k: v for k, v in b.items() if k != "run_dir"
        }

    def test_unknown_flag_rejected(self, small_dataset, capsys):
        assert run_cli("train", "--data", str(small_dataset), "--warmup", "5") == 1

    def test_missing_data_is_usage_error(self):
        assert run_cli("train", "--dims", DIMS_FLAG) == 1

    def test_nonexistent_config_is_data_error(self, tmp_path):
        assert run_cli("train", "--config", str(tmp_path / "nope.json")) == 2

    def test_run_root_env_honored(self, small_dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EMIREG_RUN_ROOT", str(tmp_path / "root"))
        code = run_cli("train", "--data", str(small_dataset), "--hidden-dim", "8",
                       "--batch-size", "16", "--epochs", "1", "--align-len", "16")
        assert code == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["run_dir"].startswith(str(tmp_path / "root"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exit_code(self, small_dataset, tmp_path):
        code = run_cli(
            "train", "--data", str(small_dataset), "--run-dir", str(tmp_path / "r"),
            "--hidden-dim", "8", "--batch-size", "16", "--epochs", "30",
            "--align-len", "16", "--lr", "1e12", "--patience", "30",
        )
        assert code == 3

    def test_non_finite_feature_is_data_error(self, tmp_path, capsys):
        data_dir = tmp_path / "ds"
        run_cli("gen-synth", "--n", "20", "--dims", DIMS_FLAG, "--seed", "4",
                "--out", str(data_dir))
        emif = data_dir / "features" / "syn000003.emif"  # a train row
        raw = bytearray(emif.read_bytes())
        raw[15:19] = np.float32(np.nan).tobytes()  # first visual value
        emif.write_bytes(bytes(raw))
        capsys.readouterr()
        code = run_cli(
            "train", "--data", str(data_dir), "--run-dir", str(tmp_path / "r"),
            "--hidden-dim", "8", "--batch-size", "8", "--epochs", "1",
            "--align-len", "16",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "non-finite value in visual" in err

    def test_help_lists_paper_defaults(self, capsys):
        assert run_cli("train", "--help") == 0
        text = capsys.readouterr().out
        for needle in ("256", "0.2", "32", "1e-4", "30", "8", "1.0", "0.999", "128"):
            assert needle in text


class TestEvaluate:
    def test_report_json(self, trained_run, capsys):
        code = run_cli("evaluate", "--ckpt", str(trained_run / "best.emic"))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"p", "p_mean", "n", "degenerate_dims"}
        assert len(report["p"]) == 6

    def test_no_ema_differs(self, trained_run, capsys):
        run_cli("evaluate", "--ckpt", str(trained_run / "best.emic"))
        with_ema = json.loads(capsys.readouterr().out)
        run_cli("evaluate", "--ckpt", str(trained_run / "best.emic"), "--no-ema")
        without = json.loads(capsys.readouterr().out)
        assert with_ema["p"] != without["p"]

    def test_missing_checkpoint_is_data_error(self, trained_run):
        assert run_cli("evaluate", "--ckpt", str(trained_run / "gone.emic")) == 2


class TestPredict:
    def test_csv_rows_match_split(self, trained_run, small_dataset, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        code = run_cli("predict", "--ckpt", str(trained_run / "best.emic"),
                       "--split", "test", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,adm,amu,det,emp,exc,joy"
        n_test = sum(1 for r in load_manifest(small_dataset / MANIFEST_NAME) if r.split == "test")
        assert len(lines) - 1 == n_test
        values = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
        )
        assert np.all(values > 0.0) and np.all(values < 1.0)

    def test_raw_flag_emits_logits(self, trained_run, tmp_path):
        bounded = tmp_path / "p.csv"
        raw = tmp_path / "r.csv"
        run_cli("predict", "--ckpt", str(trained_run / "best.emic"), "--out", str(bounded))
        run_cli("predict", "--ckpt", str(trained_run / "best.emic"), "--out", str(raw), "--raw")
        assert bounded.read_text() != raw.read_text()


class TestAblate:
    def test_default_grid_csv(self, small_dataset, tmp_path, capsys):
        grid_dir = tmp_path / "grid"
        code = run_cli(
            "ablate", "--data", str(small_dataset), "--run-dir", str(grid_dir),
            "--hidden-dim", "8", "--batch-size", "16", "--epochs", "1",
            "--align-len", "16",
        )
        assert code == 0
        lines = (grid_dir / "ablation.csv").read_text().splitlines()
        assert len(lines) == 9
        stdout_lines = capsys.readouterr().out.splitlines()
        assert stdout_lines[0].startswith("fusion,objective,vad")
        assert len(list(grid_dir.glob("*/log.jsonl"))) == 8


class TestInspect:
    def test_feature_file_header(self, small_dataset, capsys):
        emif = sorted((small_dataset / "features").glob("*.emif"))[0]
        assert run_cli("inspect", "--emif", str(emif)) == 0
        out = capsys.readouterr().out
        assert "magic EMIF version 1" in out
        assert "visual:" in out and "audio:" in out and "text:" in out

    def test_checkpoint_param_count(self, trained_run, capsys):
        assert run_cli("inspect", "--ckpt", str(trained_run / "best.emic")) == 0
        out = capsys.readouterr().out
        h, dv, da, dt = 8, 8, 7, 6
        expected = (
            (h * dv + h) + (h * da + h) + (h * dt + h)
            + 3 * (6 * h + 6)
            + (3 * h + 3) + (h * 3)
            + (h * 3 * h + h) + (6 * h + 6)
        )
        assert f"parameters: {expected}" in out

    def test_corrupt_checkpoint_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.emic"
        bad.write_bytes(b"EMIC\x01\x00\x05\x00ab")  # truncated name record
        assert run_cli("inspect", "--ckpt", str(bad)) == 2

    def test_non_utf8_tensor_name_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.emic"
        bad.write_bytes(b"EMIC\x01\x00\x01\x00\xff\x00" + np.float64(1.0).tobytes())
        assert run_cli("inspect", "--ckpt", str(bad)) == 2
        assert "not UTF-8 (at byte offset 8)" in capsys.readouterr().err

    def test_duplicate_tensor_name_is_data_error(self, tmp_path, capsys):
        record = b"\x01\x00w\x00" + np.float64(1.0).tobytes()
        bad = tmp_path / "dup.emic"
        bad.write_bytes(b"EMIC\x01\x00" + record + record)
        assert run_cli("inspect", "--ckpt", str(bad)) == 2
        assert "duplicate tensor name 'w'" in capsys.readouterr().err

    def test_requires_exactly_one_target(self, trained_run):
        assert run_cli("inspect") == 1
        assert run_cli(
            "inspect", "--ckpt", str(trained_run / "best.emic"),
            "--emif", str(trained_run / "best.emic"),
        ) == 1


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert run_cli() == 1

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "gen-synth" in capsys.readouterr().out
