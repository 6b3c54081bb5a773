import csv
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import emireg
import emireg.cli
import emireg.data
from emireg.cli import _fresh_run_dir, build_parser, main
from emireg.data import (
    MANIFEST_NAME,
    SPLITS,
    SYNTHETIC_MODES,
    generate_synthetic,
    load_manifest,
    write_manifest,
)
from emireg.errors import ConfigError
from emireg.model import ACTIVATIONS, FUSION_MODES
from emireg.schema import MODALITIES
from emireg.tensor import seeded_rng
from emireg.train import TrainConfig

from support import REMOVED_KEYS, SMALL_DIMS, fail_replace_file_at

DIMS_FLAG = "8:7:6"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def one_row_val(tmp_path):
    """A dataset whose val split holds one row, too few for the metric."""
    out = tmp_path / "one-row-val"
    assert run_cli("gen-synth", "--n", "7", "--dims", DIMS_FLAG, "--out", str(out)) == 0
    assert sum(r.split == "val" for r in load_manifest(out / MANIFEST_NAME)) == 1
    return out


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

    @pytest.mark.parametrize("n", [str(2**63), "1" + "0" * 400], ids=["2**63", "10**400"])
    def test_n_past_int64_is_config_error(self, tmp_path, monkeypatch, capsys, n):
        def unreachable(*args):
            raise AssertionError("a refused n reached the writer")

        # an n that passed would write files until the disk filled
        monkeypatch.setattr(emireg.data, "_write_synthetic", unreachable)
        code = run_cli("gen-synth", "--n", n, "--dims", DIMS_FLAG, "--out", str(tmp_path / "d"))
        assert code == 1
        err = capsys.readouterr().err
        assert "emireg: config error: n is too large to represent as a 64-bit int" in err
        assert list(tmp_path.iterdir()) == []  # neither the dataset nor a staging directory

    def test_n_past_the_free_space_is_config_error(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args):
            raise AssertionError("a refused n reached the writer")

        # the largest int64 n; a writer left in place would fill the disk
        monkeypatch.setattr(emireg.data, "_write_synthetic", unreachable)
        monkeypatch.setattr(
            shutil, "disk_usage", lambda path: SimpleNamespace(free=10**12)
        )
        code = run_cli("gen-synth", "--n", str(2**63 - 1), "--dims", DIMS_FLAG,
                       "--out", str(tmp_path / "d"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"emireg: config error: {2**63 - 1} samples need at least ")
        assert err.rstrip().endswith(f"but {tmp_path} has 1000000000000 free")
        assert list(tmp_path.iterdir()) == []  # neither the dataset nor a staging directory

    def test_disjoint_sidecar(self, tmp_path):
        out = tmp_path / "ds"
        run_cli("gen-synth", "--n", "10", "--dims", DIMS_FLAG, "--mode", "disjoint",
                "--out", str(out))
        sidecar = json.loads((out / "synth.json").read_text())
        assert sidecar["latent_assignment"]["audio"] == [2, 3]

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_noise_must_be_finite_and_non_negative(self, tmp_path, capsys, noise):
        out = tmp_path / "ds"
        code = run_cli("gen-synth", "--n", "10", "--dims", DIMS_FLAG,
                       "--noise", noise, "--out", str(out))
        assert code == 1
        assert "noise must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = run_cli("gen-synth", "--n", "10", "--dims", DIMS_FLAG, "--seed", "-1",
                       "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("emireg: config error: seed must be >= 0, got -1")
        assert "Traceback" not in err
        assert not out.exists()

    def test_unrepresentable_dims_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = run_cli("gen-synth", "--n", "4", "--dims", f"8:{2**62}:6", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            "emireg: config error: audio sample block [192 x 4611686018427387904] "
            "is too large to represent\n"
        )
        assert not out.exists()

    def test_out_of_memory_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        # a map too large to allocate; no real allocation is attempted
        class NoMemory:
            def normal(self, *args, **kwargs):
                raise MemoryError("Unable to allocate 4.37 TiB for an array")

        monkeypatch.setattr("emireg.data.seeded_rng", lambda *key: NoMemory())
        # room for its 77 TB of files, so the refusal of a full disk does not come first
        monkeypatch.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=10**15))
        out = tmp_path / "ds"
        code = run_cli("gen-synth", "--n", "4", "--dims", "8:100000000000:6", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == (
            "emireg: out of memory: Unable to allocate 4.37 TiB for an array\n"
        )
        assert not out.exists()

    @staticmethod
    def _jitter_out_of_memory(monkeypatch, sample):
        """Make sample ``sample``'s first jitter draw run out of memory.

        It is the first ``normal`` after that sample's first sequence length
        is drawn; each sample draws one length per modality, and the feature
        maps are drawn before any length.
        """

        class NoJitterMemory:
            def __init__(self, rng):
                self._rng = rng
                self._lengths = 0

            def normal(self, loc, scale, size):
                if self._lengths > sample * len(MODALITIES):
                    raise MemoryError("Unable to allocate 143. GiB for an array")
                return self._rng.normal(loc, scale, size)

            def integers(self, *args):
                self._lengths += 1
                return self._rng.integers(*args)

        monkeypatch.setattr(
            "emireg.data.seeded_rng", lambda *key: NoJitterMemory(seeded_rng(*key))
        )

    def test_out_of_memory_in_a_sample_leaves_no_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        self._jitter_out_of_memory(monkeypatch, sample=0)
        out = tmp_path / "ds"
        code = run_cli("gen-synth", "--n", "4", "--dims", DIMS_FLAG, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == (
            "emireg: out of memory: Unable to allocate 143. GiB for an array\n"
        )
        assert list(tmp_path.iterdir()) == []  # neither the dataset nor its staging

    def test_failure_leaves_an_existing_dataset_as_it_was(self, tmp_path, monkeypatch):
        out = tmp_path / "ds"
        assert run_cli("gen-synth", "--n", "6", "--dims", DIMS_FLAG, "--out", str(out)) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        # two samples' files are written before the failure
        self._jitter_out_of_memory(monkeypatch, sample=2)
        code = run_cli("gen-synth", "--n", "9", "--dims", DIMS_FLAG, "--seed", "2",
                       "--out", str(out))
        assert code == 1
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert list(tmp_path.iterdir()) == [out]
        monkeypatch.undo()
        # a call that succeeds writes over the existing dataset
        code = run_cli("gen-synth", "--n", "9", "--dims", DIMS_FLAG, "--seed", "2",
                       "--out", str(out))
        assert code == 0
        assert len(load_manifest(out / MANIFEST_NAME)) == 9
        assert list(tmp_path.iterdir()) == [out]

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

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[1, 2]",
            '{"hidden_dim": "abc"}',
            '{"hidden_dim": 2.5}',
            '{"lr": "0.1"}',
            '{"vad_enabled": "false"}',
            '{"seed": "7"}',
            '{"lr": 18446744073709551616}',
            '{"lr": ' + "1" * 5000 + "}",
        ],
        ids=lambda value: "5000-digit-int" if len(str(value)) > 4000 else None,
    )
    def test_malformed_config_is_config_error(self, small_dataset, tmp_path, capsys, text):
        config = tmp_path / "bad.json"
        config.write_text(text)
        run_dir = tmp_path / "run"
        code = run_cli("train", "--config", str(config), "--data", str(small_dataset),
                       "--run-dir", str(run_dir))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("emireg: config error:")
        assert "Traceback" not in err
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "text,code,label",
        [
            ("[]", 2, "data error"),
            ("{}", 2, "data error"),
            ("not json", 2, "data error"),
            ('{"dims": "8:7:6"}', 1, "config error"),
            ('{"dims": ' + "1" * 5000 + "}", 2, "data error"),
        ],
        ids=lambda value: "5000-digit-int" if len(str(value)) > 4000 else None,
    )
    def test_malformed_sidecar(self, small_dataset, tmp_path, capsys, text, code, label):
        data_dir = tmp_path / "ds"
        shutil.copytree(small_dataset, data_dir)
        (data_dir / "synth.json").write_text(text)
        assert run_cli("train", "--data", str(data_dir), "--run-dir", str(tmp_path / "r"),
                       "--epochs", "1") == code
        err = capsys.readouterr().err
        assert err.startswith(f"emireg: {label}:")
        if code == 2:
            assert str(data_dir / "synth.json") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("data_dir", [5, ["x"]], ids=["int", "list"])
    def test_mistyped_data_dir_is_config_error(self, tmp_path, capsys, command, data_dir):
        # no dims are given, so the sidecar lookup would read data_dir first
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"data_dir": data_dir}))
        run_dir = tmp_path / "run"
        code = run_cli(command, "--config", str(config), "--run-dir", str(run_dir))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("emireg: config error: data_dir must be str | None, got ")
        assert "Traceback" not in err
        assert not run_dir.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_negative_seed_is_config_error(self, small_dataset, tmp_path, capsys, command):
        run_dir = tmp_path / "run"
        code = run_cli(command, "--data", str(small_dataset), "--run-dir", str(run_dir),
                       "--seed", "-1")
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("emireg: config error: seed must be >= 0, got -1")
        assert "Traceback" not in err
        assert not run_dir.exists()

    def test_out_of_memory_leaves_no_run_directory(
        self, small_dataset, tmp_path, capsys, monkeypatch
    ):
        # a model too large to allocate; no real allocation is attempted
        def build_model(self, init=True):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(TrainConfig, "build_model", build_model)
        run_dir = tmp_path / "run"
        code = run_cli("train", "--data", str(small_dataset), "--run-dir", str(run_dir))
        err = capsys.readouterr().err
        assert code == 1
        assert err == "emireg: out of memory: Unable to allocate 745. GiB for an array\n"
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--hidden-dim", str(2**62)], "visual.proj weight [4611686018427387904 x 8]"),
            (["--dims", f"8:{2**60}:6"], "audio.proj weight [256 x 1152921504606846976]"),
            (["--hidden-dim", str(2**31), "--fusion", "average"],
             "fusion.hidden weight [2147483648 x 2147483648]"),
            (["--align-len", str(2**62)], "pooled ["),
            (["--epochs", str(10**400)], "epochs is"),
        ],
        ids=["hidden-dim", "dims", "average-fusion", "align-len", "epochs"],
    )
    def test_unrepresentable_sizes_are_config_errors(
        self, small_dataset, tmp_path, capsys, flags, message
    ):
        # each is refused by a size check before anything that large is made
        run_dir = tmp_path / "run"
        dims = [] if "--dims" in flags else ["--dims", DIMS_FLAG]
        code = run_cli("train", "--data", str(small_dataset), "--run-dir", str(run_dir),
                       *dims, *flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("emireg: config error: ") and err.count("\n") == 1
        assert message in err and "too large" in err
        assert "Traceback" not in err
        assert not run_dir.exists()

    def test_nonexistent_config_is_data_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        ckpt = ("--ckpt", str(tmp_path / "best.emic"))
        for argv in (
            ("train",),
            ("ablate",),
            ("evaluate", *ckpt),
            ("predict", *ckpt, "--out", str(tmp_path / "p.csv")),
        ):
            assert run_cli(*argv, "--config", missing) == 2, argv
            err = capsys.readouterr().err
            assert err == f"emireg: data error: config file not found: {missing}\n", argv

    def test_config_file_dims_beat_sidecar_dims(self, small_dataset, tmp_path, capsys):
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({"dims": {**SMALL_DIMS, "visual": 9}}))
        run_dir = tmp_path / "run"
        code = run_cli("train", "--config", str(config), "--data", str(small_dataset),
                       "--run-dir", str(run_dir))
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out)["dims"]["visual"] == 9
        assert "visual feature dim 8 != configured 9" in err
        assert not run_dir.exists()

    def test_run_root_env_honored(self, small_dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EMIREG_RUN_ROOT", str(tmp_path / "root"))
        code = run_cli("train", "--data", str(small_dataset), "--hidden-dim", "8",
                       "--batch-size", "16", "--epochs", "1", "--align-len", "16")
        assert code == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["run_dir"].startswith(str(tmp_path / "root"))

    def test_copies_of_one_dataset_share_a_default_run_name(
        self, small_dataset, tmp_path, monkeypatch, capsys
    ):
        root = tmp_path / "root"
        monkeypatch.setenv("EMIREG_RUN_ROOT", str(root))
        run_dirs = []
        for copy in ("copy1", "copy2"):
            shutil.copytree(small_dataset, tmp_path / copy)
            code = run_cli("train", "--data", str(tmp_path / copy), "--hidden-dim", "8",
                           "--batch-size", "16", "--epochs", "2", "--align-len", "16")
            assert code == 0
            echoed = json.loads(capsys.readouterr().out)
            run_dirs.append(Path(echoed["run_dir"]))
        name = f"run-{TrainConfig.from_dict(echoed).config_hash()[:12]}"
        assert run_dirs == [root / name, root / f"{name}-2"]
        for output in ("log.jsonl", "best.emic", "last.emic"):
            first, second = ((run_dir / output).read_bytes() for run_dir in run_dirs)
            assert first == second, output

    def test_default_run_dirs_are_claimed_once(self, tmp_path):
        root = tmp_path / "root"
        first, second = (_fresh_run_dir(root, "run-x") for _ in range(2))
        assert (first, second) == (root / "run-x", root / "run-x-2")
        assert first.is_dir() and second.is_dir()

    def test_concurrent_default_runs_get_their_own_directories(self, small_dataset, tmp_path):
        root = tmp_path / "root"
        env = {
            **os.environ,
            "EMIREG_RUN_ROOT": str(root),
            "PYTHONPATH": str(Path(emireg.__file__).parents[1]),
        }
        # both processes import first, then start the command at one instant,
        # so both pick a name before either has trained
        start = time.time() + 2.0
        script = (
            "import time; from emireg.cli import entry; "
            f"time.sleep(max(0.0, {start!r} - time.time())); entry()"
        )
        argv = [sys.executable, "-c", script, "train", "--data", str(small_dataset),
                "--hidden-dim", "8", "--batch-size", "16", "--epochs", "2", "--align-len", "16"]
        runs = [
            subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for _ in range(2)
        ]
        run_dirs = []
        for run in runs:
            out, err = run.communicate(timeout=120)
            assert run.returncode == 0, err
            run_dirs.append(Path(json.loads(out)["run_dir"]))
        assert run_dirs[0] != run_dirs[1]
        assert sorted(root.iterdir()) == sorted(run_dirs)
        configs = [json.loads((d / "config.json").read_text()) for d in run_dirs]
        assert [c.pop("run_dir") for c in configs] == [str(d) for d in run_dirs]
        assert configs[0] == configs[1]
        for output in ("log.jsonl", "best.emic", "last.emic"):
            first, second = ((d / output).read_bytes() for d in run_dirs)
            assert first == second, output

    def test_failed_default_run_leaves_no_directory(self, one_row_val, tmp_path, monkeypatch):
        root = tmp_path / "root"
        monkeypatch.setenv("EMIREG_RUN_ROOT", str(root))
        code = run_cli("train", "--data", str(one_row_val), "--epochs", "2",
                       "--hidden-dim", "8", "--align-len", "16")
        assert code == 2
        assert list(root.iterdir()) == []

    def test_relative_data_is_found_from_any_directory(
        self, small_dataset, tmp_path, monkeypatch
    ):
        shutil.copytree(small_dataset, tmp_path / "ds")
        monkeypatch.chdir(tmp_path)
        assert run_cli("train", "--data", "ds", "--run-dir", "run", "--hidden-dim", "8",
                       "--batch-size", "16", "--epochs", "1", "--align-len", "16") == 0
        saved = json.loads((tmp_path / "run" / "config.json").read_text())
        assert saved["data_dir"] == str((tmp_path / "ds").resolve())
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run_cli("evaluate", "--ckpt", str(tmp_path / "run" / "best.emic")) == 0

    def test_blas_thread_count_leaves_outputs_unchanged(self, tmp_path):
        """One and two OpenBLAS threads give the same bytes.

        At these shapes OpenBLAS splits the projection GEMMs: run alone with
        two threads, ``[512 x 96] @ [96 x 64]`` puts half its CPU time on the
        worker thread, where a ``[16 x 16] @ [16 x 16]`` product puts none.
        """
        data_dir = tmp_path / "data"
        assert run_cli("gen-synth", "--n", "60", "--dims", "96:64:64", "--out", str(data_dir)) == 0
        outputs = []
        for threads in ("1", "2"):
            run_dir = tmp_path / f"threads{threads}"
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": str(Path(emireg.__file__).parents[1]),
            }
            done = subprocess.run(
                [sys.executable, "-c", "from emireg.cli import entry; entry()", "train",
                 "--data", str(data_dir), "--run-dir", str(run_dir), "--hidden-dim", "64",
                 "--align-len", "32", "--batch-size", "16", "--epochs", "2"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append([(run_dir / name).read_bytes() for name in ("log.jsonl", "best.emic")])
        assert outputs[0] == outputs[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exit_code(self, small_dataset, tmp_path, capsys):
        code = run_cli(
            "train", "--data", str(small_dataset), "--run-dir", str(tmp_path / "r"),
            "--hidden-dim", "8", "--batch-size", "16", "--epochs", "30",
            "--align-len", "16", "--lr", "1e12", "--patience", "30",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "emireg: numeric failure: non-finite values produced by" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line,needle",
        [
            (b"\xffbad,train,x.emif" + b",0.5" * 6, "manifest is not valid text"),
            (b"a" * 200_000 + b",train,x.emif" + b",0.5" * 6, ":3: malformed CSV: field larger"),
        ],
        ids=["undecodable-id", "oversized-field"],
    )
    def test_unreadable_manifest_is_data_error(
        self, small_dataset, tmp_path, capsys, line, needle
    ):
        data_dir = tmp_path / "ds"
        shutil.copytree(small_dataset, data_dir)
        manifest = data_dir / MANIFEST_NAME
        lines = manifest.read_bytes().split(b"\n")
        lines.insert(2, line)
        manifest.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        code = run_cli(
            "train", "--data", str(data_dir), "--run-dir", str(tmp_path / "r"),
            "--hidden-dim", "8", "--epochs", "1", "--align-len", "16",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"emireg: data error: {manifest}" in err and needle in err
        assert "Traceback" not in err

    def test_nul_byte_in_manifest_path_is_data_error(self, small_dataset, tmp_path, capsys):
        data_dir = tmp_path / "ds"
        shutil.copytree(small_dataset, data_dir)
        manifest = data_dir / MANIFEST_NAME
        lines = manifest.read_bytes().split(b"\n")
        fields = lines[1].split(b",")
        fields[2] = b"features/a\x00b.emif"
        lines[1] = b",".join(fields)
        manifest.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        run_dir = tmp_path / "r"
        code = run_cli(
            "train", "--data", str(data_dir), "--run-dir", str(run_dir),
            "--hidden-dim", "8", "--epochs", "1", "--align-len", "16",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"emireg: data error: {manifest}:2: path holds a NUL byte")
        assert "Traceback" not in err
        assert not run_dir.exists()

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

    def test_one_row_val_split_is_data_error(self, one_row_val, tmp_path, capsys):
        run_dir = tmp_path / "r"
        code = run_cli(
            "train", "--data", str(one_row_val), "--run-dir", str(run_dir),
            "--epochs", "2", "--hidden-dim", "8", "--align-len", "16",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "emireg: data error: val split has 1 row(s)" in err
        assert not (run_dir / "log.jsonl").exists()
        assert not run_dir.exists()  # data is checked before the run directory is made

    def test_os_error_mid_run_is_logged_then_data_error(
        self, small_dataset, tmp_path, monkeypatch, capsys
    ):
        fail_replace_file_at(monkeypatch, 3)  # config.json, last.emic, then epoch 1's best.emic
        run_dir = tmp_path / "run"
        code = run_cli(
            "train", "--data", str(small_dataset), "--run-dir", str(run_dir),
            "--epochs", "3", "--hidden-dim", "8", "--align-len", "16",
        )
        assert code == 2
        assert "emireg: data error: [Errno 28] No space left on device" in capsys.readouterr().err
        log = [json.loads(line) for line in (run_dir / "log.jsonl").read_text().splitlines()]
        assert log[-2]["type"] == "abort"
        assert log[-2]["error_class"] == "OSError"
        assert log[-2]["error"].startswith("[Errno 28] No space left on device")
        assert log[-1]["type"] == "end"
        assert log[-1]["stop_reason"] == "error"

    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_config_write_removes_only_a_run_dir_it_made(
        self, small_dataset, tmp_path, monkeypatch, capsys, existed
    ):
        run_dir = tmp_path / "run"
        if existed:
            run_dir.mkdir()
        fail_replace_file_at(monkeypatch, 1)  # config.json
        code = run_cli(
            "train", "--data", str(small_dataset), "--run-dir", str(run_dir),
            "--epochs", "1", "--hidden-dim", "8", "--align-len", "16",
        )
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err
        assert run_dir.exists() == existed
        assert not existed or list(run_dir.iterdir()) == []

    def test_help_lists_paper_defaults(self, capsys):
        assert run_cli("train", "--help") == 0
        text = capsys.readouterr().out
        for needle in ("256", "0.2", "32", "0.0001", "30", "8", "1.0", "0.999", "128"):
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

    def write_pre_change_config(self, run_dir, **changes):
        """Rewrite the run's config.json as a run written before the removed keys went."""
        payload = json.loads((run_dir / "config.json").read_text())
        payload.update(REMOVED_KEYS, **changes)
        (run_dir / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def test_pre_change_config_gives_the_same_report(self, trained_run, capsys):
        ckpt = ("--ckpt", str(trained_run / "best.emic"))
        assert run_cli("evaluate", *ckpt) == 0
        fresh = capsys.readouterr().out
        self.write_pre_change_config(trained_run)
        assert run_cli("evaluate", *ckpt) == 0
        assert capsys.readouterr().out == fresh

    @pytest.mark.parametrize(
        "key,value", [("output_activation", "identity"), ("lr_cadence", "step")]
    )
    def test_pre_change_config_with_a_removed_variant_is_config_error(
        self, trained_run, capsys, key, value
    ):
        self.write_pre_change_config(trained_run, **{key: value})
        assert run_cli("evaluate", "--ckpt", str(trained_run / "best.emic")) == 1
        err = capsys.readouterr().err
        assert f"emireg: config error: {key} is no longer a setting" in err
        assert "Traceback" not in err

    def test_missing_checkpoint_is_data_error(self, trained_run):
        assert run_cli("evaluate", "--ckpt", str(trained_run / "gone.emic")) == 2

    def test_wrongly_typed_config_is_config_error(self, trained_run, tmp_path, capsys):
        payload = json.loads((trained_run / "config.json").read_text())
        payload["hidden_dim"] = str(payload["hidden_dim"])
        config = tmp_path / "typed.json"
        config.write_text(json.dumps(payload))
        ckpt = ("--ckpt", str(trained_run / "best.emic"), "--config", str(config))
        assert run_cli("evaluate", *ckpt) == 1
        assert run_cli("predict", *ckpt, "--out", str(tmp_path / "p.csv")) == 1
        err = capsys.readouterr().err
        assert err.count("emireg: config error: hidden_dim must be int") == 2
        assert "Traceback" not in err

    def test_checkpoint_with_extra_tensors_is_config_error(self, trained_run, tmp_path, capsys):
        # the run has the VAD pathway; a VAD-free model must not drop its tensors
        payload = json.loads((trained_run / "config.json").read_text())
        payload["vad_enabled"] = False
        config = tmp_path / "novad.json"
        config.write_text(json.dumps(payload))
        ckpt = ("--ckpt", str(trained_run / "best.emic"), "--config", str(config))
        assert run_cli("evaluate", *ckpt) == 1
        assert run_cli("evaluate", *ckpt, "--no-ema") == 1
        err = capsys.readouterr().err
        assert err.count("emireg: config error: unknown parameter values: ['vad.") == 2
        assert "Traceback" not in err

    def test_checkpoint_of_another_shape_is_config_error(self, trained_run, tmp_path, capsys):
        payload = json.loads((trained_run / "config.json").read_text())
        payload["hidden_dim"] = 16  # the run was trained with hidden 8
        config = tmp_path / "hidden16.json"
        config.write_text(json.dumps(payload))
        ckpt = ("--ckpt", str(trained_run / "best.emic"), "--config", str(config))
        assert run_cli("evaluate", *ckpt) == 1
        assert run_cli("predict", *ckpt, "--out", str(tmp_path / "p.csv")) == 1
        err = capsys.readouterr().err
        assert err.count("emireg: config error: parameter 'visual.proj.weight': stored shape") == 2
        assert "Traceback" not in err

    def test_config_without_dataset_is_config_error(self, trained_run, tmp_path, capsys):
        payload = json.loads((trained_run / "config.json").read_text())
        manifest = str(Path(payload["data_dir"]) / MANIFEST_NAME)
        payload["data_dir"] = None
        config = tmp_path / "no-data.json"
        config.write_text(json.dumps(payload))
        ckpt = ("--ckpt", str(trained_run / "best.emic"), "--config", str(config))
        out = ("--out", str(tmp_path / "p.csv"))
        assert run_cli("evaluate", *ckpt) == 1
        assert "no dataset given" in capsys.readouterr().err
        assert run_cli("predict", *ckpt, *out) == 1
        assert "no dataset given" in capsys.readouterr().err
        # predict needs only a manifest
        assert run_cli("predict", *ckpt, *out, "--manifest", manifest) == 0

    def test_one_row_split_is_data_error(self, trained_run, one_row_val, capsys):
        code = run_cli(
            "evaluate", "--ckpt", str(trained_run / "best.emic"),
            "--data", str(one_row_val), "--split", "val",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "emireg: data error: evaluation split has 1 row(s)" in err
        assert "Traceback" not in err

    def test_non_finite_checkpoint_is_data_error(self, trained_run, capsys):
        ckpt = trained_run / "best.emic"
        raw = bytearray(ckpt.read_bytes())
        # the first tensor's first value: after magic, version, name, rank and extents
        name_len = struct.unpack("<H", raw[6:8])[0]
        rank = raw[8 + name_len]
        first_value = 8 + name_len + 1 + 4 * rank
        raw[first_value : first_value + 8] = np.float64(np.nan).tobytes()
        ckpt.write_bytes(bytes(raw))
        assert run_cli("inspect", "--ckpt", str(ckpt)) == 2
        err = capsys.readouterr().err
        assert f"visual.proj.weight payload (at byte offset {first_value})" in err
        assert run_cli("evaluate", "--ckpt", str(ckpt), "--no-ema") == 2


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

    def test_ids_are_csv_quoted(self, trained_run, small_dataset, tmp_path):
        # a manifest is read as CSV, so an id may hold a comma, a quote or a newline
        odd_ids = ['a,"b', 'line\nbreak', '"quoted"', "plain"]
        rows = [r for r in load_manifest(small_dataset / MANIFEST_NAME) if r.split == "test"]
        rows = rows[: len(odd_ids)]
        for row, new_id in zip(rows, odd_ids):
            row.id = new_id
            row.path = str(small_dataset / row.path)
        manifest = tmp_path / "odd" / MANIFEST_NAME
        manifest.parent.mkdir()
        write_manifest(manifest, rows)
        plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
        ckpt = str(trained_run / "best.emic")
        assert run_cli("predict", "--ckpt", ckpt, "--out", str(plain)) == 0
        assert run_cli("predict", "--ckpt", ckpt, "--manifest", str(manifest),
                       "--out", str(odd)) == 0
        with open(odd, newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0] == ["id", "adm", "amu", "det", "emp", "exc", "joy"]
        assert [r[0] for r in records[1:]] == odd_ids
        assert all(len(r) == 7 for r in records)
        # the values are those of the same samples under their plain ids
        expected = [line.split(",")[1:] for line in plain.read_text().splitlines()[1:]]
        assert [r[1:] for r in records[1:]] == expected[: len(odd_ids)]

    def test_failed_write_keeps_the_previous_csv(self, trained_run, tmp_path, monkeypatch):
        out = tmp_path / "preds" / "p.csv"
        ckpt = str(trained_run / "best.emic")
        assert run_cli("predict", "--ckpt", ckpt, "--out", str(out)) == 0
        before = out.read_bytes()
        real_writer = csv.writer

        def writer_failing_after_one_row(fh, **kwargs):
            writer, rows = real_writer(fh, **kwargs), []

            class Failing:
                def writerow(self, row):
                    if len(rows) == 2:  # the header and one row went through
                        raise OSError("no space left on device")
                    rows.append(row)
                    return writer.writerow(row)

            return Failing()

        monkeypatch.setattr(csv, "writer", writer_failing_after_one_row)
        assert run_cli("predict", "--ckpt", ckpt, "--out", str(out), "--raw") == 2
        assert out.read_bytes() == before
        assert [p.name for p in out.parent.iterdir()] == [out.name]

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


    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seeds_below_one_is_usage_error(self, small_dataset, tmp_path, capsys, seeds):
        grid_dir = tmp_path / "grid"
        code = run_cli(
            "ablate", "--data", str(small_dataset), "--run-dir", str(grid_dir),
            "--hidden-dim", "8", "--epochs", "1", "--align-len", "16",
            "--seeds", seeds,
        )
        assert code == 1
        assert "emireg: config error: ablate needs at least one seed" in capsys.readouterr().err
        assert not grid_dir.exists()

    def test_seeds_past_int64_are_refused_before_any_cell(self, small_dataset, tmp_path, capsys):
        grid_dir = tmp_path / "grid"
        code = run_cli(
            "ablate", "--data", str(small_dataset), "--run-dir", str(grid_dir),
            "--hidden-dim", "8", "--epochs", "1", "--align-len", "16",
            "--seed", str(2**63 - 1), "--seeds", "2",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "emireg: config error: --seeds: the last seed is too large" in err
        assert not grid_dir.exists()

    def test_seeds_go_on_as_a_range(self, small_dataset, tmp_path, monkeypatch):
        passed = []

        def stop_at_the_grid(base, seeds):
            passed.append(seeds)
            raise ConfigError("stopped before the grid")

        monkeypatch.setattr(emireg.cli, "ablate", stop_at_the_grid)
        code = run_cli(
            "ablate", "--data", str(small_dataset), "--run-dir", str(tmp_path / "grid"),
            "--seed", "5", "--seeds", "3",
        )
        assert code == 1
        assert passed == [range(5, 8)]


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

    def test_extent_overflow_is_data_error(self, tmp_path, capsys):
        # 2**31 * 2**31 * 4 elements: 2**64, which wraps to 0 in int64
        record = b"\x01\x00w\x03" + struct.pack("<3I", 2**31, 2**31, 4)
        bad = tmp_path / "huge.emic"
        bad.write_bytes(b"EMIC\x01\x00" + record + np.float64(1.0).tobytes())
        assert run_cli("inspect", "--ckpt", str(bad)) == 2
        assert "truncated while reading w payload (at byte offset 22)" in capsys.readouterr().err

    def test_over_deep_rank_is_data_error(self, tmp_path, capsys):
        # numpy represents fewer dimensions than the rank byte allows
        record = b"\x01\x00w\x46" + struct.pack("<70I", *[1] * 70)
        bad = tmp_path / "deep.emic"
        bad.write_bytes(b"EMIC\x01\x00" + record + np.float64(1.0).tobytes())
        assert run_cli("inspect", "--ckpt", str(bad)) == 2
        err = capsys.readouterr().err
        assert "w rank 70 is more than numpy supports (at byte offset 9)" in err
        assert "Traceback" not in err

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


class TestLocale:
    def test_text_files_are_utf8_under_an_ascii_locale(self, trained_run, small_dataset, tmp_path):
        """A UTF-8 manifest, config and sidecar read, and a manifest written, as UTF-8."""
        rows = [r for r in load_manifest(small_dataset / MANIFEST_NAME) if r.split == "test"]
        rows[0].id = "café"
        for row in rows:
            row.path = str(small_dataset / row.path)
        write_manifest(tmp_path / MANIFEST_NAME, rows)
        (tmp_path / "config.json").write_bytes('{"data_dir": "café"}'.encode("utf-8"))
        (tmp_path / "synth.json").write_bytes('{"dims": "café"}'.encode("utf-8"))
        script = (
            "import codecs, locale, sys; from pathlib import Path; "
            "from emireg.cli import _sidecar_dims, main; "
            "from emireg.data import load_manifest, write_manifest; "
            "from emireg.train import TrainConfig; "
            "assert codecs.lookup(locale.getpreferredencoding(False)).name == 'ascii'; "
            "d = Path(sys.argv[1]); "
            "write_manifest(d / 'written.csv', load_manifest(d / 'manifest.csv')); "
            "print(ascii(TrainConfig.from_json(d / 'config.json').data_dir)); "
            "print(ascii(_sidecar_dims(d / 'synth.json'))); "
            "sys.exit(main(sys.argv[2:]))"
        )
        env = {
            **os.environ,
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "LC_ALL": "C",
            "PYTHONPATH": str(Path(emireg.__file__).parents[1]),
        }
        preds = tmp_path / "preds.csv"
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), "predict",
             "--ckpt", str(trained_run / "best.emic"), "--manifest", str(tmp_path / MANIFEST_NAME),
             "--split", "test", "--out", str(preds)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [r"'caf\xe9'", r"'caf\xe9'"]
        written = (tmp_path / "written.csv").read_bytes()
        assert written == (tmp_path / MANIFEST_NAME).read_bytes()
        assert "café" in written.decode("utf-8")
        assert preds.read_text(encoding="utf-8").splitlines()[1].startswith("café,")


class TestFlagTables:
    """Choice lists and defaults in the help come from the tables, not by hand."""

    def help_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "200")  # one help entry per line
        assert run_cli(command, "--help") == 0
        return capsys.readouterr().out

    def choice_lists(self, capsys, monkeypatch, command):
        text = self.help_text(capsys, monkeypatch, command)
        found = re.findall(r"--([a-z-]+) \{([^}]*)\}\s", text)
        return {flag: tuple(choices.split(",")) for flag, choices in found}

    def test_choice_lists_match_their_tables(self, capsys, monkeypatch):
        tables = {
            "fusion": FUSION_MODES,
            "hidden-activation": tuple(ACTIVATIONS),
            "vad": ("on", "off"),
        }
        assert self.choice_lists(capsys, monkeypatch, "train") == tables
        for command, flag, table in (
            ("evaluate", "split", SPLITS),
            ("predict", "split", SPLITS),
            ("gen-synth", "mode", SYNTHETIC_MODES),
        ):
            assert self.choice_lists(capsys, monkeypatch, command)[flag] == table

    def test_defaults_match_train_config(self, capsys, monkeypatch):
        text = self.help_text(capsys, monkeypatch, "train")
        found = re.findall(r"--([a-z-]+)(?: \S+)?\s+([^\n]*) \(default: ([^)]*)\)", text)
        defaults = TrainConfig()
        help_texts = {f.name: f.metadata.get("help") for f in fields(TrainConfig)}
        checked = set()
        for flag, help_text, shown in found:
            if flag == "run-dir":
                continue
            if flag == "vad":
                assert shown == ("on" if defaults.vad_enabled else "off")
                continue
            name = flag.replace("-", "_")
            value = getattr(defaults, name)
            assert type(value)(shown) == value, flag
            assert help_text == help_texts[name], flag
            checked.add(flag)
        assert len(checked) == 21

    def test_every_config_field_has_a_train_flag(self):
        args = build_parser().parse_args(["train"])
        # --config names a file and --data sets data_dir; every other flag is a field
        settable = (set(vars(args)) - {"command", "config", "data"}) | {"data_dir"}
        assert settable == {f.name for f in fields(TrainConfig)}
