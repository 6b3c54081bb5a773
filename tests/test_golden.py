"""The determinism contract as one table: CLI commands -> sha256 of every path-free output.

Each entry makes a dataset with ``gen-synth`` and trains on it, or runs the
ablation grid on it. A ``train`` entry then evaluates ``best.emic`` on the
train and val splits and predicts the test split, each with EMA and with raw
weights, and its predictions both as probabilities and as ``--raw`` logits.
Every file a command leaves is hashed except ``config.json``, which records
the data and run paths; nothing else depends on a path, so an entry gives
the same hashes in any directory.

``golden.json`` beside this module is its output as a script, with no flags::

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json

It records the numpy and BLAS it was made with. Another BLAS may round
differently; a mismatch then fails and names both platforms.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from emireg.cli import main

TABLE_PATH = Path(__file__).with_name("golden.json")

# config (a): a small dataset and model that train in well under a second
_GEN_A = "gen-synth --n 120 --dims 8:7:6 --seed 11 --out {data}"
_FLAGS_A = "--hidden-dim 8 --align-len 16 --batch-size 16 --lr 1e-3 --seed 11"
_TRAIN_A = f"train --data {{data}} --run-dir {{run}} {_FLAGS_A} --epochs 3"

# a command's `> {out}/NAME` keeps its stdout as that file
_CHECKPOINT_COMMANDS = [
    *(
        f"evaluate --ckpt {{run}}/best.emic --split {split}{flag} > {{out}}/eval_{split}_{kind}.json"
        for split in ("train", "val")
        for kind, flag in (("ema", ""), ("raw", " --no-ema"))
    ),
    *(
        f"predict --ckpt {{run}}/best.emic --split test{flag}{raw}"
        f" --out {{out}}/predict_test_{kind}_{values}.csv"
        for kind, flag in (("ema", ""), ("raw", " --no-ema"))
        for values, raw in (("probs", ""), ("logits", " --raw"))
    ),
]


def _config_a(*flags: str) -> list[str]:
    """Config (a) trained with ``flags``, then its checkpoint evaluated and run."""
    return [_GEN_A, " ".join((_TRAIN_A, *flags)), *_CHECKPOINT_COMMANDS]


# entry name -> the commands that run it, with {data}, {run} and {out} for
# its dataset, run and output directories
ENTRIES = {
    "a": _config_a(),
    "a_identity": _config_a("--hidden-activation identity"),
    "a_G1_novad_average_mse": _config_a(
        "--vad off --fusion average --lambda-corr 0 --lambda-aux 0"
    ),
    "a_G2_zero_rates": _config_a("--dropout 0 --weight-decay 0 --lambda-vad 0"),
    "a_G3_identity_dropout0": _config_a("--hidden-activation identity --dropout 0"),
    "a_identity_dropout0_wd0": _config_a(
        "--hidden-activation identity --dropout 0 --weight-decay 0"
    ),
    "ablate_a": [_GEN_A, f"ablate --data {{data}} --run-dir {{run}} {_FLAGS_A} --epochs 2"],
    # config (b): the reference shapes
    "b": [
        "gen-synth --n 150 --dims 512:768:768 --seed 5 --out {data}",
        "train --data {data} --run-dir {run} --hidden-dim 256 --align-len 128"
        " --batch-size 32 --epochs 2 --lr 1e-3 --ema-decay 0.9 --seed 5",
        *_CHECKPOINT_COMMANDS,
    ],
}


def run_entry(name: str, workdir: Path) -> dict[str, str]:
    """Run one entry under ``workdir``; the sha256 of each output, by its path there."""
    dirs = {key: workdir / key for key in ("data", "run", "out")}
    dirs["out"].mkdir(parents=True)
    for command in ENTRIES[name]:
        argv, _, target = command.partition(" > ")
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main([arg.format(**dirs) for arg in argv.split()])
        if code != 0:
            raise RuntimeError(f"{name}: `emireg {argv}` exited {code}: {stderr.getvalue()}")
        if target:
            Path(target.format(**dirs)).write_text(stdout.getvalue())
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for root in (dirs["run"], dirs["out"])
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "config.json"
    }


def platform() -> dict[str, str]:
    """The numpy and BLAS this process computes with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": f"{blas['name']} {blas['version']}", "numpy": np.__version__}


def table() -> dict:
    """Every entry's commands and output hashes, and the platform that made them."""
    entries = {}
    for name in ENTRIES:
        with tempfile.TemporaryDirectory() as workdir:
            entries[name] = {"commands": ENTRIES[name], "sha256": run_entry(name, Path(workdir))}
    return {"platform": platform(), "entries": entries}


@pytest.mark.parametrize("name", list(ENTRIES))
def test_entry_reproduces_the_table(name, tmp_path):
    golden = json.loads(TABLE_PATH.read_text())
    assert set(golden["entries"]) == set(ENTRIES), f"{TABLE_PATH.name} is stale: regenerate it"
    recorded = golden["entries"][name]
    assert recorded["commands"] == ENTRIES[name], f"{TABLE_PATH.name} is stale: regenerate it"
    hashes = run_entry(name, tmp_path)
    differ = sorted(
        key for key in hashes.keys() | recorded["sha256"].keys()
        if hashes.get(key) != recorded["sha256"].get(key)
    )
    assert not differ, (
        f"{name}: {differ} differ from {TABLE_PATH.name}, made with {golden['platform']};"
        f" this process runs {platform()}"
    )


if __name__ == "__main__":
    json.dump(table(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
