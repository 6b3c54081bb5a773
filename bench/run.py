"""Run one emireg benchmark workload and print its metrics.

    python3 bench/run.py --workload train_ref --seed 1 --seconds 30 --trace 0

Run from the repository root: the program is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The lines before it name every metric with its unit, and the environment.
The exit code is 0 only if every call succeeded and every output check
passed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def _blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; set before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(nproc: int) -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas": "unknown",
        "blas_threads": "unknown",
        "git_sha": _git_sha(),
    }
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config and get_threads:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    env["blas"] = get_config().decode()
                    env["blas_threads"] = get_threads()
                    return env
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "emireg" / "__init__.py").is_file():
        print(f"error: emireg sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = _blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import SPECS, Workload

    spec = SPECS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(SPECS)}", file=sys.stderr)
        return 2

    work_dir = WORK / f"{spec.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = Workload(spec, args.seed, args.seconds, bool(args.trace), work_dir)
    metrics: dict = {}
    try:
        metrics = workload.run()
    except Exception:
        traceback.print_exc()
        workload.ledger.attempted += 1
        workload.ledger.failed += 1
        workload.ledger.problems.append("a call raised (traceback above)")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ledger = workload.ledger
    attempted = max(ledger.attempted, 1)
    if not args.trace and metrics:
        metrics["ok_op_frac"] = ((attempted - ledger.failed) / attempted, "ratio")
    env = _environment(nproc)
    env.update(workload=spec.name, seed=args.seed, seconds=args.seconds, trace=args.trace)
    if workload.config is not None:
        # data_dir names this run's scratch directory, not the experiment
        env["config_hash"] = replace(workload.config, data_dir=None).config_hash()

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    for name, values in workload.samples.items():
        print(f"  {name}: median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}")
    print(f"failed_op_frac {ledger.failed / attempted:.6g} ({ledger.failed} of {attempted})")
    for problem in ledger.problems:
        print(f"FAILED: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": ledger.failed == 0,
        "attempted": attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
