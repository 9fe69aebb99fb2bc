"""Paths, fixed seeds and model recipes shared by the build and the runs."""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# everything the benchmark writes lives here (ignored by git)
OUT = ROOT / ".bench_build" / "perfbench"

# BLAS threads: one, so that a run's load is a single thread of a single
# process and run-to-run spread stays low on a shared two-core machine
BLAS_THREADS = 1

# the desk recipe (configs/desk.yaml) for both tasks: vocabulary 32 + 4
# reserved ids, lengths 3..12, permutation seed 0
REVERSAL = dict(kind="mapped_reversal", perm_seed=0)
DUPLICATION = dict(kind="even_duplication", perm_seed=0)

# fixed-budget training of the models every run loads (early stopping off)
TEACHER_PAIRS, TEACHER_DATA_SEED, TEACHER_EPOCHS = 8000, 1, 12
STUDENT_EPOCHS = 8
MODEL_SEED = 0


def pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    n = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def use_source_tree() -> None:
    """Import narlab from the checkout's src/ directory."""
    if not (SRC / "narlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no narlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def build_dir() -> Path:
    """Model directory keyed by the program and build sources, so an edit
    to either retrains instead of reusing stale models."""
    h = hashlib.blake2b(digest_size=8)
    files = sorted((SRC / "narlab").rglob("*.py")) + [HERE / "build.py", HERE / "common.py"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return OUT / "models" / h.hexdigest()
