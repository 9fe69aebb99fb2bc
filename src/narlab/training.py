"""Shared optimization loop for the AR teacher and NAR student.

Label-smoothed cross-entropy, Adam with the inverse-sqrt warm-up schedule,
validation-loss early stopping, last-k checkpoint averaging, and
``train_student``, the one path from a teacher and its distilled corpora to a student.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .corpora import write_lines
from .distill import mix_monolingual
from .lengths import estimate_C
from .nar import NARTransformer
from .tensor import Tensor
from .transformer import NAR, _teacher_forced_rows
from .util import group_positions, rng_for

@dataclass(frozen=True)
class TrainConfig:
    batch_tokens: int = 512
    warmup_steps: int = 200
    peak_lr: float = 0.01
    label_smoothing: float = 0.1
    patience_epochs: int = 5
    average_last_k: int = 5
    max_epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        for name in ("batch_tokens", "warmup_steps", "patience_epochs",
                     "average_last_k", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")


def lr_schedule(step: int, config: TrainConfig, model_dim: int) -> float:
    """Inverse-sqrt schedule with the scale fitted so lr(warmup) == peak_lr."""
    if step < 1:
        raise ValueError("schedule is defined for step >= 1")
    scale = config.peak_lr * math.sqrt(model_dim * config.warmup_steps)
    return scale * model_dim ** -0.5 * min(step ** -0.5,
                                           step * config.warmup_steps ** -1.5)


# ---------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------

def _smooth_targets(targets: np.ndarray, vocab_size: int, eps: float) -> np.ndarray:
    # q = (1 - eps) on the target id, eps/(V-1) spread over the others
    q = np.full(targets.shape + (vocab_size,), eps / (vocab_size - 1))
    np.put_along_axis(q, targets[..., None], 1.0 - eps, axis=-1)
    return q


def smoothed_ce_from_logits(logits: Tensor, targets: np.ndarray, eps: float) -> Tensor:
    """Mean label-smoothed cross-entropy over all positions of a rectangular
    batch (training path: stable log-softmax, no padding present)."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.shape[:-1] != targets.shape:
        raise ValueError(
            f"logits positions {logits.shape[:-1]} do not match targets {targets.shape}"
        )
    q = _smooth_targets(targets, logits.shape[-1], eps)
    per_pos = (T.log_softmax(logits) * Tensor(q)).sum(axis=-1)
    return per_pos.sum() * Tensor(-1.0 / targets.size)


# ---------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------

class Adam:
    """Adam with the base-transformer conventions: beta2 = 0.98, eps = 1e-9."""

    BETA1, BETA2, EPS = 0.9, 0.98, 1e-9

    def __init__(self, params: dict):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float):
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        # m and v are updated in place, each ufunc in the order of
        # m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
        # p = p - lr (m / bc1) / (sqrt(v / bc2) + eps)
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            gg = (1.0 - self.BETA2) * g
            gg *= g
            v += gg
            denom = np.sqrt(v / bc2)
            denom += self.EPS
            update = m / bc1
            update /= denom
            update *= lr
            p.data = np.asarray(p.data - update)  # a 0-d parameter stays an array


# ---------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------

def make_batches(pairs, batch_tokens: int, rng=None) -> list:
    """Rectangular batches: the list ``pairs`` grouped by exact (src_len,
    tgt_len), each group chunked to about ``batch_tokens`` source+target
    tokens.  With an rng, order is shuffled within groups and across
    batches."""
    batches = []
    for (ls, lt), idxs in group_positions([(len(s), len(t)) for s, t in pairs]):
        if rng is not None:
            idxs = [idxs[i] for i in rng.permutation(len(idxs))]
        per = max(1, batch_tokens // (ls + lt + 1))
        for i in range(0, len(idxs), per):
            chunk = [pairs[j] for j in idxs[i : i + per]]
            src_arr = np.array([s for s, _ in chunk], dtype=np.int64)
            tgt_arr = np.array([t for _, t in chunk], dtype=np.int64)
            batches.append((src_arr, tgt_arr))
    if rng is not None:
        batches = [batches[i] for i in rng.permutation(len(batches))]
    return batches


def batch_loss(model, src_arr: np.ndarray, tgt_arr: np.ndarray, eps: float) -> tuple:
    """(scalar loss Tensor, position count) for one rectangular batch;
    dispatches on model flavor."""
    if model.config.flavor == NAR:
        logits = model.nar_logits_batch(src_arr, tgt_arr.shape[1])
        targets = tgt_arr
    else:
        tgt_in, targets, _ = _teacher_forced_rows(tgt_arr)
        logits = model.ar_logits_batch(src_arr, tgt_in)
    return smoothed_ce_from_logits(logits, targets, eps), targets.size


EVAL_BATCH_TOKENS = 4096  # tokens per batch of a no-grad loss pass


def dataset_loss(model, pairs, eps: float) -> float | None:
    """Token-weighted mean smoothed CE over a dataset (no grads); None for
    no pairs."""
    total, count = 0.0, 0
    with T.no_grad():
        for src_arr, tgt_arr in make_batches(pairs, EVAL_BATCH_TOKENS):
            loss, n = batch_loss(model, src_arr, tgt_arr, eps)
            total += loss.item() * n
            count += n
    return total / count if count else None


# ---------------------------------------------------------------------
# checkpoint averaging / student init
# ---------------------------------------------------------------------

def average_checkpoints(snapshots: list) -> dict:
    """Elementwise mean of parameter value dicts."""
    if not snapshots:
        raise ValueError("no checkpoints to average")
    names = set(snapshots[0])
    if any(set(s) != names for s in snapshots):
        raise ValueError("checkpoint parameter sets differ")
    return {
        name: np.asarray(sum(s[name] for s in snapshots) / len(snapshots)) for name in names
    }


def init_student_from_teacher(teacher_params: dict, student_params: dict) -> dict:
    """Copy the embedding table and every encoder parameter from the teacher;
    decoder and soft-copy parameters keep their fresh initialization."""
    for name, tp in teacher_params.items():
        if name != "embedding" and not name.startswith("encoder."):
            continue
        if name not in student_params:
            raise ValueError(f"student is missing teacher parameter {name}")
        if student_params[name].shape != tp.shape:
            raise ValueError(
                f"shape mismatch at {name}: teacher {tp.shape}, "
                f"student {student_params[name].shape}"
            )
        np.copyto(student_params[name].data, tp.data)
    return student_params


# ---------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    valid_loss: float | None  # None: no validation pairs
    lr: float
    wall_seconds: float


def train(model, corpus, config: TrainConfig, validation, curves_path=None,
          log=None) -> list:
    """Train in place; on return model.params hold the mean of the last
    average_last_k epoch checkpoints; no ``validation`` pairs, no early
    stopping.  Returns per-epoch records and, if ``curves_path`` is given,
    mirrors them there as JSON lines."""
    if not corpus:
        raise ValueError("empty training corpus")
    eps = config.label_smoothing
    model_dim = model.config.model_dim
    opt = Adam(model.params)
    ring: deque = deque(maxlen=config.average_last_k)
    records: list = []
    best_valid = math.inf
    best_epoch = 0
    step = 0

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        rng = rng_for(config.seed, "epoch", epoch)
        total, count = 0.0, 0
        lr = 0.0
        for src_arr, tgt_arr in make_batches(corpus, config.batch_tokens, rng):
            step += 1
            opt.zero_grad()
            loss, n = batch_loss(model, src_arr, tgt_arr, eps)
            if not math.isfinite(loss.item()):
                raise RuntimeError(
                    f"training diverged: non-finite loss at step {step} (epoch {epoch})"
                )
            T.backward(loss)
            lr = lr_schedule(step, config, model_dim)
            opt.step(lr)
            total += loss.item() * n
            count += n
        train_loss = total / count
        valid_loss = dataset_loss(model, validation, eps)
        rec = EpochRecord(epoch, train_loss, valid_loss, lr, time.perf_counter() - t0)
        records.append(rec)
        ring.append({k: p.data.copy() for k, p in model.params.items()})
        if log:
            valid = "none" if valid_loss is None else f"{valid_loss:.4f}"
            log(f"epoch {epoch:3d}  train {train_loss:.4f}  valid {valid}  lr {lr:.2e}")
        if valid_loss is None:
            continue
        if valid_loss < best_valid - 1e-12:
            best_valid, best_epoch = valid_loss, epoch
        elif epoch - best_epoch >= config.patience_epochs:
            break

    for name, val in average_checkpoints(list(ring)).items():
        model.params[name].data = val
    if curves_path is not None:
        write_lines(curves_path, (json.dumps(asdict(rec), sort_keys=True) for rec in records))
    return records


def train_student(teacher, parallel, mono, fraction: float, mix_seed: int,
                  config: TrainConfig, validation, curves_path=None, log=None) -> tuple:
    """A NAR student of ``teacher``'s config, initialized from it, trained on
    ``mix_monolingual(parallel, mono, fraction, mix_seed)``; returns (student,
    epoch records, C of the mixed corpus, the trained student's loss on it)."""
    mixed = mix_monolingual(parallel, mono, fraction, mix_seed)
    student = NARTransformer(teacher.config.as_nar(), seed=config.seed)
    init_student_from_teacher(teacher.params, student.params)
    records = train(student, mixed, config, validation, curves_path=curves_path, log=log)
    return (student, records, estimate_C(mixed),
            dataset_loss(student, mixed, config.label_smoothing))
