"""Correctness checks the workloads run on their own outputs.

Each check compares an output against a property the method must have,
recomputed along a path apart from the one under test: teacher-forced
scoring for greedy decoding, central finite differences for
reverse-mode gradients, single-sentence emission and scoring for the
batched length-parallel decoder.  None compares against stored outputs.
Every check returns the indices (or names) of the items it rejects, so the
self-test can feed it one corrupted item and see it rejected.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from narlab import tensor, training
from narlab.vocab import BOS_ID, EOS_ID

# log-probability (or probability) gap under which two choices count as tied
NEAR_TIE = 1e-6
# central-difference steps, and agreement |a - b| <= GRAD_ATOL + GRAD_RTOL * max(|a|, |b|)
GRAD_STEPS, GRAD_ATOL, GRAD_RTOL = (1e-5, 1e-7), 1e-7, 1e-4
# teacher score gap under which a candidate counts as tied with the best
SCORE_TOL = 1e-6


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def greedy_inconsistent(teacher, srcs, outs) -> list:
    """Indices of outputs that are not the teacher's greedy decode: some
    token is not the argmax of the teacher-forced distribution on
    [BOS] + output, or the output stops before the length cap where that
    distribution does not pick EOS."""
    groups = defaultdict(list)
    for i, (src, out) in enumerate(zip(srcs, outs)):
        groups[(len(src), len(out))].append(i)
    bad = []
    for (n_src, n_out), idxs in sorted(groups.items()):
        cap = min(2 * n_src + 8, teacher.config.max_len - 1)
        src_ids = np.array([srcs[i] for i in idxs], dtype=np.int64)
        tgt_in = np.array([[BOS_ID] + list(outs[i]) for i in idxs], dtype=np.int64)
        with tensor.no_grad():
            logp = _log_softmax(teacher.ar_logits_batch(src_ids, tgt_in).data)
        for row, i in enumerate(idxs):
            wanted = list(outs[i]) + ([EOS_ID] if n_out < cap else [])
            chosen = logp[row, np.arange(len(wanted)), wanted]
            if np.any(logp[row, : len(wanted)].max(axis=-1) - chosen > NEAR_TIE):
                bad.append(i)
    return bad


def sample_entries(params: dict, n: int, rng) -> list:
    """n seeded (parameter name, flat index) pairs."""
    names = sorted(params)
    picks = []
    for _ in range(n):
        name = names[int(rng.integers(len(names)))]
        picks.append((name, int(rng.integers(params[name].data.size))))
    return picks


def backward_gradients(model, src_arr, tgt_arr, eps: float) -> dict:
    """Gradients of one batch's loss from tensor.backward."""
    for p in model.params.values():
        p.zero_grad()
    loss, _ = training.batch_loss(model, src_arr, tgt_arr, eps)
    tensor.backward(loss)
    return {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for k, p in model.params.items()}


def _central_difference(model, src_arr, tgt_arr, eps: float, name: str, k: int,
                        step: float) -> float:
    param = model.params[name]
    orig = param.data  # after Adam a 0-d parameter holds a numpy scalar
    losses = []
    for delta in (step, -step):
        moved = np.array(orig, dtype=np.float64)
        moved[np.unravel_index(k, moved.shape)] += delta
        param.data = moved
        with tensor.no_grad():
            losses.append(training.batch_loss(model, src_arr, tgt_arr, eps)[0].item())
    param.data = orig
    return (losses[0] - losses[1]) / (2 * step)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= GRAD_ATOL + GRAD_RTOL * max(abs(a), abs(b))


def gradient_mismatches(model, src_arr, tgt_arr, eps: float, grads: dict,
                        entries) -> tuple:
    """(rejected, inconclusive) entries.  An entry is rejected when its
    backward gradient disagrees with central differences that agree with
    each other at both step sizes; it is inconclusive when the two
    differences disagree, which happens when a ReLU kink lies within the
    larger step (the loss is not smooth there)."""
    rejected, inconclusive = [], []
    for name, k in entries:
        fds = [_central_difference(model, src_arr, tgt_arr, eps, name, k, step)
               for step in GRAD_STEPS]
        if not _close(*fds):
            inconclusive.append((name, k))
        elif not _close(fds[-1], grads[name][np.unravel_index(k, grads[name].shape)]):
            rejected.append((name, k))
    return rejected, inconclusive


def candidates(student, teacher, src, C: int, B: int) -> list:
    """(teacher score, tokens) for the argmax of nar_forward at every
    usable length in [T+C-B, T+C+B], one sentence at a time."""
    T = len(src)
    limit = min(student.config.max_len, teacher.config.max_len - 1)
    out = []
    for L in range(max(1, T + C - B), min(T + C + B, limit) + 1):
        tokens = [int(t) for t in student.nar_forward(src, L).argmax(axis=-1)]
        out.append((teacher.sequence_logprob(src, tokens)[0], tokens))
    return out


def translation_faults(student, teacher, src, out, C: int, B: int) -> list:
    """Reasons one length-parallel translation is wrong: its length lies
    outside [T+C-B, T+C+B], its tokens are not the argmax of nar_forward
    at that length, or another candidate length scores higher with the
    teacher."""
    T = len(src)
    if not T + C - B <= len(out) <= T + C + B:
        return ["length"]
    faults = []
    probs = student.nar_forward(src, len(out))
    if np.any(probs.max(axis=-1) - probs[np.arange(len(out)), out] > NEAR_TIE):
        faults.append("argmax")
    best = max(score for score, _ in candidates(student, teacher, src, C, B))
    if teacher.sequence_logprob(src, out)[0] < best - SCORE_TOL:
        faults.append("rerank")
    return faults
