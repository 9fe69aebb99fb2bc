"""Target-length prediction and length-parallel decoding with teacher reranking.

The student emits one candidate per length in [T + C - B, T + C + B]; the
AR teacher scores each candidate and the best one is returned.  Each model
encodes a group of same-length sources once, and all candidate lengths of
the group share one right-padded student pass and one teacher pass.
Gold-length decoding, the oracle row of the analyses, emits at each
reference's length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .util import map_groups


@dataclass(frozen=True)
class LengthPolicy:
    C: int = 0
    B: int = 0

    def __post_init__(self):
        if self.B < 0:
            raise ValueError(f"half-width B must be nonnegative, got {self.B}")


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def estimate_C(corpus) -> int:
    """Round-half-away-from-zero mean of len(tgt) - len(src) over the corpus."""
    pairs = list(corpus)
    if not pairs:
        raise ValueError("cannot estimate C from an empty corpus")
    diffs = [len(t) - len(s) for s, t in pairs]
    return _round_half_away(sum(diffs) / len(diffs))


def candidate_lengths(T: int, policy: LengthPolicy) -> list:
    """[T+C-B, T+C+B] with sub-1 values clamped away; never empty."""
    if T < 1:
        raise ValueError(f"source length must be >= 1, got {T}")
    center = T + policy.C
    cands = [L for L in range(center - policy.B, center + policy.B + 1) if L >= 1]
    return cands if cands else [1]


def _usable_lengths(student, teacher, T: int, policy: LengthPolicy) -> list:
    """Candidates that both models can represent: the student emits L
    positions, the teacher scores BOS + L positions."""
    limit = min(student.config.max_len, teacher.config.max_len - 1)
    usable = [L for L in candidate_lengths(T, policy) if L <= limit]
    if not usable:
        raise ValueError(
            f"no candidate length for source length {T} fits within "
            f"max_len (limit {limit}, policy {policy})"
        )
    return usable


def _pick(lens, center: int, scores: np.ndarray) -> np.ndarray:
    """Per column of the (K, G) ``scores`` of candidate lengths ``lens``,
    the row of the best candidate: highest score, then the length nearest
    the predicted ``center``, then the shorter one."""
    pref = sorted(range(len(lens)), key=lambda k: (abs(lens[k] - center), lens[k]))
    # argmax keeps the first of equal scores, the preferred length
    return np.asarray(pref)[np.argmax(scores[pref], axis=0)]


def length_parallel_decode_corpus(student, teacher, srcs, policy: LengthPolicy,
                                  rank_mode: str = "sum_logprob") -> list:
    """Length-parallel decoding with teacher reranking, per sentence.
    Groups sentences by source length and scores each group's candidates
    in one stacked pass per model (``_score_group``)."""
    # kept for the value perfbench's _serve passes; ROADMAP item 1 drops both
    if rank_mode != "sum_logprob":
        raise ValueError(f"rank_mode must be 'sum_logprob', got {rank_mode!r}")
    if student.config.vocab_size != teacher.config.vocab_size:
        raise ValueError(
            f"student/teacher vocab mismatch: {student.config.vocab_size} "
            f"vs {teacher.config.vocab_size}"
        )

    def rerank(T_src, idxs):
        lens = _usable_lengths(student, teacher, T_src, policy)
        emitted, scores = _score_group(student, teacher, [srcs[i] for i in idxs], lens)
        picks = _pick(lens, T_src + policy.C, scores)
        return [emitted[k * len(idxs) + j] for j, k in enumerate(picks)]

    return map_groups([len(s) for s in srcs], rerank)


def _score_group(student, teacher, group, lens) -> tuple:
    """Every candidate of G same-length sources at each of the K lengths
    ``lens``: the K * G emissions, length-major (row k * G + j holds source
    j at length ``lens[k]``), and their teacher scores as a (K, G) array.

    Each model encodes the group once.  The K * G candidate rows, ordered
    length-major and right-padded to the longest length, then take one
    student pass and one teacher pass.
    """
    K, G = len(lens), len(group)
    src_ids = np.stack([student._check_ids(s, "source") for s in group])
    with T.no_grad():
        s_enc, t_enc = (Tensor(np.tile(m.encode_batch(src_ids).data, (K, 1, 1)))
                        for m in (student, teacher))
    rows = list(group) * K
    emitted = student.nar_greedy_emit_batch(rows, np.repeat(lens, G), enc_out=s_enc)
    return emitted, teacher.sequence_logprob_batch(rows, emitted, enc_out=t_enc).reshape(K, G)


def gold_length_decode(student, srcs, refs) -> list:
    """Student emissions at each reference's true length: no candidate
    window and no reranking.  Batches by (source, reference) length."""
    if len(refs) != len(srcs):
        raise ValueError(
            f"gold-length decoding needs one reference per source, got "
            f"{len(refs)} reference lines for {len(srcs)} source lines"
        )

    def emit(shape, idxs):
        return student.nar_greedy_emit_batch([srcs[i] for i in idxs], shape[1])

    return map_groups([(len(s), len(r)) for s, r in zip(srcs, refs)], emit)
