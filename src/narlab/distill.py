"""Sequence-level distillation: teacher greedy decodes as training targets,
monolingual mixing, and the de-dup output postprocess."""

from __future__ import annotations

from .util import rng_for

PARALLEL = "parallel"
MONOLINGUAL = "monolingual"


def distill_corpus(teacher, sources, origin: str) -> tuple:
    """Decode every source with the teacher (greedy).

    Returns (pairs, n_dropped) where pairs are (src, teacher_target, origin)
    triples in input order and n_dropped counts empty decodes.
    """
    if origin not in (PARALLEL, MONOLINGUAL):
        raise ValueError(f"origin must be parallel or monolingual, got {origin!r}")
    targets = teacher.greedy_decode_batch(sources)
    pairs = []
    dropped = 0
    for src, tgt in zip(sources, targets):
        if not tgt:
            dropped += 1
            continue
        pairs.append((list(src), tgt, origin))
    return pairs, dropped


def mix_monolingual(parallel_pairs, mono_pairs, fraction: float, mix_seed: int) -> list:
    """All parallel pairs plus a seeded shuffled prefix of the mono pool.

    The prefix rule makes selections nest across fractions (the 25% set is
    a subset of the 50% set under the same seed); the combined corpus order
    is then itself shuffled by the seed.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"monolingual fraction must be in [0, 1], got {fraction}")
    order = rng_for(mix_seed, "mono-prefix").permutation(len(mono_pairs))
    k = int(round(fraction * len(mono_pairs)))
    mixed = list(parallel_pairs) + [mono_pairs[i] for i in order[:k]]
    final = rng_for(mix_seed, "mix-order").permutation(len(mixed))
    return [mixed[i] for i in final]


def strip_origin(pairs) -> list:
    """(src, tgt, origin) triples -> (src, tgt) training pairs."""
    return [(src, tgt) for src, tgt, _ in pairs]


def dedup_adjacent(seq) -> list:
    """Collapse each run of identical adjacent tokens to a single token.
    Evaluation-time postprocess only; never applied to training targets."""
    out = []
    for tok in seq:
        if not out or out[-1] != tok:
            out.append(tok)
    return out
