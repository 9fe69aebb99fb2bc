"""BLEU scoring and the paper-style analyses: length-bucket BLEU, the
half-width sweep, and the loss-gap-vs-monolingual-fraction report.

Three worked examples pin corpus_bleu's semantics (the test suite holds
it to these numbers):

1. identity: hyp == ref == [1 2 3 4] -> all precisions 1, BP 1, BLEU 100.
2. clipping and hard zeros: hyp [7 7 7 9] vs ref [7 9 8] -> unigram
   precision is clipped to 2/4 (the ref has only one 7), there are no
   matching 3- or 4-grams, and with no smoothing any zero precision
   zeroes BLEU.
3. brevity penalty: hyp [1 2 3] vs ref [1 2 3 4] -> matched n-grams are
   perfect but the hypothesis is short, so BP = exp(1 - 4/3).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .lengths import LengthPolicy, gold_length_decode, length_parallel_decode_corpus

MAX_ORDER = 4

# tercile edges for the desk-scale synthetic length range 3..12 (the paper's
# 20-token buckets do not resolve at these lengths); override via config
DESK_BUCKET_EDGES = ((1, 6), (7, 9), (10, 12))


@dataclass
class BleuReport:
    bleu: float
    precisions: list
    brevity_penalty: float
    hyp_tokens: int
    ref_tokens: int


def _ngrams(seq, n: int) -> Counter:
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def corpus_bleu(hypotheses, references, smooth: bool = False) -> BleuReport:
    """Standard 4-gram corpus BLEU with clipped counts and brevity penalty.

    Unsmoothed by default: any zero precision gives BLEU 0.  ``smooth``
    switches on add-one smoothing for orders >= 2 (tiny desk corpora can
    lack 4-gram matches entirely).
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference counts differ: {len(hypotheses)} vs {len(references)}"
        )
    if not references:
        raise ValueError("empty reference list rejected")
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_tokens = ref_tokens = 0
    for hyp, ref in zip(hypotheses, references):
        hyp, ref = list(hyp), list(ref)
        hyp_tokens += len(hyp)
        ref_tokens += len(ref)
        for n in range(1, MAX_ORDER + 1):
            hgrams = _ngrams(hyp, n)
            rgrams = _ngrams(ref, n)
            matches[n - 1] += sum(min(c, rgrams[g]) for g, c in hgrams.items())
            totals[n - 1] += max(0, len(hyp) - n + 1)

    precisions = []
    for n in range(MAX_ORDER):
        m, t = matches[n], totals[n]
        if smooth and n >= 1:
            m, t = m + 1, t + 1
        precisions.append(m / t if t > 0 else 0.0)

    if hyp_tokens == 0:
        return BleuReport(0.0, precisions, 0.0, 0, ref_tokens)
    bp = 1.0 if hyp_tokens >= ref_tokens else math.exp(1.0 - ref_tokens / hyp_tokens)
    if any(p == 0.0 for p in precisions):
        bleu = 0.0
    else:
        bleu = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER)
    return BleuReport(bleu, precisions, bp, hyp_tokens, ref_tokens)


# ---------------------------------------------------------------------
# length buckets
# ---------------------------------------------------------------------

@dataclass
class BucketRow:
    interval: tuple
    count: int
    bleu: float | None


def check_bucket_edges(bucket_edges) -> list:
    """The inclusive (lo, hi) intervals sorted, once none is empty-ranged
    and none overlap; otherwise a ValueError."""
    edges = sorted((int(lo), int(hi)) for lo, hi in bucket_edges)
    for (lo, hi) in edges:
        if lo > hi:
            raise ValueError(f"bucket [{lo}, {hi}] is empty-ranged")
    for (_, hi_a), (lo_b, _) in zip(edges, edges[1:]):
        if lo_b <= hi_a:
            raise ValueError(f"bucket edges overlap at {hi_a} / {lo_b}")
    return edges


def bucket_bleu(hypotheses, references, sources, bucket_edges=DESK_BUCKET_EDGES,
                smooth: bool = False) -> list:
    """One BucketRow per source-length interval, in sorted order, holding
    its corpus BLEU; intervals are inclusive and must not overlap, and
    every source length must fall in some bucket."""
    if not len(hypotheses) == len(references) == len(sources):
        raise ValueError("hypotheses, references and sources must align")
    edges = check_bucket_edges(bucket_edges)

    members: dict = {e: [] for e in edges}
    for i, src in enumerate(sources):
        L = len(src)
        home = next((e for e in edges if e[0] <= L <= e[1]), None)
        if home is None:
            raise ValueError(f"source length {L} not covered by any bucket")
        members[home].append(i)

    rows = []
    for e in edges:
        idx = members[e]
        if not idx:
            rows.append(BucketRow(e, 0, None))
            continue
        rep = corpus_bleu([hypotheses[i] for i in idx], [references[i] for i in idx],
                          smooth=smooth)
        rows.append(BucketRow(e, len(idx), rep.bleu))
    return rows


# ---------------------------------------------------------------------
# half-width sweep (Table 3 analog)
# ---------------------------------------------------------------------

def b_sweep(student, teacher, test_pairs, B_values, C: int, smooth: bool = False) -> tuple:
    """One student's BLEU per half-width, ``{B: bleu}``, and its gold-length
    BLEU: each sentence decoded at its true target length with no
    candidate generation or reranking."""
    srcs = [s for s, _ in test_pairs]
    refs = [t for _, t in test_pairs]
    cells = {}
    for B in B_values:
        hyps = length_parallel_decode_corpus(student, teacher, srcs,
                                             LengthPolicy(C=C, B=int(B)))
        cells[int(B)] = corpus_bleu(hyps, refs, smooth=smooth).bleu
    gold = corpus_bleu(gold_length_decode(student, srcs, refs), refs, smooth=smooth).bleu
    return cells, gold


# ---------------------------------------------------------------------
# loss gap (Figure 1 analog)
# ---------------------------------------------------------------------

@dataclass
class LossGapRow:
    fraction: float
    train_loss: float
    test_loss: float
    gap: float


LOSS_GAP_FRACTIONS = (0.0, 0.25, 0.5, 1.0)  # mono fractions the analysis needs


def loss_gap_analysis(runs: dict) -> list:
    """Rows (fraction, train, test, gap) from per-fraction final losses.

    ``runs`` maps mono fraction -> {"train_loss": x, "test_loss": y}.
    Missing fractions of LOSS_GAP_FRACTIONS are named in the error.
    """
    missing = [f for f in LOSS_GAP_FRACTIONS if f not in runs]
    if missing:
        raise ValueError(f"missing runs for mono fractions: {missing}")
    return [LossGapRow(float(frac), r["train_loss"], r["test_loss"],
                       r["test_loss"] - r["train_loss"]) for frac, r in sorted(runs.items())]

