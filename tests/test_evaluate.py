import math

import numpy as np
import pytest

from narlab.evaluate import (
    DESK_BUCKET_EDGES,
    b_sweep,
    bucket_bleu,
    corpus_bleu,
    loss_gap_analysis,
)
from narlab.lengths import LengthPolicy, length_parallel_decode_corpus
from narlab.nar import NARTransformer
from narlab.transformer import ModelConfig, Transformer
from narlab.util import rng_for


class TestCorpusBleu:
    def test_identity_scores_100(self):
        refs = [[4, 5, 6, 7, 8], [9, 10, 11, 12]]
        rep = corpus_bleu(refs, refs)
        assert rep.bleu == pytest.approx(100.0, abs=1e-9)
        assert rep.brevity_penalty == 1.0
        assert rep.precisions == [1.0] * 4

    def test_all_empty_hypotheses_score_zero(self):
        rep = corpus_bleu([[], []], [[4, 5], [6]])
        assert rep.bleu == 0.0
        assert rep.hyp_tokens == 0

    def test_clipping_worked_example(self):
        hyp = ["the", "the", "the", "cat"]
        ref = ["the", "cat", "sat"]
        rep = corpus_bleu([hyp], [ref])
        assert rep.precisions[0] == pytest.approx(2 / 4)
        assert rep.precisions[2] == 0.0 and rep.precisions[3] == 0.0
        assert rep.bleu == 0.0

    def test_brevity_penalty(self):
        # hyp 3 tokens vs ref 4: BP = exp(1 - 4/3); all matched n-grams
        hyp = [[4, 5, 6]]
        ref = [[4, 5, 6, 7]]
        rep = corpus_bleu(hyp, ref, smooth=True)
        assert rep.brevity_penalty == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)

    def test_no_penalty_when_longer(self):
        rep = corpus_bleu([[4, 5, 6, 7, 8]], [[4, 5, 6]], smooth=True)
        assert rep.brevity_penalty == 1.0

    def test_smoothing_rescues_missing_higher_orders(self):
        hyp = [[4, 5]]
        ref = [[4, 5]]
        hard = corpus_bleu(hyp, ref)  # no 3-grams or 4-grams exist
        soft = corpus_bleu(hyp, ref, smooth=True)
        assert hard.bleu == 0.0
        assert soft.bleu > 0.0
        assert soft.precisions[0] == 1.0  # unigram precision left unsmoothed

    def test_permutation_invariant(self):
        rng = rng_for(0, "bleu-perm")
        hyps = [[int(x) for x in rng.integers(4, 12, size=6)] for _ in range(8)]
        refs = [[int(x) for x in rng.integers(4, 12, size=6)] for _ in range(8)]
        rep_a = corpus_bleu(hyps, refs, smooth=True)
        order = rng.permutation(8)
        rep_b = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order],
                            smooth=True)
        assert rep_a.bleu == pytest.approx(rep_b.bleu, abs=1e-12)

    def test_duplicated_corpus_scores_identically(self):
        rng = rng_for(1, "bleu-dup")
        hyps = [[int(x) for x in rng.integers(4, 12, size=7)] for _ in range(5)]
        refs = [[int(x) for x in rng.integers(4, 12, size=7)] for _ in range(5)]
        a = corpus_bleu(hyps, refs, smooth=False)
        b = corpus_bleu(hyps * 2, refs * 2, smooth=False)
        assert a.bleu == pytest.approx(b.bleu, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            corpus_bleu([[4]], [[4], [5]])
        with pytest.raises(ValueError):
            corpus_bleu([], [])


class TestBucketBleu:
    def test_single_bucket_equals_corpus_bleu(self):
        rng = rng_for(2, "bucket-one")
        srcs = [[int(x) for x in rng.integers(4, 12, size=int(rng.integers(3, 13)))]
                for _ in range(10)]
        hyps = [list(reversed(s)) for s in srcs]
        refs = [list(reversed(s)) if i % 2 else s[:] for i, s in enumerate(srcs)]
        rows = bucket_bleu(hyps, refs, srcs, bucket_edges=((1, 20),), smooth=True)
        assert len(rows) == 1
        assert rows[0].bleu == pytest.approx(
            corpus_bleu(hyps, refs, smooth=True).bleu, abs=1e-12
        )

    def test_split_matches_independent_halves(self):
        srcs = [[4, 5], [6, 7], [4, 5, 6, 7], [8, 9, 10, 11]]
        refs = [[5, 4], [6, 7], [7, 6, 5, 4], [8, 9, 10, 11]]
        hyps = [[5, 4], [7, 6], [7, 6, 5, 4], [11, 10, 9, 8]]
        rows = bucket_bleu(hyps, refs, srcs, bucket_edges=((1, 3), (4, 6)),
                            smooth=True)
        short = corpus_bleu(hyps[:2], refs[:2], smooth=True).bleu
        long = corpus_bleu(hyps[2:], refs[2:], smooth=True).bleu
        assert rows[0].bleu == pytest.approx(short, abs=1e-12)
        assert rows[1].bleu == pytest.approx(long, abs=1e-12)

    def test_counts_sum_to_test_set(self):
        rng = rng_for(3, "bucket-count")
        srcs = [[int(x) for x in rng.integers(4, 12, size=int(rng.integers(3, 13)))]
                for _ in range(40)]
        hyps = [list(s) for s in srcs]
        rows = bucket_bleu(hyps, hyps, srcs)
        assert sum(r.count for r in rows) == 40
        assert len(rows) == len(DESK_BUCKET_EDGES)

    def test_empty_bucket_row(self):
        srcs, hyps = [[4, 5, 6]], [[4, 5, 6]]
        rows = bucket_bleu(hyps, hyps, srcs, bucket_edges=((1, 5), (6, 9)))
        assert rows[1].count == 0
        assert rows[1].bleu is None

    def test_bad_edges_rejected(self):
        srcs, hyps = [[4, 5]], [[4, 5]]
        with pytest.raises(ValueError):
            bucket_bleu(hyps, hyps, srcs, bucket_edges=((1, 5), (5, 9)))
        with pytest.raises(ValueError):
            bucket_bleu(hyps, hyps, srcs, bucket_edges=((5, 1),))
        with pytest.raises(ValueError):
            bucket_bleu(hyps, hyps, srcs, bucket_edges=((10, 12),))

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            bucket_bleu([[4]], [[4]], [])


def small_cfg(**kw):
    base = dict(vocab_size=16, num_layers=1, num_heads=2, model_dim=16,
                hidden_dim=32, max_len=32)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def pieces():
    teacher = Transformer(small_cfg(), seed=1)
    students = {
        "0%": NARTransformer(small_cfg().as_nar(), seed=2),
        "100%": NARTransformer(small_cfg().as_nar(), seed=3),
    }
    rng = rng_for(4, "sweep-pairs")
    pairs = []
    for _ in range(12):
        src = [int(x) for x in rng.integers(4, 16, size=int(rng.integers(2, 7)))]
        pairs.append((src, list(reversed(src))))
    return teacher, students, pairs


class TestBSweep:
    def test_cells_reuse_decode_outputs(self, pieces):
        teacher, students, pairs = pieces
        srcs = [s for s, _ in pairs]
        refs = [t for _, t in pairs]
        for student in students.values():
            cells, _ = b_sweep(student, teacher, pairs, B_values=(0, 2), C=0, smooth=True)
            assert list(cells) == [0, 2]
            for B in (0, 2):
                hyps = length_parallel_decode_corpus(
                    student, teacher, srcs, LengthPolicy(C=0, B=B)
                )
                want = corpus_bleu(hyps, refs, smooth=True).bleu
                assert cells[B] == pytest.approx(want, abs=1e-12)

    def test_gold_row_uses_true_lengths(self, pieces):
        teacher, students, pairs = pieces
        refs = [t for _, t in pairs]
        for student in students.values():
            _, gold = b_sweep(student, teacher, pairs, B_values=(0,), C=0, smooth=True)
            hyps = [student.nar_greedy_emit_batch([s], len(t))[0] for s, t in pairs]
            want = corpus_bleu(hyps, refs, smooth=True).bleu
            assert gold == pytest.approx(want, abs=1e-12)


class TestLossGap:
    def runs(self):
        return {
            0.0: {"train_loss": 0.70, "test_loss": 0.95},
            0.25: {"train_loss": 0.72, "test_loss": 0.90},
            0.5: {"train_loss": 0.74, "test_loss": 0.88},
            1.0: {"train_loss": 0.75, "test_loss": 0.84},
        }

    def test_rows_and_gap_arithmetic(self):
        rows = loss_gap_analysis(self.runs())
        assert [r.fraction for r in rows] == [0.0, 0.25, 0.5, 1.0]
        for r in rows:
            src = self.runs()[r.fraction]
            assert r.gap == pytest.approx(src["test_loss"] - src["train_loss"],
                                          abs=1e-12)

    def test_missing_fraction_named(self):
        runs = self.runs()
        del runs[0.5]
        with pytest.raises(ValueError, match="0.5"):
            loss_gap_analysis(runs)

    def test_extra_fractions_allowed(self):
        runs = self.runs()
        runs[0.75] = {"train_loss": 0.74, "test_loss": 0.86}
        rows = loss_gap_analysis(runs)
        assert [r.fraction for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
