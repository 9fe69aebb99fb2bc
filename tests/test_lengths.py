import numpy as np
import pytest

from narlab import tensor as T
from narlab.lengths import (
    LengthPolicy,
    _pick,
    _score_group,
    _usable_lengths,
    candidate_lengths,
    estimate_C,
    gold_length_decode,
    length_parallel_decode_corpus,
)
from narlab.nar import NARTransformer, soft_copy
from narlab.transformer import ModelConfig, Transformer
from narlab.util import rng_for
from narlab.vocab import BOS_ID, PAD_ID
from oracles import rerank_pick


def small_cfg(**kw):
    base = dict(vocab_size=16, num_layers=1, num_heads=2, model_dim=16,
                hidden_dim=32, max_len=32)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def student():
    return NARTransformer(small_cfg().as_nar(), seed=0)


@pytest.fixture(scope="module")
def teacher():
    return Transformer(small_cfg(), seed=1)


class TestEstimateC:
    def test_worked_example(self):
        # diffs {1, 1, 2} -> mean 4/3 -> rounds to 1
        corpus = [([4], [4, 5]), ([4, 5], [4, 5, 6]), ([4], [4, 5, 6])]
        assert estimate_C(corpus) == 1

    def test_equal_lengths_give_zero(self):
        corpus = [([4, 5], [6, 7]), ([4], [9])]
        assert estimate_C(corpus) == 0

    def test_rounds_half_away_from_zero(self):
        assert estimate_C([([4], [5, 6]), ([4], [5])]) == 1  # mean 0.5
        assert estimate_C([([4, 5], [6]), ([4], [5])]) == -1  # mean -0.5

    def test_negative_c(self):
        assert estimate_C([([4, 5, 6], [7]), ([4, 5, 6], [7])]) == -2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_C([])


class TestCandidateLengths:
    def test_worked_example_window(self):
        assert candidate_lengths(5, LengthPolicy(C=1, B=2)) == [4, 5, 6, 7, 8]

    def test_worked_example_clamped(self):
        assert candidate_lengths(1, LengthPolicy(C=0, B=3)) == [1, 2, 3, 4]

    def test_b_zero_single_candidate(self):
        assert candidate_lengths(7, LengthPolicy(C=2, B=0)) == [9]

    def test_never_empty(self):
        assert candidate_lengths(1, LengthPolicy(C=-5, B=1)) == [1]

    def test_matches_brute_force_enumeration(self):
        for T in range(1, 21):
            for C in range(-3, 4):
                for B in range(0, 8):
                    got = candidate_lengths(T, LengthPolicy(C=C, B=B))
                    want = [L for L in range(1, T + C + B + 1)
                            if T + C - B <= L <= T + C + B]
                    if not want:
                        want = [1]
                    assert got == want, (T, C, B)

    def test_validation(self):
        with pytest.raises(ValueError):
            LengthPolicy(B=-1)
        with pytest.raises(ValueError):
            candidate_lengths(0, LengthPolicy())


class TestScoring:
    def test_rank_mode_validated(self, student, teacher):
        # the kept parameter takes only the one score the benchmark passes
        with pytest.raises(ValueError, match="rank_mode"):
            length_parallel_decode_corpus(student, teacher, [[4]], LengthPolicy(),
                                          "mean_logprob")

    def test_vocab_mismatch_rejected(self, student):
        other = Transformer(small_cfg(vocab_size=12), seed=0)
        with pytest.raises(ValueError, match="vocab"):
            length_parallel_decode_corpus(student, other, [[4]], LengthPolicy())


class TestDecode:
    def test_choice_is_argmax_of_scored_candidates(self, student, teacher):
        rng = rng_for(0, "lpd-cases")
        policy = LengthPolicy(C=0, B=2)
        for _ in range(200):
            src = [int(x) for x in rng.integers(4, 16, size=int(rng.integers(1, 9)))]
            out = length_parallel_decode_corpus(student, teacher, [src], policy)[0]
            assert out == rerank_pick(student, teacher, src, policy)

    def test_tie_breaks_prefer_predicted_then_shorter(self):
        # rows are the lengths 4, 5, 6 around the predicted 5; each column
        # ties some of them
        scores = np.array([[-1.0, -1.0, -1.0, -2.0, -0.5],
                           [-1.0, -3.0, -2.0, -3.0, -0.5],
                           [-1.0, -1.0, -1.0, -2.0, -0.5]])
        assert _pick([4, 5, 6], 5, scores).tolist() == [1, 0, 0, 0, 1]
        assert _pick([4, 5, 6], 6, scores).tolist() == [2, 2, 2, 2, 2]
        assert _pick([4, 5, 6], 3, scores[:, :1]).tolist() == [0]

    def test_b_zero_returns_center_emission(self, student, teacher):
        src = [4, 5, 6, 7, 8]
        out = length_parallel_decode_corpus(student, teacher, [src], LengthPolicy(C=1, B=0))
        assert out == student.nar_greedy_emit_batch([src], 6)

    def test_corpus_variant_matches_per_sentence(self, student, teacher):
        rng = rng_for(1, "lpd-corpus")
        srcs = [[int(x) for x in rng.integers(4, 16, size=int(rng.integers(2, 7)))]
                for _ in range(20)]
        policy = LengthPolicy(C=0, B=2)
        batched = length_parallel_decode_corpus(student, teacher, srcs, policy)
        singles = [length_parallel_decode_corpus(student, teacher, [s], policy)[0]
                   for s in srcs]
        assert batched == singles
        assert singles == [rerank_pick(student, teacher, s, policy) for s in srcs]

    def test_candidates_beyond_max_len_are_dropped(self, student, teacher):
        # student max_len 32, teacher scores BOS+L so its cap is 31: with the
        # window [30, 34] only lengths 30 and 31 are decodable
        src, policy = [4] * 8, LengthPolicy(C=24, B=2)
        assert _usable_lengths(student, teacher, len(src), policy) == [30, 31]
        (out,) = length_parallel_decode_corpus(student, teacher, [src], policy)
        assert out == rerank_pick(student, teacher, src, policy)

    def test_no_representable_candidate_raises(self, student, teacher):
        with pytest.raises(ValueError, match="max_len"):
            length_parallel_decode_corpus(student, teacher, [[4] * 8], LengthPolicy(C=40, B=1))


def _groups(rng, per_length=3):
    """Sources of lengths 1..8, a few per length, with the candidate
    windows C=0, B=3 (clamped at 1 for lengths 1..3), plus one group whose
    window C=24, B=2 the teacher's max_len cuts to [30, 31]."""
    for T_src in range(1, 9):
        yield ([[int(x) for x in rng.integers(4, 16, size=T_src)]
                for _ in range(per_length)], LengthPolicy(C=0, B=3))
    yield [[int(x) for x in rng.integers(4, 16, size=8)] for _ in range(2)], \
        LengthPolicy(C=24, B=2)


class TestStackedPass:
    """The stacked rerank pass against unpadded per-length passes."""

    def test_matches_per_length_passes(self, student, teacher):
        rng = rng_for(3, "stacked")
        seen_windows = set()
        for group, policy in _groups(rng):
            lens = _usable_lengths(student, teacher, len(group[0]), policy)
            seen_windows.add(tuple(lens))
            rows, table = _score_group(student, teacher, group, lens)
            G = len(group)
            assert len(rows) == len(lens) * G and table.shape == (len(lens), G)
            for k, L in enumerate(lens):
                emitted = student.nar_greedy_emit_batch(group, L)
                scores = teacher.sequence_logprob_batch(group, emitted)
                for j in range(G):
                    assert rows[k * G + j] == emitted[j]
                    assert abs(table[k, j] - scores[j]) <= 1e-12
        assert {(1, 2, 3, 4), (1, 2, 3, 4, 5, 6), (30, 31)} <= seen_windows

    @staticmethod
    def _stacked_rows(rng, model, lens, G=3, T_src=5):
        """K * G length-major rows of G sources, with their encoding."""
        group = rng.integers(4, 16, size=(G, T_src))
        with T.no_grad():
            enc = model.encode_batch(group)
        return (np.tile(group, (len(lens), 1)), np.repeat(lens, G),
                T.Tensor(np.tile(enc.data, (len(lens), 1, 1))))

    def test_student_ignores_padded_rows(self, student):
        rng = rng_for(4, "stacked-student")
        src, row_lens, enc = self._stacked_rows(rng, student, [2, 5, 7])
        pad = np.arange(7)[None, :] >= row_lens[:, None]
        with T.no_grad():
            dec = soft_copy(enc, row_lens, student.sigma_sq)
            base = student.nar_logits_batch(src, row_lens, enc_out=enc, dec_in=dec).data
            noisy = dec.data + pad[:, :, None] * rng.standard_normal(dec.shape)
            pert = student.nar_logits_batch(src, row_lens, enc_out=enc,
                                            dec_in=T.Tensor(noisy)).data
        assert np.abs(pert - base)[pad].max() > 1e-3  # the padding was changed
        np.testing.assert_array_equal(pert[~pad], base[~pad])

    def test_teacher_ignores_pad_ids(self, teacher):
        rng = rng_for(5, "stacked-teacher")
        src, row_lens, enc = self._stacked_rows(rng, teacher, [2, 5, 7])
        pad = np.arange(7)[None, :] > row_lens[:, None]  # after BOS and L tokens
        tgt_in = np.where(pad, PAD_ID, rng.integers(4, 16, size=pad.shape))
        tgt_in[:, 0] = BOS_ID
        other = np.where(pad, rng.integers(4, 16, size=pad.shape), tgt_in)
        with T.no_grad():
            base = teacher.ar_logits_batch(src, tgt_in, enc_out=enc).data
            pert = teacher.ar_logits_batch(src, other, enc_out=enc).data
        valid = np.arange(7)[None, :] < row_lens[:, None]
        np.testing.assert_array_equal(pert[valid], base[valid])


class TestGoldLength:
    def test_matches_per_sentence_emission_at_reference_length(self, student):
        rng = rng_for(2, "gold")
        srcs = [[int(x) for x in rng.integers(4, 16, size=int(rng.integers(2, 6)))]
                for _ in range(20)]
        refs = [[4] * int(rng.integers(1, 8)) for _ in srcs]
        out = gold_length_decode(student, srcs, refs)
        assert out == [student.nar_greedy_emit_batch([s], len(r))[0]
                       for s, r in zip(srcs, refs)]

    def test_count_mismatch_rejected(self, student):
        with pytest.raises(ValueError, match="reference"):
            gold_length_decode(student, [[4, 5], [6, 7]], [[4]])
