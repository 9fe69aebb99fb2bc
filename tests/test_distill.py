import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narlab.distill import (
    MONOLINGUAL,
    PARALLEL,
    dedup_adjacent,
    distill_corpus,
    mix_monolingual,
    strip_origin,
)
from narlab.util import rng_for


class FakeTeacher:
    """Decodes deterministically without a real model: reverses the source,
    emits [] for sources starting with 99."""

    def greedy_decode_batch(self, sources):
        return [[] if s[0] == 99 else list(reversed(s)) for s in sources]


class TestDistillCorpus:
    def test_targets_come_from_teacher_in_order(self):
        sources = [[4, 5], [6, 7, 8], [9]]
        pairs, dropped = distill_corpus(FakeTeacher(), sources, PARALLEL)
        assert dropped == 0
        assert pairs == [([4, 5], [5, 4], PARALLEL),
                         ([6, 7, 8], [8, 7, 6], PARALLEL),
                         ([9], [9], PARALLEL)]

    def test_empty_decodes_dropped_and_counted(self):
        sources = [[99, 1], [4, 5], [99, 2]]
        pairs, dropped = distill_corpus(FakeTeacher(), sources, MONOLINGUAL)
        assert dropped == 2
        assert [p[0] for p in pairs] == [[4, 5]]
        assert pairs[0][2] == MONOLINGUAL

    def test_origin_validated(self):
        with pytest.raises(ValueError):
            distill_corpus(FakeTeacher(), [[4]], "web")


def mono_pool(n=40):
    return [([10 + i], [i], MONOLINGUAL) for i in range(n)]


def par_pool(n=10):
    return [([100 + i], [i], PARALLEL) for i in range(n)]


class TestMixMonolingual:
    def test_fraction_zero_keeps_only_parallel(self):
        mixed = mix_monolingual(par_pool(), mono_pool(), 0.0, mix_seed=0)
        assert sorted(mixed) == sorted(par_pool())

    def test_fraction_one_takes_everything(self):
        mixed = mix_monolingual(par_pool(), mono_pool(), 1.0, mix_seed=0)
        assert sorted(mixed) == sorted(par_pool() + mono_pool())

    def test_selected_count_rounds(self):
        mixed = mix_monolingual(par_pool(0), mono_pool(10), 0.25, mix_seed=3)
        assert len(mixed) == 2  # round(0.25 * 10)

    def test_prefix_selections_nest_across_fractions(self):
        mono = mono_pool(40)
        picks = {}
        for frac in (0.25, 0.5, 1.0):
            mixed = mix_monolingual([], mono, frac, mix_seed=11)
            picks[frac] = {tuple(src) for src, _, _ in mixed}
        assert picks[0.25] <= picks[0.5] <= picks[1.0]
        assert len(picks[0.25]) == 10 and len(picks[0.5]) == 20

    def test_parallel_always_fully_present(self):
        for frac in (0.0, 0.25, 0.5, 1.0):
            mixed = mix_monolingual(par_pool(), mono_pool(), frac, mix_seed=5)
            kept = [p for p in mixed if p[2] == PARALLEL]
            assert sorted(kept) == sorted(par_pool())

    def test_deterministic_and_shuffled(self):
        a = mix_monolingual(par_pool(), mono_pool(), 0.5, mix_seed=4)
        b = mix_monolingual(par_pool(), mono_pool(), 0.5, mix_seed=4)
        c = mix_monolingual(par_pool(), mono_pool(), 0.5, mix_seed=9)
        assert a == b
        assert a != c
        assert a != sorted(a)  # order is shuffled, not concatenated

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            mix_monolingual([], mono_pool(), 1.5, mix_seed=0)
        with pytest.raises(ValueError):
            mix_monolingual([], mono_pool(), -0.1, mix_seed=0)


class TestStripOrigin:
    def test_strips(self):
        assert strip_origin([([1], [2], PARALLEL), ([3], [4], MONOLINGUAL)]) == [
            ([1], [2]),
            ([3], [4]),
        ]

    @settings(max_examples=60, deadline=None)
    @given(n_par=st.integers(0, 12), n_mono=st.integers(0, 30),
           fraction=st.floats(0.0, 1.0), mix_seed=st.integers(0, 10**6))
    def test_commutes_with_mixing(self, n_par, n_mono, fraction, mix_seed):
        # mixing permutes by position only, so origin-free pairs mix into
        # the stripped mix of the triples
        par, mono = par_pool(n_par), mono_pool(n_mono)
        assert (strip_origin(mix_monolingual(par, mono, fraction, mix_seed))
                == mix_monolingual(strip_origin(par), strip_origin(mono), fraction, mix_seed))


def dedup_oracle(seq):
    return [tok for i, tok in enumerate(seq) if i == 0 or seq[i - 1] != tok]


class TestDedupAdjacent:
    def test_worked_examples(self):
        assert dedup_adjacent([7, 7, 4, 4, 4, 9]) == [7, 4, 9]
        assert dedup_adjacent([5, 5, 5, 5]) == [5]
        assert dedup_adjacent([]) == []
        assert dedup_adjacent([1, 2, 1, 2]) == [1, 2, 1, 2]

    def test_matches_linear_scan_oracle_bulk(self):
        rng = rng_for(0, "dedup-bulk")
        for _ in range(10_000):
            seq = [int(x) for x in rng.integers(0, 4, size=rng.integers(0, 12))]
            assert dedup_adjacent(seq) == dedup_oracle(seq)

    def test_idempotent(self):
        rng = rng_for(1, "dedup-idem")
        for _ in range(300):
            seq = [int(x) for x in rng.integers(0, 3, size=rng.integers(0, 10))]
            once = dedup_adjacent(seq)
            assert dedup_adjacent(once) == once

