import numpy as np
import pytest

from narlab.tasks import (
    SPLIT_BUCKETS,
    TASK_KINDS,
    TaskSpec,
    content_permutation,
    generate_corpus,
    generate_monolingual,
    split_of,
    task_oracle,
)
from narlab.vocab import N_RESERVED


def rev_spec(**kw):
    return TaskSpec(kind="mapped_reversal", **kw)


def dup_spec(**kw):
    return TaskSpec(kind="even_duplication", **kw)


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="copy")
        with pytest.raises(ValueError):
            rev_spec(n_content=1)
        with pytest.raises(ValueError):
            rev_spec(min_len=5, max_len=4)

    def test_vocab_layout(self):
        v = rev_spec().vocab
        assert v.size == 32 + N_RESERVED
        assert list(v.content_ids) == list(range(N_RESERVED, N_RESERVED + 32))


class TestPermutation:
    def test_bijection_over_content_only(self):
        pi = content_permutation(rev_spec(perm_seed=5))
        content = set(rev_spec().vocab.content_ids)
        assert set(pi) == content
        assert set(pi.values()) == content

    def test_identity_when_seed_none(self):
        pi = content_permutation(rev_spec(perm_seed=None))
        assert all(k == v for k, v in pi.items())

    def test_deterministic_and_seed_sensitive(self):
        a = content_permutation(rev_spec(perm_seed=0))
        b = content_permutation(rev_spec(perm_seed=0))
        c = content_permutation(rev_spec(perm_seed=1))
        assert a == b
        assert a != c

    def test_kinds_get_distinct_permutations(self):
        assert content_permutation(rev_spec()) != content_permutation(dup_spec())


class TestOracle:
    def test_reversal_worked_example(self):
        assert task_oracle(rev_spec(perm_seed=None), [5, 9, 2]) == [2, 9, 5]

    def test_duplication_worked_example(self):
        assert task_oracle(dup_spec(perm_seed=None), [4, 7]) == [4, 4, 7]

    def test_reversal_applies_permutation(self):
        spec = rev_spec(perm_seed=2)
        pi = content_permutation(spec)
        src = [4, 10, 35, 7]
        assert task_oracle(spec, src) == [pi[x] for x in reversed(src)]

    def test_duplication_applies_permutation(self):
        spec = dup_spec(perm_seed=2)
        pi = content_permutation(spec)
        assert task_oracle(spec, [6, 9]) == [pi[6], pi[6], pi[9]]

    def test_lengths(self):
        src = [4, 5, 6, 7, 8]
        assert len(task_oracle(rev_spec(), src)) == len(src)
        evens = sum(1 for x in src if x % 2 == 0)
        assert len(task_oracle(dup_spec(), src)) == len(src) + evens


class TestSplits:
    def test_partition_covers_all_buckets(self):
        owned = sorted(b for rng in SPLIT_BUCKETS.values() for b in rng)
        assert owned == list(range(16))

    def test_split_of_deterministic(self):
        spec = rev_spec()
        s = [4, 8, 15, 16]
        assert split_of(spec, s) == split_of(spec, s)

    def test_all_splits_reachable(self):
        spec = rev_spec()
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(400):
            s = [int(x) for x in rng.integers(4, 36, size=6)]
            seen.add(split_of(spec, s))
        assert seen == {"train", "valid", "test", "mono"}

    def test_partition_depends_on_task_identity(self):
        s = [4, 8, 15, 16, 23]
        labels = {split_of(rev_spec(perm_seed=k), s) for k in range(12)}
        assert len(labels) > 1  # the keyed hash moves with the task key


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(rev_spec(), 2000, seed=1)


class TestGenerateCorpus:
    def test_sizes_and_shares(self, corpus):
        sizes = {k: len(v) for k, v in corpus.items()}
        assert sum(sizes.values()) == 2000
        # bucket shares are 10/2/2 of the non-mono mass
        assert sizes["train"] > 4 * sizes["valid"] * 0.7
        assert abs(sizes["valid"] - sizes["test"]) < 200

    def test_pairs_satisfy_oracle(self, corpus):
        spec = rev_spec()
        for split in corpus.values():
            for src, tgt in split[:200]:
                assert tgt == task_oracle(spec, src)

    def test_sentences_live_in_their_split(self, corpus):
        spec = rev_spec()
        for name, split in corpus.items():
            for src, _ in split[:200]:
                assert split_of(spec, src) == name

    def test_lengths_within_range(self, corpus):
        for split in corpus.values():
            for src, _ in split[:200]:
                assert 3 <= len(src) <= 12

    def test_deterministic(self, corpus):
        again = generate_corpus(rev_spec(), 2000, seed=1)
        assert again == corpus
        other = generate_corpus(rev_spec(), 2000, seed=2)
        assert other != corpus

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            generate_corpus(rev_spec(), 0, seed=1)


class TestMonolingual:
    def test_disjoint_from_parallel_by_construction(self):
        spec = dup_spec()
        corpus = generate_corpus(spec, 1500, seed=3)
        mono = generate_monolingual(spec, 1500, seed=4)
        parallel = {tuple(s) for split in corpus.values() for s, _ in split}
        assert parallel.isdisjoint({tuple(s) for s in mono})
        assert all(split_of(spec, s) == "mono" for s in mono[:300])

    def test_length_distribution_matches_parallel(self):
        spec = rev_spec()
        corpus = generate_corpus(spec, 3000, seed=5)
        mono = generate_monolingual(spec, 3000, seed=6)
        par_mean = np.mean([len(s) for split in corpus.values() for s, _ in split])
        mono_mean = np.mean([len(s) for s in mono])
        assert abs(par_mean - mono_mean) / par_mean < 0.05

    def test_deterministic(self):
        spec = rev_spec()
        assert generate_monolingual(spec, 50, seed=7) == generate_monolingual(spec, 50, seed=7)
