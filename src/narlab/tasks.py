"""Synthetic translation tasks standing in for parallel text.

mapped_reversal: target is the reversed source with every token pushed
through a fixed random permutation of the content vocabulary (target
length equals source length, true C = 0).  even_duplication: even source
ids are emitted twice, all ids permuted (targets longer than sources,
true C > 0, exercising the length machinery).

Splits are carved out of one keyed hash partition of sentence space, so
train/valid/test/mono can never share a sentence no matter how many are
drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

from .util import rng_for, stable_bucket
from .vocab import N_RESERVED, Vocabulary

TASK_KINDS = ("mapped_reversal", "even_duplication")

# hash buckets (mod 16) owned by each split
SPLIT_BUCKETS = {
    "train": range(0, 10),
    "valid": range(10, 12),
    "test": range(12, 14),
    "mono": range(14, 16),
}
_N_BUCKETS = 16


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    n_content: int = 32
    min_len: int = 3
    max_len: int = 12
    perm_seed: int | None = 0  # None keeps the identity permutation

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}, expected one of {TASK_KINDS}")
        if self.n_content < 2:
            raise ValueError("need at least 2 content tokens")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError(f"bad length range [{self.min_len}, {self.max_len}]")

    @property
    def vocab(self) -> Vocabulary:
        return Vocabulary(self.n_content)


def content_permutation(spec: TaskSpec) -> dict:
    """Fixed bijection on content ids; reserved ids are never remapped."""
    ids = list(spec.vocab.content_ids)
    if spec.perm_seed is None:
        return {i: i for i in ids}
    shuffled = rng_for(spec.perm_seed, "task-permutation", spec.kind).permutation(ids)
    return dict(zip(ids, (int(x) for x in shuffled)))


def task_oracle(spec: TaskSpec, src) -> list:
    """Ground-truth target for a source sentence."""
    pi = content_permutation(spec)
    if spec.kind == "mapped_reversal":
        return [pi.get(x, x) for x in reversed(src)]
    out = []
    for x in src:
        mapped = pi.get(x, x)
        out.append(mapped)
        if x % 2 == 0:
            out.append(mapped)
    return out


def _partition_key(spec: TaskSpec) -> str:
    return f"{spec.kind}:{spec.perm_seed}"


def split_of(spec: TaskSpec, sentence) -> str:
    bucket = stable_bucket(sentence, _N_BUCKETS, key=_partition_key(spec))
    for name, rng in SPLIT_BUCKETS.items():
        if bucket in rng:
            return name
    raise AssertionError("bucket outside partition")


def _draw(spec: TaskSpec, rng) -> list:
    length = int(rng.integers(spec.min_len, spec.max_len + 1))
    lo = N_RESERVED
    return [int(t) for t in rng.integers(lo, lo + spec.n_content, size=length)]


def generate_corpus(spec: TaskSpec, n: int, seed: int) -> dict:
    """n parallel pairs split into disjoint train/valid/test by hashing the
    source sentence; sizes follow the 10/2/2 bucket shares of the partition."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = rng_for(seed, "parallel", spec.kind)
    splits: dict = {"train": [], "valid": [], "test": []}
    accepted = 0
    while accepted < n:
        src = _draw(spec, rng)
        split = split_of(spec, src)
        if split == "mono":  # reserved for the monolingual pool
            continue
        splits[split].append((src, task_oracle(spec, src)))
        accepted += 1
    return splits


def generate_monolingual(spec: TaskSpec, n: int, seed: int) -> list:
    """n source-only sentences from the mono-bucket region of sentence space,
    disjoint from every parallel split by construction."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = rng_for(seed, "monolingual", spec.kind)
    out: list = []
    while len(out) < n:
        src = _draw(spec, rng)
        if split_of(spec, src) == "mono":
            out.append(src)
    return out
