"""Seed derivation, stable hashing and group-by-key batching."""

from __future__ import annotations

import hashlib

import numpy as np


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Derive an independent Generator from a base seed and a tag path.

    Tags are hashed (not Python ``hash``, which is process-randomized) so
    the stream depends only on the seed and the tag values.  The same
    (seed, tags) always yields the same stream; distinct tag paths yield
    statistically independent streams.
    """
    h = hashlib.blake2s(digest_size=8)
    for tag in tags:
        h.update(str(tag).encode("utf-8"))
        h.update(b"\x1f")
    key = int.from_bytes(h.digest(), "big")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def stable_bucket(parts, n_buckets: int, *, key: str = "") -> int:
    """Map a tuple of values to a bucket in [0, n_buckets) via a keyed hash.

    Deterministic across processes and platforms; used for disjoint
    train/valid/test/mono partitioning of generated corpora.
    """
    h = hashlib.blake2b(digest_size=8, key=key.encode("utf-8")[:64])
    for p in parts:
        h.update(str(p).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big") % n_buckets


def group_positions(keys) -> list:
    """(key, positions) for each distinct value in the list ``keys``, in
    sorted key order; the positions holding a key are in input order."""
    groups: dict = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    return sorted(groups.items())


def map_groups(keys, fn) -> list:
    """Run ``fn(key, idxs)`` once per distinct value in the list ``keys``, in
    sorted key order, on the positions ``idxs`` holding that key; ``fn``
    returns one result per position, and the results come back in input
    order."""
    out: list = [None] * len(keys)
    for k, idxs in group_positions(keys):
        for i, r in zip(idxs, fn(k, idxs)):
            out[i] = r
    return out
