"""Corpus file IO: one sentence per line, space-separated integer token ids,
plus sorted-key JSON sidecars for provenance.  All writers are
deterministic byte-for-byte given identical inputs."""

from __future__ import annotations

import json
from pathlib import Path


def write_sentences(path, sentences) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in sentences:
            fh.write(" ".join(str(int(t)) for t in s) + "\n")


def read_sentences(path) -> list:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            ids = []
            for t in line.split():
                try:
                    ids.append(int(t))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: token {t!r} is not an integer id") from None
            out.append(ids)
    return out


def write_pairs(directory, name: str, pairs) -> None:
    """Aligned <name>.src / <name>.tgt files under ``directory``."""
    directory = Path(directory)
    write_sentences(directory / f"{name}.src", [s for s, _ in pairs])
    write_sentences(directory / f"{name}.tgt", [t for _, t in pairs])


def read_pairs(directory, name: str) -> list:
    src_path, tgt_path = (Path(directory) / f"{name}.{ext}" for ext in ("src", "tgt"))
    srcs, tgts = read_sentences(src_path), read_sentences(tgt_path)
    if len(srcs) != len(tgts):
        raise ValueError(f"line counts differ: {src_path} has {len(srcs)}, "
                         f"{tgt_path} has {len(tgts)}")
    return list(zip(srcs, tgts))


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
