"""Corpus file IO: one sentence per line, space-separated integer token ids,
plus sorted-key JSON sidecars for provenance.  All writers are
deterministic byte-for-byte given identical inputs, and land whole (see
``whole_file``): a killed stage leaves the old file or none."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def whole_file(path, mode: str = "w"):
    """A file opened in ``mode`` under a temporary name beside ``path``
    (parent directories made), moved onto ``path`` when the block ends and
    removed if it raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already once replaced


def write_lines(path, lines) -> None:
    """Each string of ``lines`` and a newline, landed whole at ``path``."""
    with whole_file(path) as fh:
        for line in lines:
            fh.write(line + "\n")


def write_sentences(path, sentences) -> None:
    write_lines(path, (" ".join(str(int(t)) for t in s) for s in sentences))


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


def write_json(path, obj) -> None:
    write_lines(path, [json.dumps(obj, sort_keys=True, indent=2)])
