"""Every public function and method of ``src/narlab`` has a caller.

A public module-level function or public method must be referenced,
outside its own definition, somewhere in ``src/narlab`` or ``perfbench/``.
A name that only the tests call is not part of the pipeline: delete it, or
move it next to the tests that use it.  Names are matched as whole words
in the source text; dunder methods are skipped.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "narlab").glob("*.py"))
TEXTS = {p: p.read_text() for p in PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))}


def _public_defs():
    """(path, dotted name, def node) of every public function and method."""
    for path in PACKAGE:
        for node in ast.parse(TEXTS[path]).body:
            is_class = isinstance(node, ast.ClassDef)
            owner = f"{path.stem}.{node.name}." if is_class else f"{path.stem}."
            members = node.body if is_class else [node]
            for fn in members:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield path, owner + fn.name, fn


DEFS = list(_public_defs())


def test_defs_were_collected():
    names = {name for _, name, _ in DEFS}
    assert {"lengths.length_parallel_decode_corpus", "training.make_batches",
            "nar.NARTransformer.nar_greedy_emit_batch", "tensor.backward"} <= names


@pytest.mark.parametrize("path, name, fn", DEFS, ids=[name for _, name, _ in DEFS])
def test_public_name_has_a_caller(path, name, fn):
    word = re.compile(rf"\b{fn.name}\b")
    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
    for other, text in TEXTS.items():
        if other == path:
            lines = text.splitlines()
            text = "\n".join(lines[: first - 1] + lines[fn.end_lineno:])
        if word.search(text):
            return
    pytest.fail(f"{path.name}:{fn.lineno}: {name} is referenced nowhere in "
                f"src/narlab or perfbench/ outside its own definition")
