"""Every public function and method of ``src/narlab`` has a caller, and
every defaulted parameter of one has a caller that sets it.

A public module-level function or public method must be referenced,
outside its own definition, somewhere in ``src/narlab`` or ``perfbench/``.
A name that only the tests call is not part of the pipeline: delete it, or
move it next to the tests that use it.  Names are matched as whole words
in the source text; dunder methods are skipped.

A parameter with a default, of a public function, public method or
``__init__``, must be passed, by keyword or by position, in some call in
``src/narlab`` or ``perfbench/``; otherwise it is an option that no caller
sets, and its default is a constant.  Calls are matched by callee name (a
class name, or the name of a subclass, for ``__init__``); calls on ``np``
are not counted.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "narlab").glob("*.py"))
TEXTS = {p: p.read_text() for p in PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))}
TREES = {p: ast.parse(text) for p, text in TEXTS.items()}

# defaulted parameters that only the tests set: (dotted name, parameter) -> reason
TEST_SEAMS = {
    ("cli.main", "argv"): "tests drive the command line in-process; the console "
                          "script reads sys.argv",
    ("nar.NARTransformer.nar_logits_batch", "dec_in"): "perturbation tests feed an "
                                                       "altered soft-copied decoder input",
}


def _public_defs():
    """(path, dotted name, def node, class node or None) of every public
    function and method, and of every ``__init__``."""
    for path in PACKAGE:
        for node in TREES[path].body:
            is_class = isinstance(node, ast.ClassDef)
            owner = f"{path.stem}.{node.name}." if is_class else f"{path.stem}."
            members = node.body if is_class else [node]
            for fn in members:
                if isinstance(fn, ast.FunctionDef) and (
                        not fn.name.startswith("_") or (is_class and fn.name == "__init__")):
                    yield path, owner + fn.name, fn, node if is_class else None


DEFS = list(_public_defs())
PUBLIC = [(path, name, fn) for path, name, fn, _ in DEFS if not fn.name.startswith("_")]


def _defaulted(fn, is_method: bool) -> list:
    """(parameter, position or None) of each parameter of ``fn`` that has a
    default; the position counts the arguments a call passes, so it leaves
    out ``self``."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if is_method else 0
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _subclasses(name: str) -> set:
    names = {name}
    for path in PACKAGE:
        for node in TREES[path].body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == name for b in node.bases):
                names |= _subclasses(node.name)
    return names


def _calls(callees: set):
    """Every call, outside ``np``, whose callee is named in ``callees``."""
    for tree in TREES.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id in callees:
                yield node
            elif (isinstance(f, ast.Attribute) and f.attr in callees
                  and not (isinstance(f.value, ast.Name) and f.value.id == "np")):
                yield node


def _passes(call: ast.Call, param: str, position) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: a **mapping
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i == position:
            return True
    return False


OPTIONS = [
    (path, name, fn, param, position, cls)
    for path, name, fn, cls in DEFS
    for param, position in _defaulted(fn, cls is not None)
]


def test_defs_were_collected():
    names = {name for _, name, _ in PUBLIC}
    assert {"lengths.length_parallel_decode_corpus", "training.make_batches",
            "nar.NARTransformer.nar_greedy_emit_batch", "tensor.backward"} <= names
    options = {(name, param) for _, name, _, param, _, _ in OPTIONS}
    assert {("training.make_batches", "rng"), ("tensor.Tensor.__init__", "requires_grad"),
            ("transformer.Transformer.__init__", "seed")} <= options
    assert set(TEST_SEAMS) <= options


@pytest.mark.parametrize("path, name, fn", PUBLIC, ids=[name for _, name, _ in PUBLIC])
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


@pytest.mark.parametrize("path, name, fn, param, position, cls", OPTIONS,
                         ids=[f"{name}({param})" for _, name, _, param, _, _ in OPTIONS])
def test_defaulted_parameter_is_set(path, name, fn, param, position, cls):
    if (name, param) in TEST_SEAMS:
        return
    callees = _subclasses(cls.name) if fn.name == "__init__" else {fn.name}
    if any(_passes(call, param, position) for call in _calls(callees)):
        return
    pytest.fail(f"{path.name}:{fn.lineno}: no call in src/narlab or perfbench/ sets "
                f"{param} of {name}; make its default a constant")
