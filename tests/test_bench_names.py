"""Every narlab name the benchmark's traced run reads must exist.

perfbench/spans.py wraps the public functions of the modules in
``TRACED``, and perfbench/run.py reads per-name call counts and seconds
back out.  A name that no longer resolves is never wrapped, so its
per-layer metric silently reads zero; this test catches the rename instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


SPANS = _load_spans()
RUN_READS = re.findall(r'\b(?:secs|calls)\["([^"]+)"\]', (PERFBENCH / "run.py").read_text())
NAMES = sorted(set(SPANS.MEASURES) | set(RUN_READS))


def test_names_were_collected():
    assert "nar.NARTransformer.nar_greedy_emit_batch" in NAMES
    assert "transformer.Transformer.sequence_logprob_batch" in NAMES
    assert len(RUN_READS) >= 20


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves(name):
    mod_name, *rest = name.split(".")
    assert mod_name in SPANS.TRACED, f"{name}: module {mod_name} is not traced"
    module = importlib.import_module(f"narlab.{mod_name}")
    if len(rest) == 1:
        fn = vars(module).get(rest[0])
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, \
            f"{name}: no public function {rest[0]} defined in narlab.{mod_name}"
        assert not (mod_name == "tensor" and rest[0] in ("no_grad", "grad_enabled"))
    else:
        cls_name, method = rest
        assert cls_name in SPANS.TRACED[mod_name], f"{name}: class {cls_name} is not traced"
        fn = vars(getattr(module, cls_name)).get(method)
        assert inspect.isfunction(fn), f"{name}: {cls_name} defines no method {method}"
    assert not rest[-1].startswith("_"), f"{name}: private names are not traced"
