"""In-memory tracer that wraps narlab's public functions from outside.

``Tracer.install`` replaces every public function of the traced modules,
and every public method of their model and optimizer classes, with a
wrapper that records where the call started and ended.  Calls above the
tensor layer become spans (name, start, end, parent span, request id);
tensor ops, called thousands of times per request, only update per-name
call counts and busy seconds, plus the computed matmul flops and output
bytes.  Nothing is written until ``write`` is called at the end of a run.

The program itself is never edited: the wrappers sit on module and class
attributes, which is where narlab's own modules look their callees up
(``T.matmul``, ``make_batches``, ``teacher.greedy_decode_batch``).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# module attribute name -> classes whose public methods are traced too
TRACED = {
    "tensor": (),
    "transformer": ("Transformer",),
    "nar": ("NARTransformer",),
    "lengths": (),
    "distill": (),
    "training": ("Adam",),
    "evaluate": (),
    "tasks": (),
    "checkpoint": (),
}
# public tensor functions that are not ops on tensors
TENSOR_NON_OPS = {"no_grad", "grad_enabled", "backward"}


def _rows(args, kwargs, out):
    """Batch rows of a model method call: the first argument after self."""
    return len(args[1])


def _matmul_flops(args, kwargs, out):
    # 2 * (output entries) * (inner dimension)
    return 2 * out.data.size * args[0].shape[-1]


def _decoded_tokens(args, kwargs, out):
    return sum(len(h) for h in out)


def _step_rows(args, kwargs, out):
    # rows of a batch whose loss records a graph, i.e. an optimizer step's
    return len(args[1]) if out[0].requires_grad else 0


def _dropped(args, kwargs, out):
    return out[1]


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


# extra counters taken from a call's arguments or result: name -> (counter, fn)
MEASURES = {
    "tensor.matmul": ("tensor.matmul.flops", _matmul_flops),
    "transformer.Transformer.encode_batch": ("transformer.encode_batch.rows", _rows),
    "transformer.Transformer.sequence_logprob_batch":
        ("transformer.sequence_logprob_batch.rows", _rows),
    "transformer.Transformer.greedy_decode_batch":
        ("transformer.greedy_decode_batch.tokens", _decoded_tokens),
    "nar.NARTransformer.nar_logits_batch": ("nar.nar_logits_batch.rows", _rows),
    "nar.NARTransformer.nar_greedy_emit_batch": ("nar.nar_greedy_emit_batch.rows", _rows),
    "training.batch_loss": ("training.step_rows", _step_rows),
    "distill.distill_corpus": ("distill.dropped", _dropped),
    "checkpoint.load_checkpoint": ("checkpoint.bytes", _file_bytes),
    "checkpoint.save_checkpoint": ("checkpoint.bytes", _file_bytes),
}


class Tracer:
    """Spans and counters for one traced run.  Wrappers pass straight
    through while the tracer is paused or after ``uninstall``."""

    def __init__(self):
        self.spans: list = []
        self.calls: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)
        self.counters: dict = defaultdict(float)
        self.request = None
        self.active = False
        self._stack: list = []
        self._saved: list = []

    # -- installation --------------------------------------------------
    def install(self, package) -> None:
        for mod_name, class_names in TRACED.items():
            module = getattr(package, mod_name)
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or (mod_name == "tensor" and name in ("no_grad", "grad_enabled"))):
                    continue
                self._patch(module, name, fn, f"{mod_name}.{name}",
                            keep_span=mod_name != "tensor")
            for cls_name in class_names:
                cls = getattr(module, cls_name)
                for name, fn in list(vars(cls).items()):
                    if name.startswith("_") or not inspect.isfunction(fn):
                        continue
                    self._patch(cls, name, fn, f"{mod_name}.{cls_name}.{name}",
                                keep_span=True)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def _patch(self, owner, name, fn, qualname, keep_span):
        self._saved.append((owner, name, fn))
        setattr(owner, name, self._wrap(fn, qualname, keep_span))

    def _wrap(self, fn, qualname, keep_span):
        tracer = self
        measure = MEASURES.get(qualname)
        is_op = qualname.startswith("tensor.") and qualname[7:] not in TENSOR_NON_OPS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if keep_span:
                stack = tracer._stack
                parent = stack[-1] if stack else -1
                idx = len(tracer.spans)
                tracer.spans.append(None)
                stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if keep_span:
                    stack.pop()
                    tracer.spans[idx] = (qualname, t0, t1, parent, tracer.request)
                tracer.calls[qualname] += 1
                tracer.seconds[qualname] += t1 - t0
            if is_op:
                tracer.counters["tensor.out_bytes"] += out.data.nbytes
            if measure is not None:
                tracer.counters[measure[0]] += measure[1](args, kwargs, out)
            return out

        return wrapper

    @contextmanager
    def paused(self):
        """Calls inside the block are not recorded (benchmark bookkeeping)."""
        saved, self.active = self.active, False
        try:
            yield
        finally:
            self.active = saved

    # -- results -------------------------------------------------------
    def op_calls(self) -> int:
        return sum(n for name, n in self.calls.items()
                   if name.startswith("tensor.") and name[7:] not in TENSOR_NON_OPS)

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of per-name call totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
            fh.write(json.dumps({"calls": dict(self.calls), "seconds": dict(self.seconds),
                                 "counters": dict(self.counters)}) + "\n")
