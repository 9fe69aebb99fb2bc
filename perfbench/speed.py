"""A fixed probe of the machine's speed, run between the timed jobs.

The shared machine the benchmark runs on changes speed by as much as a
half within minutes, for reasons outside the process.  A run therefore
interleaves blocks of a fixed kernel with its jobs, a set share of the
time the jobs take, and reports its timings scaled to the speed at which
a block takes REFERENCE_BLOCK_S.  The kernel is a toy reverse-mode
autograd over numpy: residual ReLU layers on a dozen rows, forward and
backward, cycling through 4 MB of weights.  Like narlab's tensor layer it
is bound by Python dispatch and object churn, which the drift slows more
than it slows BLAS, and its weights outgrow a core's L2 cache as the
models do.  It uses no narlab code, so a change to the program cannot
move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# probe time owed per second of timed work: in a timed phase, and after
# set-ups, which are too short in all for 5% to give a steady median
SHARE, SETUP_SHARE = 0.05, 0.25
# median block time on the reference machine (perfbench/README.md)
REFERENCE_BLOCK_S = 0.0048
DEPTH = 8  # layers per graph; a block builds len(_WEIGHTS) // DEPTH graphs

_rng = np.random.default_rng(0)


class _Node:
    __slots__ = ("data", "parents", "grad_fn", "grad", "seen")

    def __init__(self, data, parents=(), grad_fn=None):
        self.data, self.parents, self.grad_fn = data, parents, grad_fn
        self.grad, self.seen = None, False


def _matmul(a, b):
    return _Node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def _add(a, b):
    return _Node(a.data + b.data, (a, b), lambda g: (g, g))


def _relu(a):
    mask = a.data > 0
    return _Node(a.data * mask, (a,), lambda g: (g * mask,))


def _backward(out) -> None:
    order, stack = [], [(out, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif not node.seen:
            node.seen = True
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents if p.grad_fn is not None)
    out.grad = np.ones_like(out.data)
    for node in reversed(order):
        for parent, g in zip(node.parents, node.grad_fn(node.grad)):
            if parent.grad_fn is not None:
                parent.grad = g if parent.grad is None else parent.grad + g


# the weights are slices of one array, so that their relative alignment,
# and with it their cache behaviour, is the same in every process
_WEIGHTS = [_Node(w) for w in 0.1 * _rng.standard_normal((128, 64, 64))]
_ROWS = _Node(_rng.standard_normal((12, 64)))


def _block() -> float:
    t0 = time.perf_counter()
    for first in range(0, len(_WEIGHTS), DEPTH):
        x = _ROWS
        for w in _WEIGHTS[first:first + DEPTH]:
            x = _relu(_add(_matmul(x, w), x))
        _backward(x)
    return time.perf_counter() - t0


class Probe:
    """Runs probe blocks as timed work accrues, ``share`` seconds per
    second; ``slowdown()`` is the median block time over the reference one
    (above 1: slower).  With share 0 it runs nothing and reads 1."""

    def __init__(self, share: float):
        self.share = share
        self.blocks: list = []
        self.debt = 0.0

    def owe(self, seconds: float) -> None:
        self.debt += self.share * seconds
        while self.debt > 0:
            self.blocks.append(_block())
            self.debt -= self.blocks[-1]

    def slowdown(self) -> float:
        if not self.blocks:
            return 1.0
        return statistics.median(self.blocks) / REFERENCE_BLOCK_S
