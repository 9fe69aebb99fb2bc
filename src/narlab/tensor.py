"""Dense float64 tensors with reverse-mode automatic differentiation.

Every primitive op records a graph node on its output: the node holds the
input tensors and a closure mapping the output gradient to per-input
gradients.  ``backward`` on a scalar walks the recorded nodes in reverse
topological order and accumulates gradients onto every tensor that
requires them.  Tensors created inside a ``no_grad()`` block carry no
node and are treated as constants.

Three fused ops cover the pieces of a transformer layer with one node
each: ``linear`` (x @ W + b), ``affine_layer_norm`` (normalize, then gain
and bias) and ``attention_core`` (split heads, scaled scores, mask,
softmax, context, merged heads).  Each runs the numpy calls of the
primitive chain it replaces, in the same order, forward and backward, so
its results have the same bits; it only saves the dispatch and the
intermediate tensors the chain would record.  One exception: ``linear``
over rows of one position, as in a cached decode step, runs one 2-D GEMM
instead of a gemv per row, and its forward product then differs from the
broadcasting matmul's by at most 1e-12 relative.

Broadcasting for elementwise ops is deliberately narrow: equal shapes,
scalar against anything, or one shape being a trailing suffix of the
other (the leading-batch case, e.g. (D,) added to (B, T, D)).
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform; message carries both shapes."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / finite differences)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class _Node:
    __slots__ = ("inputs", "backward_fn")

    def __init__(self, inputs, backward_fn):
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """A float64 ndarray plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: _Node | None = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    # -- operators -----------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __mul__(self, other):
        return multiply(self, _wrap(other))

    def __truediv__(self, other):
        return divide(self, _wrap(other))

    # -- method sugar --------------------------------------------------
    def sum(self, axis=None):
        return reduce_sum(self, axis=axis)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(inputs) -> bool:
    return _grad_enabled and any(t.requires_grad for t in inputs)


def _make(data, inputs, backward_fn) -> Tensor:
    out = Tensor(data)
    if _recording(inputs):
        out.requires_grad = True
        out.node = _Node(tuple(inputs), backward_fn)
    return out


# ---------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be a scalar (0-d) tensor.  Gradients accumulate: callers
    that reuse parameters across steps zero them between calls.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        t, processed = stack.pop()
        if processed:
            topo.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for inp in t.node.inputs:
                if inp.requires_grad and id(inp) not in visited:
                    stack.append((inp, False))

    # arithmetic on 0-d arrays returns numpy scalars: keep every grad an ndarray
    loss.grad = np.asarray(1.0 if loss.grad is None else loss.grad + 1.0)
    for t in reversed(topo):
        if t.node is None or t.grad is None:
            continue
        for inp, g in zip(t.node.inputs, t.node.backward_fn(t.grad)):
            if g is None or not inp.requires_grad:
                continue
            if g.shape != inp.data.shape:
                raise ShapeError(
                    f"gradient shape {g.shape} does not match tensor shape {inp.data.shape}"
                )
            if inp.grad is None:
                # a broadcast view is read-only and a transposed one is not in
                # C order, which would change the summation order of later
                # reductions: store a C-ordered buffer that may be written
                inp.grad = (g if g.flags.writeable and g.flags.c_contiguous
                            else np.array(g, order="C"))
            else:
                inp.grad = np.asarray(inp.grad + g)


# ---------------------------------------------------------------------
# broadcasting helpers (scalar / suffix only)
# ---------------------------------------------------------------------

def _check_elementwise(sa: tuple, sb: tuple) -> None:
    if sa == sb or sa == () or sb == ():
        return
    if len(sa) >= len(sb) and sa[len(sa) - len(sb):] == sb:
        return
    if len(sb) >= len(sa) and sb[len(sb) - len(sa):] == sa:
        return
    raise ShapeError(
        f"elementwise op needs equal, scalar, or suffix-broadcast shapes, got {sa} and {sb}"
    )


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape`` (leading axes only)."""
    if grad.shape == shape:
        return grad
    if shape == ():
        return np.asarray(grad.sum())
    extra = grad.ndim - len(shape)
    g = grad.sum(axis=tuple(range(extra))) if extra > 0 else grad
    if g.shape != shape:
        raise ShapeError(f"cannot reduce gradient of shape {grad.shape} to {shape}")
    return g


# ---------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a.shape, b.shape)
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_reduce_to(g, a.shape), _reduce_to(g, b.shape)),
    )


def multiply(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a.shape, b.shape)
    ad, bd = a.data, b.data
    return _make(
        ad * bd,
        (a, b),
        lambda g: (_reduce_to(g * bd, a.shape), _reduce_to(g * ad, b.shape)),
    )


def divide(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a.shape, b.shape)
    ad, bd = a.data, b.data
    out = ad / bd
    return _make(
        out,
        (a, b),
        lambda g: (_reduce_to(g / bd, a.shape), _reduce_to(-g * ad / (bd * bd), b.shape)),
    )


# ---------------------------------------------------------------------
# transcendental / activation
# ---------------------------------------------------------------------

def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return _make(out, (x,), lambda g: (g * out,))


def relu(x: Tensor) -> Tensor:
    keep = x.data > 0.0
    return _make(np.where(keep, x.data, 0.0), (x,), lambda g: (g * keep,))


# ---------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.shape, b.shape
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs tensors of rank >= 2, got {sa} and {sb}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {sa} and {sb}")
    if a.ndim > 2 and b.ndim > 2 and sa[:-2] != sb[:-2]:
        raise ShapeError(f"matmul leading (batch) dimensions differ: {sa} and {sb}")
    ad, bd = a.data, b.data

    def back(g):
        ga = _reduce_to(np.matmul(g, bd.swapaxes(-1, -2)), sa)
        gb = _reduce_to(np.matmul(ad.swapaxes(-1, -2), g), sb)
        return ga, gb

    return _make(np.matmul(ad, bd), (a, b), back)


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """``x @ W + b``: (..., d) rows through a (d, d') weight and a (d',) bias."""
    if x.ndim < 2 or W.ndim != 2 or x.shape[-1] != W.shape[0] or b.shape != W.shape[1:]:
        raise ShapeError(f"linear needs (..., d), (d, d') and (d',), got "
                         f"{x.shape}, {W.shape} and {b.shape}")
    xd, wd = x.data, W.data
    if x.ndim > 2 and x.shape[-2] == 1:
        # one position per row: one (rows, d) GEMM, where the broadcasting
        # matmul would make one gemv call per row
        out = (xd.reshape(-1, wd.shape[0]) @ wd).reshape(x.shape[:-1] + wd.shape[1:])
    else:
        out = np.matmul(xd, wd)
    out += b.data

    def back(g):
        gx = np.matmul(g, wd.swapaxes(-1, -2))
        gw = _reduce_to(np.matmul(xd.swapaxes(-1, -2), g), wd.shape)
        return gx, gw, _reduce_to(g, b.shape)

    return _make(out, (x, W, b), back)


# ---------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------

def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; all other dimensions must match exactly."""
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    ndim = tensors[0].ndim
    axis = axis % ndim if ndim else 0
    for t in tensors[1:]:
        if t.ndim != ndim or any(
            i != axis and t.shape[i] != tensors[0].shape[i] for i in range(ndim)
        ):
            raise ShapeError(
                f"concat shapes incompatible on axis {axis}: "
                f"{[t.shape for t in tensors]}"
            )
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, back)


def transpose(x: Tensor) -> Tensor:
    """The axes reversed: for a 2-d tensor, its transpose."""
    return _make(x.data.T, (x,), lambda g: (g.T,))


# ---------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------

def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    """Sum over one axis, or over all of them when ``axis`` is None."""
    shape = x.shape

    def back(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(np.float64, copy=False),)

    return _make(x.data.sum(axis=axis), (x,), back)


# ---------------------------------------------------------------------
# softmax family / normalization
# ---------------------------------------------------------------------

def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis (numerically stabilized)."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return _make(out, (x,), back)


def log_softmax(x: Tensor) -> Tensor:
    """log(softmax(x)) over the last axis without intermediate underflow."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    probs = np.exp(out)

    def back(g):
        return (g - probs * g.sum(axis=-1, keepdims=True),)

    return _make(out, (x,), back)


LN_EPS = 1e-12


def affine_layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale by
    ``gain`` and shift by ``bias`` (both of the last axis' size)."""
    if gain.shape != x.shape[-1:] or bias.shape != gain.shape:
        raise ShapeError(f"affine_layer_norm of {x.shape} needs gain and bias of "
                         f"{x.shape[-1:]}, got {gain.shape} and {bias.shape}")
    # x is centred once; the variance is np.var's own sum of squares of
    # that centred array over the row size, so no bit differs from var()
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.square(xhat).sum(axis=-1, keepdims=True)
    var /= x.shape[-1]
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    gd = gain.data
    if not _recording((x, gain, bias)):
        # no backward needs xhat: scale and shift it in place
        xhat *= gd
        xhat += bias.data
        return Tensor(xhat)
    out = xhat * gd
    out += bias.data

    def back(g):
        gn = g * gd
        gm = gn.mean(axis=-1, keepdims=True)
        gx = (gn * xhat).mean(axis=-1, keepdims=True)
        return (inv * (gn - gm - xhat * gx), _reduce_to(g * xhat, gain.shape),
                _reduce_to(g, bias.shape))

    return _make(out, (x, gain, bias), back)


# ---------------------------------------------------------------------
# attention / gather
# ---------------------------------------------------------------------

MASK_FILL = -1e30


def attention_core(q: Tensor, k: Tensor, v: Tensor, heads: int,
                   allowed: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention of projected queries (B, Lq, d)
    over projected keys and values (B, Lk, d), all with their heads unsplit.

    Splits d into ``heads`` heads of dh = d / heads, scales the scores by
    dh^-1/2, fills them with MASK_FILL where ``allowed`` (a constant boolean
    array broadcast over (B, heads, Lq, Lk)) is False, takes the softmax
    over the keys and the context, and merges the heads back to (B, Lq, d).
    """
    B, Lq, d = q.shape
    Lk = k.shape[1]
    if k.shape != (B, Lk, d) or v.shape != k.shape or d % heads:
        raise ShapeError(f"attention_core needs q (B, Lq, d) and k, v (B, Lk, d) with d "
                         f"divisible by {heads} heads, got {q.shape}, {k.shape}, {v.shape}")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    q4 = q.data.reshape(B, Lq, heads, dh).transpose(0, 2, 1, 3)
    kT = k.data.reshape(B, Lk, heads, dh).transpose(0, 2, 1, 3).transpose(0, 1, 3, 2)
    v4 = v.data.reshape(B, Lk, heads, dh).transpose(0, 2, 1, 3)
    # the scores become the softmax in place, so no transient outlives its step
    p = np.matmul(q4, kT)
    p *= scale
    keep = None
    if allowed is not None:
        try:
            keep = np.broadcast_to(np.asarray(allowed, dtype=bool), p.shape)
        except ValueError as err:
            raise ShapeError(f"mask of shape {np.shape(allowed)} does not "
                             f"broadcast to {p.shape}") from err
        np.copyto(p, MASK_FILL, where=~keep)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = np.matmul(p, v4).transpose(0, 2, 1, 3).reshape(B, Lq, d)

    def back(g):
        gc = g.reshape(B, Lq, heads, dh).transpose(0, 2, 1, 3)
        gs = np.matmul(gc, v4.swapaxes(-1, -2))
        gv = np.matmul(p.swapaxes(-1, -2), gc)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        if keep is not None:
            gs *= keep
        gs *= scale
        gq = np.matmul(gs, kT.swapaxes(-1, -2))
        gk = np.matmul(q4.swapaxes(-1, -2), gs)
        return (gq.transpose(0, 2, 1, 3).reshape(B, Lq, d),
                gk.transpose(0, 3, 1, 2).reshape(B, Lk, d),
                gv.transpose(0, 2, 1, 3).reshape(B, Lk, d))

    return _make(out, (q, k, v), back)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Embedding lookup: rows of a (V, D) table at integer ``ids`` (any shape)."""
    idx = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"gather_rows needs a 2-d table, got {table.shape}")
    if idx.size > 0 and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"gather ids out of range [0, {table.shape[0]}): min={idx.min()}, max={idx.max()}"
        )
    tshape = table.shape

    def back(g):
        acc = np.zeros(tshape, dtype=np.float64)
        np.add.at(acc, idx.reshape(-1), g.reshape(-1, tshape[1]))
        return (acc,)

    return _make(table.data[idx], (table,), back)
