"""Plain references the tests hold the fast paths to.

Length-parallel reranking: ``lengths.length_parallel_decode_corpus``
scores a whole group of candidates in one stacked pass per model.  The
oracle below scores one sentence at a time, one unpadded student pass and
one teacher pass per candidate length, through the public entry points
only, so the stacked pass can be held to it.

Fused tensor ops: the primitive chains that ``tensor.linear``,
``affine_layer_norm`` and ``attention_core`` replace, forward and
backward, written in plain numpy so that an exact-equality check shares
no code with the op.
"""

import math

import numpy as np

from narlab.lengths import candidate_lengths


def scored_candidates(student, teacher, src, policy) -> list:
    """(length, tokens, teacher log-probability) for every candidate length
    both models can represent: the student emits L positions, the teacher
    scores BOS + L."""
    limit = min(student.config.max_len, teacher.config.max_len - 1)
    out = []
    for L in candidate_lengths(len(src), policy):
        if L <= limit:
            tokens = student.nar_greedy_emit_batch([src], L)[0]
            out.append((L, tokens, teacher.sequence_logprob(src, tokens)[0]))
    return out


def rerank_pick(student, teacher, src, policy) -> list:
    """The tokens of the best-scored candidate; ties go to the length
    nearest the predicted T + C, then to the shorter one."""
    center = len(src) + policy.C
    _, tokens, _ = max(scored_candidates(student, teacher, src, policy),
                       key=lambda c: (c[2], -abs(c[0] - center), -c[0]))
    return tokens


# ---------------------------------------------------------------------
# the primitive chains that narlab.tensor's fused ops replace, in plain
# numpy: forward, then backward one primitive at a time in reverse, each
# step the numpy call its primitive's backward makes
# ---------------------------------------------------------------------

def _sum_leading(g, ndim):
    """A broadcast gradient summed back over its extra leading axes."""
    return g.sum(axis=tuple(range(g.ndim - ndim))) if g.ndim > ndim else g


def linear_chain(x, W, b, g):
    """``matmul(x, W)`` then ``+ b``: (out, (gx, gW, gb)) for the output
    gradient ``g``.  Rows of one position (x of shape (..., 1, d)) are
    defined as one flattened (rows, d) @ (d, d') product, the GEMM that
    ``tensor.linear`` runs for a cached decode step."""
    if x.ndim > 2 and x.shape[-2] == 1:
        out = (x.reshape(-1, x.shape[-1]) @ W).reshape(x.shape[:-1] + W.shape[1:]) + b
    else:
        out = np.matmul(x, W) + b
    gx = np.matmul(g, W.swapaxes(-1, -2))
    gW = _sum_leading(np.matmul(x.swapaxes(-1, -2), g), 2)
    return out, (gx, gW, _sum_leading(g, 1))


def affine_layer_norm_chain(x, gain, bias, g, eps=1e-12):
    """Layer norm by ``mean`` and ``var``, then ``* gain`` and ``+ bias``."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = xhat * gain + bias
    gbias = _sum_leading(g, 1)
    ggain = _sum_leading(g * xhat, 1)
    gn = g * gain
    gm = gn.mean(axis=-1, keepdims=True)
    gx = (gn * xhat).mean(axis=-1, keepdims=True)
    return out, (inv * (gn - gm - xhat * gx), ggain, gbias)


def attention_chain(q, k, v, heads, allowed, g):
    """Reshape and transpose q, k, v into heads, ``q @ k^T``, times
    dh^-1/2, mask (if ``allowed`` is not None), softmax, ``@ v``, transpose
    and reshape back."""
    B, Lq, d = q.shape
    Lk, dh = k.shape[1], d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(a):
        return a.reshape(B, a.shape[1], heads, dh).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(B, a.shape[2], d)

    q4, k4, v4 = split(q), split(k), split(v)
    kT = k4.transpose(0, 1, 3, 2)
    s = np.matmul(q4, kT) * scale
    if allowed is not None:
        keep = np.broadcast_to(allowed, s.shape)
        s = np.where(keep, s, -1e30)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = merge(np.matmul(p, v4))

    gc = split(g)
    gp = np.matmul(gc, v4.swapaxes(-1, -2))
    gv4 = np.matmul(p.swapaxes(-1, -2), gc)
    gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p
    if allowed is not None:
        gs = gs * keep
    gs = gs * scale
    gq4 = np.matmul(gs, kT.swapaxes(-1, -2))
    gkT = np.matmul(q4.swapaxes(-1, -2), gs)
    return out, (merge(gq4), merge(gkT.transpose(0, 1, 3, 2)), merge(gv4))
