"""NAR student: the shared transformer with a soft-copy decoder input (each
target position a mix of encoder outputs under row-normalized Gaussian
weights), non-causal decoder self-attention, and one table of learned
positional embeddings added at the input of every decoder layer.

The decoder layer loop is ``Transformer._decode_hidden``; this flavor only
supplies its two differences (no causal self-attention mask, positions
re-added per layer).  There is no positional self-attention module; target
positions get their position information solely from that table, and the
decoder emits all positions in one parallel pass.
Candidates of several target lengths can share that pass as right-padded
rows: finite soft-copy rows past each candidate's length, which a
key-padding mask keeps every position from reading.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .transformer import NAR, Transformer


def soft_copy_weights(src_len: int, target_len, sigma_sq: Tensor) -> Tensor:
    """Gaussian kernel weights W (target_len, src_len), each row summing to 1.

    Positions are 1-based: W[t, i] ~ exp(-(i - (T/T')*t)^2 / (2 sigma^2)),
    so the last target position centers on the last source position.
    ``target_len`` may instead be a sequence of K lengths: W is then (K, max
    length, src_len), block k holding the weights for its own length
    followed by finite rows of the same kernel (right padding, unread).
    """
    lens = np.asarray(target_len)
    if src_len < 1 or lens.min() < 1:
        raise ValueError(f"soft_copy needs positive lengths, got T={src_len}, T'={target_len}")
    i = np.arange(1, src_len + 1, dtype=np.float64)[None, :]
    t = np.arange(1, lens.max() + 1, dtype=np.float64)[:, None]
    ratio = (src_len / lens)[..., None, None]
    sq_dist = (i - ratio * t) ** 2
    return T.softmax(Tensor(-0.5 * sq_dist) / sigma_sq)


def soft_copy(enc_out: Tensor, target_len, sigma_sq: Tensor) -> Tensor:
    """Soft-copy encoded sources (..., T, d) to (..., target_len, d); one
    weight matrix serves a whole rectangular batch.  With one target length
    per row of ``enc_out`` the rows come out right-padded with finite
    soft-copy rows, which the decoder's key-padding mask keeps unread."""
    w = soft_copy_weights(enc_out.shape[-2], target_len, sigma_sq)
    return T.matmul(w, enc_out)


class NARTransformer(Transformer):
    """Non-autoregressive flavor; shares the AR encoder and param naming."""

    flavor = NAR

    @property
    def sigma_sq(self) -> Tensor:
        return T.exp(self.params["soft_copy.rho"])

    def _self_attn_mask(self, n: int, lengths: np.ndarray | None = None) -> np.ndarray | None:
        # non-causal: every position attends every other one of its row,
        # padding excepted
        if lengths is None:
            return None
        return (np.arange(n) < lengths[:, None])[:, None, None, :]

    def _layer_input(self, x: Tensor) -> Tensor:
        return x + T.gather_rows(self.params["decoder.pos_embedding"], np.arange(x.shape[1]))

    def nar_logits_batch(self, src_ids: np.ndarray, target_len,
                         enc_out: Tensor | None = None,
                         dec_in: Tensor | None = None) -> Tensor:
        """Parallel logits (B, target_len, V).  ``target_len`` may instead
        hold one length per row: rows are then right-padded to the longest,
        and a key-padding mask keeps every position off the padding.
        ``enc_out`` / ``dec_in`` replace the encoder output and the
        soft-copied decoder input, so callers can encode once and
        perturbation tests can feed in altered ones."""
        lengths = None if np.ndim(target_len) == 0 else np.asarray(target_len)
        lo, hi = np.min(target_len), np.max(target_len)
        if not 1 <= lo <= hi <= self.config.max_len:
            raise ValueError(
                f"target_len {target_len} outside [1, {self.config.max_len}]"
            )
        if enc_out is None:
            enc_out = self.encode_batch(src_ids)
        if dec_in is None:
            dec_in = soft_copy(enc_out, target_len, self.sigma_sq)
        return self._project(self._decode_hidden(dec_in, enc_out, lengths=lengths))

    # -- public single-sentence API ------------------------------------
    def nar_forward(self, src, target_len: int) -> np.ndarray:
        """Per-position distributions (target_len, vocab); rows sum to 1."""
        ids = self._check_ids(src, "source")
        with T.no_grad():
            logits = self.nar_logits_batch(ids[None, :], target_len)
            probs = T.softmax(logits)
        return probs.data[0]

    def nar_greedy_emit_batch(self, srcs, target_len, enc_out: Tensor | None = None) -> list:
        """Position-wise argmax emissions in one parallel pass.  All sources
        in the batch must share one length.  ``target_len`` is one length
        for every row, or one per row (the rows are then right-padded inside
        the pass); each output has its row's length.  ``enc_out`` is the
        encoder output of ``srcs``, if already known."""
        src_ids = np.stack([self._check_ids(s, "source") for s in srcs])
        lengths = np.broadcast_to(target_len, len(srcs))
        with T.no_grad():
            logits = self.nar_logits_batch(src_ids, target_len, enc_out=enc_out)
        ids = np.argmax(logits.data, axis=-1)
        return [[int(t) for t in row[:L]] for row, L in zip(ids, lengths)]
