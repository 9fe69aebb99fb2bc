"""Encoder-decoder transformer: the AR teacher and the NAR student backbone.

Pre-LN residual blocks, sinusoidal positional encodings at the embedding
layer, one embedding table shared by source, target and the output
projection.  All batched entry points take rectangular id arrays: callers
group sentences by exact source length, so sources are never padded.  The
only padding inside the model is on the right of decoder rows, in the
length-parallel rerank pass, where candidates of several lengths share one
batch: the teacher's causal mask already hides it from every earlier
position, and the student's decoder, which has no causal mask, hides it
with a key-padding mask built from the per-row lengths.  Greedy decoding
feeds one position per step, which attends over the cached keys and values
of the positions before it and so needs no mask at all.

Each layer piece is one fused op of ``narlab.tensor``: projections and the
feed-forward halves are ``linear``, the layer norms ``affine_layer_norm``,
and multi-head attention ``attention_core`` over unsplit (B, L, d) query,
key and value projections, which splits and merges the heads itself.  The
greedy decoder's cache therefore holds, per layer, the unsplit self-attention
K and V of every position fed so far, (B, t, d) each, grown by one position
per step along axis 1, and the cross-attention K and V of the null row and
the T source positions, (B, 1 + T, d) each, projected on the first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .util import map_groups, rng_for
from .vocab import BOS_ID, EOS_ID, N_RESERVED, PAD_ID

AR = "AR"
NAR = "NAR"


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    num_layers: int = 2
    num_heads: int = 4
    model_dim: int = 64
    hidden_dim: int = 256
    max_len: int = 64
    flavor: str = AR

    def __post_init__(self):
        if self.flavor not in (AR, NAR):
            raise ValueError(f"flavor must be AR or NAR, got {self.flavor!r}")
        if self.vocab_size <= N_RESERVED:
            raise ValueError(f"vocab_size must exceed the {N_RESERVED} reserved ids")
        for name in ("num_layers", "num_heads", "model_dim", "hidden_dim", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.model_dim % self.num_heads != 0:
            raise ValueError(
                f"model_dim {self.model_dim} not divisible by num_heads {self.num_heads}"
            )

    def as_nar(self) -> "ModelConfig":
        return replace(self, flavor=NAR)


# ---------------------------------------------------------------------
# parameter schema and initialization
# ---------------------------------------------------------------------

def _attn_shapes(prefix: str, d: int, null_slot: bool = False) -> dict:
    shapes = {}
    for w in ("Wq", "Wk", "Wv", "Wo"):
        shapes[f"{prefix}.{w}"] = (d, d)
    for b in ("bq", "bk", "bv", "bo"):
        shapes[f"{prefix}.{b}"] = (d,)
    if null_slot:
        # learned off-the-edge attention target (one extra kv row; gives the
        # decoder somewhere to look when its alignment leaves the source)
        shapes[f"{prefix}.null"] = (1, d)
    return shapes


def _ffn_shapes(prefix: str, d: int, h: int) -> dict:
    return {
        f"{prefix}.W1": (d, h),
        f"{prefix}.b1": (h,),
        f"{prefix}.W2": (h, d),
        f"{prefix}.b2": (d,),
    }


def _ln_shapes(prefix: str, d: int) -> dict:
    return {f"{prefix}.gain": (d,), f"{prefix}.bias": (d,)}


def param_schema(config: ModelConfig) -> dict:
    """Map parameter path -> shape for the given configuration."""
    d, h = config.model_dim, config.hidden_dim
    shapes = {"embedding": (config.vocab_size, d)}
    for i in range(config.num_layers):
        shapes.update(_attn_shapes(f"encoder.layer{i}.attn", d))
        shapes.update(_ffn_shapes(f"encoder.layer{i}.ffn", d, h))
        shapes.update(_ln_shapes(f"encoder.layer{i}.ln1", d))
        shapes.update(_ln_shapes(f"encoder.layer{i}.ln2", d))
        shapes.update(_attn_shapes(f"decoder.layer{i}.self_attn", d))
        shapes.update(_attn_shapes(f"decoder.layer{i}.cross_attn", d, null_slot=True))
        shapes.update(_ffn_shapes(f"decoder.layer{i}.ffn", d, h))
        shapes.update(_ln_shapes(f"decoder.layer{i}.ln1", d))
        shapes.update(_ln_shapes(f"decoder.layer{i}.ln2", d))
        shapes.update(_ln_shapes(f"decoder.layer{i}.ln3", d))
    shapes.update(_ln_shapes("encoder.ln", d))
    shapes.update(_ln_shapes("decoder.ln", d))
    if config.flavor == NAR:
        shapes["soft_copy.rho"] = ()
        shapes["decoder.pos_embedding"] = (config.max_len, d)
    return shapes


def init_params(config: ModelConfig, seed: int) -> dict:
    """Xavier-uniform weights, zero biases, N(0, d^-1/2) embeddings, rho = 0."""
    d = config.model_dim
    params = {}
    for name, shape in sorted(param_schema(config).items()):
        rng = rng_for(seed, "init", name)
        if name == "soft_copy.rho":
            val = np.zeros(())  # sigma^2 = exp(0) = 1 initially
        elif name.endswith(".gain"):
            val = np.ones(shape)
        elif name.endswith((".b1", ".b2", ".bq", ".bk", ".bv", ".bo", ".bias")):
            val = np.zeros(shape)
        elif name == "embedding" or name.endswith(("pos_embedding", ".null")):
            val = rng.standard_normal(shape) / math.sqrt(d)
        else:
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            val = rng.uniform(-bound, bound, size=shape)
        params[name] = Tensor(val, requires_grad=True)
    return params


def sinusoid_table(max_len: int, d: int) -> np.ndarray:
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    div = np.exp(np.arange(0, d, 2, dtype=np.float64) * (-math.log(10000.0) / d))
    table = np.zeros((max_len, d))
    table[:, 0::2] = np.sin(pos * div)
    table[:, 1::2] = np.cos(pos * div[: d // 2])
    return table


def make_causal_mask(n: int) -> np.ndarray:
    """Boolean (n, n) mask: entry (t, k) True iff position t may attend k <= t."""
    return np.tril(np.ones((n, n), dtype=bool))


# ---------------------------------------------------------------------
# sublayers
# ---------------------------------------------------------------------

def _kv(params: dict, prefix: str, kv_in: Tensor) -> tuple:
    """Keys and values of ``kv_in`` (B, Lk, d): two (B, Lk, d) projections,
    heads unsplit."""
    return (T.linear(kv_in, params[f"{prefix}.Wk"], params[f"{prefix}.bk"]),
            T.linear(kv_in, params[f"{prefix}.Wv"], params[f"{prefix}.bv"]))


def _attention(params: dict, prefix: str, q_in: Tensor, kv: tuple,
               num_heads: int, allowed: np.ndarray | None = None) -> Tensor:
    """Multi-head attention of ``q_in`` over the keys and values ``kv``
    from ``_kv``; ``allowed`` broadcasts over (B, H, Lq, Lk)."""
    q = T.linear(q_in, params[f"{prefix}.Wq"], params[f"{prefix}.bq"])
    ctx = T.attention_core(q, *kv, num_heads, allowed)
    return T.linear(ctx, params[f"{prefix}.Wo"], params[f"{prefix}.bo"])


def _ffn(params: dict, prefix: str, x: Tensor) -> Tensor:
    h = T.relu(T.linear(x, params[f"{prefix}.W1"], params[f"{prefix}.b1"]))
    return T.linear(h, params[f"{prefix}.W2"], params[f"{prefix}.b2"])


def _ln(params: dict, prefix: str, x: Tensor) -> Tensor:
    """Layer norm with learned per-dim gain and bias (the usual affine)."""
    return T.affine_layer_norm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"])


def _with_null_row(params: dict, prefix: str, kv: Tensor) -> Tensor:
    """Prepend the learned null kv row, broadcast across the batch."""
    B = kv.shape[0]
    row = T.gather_rows(params[f"{prefix}.null"], np.zeros((B, 1), dtype=np.int64))
    return T.concat([row, kv], axis=1)


# ---------------------------------------------------------------------
# model
# ---------------------------------------------------------------------

class Transformer:
    """AR encoder-decoder.  Batched internals take (B, L) int64 id arrays
    where every row has the same true length (callers group by length)."""

    flavor = AR  # the config flavor this class runs

    def __init__(self, config: ModelConfig, params: dict | None = None, seed: int = 0):
        if config.flavor != self.flavor:
            raise ValueError(f"{type(self).__name__} needs flavor {self.flavor}, "
                             f"got {config.flavor}")
        self.config = config
        self.params = params if params is not None else init_params(config, seed)
        missing = set(param_schema(config)) ^ set(self.params)
        if missing:
            raise ValueError(f"parameter set does not match schema: {sorted(missing)}")
        self._pos = sinusoid_table(config.max_len, config.model_dim)

    # -- shared pieces -------------------------------------------------
    def _check_ids(self, seq, what: str):
        seq = np.asarray(seq, dtype=np.int64)
        if seq.size == 0:
            raise ValueError(f"empty {what} sequence rejected")
        if seq.min() < 0 or seq.max() >= self.config.vocab_size:
            raise ValueError(
                f"{what} token id out of range [0, {self.config.vocab_size}): "
                f"min={seq.min()}, max={seq.max()}"
            )
        return seq

    def _embed(self, ids: np.ndarray, start: int = 0) -> Tensor:
        # (B, L) -> (B, L, d), scaled embedding plus the sinusoids of
        # positions start .. start + L - 1
        end = start + ids.shape[1]
        if end > self.config.max_len:
            raise ValueError(f"sequence length {end} exceeds max_len {self.config.max_len}")
        x = T.gather_rows(self.params["embedding"], ids) * Tensor(
            math.sqrt(self.config.model_dim)
        )
        return x + Tensor(self._pos[start:end])

    def _project(self, hidden: Tensor) -> Tensor:
        return T.matmul(hidden, T.transpose(self.params["embedding"]))

    def encode_batch(self, src_ids: np.ndarray) -> Tensor:
        p, cfg = self.params, self.config
        x = self._embed(src_ids)
        for i in range(cfg.num_layers):
            pre = f"encoder.layer{i}"
            n = _ln(p, f"{pre}.ln1", x)
            x = x + _attention(p, f"{pre}.attn", n, _kv(p, f"{pre}.attn", n), cfg.num_heads)
            x = x + _ffn(p, f"{pre}.ffn", _ln(p, f"{pre}.ln2", x))
        return _ln(p, "encoder.ln", x)

    def _self_attn_mask(self, n: int, lengths: np.ndarray | None = None) -> np.ndarray | None:
        # the causal mask keeps each position off the right padding after it
        return make_causal_mask(n)

    def _layer_input(self, x: Tensor) -> Tensor:
        return x

    def _layer_kv(self, prefix: str, n: Tensor, enc_out: Tensor, cache) -> tuple:
        """Self- and cross-attention keys and values of one decoder layer.
        With a cache, the K/V of the position fed now join those of the
        positions before it, and the cross-attention K/V (null row included)
        are projected on the first step only."""
        p = self.params
        sa, ca = f"{prefix}.self_attn", f"{prefix}.cross_attn"
        self_kv = _kv(p, sa, n)
        if cache is None:
            return self_kv, _kv(p, ca, _with_null_row(p, ca, enc_out))
        if sa in cache:
            self_kv = tuple(T.concat([old, new], axis=1)
                            for old, new in zip(cache[sa], self_kv))
        else:
            cache[ca] = _kv(p, ca, _with_null_row(p, ca, enc_out))
        cache[sa] = self_kv
        return self_kv, cache[ca]

    def _decode_hidden(self, dec_in: Tensor, enc_out: Tensor, cache: dict | None = None,
                       lengths: np.ndarray | None = None) -> Tensor:
        # dec_in (B, Lt, d) already embedded; the flavor decides the
        # self-attention mask and what each layer adds to its input.
        # ``lengths`` (B,) marks right-padded rows, each valid up to its
        # length.  With a ``cache`` (AR greedy decoding) dec_in is only the
        # next position, which may attend every cached one, so no mask
        # applies.
        p, cfg = self.params, self.config
        allowed = None if cache is not None else self._self_attn_mask(dec_in.shape[1], lengths)
        x = dec_in
        for i in range(cfg.num_layers):
            x = self._layer_input(x)
            pre = f"decoder.layer{i}"
            n = _ln(p, f"{pre}.ln1", x)
            self_kv, cross_kv = self._layer_kv(pre, n, enc_out, cache)
            x = x + _attention(p, f"{pre}.self_attn", n, self_kv, cfg.num_heads, allowed)
            x = x + _attention(p, f"{pre}.cross_attn", _ln(p, f"{pre}.ln2", x), cross_kv,
                               cfg.num_heads)
            x = x + _ffn(p, f"{pre}.ffn", _ln(p, f"{pre}.ln3", x))
        return _ln(p, "decoder.ln", x)

    def ar_logits_batch(self, src_ids: np.ndarray, tgt_in_ids: np.ndarray,
                        enc_out: Tensor | None = None) -> Tensor:
        """Teacher-forced logits (B, Lt, V); row t conditions on tgt_in[:, :t+1]."""
        if enc_out is None:
            enc_out = self.encode_batch(src_ids)
        return self._project(self._decode_hidden(self._embed(tgt_in_ids), enc_out))

    def greedy_decode_batch(self, srcs) -> list:
        """Greedy decode many sentences; groups by source length internally.

        Output length is hard-capped at 2*T + 8; EOS is consumed, not returned.
        Each step feeds only the newest token, against cached keys and values
        of the tokens before it.  A group decodes as one fixed batch until
        every row has emitted EOS; each output is its row's tokens before
        the first EOS.
        """
        srcs = [self._check_ids(s, "source") for s in srcs]

        def decode(T_src, idxs):
            cap = min(2 * T_src + 8, self.config.max_len - 1)
            hyps = np.full((len(idxs), cap + 1), EOS_ID, dtype=np.int64)
            ended = np.zeros(len(idxs), dtype=bool)
            cache: dict = {}
            with T.no_grad():
                enc_out = self.encode_batch(np.stack([srcs[i] for i in idxs]))
                tokens = np.full((len(idxs), 1), BOS_ID, dtype=np.int64)
                for t in range(cap):
                    h = self._decode_hidden(self._embed(tokens, start=t), enc_out, cache=cache)
                    tokens = np.argmax(self._project(h).data, axis=-1)
                    hyps[:, t] = tokens[:, 0]
                    ended |= tokens[:, 0] == EOS_ID
                    if ended.all():
                        break
            return [row[: row.index(EOS_ID)] for row in hyps.tolist()]

        return map_groups([len(s) for s in srcs], decode)

    def sequence_logprob(self, src, tgt) -> tuple:
        """(sum, per-position mean) of log P(tgt + [EOS] | src): every token
        given the ones before it, then the end of the sentence."""
        total, mean = self.sequence_logprob_batch([src], [tgt])
        return float(total[0]), float(mean[0])

    def sequence_logprob_batch(self, srcs, tgts, enc_out: Tensor | None = None) -> tuple:
        """Batched scoring in one teacher-forced pass: (sums, means) over
        each row's L + 1 positions, [BOS] + tgt -> tgt + [EOS], the rows
        ``batch_loss`` trains on.  All srcs share one length; tgts may
        differ in length and are right-padded with PAD_ID, which the causal
        mask hides from every scored position.  ``enc_out`` is the encoder
        output of ``srcs``, if already known."""
        src_ids = np.stack([self._check_ids(s, "source") for s in srcs])
        tgt_in, tgt_out, lengths = _teacher_forced_rows(
            [self._check_ids(t, "target") for t in tgts])
        with T.no_grad():
            logits = self.ar_logits_batch(src_ids, tgt_in, enc_out=enc_out)
            logp = T.log_softmax(logits).data
        rows = np.take_along_axis(logp, tgt_out[:, :, None], axis=2)[:, :, 0]
        totals = np.where(np.arange(tgt_out.shape[1]) < lengths[:, None], rows, 0.0).sum(axis=1)
        return totals, totals / lengths


def _teacher_forced_rows(tgts) -> tuple:
    """(inputs, outputs, lengths) of the teacher-forced rows [BOS] + tgt ->
    tgt + [EOS] of the target sequences ``tgts``, each row L + 1 positions
    long and right-padded with PAD_ID to the longest."""
    lengths = np.array([len(t) + 1 for t in tgts])
    out = np.full((len(tgts), lengths.max()), PAD_ID, dtype=np.int64)
    for row, t in zip(out, tgts):
        row[: len(t)] = t
    out[np.arange(len(tgts)), lengths - 1] = EOS_ID
    bos = np.full((len(tgts), 1), BOS_ID, dtype=np.int64)
    return np.concatenate([bos, out[:, :-1]], axis=1), out, lengths
