"""Transformer core: shape contracts, determinism, causality, decode/scoring."""

import math

import numpy as np
import pytest

from narlab import tensor as T
from narlab.tensor import Tensor
from narlab.transformer import (
    ModelConfig,
    Transformer,
    init_params,
    make_causal_mask,
    param_schema,
)
from narlab.util import rng_for
from narlab.vocab import BOS_ID, EOS_ID


def tiny_config(**kw):
    base = dict(vocab_size=12, num_layers=2, num_heads=2, model_dim=16,
                hidden_dim=32, max_len=16)
    base.update(kw)
    return ModelConfig(**base)


class UntiedHead(Transformer):
    """A model whose output projection is a table of its own, not the
    embedding, so a test can shape the logits without moving the inputs.
    Unless given, the table is drawn as ``init_params`` draws an embedding,
    from the stream of the name ``output_proj``."""

    def __init__(self, config, params=None, seed=0, head=None):
        super().__init__(config, params, seed)
        if head is None:
            rng = rng_for(seed, "init", "output_proj")
            head = Tensor(rng.standard_normal((config.vocab_size, config.model_dim))
                          / math.sqrt(config.model_dim))
        self.head = head

    def _project(self, hidden):
        return T.matmul(hidden, T.transpose(self.head))


@pytest.fixture(scope="module")
def model():
    return Transformer(tiny_config(), seed=7)


class TestConfig:
    def test_desk_defaults(self):
        cfg = ModelConfig(vocab_size=36)
        assert (cfg.num_layers, cfg.num_heads, cfg.model_dim, cfg.hidden_dim) == (2, 4, 64, 256)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=12, model_dim=30, num_heads=4)

    def test_vocab_must_exceed_reserved(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=4)

    def test_bad_flavor(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=12, flavor="XX")


class TestParams:
    def test_schema_matches_init(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        assert set(params) == set(param_schema(cfg))
        for name, shape in param_schema(cfg).items():
            assert params[name].shape == tuple(shape)

    def test_init_deterministic(self):
        a = init_params(tiny_config(), seed=3)
        b = init_params(tiny_config(), seed=3)
        for name in a:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_embedding_shape(self):
        cfg = tiny_config()
        assert init_params(cfg, 0)["embedding"].shape == (cfg.vocab_size, cfg.model_dim)

    def test_mismatched_params_rejected(self):
        cfg = tiny_config()
        params = init_params(cfg, 0)
        params.pop("embedding")
        with pytest.raises(ValueError):
            Transformer(cfg, params)


def encode(model, src):
    """Encoder output for one sentence: (T, model_dim)."""
    with T.no_grad():
        return model.encode_batch(np.array([src])).data[0]


def next_token_logprobs(model, src, prefix):
    """log P(. | prefix, src) from one teacher-forced pass over the whole
    BOS-initial ``prefix``: its last row of logits."""
    with T.no_grad():
        logits = model.ar_logits_batch(np.array([src]), np.array([prefix])).data[0, -1]
    z = logits - logits.max()
    return z - np.log(np.exp(z).sum())


class TestEncode:
    def test_row_count_equals_source_length(self, model):
        for T_src in (1, 3, 7):
            out = encode(model, list(range(4, 4 + T_src)))
            assert out.shape == (T_src, model.config.model_dim)

    def test_deterministic(self, model):
        np.testing.assert_array_equal(encode(model, [5, 6, 7]), encode(model, [5, 6, 7]))

    def test_token_permutation_changes_output(self, model):
        a = encode(model, [5, 6, 7])
        b = encode(model, [6, 5, 7])
        assert np.abs(a - b).max() > 1e-8

    def test_empty_source_rejected(self, model):
        with pytest.raises(ValueError, match="empty"):
            model.greedy_decode_batch([[]])

    def test_out_of_range_token_rejected(self, model):
        with pytest.raises(ValueError, match="out of range"):
            model.greedy_decode_batch([[5, 99]])


class TestDecodeStep:
    def test_distribution_contract(self, model):
        p = np.exp(next_token_logprobs(model, [4, 5, 6], [BOS_ID, 5]))
        assert p.shape == (model.config.vocab_size,)
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_zero_output_layer_gives_uniform(self):
        m = Transformer(tiny_config(), seed=2)
        m.params["embedding"].data[:] = 0.0  # tied: output logits collapse to 0
        logp = next_token_logprobs(m, [4, 5], [BOS_ID])
        np.testing.assert_allclose(np.exp(logp), 1.0 / m.config.vocab_size, atol=1e-12)


class TestGreedyDecode:
    def test_deterministic(self, model):
        src = [4, 9, 11, 5]
        assert model.greedy_decode_batch([src]) == model.greedy_decode_batch([src])

    def test_cap_respected(self, model):
        src = [4, 5, 6]
        assert len(model.greedy_decode_batch([src])[0]) <= 2 * len(src) + 8

    def test_always_eos_model_emits_empty(self):
        m = UntiedHead(tiny_config(), seed=1)
        for name, p in m.params.items():
            p.data[:] = 1.0 if name.endswith(".gain") else 0.0
        m.head.data[:] = 0.0
        # align the EOS output row with the actual first-step hidden state
        src = [5, 6]
        enc = encode(m, src)
        h = m._decode_hidden(m._embed(np.array([[BOS_ID]])), Tensor(enc[None]))
        m.head.data[EOS_ID] = h.data[0, -1]
        assert m.greedy_decode_batch([src]) == [[]]

    def test_batch_matches_single(self, model):
        srcs = [[4, 5, 6], [7, 8], [9, 10, 11], [4, 4]]
        batched = model.greedy_decode_batch(srcs)
        singles = [model.greedy_decode_batch([s])[0] for s in srcs]
        assert batched == singles

    def test_large_group_matches_each_source_alone(self):
        # 32 same-length sources decode as one group: every cached step
        # projects all (B, 1, d) rows with one GEMM per weight, rows that
        # ended at different steps included
        m = Transformer(ModelConfig(vocab_size=36), seed=4)  # desk-size shapes
        m.params["embedding"].data[EOS_ID] *= 3.0  # the (tied) EOS logit
        rng = np.random.default_rng(1)
        srcs = [[int(t) for t in rng.integers(4, 36, size=6)] for _ in range(32)]
        batched = m.greedy_decode_batch(srcs)
        assert len({len(o) for o in batched}) >= 5
        assert batched == [m.greedy_decode_batch([s])[0] for s in srcs]

    def test_no_eos_in_output(self, model):
        (out,) = model.greedy_decode_batch([[4, 5, 6, 7]])
        assert EOS_ID not in out


class TestSequenceLogprob:
    def test_nonpositive(self, model):
        total, mean = model.sequence_logprob([4, 5, 6], [7, 8])
        assert total <= 0.0 and mean <= 0.0
        assert mean == pytest.approx(total / 3)

    def test_single_token_matches_step(self, model):
        src, tgt = [4, 5, 6], [9]
        total, _ = model.sequence_logprob(src, tgt)
        logp = next_token_logprobs(model, src, [BOS_ID])
        logp_end = next_token_logprobs(model, src, [BOS_ID, tgt[0]])
        assert total == pytest.approx(logp[tgt[0]] + logp_end[EOS_ID], abs=1e-9)

    def test_matches_stepwise_sum(self, model):
        src, tgt = [4, 5, 6], [7, 10, 4, 8]
        total, mean = model.sequence_logprob(src, tgt)
        prefix, acc = [BOS_ID], 0.0
        for tok in tgt + [EOS_ID]:
            acc += next_token_logprobs(model, src, prefix)[tok]
            prefix.append(tok)
        assert total == pytest.approx(acc, abs=1e-9)
        assert mean == pytest.approx(acc / (len(tgt) + 1), abs=1e-9)

    def test_empty_target_rejected(self, model):
        with pytest.raises(ValueError, match="empty"):
            model.sequence_logprob([4, 5], [])

    def test_batch_matches_single(self, model):
        srcs = [[4, 5, 6], [7, 8, 9]]
        tgts = [[10, 11], [4, 7]]
        totals = model.sequence_logprob_batch(srcs, tgts)
        for i in range(2):
            t, _ = model.sequence_logprob(srcs[i], tgts[i])
            assert totals[i] == pytest.approx(t, abs=1e-9)


class TestCausality:
    def test_causal_mask_shape_and_content(self):
        m = make_causal_mask(4)
        assert m.dtype == bool
        expected = np.array([[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]], bool)
        np.testing.assert_array_equal(m, expected)

    def test_future_perturbation_never_leaks_backward(self, model):
        src = np.array([[4, 5, 6]])
        tgt_a = [7, 8, 9, 10]
        j = 2
        tgt_b = list(tgt_a)
        tgt_b[j] = 11
        def logits(tgt):
            tgt_in = np.array([[BOS_ID] + tgt])
            return model.ar_logits_batch(src, tgt_in).data[0]
        la, lb = logits(tgt_a), logits(tgt_b)
        # rows 0..j condition only on tokens before position j
        np.testing.assert_allclose(la[: j + 1], lb[: j + 1], atol=1e-12)
        assert np.abs(la[j + 1] - lb[j + 1]).max() > 1e-8


class StepRecorder(UntiedHead):
    """Keeps the logits of every greedy decoding step, in batch order."""

    def __init__(self, config, params, head):
        super().__init__(config, params, head=head)
        self.steps = []

    def _project(self, hidden):
        logits = super()._project(hidden)
        self.steps.append(logits.data[:, 0, :].copy())
        return logits


def eos_prone_model():
    """A random model whose EOS output row is scaled up so that, on
    ``staggered_sources``, rows end at different steps (some at the cap)."""
    m = UntiedHead(tiny_config(max_len=32), seed=2)
    m.head.data[EOS_ID] *= 1.5
    return m


def staggered_sources():
    rng = np.random.default_rng(0)
    return [[int(t) for t in rng.integers(4, 12, size=4)] for _ in range(8)]


def teacher_forced_inconsistent(model, srcs, outs) -> list:
    """Rows whose output is not what argmax over full-prefix teacher-forced
    logits gives: every token the argmax on [BOS] + output, then EOS the
    argmax unless the output reached the 2T + 8 cap."""
    bad = []
    for b, (src, out) in enumerate(zip(srcs, outs)):
        logits = model.ar_logits_batch(np.array([src]), np.array([[BOS_ID] + out])).data[0]
        wanted = out + ([EOS_ID] if len(out) < 2 * len(src) + 8 else [])
        rows = logits[: len(wanted)]
        if np.any(rows.max(axis=-1) - rows[np.arange(len(wanted)), wanted] > 1e-9):
            bad.append(b)
    return bad


class TestIncrementalDecode:
    def test_cached_logits_match_teacher_forced_every_step(self):
        m = eos_prone_model()
        rec = StepRecorder(m.config, m.params, m.head)
        srcs = staggered_sources()
        outs = rec.greedy_decode_batch(srcs)
        cap = 2 * 4 + 8
        lengths = [len(o) for o in outs]
        assert len(set(lengths)) >= 3 and cap in lengths  # rows end at different steps
        assert len(rec.steps) == cap
        refs = [m.ar_logits_batch(np.array([s]), np.array([[BOS_ID] + o])).data[0]
                for s, o in zip(srcs, outs)]
        for t, step in enumerate(rec.steps):
            # the group stays whole: every step carries all 8 rows, and a
            # row is checked up to the step that emits its EOS
            assert step.shape == (len(srcs), m.config.vocab_size)
            for b in range(len(srcs)):
                if t <= lengths[b]:
                    assert np.abs(step[b] - refs[b][t]).max() <= 1e-10

    def test_outputs_pass_teacher_forced_check(self):
        m = eos_prone_model()
        srcs = staggered_sources()
        outs = m.greedy_decode_batch(srcs)
        assert teacher_forced_inconsistent(m, srcs, outs) == []
        # the check itself rejects a greedy output with its last token changed
        b = next(i for i, o in enumerate(outs) if o)
        wrong = list(outs[b])
        wrong[-1] = 4 if wrong[-1] != 4 else 5
        assert teacher_forced_inconsistent(m, [srcs[b]], [wrong]) == [0]

    def test_never_eos_model_stops_at_cap(self):
        m = UntiedHead(tiny_config(max_len=32), seed=3)
        # a large shared offset on every logit but EOS's: EOS never wins
        m.params["decoder.ln.bias"].data[0] = 100.0
        m.head.data[:, 0] = 1.0
        m.head.data[EOS_ID, 0] = 0.0
        srcs = [[4, 5, 6], [7, 8, 9]]
        outs = m.greedy_decode_batch(srcs)
        assert [len(o) for o in outs] == [2 * 3 + 8] * 2
        assert teacher_forced_inconsistent(m, srcs, outs) == []


class TestEmbedOffset:
    def test_offset_embedding_matches_full_slice(self, model):
        ids = np.array([[4, 5, 6, 7, 8]])
        full = model._embed(ids).data
        np.testing.assert_array_equal(model._embed(ids[:, 2:4], start=2).data,
                                      full[:, 2:4])

    def test_offset_past_max_len_rejected(self, model):
        L = model.config.max_len
        model._embed(np.array([[4, 5]]), start=L - 2)
        with pytest.raises(ValueError, match="max_len"):
            model._embed(np.array([[4, 5]]), start=L - 1)
