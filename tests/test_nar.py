"""NAR decoder: soft-copy kernel oracles, non-causality, parallel emission."""

from dataclasses import replace

import numpy as np
import pytest

from narlab import tensor as T
from narlab.nar import NARTransformer, soft_copy, soft_copy_weights
from narlab.tensor import Tensor
from narlab.transformer import ModelConfig, Transformer, param_schema

from gradcheck import grad_check


def nar_config():
    return ModelConfig(vocab_size=12, num_layers=2, num_heads=2, model_dim=16,
                       hidden_dim=32, max_len=16, flavor="NAR")


@pytest.fixture(scope="module")
def model():
    return NARTransformer(nar_config(), seed=11)


class TestSoftCopyWeights:
    def test_single_position_is_identity(self):
        w = soft_copy_weights(1, 1, Tensor(1.0)).data
        np.testing.assert_allclose(w, [[1.0]], atol=1e-15)

    def test_small_sigma_approaches_identity(self):
        w = soft_copy_weights(3, 3, Tensor(1e-6)).data
        np.testing.assert_allclose(w, np.eye(3), atol=1e-9)

    def test_pinned_t2_row(self):
        # T=2, T'=2, sigma^2=1: row 1 ~ [exp(0), exp(-1/2)] renormalized
        w = soft_copy_weights(2, 2, Tensor(1.0)).data
        np.testing.assert_allclose(w[0], [0.6225, 0.3775], atol=1e-4)

    def test_rows_positive_and_sum_to_one(self):
        w = soft_copy_weights(5, 8, Tensor(0.7)).data
        assert (w > 0).all()
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_argmax_center_nondecreasing(self):
        for T_src, T_tgt in [(5, 8), (8, 5), (6, 6), (3, 12)]:
            w = soft_copy_weights(T_src, T_tgt, Tensor(0.5)).data
            centers = w.argmax(axis=1)
            assert (np.diff(centers) >= 0).all()

    def test_endpoints_align(self):
        # 1-based indexing: last target row centers on the last source position
        w = soft_copy_weights(6, 9, Tensor(0.3)).data
        assert w[-1].argmax() == 5

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            soft_copy_weights(0, 3, Tensor(1.0))

    def test_gradients_flow_to_inputs_and_sigma(self):
        enc = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        rho = Tensor(np.array(0.3))
        res = grad_check(
            lambda e, r: (soft_copy(e, 5, T.exp(r)) * soft_copy(e, 5, T.exp(r))).sum(),
            [enc, rho],
        )
        assert res.passed, f"max rel err {res.max_err:.3e}"


class TestNarForward:
    def test_output_shape_and_simplex(self, model):
        dist = model.nar_forward([4, 5, 6], target_len=5)
        assert dist.shape == (5, model.config.vocab_size)
        np.testing.assert_allclose(dist.sum(axis=1), 1.0, atol=1e-12)
        assert (dist >= 0).all()

    def test_deterministic(self, model):
        a = model.nar_forward([4, 5, 6, 7], 4)
        b = model.nar_forward([4, 5, 6, 7], 4)
        np.testing.assert_array_equal(a, b)

    def test_target_len_bounds_enforced(self, model):
        with pytest.raises(ValueError):
            model.nar_forward([4, 5], model.config.max_len + 1)
        with pytest.raises(ValueError):
            model.nar_forward([4, 5], 0)

    def test_encoder_perturbation_touches_every_position(self, model):
        src = np.array([[4, 5, 6, 7]])
        enc = model.encode_batch(src)
        base = T.softmax(model.nar_logits_batch(src, 6, enc_out=enc)).data[0]
        bumped = Tensor(enc.data.copy())
        bumped.data[0, 1] += 0.5
        pert = T.softmax(model.nar_logits_batch(src, 6, enc_out=bumped)).data[0]
        per_row = np.abs(base - pert).max(axis=1)
        assert (per_row > 1e-12).all()

    def test_non_causal_backward_influence(self, model):
        # contrast with the AR causality test: a late decoder-input change
        # must reach earlier output positions
        src = np.array([[4, 5, 6]])
        enc = model.encode_batch(src)
        dec = soft_copy(enc, 5, model.sigma_sq)
        base = T.softmax(model.nar_logits_batch(src, 5, enc_out=enc, dec_in=dec)).data[0]
        bumped = Tensor(dec.data.copy())
        bumped.data[0, 4, 3] += 0.5  # single dim: a uniform shift would sit in LN's null space
        pert = T.softmax(
            model.nar_logits_batch(src, 5, enc_out=enc, dec_in=bumped)
        ).data[0]
        assert np.abs(base[:4] - pert[:4]).max() > 1e-10


class TestNarEmit:
    def test_length_contract(self, model):
        for tl in (1, 3, 9):
            assert len(model.nar_greedy_emit_batch([[4, 5, 6]], tl)[0]) == tl

    def test_matches_argmax_of_forward(self, model):
        src, tl = [4, 9, 11], 5
        dist = model.nar_forward(src, tl)
        assert model.nar_greedy_emit_batch([src], tl)[0] == list(dist.argmax(axis=1))

    def test_batch_matches_single(self, model):
        srcs = [[4, 5, 6], [7, 8, 9]]
        batched = model.nar_greedy_emit_batch(srcs, 4)
        assert batched == [model.nar_greedy_emit_batch([s], 4)[0] for s in srcs]


class TestParamSet:
    def test_nar_extras_only_soft_copy_and_positions(self):
        nar_cfg = nar_config()
        ar_cfg = replace(nar_cfg, flavor="AR")
        ar, nar = set(param_schema(ar_cfg)), set(param_schema(nar_cfg))
        assert nar - ar == {"soft_copy.rho", "decoder.pos_embedding"}
        assert ar - nar == set()

    def test_no_positional_self_attention_module(self, model):
        assert not any("pos_attn" in k or "positional_attention" in k
                       for k in model.params)

    def test_sigma_sq_positive_via_rho(self, model):
        model.params["soft_copy.rho"].data[()] = -3.0
        assert model.sigma_sq.item() > 0
        model.params["soft_copy.rho"].data[()] = 0.0
        assert model.sigma_sq.item() == pytest.approx(1.0)

    def test_flavor_guard(self):
        with pytest.raises(ValueError):
            NARTransformer(ModelConfig(vocab_size=12))
        with pytest.raises(ValueError):
            Transformer(nar_config())
