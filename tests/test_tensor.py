"""Numeric core: forward oracles, backward vs finite differences, shape policing."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narlab import tensor as T
from narlab.tensor import ShapeError, Tensor
from narlab.transformer import make_causal_mask

import oracles
from gradcheck import grad_check


def rand(shape, seed, scale=1.0, offset=0.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale + offset)


def layer_norm(x):
    """Layer norm alone: the affine one with gain 1 and bias 0."""
    d = x.shape[-1]
    return T.affine_layer_norm(x, Tensor(np.ones(d)), Tensor(np.zeros(d)))


def key_padding(lengths, n):
    return (np.arange(n) < np.asarray(lengths)[:, None])[:, None, None, :]


class TestForwardOracles:
    def test_softmax_pinned_values(self):
        # independently computed: e^k / (e^1 + e^2 + e^3)
        out = T.softmax(Tensor([1.0, 2.0, 3.0])).data
        np.testing.assert_allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-5)

    def test_softmax_rows_sum_to_one(self):
        x = rand((4, 7), seed=0, scale=5.0)
        s = T.softmax(x).data.sum(axis=-1)
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        x = rand((3, 5), seed=1)
        a = T.softmax(x).data
        b = T.softmax(Tensor(x.data + 1000.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_extreme_logits_no_overflow(self):
        out = T.softmax(Tensor([1e4, 0.0, -1e4])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0], 1.0, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        x = rand((2, 6), seed=2, scale=3.0)
        np.testing.assert_allclose(
            T.log_softmax(x).data, np.log(T.softmax(x).data), atol=1e-12
        )

    def test_layer_norm_moments(self):
        x = rand((5, 16), seed=3, scale=4.0, offset=2.0)
        out = layer_norm(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-8)

    def test_layer_norm_constant_row_is_finite(self):
        out = layer_norm(Tensor(np.full((2, 8), 3.0))).data
        assert np.isfinite(out).all()

    def test_matmul_matches_numpy(self):
        a, b = rand((3, 4), seed=4), rand((4, 5), seed=5)
        np.testing.assert_allclose(T.matmul(a, b).data, a.data @ b.data, atol=1e-12)

    def test_batched_matmul_matches_numpy(self):
        a, b = rand((2, 3, 4), seed=6), rand((2, 4, 5), seed=7)
        np.testing.assert_allclose(T.matmul(a, b).data, a.data @ b.data, atol=1e-12)

    def test_gather_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.gather_rows(table, [[0, 3], [1, 1]])
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out.data[0, 1], [9.0, 10.0, 11.0])

    def test_gather_rows_rejects_out_of_range(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(IndexError):
            T.gather_rows(table, [4])
        with pytest.raises(IndexError):
            T.gather_rows(table, [-1])


class TestShapePolicing:
    def test_elementwise_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))
        assert "(2, 3)" in str(exc.value) and "(3, 2)" in str(exc.value)

    def test_concat_rejects_mismatched_off_axis_dims(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)
        with pytest.raises(ValueError):
            T.concat([])

    def test_suffix_broadcast_allowed(self):
        out = Tensor(np.zeros((2, 3, 4))) + Tensor(np.ones(4))
        assert out.shape == (2, 3, 4)

    def test_leading_broadcast_rejected(self):
        # (2, 1) against (2, 3) is numpy-legal but outside the suffix rule
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 1))) + Tensor(np.zeros((2, 3)))

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeError) as exc:
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)

    def test_matmul_batch_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))

    def test_backward_rejects_nonscalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            T.backward(x * x)

    def test_linear_shapes(self):
        x, W = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5)))
        with pytest.raises(ShapeError):
            T.linear(x, W, Tensor(np.zeros(4)))
        with pytest.raises(ShapeError):
            T.linear(x, Tensor(np.zeros((3, 5))), Tensor(np.zeros(5)))

    def test_affine_layer_norm_shapes(self):
        with pytest.raises(ShapeError):
            T.affine_layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)),
                                Tensor(np.zeros(3)))

    def test_attention_core_shapes(self):
        q, kv = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 5, 4)))
        with pytest.raises(ShapeError):
            T.attention_core(q, kv, Tensor(np.zeros((2, 5, 6))), 2)
        with pytest.raises(ShapeError):
            T.attention_core(q, kv, kv, 3)
        with pytest.raises(ShapeError):
            T.attention_core(q, kv, kv, 2, np.ones((4, 5), dtype=bool))


class TestBackwardAnalytic:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_grad(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        T.backward((x * x).sum())
        np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0], atol=1e-12)

    def test_grad_accumulates_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        T.backward((x + x).sum())
        np.testing.assert_allclose(x.grad, [2.0])

    def test_zero_grad_resets(self):
        x = Tensor([1.0], requires_grad=True)
        T.backward((x * x).sum())
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = (x * x).sum()
        assert y.node is None and not y.requires_grad

    def test_constant_inputs_get_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([3.0])
        T.backward((x * c).sum())
        assert c.grad is None

    def test_diamond_graph(self):
        # y = x*x + x*x: two paths must both contribute
        x = Tensor([3.0], requires_grad=True)
        s = x * x
        T.backward((s + s).sum())
        np.testing.assert_allclose(x.grad, [12.0], atol=1e-12)

    def test_transposed_grad_is_stored_in_c_order(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        w = np.arange(6.0).reshape(3, 2)
        T.backward((T.transpose(x) * Tensor(w)).sum())
        assert x.grad.flags.c_contiguous
        np.testing.assert_array_equal(x.grad, w.T)

    def test_contiguous_split_grad_is_stored_without_copy(self):
        a = Tensor(np.zeros((1, 2, 3)), requires_grad=True)
        b = Tensor(np.zeros((1, 4, 3)), requires_grad=True)
        w = np.arange(18.0).reshape(1, 6, 3)
        joined = T.concat([a, b], axis=1)
        T.backward((joined * Tensor(w)).sum())
        # both are views of the concatenation's gradient
        assert all(np.shares_memory(t.grad, joined.grad) for t in (a, b))
        np.testing.assert_array_equal(a.grad, w[:, :2])
        np.testing.assert_array_equal(b.grad, w[:, 2:])

    def test_broadcast_grad_is_stored_writeable(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        T.backward(x.sum())
        assert x.grad.flags.writeable
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_zero_d_grads_stay_arrays(self):
        # numpy arithmetic on 0-d arrays returns numpy scalars; the first
        # store, the accumulation over reuse and a repeated backward all
        # keep ndarrays
        x = Tensor(0.5, requires_grad=True)
        loss = T.exp(x) * x
        T.backward(loss)
        np.testing.assert_allclose(x.grad, 1.5 * np.exp(0.5), rtol=1e-15)
        T.backward(loss)
        assert isinstance(x.grad, np.ndarray) and isinstance(loss.grad, np.ndarray)
        assert x.grad.shape == loss.grad.shape == ()


class TestBackwardFiniteDiff:
    """Every primitive's backward against central differences."""

    def check(self, f, shapes, seed, scale=1.0, offset=0.0):
        inputs = [rand(s, seed=seed + i, scale=scale, offset=offset) for i, s in enumerate(shapes)]
        res = grad_check(f, inputs)
        assert res.passed, f"max rel err {res.max_err:.3e}"

    def test_add(self):
        self.check(lambda a, b: (a + b).sum(), [(3, 4), (3, 4)], seed=10)

    def test_add_suffix_broadcast(self):
        self.check(lambda a, b: ((a + b) * (a + b)).sum(), [(2, 3, 4), (4,)], seed=11)

    def test_multiply(self):
        self.check(lambda a, b: (a * b).sum(), [(3, 4), (3, 4)], seed=13)

    def test_multiply_scalar_broadcast(self):
        self.check(lambda a, b: (a * b).sum(), [(3, 4), ()], seed=14)

    def test_divide(self):
        self.check(lambda a, b: (a / b).sum(), [(3, 4), (3, 4)], seed=15, offset=3.0)

    def test_exp(self):
        self.check(lambda x: T.exp(x).sum(), [(3, 4)], seed=16)

    def test_relu(self):
        # keep points away from the kink
        x = rand((3, 4), seed=19)
        x.data[np.abs(x.data) < 0.05] += 0.1
        res = grad_check(lambda t: T.relu(t).sum(), [x])
        assert res.passed, f"max rel err {res.max_err:.3e}"

    def test_matmul(self):
        self.check(lambda a, b: T.matmul(a, b).sum(), [(3, 4), (4, 2)], seed=20)

    def test_matmul_batched(self):
        self.check(lambda a, b: T.matmul(a, b).sum(), [(2, 3, 4), (2, 4, 2)], seed=21)

    def test_matmul_broadcast_rhs(self):
        self.check(lambda a, b: T.matmul(a, b).sum(), [(2, 3, 4), (4, 2)], seed=22)

    def test_softmax(self):
        self.check(lambda x: (T.softmax(x) * T.softmax(x)).sum(), [(2, 5)], seed=23)

    def test_log_softmax(self):
        w = Tensor(np.random.default_rng(24).standard_normal((2, 5)))
        self.check(lambda x: (T.log_softmax(x) * w).sum(), [(2, 5)], seed=24)

    def test_affine_layer_norm_unit_affine(self):
        w = Tensor(np.random.default_rng(25).standard_normal((3, 8)))
        self.check(lambda x: (layer_norm(x) * w).sum(), [(3, 8)], seed=25, scale=2.0)

    def test_affine_layer_norm(self):
        w = Tensor(np.random.default_rng(29).standard_normal((2, 3, 8)))
        self.check(lambda x, gain, bias: (T.affine_layer_norm(x, gain, bias) * w).sum(),
                   [(2, 3, 8), (8,), (8,)], seed=29, scale=2.0)

    def test_linear(self):
        # a 3-d input through a 2-d weight, as every model projection is
        self.check(lambda x, W, b: (T.linear(x, W, b) * T.linear(x, W, b)).sum(),
                   [(2, 3, 4), (4, 5), (5,)], seed=30)

    def test_transpose(self):
        w = Tensor(np.random.default_rng(26).standard_normal((6, 2)))
        self.check(lambda x: (T.transpose(x) * w).sum(), [(2, 6)], seed=26)

    def test_reduce_sum_axis(self):
        self.check(lambda x: (x.sum(axis=1) * x.sum(axis=1)).sum(), [(3, 4)], seed=28)

    def test_gather_rows(self):
        ids = np.array([[0, 2], [2, 1]])
        self.check(lambda t: (T.gather_rows(t, ids) * T.gather_rows(t, ids)).sum(),
                   [(4, 3)], seed=32)

    def test_concat_axis0(self):
        self.check(lambda a, b: (T.concat([a, b]) * T.concat([a, b])).sum(),
                   [(2, 3), (4, 3)], seed=34)

    def test_concat_axis1(self):
        self.check(lambda a, b: T.exp(T.concat([a, b], axis=1)).sum(),
                   [(2, 3), (2, 5)], seed=35)

    @pytest.mark.parametrize("Lq, Lk, allowed", [
        (3, 3, None),
        (3, 3, make_causal_mask(3)),
        (3, 4, key_padding([4, 2], 4)),
        (1, 4, None),
        (1, 4, key_padding([3, 4], 4)),
    ], ids=["unmasked", "causal", "key-padding", "one-query", "one-query-key-padding"])
    def test_attention_core(self, Lq, Lk, allowed):
        w = Tensor(np.random.default_rng(36).standard_normal((2, Lq, 4)))
        self.check(lambda q, k, v: (T.attention_core(q, k, v, 2, allowed) * w).sum(),
                   [(2, Lq, 4), (2, Lk, 4), (2, Lk, 4)], seed=36)

    def test_composite_mlp(self):
        # small end-to-end chain touching most primitives at once
        def f(x, w1, w2):
            h = T.exp(T.matmul(x, w1))
            return T.log_softmax(T.matmul(layer_norm(h), w2)).sum()

        self.check(f, [(2, 3), (3, 5), (5, 4)], seed=33)


class TestHypothesisInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_softmax_simplex(self, xs):
        p = T.softmax(Tensor(xs)).data
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 10))
    def test_layer_norm_unit_variance(self, seed, d):
        x = np.random.default_rng(seed).standard_normal(d) * 3.0 + 1.0
        out = layer_norm(Tensor(x)).data
        assert abs(out.mean()) < 1e-9
        # the layer norm adds LN_EPS to the variance, so the output variance
        # is var / (var + eps) rather than exactly 1
        assert abs(out.var() - x.var() / (x.var() + T.LN_EPS)) < 1e-8


def _fused_grads(op, arrays, g, *args):
    """Output and input gradients of fused ``op`` for output gradient ``g``;
    the output must not depend on whether the graph is recorded."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*inputs, *args)
    T.backward((out * Tensor(g)).sum())
    with T.no_grad():
        np.testing.assert_array_equal(op(*map(Tensor, arrays), *args).data, out.data)
    return out.data, [t.grad for t in inputs]


class TestFusedOpsMatchChains:
    """Each fused op gives exactly the bits of the primitive chain it
    replaces, forward and backward (chains in tests/oracles.py)."""

    def assert_same(self, fused, chain):
        out, grads = fused
        ref_out, ref_grads = chain
        np.testing.assert_array_equal(out, ref_out)
        assert len(grads) == len(ref_grads)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_array_equal(got, want)

    # (3, 7, 16) pins numpy's broadcasting matmul for rows longer than one
    # position; (2, 1, 16) checks the flattened one-position product
    @pytest.mark.parametrize("x_shape", [(5, 16), (3, 7, 16), (2, 1, 16)])
    def test_linear(self, x_shape):
        rng = np.random.default_rng(40)
        x, W, b = rng.standard_normal(x_shape), rng.standard_normal((16, 24)), rng.standard_normal(24)
        g = rng.standard_normal(x_shape[:-1] + (24,))
        self.assert_same(_fused_grads(T.linear, [x, W, b], g), oracles.linear_chain(x, W, b, g))

    @pytest.mark.parametrize("x_shape", [(12,), (5, 12), (3, 7, 12)])
    def test_affine_layer_norm(self, x_shape):
        rng = np.random.default_rng(41)
        x = rng.standard_normal(x_shape) * 3.0 + 1.0
        gain, bias, g = rng.standard_normal(12), rng.standard_normal(12), rng.standard_normal(x_shape)
        self.assert_same(_fused_grads(T.affine_layer_norm, [x, gain, bias], g),
                         oracles.affine_layer_norm_chain(x, gain, bias, g))

    @pytest.mark.parametrize("B, Lq, Lk, allowed", [
        (3, 6, 6, None),
        (3, 6, 6, make_causal_mask(6)),
        (3, 5, 8, key_padding([8, 3, 6], 8)),
        (4, 1, 7, None),
    ], ids=["unmasked", "causal", "key-padding", "one-query"])
    def test_attention_core(self, B, Lq, Lk, allowed):
        rng = np.random.default_rng(42)
        q = rng.standard_normal((B, Lq, 16))
        k, v = rng.standard_normal((B, Lk, 16)), rng.standard_normal((B, Lk, 16))
        g = rng.standard_normal((B, Lq, 16))
        self.assert_same(_fused_grads(T.attention_core, [q, k, v], g, 4, allowed),
                         oracles.attention_chain(q, k, v, 4, allowed, g))


@pytest.mark.parametrize("x_shape, d_out", [((200, 1, 64), 256), ((200, 1, 256), 64),
                                            ((1, 1, 64), 64)])
def test_linear_one_position_near_broadcasting_matmul(x_shape, d_out):
    """Over rows of one position ``linear`` runs one GEMM, not numpy's
    broadcasting matmul (a gemv per row); the two stay within 1e-12
    relative of each other."""
    rng = np.random.default_rng(43)
    x, W = rng.standard_normal(x_shape), rng.standard_normal((x_shape[-1], d_out))
    b = rng.standard_normal(d_out)
    with T.no_grad():
        got = T.linear(Tensor(x), Tensor(W), Tensor(b)).data
    want = np.matmul(x, W) + b
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_every_op_has_a_finite_difference_test():
    """A public op of narlab.tensor lands with a test_<op>[_case] method in
    TestBackwardFiniteDiff."""
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and fn.__module__ == T.__name__
           and not name.startswith("_")} - {"no_grad", "backward"}
    tests = [name for name in vars(TestBackwardFiniteDiff) if name.startswith("test_")]
    untested = sorted(op for op in ops
                      if not any(t == f"test_{op}" or t.startswith(f"test_{op}_") for t in tests))
    assert "attention_core" in ops and not untested, f"no finite-difference test: {untested}"
