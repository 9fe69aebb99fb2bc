"""The checker itself: passes a correct gradient, flags a corrupted one."""

import numpy as np
import pytest

from narlab import tensor as T
from narlab.tensor import Tensor

from gradcheck import grad_check


def test_passes_on_correct_gradient():
    x = Tensor(np.random.default_rng(0).standard_normal((2, 3)))
    res = grad_check(lambda t: (t * t).sum(), [x])
    assert res.passed
    assert res.max_err <= 1e-4


def test_detects_wrong_gradient():
    # an op whose backward is off by a factor of two
    def bad_square(x):
        return T._make(x.data * x.data, (x,), lambda g: (g * x.data,))

    x = Tensor(np.array([1.5, -2.0, 3.0]))
    res = grad_check(lambda t: bad_square(t).sum(), [x])
    assert not res.passed
    assert res.max_err > 1e-2


def test_reports_worst_coordinate():
    def bad_at_zero(x):
        def back(g):
            g = g.copy()
            g[0] += 1.0
            return (g,)

        return T._make(x.data, (x,), back)

    x = Tensor(np.array([0.5, 0.25, 0.75]))
    res = grad_check(lambda t: bad_at_zero(t).sum(), [x])
    assert not res.passed
    assert res.entries[0].worst_coord == (0,)


def test_reports_raw_error_below_floor():
    # an error below ABS_FLOOR counts as exact agreement in max_err; the raw
    # largest |g - fd| is still reported
    def nudged(x):
        return T._make(x.data.copy(), (x,), lambda g: (g + 5e-8,))

    x = Tensor(np.array([0.5, 0.25]))
    res = grad_check(lambda t: nudged(t).sum(), [x])
    assert res.passed and res.max_err == 0.0
    assert res.max_abs_err == pytest.approx(5e-8, rel=1e-2)


def test_multiple_inputs_reported_separately():
    a = Tensor(np.array([1.0, 2.0]))
    b = Tensor(np.array([3.0, 4.0]))
    res = grad_check(lambda x, y: (x * y).sum(), [a, b])
    assert res.passed
    assert [e.index for e in res.entries] == [0, 1]


def test_rejects_nonscalar_loss():
    x = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        grad_check(lambda t: t * t, [x])


def test_unused_input_counts_as_zero_grad():
    a = Tensor(np.array([1.0]))
    b = Tensor(np.array([2.0]))
    res = grad_check(lambda x, y: (x * x).sum(), [a, b])
    assert res.passed


def test_relu_kink_inside_step_is_refined():
    # 3e-6 from the kink, within h = 1e-5: the h-step difference reads 0.65
    # where relu's slope is 1; the h / 100 step recovers it
    x = Tensor(np.array([3e-6, 0.5, -0.5]))
    res = grad_check(lambda t: T.relu(t).sum(), [x])
    assert res.passed
    assert res.refined == 1


def test_refinement_keeps_wrong_gradient_failing():
    def doubled_relu(x):
        keep = x.data > 0.0
        return T._make(np.where(keep, x.data, 0.0), (x,), lambda g: (2.0 * g * keep,))

    # the refined difference at the kink point still disagrees with 2
    x = Tensor(np.array([3e-6]))
    res = grad_check(lambda t: doubled_relu(t).sum(), [x])
    assert not res.passed and res.refined == 1
    assert res.entries[0].numeric == pytest.approx(1.0, rel=1e-6)
