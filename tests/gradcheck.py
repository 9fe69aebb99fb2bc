"""Gradient verification against central finite differences.

The backward pass and the finite-difference route share no code, so
agreement between them is evidence both are right.  Used by the test
suite on every primitive and on full model losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from narlab.tensor import Tensor, backward, no_grad

ABS_FLOOR = 1e-7  # |g - fd| at or below this counts as exact agreement


@dataclass
class GradCheckEntry:
    """Comparison outcome for one input tensor."""

    index: int
    max_err: float
    worst_coord: tuple
    analytic: float
    numeric: float


@dataclass
class GradCheckResult:
    passed: bool
    max_err: float
    entries: list[GradCheckEntry] = field(default_factory=list)
    max_abs_err: float = 0.0  # largest raw |g - fd|, before ABS_FLOOR applies
    refined: int = 0  # coordinates whose difference took the step h / 100


def _rel_err(g: np.ndarray, fd: np.ndarray) -> np.ndarray:
    diff = np.abs(g - fd)
    denom = np.maximum(np.abs(g), np.abs(fd))
    err = np.where(diff <= ABS_FLOOR, 0.0, diff / np.maximum(denom, ABS_FLOOR))
    return err


def grad_check(f, inputs, h: float = 1e-5, tol: float = 1e-4) -> GradCheckResult:
    """Compare analytic gradients of scalar ``f(*inputs)`` with central differences.

    Args:
        f: callable mapping the input tensors to a scalar Tensor loss.
        inputs: list of Tensors to differentiate with respect to; each is
            set to require gradients for the check.
        h: central-difference step.
        tol: per-element relative error bound for a pass.

    Every element of every input is perturbed, so keep inputs small.  A
    coordinate that fails at ``h`` is differenced again at ``h / 100``; the
    smaller step takes its place only where the two steps disagree beyond
    ``tol``, i.e. where the loss is not smooth within ``h`` (a ReLU input
    inside the step).  A wrong backward still fails: both steps then agree
    with each other and not with it.
    """
    inputs = list(inputs)
    for t in inputs:
        t.requires_grad = True
        t.zero_grad()

    loss = f(*inputs)
    if loss.shape != ():
        raise ValueError(f"grad_check needs a scalar loss, got shape {loss.shape}")
    backward(loss)

    entries: list[GradCheckEntry] = []
    overall = raw = 0.0
    refined = 0
    for k, t in enumerate(inputs):
        g = np.zeros(t.shape, dtype=np.float64) if t.grad is None else np.asarray(t.grad)
        fd = np.zeros(t.shape, dtype=np.float64)
        flat = t.data.reshape(-1)
        fd_flat = fd.reshape(-1)

        def central(i, step):
            orig = flat[i]
            flat[i] = orig + step
            up = f(*inputs).item()
            flat[i] = orig - step
            down = f(*inputs).item()
            flat[i] = orig
            return (up - down) / (2.0 * step)

        with no_grad():
            for i in range(flat.size):
                fd_flat[i] = central(i, h)
            for i in np.flatnonzero(_rel_err(g, fd) > tol):
                fine = central(i, h / 100.0)
                if _rel_err(fine, fd_flat[i]) > tol:
                    fd_flat[i] = fine
                    refined += 1
        err = _rel_err(g, fd)
        if err.size == 0:
            entries.append(GradCheckEntry(k, 0.0, (), 0.0, 0.0))
            continue
        worst = np.unravel_index(int(np.argmax(err)), err.shape) if err.ndim else ()
        entries.append(
            GradCheckEntry(
                index=k,
                max_err=float(err.max()),
                worst_coord=tuple(int(i) for i in worst),
                analytic=float(g[worst]) if err.ndim else float(g),
                numeric=float(fd[worst]) if err.ndim else float(fd),
            )
        )
        overall = max(overall, float(err.max()))
        raw = max(raw, float(np.abs(g - fd).max()))

    return GradCheckResult(passed=overall <= tol, max_err=overall, entries=entries,
                           max_abs_err=raw, refined=refined)
