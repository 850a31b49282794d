"""Standard-mollifier regularization with quantitative bounds.

The kernel is eta(x) = A * exp(1/(|x|^2 - 1)) on the open unit ball, zero
outside, with A fixed by unit mass: a composite 16-point Gauss-Legendre
rule of ``KERNEL_PANELS`` panels integrates the bump once per dimension,
from a literal table of the rule, so no run computes its nodes.  Discrete
convolution uses the kernel sampled on the grid and renormalized to
*exactly* unit discrete mass, so the sup bound sup|u_eps| <= sup|u| holds
exactly at any resolution (each output is a convex combination of
samples).  The analytic A also gives the kernel constant ||d eta||_L1 in
closed form: eta is unimodal along every coordinate line (it decreases in
|x|^2), so the line integral of |d_i eta| is twice its peak value at
x_i = 0.

Every field lives on a flat torus, so the convolution wraps on every axis
and the mollified field lives on the same grid as its input.

One kernel builder and one convolution serve every dimension: a y spacing
of at least eps gives a one-column kernel equal to the 1-D one bit for bit,
and one ``np.einsum`` contracts a window view of the wrap-padded samples
with the weights (no copy, no BLAS, one thread).  Its summation order is
not that of ``np.convolve`` or of a sum over taps, so it agrees with them
to rounding (1.8e-14 relative on the CLI derivative bound), not bitwise.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import GridField, holder_seminorm

__all__ = [
    "RegularizationReport",
    "normalization_constant",
    "deta_l1",
    "discrete_kernel",
    "mollify",
    "grad_supnorm",
    "verify_regularization",
]

KERNEL_PANELS = 120  # composite GL rule for the kernel mass

# the factor by which a measured approximation or derivative error may
# exceed its bound and still pass
BOUND_SLACK = 1.05

# The 16-point Gauss-Legendre rule on [-1, 1]: its positive nodes and their
# weights, as ``numpy.polynomial.legendre.leggauss(16)`` gives them.  The
# rule is symmetric, so the table is mirrored into ascending order.
_GL_POSITIVE_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499,
)
_GL_POSITIVE_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176,
)
_GL_NODES = np.array([-x for x in reversed(_GL_POSITIVE_NODES)]
                     + list(_GL_POSITIVE_NODES))
_GL_WEIGHTS = np.array(list(reversed(_GL_POSITIVE_WEIGHTS))
                       + list(_GL_POSITIVE_WEIGHTS))


def _gl_rule(panels: int, a: float, b: float):
    """Composite 16-point Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _GL_NODES, _GL_WEIGHTS
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _bump(r2: np.ndarray) -> np.ndarray:
    """exp(1/(r^2-1)) on r^2 < 1, zero outside (unnormalized kernel)."""
    r2 = np.asarray(r2, dtype=float)
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 / (r2[inside] - 1.0))
    return out


@lru_cache(maxsize=None)
def normalization_constant(n: int) -> float:
    """A = 1 / integral of exp(1/(|x|^2-1)) over the unit ball in R^n."""
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    x, w = _gl_rule(KERNEL_PANELS, -1.0, 1.0)
    if n == 1:
        integral = float(np.sum(w * _bump(x * x)))
    else:
        r, wr = _gl_rule(KERNEL_PANELS, 0.0, 1.0)
        integral = float(2.0 * np.pi * np.sum(wr * _bump(r * r) * r))
    return 1.0 / integral


def deta_l1(n: int) -> float:
    """max_i of integral |d eta/dx_i| over R^n, in closed form.

    Along each line parallel to the x_i axis, eta rises to its value at
    x_i = 0 and then falls (it is a decreasing function of |x|^2), so the
    line integral of |d eta/dx_i| is 2 eta(x_i = 0).  In 1-D that is
    2 A_1 e^-1; in 2-D, integrating 2 A_2 exp(1/(x_j^2 - 1)) over x_j gives
    2 A_2 / A_1, the same for both i by symmetry.
    """
    a = normalization_constant(n)
    return 2.0 * a * (math.exp(-1.0) if n == 1
                      else 1.0 / normalization_constant(1))


def _half_width(h: float, epsilon: float) -> int:
    """Kernel taps on each side of the centre: offsets j*h with |j*h| < eps."""
    return max(int(math.ceil(epsilon / h)) - 1, 0)


def _renormalize(w: np.ndarray) -> np.ndarray:
    """Scale weights to exactly unit mass (fsum-checked center correction)."""
    w = w / w.sum()
    center = w.size // 2
    flat = w.ravel()
    for _ in range(8):
        total = math.fsum(flat)
        if total == 1.0:
            break
        flat[center] += 1.0 - total
    return w


def discrete_kernel(h, epsilon: float, n: int) -> np.ndarray:
    """Unit-mass sampled kernel weights for spacing ``h`` (scalar or per-axis).

    The weights are ``eta`` at the grid offsets ``j*h`` with ``|j*h| < eps``
    on each axis, shape ``(2*m + 1,)`` per axis, renormalized to unit mass.
    """
    if n not in (1, 2):
        raise ValueError("only dimensions 1 and 2 are supported")
    hs = (h,) * n if np.isscalar(h) else h[:n]
    ms = [_half_width(h_ax, epsilon) for h_ax in hs]
    offs = [np.arange(-m, m + 1) * h_ax / epsilon for m, h_ax in zip(ms, hs)]
    r2 = sum(o * o for o in np.ix_(*offs))
    return _renormalize(_bump(r2))


def mollify(u: GridField, epsilon: float) -> GridField:
    """Discrete convolution with eta_eps, renormalized to unit mass.

    Every axis wraps, so the output lives on the grid of ``u``.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    w = discrete_kernel(u.spacing, epsilon, u.dim)
    # drop the duplicate endpoints, pad with wrap
    padded = np.pad(u.values[(slice(0, -1),) * u.dim],
                    [(s // 2, s // 2) for s in w.shape], mode="wrap")
    # every window against w at once: the window view is not copied
    taps = "ab"[:u.dim]
    out = np.einsum(f"...{taps},{taps}->...",
                    sliding_window_view(padded, w.shape), w)
    for ax in range(u.dim):
        # re-append the duplicate endpoint
        out = np.concatenate([out, np.take(out, [0], axis=ax)], axis=ax)
    return GridField(u.lo, u.hi, u.resolution, out)


def _centered_diff(values: np.ndarray, ax: int, h: float):
    """Centred difference along ``ax``, wrapping round the torus; the
    duplicate endpoint gets the value at the first node."""
    n = values.shape[ax]
    core = np.take(values, range(n - 1), axis=ax)
    d = (np.roll(core, -1, axis=ax) - np.roll(core, 1, axis=ax)) / (2 * h)
    edge = np.take(d, [0], axis=ax)
    return np.concatenate([d, edge], axis=ax)


def grad_supnorm(u: GridField) -> float:
    """Max |centered difference| over axes and nodes, wrapping every axis."""
    best = 0.0
    for ax in range(u.dim):
        d = _centered_diff(u.values, ax, u.spacing[ax])
        best = max(best, float(np.max(np.abs(d))))
    return best


class RegularizationReport(NamedTuple):
    """Measured-vs-bound record for the sup, approximation and derivative bounds."""

    epsilon: float
    sup_u: float
    measured_b: float        # sup|u_eps|
    measured_c: float        # sup|u_eps - u|
    bound_c: float           # cnorm * eps^theta
    measured_d: float        # sup|d u_eps| (centered differences)
    bound_d: float           # ||d eta||_L1 * cnorm * eps^(theta-1)

    @property
    def pass_b(self) -> bool:
        return self.measured_b <= self.sup_u

    @property
    def pass_c(self) -> bool:
        return self.measured_c <= self.bound_c * BOUND_SLACK

    @property
    def pass_d(self) -> bool:
        return self.measured_d <= self.bound_d * BOUND_SLACK

    def csv_row(self):
        return [self.epsilon, self.measured_c, self.bound_c,
                self.measured_d, self.bound_d, self.pass_c, self.pass_d]


def verify_regularization(u: GridField, theta: float, epsilons):
    """Check the sup, approximation and derivative bounds for each epsilon.

    The bounds scale with ``holder_seminorm(u, theta).cnorm``, computed once,
    as is ``sup|u|``.
    """
    cn = holder_seminorm(u, theta).cnorm
    sup_u = u.supnorm()
    dl1 = deta_l1(u.dim)
    reports = []
    for eps in epsilons:
        ue = mollify(u, eps)
        measured_b = ue.supnorm()
        measured_c = float(np.max(np.abs(ue.values - u.values)))
        measured_d = grad_supnorm(ue)
        reports.append(RegularizationReport(
            epsilon=float(eps),
            sup_u=sup_u,
            measured_b=measured_b,
            measured_c=measured_c,
            bound_c=cn * eps ** theta,
            measured_d=measured_d,
            bound_d=dl1 * cn * eps ** (theta - 1.0),
        ))
    return reports
