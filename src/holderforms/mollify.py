"""Standard-mollifier regularization with quantitative bounds.

The kernel is eta(x) = A * exp(1/(|x|^2 - 1)) on the open unit ball, zero
outside, with A fixed by unit mass.  Discrete convolution uses the kernel
sampled on the grid and renormalized to *exactly* unit discrete mass, so the
sup bound sup|u_eps| <= sup|u| holds exactly at any resolution (each output
is a convex combination of samples).  The analytic A also gives the kernel
constant ||d eta||_L1 in closed form: eta is unimodal along every coordinate
line (it decreases in |x|^2), so the line integral of |d_i eta| is twice its
peak value at x_i = 0.

Non-periodic axes are restricted rather than padded: the output lives on the
eps-shrunk interior.

One kernel builder and one convolution serve every dimension: a y spacing
of at least eps gives a one-column kernel equal to the 1-D one bit for bit,
and one ``np.einsum`` contracts a window view of the wrap-padded samples
with the weights (no copy, no BLAS, one thread).  Its summation order is
not that of ``np.convolve`` or of a sum over taps, so it agrees with them
to rounding (1.8e-14 relative on the CLI derivative bound), not bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .chains import _centered_diff, _gl_rule
from .grids import GridField, HolderEstimate, holder_seminorm

__all__ = [
    "RegularizationReport",
    "normalization_constant",
    "eta",
    "deta_l1",
    "discrete_kernel",
    "discrete_kernel_mass",
    "mollify",
    "grad_supnorm",
    "verify_regularization",
]

QUAD_TOL = 1e-8  # declared tolerance on kernel-mass quadrature
KERNEL_PANELS = 120  # composite GL rule for the kernel mass


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


def eta(x, n: int) -> np.ndarray:
    """Standard mollifier in R^n; x is (...,) in 1D or (..., 2) in 2D."""
    A = normalization_constant(n)
    x = np.asarray(x, dtype=float)
    r2 = x * x if n == 1 else np.sum(x * x, axis=-1)
    return A * _bump(r2)


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


def discrete_kernel_mass(w: np.ndarray) -> float:
    return math.fsum(np.ravel(w))


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

    Periodic axes wrap; non-periodic axes require epsilon < half the axis
    width and the output is restricted to the eps-shrunk interior.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    for ax in range(u.dim):
        if not u.periodic[ax] and epsilon >= 0.5 * (u.hi[ax] - u.lo[ax]):
            raise ValueError(
                f"epsilon {epsilon} too large for non-periodic axis {ax}"
            )
    h = u.spacing
    w = discrete_kernel(h, epsilon, u.dim)
    ms = [s // 2 for s in w.shape]
    # periodic axes: drop the duplicate endpoint, pad with wrap
    core = u.values[tuple(slice(0, -1) if per else slice(None)
                          for per in u.periodic)]
    padded = np.pad(core, [(m, m) if per else (0, 0)
                           for m, per in zip(ms, u.periodic)], mode="wrap")
    # every window against w at once: the window view is not copied
    taps = "ab"[:u.dim]
    out = np.einsum(f"...{taps},{taps}->...",
                    sliding_window_view(padded, w.shape), w)
    lo, hi, res = list(u.lo), list(u.hi), list(u.resolution)
    for ax, per in enumerate(u.periodic):
        if per:
            # re-append the duplicate periodic endpoint
            edge = np.take(out, [0], axis=ax)
            out = np.concatenate([out, edge], axis=ax)
        else:
            lo[ax] += ms[ax] * h[ax]
            hi[ax] -= ms[ax] * h[ax]
            res[ax] -= 2 * ms[ax]
    return GridField(tuple(lo), tuple(hi), tuple(res), u.periodic, out)


def grad_supnorm(u: GridField) -> float:
    """Max |centered difference| over axes, interior nodes (wrap if periodic)."""
    best = 0.0
    for ax in range(u.dim):
        d = _centered_diff(u.values, ax, u.spacing[ax], u.periodic[ax])
        if not u.periodic[ax]:
            # drop the one-sided edge values
            d = np.take(d, range(1, u.resolution[ax] - 1), axis=ax)
        best = max(best, float(np.max(np.abs(d))))
    return best


@dataclass(frozen=True)
class RegularizationReport:
    """Measured-vs-bound record for the sup, approximation and derivative bounds."""

    epsilon: float
    sup_u: float
    measured_b: float        # sup|u_eps|
    measured_c: float        # sup|u_eps - u|
    bound_c: float           # cnorm * eps^theta
    measured_d: float        # sup|d u_eps| (centered differences)
    bound_d: float           # ||d eta||_L1 * cnorm * eps^(theta-1)
    slack: float

    @property
    def pass_b(self) -> bool:
        return self.measured_b <= self.sup_u

    @property
    def pass_c(self) -> bool:
        return self.measured_c <= self.bound_c * self.slack

    @property
    def pass_d(self) -> bool:
        return self.measured_d <= self.bound_d * self.slack

    def csv_row(self):
        return [self.epsilon, self.measured_c, self.bound_c,
                self.measured_d, self.bound_d, self.pass_c, self.pass_d]


def _restrict_to(u: GridField, target: GridField) -> np.ndarray:
    """Values of u at the nodes of target (target grid is a sub-grid of u)."""
    idx = []
    for ax in range(u.dim):
        h = u.spacing[ax]
        start = int(round((target.lo[ax] - u.lo[ax]) / h))
        idx.append(slice(start, start + target.resolution[ax]))
    return u.values[tuple(idx)]


def verify_regularization(
    u: GridField,
    theta: float,
    epsilons,
    slack: float = 1.05,
    norm: HolderEstimate | None = None,
):
    """Check the sup, approximation and derivative bounds for each epsilon."""
    if norm is None:
        norm = holder_seminorm(u, theta)
    cn = norm.cnorm
    dl1 = deta_l1(u.dim)
    reports = []
    for eps in epsilons:
        ue = mollify(u, eps)
        uv = _restrict_to(u, ue)
        measured_b = ue.supnorm()
        measured_c = float(np.max(np.abs(ue.values - uv)))
        measured_d = grad_supnorm(ue)
        reports.append(RegularizationReport(
            epsilon=float(eps),
            sup_u=u.supnorm(),
            measured_b=measured_b,
            measured_c=measured_c,
            bound_c=cn * eps ** theta,
            measured_d=measured_d,
            bound_d=dl1 * cn * eps ** (theta - 1.0),
            slack=slack,
        ))
    return reports
