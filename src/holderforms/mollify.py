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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
KERNEL_ORDER = 16


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
    x, w = _gl_rule(KERNEL_PANELS, KERNEL_ORDER, -1.0, 1.0)
    if n == 1:
        integral = float(np.sum(w * _bump(x * x)))
    else:
        r, wr = _gl_rule(KERNEL_PANELS, KERNEL_ORDER, 0.0, 1.0)
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


def _discrete_kernel_1d(h: float, epsilon: float) -> np.ndarray:
    m = max(int(math.ceil(epsilon / h)) - 1, 0)
    offs = np.arange(-m, m + 1) * h / epsilon
    w = _bump(offs * offs)
    return _renormalize(w)


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
    """Unit-mass sampled kernel weights for spacing ``h`` (scalar or per-axis)."""
    if n == 1:
        hs = h if np.isscalar(h) else h[0]
        return _discrete_kernel_1d(hs, epsilon)
    if n != 2:
        raise ValueError("only dimensions 1 and 2 are supported")
    h0, h1 = (h, h) if np.isscalar(h) else h
    m0 = max(int(math.ceil(epsilon / h0)) - 1, 0)
    m1 = max(int(math.ceil(epsilon / h1)) - 1, 0)
    j = np.arange(-m0, m0 + 1) * h0 / epsilon
    k = np.arange(-m1, m1 + 1) * h1 / epsilon
    r2 = j[:, None] ** 2 + k[None, :] ** 2
    return _renormalize(_bump(r2))


def mollify(u: GridField, epsilon: float) -> GridField:
    """Discrete convolution with eta_eps, renormalized to unit mass.

    Periodic axes wrap; non-periodic axes require epsilon < half the axis
    width and the output is restricted to the eps-shrunk interior.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    h = u.spacing
    ms = []
    for ax in range(u.dim):
        if not u.periodic[ax] and epsilon >= 0.5 * (u.hi[ax] - u.lo[ax]):
            raise ValueError(
                f"epsilon {epsilon} too large for non-periodic axis {ax}"
            )
        ms.append(max(int(math.ceil(epsilon / h[ax])) - 1, 0))

    if u.dim == 1:
        m = ms[0]
        w = _discrete_kernel_1d(h[0], epsilon)
        if u.periodic[0]:
            core = u.values[:-1]
            padded = np.concatenate([core[-m:] if m else core[:0], core,
                                     core[:m]])
            out = np.convolve(padded, w[::-1], mode="valid")
            out = np.concatenate([out, out[:1]])
            return GridField(u.lo, u.hi, u.resolution, u.periodic, out)
        out = np.convolve(u.values, w[::-1], mode="valid")
        lo = (u.lo[0] + m * h[0],)
        hi = (u.hi[0] - m * h[0],)
        return GridField(lo, hi, (u.resolution[0] - 2 * m,), u.periodic, out)

    # 2D: radial kernel sampled at grid offsets
    m0, m1 = ms
    w = discrete_kernel(h, epsilon, 2)

    cores = []
    out_res = []
    arr = u.values
    # periodic axes: drop the duplicate endpoint, pad with wrap
    sl = [slice(None), slice(None)]
    for ax, per in enumerate(u.periodic):
        if per:
            sl[ax] = slice(0, u.resolution[ax] - 1)
    arr = arr[tuple(sl)]
    pad = tuple((ms[ax], ms[ax]) if u.periodic[ax] else (0, 0) for ax in (0, 1))
    padded = np.pad(arr, pad, mode="wrap")
    n0 = padded.shape[0] - 2 * m0
    n1 = padded.shape[1] - 2 * m1
    out = np.zeros((n0, n1))
    for a in range(2 * m0 + 1):
        for b in range(2 * m1 + 1):
            wv = w[a, b]
            if wv == 0.0:
                continue
            out += wv * padded[a:a + n0, b:b + n1]
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
    if u.resolution == target.resolution and u.lo == target.lo:
        return u.values
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
