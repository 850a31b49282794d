"""Strip-cutting decay experiment on linear planar models.

Discrete-time analog of the cross-section proof mechanics: iterate an
axis-aligned rectangle under a hyperbolic linear model, cut the image into
N ~ mu^k strips so each strip boundary stays below the smallness threshold
sigma, sum the per-strip right-hand sides of the main inequality, and check
that the summed bound decays geometrically at rate mu * nu^theta.

Only |dD| and |D| enter that right-hand side.  ``cut_strips`` gives the
corners of all strips as one ``(N, 4, 2)`` array, and ``measure_polygons``
measures them in one call, in closed form, with the same formulas the
family verifier uses; the strip diameter is the rectangle diagonal.  The
telescoping check integrates the form over every strip boundary and over
the whole iterate's boundary (``cut_strips(rect, 1)``) with
``polygon_boundary_integrals``, from the same corners.  The CLI passes the
grid-sampled form whose C^theta norm and family constant scale the bound,
so those integrals are exact up to rounding and take no quadrature; an
analytic form is integrated edge by edge with the adaptive driver.

Form invariance is NOT assumed; the experiment certifies the decay of the
upper bound and the telescoping identity, which is what the argument needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import (
    OneForm, measure_polygons, polygon_boundary_integrals, rectangle_corners,
)

__all__ = [
    "LinearModel",
    "SmallnessError",
    "USRectangle",
    "StripCount",
    "DecaySeries",
    "iterate_rectangle",
    "cut_strips",
    "choose_strip_count",
    "decay_bound_series",
]

OVERFLOW_EDGE = 1e12


class SmallnessError(RuntimeError):
    """Step k cut into N strips has one of boundary >= sigma (c1 too small)."""

    def __init__(self, k: int, n: int, length: float, sigma: float):
        super().__init__(f"strip failed the smallness filter at k={k}; N={n}: "
                         f"longest boundary {length!r} >= sigma={sigma!r}")
        self.k, self.n = k, n


@dataclass(frozen=True)
class LinearModel:
    """2x2 hyperbolic model with rates mu > 1 > nu > 0 (diagonal action).

    The rectangle geometry lives in the eigencoordinates, where the map is
    exactly diag(mu, nu).
    """

    mu: float
    nu: float

    def __post_init__(self):
        if not (self.mu > 1.0 > self.nu > 0.0):
            raise ValueError("need mu > 1 > nu > 0 (eigenvalues split across "
                             f"1), got mu={self.mu}, nu={self.nu}")


@dataclass(frozen=True)
class USRectangle:
    """Axis-aligned rectangle: unstable-direction base edge, stable sides."""

    corner: tuple
    u_len: float
    s_len: float

    def __post_init__(self):
        if self.u_len <= 0.0 or self.s_len <= 0.0:
            raise ValueError("edge lengths must be positive")

    @property
    def area(self) -> float:
        return self.u_len * self.s_len

    @property
    def boundary_length(self) -> float:
        return 2.0 * (self.u_len + self.s_len)


def iterate_rectangle(model: LinearModel, rect: USRectangle, k: int) -> USRectangle:
    """Apply diag(mu, nu)^k; edges scale exactly by mu^k and nu^k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    mu_k = model.mu ** k
    nu_k = model.nu ** k
    if mu_k * max(abs(rect.corner[0]) + rect.u_len, 1.0) > OVERFLOW_EDGE:
        raise OverflowError(f"iterate k={k} exceeds the overflow guard")
    return USRectangle(
        corner=(rect.corner[0] * mu_k, rect.corner[1] * nu_k),
        u_len=rect.u_len * mu_k,
        s_len=rect.s_len * nu_k,
    )


def cut_strips(rect: USRectangle, N: int) -> np.ndarray:
    """Corners of N equal strips cut along the unstable edge, ``(N, 4, 2)``.

    Strip i is ``rectangle_corners((x_i, y), (x_i + w, y + s_len))``, with
    ``x_i = x + i*w`` and ``w = u_len / N``: its corners run
    counter-clockwise from ``(x_i, y)``.  ``cut_strips(rect, 1)`` is the
    whole rectangle.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    x, y = rect.corner
    width = rect.u_len / N
    x_i = x + np.arange(N) * width
    lo = np.stack([x_i, np.full(N, y)], axis=-1)
    hi = np.stack([x_i + width, np.full(N, y + rect.s_len)], axis=-1)
    return rectangle_corners(lo, hi)


@dataclass(frozen=True)
class StripCount:
    k: int
    n0: float                # lower edge of the permitted band
    n: int | None            # chosen count; None when k is pre-asymptotic
    admissible: bool


def choose_strip_count(k: int, model: LinearModel, rect: USRectangle,
                       sigma: float, c1: float = 1.0) -> StripCount:
    """N_k = ceil(1.5 N_0(k)), the midpoint of the band (N_0, 2 N_0).

    Pre-asymptotic k (the stable term has not yet dropped below sigma/2)
    is reported as inadmissible rather than forced.
    """
    L = rect.boundary_length
    if c1 * L * model.nu ** k >= 0.5 * sigma:
        return StripCount(k, math.nan, None, False)
    n0 = 2.0 * c1 * L * model.mu ** k / sigma
    n = int(math.ceil(1.5 * n0))
    return StripCount(k, n0, n, True)


@dataclass(frozen=True)
class DecayStep:
    k: int
    n0: float
    n: int
    strip_boundary_max: float
    strip_diameter_max: float
    bound: float                 # sum over strips of K_emp cnorm rhs_shape
    lhs_sum: float               # sum of per-strip boundary integrals
    lhs_whole: float             # boundary integral of the whole iterate


@dataclass(frozen=True)
class DecaySeries:
    theta: float
    sigma: float
    c1: float
    k_emp: float
    cnorm: float
    predicted_rate: float        # mu * nu^theta
    steps: tuple
    skipped_k: tuple

    @property
    def fitted_rate(self) -> float:
        """exp(slope) of log bound vs k over the last three admissible steps."""
        tail = self.steps[-3:]
        if len(tail) < 2:
            raise ValueError("need at least two admissible steps to fit a rate")
        ks = np.array([s.k for s in tail], dtype=float)
        logs = np.log([s.bound for s in tail])
        slope = np.polyfit(ks, logs, 1)[0]
        return float(np.exp(slope))

    def consecutive_ratios(self):
        return [b.bound / a.bound for a, b in zip(self.steps, self.steps[1:])
                if b.k == a.k + 1]

    def csv_rows(self):
        rows = []
        prev = None
        for s in self.steps:
            ratio = "" if prev is None or s.k != prev.k + 1 else s.bound / prev.bound
            rows.append([s.k, s.n, s.bound, ratio, self.predicted_rate])
            prev = s
        return rows


def decay_bound_series(alpha: OneForm, model: LinearModel, rect: USRectangle,
                       theta: float, k_range, sigma: float,
                       c1: float = 1.0,
                       k_emp: float = 1.0,
                       cnorm: float = 1.0,
                       quad_tol: float = 1e-10) -> DecaySeries:
    """Run the cut-and-bound experiment over a range of iteration counts.

    ``k_emp`` and ``cnorm`` are frozen constants (the empirical inequality
    constant from a family run on the same form, and its C^theta norm);
    they scale the reported bound but not the fitted rate.

    Each strip enters the bound through ``|dD|^(1-theta) |D|^theta`` only;
    ``measure_polygons`` gives the lengths, areas and diameters of all
    strips of a step in closed form from the ``cut_strips`` corners.  A
    closed curve has ``diam <= |dD|/2``, so the smallness filter is the
    length test ``|dD| < sigma``.  The powers are taken on Python floats,
    one strip at a time, so every value is the one a per-strip loop gives.
    """
    if cnorm <= 0.0:
        raise ValueError("cnorm must be positive")
    steps = []
    skipped = []
    for k in k_range:
        sc = choose_strip_count(k, model, rect, sigma, c1)
        if not sc.admissible:
            skipped.append(k)
            continue
        rect_k = iterate_rectangle(model, rect, k)
        strips = cut_strips(rect_k, sc.n)
        length, area, diameter = measure_polygons(strips)
        if (length >= sigma).any():  # diam <= |dD|/2 < |dD|
            raise SmallnessError(k, sc.n, float(length.max()), sigma)
        rhs_shapes = [ln ** (1.0 - theta) * ar ** theta
                      for ln, ar in zip(length.tolist(), area.tolist())]
        bound = k_emp * cnorm * math.fsum(rhs_shapes)
        lhs_sum = math.fsum(polygon_boundary_integrals(alpha, strips,
                                                       quad_tol))
        (lhs_whole,) = polygon_boundary_integrals(alpha, cut_strips(rect_k, 1),
                                                  quad_tol)
        steps.append(DecayStep(
            k=k,
            n0=sc.n0,
            n=sc.n,
            strip_boundary_max=float(length.max()),
            strip_diameter_max=float(diameter.max()),
            bound=bound,
            lhs_sum=lhs_sum,
            lhs_whole=lhs_whole,
        ))
    return DecaySeries(
        theta=theta, sigma=sigma, c1=c1, k_emp=k_emp, cnorm=cnorm,
        predicted_rate=model.mu * model.nu ** theta,
        steps=tuple(steps), skipped_k=tuple(skipped),
    )
