"""Strip-cutting decay experiment on linear planar models.

Discrete-time analog of the cross-section proof mechanics: iterate an
axis-aligned rectangle under a hyperbolic linear model, cut the image into
N ~ mu^k strips so each strip boundary stays below the smallness threshold
sigma, sum the per-strip right-hand sides of the main inequality, and check
that the summed bound decays geometrically at rate mu * nu^theta.

Only |dD| and |D| enter that right-hand side.  ``_strip_corners`` gives
the corners of a run of strips of an iterate as one ``(N, 4, 2)`` array, and
``measure_polygons`` measures strips in closed form, with the same formulas
the family verifier uses.
The telescoping check integrates the form over every strip boundary and
over the whole iterate's boundary (the iterate cut into one strip) with
``polygon_boundary_integrals``, from the same corners.  ``decay_bound_series``
feeds the strips of all its steps to both in batches of at most
``STRIP_CHUNK``, so a step of any size costs bounded memory and many small
steps share one call.  The form is grid-sampled, as
``polygon_boundary_integrals`` requires (the CLI passes the one whose
C^theta norm scales the bound), so those integrals are exact up to
rounding and take no quadrature.

A step's bound is the main inequality's bound ``c_theta_constant(theta)
cnorm |dS|^(1-theta) |S|^theta`` summed over its strips S: the
mollification split's bound at its best eps, so it is at least
``sum_S |int_dS alpha|`` when ``cnorm`` bounds the C^theta norm of alpha.

Form invariance is NOT assumed; the experiment certifies the decay of the
upper bound and the telescoping identity, which is what the argument needs.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .chains import (
    measure_polygons, polygon_boundary_integrals, rectangle_corners,
)
from .experiments import least_squares_slope
from .inequality import c_theta_constant

__all__ = [
    "DecayRangeError",
    "LinearModel",
    "SmallnessError",
    "USRectangle",
    "StripCount",
    "DecaySeries",
    "iterate_rectangle",
    "choose_strip_count",
    "decay_bound_series",
]

OVERFLOW_EDGE = 1e12
STRIP_CHUNK = 1 << 14    # strips per measure_polygons / integrals call


class SmallnessError(RuntimeError):
    """Step k cut into N strips has one of boundary >= sigma (c1 too small)."""

    def __init__(self, k: int, n: int, length: float, sigma: float):
        super().__init__(f"strip failed the smallness filter at k={k}; N={n}: "
                         f"longest boundary {length!r} >= sigma={sigma!r}")
        self.k, self.n = k, n


class DecayRangeError(OverflowError):
    """The k range reaches past what a run can hold: a step k that cannot
    be planned (a negative k, a power of a rate that overflows, an iterate
    beyond the ``OVERFLOW_EDGE`` guard), or more strips than memory
    holds."""


class LinearModel:
    """2x2 hyperbolic model with rates mu > 1 > nu > 0 (diagonal action).

    The rectangle geometry lives in the eigencoordinates, where the map is
    exactly diag(mu, nu).
    """

    def __init__(self, mu: float, nu: float):
        if not (mu > 1.0 > nu > 0.0):
            raise ValueError("need mu > 1 > nu > 0 (eigenvalues split across "
                             f"1), got mu={mu}, nu={nu}")
        self.mu, self.nu = mu, nu


class USRectangle:
    """Axis-aligned rectangle: unstable-direction base edge, stable sides."""

    def __init__(self, corner: tuple, u_len: float, s_len: float):
        if u_len <= 0.0 or s_len <= 0.0:
            raise ValueError("edge lengths must be positive")
        self.corner, self.u_len, self.s_len = corner, u_len, s_len

    @property
    def boundary_length(self) -> float:
        return 2.0 * (self.u_len + self.s_len)


def iterate_rectangle(model: LinearModel, rect: USRectangle, k: int) -> USRectangle:
    """Apply diag(mu, nu)^k; edges scale exactly by mu^k and nu^k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    mu_k = model.mu ** k
    nu_k = model.nu ** k
    reach = mu_k * max(abs(rect.corner[0]) + rect.u_len, 1.0)
    if reach > OVERFLOW_EDGE:
        raise DecayRangeError(
            f"iterate k={k} at mu={model.mu!r} reaches x = {reach:.3g}, "
            f"beyond the overflow guard {OVERFLOW_EDGE:g}")
    return USRectangle(
        corner=(rect.corner[0] * mu_k, rect.corner[1] * nu_k),
        u_len=rect.u_len * mu_k,
        s_len=rect.s_len * nu_k,
    )


def _strip_corners(rect: USRectangle, N: int, start: int,
                   stop: int) -> np.ndarray:
    """Corners of strips ``start`` to ``stop - 1`` of N equal strips cut
    along the unstable edge, ``(stop - start, 4, 2)``.

    Strip i is ``rectangle_corners((x_i, y), (x_i + w, y + s_len))``, with
    ``x_i = x + i*w`` and ``w = u_len / N``: its corners run
    counter-clockwise from ``(x_i, y)``.  One strip of one is the whole
    rectangle.
    """
    x, y = rect.corner
    width = rect.u_len / N
    x_i = x + np.arange(start, stop) * width
    lo = np.stack([x_i, np.full(len(x_i), y)], axis=-1)
    hi = np.stack([x_i + width, np.full(len(x_i), y + rect.s_len)], axis=-1)
    return rectangle_corners(lo, hi)


def _batches(cuts):
    """The ``n`` strips of ``rect`` for each ``(rect, n)`` of
    ``cuts``, one cut after another, in batches of at most ``STRIP_CHUNK``
    strips: pairs of the index of a batch's first strip and its corners."""
    starts = [0, *accumulate(n for _, n in cuts)]
    for first in range(0, starts[-1], STRIP_CHUNK):
        stop = first + STRIP_CHUNK
        parts = [_strip_corners(rect, n, max(first - s, 0), min(stop - s, n))
                 for (rect, n), s in zip(cuts, starts)
                 if s < stop and s + n > first]
        yield first, parts[0] if len(parts) == 1 else np.concatenate(parts)


class StripCount(NamedTuple):
    k: int
    n0: float                # lower edge of the permitted band
    n: int | None            # chosen count; None when k is pre-asymptotic


def choose_strip_count(k: int, model: LinearModel, rect: USRectangle,
                       sigma: float, c1: float = 1.0) -> StripCount:
    """N_k = ceil(1.5 N_0(k)), the midpoint of the band (N_0, 2 N_0).

    Pre-asymptotic k (the stable term has not yet dropped below sigma/2)
    is reported as inadmissible, with no count, rather than forced.
    """
    L = rect.boundary_length
    if c1 * L * model.nu ** k >= 0.5 * sigma:
        return StripCount(k, math.nan, None)
    n0 = 2.0 * c1 * L * model.mu ** k / sigma
    return StripCount(k, n0, int(math.ceil(1.5 * n0)))


class DecayStep(NamedTuple):
    k: int
    n0: float
    n: int
    strip_boundary_max: float
    bound: float                 # c_theta cnorm times the sum of rhs_shape
    lhs_sum: float               # sum of per-strip boundary integrals
    lhs_whole: float             # boundary integral of the whole iterate


class DecaySeries(NamedTuple):
    predicted_rate: float        # mu * nu^theta
    steps: tuple
    skipped_k: tuple

    @property
    def fitted_rate(self) -> float:
        """exp(slope) of log bound vs k over the last three admissible steps."""
        tail = self.steps[-3:]
        if len(tail) < 2:
            raise ValueError("need at least two admissible steps to fit a rate")
        return math.exp(least_squares_slope([s.k for s in tail],
                                            [math.log(s.bound) for s in tail]))

    def csv_rows(self):
        rows = []
        prev = None
        for s in self.steps:
            ratio = "" if prev is None or s.k != prev.k + 1 else s.bound / prev.bound
            rows.append([s.k, s.n, s.bound, ratio, self.predicted_rate])
            prev = s
        return rows


def decay_bound_series(alpha: tuple, model: LinearModel, rect: USRectangle,
                       theta: float, k_range, sigma: float,
                       c1: float = 1.0,
                       cnorm: float = 1.0) -> DecaySeries:
    """Run the cut-and-bound experiment over a range of iteration counts.

    A step's ``bound`` is ``c_theta_constant(theta) cnorm`` times the sum
    over its strips D of ``|dD|^(1-theta) |D|^theta``, an upper bound for
    ``sum |int_dD alpha|`` when ``cnorm`` bounds the C^theta norm of
    ``alpha`` (see the module docstring).  The constant factor scales the
    bound but not the fitted rate.

    Each strip enters the bound through ``|dD|^(1-theta) |D|^theta`` only;
    ``measure_polygons`` gives the lengths and areas of the strips in
    closed form, and the smallness filter is the length test
    ``|dD| < sigma`` of ``inequality.verify_main_inequality``.

    The run plans every admissible step first, then measures the strips of
    all steps, in k order, in batches of at most ``STRIP_CHUNK`` strips,
    and applies the smallness filter step by step before it takes any
    integral.  It then integrates over the strips and the whole iterates
    in batches of the same size.  A step that cannot be planned (a negative
    k, a rate power or an iterate that overflows) raises
    ``DecayRangeError`` naming k after the smallness filter of the steps
    before it, so errors come in k order.  The batch boundaries cannot
    move any value: every per-polygon sum runs over that polygon's own
    vertices or edges only, ``lhs_sum`` is a ``math.fsum``, and the powers
    are taken on Python floats, one strip at a time, so every field is the
    one a per-step, per-strip loop gives, bit for bit.
    """
    if cnorm <= 0.0:
        raise ValueError("cnorm must be positive")
    plan, skipped, failed = [], [], None
    for k in k_range:
        try:
            sc = choose_strip_count(k, model, rect, sigma, c1)
            if sc.n is None:
                skipped.append(k)
                continue
            rect_k = iterate_rectangle(model, rect, k)
            if sc.n < 1:
                raise ValueError("N must be >= 1")
        except (OverflowError, ValueError) as exc:
            failed = k, exc
            break
        plan.append((sc, rect_k))
    cuts = [(rect_k, sc.n) for sc, rect_k in plan]
    spans = [slice(stop - n, stop)
             for (_, n), stop in zip(cuts, accumulate(n for _, n in cuts))]
    total = spans[-1].stop if spans else 0
    # allocated before any batch, so a run too large to hold fails at once
    try:
        measures = np.empty((2, total))  # length and area per strip
        lhs = np.empty(total + len(plan))  # each strip, then each iterate
    except MemoryError as exc:
        raise DecayRangeError(
            f"k = {plan[0][0].k}..{plan[-1][0].k} plans {total} strips, "
            f"too many to hold in memory") from exc
    for first, corners in _batches(cuts):
        measures[:, first:first + len(corners)] = measure_polygons(
            corners)[:2]
    length, area = measures
    for (sc, _), span in zip(plan, spans):
        if (length[span] >= sigma).any():
            raise SmallnessError(sc.k, sc.n, float(length[span].max()), sigma)
    if failed is not None:
        k, exc = failed
        if isinstance(exc, DecayRangeError):
            raise exc
        raise DecayRangeError(
            f"step k={k} at mu={model.mu!r}, nu={model.nu!r} cannot be "
            f"planned: {type(exc).__name__}: {exc}") from exc
    for first, corners in _batches(cuts + [(r, 1) for _, r in plan]):
        lhs[first:first + len(corners)] = polygon_boundary_integrals(
            alpha, corners)
    steps, length_power = [], 1.0 - theta
    scale = c_theta_constant(theta) * cnorm
    for j, ((sc, _), span) in enumerate(zip(plan, spans)):
        rhs_shapes = [ln ** length_power * ar ** theta
                      for ln, ar in zip(length[span].tolist(),
                                        area[span].tolist())]
        steps.append(DecayStep(
            k=sc.k,
            n0=sc.n0,
            n=sc.n,
            strip_boundary_max=float(length[span].max()),
            bound=scale * math.fsum(rhs_shapes),
            lhs_sum=math.fsum(lhs[span].tolist()),
            lhs_whole=float(lhs[total + j]),
        ))
    return DecaySeries(
        predicted_rate=model.mu * model.nu ** theta,
        steps=tuple(steps), skipped_k=tuple(skipped),
    )
