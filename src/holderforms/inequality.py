"""Boundary-integral inequality machinery for Holder one-forms on small disks.

Covers the mollification-split estimate and the theta-dependent constant
its two bounds give in closed form, the flat planar isoperimetric
inequality, and the end-to-end family verifier, which reports the supremum
ratio over the family as an empirical constant.

The constant is constructive: for every eps the mollification split bounds
``|int_dD alpha|`` by ``cnorm (|dD| eps^theta + ||d eta||_L1 |D|
eps^(theta-1))`` (``SplitCheck.bound_boundary + bound_interior``), whose
exact minimum over eps is ``c_theta_constant(theta) cnorm |dD|^(1-theta)
|D|^theta``.  ``decay`` sums that bound over its strips; the family
verifier reports its ratio and does not yet assert it against the
constant.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from .grids import holder_seminorm
from .mollify import deta_l1, mollify
from .chains import (
    Term,
    measure_polygons,
    polygon_boundary_integrals,
    rectangle_corners,
)

__all__ = [
    "InequalityReport",
    "SplitCheck",
    "IsoperimetricReport",
    "theta_bracket",
    "c_theta_constant",
    "eps_star",
    "isoperimetric_check",
    "one_form_cnorm",
    "mollify_one_form",
    "mollification_split_check",
    "verify_main_inequality",
]

# a disk with |dD|^(1-theta) |D|^theta = 0 has ratio 0 if its boundary
# integral is at most this, and an infinite one otherwise
DEGENERATE_LHS = 1e-8

# the planar isoperimetric constant C_2 = 1/(4 pi): |D| <= C_2 |dD|^2
ISOPERIMETRIC_CONSTANT = 1.0 / (4.0 * math.pi)


def theta_bracket(theta: float) -> float:
    """((1-t)/t)^t + (t/(1-t))^(1-t); equals 2 at t = 1/2, >= 1 on (0,1)."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be strictly inside (0,1)")
    r = (1.0 - theta) / theta
    return r ** theta + (1.0 / r) ** (1.0 - theta)


def c_theta_constant(theta: float) -> float:
    """``D1^theta theta_bracket(theta)``, with ``D1 = deta_l1(2)``: the
    exact minimum over eps of the split bound in units of
    ``cnorm |dD|^(1-theta) |D|^theta``.

    With ``L = |dD|`` and ``A = |D|`` the split's two bounds sum to
    ``cnorm f(eps)``, ``f(eps) = L eps^theta + D1 A eps^(theta-1)``
    (``SplitCheck.bound_boundary + bound_interior``).  ``f`` is convex in
    ``log eps``, and ``f'(eps) = 0`` at ``eps = D1 e``, ``e = eps_star(A,
    L, theta) = r A / L``, ``r = (1-theta)/theta``.  There ``f = D1^theta
    (L e^theta + A e^(theta-1)) = D1^theta L^(1-theta) A^theta (r^theta +
    r^(theta-1))``, and the last factor is ``theta_bracket(theta)``.
    """
    return deta_l1(2) ** theta * theta_bracket(theta)


def eps_star(area: float, length: float, theta: float) -> float:
    """``(1-theta)|D| / (theta |dD|)``.  The split bound's minimizer is
    ``deta_l1(2)`` times this (see :func:`c_theta_constant`)."""
    if length <= 0.0:
        raise ValueError("boundary length must be positive")
    return (1.0 - theta) * area / (theta * length)


class IsoperimetricReport(NamedTuple):
    length: float
    area: float
    bound: float        # C_2 * length^2
    holds: bool
    equality_gap: float  # bound - area


def isoperimetric_check(length: float, area: float) -> IsoperimetricReport:
    """Flat planar check |D| <= |dD|^2 / (4 pi), to an absolute 1e-9."""
    bound = ISOPERIMETRIC_CONSTANT * length * length
    return IsoperimetricReport(length, area, bound,
                               area <= bound + 1e-9, bound - area)


def one_form_cnorm(alpha, theta: float) -> float:
    """The larger over i = 1, 2 of ``sum |c_i| cnorm(w)`` over the terms
    ``w (c . dp)`` of ``alpha``: a bound for the C^theta norm of component
    ``sum c_i w``, with ``cnorm(w) = holder_seminorm(w, theta).cnorm``
    (see ``grids.HolderEstimate``).  The empty form raises ``ValueError``.
    """
    if not alpha:
        raise ValueError("the empty form has no C^theta norm")
    norms = [holder_seminorm(term.field, theta).cnorm for term in alpha]
    return max(sum(abs(term.covector[i]) * cn
                   for term, cn in zip(alpha, norms)) for i in (0, 1))


def mollify_one_form(alpha, epsilon: float) -> tuple:
    return tuple(Term(mollify(term.field, epsilon), term.covector)
                 for term in alpha)


class SplitCheck:
    """The subtract-and-add estimate, instantiated and measured.

    Every term is exact to rounding.  ``interior`` is the interior term
    with its sign, ``int_D d alpha_eps``, and ``term_interior`` its
    absolute value.

    ``cnorm``, ``one_form_cnorm(alpha, theta)``, is computed the first
    time it or a bound is read, and at most once, so a caller that reads
    only the terms and ``chain_holds`` runs no Holder seminorm.  The bounds
    take their exponent from ``theta``.  That norm is an upper bound, so
    the bound checks compare each term with its bound itself.
    """

    def __init__(self, epsilon: float, theta: float, lhs: float,
                 term_boundary: float, interior: float, length: float,
                 area: float, alpha_eps: tuple, alpha: tuple):
        self.epsilon = epsilon
        self.theta = theta
        self.lhs = lhs                      # |int_dD alpha|
        self.term_boundary = term_boundary  # |int_dD (alpha - alpha_eps)|
        self.interior = interior            # int_D d alpha_eps
        self.length = length                # |dD|
        self.area = area                    # |D|
        # the mollified form the terms were measured on, and the form whose
        # C^theta norm scales the bounds
        self.alpha_eps = alpha_eps
        self.alpha = alpha

    @cached_property
    def cnorm(self) -> float:
        return one_form_cnorm(self.alpha, self.theta)

    @property
    def term_interior(self) -> float:
        """|int_D d alpha_eps|"""
        return abs(self.interior)

    @property
    def bound_boundary(self) -> float:
        """|dD| cnorm eps^theta"""
        return self.length * self.cnorm * self.epsilon ** self.theta

    @property
    def bound_interior(self) -> float:
        """|D| ||d eta||_L1 cnorm eps^(theta-1)"""
        return (self.area * deta_l1(2) * self.cnorm
                * self.epsilon ** (self.theta - 1.0))

    @property
    def chain_holds(self) -> bool:
        """``lhs <= term_boundary + term_interior``, to one ulp of ``lhs``.

        With ``a = int_dD alpha`` and ``b = int_dD alpha_eps`` the terms are
        ``|a|``, ``fl(|a - b|)`` and ``|b|``.  Rounding is monotone, so the
        sum ``fl(fl(|a - b|) + |b|)`` is at least ``|a|`` when a and b
        differ in sign (``|a - b| = |a| + |b|``), when ``|b| >= |a|`` (the
        sum is at least ``|b|``), and when ``|a|/2 <= |b| < |a|`` (the
        subtraction is exact by Sterbenz's lemma, and the sum is ``|a|``).
        In the remaining case, a and b of one sign and ``|b| < |a|/2``, the
        chain is an equality in real numbers, and ``fl(a - b)`` may lose
        half an ulp of ``|a|``; the sum is then at least the float just
        below ``|a|``, at most ``math.ulp(lhs)`` away.  That one ulp is the
        whole allowance: it covers rounding, and nothing else.
        """
        return (self.lhs
                <= self.term_boundary + self.term_interior
                + math.ulp(self.lhs))

    @property
    def boundary_bound_holds(self) -> bool:
        return self.term_boundary <= self.bound_boundary

    @property
    def interior_bound_holds(self) -> bool:
        return self.term_interior <= self.bound_interior


def mollification_split_check(alpha, lo, hi, epsilon: float,
                              theta: float) -> SplitCheck:
    """The split of ``int_dD alpha`` on the rectangle ``D = [lo, hi]``.

    All three terms come from two exact ``polygon_boundary_integrals`` on
    the rectangle, ``I(alpha)`` and ``I(alpha_eps)``.  The interpolant of
    ``alpha_eps`` is Lipschitz, so Stokes' theorem gives the interior term
    ``int_D d alpha_eps = I(alpha_eps)``, and interpolation is linear in
    the samples, so ``int_dD (alpha - alpha_eps) = I(alpha) - I(alpha_eps)``.
    The C^theta norm of ``alpha`` that scales the bounds, at ``theta``,
    is computed when the check's ``cnorm`` or a bound is first read (see
    :class:`SplitCheck`).
    """
    alpha_eps = mollify_one_form(alpha, epsilon)
    corners = [rectangle_corners(lo, hi)]
    (whole,) = polygon_boundary_integrals(alpha, corners)
    (interior,) = polygon_boundary_integrals(alpha_eps, corners)
    length, area, _ = (float(m[0]) for m in measure_polygons(corners))
    return SplitCheck(
        epsilon=epsilon,
        theta=theta,
        lhs=abs(whole),
        term_boundary=abs(whole - interior),
        interior=interior,
        length=length,
        area=area,
        alpha_eps=alpha_eps,
        alpha=alpha,
    )


class InequalityReport(NamedTuple):
    """Per-disk comparison |int_dD alpha| vs cnorm |dD|^(1-theta) |D|^theta."""

    disk_id: str
    length: float       # |dD|
    area: float         # |D|
    diameter: float
    lhs: float
    rhs_shape: float
    ratio: float
    eps_star: float
    skipped: bool

    def csv_row(self):
        return [self.disk_id, self.length, self.area, self.diameter,
                self.lhs, self.rhs_shape, self.ratio, self.eps_star,
                int(self.skipped)]


def verify_main_inequality(alpha, family, theta: float,
                           smallness_sigma: float = 0.5):
    """Apply the main-inequality comparison to a family of disks.

    ``family`` is a sequence of (disk_id, corners) pairs, each disk's
    corners in boundary order as ``measure_polygons`` reads them (such as
    ``dyadic_square_family`` gives).  Disks failing the smallness filter
    |dD| < sigma are reported as skipped, mirroring the smallness
    hypothesis of the estimate.  No diameter test is needed, here or in
    ``decay``: a closed polygon has diam <= |dD|/2.  Each ratio is in
    units of ``one_form_cnorm(alpha, theta)``, which must be positive.

    The whole family is measured by one ``measure_polygons`` call; the
    unskipped disks are then integrated together by one
    ``polygon_boundary_integrals`` call, which takes grid-sampled forms
    only and integrates them exactly, for any mix of polygons: along each
    edge the bilinear interpolant is quadratic between grid-line crossings,
    and the 2-point Gauss-Legendre rule on each such piece is exact, so
    ``lhs`` carries rounding error only.  A degenerate disk (``rhs_shape``
    0) counts as ratio 0 when its ``lhs`` is at most ``DEGENERATE_LHS``;
    one of zero length, such as a point, reports ``eps_star`` nan.
    """
    cnorm = one_form_cnorm(alpha, theta)
    if cnorm <= 0.0:
        raise ValueError("cnorm must be positive")
    family = list(family)
    corners = [c for _, c in family]
    lengths, areas, diameters = (v.tolist()
                                 for v in measure_polygons(corners))
    skipped = [length >= smallness_sigma for length in lengths]
    integrals = iter(polygon_boundary_integrals(
        alpha, [c for c, skip in zip(corners, skipped) if not skip]))
    reports = []
    for (disk_id, _), length, area, diameter, skip in zip(
            family, lengths, areas, diameters, skipped):
        if skip:
            reports.append(InequalityReport(disk_id, length, area, diameter,
                                            math.nan, math.nan, math.nan,
                                            math.nan, True))
            continue
        lhs = abs(next(integrals))
        rhs_shape = length ** (1.0 - theta) * area ** theta
        if rhs_shape > 0.0:
            ratio = lhs / (cnorm * rhs_shape)
        else:
            # degenerate disk: ratio meaningful only if lhs vanishes too
            ratio = 0.0 if lhs <= DEGENERATE_LHS else math.inf
        if not math.isfinite(ratio):
            raise ArithmeticError(
                f"non-finite ratio for {disk_id}: lhs={lhs}, rhs={rhs_shape}")
        # a disk of zero length has no minimizer, like a skipped one
        star = eps_star(area, length, theta) if length > 0.0 else math.nan
        reports.append(InequalityReport(
            disk_id, length, area, diameter, lhs, rhs_shape, ratio, star,
            False))
    return reports
