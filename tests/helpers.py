"""Builders and reference implementations that only the tests use."""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from holderforms.chains import Term, polygon_boundary_integrals
from holderforms.decay import (
    DecayStep, SmallnessError, _strip_corners, choose_strip_count,
    iterate_rectangle,
)
from holderforms.dynamics import ToralAutomorphism
from holderforms.grids import GridField, _lag_distances
from holderforms.inequality import c_theta_constant
from holderforms.mollify import (
    _bump, _centered_diff, _gl_rule, deta_l1, normalization_constant,
)

CAT_MAP = np.array([[2, 1], [1, 1]], dtype=np.int64)


def cut_strips(rect, N: int) -> np.ndarray:
    """Corners of the N equal strips of ``rect``, ``(N, 4, 2)``, as the
    decay run cuts them; ``cut_strips(rect, 1)`` is the whole rectangle."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return _strip_corners(rect, N, 0, N)


def torus_distance(f, p, q) -> np.ndarray:
    """Flat metric of the torus of ``f``: each axis takes the shortest
    wrap."""
    p = np.atleast_2d(p)
    q = np.atleast_2d(q)
    d2 = np.zeros(np.broadcast_shapes(p.shape[:-1], q.shape[:-1]))
    for ax in range(f.dim):
        dx = np.abs(p[..., ax] - q[..., ax])
        period = f.hi[ax] - f.lo[ax]
        dx = np.minimum(dx, period - dx)
        d2 = d2 + dx * dx
    return np.sqrt(d2)


def torus_nodes(lo: float, hi: float, m: int) -> np.ndarray:
    """The ``m`` node coordinates of a grid axis on the circle [lo, hi),
    as ``GridField.from_function`` samples them."""
    return np.linspace(lo, hi, m + 1)[:-1]


def eta(x, n: int) -> np.ndarray:
    """The standard mollifier in R^n, ``A exp(1/(|x|^2 - 1))`` of unit mass;
    ``x`` is (...,) in 1-D or (..., 2) in 2-D."""
    x = np.asarray(x, dtype=float)
    r2 = x * x if n == 1 else np.sum(x * x, axis=-1)
    return normalization_constant(n) * _bump(r2)


def one_form(a1=None, a2=None) -> tuple:
    """The grid-sampled form ``a1 dx + a2 dy`` as its tuple of terms, a
    ``None`` component left out."""
    return tuple(Term(c, covector) for c, covector in
                 ((a1, (1.0, 0.0)), (a2, (0.0, 1.0))) if c is not None)


def scaled_form(alpha, factor: float) -> tuple:
    """``factor * alpha`` for a grid-sampled form: its samples scaled."""
    return tuple(Term(GridField(t.field.lo, t.field.hi,
                                factor * t.field.values), t.covector)
                 for t in alpha)


def split_bound_sweep(cnorm: float, area: float, length: float,
                      theta: float, eps) -> np.ndarray:
    """The mollification split's bound ``cnorm (|dD| eps^theta + D1 |D|
    eps^(theta-1))``, ``D1 = deta_l1(2)``, at each ``eps``: the sum
    ``SplitCheck.bound_boundary + bound_interior`` of a disk with that
    length and area."""
    eps = np.asarray(eps, dtype=float)
    return cnorm * (length * eps ** theta
                    + deta_l1(2) * area * eps ** (theta - 1.0))


# The adaptive curve quadrature: the reference that the exact boundary
# integrals of grid-sampled forms are compared against.  Composite
# Gauss-Legendre quadrature, 16 nodes per panel, panel count doubled until
# the relative change drops below ``QUAD_REL_TOL`` (absolute floor
# ``QUAD_ABS_FLOOR``), at most ``MAX_DOUBLINGS`` doublings.
QUAD_REL_TOL = 1e-8
QUAD_ABS_FLOOR = 1e-10
MAX_DOUBLINGS = 6


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge; carries the last two values."""

    def __init__(self, last, previous):
        super().__init__(
            f"quadrature did not converge after {MAX_DOUBLINGS} doublings: "
            f"last={last!r}, previous={previous!r}"
        )
        self.last = last
        self.previous = previous


def adaptive_quadrature(fn: Callable[..., float]) -> float:
    """Refine the scalar ``fn(t, w)`` over [0,1] by doubling the panel count.

    Returns the value of the first doubling at which
    ``|val - prev| <= max(QUAD_REL_TOL*|val|, QUAD_ABS_FLOOR)``; still open
    after ``MAX_DOUBLINGS`` doublings, it raises ``QuadratureError`` with
    the last and previous values.
    """
    prev = None
    panels = 1
    for step in range(MAX_DOUBLINGS + 1):
        t, w = _gl_rule(panels, 0.0, 1.0)
        val = float(fn(t, w))
        if prev is not None and abs(val - prev) <= max(
                QUAD_REL_TOL * abs(val), QUAD_ABS_FLOOR):
            return val
        if step == MAX_DOUBLINGS:
            raise QuadratureError(val, prev)
        prev = val
        panels *= 2


@dataclass(frozen=True)
class ParamCurve:
    """C1 map [0,1] -> R^2 with its velocity, both vectorized."""

    point: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[np.ndarray], np.ndarray]

    def is_closed(self) -> bool:
        a = self.point(np.array([0.0]))[0]
        b = self.point(np.array([1.0]))[0]
        return bool(np.linalg.norm(a - b) <= 1e-10)


def circle(center, radius: float) -> ParamCurve:
    """The circle about ``center``, once counter-clockwise from angle 0."""
    c = np.asarray(center, dtype=float)
    turn = 2.0 * np.pi

    def point(t):
        a = turn * np.asarray(t, dtype=float)
        return c + radius * np.stack([np.cos(a), np.sin(a)], axis=-1)

    def velocity(t):
        a = turn * np.asarray(t, dtype=float)
        return radius * turn * np.stack([-np.sin(a), np.cos(a)], axis=-1)

    return ParamCurve(point, velocity)


class AnalyticForm(NamedTuple):
    """An analytic 1-form a1 dx + a2 dy for the curve quadrature.

    Each component is a callable of planar points ``(..., 2)``, or ``None``
    for identically zero, read at points through ``component``.
    """

    a1: object
    a2: object

    def component(self, i: int, pts: np.ndarray) -> np.ndarray:
        c = self.a1 if i == 0 else self.a2
        if c is None:
            return np.zeros(pts.shape[:-1])
        return np.asarray(c(pts), dtype=float)


def pullback(alpha, pts: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """``alpha`` along a curve through ``pts`` with velocity ``vel``:
    ``a1(p)*vx + a2(p)*vy`` for an ``AnalyticForm``, and the sum of
    ``w(p) (c . v)`` over the terms of a grid-sampled form, each field read
    at the first ``w.dim`` coordinates of the points."""
    if isinstance(alpha, AnalyticForm):
        return (alpha.component(0, pts) * vel[..., 0]
                + alpha.component(1, pts) * vel[..., 1])
    total = np.zeros(pts.shape[:-1])
    for t in alpha:
        (c1, c2), w = t.covector, t.field
        total = total + (w.evaluate(pts[..., :w.dim])
                         * (vel[..., 0] * c1 + vel[..., 1] * c2))
    return total


def _curve_integral(values_of: Callable) -> float:
    """``int_0^1 values_of(t) dt`` by one adaptive driver call."""
    def fn(t, w):
        return float(np.sum(w * values_of(t)))
    return adaptive_quadrature(fn)


def curve_length(curve: ParamCurve) -> float:
    return _curve_integral(
        lambda t: np.linalg.norm(curve.velocity(t), axis=-1))


def integrate_one_form(alpha, curve: ParamCurve) -> float:
    """int_0^1 a(gamma(t)) . gamma'(t) dt, for a grid-sampled form or an
    ``AnalyticForm`` ``alpha``."""
    return _curve_integral(
        lambda t: pullback(alpha, curve.point(t), curve.velocity(t)))


def green_area(curve: ParamCurve) -> float:
    """Signed area of a closed curve via 0.5 * integral (x dy - y dx)."""
    if not curve.is_closed():
        raise ValueError("green_area needs a closed curve")
    half_xdy = AnalyticForm(lambda p: -0.5 * p[..., 1],
                            lambda p: 0.5 * p[..., 0])
    return integrate_one_form(half_xdy, curve)


def line_segment(a, b) -> ParamCurve:
    """The straight edge from ``a`` to ``b``, ``a + t*(b - a)``."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a

    def point(t):
        t = np.asarray(t, dtype=float)
        return a + t[..., None] * d

    def velocity(t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(d, t.shape + (2,)).copy()

    return ParamCurve(point, velocity)


def polygon_edges(corners):
    """The edges of the polygon ``corners`` as ``line_segment`` curves, in
    boundary order, the last one closing it."""
    pts = list(corners) + [corners[0]]
    return [line_segment(a, b) for a, b in zip(pts, pts[1:])]


def per_edge_quadrature(alpha, corners) -> float:
    """``int_dP alpha``, for a grid-sampled form or an ``AnalyticForm``
    ``alpha``, over the polygon ``corners`` by quadrature: one
    adaptive driver call per edge, each converged to relative
    ``QUAD_REL_TOL``, summed in boundary order.  The reference that the
    exact boundary integrals of grid-sampled forms are compared against."""
    return sum(integrate_one_form(alpha, e) for e in polygon_edges(corners))


# The centred-difference 2-form path: the reference that the exact Stokes
# identity of ``inequality.mollification_split_check`` is compared against.

def integrate_two_form(beta: GridField, lo, hi) -> float:
    """``int beta dx dy`` over the rectangle ``[lo, hi]``, exact.

    Each axis of the rectangle is cut at the grid lines
    ``beta.lo[ax] + m*h[ax]`` inside it, for every integer ``m``, so
    wraps round the torus need no special case; a 1-D field, a function of x
    alone, has lines in x only and one piece in y.  On each product of
    pieces the interpolant is bilinear, and the midpoint rule integrates a
    bilinear function exactly, so the sum of ``len_x * len_y * beta(mid)``
    carries rounding error only.
    """
    pieces = []
    for ax in range(2):
        a, b = float(lo[ax]), float(hi[ax])
        if not a <= b:
            raise ValueError(f"need lo <= hi on axis {ax}, got {a} > {b}")
        cuts = np.array([a, b])
        if ax < beta.dim:
            g0, h = beta.lo[ax], beta.spacing[ax]
            m = np.arange(math.floor((a - g0) / h) + 1,
                          math.ceil((b - g0) / h))
            cuts = np.concatenate([[a], np.clip(g0 + m * h, a, b), [b]])
        pieces.append((np.diff(cuts), 0.5 * (cuts[:-1] + cuts[1:])))
    (wx, mx), (wy, my) = pieces
    if beta.dim == 1:
        return float(wy[0] * np.sum(wx * beta.evaluate(mx[:, None])))
    mid = np.stack(np.meshgrid(mx, my, indexing="ij"), axis=-1)
    return float(np.sum(np.outer(wx, wy) * beta.evaluate(mid)))


def exterior_derivative(alpha) -> GridField:
    """d alpha by centered differences on the one grid of its terms: the
    sum of ``c2 dw/dx - c1 dw/dy`` over its terms ``w (c . dp)``.

    On 1-D fields, functions of x alone, ``dw/dx`` is taken along their
    one axis, ``dw/dy`` is 0, and the 2-form is a 1-D field too.

    Caller contract: only mollified or otherwise smooth-at-grid-scale forms,
    every term on one grid.
    """
    ref = alpha[0].field
    out = np.zeros(ref.resolution)
    for t in alpha:
        (c1, c2), w = t.covector, t.field
        assert (w.lo, w.hi, w.resolution) == (ref.lo, ref.hi, ref.resolution)
        if c2 != 0.0:
            out += c2 * _centered_diff(w.values, 0, ref.spacing[0])
        if c1 != 0.0 and ref.dim == 2:
            out -= c1 * _centered_diff(w.values, 1, ref.spacing[1])
    return GridField(ref.lo, ref.hi, out)


def cat_map_conjugates(seed: int, count: int):
    """Unimodular integer conjugates B A B^-1 of the cat map (det B = +-1)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        B = np.eye(2, dtype=np.int64)
        for _ in range(rng.integers(1, 4)):
            k = int(rng.integers(-3, 4))
            if rng.integers(2):
                S = np.array([[1, k], [0, 1]], dtype=np.int64)
            else:
                S = np.array([[1, 0], [k, 1]], dtype=np.int64)
            B = B @ S
        # B is a product of shears, so det B = 1
        M = B @ CAT_MAP @ ToralAutomorphism(B).inverse().matrix
        if np.max(np.abs(M)) > 10**6:
            continue
        out.append(M)
    return out


def strip_measures(rect, N: int):
    """The length and area of each of the N congruent strips of ``rect``,
    in closed form: width ``w = u_len / N`` and height ``s = s_len``, the
    edges summed in vertex order, ``((w + s) + w) + s``, and ``w * s``."""
    w, s = rect.u_len / N, rect.s_len
    return ((w + s) + w) + s, w * s


def decay_steps_one_by_one(alpha, model, rect, theta, k_range, sigma,
                           c1=1.0, cnorm=1.0):
    """The ``steps`` and ``skipped_k`` of ``decay_bound_series``, step by step.

    The reference for the batched series: per admissible k, the closed-form
    ``strip_measures``, the bound as a ``math.fsum`` over the N strips'
    equal right-hand sides, and two ``polygon_boundary_integrals`` calls.
    """
    steps, skipped = [], []
    for k in k_range:
        sc = choose_strip_count(k, model, rect, sigma, c1)
        if sc.n is None:
            skipped.append(k)
            continue
        rect_k = iterate_rectangle(model, rect, k)
        length, area = strip_measures(rect_k, sc.n)
        if length >= sigma:
            raise SmallnessError(k, sc.n, length, sigma)
        rhs_shape = length ** (1.0 - theta) * area ** theta
        (lhs_whole,) = polygon_boundary_integrals(alpha, cut_strips(rect_k, 1))
        steps.append(DecayStep(
            k=k,
            n0=sc.n0,
            n=sc.n,
            strip_length=length,
            bound=c_theta_constant(theta) * cnorm * math.fsum(
                [rhs_shape] * sc.n),
            lhs_sum=math.fsum(polygon_boundary_integrals(
                alpha, cut_strips(rect_k, sc.n))),
            lhs_whole=lhs_whole,
        ))
    return tuple(steps), tuple(skipped)


def pair_quotient(f, theta: float, pairs) -> float:
    """Largest |f(p) - f(q)| / d(p, q)^theta over ``pairs`` (shape (m, 2) of
    flat node indices), 0 if no pair is apart.  A pair's distance is that of
    its index lag, the same float the lag scan divides by, so the pairs of
    one axis give the scan's ``S_a`` bit for bit."""
    vals = f.values.ravel()
    diff = np.abs(vals[pairs[:, 0]] - vals[pairs[:, 1]])
    ends = np.unravel_index(pairs, f.values.shape)
    dist = [_lag_distances(f, ax)[np.abs(e[:, 0] - e[:, 1])]
            for ax, e in enumerate(ends)] + [0.0]
    d = np.hypot(dist[0], dist[1])
    mask = d > 0.0
    return float(np.max(diff[mask] / d[mask] ** theta)) if mask.any() else 0.0


def all_pairs(f):
    """Every pair of distinct nodes of ``f``, as flat node indices."""
    return np.stack(np.triu_indices(f.values.size, 1), axis=1)


def axis_pairs(f, ax: int):
    """The pairs of distinct nodes of ``f`` that differ along axis ``ax``
    only, as flat node indices."""
    idx = np.moveaxis(np.arange(f.values.size).reshape(f.values.shape),
                      ax, 0).reshape(f.resolution[ax], -1)
    i, j = np.triu_indices(f.resolution[ax], 1)
    return np.stack([idx[i].ravel(), idx[j].ravel()], axis=1)


# The one-level Holder lag scan, kept as the reference for the two-level
# ``grids._axis_seminorm``: 8-node tiles bound every lag block at once, and
# the lags are evaluated one by one in decreasing order of bound over
# d**theta.
_BLOCK = 8
_CHUNK = 1 << 14


def _one_level_lag_maximum(v: np.ndarray, k: int) -> float:
    """``M(k) = max |v[i + k, j] - v[i, j]|`` over the pairs on the grid."""
    return np.abs(v[k:] - v[:len(v) - k]).max()


def _one_level_block_bounds(v: np.ndarray) -> np.ndarray:
    """``b[q] >= M(k)`` for every lag with ``k // _BLOCK == q``.

    The axes are cut into blocks of ``_BLOCK`` nodes (tiles in 2-D) with
    maxima ``hi`` and minima ``lo``.  A pair at lag k joins a tile I to the
    tile J of the same column of tiles offset by ``k // _BLOCK`` or one
    more along axis 0, so its difference is at most
    ``max(hi[J] - lo[I], hi[I] - lo[J])`` over those tile pairs.  Rounding
    is monotone, so each computed bound is at least every computed
    difference it covers.
    """
    starts = [np.arange(0, n, _BLOCK) for n in v.shape]
    hi = np.maximum.reduceat(np.maximum.reduceat(v, starts[0], axis=0),
                             starts[1], axis=1)
    lo = np.minimum.reduceat(np.minimum.reduceat(v, starts[0], axis=0),
                             starts[1], axis=1)
    tx, ty = hi.shape
    # his[Ix + p, Iy] = hi[Ix + p, Iy] for the tile offsets 0 <= p < tx,
    # padded with -inf (los: +inf) so that a tile off the grid never wins;
    # its window view reads it at [Ix, Iy, p]
    his = np.full((2 * tx - 1, ty), -np.inf)
    los = np.full((2 * tx - 1, ty), np.inf)
    his[:tx], los[:tx] = hi, lo
    his = sliding_window_view(his, tx, axis=0)
    los = sliding_window_view(los, tx, axis=0)
    u = np.full(tx + 1, -np.inf)  # u[p], padded
    rows = max(1, _CHUNK // (tx * ty))
    for i in range(0, tx, rows):
        r = slice(i, i + rows)
        np.maximum(u[:tx], (his[r] - lo[r, :, None]).max(axis=(0, 1)),
                   out=u[:tx])
        np.maximum(u[:tx], (hi[r, :, None] - los[r]).max(axis=(0, 1)),
                   out=u[:tx])
    return np.maximum(u[:-1], u[1:])  # p in {q, q + 1}


def lag_scan_one_level(f, theta: float, ax: int = 0) -> float:
    """Exact max of |f(p)-f(q)| / d(p,q)^theta over the node pairs that
    differ along axis ``ax`` only: ``S_ax`` of ``grids.holder_seminorm``.

    Every such pair differs by an index lag k, and on a uniform grid
    d(p,q) depends only on k, so the maximum is the maximum over lags of
    M(k) / d(k)^theta with M(k) = max |v[i + k, j] - v[i, j]|, where ``v``
    is the field with axis ``ax`` moved first.  Lags are visited in
    decreasing order of their block bound (``_one_level_block_bounds``)
    over ``d ** theta`` and evaluated exactly.  M(k) is at most the bound
    and both divide by the same float ``d ** theta``, so once the ranked
    bound is at or below the running best no later lag can beat it.
    """
    d = _lag_distances(f, ax)
    v = np.moveaxis(f.values, ax, 0).reshape(len(d), -1)
    dpow = d ** theta
    bound = np.repeat(_one_level_block_bounds(v), _BLOCK)[:len(d)]
    rank = np.divide(bound, dpow, out=np.zeros_like(d), where=d > 0.0)
    order = np.argsort(rank)[::-1]
    best = 0.0
    for k, r in zip(order.tolist(), rank[order]):
        if r <= best:
            break
        best = max(best, float(_one_level_lag_maximum(v, k) / dpow[k]))
    return best
