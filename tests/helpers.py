"""Builders and reference implementations that only the tests use."""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from holderforms.chains import (
    OneForm, measure_polygons, polygon_boundary_integrals,
)
from holderforms.decay import (
    DecayStep, SmallnessError, choose_strip_count, cut_strips,
    iterate_rectangle,
)
from holderforms.dynamics import CAT_MAP
from holderforms.grids import _lag_distances, weierstrass_callable


def matched_ends(vals):
    """``vals``, in place, with its last entry on every axis set to its
    first: the duplicate endpoint of a field on the torus."""
    for ax in range(vals.ndim):
        last = [slice(None)] * vals.ndim
        last[ax] = -1
        vals[tuple(last)] = np.take(vals, 0, axis=ax)
    return vals


def rolled(vals, shift):
    """The samples of a field on the torus moved by ``shift`` nodes along
    every axis: the distinct nodes rolled, the duplicate endpoint matched
    again."""
    axes = tuple(range(vals.ndim))
    core = vals[(slice(0, -1),) * vals.ndim]
    return np.pad(np.roll(core, shift, axis=axes), [(0, 1)] * vals.ndim,
                  mode="wrap")


def analytic_weierstrass_form(theta: float, base: int = 2,
                              terms: int = 8) -> OneForm:
    """Exact-evaluator counterpart of ``experiments.weierstrass_form``."""
    w = weierstrass_callable(theta, base, terms)
    return OneForm(None, lambda pts: w(pts[..., 0]), theta)


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
        # B is a product of shears, so det B = 1 and the integer inverse is exact
        Binv = np.round(np.linalg.inv(B.astype(float))).astype(np.int64)
        if not np.array_equal(B @ Binv, np.eye(2, dtype=np.int64)):
            continue
        M = B @ CAT_MAP @ Binv
        if np.max(np.abs(M)) > 10**6:
            continue
        out.append(M)
    return out


def decay_steps_one_by_one(alpha, model, rect, theta, k_range, sigma,
                           c1=1.0, k_emp=1.0, cnorm=1.0, quad_tol=1e-10):
    """The ``steps`` and ``skipped_k`` of ``decay_bound_series``, step by step.

    The reference for the batched series: per admissible k, one
    ``cut_strips``, one ``measure_polygons`` and two
    ``polygon_boundary_integrals`` calls.
    """
    steps, skipped = [], []
    for k in k_range:
        sc = choose_strip_count(k, model, rect, sigma, c1)
        if not sc.admissible:
            skipped.append(k)
            continue
        rect_k = iterate_rectangle(model, rect, k)
        strips = cut_strips(rect_k, sc.n)
        length, area, diameter = measure_polygons(strips)
        if (length >= sigma).any():
            raise SmallnessError(k, sc.n, float(length.max()), sigma)
        rhs_shapes = [ln ** (1.0 - theta) * ar ** theta
                      for ln, ar in zip(length.tolist(), area.tolist())]
        (lhs_whole,) = polygon_boundary_integrals(alpha, cut_strips(rect_k, 1),
                                                  quad_tol)
        steps.append(DecayStep(
            k=k,
            n0=sc.n0,
            n=sc.n,
            strip_boundary_max=float(length.max()),
            strip_diameter_max=float(diameter.max()),
            bound=k_emp * cnorm * math.fsum(rhs_shapes),
            lhs_sum=math.fsum(polygon_boundary_integrals(alpha, strips,
                                                         quad_tol)),
            lhs_whole=lhs_whole,
        ))
    return tuple(steps), tuple(skipped)


# The one-level Holder lag scan, kept as the reference for the two-level
# ``grids._lag_scan``: 8-node tiles bound every lag block at once, and the
# lags are evaluated one by one in decreasing order of bound over d**theta.
_BLOCK = 8
_CHUNK = 1 << 14


def _one_level_lag_maximum(v: np.ndarray, kx: int, ky: int) -> float:
    """``M(kx, ky) = max |v[p + (kx, ±ky)] - v[p]|`` over pairs on the grid.

    ``v`` is 2-D (a 1-D field is one column) and ``kx, ky >= 0``; both signs
    of ``ky`` share the distance, so they form one lag.
    """
    nx, ny = v.shape
    m = np.abs(v[kx:, ky:] - v[:nx - kx, :ny - ky]).max()
    if kx and ky:
        m = max(m, np.abs(v[kx:, :ny - ky] - v[:nx - kx, ky:]).max())
    return m


def _one_level_block_bounds(v: np.ndarray) -> np.ndarray:
    """``b[qx, qy] >= M(kx, ky)`` for every lag with ``k // _BLOCK == q``.

    The axes are cut into blocks of ``_BLOCK`` nodes (tiles in 2-D) with
    maxima ``hi`` and minima ``lo``.  A pair at lag (kx, ky) joins a tile I
    to a tile J offset by ``kx // _BLOCK`` or one more along x, and likewise
    by ``±(ky // _BLOCK)`` or one more along y, so its difference is at most
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
    # his[Ix + px, Iy + py + ty - 1] = hi[Ix + px, Iy + py] for the tile
    # offsets 0 <= px < tx, |py| < ty, padded with -inf (los: +inf) so that
    # a tile off the grid never wins; its window view reads it at
    # [Ix, Iy, px, py + ty - 1]
    window = (tx, 2 * ty - 1)
    inner = (slice(0, tx), slice(ty - 1, 2 * ty - 1))
    his = np.full((2 * tx - 1, 3 * ty - 2), -np.inf)
    los = np.full((2 * tx - 1, 3 * ty - 2), np.inf)
    his[inner], los[inner] = hi, lo
    his = sliding_window_view(his, window)
    los = sliding_window_view(los, window)
    u = np.full((tx + 1, 2 * ty + 1), -np.inf)  # u[px, py + ty], padded
    core = u[:tx, 1:2 * ty]
    rows = max(1, _CHUNK // (tx * ty * (2 * ty - 1)))
    for i in range(0, tx, rows):
        r = slice(i, i + rows)
        np.maximum(core, (his[r] - lo[r, :, None, None]).max(axis=(0, 1)),
                   out=core)
        np.maximum(core, (hi[r, :, None, None] - los[r]).max(axis=(0, 1)),
                   out=core)
    u = np.maximum(u[:-1], u[1:])  # px in {qx, qx + 1}
    return np.maximum(
        np.maximum(u[:, ty:2 * ty], u[:, ty + 1:]),     # py in {qy, qy + 1}
        np.maximum(u[:, ty:0:-1], u[:, ty - 1::-1]))    # py in {-qy, -qy - 1}


def lag_scan_one_level(f, theta: float) -> float:
    """Exact max of |f(p)-f(q)| / d(p,q)^theta over all node pairs.

    Every pair of nodes differs by an index lag k, and on a uniform grid
    d(p,q) depends only on k, so the all-pairs maximum is the maximum over
    lags of M(k) / d(k)^theta with M(k) = max_i |v[i+k] - v[i]|.  Lags are
    visited in decreasing order of their block bound
    (``_one_level_block_bounds``) over ``d ** theta`` and evaluated
    exactly.  M(k) is at most the bound and both divide by the same float
    ``d ** theta``, so once the ranked bound is at or below the running
    best no later lag can beat it.
    """
    dx = _lag_distances(f, 0)
    dy = _lag_distances(f, 1) if f.dim == 2 else np.zeros(1)
    v = f.values.reshape(len(dx), len(dy))
    nx, ny = v.shape
    d = np.hypot(dx[:, None], dy[None, :])
    dpow = d ** theta
    bound = np.repeat(np.repeat(_one_level_block_bounds(v), _BLOCK, axis=0),
                      _BLOCK, axis=1)[:nx, :ny]
    rank = np.divide(bound, dpow, out=np.zeros_like(d), where=d > 0.0)
    order = np.argsort(rank, axis=None)[::-1]
    best = 0.0
    for flat, r in zip(order, rank.ravel()[order]):
        if r <= best:
            break
        kx, ky = divmod(int(flat), ny)
        best = max(best, float(_one_level_lag_maximum(v, kx, ky)
                               / dpow[kx, ky]))
    return best
