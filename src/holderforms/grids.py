"""Sampled scalar fields on flat tori.

A :class:`GridField` stores uniform samples of a scalar function on a flat
torus of dimension 1 or 2: an axis-aligned box whose opposite edges are
identified, so every axis wraps.  Values between nodes are obtained by
bilinear interpolation, which keeps every Lipschitz estimate conservative
(interpolation never increases the cellwise Lipschitz constant).

The Holder seminorm is the exact maximum over all node pairs, found by a
branch-and-bound over index lags: tile maxima and minima bound the largest
difference at every lag, and only the lags whose bound can still beat the
running best are evaluated exactly (88 of 2047 on the 2048-node Weierstrass
field).  On large grids coarse tiles bound blocks of 64 lags first, so that
only the blocks that can still win get fine bounds (15 of 2048 on the
16-term Weierstrass field at 131072 nodes, where 95 lags are evaluated).
It is deterministic.  In 1-D it is the seminorm of the piecewise-linear
interpolant exactly; in 2-D it is only a *lower* bound for
that of the bilinear interpolant, and callers that need upper bounds
multiply by a declared slack factor (default 1.05).

A function of the first coordinate alone is stored as its 1-D field;
``chains`` reads it at planar points through their x coordinate, so the
Weierstrass form ``W(x) dy`` costs what its 1-D column costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "GridField",
    "HolderEstimate",
    "UnderResolvedError",
    "make_weierstrass",
    "weierstrass_callable",
    "holder_seminorm",
]

DEFAULT_SLACK = 1.05

# The lag scan bounds its lags blockwise: blocks of _BLOCK nodes per axis,
# _BLOCK x _BLOCK tiles in 2-D, and coarse tiles of _BLOCK tiles per axis
# once there are more than _FEW_TILES tiles; one temporary of the bound
# holds at most _CHUNK elements.  Without the cap, the 256-block bound
# of the default `holderforms inequality` field (2048 nodes) raised that
# run's peak RSS from 33.07 to 33.51 MB and its wall time by 4% (median of
# 10).  The coarse level pays from about 1024 tiles on: on 1-D Weierstrass
# fields (2-core Xeon) it took 6.7 ms against 4.0 ms for one level at 8192
# nodes (1024 tiles), and 8.2 ms against 13.3 ms at 16384 (2048 tiles).
_BLOCK = 8
_CHUNK = 1 << 14
_FEW_TILES = 1024


class UnderResolvedError(ValueError):
    """Requested resolution cannot resolve the finest feature."""


def _as_tuple(x, dim, cast):
    if np.isscalar(x):
        return (cast(x),) * dim
    t = tuple(cast(v) for v in x)
    if len(t) != dim:
        raise ValueError(f"expected {dim} entries, got {len(t)}")
    return t


@dataclass(frozen=True)
class GridField:
    """Uniformly sampled scalar function on a flat torus, bilinear between
    nodes.

    ``values`` has shape ``resolution`` (axis 0 is the first coordinate).
    Every axis is periodic with period ``hi - lo``: the duplicate endpoint
    node is stored explicitly, and its values must equal those at ``lo``.
    """

    lo: tuple
    hi: tuple
    resolution: tuple
    values: np.ndarray

    def __post_init__(self):
        dim = len(self.resolution)
        if dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if any(r < 2 for r in self.resolution):
            raise ValueError("resolution must be >= 2 per axis")
        v = np.asarray(self.values, dtype=float)
        if v.shape != tuple(self.resolution):
            raise ValueError(f"values shape {v.shape} != resolution {self.resolution}")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)
        for ax in range(dim):
            if self.hi[ax] <= self.lo[ax]:
                raise ValueError("domain must have positive extent")
            first = np.take(v, 0, axis=ax)
            last = np.take(v, self.resolution[ax] - 1, axis=ax)
            if np.any(np.abs(first - last) > 1e-10):
                raise ValueError(f"axis {ax}: endpoint values differ")

    @property
    def dim(self) -> int:
        return len(self.resolution)

    @property
    def spacing(self) -> tuple:
        return tuple(
            (self.hi[a] - self.lo[a]) / (self.resolution[a] - 1)
            for a in range(self.dim)
        )

    def _axis_index(self, ax: int, x: np.ndarray):
        lo, hi = self.lo[ax], self.hi[ax]
        n = self.resolution[ax]
        h = (hi - lo) / (n - 1)
        t = np.mod((x - lo) / h, n - 1)
        i = np.minimum(t.astype(int), n - 2)
        return i, t - i

    def evaluate(self, pts) -> np.ndarray:
        """Interpolate at points of shape (..., dim), (..., 1) in 1-D, only."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 0 or pts.shape[-1] != self.dim:
            raise ValueError(f"expected points of shape (..., {self.dim}), "
                             f"got {pts.shape}")
        i, fx = self._axis_index(0, pts[..., 0])
        if self.dim == 1:
            return (1.0 - fx) * self.values[i] + fx * self.values[i + 1]
        j, fy = self._axis_index(1, pts[..., 1])
        v = self.values
        return (
            (1 - fx) * (1 - fy) * v[i, j]
            + fx * (1 - fy) * v[i + 1, j]
            + (1 - fx) * fy * v[i, j + 1]
            + fx * fy * v[i + 1, j + 1]
        )

    def __call__(self, pts) -> np.ndarray:
        return self.evaluate(pts)

    def supnorm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def scaled(self, c: float) -> "GridField":
        return GridField(self.lo, self.hi, self.resolution, c * self.values)

    def __sub__(self, other: "GridField") -> "GridField":
        self._check_same_grid(other)
        return GridField(self.lo, self.hi, self.resolution,
                         self.values - other.values)

    def _check_same_grid(self, other: "GridField"):
        if (self.lo, self.hi, self.resolution) != (
            other.lo, other.hi, other.resolution
        ):
            raise ValueError("grids do not match")

    def distance(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Flat metric of the torus: each axis takes the shortest wrap."""
        p = np.atleast_2d(p)
        q = np.atleast_2d(q)
        d2 = np.zeros(np.broadcast_shapes(p.shape[:-1], q.shape[:-1]))
        for ax in range(self.dim):
            dx = np.abs(p[..., ax] - q[..., ax])
            period = self.hi[ax] - self.lo[ax]
            dx = np.minimum(dx, period - dx)
            d2 = d2 + dx * dx
        return np.sqrt(d2)

    @classmethod
    def from_function(cls, fn: Callable, lo, hi, resolution) -> "GridField":
        if np.isscalar(resolution):
            dim = 1
        else:
            dim = len(resolution)
        lo = _as_tuple(lo, dim, float)
        hi = _as_tuple(hi, dim, float)
        resolution = _as_tuple(resolution, dim, int)
        axes = [np.linspace(lo[a], hi[a], resolution[a]) for a in range(dim)]
        if dim == 1:
            vals = np.asarray(fn(axes[0]), dtype=float)
        else:
            gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
            vals = np.asarray(fn(gx, gy), dtype=float)
        # snap the endpoints: fn may miss exact equality by roundoff
        for ax in range(dim):
            idx_first = [slice(None)] * dim
            idx_last = [slice(None)] * dim
            idx_first[ax] = 0
            idx_last[ax] = resolution[ax] - 1
            vals[tuple(idx_last)] = vals[tuple(idx_first)]
        return cls(lo, hi, resolution, vals)


@dataclass(frozen=True)
class HolderEstimate:
    """sup|f| and the theta-Holder seminorm over grid nodes.

    ``seminorm`` is the exact maximum over all node pairs (or over the
    pairs given).  Over all pairs of a 1-D field it is the seminorm of the
    piecewise-linear interpolant exactly: with one point fixed, the ratio
    is quasi-convex in the other on each cell (a linear difference over a
    concave power of the distance), so its supremum is reached at nodes.
    In 2-D it is only a lower bound for the seminorm of the bilinear
    interpolant: on the 3 x 3 grid of the unit torus with 1 at the centre
    node and 0 elsewhere, the node maximum at theta = 1 is 2, while pairs
    on the diagonal from the peak approach 2 sqrt(2).
    ``cnorm == supnorm + seminorm`` exactly.
    """

    theta: float
    seminorm: float
    supnorm: float

    @property
    def cnorm(self) -> float:
        return self.supnorm + self.seminorm


def weierstrass_callable(theta: float, base: int, terms: int) -> Callable:
    """Partial Weierstrass sum W(x) = sum_k base^(-theta k) cos(2 pi base^k x)."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0,1)")
    if base < 2 or terms < 1:
        raise ValueError("need base >= 2 and terms >= 1")
    amps = np.array([float(base) ** (-theta * k) for k in range(terms)])
    freqs = np.array([float(base) ** k for k in range(terms)])

    def w(x):
        x = np.asarray(x, dtype=float)
        return np.sum(
            amps * np.cos(2.0 * np.pi * freqs * x[..., None]), axis=-1
        )

    return w


def make_weierstrass(theta: float, base: int, terms: int, resolution: int) -> GridField:
    """Reference C^theta-rough test function on [0,1], periodic.

    The grid must resolve the finest oscillation: resolution >= 4 * base^(terms-1).
    """
    finest = base ** (terms - 1)
    if resolution < 4 * finest:
        raise UnderResolvedError(
            f"resolution {resolution} < 4*base^(terms-1) = {4 * finest}; "
            "the finest oscillation would be aliased"
        )
    w = weierstrass_callable(theta, base, terms)
    return GridField.from_function(w, 0.0, 1.0, resolution)


def _lag_distances(f: GridField, ax: int) -> np.ndarray:
    """Axis distance of index lags 0..n-1: the shorter way round the axis."""
    n = f.resolution[ax]
    k = np.arange(n)
    return np.minimum(k, n - 1 - k) * f.spacing[ax]


def _lag_maximum(v: np.ndarray, kx: int, ky: int, out: np.ndarray) -> float:
    """``M(kx, ky) = max |v[p + (kx, ±ky)] - v[p]|`` over pairs on the grid.

    ``v`` is 2-D (a 1-D field is one column) and ``kx, ky >= 0``; both signs
    of ``ky`` share the distance, so they form one lag.  The differences go
    into a corner of ``out`` (an array of ``v``'s shape), so that no array
    the size of the grid is allocated per lag.
    """
    nx, ny = v.shape
    diff = out[:nx - kx, :ny - ky]
    m = np.abs(np.subtract(v[kx:, ky:], v[:nx - kx, :ny - ky], diff),
               diff).max()
    if kx and ky:
        np.subtract(v[kx:, :ny - ky], v[:nx - kx, ky:], diff)
        m = max(m, np.abs(diff, diff).max())
    return m


def _tile_extrema(hi: np.ndarray, lo: np.ndarray):
    """Maxima of ``hi`` and minima of ``lo`` over tiles of ``_BLOCK``
    entries per axis (the last tile of an axis may be shorter)."""
    starts = [np.arange(0, n, _BLOCK) for n in hi.shape]
    return (np.maximum.reduceat(np.maximum.reduceat(hi, starts[0], axis=0),
                                starts[1], axis=1),
            np.minimum.reduceat(np.minimum.reduceat(lo, starts[0], axis=0),
                                starts[1], axis=1))


def _pair_maxima(hi, lo, x0: int, wx: int, y0: int, wy: int) -> np.ndarray:
    """``u[px - x0, py - y0] = max(hi[J] - lo[I], hi[I] - lo[J])`` over the
    tile pairs with ``J = I + (px, py)`` both on the grid, for the offsets
    ``x0 <= px < x0 + wx`` (``x0 >= 0``) and ``y0 <= py < y0 + wy``; -inf
    where no pair has that offset.

    Only offsets on the grid are visited, and at offset ``px`` only the
    ``tx - px`` rows of tiles that have a partner, so a window of ``w``
    offsets costs at most ``w`` times the tile count, and all offsets
    together half the square of the tile count.
    """
    tx, ty = hi.shape
    u = np.full((wx, wy), -np.inf)
    b0, b1 = max(y0, 1 - ty), min(y0 + wy, ty)
    if x0 >= tx or b1 <= b0:
        return u
    window = (min(wx, tx - x0), b1 - b0)
    rows = tx - x0
    # his[i, j] = hi[i + x0, j + b0], padded with -inf (los: +inf) so that
    # a tile off the grid never wins; the transposed window view reads the
    # tile at offset (x0 + a, b0 + b) from tile I at [a, b, Ix, Iy], so
    # each reduction runs over a long axis of tiles
    j0, j1 = max(0, -b0), min(ty + window[1] - 1, ty - b0)
    pad = np.empty((2, rows + window[0] - 1, ty + window[1] - 1))
    pad[0], pad[1] = -np.inf, np.inf
    pad[0, :rows, j0:j1] = hi[x0:, b0 + j0:b0 + j1]
    pad[1, :rows, j0:j1] = lo[x0:, b0 + j0:b0 + j1]
    his, los = sliding_window_view(pad, window,
                                   axis=(1, 2)).transpose(0, 3, 4, 1, 2)
    core = u[:window[0], b0 - y0:b1 - y0]
    a = 0
    while a < window[0]:
        n = rows - a  # rows of tiles with a partner at offset x0 + a
        width = max(1, _CHUNK // (n * ty * window[1]))  # offsets at once
        c = slice(a, min(window[0], a + width))
        np.maximum(core[c], (his[c, :, :n] - lo[:n]).max(axis=(2, 3)),
                   out=core[c])
        np.maximum(core[c], (hi[:n] - los[c, :, :n]).max(axis=(2, 3)),
                   out=core[c])
        a = c.stop
    return u


def _block_bounds(hi, lo, x0: int, wx: int, c0: int, wc: int) -> np.ndarray:
    """``b[qx - x0, qy - c0] >= M(kx, ky)`` for every lag with
    ``k // s == q``, over the lag blocks ``x0 <= qx < x0 + wx`` and
    ``c0 <= qy < c0 + wc``, from the maxima ``hi`` and minima ``lo`` of
    tiles of ``s`` nodes per axis.

    A pair at lag (kx, ky) joins a tile I to a tile J offset by
    ``kx // s`` or one more along x, and likewise by ``±(ky // s)`` or one
    more along y, so its difference is at most
    ``max(hi[J] - lo[I], hi[I] - lo[J])`` over those tile pairs
    (``_pair_maxima``).  Rounding is monotone, so each computed bound is at
    least every computed difference it covers.
    """
    # py from -(c0 + wc) to -c0, then from c0 to c0 + wc (from 1 if c0 is
    # 0, so that py = 0 is visited once)
    u = np.concatenate([
        _pair_maxima(hi, lo, x0, wx + 1, -(c0 + wc), wc + 1),
        _pair_maxima(hi, lo, x0, wx + 1, c0 + (c0 == 0), wc + (c0 != 0)),
    ], axis=1)
    u = np.maximum(u[:-1], u[1:])  # px in {qx, qx + 1}
    pos = u.shape[1] - wc - 1       # the column of py = c0
    return np.maximum(
        np.maximum(u[:, pos:pos + wc], u[:, pos + 1:]),  # py in {qy, qy + 1}
        np.maximum(u[:, wc:0:-1], u[:, wc - 1::-1]))     # py in {-qy, -qy - 1}


def _ranked_lags(hi, lo, dpow, x0: int, wx: int, c0: int, wc: int):
    """Flat indices and ranks of the lags in the ``_BLOCK`` lag blocks
    ``[x0, x0 + wx) x [c0, c0 + wc)``: each lag's block bound over its
    ``d ** theta``, and 0 where ``d`` is 0 (``d ** theta`` is 0 exactly
    there, since theta > 0)."""
    b = _block_bounds(hi, lo, x0, wx, c0, wc)
    xs = slice(_BLOCK * x0, _BLOCK * (x0 + wx))
    ys = slice(_BLOCK * c0, _BLOCK * (c0 + wc))
    dp = dpow[xs, ys]
    bound = np.repeat(np.repeat(b, _BLOCK, axis=0), _BLOCK,
                      axis=1)[:dp.shape[0], :dp.shape[1]]
    rank = np.divide(bound, dp, out=np.zeros_like(dp), where=dp > 0.0)
    flat = (np.arange(xs.start, xs.start + dp.shape[0])[:, None]
            * dpow.shape[1] + np.arange(ys.start, ys.start + dp.shape[1]))
    return flat.ravel(), rank.ravel()


def _lag_scan(f: GridField, theta: float) -> float:
    """Exact max of |f(p)-f(q)| / d(p,q)^theta over all node pairs.

    Every pair of nodes differs by an index lag k, and on a uniform grid
    d(p,q) depends only on k, so the all-pairs maximum is the maximum over
    lags of M(k) / d(k)^theta with M(k) = max_i |v[i+k] - v[i]|.  Lags are
    visited in decreasing order of their block bound (``_block_bounds``)
    over ``d ** theta`` and evaluated exactly (``_lag_maximum``), one at a
    time into one reused buffer.  M(k) is at most the bound and both
    divide by the same float ``d ** theta``, so once the ranked bound is at
    or below the running best no later lag can beat it.

    The bounds come from two levels of tiles.  Tiles of ``_BLOCK`` nodes
    per axis bound the lag blocks of ``_BLOCK`` lags, at a cost of the
    tile count per tile offset.  With at most ``_FEW_TILES`` tiles every
    lag block is bounded at once (half the square of the tile count).
    Beyond that, coarse tiles of ``_BLOCK`` tiles per axis first bound the
    coarse lag blocks of ``_BLOCK ** 2`` lags, each ranked by its bound
    over its smallest ``d ** theta``, which is at least every lag rank in
    it, again by monotone rounding.  The scan is best first: a coarse block
    gets its fine bounds when its rank is the largest pending rank of a
    block or lag, and a lag is evaluated when its rank is.  So it evaluates
    lags in the order the one-level scan would, and stops when no block or
    lag still ranks above the running best.  Which lags are evaluated
    cannot change the maximum, so the result is the same float either way.
    """
    dx = _lag_distances(f, 0)
    dy = _lag_distances(f, 1) if f.dim == 2 else np.zeros(1)
    v = f.values.reshape(len(dx), len(dy))
    ny = v.shape[1]
    dpow = np.hypot(dx[:, None], dy[None, :]) ** theta
    hi, lo = _tile_extrema(v, v)
    tx, ty = hi.shape
    if hi.size <= _FEW_TILES:
        blocks = [(np.inf, (0, tx, 0, ty))]  # one block of every lag
    else:
        chi, clo = _tile_extrema(hi, lo)
        starts = [np.arange(0, n, _BLOCK * _BLOCK) for n in v.shape]
        dmin = np.minimum.reduceat(np.minimum.reduceat(
            np.where(dpow > 0.0, dpow, np.inf), starts[0], axis=0),
            starts[1], axis=1)
        coarse = (_block_bounds(chi, clo, 0, chi.shape[0], 0, chi.shape[1])
                  / dmin).ravel()
        order = np.argsort(coarse)[::-1]
        qx, qy = np.divmod(order, chi.shape[1])
        blocks = [(r, (_BLOCK * x, _BLOCK, _BLOCK * y, _BLOCK)) for r, x, y
                  in zip(coarse[order].tolist(), qx.tolist(), qy.tolist())]
    out = np.empty_like(v)
    best = 0.0
    flat, rank = np.zeros(0, dtype=int), np.zeros(0)  # pending, best first
    # the last entry ranks at or below any best, so it ends the scan
    for block_rank, block in blocks + [(0.0, None)]:
        done = 0
        for r, k in zip(rank, flat):
            if r <= best or r <= block_rank:
                break
            kx, ky = divmod(int(k), ny)
            best = max(best,
                       float(_lag_maximum(v, kx, ky, out) / dpow[kx, ky]))
            done += 1
        if block_rank <= best:
            return best
        new_flat, new_rank = _ranked_lags(hi, lo, dpow, *block)
        keep = new_rank > best
        flat = np.concatenate([flat[done:], new_flat[keep]])
        rank = np.concatenate([rank[done:], new_rank[keep]])
        order = np.argsort(rank)[::-1]
        flat, rank = flat[order], rank[order]


def holder_seminorm(f: GridField, theta: float, pairs=None) -> HolderEstimate:
    """H_theta(f) = max |f(x)-f(y)| / d(x,y)^theta, exact over all node pairs.

    The result is the exact maximum over all node pairs (the duplicate
    endpoint included), so it is deterministic; in 1-D it is the
    seminorm of the piecewise-linear interpolant exactly, and in 2-D a
    lower bound for that of the bilinear interpolant (see
    :class:`HolderEstimate`).  It is found by a branch-and-bound over index
    lags (``_lag_scan``): tile maxima and minima bound every lag, and only
    the lags whose bound can still win are evaluated exactly, O(N) array
    work each for N nodes.  The bounds take work quadratic in the number of
    8-node tiles up to ``_FEW_TILES`` of them; beyond, quadratic in the
    number of 64-node tiles, plus the tile count for each block of 64 lags
    that can still win.  An
    explicit ``pairs`` array (shape (m, 2) of flat node indices) restricts
    the maximum to those pairs, which makes the monotonicity-under-
    refinement property directly testable.  A pair's distance is that of
    its index lag, the same float the scan divides by, so ``pairs`` listing
    every pair gives the scan's value bit for bit.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0,1]")
    sup = f.supnorm()
    if pairs is None:
        return HolderEstimate(theta, _lag_scan(f, theta), sup)
    vals = f.values.ravel()
    diff = np.abs(vals[pairs[:, 0]] - vals[pairs[:, 1]])
    ends = np.unravel_index(pairs, f.values.shape)
    dist = [_lag_distances(f, ax)[np.abs(e[:, 0] - e[:, 1])]
            for ax, e in enumerate(ends)] + [0.0]
    d = np.hypot(dist[0], dist[1])
    mask = d > 0.0
    best = float(np.max(diff[mask] / d[mask] ** theta)) if mask.any() else 0.0
    return HolderEstimate(theta, best, sup)

