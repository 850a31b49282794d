"""Sampled scalar fields on flat tori.

A :class:`GridField` stores uniform samples of a scalar function on a flat
torus of dimension 1 or 2: an axis-aligned box whose opposite edges are
identified, so every axis wraps.  Values between nodes are obtained by
bilinear interpolation, which keeps every Lipschitz estimate conservative
(interpolation never increases the cellwise Lipschitz constant).

The Holder seminorm is scanned one axis at a time.  Along each axis it is
the exact maximum over the node pairs that differ along that axis only,
found by a branch-and-bound over index lags: tile maxima and minima bound
the largest difference at every lag, and only the lags whose bound can
still beat the running best are evaluated exactly (88 of 2047 on the
2048-node Weierstrass field).  On long axes coarse tiles bound blocks of 64
lags first, so that only the blocks that can still win get fine bounds (15
of 2048 on the 16-term Weierstrass field at 131072 nodes, where 95 lags are
evaluated).  It is deterministic.  In 1-D it is the seminorm of the
piecewise-linear interpolant exactly; in 2-D the two axis maxima combine in
closed form into an upper bound for that of the bilinear interpolant (see
:class:`HolderEstimate`), so the C^theta norm needs no slack factor.

A function of the first coordinate alone is stored as its 1-D field:
a term of a ``chains`` form reads its field at the first ``field.dim``
coordinates of a point, so the Weierstrass form ``W(x) dy`` costs what its
1-D column costs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

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

# The lag scan bounds its lags blockwise: blocks of _BLOCK nodes per axis,
# _BLOCK x _BLOCK tiles in 2-D, and coarse tiles of _BLOCK tiles per axis
# once the scanned axis has more than _FEW_TILES tiles; one temporary of
# the bound holds at most _CHUNK elements.  Without the cap, the 256-block
# bound of the default `holderforms inequality` field (2048 nodes) raised
# that run's peak RSS from 33.07 to 33.51 MB and its wall time by 4%
# (median of 10).  The coarse level pays from about 1024 tiles on: on 1-D
# Weierstrass fields (2-core Xeon) it took 6.7 ms against 4.0 ms for one
# level at 8192 nodes (1024 tiles), and 8.2 ms against 13.3 ms at 16384
# (2048 tiles).
_BLOCK = 8
_CHUNK = 1 << 14
_FEW_TILES = 1024


class UnderResolvedError(ValueError):
    """Requested resolution cannot resolve the finest feature."""


def _matched_ends(v: np.ndarray) -> np.ndarray:
    """``v``, in place, with its last entry on every axis set to its first:
    the duplicate endpoint of a field on the torus."""
    for ax in range(v.ndim):
        last = [slice(None)] * v.ndim
        last[ax] = -1
        v[tuple(last)] = np.take(v, 0, axis=ax)
    return v


def _as_tuple(x, dim, cast):
    if np.isscalar(x):
        return (cast(x),) * dim
    t = tuple(cast(v) for v in x)
    if len(t) != dim:
        raise ValueError(f"expected {dim} entries, got {len(t)}")
    return t


class GridField:
    """Uniformly sampled scalar function on a flat torus, bilinear between
    nodes.

    ``values`` has shape ``resolution`` (axis 0 is the first coordinate).
    Every axis is periodic with period ``hi - lo``: the duplicate endpoint
    node is stored explicitly.  Its given values must lie within 1e-10 of
    those at ``lo``, and a copy of ``values`` stores them equal, so the
    interpolant is continuous across the seam.
    """

    def __init__(self, lo: tuple, hi: tuple, resolution: tuple,
                 values: np.ndarray):
        dim = len(resolution)
        if dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if any(r < 2 for r in resolution):
            raise ValueError("resolution must be >= 2 per axis")
        v = np.array(values, dtype=float)
        if v.shape != tuple(resolution):
            raise ValueError(f"values shape {v.shape} != resolution {resolution}")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        for ax in range(dim):
            if hi[ax] <= lo[ax]:
                raise ValueError("domain must have positive extent")
            first = np.take(v, 0, axis=ax)
            last = np.take(v, -1, axis=ax)
            if np.any(np.abs(first - last) > 1e-10):
                raise ValueError(f"axis {ax}: endpoint values differ")
        self.lo, self.hi, self.resolution = lo, hi, resolution
        self.values = _matched_ends(v)

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

    def supnorm(self) -> float:
        return float(np.max(np.abs(self.values)))

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
        # fn need not be periodic (x*y is not), so its ends are matched
        # before the constructor's 1e-10 check
        return cls(lo, hi, resolution, _matched_ends(vals))


class HolderEstimate(NamedTuple):
    """sup|f| and an upper bound for the theta-Holder seminorm of the
    interpolant.

    Let ``S_a`` be the exact maximum quotient over the node pairs that
    differ along axis ``a`` only, with torus distances.  In 1-D
    ``seminorm`` is ``S_0``, the seminorm of the piecewise-linear
    interpolant exactly: with one point fixed, the ratio is quasi-convex in
    the other on each cell (a linear difference over a concave power of
    the distance), so its supremum is reached at nodes.  In 2-D it is
    ``U``, the l^(2/(2-theta)) norm of ``(S_0, S_1)``.  Along any
    axis-parallel segment the bilinear interpolant is a convex combination
    of two 1-D linear interpolants, so by the 1-D case
    ``|f(p) - f(q)| <= S_0 |dx|^theta + S_1 |dy|^theta``, going along x,
    then along y, each the shorter way round; the largest value of that
    at distance r is ``U r^theta``.  So ``U`` bounds the seminorm of the
    bilinear interpolant, with equality on the 3 x 3 grid of the unit
    torus with 1 at the centre node and 0 elsewhere at theta = 1
    (``U = 2 sqrt(2)``, the slope along the diagonal from the peak).
    ``U`` is ``S_0`` exactly when ``S_1`` is 0.
    ``cnorm == supnorm + seminorm`` exactly.
    """

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


def _lag_maximum(v: np.ndarray, k: int, out: np.ndarray) -> float:
    """``M(k) = max |v[i + k, j] - v[i, j]|`` over the pairs on the grid.

    The differences go into the first rows of ``out`` (an array of ``v``'s
    shape), so that no array the size of the grid is allocated per lag.
    """
    diff = out[:len(v) - k]
    return np.abs(np.subtract(v[k:], v[:len(v) - k], diff), diff).max()


def _tile_extrema(hi: np.ndarray, lo: np.ndarray):
    """Maxima of ``hi`` and minima of ``lo`` over tiles of ``_BLOCK``
    entries per axis (the last tile of an axis may be shorter)."""
    starts = [np.arange(0, n, _BLOCK) for n in hi.shape]
    return (np.maximum.reduceat(np.maximum.reduceat(hi, starts[0], axis=0),
                                starts[1], axis=1),
            np.minimum.reduceat(np.minimum.reduceat(lo, starts[0], axis=0),
                                starts[1], axis=1))


def _block_bounds(hi, lo, x0: int, wx: int) -> np.ndarray:
    """``b[q - x0] >= M(k)`` for every lag with ``k // s == q``, over the
    lag blocks ``x0 <= q < x0 + wx`` (``x0`` a tile on the grid), from the
    maxima ``hi`` and minima ``lo`` of tiles of ``s`` nodes per axis.

    A pair at lag k joins a tile I to the tile J of the same column of
    tiles offset by ``k // s`` or one more along axis 0, so its difference
    is at most ``max(hi[J] - lo[I], hi[I] - lo[J])`` over those tile pairs.
    Only offsets on the grid are visited, and at offset ``p`` only the
    ``tx - p`` rows of tiles that have a partner, so a window of ``w``
    offsets costs at most ``w`` times the tile count.  Rounding is
    monotone, so each computed bound is at least every computed difference
    it covers.
    """
    tx, ty = hi.shape
    u = np.full(wx + 1, -np.inf)  # u[p - x0]: tile offset p
    rows = tx - x0
    window = min(wx + 1, rows)
    # his[a, i] = hi[x0 + a + i], padded with -inf (los: +inf) so that a
    # tile off the grid never wins
    pad = np.empty((2, rows + window - 1, ty))
    pad[0], pad[1] = -np.inf, np.inf
    pad[0, :rows], pad[1, :rows] = hi[x0:], lo[x0:]
    his, los = sliding_window_view(pad, window, axis=1).transpose(0, 3, 1, 2)
    a = 0
    while a < window:
        n = rows - a  # rows of tiles with a partner at offset x0 + a
        width = max(1, _CHUNK // (n * ty))  # offsets at once
        c = slice(a, min(window, a + width))
        np.maximum(u[c], (his[c, :n] - lo[:n]).max(axis=(1, 2)), out=u[c])
        np.maximum(u[c], (hi[:n] - los[c, :n]).max(axis=(1, 2)), out=u[c])
        a = c.stop
    return np.maximum(u[:-1], u[1:])  # p in {q, q + 1}


def _ranked_lags(hi, lo, dpow, x0: int, wx: int):
    """The lags in the ``_BLOCK`` lag blocks ``[x0, x0 + wx)`` and their
    ranks: each lag's block bound over its ``d ** theta``, and 0 where
    ``d`` is 0 (``d ** theta`` is 0 exactly there, since theta > 0)."""
    lags = np.arange(_BLOCK * x0, min(_BLOCK * (x0 + wx), len(dpow)))
    dp = dpow[lags]
    bound = np.repeat(_block_bounds(hi, lo, x0, wx), _BLOCK)[:len(dp)]
    return lags, np.divide(bound, dp, out=np.zeros_like(dp), where=dp > 0.0)


def _axis_seminorm(v: np.ndarray, d: np.ndarray, theta: float) -> float:
    """Exact max of |v[i, j] - v[i', j]| / d[|i - i'|]^theta over the pairs
    of nodes in one column of ``v``.

    On a uniform grid the distance depends only on the index lag k, so the
    maximum is the maximum over lags of M(k) / d(k)^theta with
    M(k) = max |v[i + k, j] - v[i, j]|.  Lags are visited in decreasing
    order of their block bound (``_block_bounds``) over ``d ** theta`` and
    evaluated exactly (``_lag_maximum``), one at a time into one reused
    buffer.  M(k) is at most the bound and both divide by the same float
    ``d ** theta``, so once the ranked bound is at or below the running
    best no later lag can beat it.

    The bounds come from two levels of tiles.  Tiles of ``_BLOCK`` nodes
    per axis bound the lag blocks of ``_BLOCK`` lags, at a cost of the
    tile count per tile offset.  With at most ``_FEW_TILES`` tiles along
    axis 0 every lag block is bounded at once.  Beyond that, coarse tiles
    of ``_BLOCK`` tiles per axis first bound the coarse lag blocks of
    ``_BLOCK ** 2`` lags, each ranked by its bound over its smallest
    ``d ** theta``, which is at least every lag rank in it, again by
    monotone rounding.  The scan is best first: a coarse block gets its
    fine bounds when its rank is the largest pending rank of a block or
    lag, and a lag is evaluated when its rank is.  So it evaluates lags in
    the order the one-level scan would, and stops when no block or lag
    still ranks above the running best.  Which lags are evaluated cannot
    change the maximum, so the result is the same float either way.
    """
    dpow = d ** theta
    hi, lo = _tile_extrema(v, v)
    if len(hi) <= _FEW_TILES:
        blocks = [(np.inf, (0, len(hi)))]  # one block of every lag
    else:
        chi, clo = _tile_extrema(hi, lo)
        dmin = np.minimum.reduceat(np.where(dpow > 0.0, dpow, np.inf),
                                   np.arange(0, len(d), _BLOCK * _BLOCK))
        coarse = _block_bounds(chi, clo, 0, len(chi)) / dmin
        order = np.argsort(coarse)[::-1]
        blocks = [(r, (_BLOCK * q, _BLOCK))
                  for r, q in zip(coarse[order].tolist(), order.tolist())]
    out = np.empty_like(v)
    best = 0.0
    lags, rank = np.zeros(0, dtype=int), np.zeros(0)  # pending, best first
    # the last entry ranks at or below any best, so it ends the scan
    for block_rank, block in blocks + [(0.0, None)]:
        done = 0
        for r, k in zip(rank, lags.tolist()):
            if r <= best or r <= block_rank:
                break
            best = max(best, float(_lag_maximum(v, k, out) / dpow[k]))
            done += 1
        if block_rank <= best:
            return best
        new_lags, new_rank = _ranked_lags(hi, lo, dpow, *block)
        keep = new_rank > best
        lags = np.concatenate([lags[done:], new_lags[keep]])
        rank = np.concatenate([rank[done:], new_rank[keep]])
        order = np.argsort(rank)[::-1]
        lags, rank = lags[order], rank[order]


def _axis_seminorms(f: GridField, theta: float) -> list:
    """``S_a``, the exact largest quotient over the node pairs that differ
    along axis ``a`` only, for each axis: one ``_axis_seminorm`` of the
    field with axis ``a`` moved first, with the axis's torus distances."""
    return [_axis_seminorm(
        np.ascontiguousarray(np.moveaxis(f.values, a, 0)).reshape(n, -1),
        _lag_distances(f, a), theta) for a, n in enumerate(f.resolution)]


def holder_seminorm(f: GridField, theta: float) -> HolderEstimate:
    """An upper bound for H_theta(f) = sup |f(x)-f(y)| / d(x,y)^theta of the
    interpolant, exact in 1-D.

    Each axis is scanned on its own (``_axis_seminorms``): ``S_a`` is the
    exact maximum over the node pairs that differ along axis ``a`` only,
    the duplicate endpoint included, so it is deterministic.  In 1-D the
    result is ``S_0``, the seminorm of the piecewise-linear interpolant
    exactly.  In 2-D it is ``U``, the l^(2/(2-theta)) norm of
    ``(S_0, S_1)``, an upper bound for the seminorm of the bilinear
    interpolant (see :class:`HolderEstimate`); ``U`` is ``S_0`` exactly
    when ``S_1`` is 0.  Each scan is a branch-and-bound over index lags
    (``_axis_seminorm``): tile maxima and minima bound every lag, and only
    the lags whose bound can still win are evaluated exactly, O(N) array
    work each for N nodes.  The bounds take the tile count times the
    number of 8-node tiles along the axis, up to ``_FEW_TILES`` of them;
    beyond, the same for 64-node tiles, plus the 8-node tile count for each
    block of 64 lags that can still win.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must be in (0,1]")
    s = _axis_seminorms(f, theta)
    top = max(s)
    if top > 0.0:
        # relative to the largest entry, whose term is then 1 exactly, so
        # a zero entry leaves the other's value bit for bit
        p = 2.0 / (2.0 - theta)
        top *= sum((x / top) ** p for x in s) ** (1.0 / p)
    return HolderEstimate(top, f.supnorm())
