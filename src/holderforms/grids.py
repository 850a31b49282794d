"""Sampled scalar fields on flat tori.

A :class:`GridField` stores uniform samples of a scalar function on a flat
torus of dimension 1 or 2: an axis-aligned box whose opposite edges are
identified, so every axis wraps.  Each node of the torus is stored once,
and index arithmetic alone makes the field periodic: a point's cell is
taken mod the samples ``m`` of its axis, and an index lag ``k`` spans
``min(k, m - k)`` cells.  Values between nodes are obtained by bilinear
interpolation, which keeps every Lipschitz estimate conservative
(interpolation never increases the cellwise Lipschitz constant).

The Holder seminorm is scanned one axis at a time.  Along each axis it is
the exact maximum over the node pairs that differ along that axis only,
found by a branch-and-bound over index lags: tile maxima and minima bound
the largest difference at every lag, and only the lags whose bound can
still beat the running best are evaluated exactly (88 of 2046 on the
Weierstrass field at resolution 2048, 2047 samples).  On long axes coarse
tiles bound blocks of 64 lags first, so that only the blocks that can still
win get fine bounds (15 of 2048 on the 16-term Weierstrass field at
resolution 131072, where 95 lags are evaluated).  It is deterministic.  In 1-D it is the seminorm of the
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


class GridField:
    """Uniformly sampled scalar function on a flat torus, bilinear between
    nodes.

    ``values`` holds one sample per node of the torus (axis 0 is the first
    coordinate): along axis ``a`` node ``i`` sits at ``lo[a] + i*h`` with
    ``h = (hi[a] - lo[a]) / m`` and ``m = values.shape[a]``.  Every axis is
    periodic with period ``hi - lo``, so the cell after the last node runs
    back to the node at ``lo``.
    """

    def __init__(self, lo: tuple, hi: tuple, values: np.ndarray):
        v = np.array(values, dtype=float)
        if v.ndim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if v.size == 0:
            raise ValueError("need at least one sample per axis")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        for ax in range(v.ndim):
            if hi[ax] <= lo[ax]:
                raise ValueError("domain must have positive extent")
        self.lo, self.hi, self.values = lo, hi, v

    @property
    def resolution(self) -> tuple:
        """Samples per axis: ``values.shape``."""
        return self.values.shape

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def spacing(self) -> tuple:
        return tuple((self.hi[a] - self.lo[a]) / m
                     for a, m in enumerate(self.resolution))

    def _axis_index(self, ax: int, x: np.ndarray):
        """The node at or below ``x`` along ``ax``, wrapped round the
        torus, the node after it, and the fraction of the cell between."""
        lo, hi = self.lo[ax], self.hi[ax]
        m = self.resolution[ax]
        t = np.mod((x - lo) / ((hi - lo) / m), m)
        i = np.minimum(t.astype(int), m - 1)
        return i, (i + 1) % m, t - i

    def evaluate(self, pts) -> np.ndarray:
        """Interpolate at points of shape (..., dim), (..., 1) in 1-D, only."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 0 or pts.shape[-1] != self.dim:
            raise ValueError(f"expected points of shape (..., {self.dim}), "
                             f"got {pts.shape}")
        i, i1, fx = self._axis_index(0, pts[..., 0])
        if self.dim == 1:
            return (1.0 - fx) * self.values[i] + fx * self.values[i1]
        j, j1, fy = self._axis_index(1, pts[..., 1])
        v = self.values
        return (
            (1 - fx) * (1 - fy) * v[i, j]
            + fx * (1 - fy) * v[i1, j]
            + (1 - fx) * fy * v[i, j1]
            + fx * fy * v[i1, j1]
        )

    def supnorm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @classmethod
    def from_function(cls, fn: Callable, lo: tuple, hi: tuple,
                      samples: tuple) -> "GridField":
        """``fn`` sampled at ``samples[a]`` nodes per axis, from ``lo`` up
        to but not including ``hi``: ``fn(x)`` in 1-D, ``fn(x, y)`` on the
        ``ij`` mesh in 2-D."""
        axes = [np.linspace(a, b, m + 1)[:-1]
                for a, b, m in zip(lo, hi, samples)]
        vals = fn(*np.meshgrid(*axes, indexing="ij"))
        return cls(lo, hi, vals)


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
    bilinear interpolant, with equality on the 2 x 2 grid of the unit
    torus with 1 at node (1, 1), the centre, and 0 elsewhere at theta = 1
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

    ``resolution`` counts the nodes of [0, 1] with both ends, so the field
    holds ``resolution - 1`` samples at spacing ``1 / (resolution - 1)``.
    The grid must resolve the finest oscillation: resolution >= 4 * base^(terms-1).
    """
    finest = base ** (terms - 1)
    if resolution < 4 * finest:
        raise UnderResolvedError(
            f"resolution {resolution} < 4*base^(terms-1) = {4 * finest}; "
            "the finest oscillation would be aliased"
        )
    w = weierstrass_callable(theta, base, terms)
    return GridField.from_function(w, (0.0,), (1.0,), (resolution - 1,))


def _lag_distances(f: GridField, ax: int) -> np.ndarray:
    """Axis distance of index lags 0..m-1: the shorter way round the axis."""
    m = f.resolution[ax]
    k = np.arange(m)
    return np.minimum(k, m - k) * f.spacing[ax]


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
    at their torus distances, so it is deterministic.  In 1-D the
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
