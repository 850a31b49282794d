"""Polygonal 2-disks, and exact integration of grid-sampled 1-forms.

A disk is a polygon, given by its corners in boundary order;
``rectangle_corners`` gives those of axis-aligned rectangles.  Polygons are
measured and integrated in one array layout: the vertices of n polygons, of
any mix of corner counts, in one flat array, each edge running to the next
vertex of its polygon and the last one wrapping to the first.
``measure_polygons`` takes the lengths, areas and diameters of n polygons
in closed form, and ``polygon_boundary_integrals`` integrates a
grid-sampled 1-form over the boundaries of n polygons at once, exactly,
with no quadrature: its edges are cut at grid-line crossings, and on each
piece the bilinear interpolant is a quadratic that a 2-point rule
integrates exactly.  No 2-form is integrated on its own: the bilinear
interpolant is Lipschitz, so by Stokes' theorem the integral of
``d alpha`` over a polygon is the boundary integral of ``alpha``, which
is how ``inequality.mollification_split_check`` takes its interior term.

One-form components are grid-sampled fields read through bilinear
interpolation (the native representation for Holder forms), or ``None``
for identically zero; ``OneForm`` checks this when it is built.  A 1-D
field is a function of x alone (``W(x) dy`` stores its ``W`` so), read at
the x coordinates of points: ``_read_component`` is the one place a
component is read at points.  Its boundary integrals cut edges at x grid
lines only.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import GridField

__all__ = [
    "OneForm",
    "ChainMeasures",
    "rectangle_corners",
    "measure_polygons",
    "polygon_boundary_integrals",
]

_UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def rectangle_corners(lo, hi) -> np.ndarray:
    """Corners of the axis-aligned rectangles ``[lo, hi]``, ``(..., 4, 2)``.

    ``lo`` and ``hi`` are ``(..., 2)`` arrays that broadcast together.  The
    corners run counter-clockwise from ``lo``: corner ``(r, s)`` of the unit
    square is ``lo + (hi - lo) * (r, s)``, so the far corner is
    ``x0 + (x1 - x0)``, which need not be ``x1`` in floating point.  Every
    rectangle the package builds takes its corners from here.
    """
    lo = np.asarray(lo, dtype=float)[..., None, :]
    hi = np.asarray(hi, dtype=float)[..., None, :]
    return lo + (hi - lo) * _UNIT_SQUARE


def _read_component(c, pts: np.ndarray) -> np.ndarray:
    """Values at planar points ``pts`` (shape ``(..., 2)``) of a component.

    ``None`` is identically zero, a 2-D ``GridField`` is interpolated at
    ``pts``, and a 1-D one, a function of x alone, is interpolated at the x
    coordinates ``pts[..., :1]`` (its ``(..., 1)`` points, never mistaken
    for a batch of coordinates).
    """
    if c is None:
        return np.zeros(pts.shape[:-1])
    return c.evaluate(pts[..., :c.dim])


class OneForm:
    """Grid-sampled 1-form a1 dx + a2 dy.

    Each component is a ``GridField`` or ``None`` (identically zero), and
    at least one is a ``GridField``; any other pair raises ``ValueError``
    naming the type of each component.  Two ``GridField`` components must
    share one grid.
    """

    def __init__(self, a1, a2, theta: float):
        self.a1, self.a2, self.theta = a1, a2, theta
        comps = (a1, a2)
        grids = self.grid_components()
        if not grids or any(c is not None and not isinstance(c, GridField)
                            for c in comps):
            a1, a2 = (type(c).__name__ for c in comps)
            raise ValueError(f"need a grid-sampled form, each component a "
                             f"GridField or None and at least one a "
                             f"GridField; got a1: {a1}, a2: {a2}")
        if len(grids) == 2:
            grids[0]._check_same_grid(grids[1])

    def component(self, i: int, pts: np.ndarray) -> np.ndarray:
        return _read_component(self.a1 if i == 0 else self.a2, pts)

    def grid_components(self):
        """The ``GridField`` components, in the order a1, a2."""
        return [c for c in (self.a1, self.a2) if isinstance(c, GridField)]


class ChainMeasures:
    def __init__(self, length: float, area: float, diameter: float):
        if not all(v >= 0.0 for v in (length, area, diameter)):
            raise ValueError("measures must be nonnegative numbers")
        self.length, self.area, self.diameter = length, area, diameter


def _polygon_edges(corners):
    """Flat vertex layout of n polygons and the index of each edge's end.

    ``corners`` is an ``(n, m, 2)`` array of n polygons with m corners each,
    or a sequence of n vertex sequences of any lengths.  A ``None`` entry,
    fewer than 3 corners or a non-finite corner raises ``ValueError``.
    Returns the ``(V, 2)`` vertices of all polygons in boundary order; for
    each vertex its polygon ``owner``, the index ``first`` of that
    polygon's first vertex and the index ``nxt`` of the vertex that follows
    it on the boundary (the last one wraps to ``first``); and n.
    """
    if isinstance(corners, np.ndarray) and corners.ndim == 3:
        n, m = corners.shape[:2]
        verts = corners.reshape(-1, 2).astype(float, copy=False)
        counts = np.full(n, m)
    else:
        for i, c in enumerate(corners):
            if c is None:
                raise ValueError(f"a disk is given by its corners: "
                                 f"corners[{i}] is None")
        n = len(corners)
        counts = np.array([len(c) for c in corners], dtype=int)
        verts = np.array([v for c in corners for v in c],
                         dtype=float).reshape(-1, 2)
    if (counts < 3).any():
        raise ValueError("a polygon needs at least 3 corners")
    bad = ~np.isfinite(verts).all(axis=1)
    if bad.any():
        raise ValueError(f"corners must be finite: {verts[bad][0].tolist()}")
    owner = np.repeat(np.arange(n), counts)
    start = np.cumsum(counts) - counts
    nxt = np.arange(len(verts)) + 1
    nxt[start + counts - 1] = start
    return verts, owner, start[owner], nxt, n


def measure_polygons(corners):
    """Boundary lengths, areas and diameters of n polygons, closed form.

    ``corners`` is an ``(n, m, 2)`` array of n polygons with m corners each,
    or a sequence of n vertex sequences of any lengths (at least 3).  With a
    polygon's vertices ``v_0 .. v_{m-1}`` and its closed boundary's edges
    ``(dx, dy) = v_{i+1} - v_i``:

    * length: ``sum sqrt(dx*dx + dy*dy)`` over the edges, in vertex order;
    * area: ``|shoelace| / 2`` about ``v_0``, i.e. half the absolute sum of
      the cross products ``u_i x u_{i+1}`` of ``u_i = v_i - v_0``, in
      vertex order.  For a rectangle the only nonzero terms are two copies
      of ``dx*dy``, so the area is ``fl(dx*dy)`` exactly; a shoelace about
      the origin would cancel away the digits of a small square far from
      the origin;
    * diameter: the largest vertex-pair distance ``sqrt(dx*dx + dy*dy)``,
      because a polygon's diameter is attained at two of its vertices.

    Sums run in vertex order through ``np.bincount`` (``np.sum`` would
    reorder sums of 8 or more terms), so each value is the one a Python
    loop over the vertices gives, bit for bit.  Returns three float arrays
    of length n.
    """
    verts, owner, first, nxt, n = _polygon_edges(corners)
    x, y = verts.T.copy()
    ids = np.arange(len(x))
    dx, dy = x[nxt] - x, y[nxt] - y
    length = np.bincount(owner, np.sqrt(dx * dx + dy * dy), minlength=n)
    ux, uy = x - x[first], y - y[first]
    i = np.flatnonzero((ids != first) & (nxt == ids + 1))  # not first or last
    cross = ux[i] * uy[i + 1] - ux[i + 1] * uy[i]
    area = np.abs(np.bincount(owner[i], cross, minlength=n)) / 2.0
    diameter = np.zeros(n)
    count = np.bincount(owner, minlength=n)
    stop = first + count[owner]
    for k in range(1, count.max(initial=0)):
        i = np.flatnonzero(ids + k < stop)  # pairs (v_i, v_{i+k}) of a polygon
        dx, dy = x[i + k] - x[i], y[i + k] - y[i]
        np.maximum.at(diameter, owner[i], np.sqrt(dx * dx + dy * dy))
    return length, area, diameter


def _pullback(alpha: OneForm, pts: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """``a1(p)*vx + a2(p)*vy``: alpha along a curve through p with velocity v."""
    return (alpha.component(0, pts) * vel[..., 0]
            + alpha.component(1, pts) * vel[..., 1])


def polygon_boundary_integrals(alpha: OneForm, corners) -> list:
    """``int_dP alpha`` for each polygon P of ``corners``.

    ``corners`` is laid out as ``measure_polygons`` reads it: an
    ``(n, m, 2)`` array or a sequence of vertex sequences of mixed lengths,
    such as ``rectangle_corners`` gives; a ``None`` entry raises
    ``ValueError``.

    ``alpha``, grid-sampled as every ``OneForm`` is, is integrated
    exactly.  Each edge ``a + t*d``, ``t`` in [0, 1], is cut at every ``t``
    where it crosses a grid line ``lo[ax] + m*h[ax]``, for every integer
    ``m`` and every axis ``ax`` of the grid, so wraps round the torus need
    no special case; a 1-D grid has lines in x only.  Each piece
    ``[t0, t1]`` lies in one cell, where ``alpha(a + t*d) . d`` is a
    quadratic in ``t``; the 2-point Gauss-Legendre rule with nodes
    ``mid -/+ half/sqrt(3)`` and weights ``half`` integrates it exactly.
    All pieces of all edges are evaluated together and summed per polygon
    in boundary order (by edge, then by ``t``), so the integrals carry
    rounding error only.

    An edge whose velocity entry ``d[ax]`` is 0 for every non-``None``
    component ``ax`` (a horizontal edge under ``W(x) dy``) pulls back to
    exactly 0, so it is dropped before cutting: its pieces would only add
    zeros to its polygon's sum, and the long horizontal edges of ``decay``
    would each be cut at thousands of grid crossings.
    """
    grid = alpha.grid_components()[0]
    a, owner, _, nxt, n_disks = _polygon_edges(corners)
    if n_disks == 0:
        return []
    d = a[nxt] - a
    live = np.zeros(len(a), dtype=bool)
    for ax, c in enumerate((alpha.a1, alpha.a2)):
        if c is not None:
            live |= d[:, ax] != 0.0
    a, d, owner = a[live], d[live], owner[live]
    ids = np.arange(len(a))
    edge, t = [ids, ids], [np.zeros(len(a)), np.ones(len(a))]
    for ax in range(grid.dim):
        # edge coordinates in grid-index units; integers are grid lines
        u0 = (a[:, ax] - grid.lo[ax]) / grid.spacing[ax]
        u1 = (a[:, ax] + d[:, ax] - grid.lo[ax]) / grid.spacing[ax]
        first = np.floor(np.minimum(u0, u1)) + 1.0
        count = np.maximum(np.ceil(np.maximum(u0, u1)) - first, 0).astype(int)
        crossing = np.repeat(ids, count)
        m = first[crossing] + (np.arange(crossing.size)
                               - np.repeat(np.cumsum(count) - count, count))
        edge.append(crossing)
        t.append(np.clip((m - u0[crossing]) / (u1 - u0)[crossing], 0.0, 1.0))
    edge, t = np.concatenate(edge), np.concatenate(t)
    order = np.lexsort((t, edge))
    edge, t = edge[order], t[order]
    same = edge[1:] == edge[:-1]
    e, t0, t1 = edge[1:][same], t[:-1][same], t[1:][same]
    half = 0.5 * (t1 - t0)
    mid = t0 + half
    off = half / math.sqrt(3.0)
    nodes = np.stack([mid - off, mid + off])
    pts = a[e] + nodes[..., None] * d[e]
    values = half * np.sum(_pullback(alpha, pts, d[e]), axis=0)
    return np.bincount(owner[e], weights=values, minlength=n_disks).tolist()
