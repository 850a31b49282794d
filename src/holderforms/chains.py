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

A 1-form is a tuple of ``Term``s, each a grid-sampled field ``w`` and a
constant covector ``c``, contributing ``w(p) (c . dp)``: ``W(x) dy`` is
``(Term(W, (0.0, 1.0)),)``.  A field reads the first ``field.dim``
coordinates of a point, so a 1-D field is a function of x alone; that
rule is written once, in ``polygon_boundary_integrals``, which cuts the
edges of each term on that term's own grid.  The terms of a form need not
share a grid, and the empty form is zero.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import GridField

__all__ = [
    "Term",
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


class Term:
    """One term ``w(p) (c . dp)`` of a grid-sampled 1-form: the
    ``GridField`` ``field`` (``w``) and the covector ``(c1, c2)``.

    Any other field raises ``ValueError`` naming its type.
    """

    def __init__(self, field, covector):
        if not isinstance(field, GridField):
            raise ValueError(f"a term's field must be a GridField, got "
                             f"{type(field).__name__}")
        c1, c2 = covector
        self.field, self.covector = field, (float(c1), float(c2))


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


def polygon_boundary_integrals(alpha, corners) -> list:
    """``int_dP alpha`` for each polygon P of ``corners``.

    ``corners`` is laid out as ``measure_polygons`` reads it: an
    ``(n, m, 2)`` array or a sequence of vertex sequences of mixed lengths,
    such as ``rectangle_corners`` gives; a ``None`` entry raises
    ``ValueError``.

    ``alpha``, a tuple of ``Term``s, is integrated exactly, term by term,
    and the per-polygon sums of its terms are added in term order.  A term
    ``w (c . dp)`` pulls an edge ``a + t*d``, ``t`` in [0, 1], back to
    ``w(a + t*d) (c . d)``, with ``w`` read at the first ``w.dim``
    coordinates of the point.  An edge with ``c . d`` = 0 (a horizontal
    edge under ``W(x) dy``) pulls back to exactly 0, so it is dropped
    before cutting: its pieces would only add zeros to its polygon's sum,
    and the long horizontal edges of ``decay`` would each be cut at
    thousands of grid crossings.  Every other edge is cut at every ``t``
    where it crosses a grid line ``lo[ax] + m*h[ax]`` of the term's grid,
    for every integer ``m`` and every axis ``ax`` of that grid, so wraps
    round the torus need no special case; a 1-D grid has lines in x only.
    Each piece ``[t0, t1]`` lies in one cell, where the pullback is a
    quadratic in ``t``; the 2-point Gauss-Legendre rule with nodes
    ``mid -/+ half/sqrt(3)`` and weights ``half`` integrates it exactly.
    All pieces of all edges of a term are evaluated together and summed
    per polygon in boundary order (by edge, then by ``t``), so the
    integrals carry rounding error only.
    """
    a, owner, _, nxt, n_disks = _polygon_edges(corners)
    d = a[nxt] - a
    sums = np.zeros(n_disks)
    for term in alpha:
        sums += _term_integrals(term, a, d, owner, n_disks)
    return sums.tolist()


def _term_integrals(term: Term, a, d, owner, n_disks: int) -> np.ndarray:
    """The integrals of one term over the edges ``a + t*d`` of ``n_disks``
    polygons, each edge's polygon its ``owner``: see
    ``polygon_boundary_integrals``."""
    grid, (c1, c2) = term.field, term.covector
    cd = d[:, 0] * c1 + d[:, 1] * c2
    live = cd != 0.0
    a, d, cd, owner = a[live], d[live], cd[live], owner[live]
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
    values = half * np.sum(grid.evaluate(pts[..., :grid.dim]) * cd[e], axis=0)
    return np.bincount(owner[e], weights=values, minlength=n_disks)
