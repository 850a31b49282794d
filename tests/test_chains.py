import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holderforms.chains import (
    Term,
    measure_polygons,
    polygon_boundary_integrals,
    rectangle_corners,
)
from holderforms.decay import USRectangle
from holderforms.experiments import (
    dyadic_square_family, random_convex_polygon_vertices, weierstrass_form,
)
from holderforms.grids import GridField, make_weierstrass
from holderforms.inequality import mollify_one_form, one_form_cnorm
from helpers import (
    AnalyticForm, ParamCurve, QuadratureError, adaptive_quadrature, circle,
    curve_length, cut_strips, exterior_derivative, green_area,
    integrate_one_form, integrate_two_form, line_segment, matched_ends,
    one_form, per_edge_quadrature, polygon_edges,
)


def one(p):
    """The constant 1, as an analytic component."""
    return np.ones(p.shape[:-1])


def constant_field(c):
    """The constant ``c`` on [-4, 4]^2, whose 2-form integral is c * area."""
    return GridField((-4.0, -4.0), (4.0, 4.0), (2, 2), np.full((2, 2), c))


class TestAdaptiveQuadrature:
    """The reference quadrature of ``tests/helpers.py``."""

    def test_polynomial_is_exact(self):
        val = adaptive_quadrature(
            lambda t, w: float(np.sum(w * t ** 7)))
        assert val == pytest.approx(1.0 / 8.0, abs=1e-14)

    def test_oscillatory_integrand(self):
        val = adaptive_quadrature(
            lambda t, w: float(np.sum(w * np.cos(40.0 * t))))
        assert val == pytest.approx(math.sin(40.0) / 40.0, abs=1e-10)

    def test_failure_carries_last_two_values(self):
        rng = np.random.default_rng(0)

        def noisy(t, w):
            return float(np.sum(w * rng.standard_normal(t.shape)))

        with pytest.raises(QuadratureError) as exc:
            adaptive_quadrature(noisy)
        assert exc.value.last is not None
        assert exc.value.previous is not None
        assert exc.value.last != exc.value.previous

    @pytest.mark.parametrize("total", [float, np.sum])
    def test_scalar_integrand_returns_a_float(self, total):
        val = adaptive_quadrature(lambda t, w: total(np.sum(w * t)))
        assert type(val) is float
        assert val == pytest.approx(0.5, abs=1e-15)


def reversed_curve(c):
    """``c`` run backwards: ``t -> c(1 - t)``."""
    return ParamCurve(lambda t: c.point(1.0 - np.asarray(t)),
                      lambda t: -c.velocity(1.0 - np.asarray(t)))


def ellipse(a, b):
    """The ellipse with semi-axes ``a`` and ``b`` about the origin, once
    counter-clockwise."""
    turn = 2.0 * np.pi
    return ParamCurve(
        lambda t: np.stack([a * np.cos(turn * t), b * np.sin(turn * t)], -1),
        lambda t: turn * np.stack([-a * np.sin(turn * t),
                                   b * np.cos(turn * t)], -1))


class TestCurves:
    def test_circle_length(self):
        assert curve_length(circle((0.0, 0.0), 2.0)) == pytest.approx(
            4.0 * math.pi, rel=1e-10)

    def test_rectangle_length(self):
        d = rectangle_corners((0.0, 0.0), (0.3, 0.1))
        ((perimeter,), _, _) = measure_polygons([d])
        assert sum(curve_length(e) for e in polygon_edges(d)) == \
            pytest.approx(0.8, abs=1e-12)
        assert perimeter == pytest.approx(0.8, abs=1e-12)

    def test_open_curve(self):
        c = line_segment((0.0, 0.0), (1.0, 1.0))
        assert not c.is_closed()
        assert circle((0.3, -0.2), 0.5).is_closed()
        assert curve_length(c) == pytest.approx(math.sqrt(2.0))

    def test_reversed_negates_line_integral(self):
        alpha = AnalyticForm(lambda p: p[..., 1], lambda p: p[..., 0] ** 2)
        for c in (line_segment((0.5, 0.2), (0.3, 0.9)),
                  circle((0.3, -0.2), 0.5)):
            a = integrate_one_form(alpha, c)
            b = integrate_one_form(alpha, reversed_curve(c))
            assert b == pytest.approx(-a, abs=1e-12)


def torus_sin_cos_form(n=65):
    """``sin(2 pi y) dx + cos(2 pi x) dy`` sampled on n x n nodes of the unit
    torus: a grid-sampled form whose interpolant is at most 1 in size."""
    def sampled(fn):
        return GridField.from_function(fn, (0.0, 0.0), (1.0, 1.0), (n, n))
    return one_form(sampled(lambda x, y: np.sin(2.0 * np.pi * y)),
                    sampled(lambda x, y: np.cos(2.0 * np.pi * x)))


class TestPolygonBoundaryIntegrals:
    def test_batch_equals_one_disk_at_a_time(self):
        alpha = torus_sin_cos_form()
        corners = [rectangle_corners((x, y), (x + w, y + h))
                   for x, y, w, h in [(0.0, 0.0, 2.0, 0.1),
                                      (0.3, -1.0, 0.1, 0.1),
                                      (-1.0, 0.5, 0.45, 1.3),
                                      (0.2, 0.2, 0.2, 0.2)]]
        batch = polygon_boundary_integrals(alpha, corners)
        assert batch == [polygon_boundary_integrals(alpha, [c])[0]
                         for c in corners]
        assert all(type(v) is float for v in batch)

    @settings(max_examples=40, deadline=None)
    @given(x0=st.floats(-2.0, 2.0), y0=st.floats(-2.0, 2.0),
           w=st.floats(1e-3, 3.0), h=st.floats(1e-3, 3.0))
    def test_reversed_corners_negate(self, x0, y0, w, h):
        d = rectangle_corners((x0, y0), (x0 + w, y0 + h))
        fwd, back = polygon_boundary_integrals(torus_sin_cos_form(),
                                               [d, d[::-1]])
        # the samples of sin and cos are at most 1 in size, and so is their
        # interpolant: each integral is at most the perimeter
        ((scale,), _, _) = measure_polygons([d])
        assert abs(fwd + back) <= 1e-12 * scale

    def test_curved_disk_is_rejected(self):
        # a disk without corners (None) is not a polygon
        with pytest.raises(ValueError, match="corners"):
            polygon_boundary_integrals(
                torus_sin_cos_form(),
                [rectangle_corners((0, 0), (1, 1)), None])

    def test_form_that_is_not_grid_sampled_is_rejected(self):
        # an analytic field, a missing one or bare samples are rejected when
        # the term is built; the error names the field's type
        for field, name in [(one, "function"), (None, "NoneType"),
                            (np.ones(3), "ndarray")]:
            with pytest.raises(ValueError,
                               match=f"must be a GridField, got {name}$"):
                Term(field, (0.0, 1.0))


@st.composite
def grid_polygons(draw):
    """A grid (as GridField keywords) and a polygon inside the box
    ``[lo, lo + size]``, which ends one cell before the grid's ``hi`` on
    each axis: there a field with matched ends equals a sampled function
    that is not periodic, and only its last cell wraps.

    The polygon is a rotated square, a triangle or a thin rotated rectangle.
    """
    lo = np.array([draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))])
    size = np.array([draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0))])
    res = (draw(st.integers(3, 40)), draw(st.integers(3, 40)))
    hi = lo + size * (np.array(res) - 1) / (np.array(res) - 2)
    grid = dict(lo=tuple(lo), hi=tuple(hi), resolution=res)
    centre = lo + size * np.array([draw(st.floats(0.25, 0.75)),
                                   draw(st.floats(0.25, 0.75))])
    r = 0.24 * min(size) * draw(st.floats(0.05, 1.0))
    phi = draw(st.floats(0.0, 2.0 * np.pi))
    shape = draw(st.sampled_from(["square", "triangle", "thin"]))
    if shape == "square":
        ang = phi + np.arange(4) * np.pi / 2
        rad = np.full(4, r)
    elif shape == "triangle":
        ang = phi + np.cumsum([0.0] + draw(st.lists(
            st.floats(0.4, 2.6), min_size=2, max_size=2)))
        rad = r * np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=3,
                                         max_size=3)))
    else:
        thin = draw(st.floats(1e-3, 0.1))
        half = np.array([[1, -thin], [1, thin], [-1, thin], [-1, -thin]])
        ang = phi + np.arctan2(half[:, 1], half[:, 0])
        rad = r * np.hypot(half[:, 0], half[:, 1]) / math.hypot(1.0, thin)
    verts = centre + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], -1)
    return grid, verts


def _reference_boundary_integral(form, verts):
    """Term by term, edge by edge in Python: cut at each line of the term's
    grid, Simpson per piece."""
    total = 0.0
    for term in form:
        grid, c = term.field, np.array(term.covector)
        for a, b in zip(verts, np.roll(verts, -1, axis=0)):
            d = b - a
            cuts = {0.0, 1.0}
            for ax in range(grid.dim):
                if d[ax] == 0.0:
                    continue
                lo, h = grid.lo[ax], grid.spacing[ax]
                first = math.floor((min(a[ax], b[ax]) - lo) / h)
                last = math.ceil((max(a[ax], b[ax]) - lo) / h)
                for m in range(first, last + 1):
                    t = (lo + m * h - a[ax]) / d[ax]
                    if 0.0 < t < 1.0:
                        cuts.add(t)
            ts = sorted(cuts)
            for t0, t1 in zip(ts, ts[1:]):
                pts = a + np.array([t0, 0.5 * (t0 + t1), t1])[:, None] * d
                f = grid.evaluate(pts[:, :grid.dim]) * (c @ d)
                total += (t1 - t0) / 6.0 * (f[0] + 4.0 * f[1] + f[2])
    return total


class TestExactGridBoundaryIntegrals:
    @settings(max_examples=80, deadline=None)
    @given(case=grid_polygons(),
           coef=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8))
    def test_bilinear_form_equals_green(self, case, coef):
        # p = p0 + p1 x + p2 y + p3 xy is reproduced exactly by bilinear
        # interpolation, and int_dD p dx + q dy = int_D (q_x - p_y) dA with
        # q_x - p_y = (q1 - p2) + q3 y - p3 x, from the polygon's moments
        grid, verts = case
        pc, qc = np.array(coef).reshape(2, 4)
        x, y = np.meshgrid(*(np.linspace(a, b, n) for a, b, n in zip(
            grid["lo"], grid["hi"], grid["resolution"])), indexing="ij")
        form = one_form(*(GridField(values=matched_ends(
            c[0] + c[1] * x + c[2] * y + c[3] * x * y), **grid)
            for c in (pc, qc)))
        vx, vy = verts[:, 0], verts[:, 1]
        xn, yn = np.roll(vx, -1), np.roll(vy, -1)
        cross = vx * yn - xn * vy
        area = cross.sum() / 2.0
        mx = ((vx + xn) * cross).sum() / 6.0
        my = ((vy + yn) * cross).sum() / 6.0
        green = (qc[1] - pc[2]) * area + qc[3] * my - pc[3] * mx
        (exact,) = polygon_boundary_integrals(form, [verts])
        size = max(t.field.supnorm() for t in form)
        ((length,), _, _) = measure_polygons([verts])
        assert abs(exact - green) <= 1e-13 * length * size

    @settings(max_examples=60, deadline=None)
    @given(case=grid_polygons(), seed=st.integers(0, 2**32 - 1))
    def test_rough_form_equals_a_per_edge_reference(self, case, seed):
        # random node values: the interpolant kinks at every grid line, so
        # a missed crossing shows
        grid, verts = case
        rng = np.random.default_rng(seed)
        form = one_form(*(GridField(values=matched_ends(
            rng.normal(size=grid["resolution"])), **grid)
            for _ in range(2)))
        (exact,) = polygon_boundary_integrals(form, [verts])
        size = max(t.field.supnorm() for t in form)
        ((length,), _, _) = measure_polygons([verts])
        assert abs(exact - _reference_boundary_integral(form, verts)) <= (
            1e-13 * length * size)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_vertices=st.integers(3, 12),
           res=st.integers(3, 40), frac=st.floats(0.01, 1.0),
           cx=st.floats(0.0, 1.0), cy=st.floats(0.0, 1.0))
    def test_green_identity_on_convex_polygons(self, seed, n_vertices, res,
                                               frac, cx, cy):
        # x dy as a 1-D field and (x dy - y dx)/2 as a 2-D one, sampled on
        # [-2, 2] with matched ends: below the seam cell [2 - h, 2] their
        # interpolants are x and y, so each boundary integral is the area.
        # The interpolant rounds to the samples' size, not to the area's,
        # so the error is bounded per unit of boundary length
        h = 4.0 / (res - 1)
        r = frac * (2.0 - 0.5 * h)
        centre = -2.0 + r + (4.0 - h - 2.0 * r) * np.array([cx, cy])
        verts = centre + r * np.array(random_convex_polygon_vertices(
            random.Random(seed), n_vertices))
        x = np.linspace(-2.0, 2.0, res)
        xs, ys = np.meshgrid(x, x, indexing="ij")

        def field(values):
            lo, hi = (-2.0,) * values.ndim, (2.0,) * values.ndim
            return GridField(lo, hi, values.shape, matched_ends(values))

        x_dy = one_form(None, field(x.copy()))
        half = one_form(field(-0.5 * ys), field(0.5 * xs))
        ((length,), (area,), _) = measure_polygons([verts])
        for form, size in ((x_dy, 2.0), (half, 1.0)):
            fwd, back = polygon_boundary_integrals(form, [verts, verts[::-1]])
            assert abs(fwd - area) <= 1e-13 * length * size
            assert abs(back + area) <= 1e-13 * length * size

    def test_mixed_corner_counts_equal_one_disk_calls(self):
        alpha = weierstrass_form(0.5)
        square = rectangle_corners((0.1, 0.2), (0.35, 0.45))
        triangle = [(0.5, 0.1), (0.9, 0.3), (0.6, 0.7)]
        family = [square, triangle, square]
        assert polygon_boundary_integrals(alpha, family) == [
            polygon_boundary_integrals(alpha, [c])[0] for c in family]

    def test_zero_velocity_edges_are_dropped_without_changing_a_value(
            self):
        # W(x) dy pulls back to 0 on the horizontal edges, which are dropped
        # before cutting: a rectangle costs the 2 nodes of each of its two
        # vertical edges, however long its horizontal edges are. Each value
        # of a batch with a wrapping strip and a polygon whose every edge is
        # dropped agrees with the reference, which evaluates every edge, and
        # splitting the dropped edges at extra corners changes no value
        alpha = weierstrass_form(0.5, terms=6, resolution=512)
        field = alpha[0].field
        strip = rectangle_corners((0.05, 0.05), (3.4, 0.0564))
        disks = [strip,
                 rectangle_corners((0.1, 0.2), (0.35, 0.45)),
                 [(0.5, 0.1), (0.9, 0.3), (0.6, 0.7)],
                 [(0.2, 0.3), (0.8, 0.3), (0.8, 0.3)]]
        dropped = polygon_boundary_integrals(alpha, disks)
        lengths = measure_polygons(disks)[0]
        size = field.supnorm()
        for verts, value, length in zip(disks, dropped, lengths):
            want = _reference_boundary_integral(alpha, np.array(verts, float))
            assert abs(value - want) <= 1e-13 * length * size
        assert dropped[3] == 0.0
        points = []

        def counting(pts):
            points.append(np.size(pts))
            return GridField.evaluate(field, pts)

        field.evaluate = counting
        (whole,) = polygon_boundary_integrals(alpha, [strip])
        assert points == [4]
        assert whole == dropped[0]
        (x0, y0), (x1, _), (_, y1), _ = strip.tolist()
        split = [(x0, y0), (0.7, y0), (2.9, y0), (x1, y0), (x1, y1),
                 (1.3, y1), (x0, y1)]
        assert polygon_boundary_integrals(alpha, [split]) == [whole]

    def test_terms_on_different_grids_add_up(self):
        # W(x) dy at 2048 nodes plus a dx term on a 33 x 17 grid: each term
        # is cut on its own grid, and the form's integrals are the sums of
        # the one-term integrals, bit for bit
        (w_dy,) = weierstrass_form(0.5, resolution=2048)
        rng = np.random.default_rng(7)
        g_dx = Term(GridField((0.0, 0.0), (1.0, 1.0), (33, 17),
                              matched_ends(rng.normal(size=(33, 17)))),
                    (1.0, 0.0))
        disks = [rectangle_corners((0.1, 0.2), (0.35, 0.45)),
                 [(0.5, 0.1), (0.9, 0.3), (0.6, 0.7)],
                 rectangle_corners((-0.3, 0.6), (1.4, 0.61))]
        both = polygon_boundary_integrals((w_dy, g_dx), disks)
        first = polygon_boundary_integrals((w_dy,), disks)
        second = polygon_boundary_integrals((g_dx,), disks)
        assert both == [a + b for a, b in zip(first, second)]
        assert all(a != 0.0 and b != 0.0 for a, b in zip(first, second))

    def test_empty_form_integrates_to_zeros(self):
        disks = [rectangle_corners((0.1, 0.2), (0.35, 0.45)),
                 [(0.5, 0.1), (0.9, 0.3), (0.6, 0.7)]]
        assert polygon_boundary_integrals((), disks) == [0.0, 0.0]
        assert polygon_boundary_integrals((), []) == []
        with pytest.raises(ValueError, match="empty form has no"):
            one_form_cnorm((), 0.5)


class TestGreenArea:
    """The reference Green's area of ``tests/helpers.py``."""

    def test_circle_off_the_origin(self):
        c = circle((0.3, -0.2), 0.5)
        assert green_area(c) == pytest.approx(math.pi * 0.25, abs=1e-12)

    def test_ellipse(self):
        assert green_area(ellipse(0.4, 0.7)) == pytest.approx(
            math.pi * 0.4 * 0.7, abs=1e-12)

    def test_orientation_flips_sign(self):
        c = reversed_curve(ellipse(0.4, 0.7))
        assert green_area(c) == pytest.approx(-math.pi * 0.4 * 0.7,
                                              abs=1e-12)

    def test_open_curve_is_rejected(self):
        with pytest.raises(ValueError, match="closed"):
            green_area(line_segment((0.0, 0.0), (1.0, 1.0)))


class TestDisks:
    def test_rectangle_area(self):
        assert integrate_two_form(constant_field(1.0), (0.0, 0.0),
                                  (0.25, 0.5)) == pytest.approx(0.125,
                                                                abs=1e-15)

    def test_measures_consistency(self):
        d = rectangle_corners((0.0, 0.0), (0.2, 0.2))
        ((length,), (area,), (diameter,)) = measure_polygons([d])
        assert length == pytest.approx(0.8, abs=1e-12)
        assert area == pytest.approx(0.04, abs=1e-12)
        assert diameter == pytest.approx(0.2 * math.sqrt(2.0), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(x0=st.floats(-2.0, 2.0), y0=st.floats(-2.0, 2.0),
           side=st.floats(1e-6, 2.0), log2_aspect=st.floats(-14.0, 0.0),
           wide=st.booleans())
    def test_rectangle_closed_forms_match_quadrature(self, x0, y0, side,
                                                     log2_aspect, wide):
        # thin sides reach the aspect ratios of the decay strips
        other = max(side * 2.0 ** log2_aspect, 1e-6)
        w, h = (side, other) if wide else (other, side)
        lo, hi = (x0, y0), (x0 + w, y0 + h)
        d = rectangle_corners(lo, hi)
        (xa, ya), _, (xb, yb), _ = d
        dx, dy = xb - xa, yb - ya
        ((length,), (area,), (diameter,)) = measure_polygons([d])
        assert area == abs(dx * dy)
        assert length == pytest.approx(
            sum(curve_length(e) for e in polygon_edges(d)), rel=1e-15)
        assert area == pytest.approx(
            integrate_two_form(constant_field(1.0), lo, hi), rel=1e-15)
        assert diameter <= length / 2.0

    def test_square_family_measures_in_closed_form(self):
        # the CLI's 56 squares of side 2^-j, j = 2..8, measured in one call
        family = dyadic_square_family(range(2, 9), 8)
        lengths, areas, diameters = measure_polygons([c for _, c in family])
        side = np.repeat(2.0 ** -np.arange(2, 9), 8)
        np.testing.assert_allclose(lengths, 4.0 * side, rtol=1e-14, atol=0)
        np.testing.assert_allclose(areas, side * side, rtol=1e-14, atol=0)
        np.testing.assert_allclose(diameters, math.sqrt(2.0) * side,
                                   rtol=1e-14, atol=0)

    def test_curved_disk_is_rejected(self):
        # a disk without corners (None) is not a polygon
        with pytest.raises(ValueError, match="corners"):
            measure_polygons([None])

    def test_nan_corner_is_rejected(self):
        with pytest.raises(ValueError):
            measure_polygons([rectangle_corners((math.nan, 0.0), (1.0, 1.0))])

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(0.05, 2.0), b=st.floats(0.05, 2.0),
           cx=st.floats(-1.0, 1.0))
    def test_repeated_measures_are_bit_identical(self, a, b, cx):
        rough = weierstrass_form(0.5, terms=6, resolution=512)[0].field
        first = integrate_two_form(rough, (cx, 0.5), (cx + a, 0.5 + b))
        integrate_two_form(constant_field(1.0), (0.0, 0.0), (b, a))
        assert integrate_two_form(rough, (cx, 0.5),
                                  (cx + a, 0.5 + b)) == first


@st.composite
def bilinear_fields(draw):
    """A grid sampling p = c0 + c1 x + c2 y + c3 xy, and a rectangle.

    1-D grids sample p(x) = c0 + c1 x.  Along an axis where p does not vary
    (its coefficients are 0) the rectangle may wrap around the period
    several times.  Along any other the grid's ends are matched one cell
    after ``lo + size``, and the rectangle lies in ``[lo, lo + size]``,
    where the interpolant is p.
    """
    dim = draw(st.integers(1, 2))
    wraps = [draw(st.booleans()) for _ in range(dim)]
    c = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=4,
                               max_size=4)))
    if dim == 1:
        c[2:] = 0.0
    if wraps[0]:
        c[[1, 3]] = 0.0
    if dim == 2 and wraps[1]:
        c[[2, 3]] = 0.0
    lo = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(dim)])
    size = np.array([draw(st.floats(0.5, 3.0)) for _ in range(dim)])
    res = tuple(draw(st.integers(2 if w else 3, 40)) for w in wraps)
    # a wrapping axis spans lo + size; any other one cell more
    hi = lo + np.array([w if wrap else w * (n - 1) / (n - 2)
                        for w, n, wrap in zip(size, res, wraps)])
    axes = [np.linspace(a, b, n) for a, b, n in zip(lo, hi, res)]
    x, y = (np.meshgrid(*axes, indexing="ij") if dim == 2
            else (axes[0], 0.0))
    values = np.broadcast_to(c[0] + c[1] * x + c[2] * y + c[3] * x * y, res)
    field = GridField(tuple(lo), tuple(hi), res, matched_ends(values.copy()))
    rect_lo, rect_hi = [], []
    for ax in range(2):
        if ax >= dim:  # a 1-D field is constant in y
            a = draw(st.floats(-3.0, 3.0))
            b = a + draw(st.floats(0.0, 3.0))
        elif wraps[ax]:
            a = lo[ax] + size[ax] * draw(st.floats(-2.0, 2.0))
            b = a + size[ax] * draw(st.floats(0.0, 3.0))
        else:
            u, v = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
            a, b = lo[ax] + size[ax] * u, lo[ax] + size[ax] * v
        rect_lo.append(a)
        rect_hi.append(b)
    return field, c, tuple(rect_lo), tuple(rect_hi)


def _cell_reference(beta, lo, hi):
    """``integrate_two_form`` over a rectangle inside the grid's box, by
    Python loops.

    On each grid cell's overlap with ``[lo, hi]`` the interpolant is
    bilinear (linear in x for a 1-D field), which the 2 x 2 Gauss rule
    integrates exactly.
    """
    axes = []
    for ax in range(beta.dim):
        x = np.linspace(beta.lo[ax], beta.hi[ax], beta.resolution[ax])
        overlaps = [(max(lo[ax], p), min(hi[ax], q)) for p, q in zip(x, x[1:])]
        axes.append([(p, q) for p, q in overlaps if p < q])
    if beta.dim == 1:
        axes.append([(lo[1], hi[1])])
    g = 0.5 / math.sqrt(3.0)
    total = 0.0
    for (a, b), (c, d) in itertools.product(*axes):
        for s, t in itertools.product((0.5 - g, 0.5 + g), repeat=2):
            pt = [a + (b - a) * s, c + (d - c) * t][:beta.dim]
            total += (b - a) * (d - c) / 4.0 * beta.evaluate(np.array(pt))
    return total


class TestIntegrateTwoForm:
    """The bilinear interpolant integrated exactly over a rectangle."""

    @settings(max_examples=120, deadline=None)
    @given(case=bilinear_fields())
    def test_bilinear_polynomial_equals_its_antiderivative(self, case):
        field, c, (a, cy), (b, d) = case
        dx, dy = b - a, d - cy
        # int x = (b^2 - a^2)/2 = dx (a + b)/2, without cancellation
        mx, my = dx * (a + b) / 2.0, dy * (cy + d) / 2.0
        exact = (c[0] * dx * dy + c[1] * mx * dy + c[2] * dx * my
                 + c[3] * mx * my)
        big_x = max(abs(a), abs(b), *map(abs, field.lo[:1] + field.hi[:1]))
        big_y = max(abs(cy), abs(d), *map(abs, field.lo[1:] + field.hi[1:]))
        scale = (abs(c[0]) + abs(c[1]) * big_x + abs(c[2]) * big_y
                 + abs(c[3]) * big_x * big_y) * dx * dy
        got = integrate_two_form(field, (a, cy), (b, d))
        assert type(got) is float
        # the floor covers products that underflow to subnormal numbers
        assert abs(got - exact) <= 1e-13 * scale + np.finfo(float).tiny

    def test_mollified_weierstrass_derivative_equals_a_cell_loop(self):
        # the 2048-node d(alpha_eps) of `stokes-check --resolution 2048`,
        # whose kinked interpolant a tensor-product quadrature cannot resolve
        a_eps = mollify_one_form(weierstrass_form(0.5, resolution=2048), 0.05)
        beta = exterior_derivative(a_eps)
        assert beta.dim == 1
        lo, hi = (0.3, 0.3), (0.5, 0.5)
        got = integrate_two_form(beta, lo, hi)
        want = _cell_reference(beta, lo, hi)
        assert abs(got - want) <= 1e-13 * beta.supnorm() * 0.04

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), res=st.tuples(
        st.integers(2, 12), st.integers(2, 12)),
        corners=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def test_rough_field_equals_a_cell_loop(self, seed, res, corners):
        # random node values: the interpolant kinks at every grid line, so
        # a missed cut shows
        beta = GridField((-1.0, 0.5), (2.0, 1.5), res, matched_ends(
            np.random.default_rng(seed).normal(size=res)))
        (u0, u1), (v0, v1) = sorted(corners[:2]), sorted(corners[2:])
        lo, hi = (-1.0 + 3.0 * u0, 0.5 + v0), (-1.0 + 3.0 * u1, 0.5 + v1)
        got = integrate_two_form(beta, lo, hi)
        want = _cell_reference(beta, lo, hi)
        area = (hi[0] - lo[0]) * (hi[1] - lo[1])
        assert abs(got - want) <= 1e-13 * beta.supnorm() * area

    def test_reversed_rectangle_is_rejected(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            integrate_two_form(constant_field(1.0), (0.5, 0.0), (0.2, 1.0))


def _reference_measures(verts):
    """One polygon's length, area and diameter by per-vertex Python loops."""
    def dist(a, b):
        dx, dy = a[0] - b[0], a[1] - b[1]
        return math.sqrt(dx * dx + dy * dy)

    length = sum(dist(a, b) for a, b in zip(verts, verts[1:] + verts[:1]))
    x0, y0 = verts[0]
    rel = [(x - x0, y - y0) for x, y in verts[1:]]
    twice = sum(xa * yb - xb * ya for (xa, ya), (xb, yb) in zip(rel, rel[1:]))
    diameter = max(dist(a, b) for a, b in itertools.combinations(verts, 2))
    return length, abs(twice) / 2.0, diameter


_COORD = st.floats(-1e3, 1e3)
_POLYGONS = st.lists(st.lists(st.tuples(_COORD, _COORD), min_size=3,
                              max_size=12), min_size=1, max_size=10)
_TWELVE_GON = [(math.cos(0.5 * i) * (1 + 0.1 * i), math.sin(0.5 * i))
               for i in range(12)]


class TestMeasurePolygons:
    @settings(max_examples=60, deadline=None)
    @given(polys=_POLYGONS)
    @example(polys=[_TWELVE_GON, _TWELVE_GON[:3], _TWELVE_GON[:8]])
    def test_mixed_list_equals_the_per_vertex_loops(self, polys):
        # vertex-order sums: np.sum would reorder sums of 8 or more terms
        got = zip(*(m.tolist() for m in measure_polygons(polys)))
        assert [tuple(v.hex() for v in m) for m in got] == [
            tuple(v.hex() for v in _reference_measures(p)) for p in polys]

    def test_corner_array_equals_one_disk_calls(self):
        lo = np.array([(0.0, 0.0), (0.3, 0.7), (0.1, 0.5), (0.2, 0.2),
                       (0.61, 0.05)])
        hi = lo + np.array([(2.0, 0.1), (0.1, 0.1), (0.45, 0.3), (0.2, 0.2),
                            (1e-3, 0.33)])
        disks = [rectangle_corners(a, b) for a, b in zip(lo, hi)]
        corners = rectangle_corners(lo, hi)
        assert corners.shape == (5, 4, 2)
        assert corners.tobytes() == np.array(disks).tobytes()
        measures = zip(*(m.tolist() for m in measure_polygons(corners)))
        assert list(measures) == [
            tuple(m[0] for m in measure_polygons([d])) for d in disks]
        for alpha in (weierstrass_form(0.5, terms=6, resolution=512),
                      torus_sin_cos_form()):
            assert polygon_boundary_integrals(alpha, corners) == [
                polygon_boundary_integrals(alpha, [d])[0] for d in disks]

    def test_short_or_curved_polygons_are_rejected(self):
        with pytest.raises(ValueError, match="3 corners"):
            measure_polygons([[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
                              [(0.0, 0.0), (1.0, 0.0)]])
        with pytest.raises(ValueError, match="corners"):
            measure_polygons([None])


class TestStokesPairs:
    def test_x_dy_over_unit_circle_is_pi(self):
        alpha = AnalyticForm(None, lambda p: p[..., 0])
        val = integrate_one_form(alpha, circle((0.0, 0.0), 1.0))
        assert val == pytest.approx(math.pi, abs=1e-6)

    def test_exact_form_dy_closed_curve_vanishes(self):
        dy = AnalyticForm(None, one)
        assert abs(integrate_one_form(dy, circle((0.3, 0.3), 0.2))) <= 1e-10
        for corners in ([(0.0, 0.0), (0.4, 0.0), (0.4, 0.7), (0.0, 0.7)],
                        [(0.0, 0.0), (1.0, 0.2), (0.4, 0.8)]):
            assert abs(per_edge_quadrature(dy, corners)) <= 1e-10

    def test_two_form_constant(self):
        assert integrate_two_form(constant_field(3.0), (0.0, 0.0),
                                  (0.5, 0.4)) == pytest.approx(0.6, abs=1e-15)

    def test_stokes_for_smooth_grid_form(self):
        # alpha = sin(2 pi x) cos(2 pi y) dy on the unit torus
        n = 257
        x = np.linspace(0.0, 1.0, n)[:, None]
        y = np.linspace(0.0, 1.0, n)[None, :]
        vals = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        a2 = GridField((0.0, 0.0), (1.0, 1.0), (n, n), vals)
        alpha = one_form(None, a2)
        lo, hi = (0.1, 0.1), (0.4, 0.35)
        (lhs,) = polygon_boundary_integrals(alpha, [rectangle_corners(lo, hi)])
        rhs = integrate_two_form(exterior_derivative(alpha), lo, hi)
        assert lhs == pytest.approx(rhs, abs=5e-4)


class TestExteriorDerivative:
    def test_grid_sine_form(self):
        # d(2 sin(2 pi y) dx + 5 sin(2 pi x) dy) by centred differences:
        # sin(2 pi (x + h)) - sin(2 pi (x - h)) = 2 cos(2 pi x) sin(2 pi h)
        n = 65
        h = 1.0 / (n - 1)
        x = np.linspace(0.0, 1.0, n)[:, None]
        y = np.linspace(0.0, 1.0, n)[None, :]
        a1 = GridField.from_function(lambda x, y: 2.0 * np.sin(2 * np.pi * y),
                                     (0.0, 0.0), (1.0, 1.0), (n, n))
        a2 = GridField.from_function(lambda x, y: 5.0 * np.sin(2 * np.pi * x),
                                     (0.0, 0.0), (1.0, 1.0), (n, n))
        d = exterior_derivative(one_form(a1, a2))
        want = ((5.0 * np.cos(2 * np.pi * x) - 2.0 * np.cos(2 * np.pi * y))
                * np.sin(2 * np.pi * h) / h)
        np.testing.assert_allclose(d.values, want, atol=1e-9)

    def test_covectors_weight_the_derivative(self):
        # d(w (c1 dx + c2 dy)) = c2 dw/dx - c1 dw/dy, term by term
        n = 65
        w = GridField.from_function(
            lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
            (0.0, 0.0), (1.0, 1.0), (n, n))
        d = exterior_derivative((Term(w, (3.0, -2.0)),))
        want = (-2.0 * exterior_derivative(one_form(None, w)).values
                + 3.0 * exterior_derivative(one_form(w, None)).values)
        np.testing.assert_allclose(d.values, want, atol=1e-12)


class TestTerm:
    def test_1d_field_is_read_at_x(self):
        # W dy on a rectangle: the horizontal edges carry nothing, and each
        # vertical edge is one cell piece at fixed x, where the 1-D field
        # is read; y = 0.1 and 0.9 cannot tell
        alpha = weierstrass_form(0.5, 2, 5, 128)
        rect = rectangle_corners((0.3, 0.1), (0.6, 0.9))
        (val,) = polygon_boundary_integrals(alpha, [rect])
        (x0, y0), _, (x1, y1), _ = rect.tolist()
        w0, w1 = make_weierstrass(0.5, 2, 5, 128).evaluate([[x0], [x1]])
        assert val == pytest.approx((y1 - y0) * (w1 - w0), abs=1e-15)

    def test_covector_is_two_floats(self):
        term = Term(constant_field(1.0), (0, 2))
        assert term.covector == (0.0, 2.0)
        assert all(type(c) is float for c in term.covector)
        with pytest.raises(ValueError):
            Term(constant_field(1.0), (1.0, 0.0, 0.0))


@st.composite
def x_only_forms(draw):
    """A form whose components are 1-D fields of x, and its 2-D extension.

    The extension repeats each 1-D field's samples over ``ny`` columns of a
    grid on [0, 1]^2, so it is constant in y.
    """
    n, ny = draw(st.integers(5, 40)), draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def field():
        return GridField((0.0,), (1.0,), (n,),
                         matched_ends(rng.normal(size=n)))

    def extend(c):
        return None if c is None else GridField(
            (0.0, 0.0), (1.0, 1.0), (n, ny),
            np.repeat(c.values[:, None], ny, axis=1))

    a1 = field() if draw(st.booleans()) else None
    a2 = field()
    theta = draw(st.floats(0.1, 1.0))
    return one_form(a1, a2), one_form(extend(a1), extend(a2)), theta


@st.composite
def unit_square_polygons(draw):
    """Corners of a square, a triangle or ``cut_strips`` strips in [0, 1]^2."""
    shape = draw(st.sampled_from(["square", "triangle", "strips"]))
    if shape == "triangle":
        coord = st.floats(0.0, 1.0)
        return [[(draw(coord), draw(coord)) for _ in range(3)]]
    x, y = draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))
    w, h = draw(st.floats(1e-3, 0.5)), draw(st.floats(1e-3, 0.5))
    if shape == "square":
        return [rectangle_corners((x, y), (x + w, y + w))]
    return cut_strips(USRectangle((x, y), w, h), draw(st.integers(1, 20)))


class TestXOnlyComponents:
    """A 1-D component computes what its constant-in-y extension does."""

    @settings(max_examples=60, deadline=None)
    @given(forms=x_only_forms(), corners=unit_square_polygons())
    def test_boundary_integrals_agree(self, forms, corners):
        one_d, two_d, _ = forms
        length = measure_polygons(corners)[0]
        size = max(t.field.supnorm() for t in one_d)
        got = np.array(polygon_boundary_integrals(one_d, corners))
        want = np.array(polygon_boundary_integrals(two_d, corners))
        assert (np.abs(got - want) <= 1e-13 * length * size).all()

    @settings(max_examples=40, deadline=None)
    @given(forms=x_only_forms())
    def test_cnorm_is_equal(self, forms):
        # lag (kx, ky) of the extension repeats M(kx, 0) at a distance of at
        # least dx, so the 2-D scan's maximum is the 1-D one, bit for bit
        one_d, two_d, theta = forms
        assert one_form_cnorm(one_d, theta).hex() == one_form_cnorm(
            two_d, theta).hex()

    @settings(max_examples=40, deadline=None)
    @given(forms=x_only_forms())
    def test_exterior_derivative_is_the_first_column(self, forms):
        one_d, two_d, _ = forms
        got = exterior_derivative(one_d)
        assert got.dim == 1
        assert got.values.tobytes() == (
            exterior_derivative(two_d).values[:, 0].tobytes())

    @settings(max_examples=40, deadline=None)
    @given(forms=x_only_forms(), frac=st.floats(0.01, 0.99))
    def test_mollified_form_agrees_to_rounding(self, forms, frac):
        # below one y spacing the 2-D kernel is one column, the 1-D kernel
        one_d, two_d, _ = forms
        eps = frac * min(two_d[-1].field.spacing[1], 0.49)
        size = max(t.field.supnorm() for t in one_d)
        got, want = mollify_one_form(one_d, eps), mollify_one_form(two_d, eps)
        assert len(got) == len(want)
        for s, t in zip(got, want):
            assert s.covector == t.covector
            a, b = s.field, t.field
            assert (a.lo[0], a.hi[0], a.resolution[0]) == (
                b.lo[0], b.hi[0], b.resolution[0])
            np.testing.assert_allclose(a.values, b.values[:, 0], rtol=0.0,
                                       atol=1e-13 * size)
