import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import holderforms.inequality
from holderforms.chains import (
    Term,
    measure_polygons,
    polygon_boundary_integrals,
    rectangle_corners,
)
from holderforms.experiments import (
    dyadic_square_family,
    family_scale_slope,
    least_squares_slope,
    random_convex_polygon_vertices,
    weierstrass_form,
)
from holderforms.grids import GridField, make_weierstrass
from holderforms.inequality import (
    c_theta_constant,
    eps_star,
    isoperimetric_check,
    ISOPERIMETRIC_CONSTANT,
    mollification_split_check,
    mollify_one_form,
    one_form_cnorm,
    SplitCheck,
    theta_bracket,
    verify_main_inequality,
)
from holderforms.mollify import deta_l1
from helpers import (
    one_form, per_edge_quadrature, scaled_form, split_bound_sweep,
    torus_nodes,
)


class TestThetaConstant:
    def test_bracket_at_half_is_two(self):
        assert theta_bracket(0.5) == 2.0

    def test_bracket_symmetric(self):
        assert theta_bracket(0.3) == pytest.approx(theta_bracket(0.7),
                                                   rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(theta=st.floats(0.05, 0.95))
    def test_bracket_dominates_either_term(self, theta):
        # the bracket is a sum of two positive powers, each at most 1 + the other
        b = theta_bracket(theta)
        assert b >= 1.0
        assert math.isfinite(b)

    def test_constant_at_half(self):
        assert c_theta_constant(0.5) == deta_l1(2) ** 0.5 * 2.0


class TestMinimizer:
    def test_eps_star_formula(self):
        assert eps_star(0.04, 0.8, 0.5) == pytest.approx(0.04 / 0.8)

    def test_sweep_argmin_sits_near_scaled_eps_star(self):
        # the split bound's minimizer is deta_l1(2) times eps_star
        grid = np.geomspace(1e-4, 10.0, 2000)
        sweep = split_bound_sweep(1.0, 0.1, 0.9, 0.4, grid)
        star = deta_l1(2) * eps_star(0.1, 0.9, 0.4)
        assert abs(math.log(grid[np.argmin(sweep)] / star)) < 0.02

    @settings(max_examples=20, deadline=None)
    @given(theta=st.floats(0.1, 0.9), area=st.floats(0.01, 1.0),
           length=st.floats(0.1, 4.0))
    def test_sweep_never_beats_closed_form(self, theta, area, length):
        grid = np.geomspace(1e-5, 100.0, 400)
        sweep = split_bound_sweep(1.0, area, length, theta, grid)
        cf = (c_theta_constant(theta) * length ** (1.0 - theta)
              * area ** theta)
        assert sweep.min() >= cf * (1.0 - 1e-12)


class TestIsoperimetric:
    def test_constant_planar(self):
        assert ISOPERIMETRIC_CONSTANT == pytest.approx(1.0 / (4 * math.pi))

    def test_unit_disk_equality(self):
        rep = isoperimetric_check(2.0 * math.pi, math.pi)
        assert rep.holds
        assert abs(rep.equality_gap) <= 1e-6

    def test_random_convex_polygons_strict(self):
        polygons = [random_convex_polygon_vertices(np.random.default_rng(s))
                    for s in range(10)]
        for length, area in zip(*measure_polygons(polygons)[:2]):
            rep = isoperimetric_check(length, area)
            assert rep.holds
            assert rep.equality_gap > 1e-6

    def test_generator_gives_the_uniform_angles_bitwise(self):
        # the polygons of the numpy formula the draw replaced: a Generator
        # still gives them bit for bit
        for seed in range(20):
            for n in range(3, 13):
                rng = np.random.default_rng(seed)
                angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
                want = [(0.0 + 1.0 * math.cos(a), 0.0 + 1.0 * math.sin(a))
                        for a in angles]
                got = random_convex_polygon_vertices(
                    np.random.default_rng(seed), n)
                assert (np.array(got).tobytes()
                        == np.array(want).tobytes()), (seed, n)

    def test_stdlib_random_repeats_its_polygons(self):
        for seed in range(20):
            first = [random_convex_polygon_vertices(random.Random(seed), n)
                     for n in range(3, 13)]
            again = [random_convex_polygon_vertices(random.Random(seed), n)
                     for n in range(3, 13)]
            assert first == again, seed


def seeded_trig_form(seed, m=64):
    """Seeded random trigonometric 1-form on the unit torus, m x m nodes."""
    rng = np.random.default_rng(seed)
    x, y = np.meshgrid(torus_nodes(0.0, 1.0, m), torus_nodes(0.0, 1.0, m),
                       indexing="ij")

    def field():
        kx, ky = rng.integers(1, 4, size=2)
        a, b = rng.normal(size=2)
        vals = (a * np.sin(2 * np.pi * (kx * x + ky * y))
                + b * np.cos(2 * np.pi * kx * x) * np.sin(2 * np.pi * ky * y))
        return GridField((0.0, 0.0), (1.0, 1.0), vals)

    return one_form(field(), field())


@pytest.fixture(scope="module")
def w_form():
    return weierstrass_form(0.5, 2, 8, 2048)


@pytest.fixture(scope="module")
def w_cnorm(w_form):
    return one_form_cnorm(w_form, 0.5)


@pytest.fixture(scope="module")
def stokes_form():
    """The form of ``stokes-check`` at its default 4096 nodes."""
    return weierstrass_form(0.5, resolution=4096)


class TestMainInequality:
    def test_family_ratios_bounded_and_slope_flat(self, w_form):
        fam = dyadic_square_family(range(4, 8), 4)
        reports = verify_main_inequality(w_form, fam, theta=0.5)
        assert all(not r.skipped for r in reports)
        emp = max(r.ratio for r in reports if not r.skipped)
        assert math.isfinite(emp) and 0.0 < emp < 10.0
        slope, _ = family_scale_slope(reports)
        assert slope <= 0.1

    def test_homogeneity(self, w_form, w_cnorm):
        # the scaled form's norm is five times the form's, to rounding
        fam = dyadic_square_family(range(4, 6), 3)
        five = scaled_form(w_form, 5.0)
        assert one_form_cnorm(five, 0.5) == pytest.approx(5.0 * w_cnorm,
                                                          rel=1e-15)
        a = verify_main_inequality(w_form, fam, theta=0.5)
        b = verify_main_inequality(five, fam, theta=0.5)
        for ra, rb in zip(a, b):
            assert rb.ratio == pytest.approx(ra.ratio, abs=1e-10)

    def test_exact_form_has_zero_ratio(self):
        dy = one_form(None, GridField((0.0,), (1.0,), np.ones(1)))
        assert one_form_cnorm(dy, 0.5) == 1.0
        fam = dyadic_square_family(range(4, 6), 2)
        reports = verify_main_inequality(dy, fam, theta=0.5)
        for r in reports:
            assert r.ratio <= 1e-8

    def test_smallness_filter_skips_large_disks(self, w_form):
        fam = [("big", rectangle_corners((0.0, 0.0), (0.5, 0.5))),
               ("small", rectangle_corners((0.1, 0.1), (0.15, 0.15)))]
        reports = verify_main_inequality(w_form, fam, theta=0.5,
                                         smallness_sigma=0.5)
        assert reports[0].skipped
        assert not reports[1].skipped
        (only,) = verify_main_inequality(w_form, fam[:1], theta=0.5,
                                         smallness_sigma=0.5)
        assert only.skipped

    def test_degenerate_disks_have_ratio_zero(self):
        # a point has zero length and a flat triangle zero area: both have
        # rhs_shape 0 and a boundary integral within DEGENERATE_LHS; the
        # point has no eps_star
        form = weierstrass_form(0.5, 2, 6, 512)
        fam = [("dot", [(0.3, 0.3)] * 3),
               ("flat", [(0.1, 0.1), (0.2, 0.2), (0.15, 0.15)])]
        dot, flat = verify_main_inequality(form, fam, theta=0.5)
        assert not dot.skipped and not flat.skipped
        assert (dot.length, dot.rhs_shape, dot.ratio) == (0.0, 0.0, 0.0)
        assert math.isnan(dot.eps_star)
        assert flat.length > 0.0
        assert (flat.area, flat.rhs_shape, flat.ratio, flat.eps_star) == (
            0.0, 0.0, 0.0, 0.0)

    def test_form_that_is_not_grid_sampled_is_rejected(self, w_form):
        # a term names its field's type when it is built, before the norm or
        # the boundary integrals can read it
        with pytest.raises(ValueError, match="got function"):
            one_form_cnorm((Term(lambda p: p[..., 0], (0.0, 1.0)),), 0.5)
        with pytest.raises(ValueError, match="got NoneType"):
            one_form_cnorm(w_form + (Term(None, (1.0, 0.0)),), 0.5)

    def test_cnorm_bounds_each_component_by_its_terms(self, w_form, w_cnorm):
        # component i of sum w (c . dp) is sum c_i w, whose norm is at most
        # sum |c_i| cnorm(w); the form's bound is the larger component's
        (w_dy,) = w_form
        assert one_form_cnorm((Term(w_dy.field, (0.0, -3.0)),), 0.5) == (
            3.0 * w_cnorm)
        assert one_form_cnorm((w_dy, Term(w_dy.field, (0.5, 2.0))),
                              0.5) == 3.0 * w_cnorm

    def test_nonpositive_cnorm_rejected(self, w_form):
        # the zero form has norm 0, in which no ratio can be measured
        fam = dyadic_square_family(range(5, 6), 1)
        zero = scaled_form(w_form, 0.0)
        assert one_form_cnorm(zero, 0.5) == 0.0
        with pytest.raises(ValueError, match="cnorm must be positive"):
            verify_main_inequality(zero, fam, theta=0.5)

    @staticmethod
    def assert_ratios_in_units_of_cnorm(form, fam):
        cnorm = one_form_cnorm(form, 0.5)
        reports = [r for r in verify_main_inequality(form, fam, theta=0.5)
                   if not r.skipped]
        assert reports
        for r in reports:
            assert r.ratio == r.lhs / (cnorm * r.rhs_shape)

    def test_ratio_is_in_units_of_the_form_cnorm(self):
        # each ratio is lhs / (cnorm rhs_shape) with the form's own norm,
        # the one decay scales its bound by
        self.assert_ratios_in_units_of_cnorm(
            weierstrass_form(0.5, terms=6, resolution=512),
            dyadic_square_family(range(2, 7), 4))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ratio_is_in_units_of_the_seeded_form_cnorm(self, seed):
        # a form varying in both coordinates, unlike the Weierstrass form of
        # the test above
        self.assert_ratios_in_units_of_cnorm(
            seeded_trig_form(seed), dyadic_square_family(range(2, 6), 3))


class TestLeastSquaresSlope:
    @settings(max_examples=100, deadline=None)
    @given(x=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=9,
                      unique=True),
           a=st.floats(-100.0, 100.0),
           b=st.floats(0.5, 10.0) | st.floats(-10.0, -0.5),
           noise=st.lists(st.floats(-0.01, 0.01), min_size=9, max_size=9))
    def test_equals_polyfit(self, x, a, b, noise):
        assume(max(x) - min(x) >= 1.0)
        y = [a + b * v + e for v, e in zip(x, noise)]
        expected = np.polyfit(x, y, 1)[0]
        assert least_squares_slope(x, y) == pytest.approx(expected,
                                                          rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(x0=st.integers(-1000, 1000), half=st.integers(1, 4),
           a=st.integers(-1000, 1000), b=st.integers(-1000, 1000),
           shift=st.integers(0, 4))
    def test_collinear_points_give_the_exact_slope(self, x0, half, a, b,
                                                   shift):
        # an odd run of integers has an integer mean, so every centred
        # product is exact
        slope = b / 2 ** shift
        x = [x0 + i for i in range(2 * half + 1)]
        assert least_squares_slope(x, [a + slope * v for v in x]) == slope


class TestExactBoundaryIntegrals:
    """Grid-sampled forms on polygons, integrated exactly."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), x0=st.floats(0.0, 1.0),
           y0=st.floats(-1.0, 1.0), w=st.floats(0.01, 0.6),
           h=st.floats(0.01, 0.6), cuts=st.integers(2, 7))
    def test_rough_periodic_form(self, seed, x0, y0, w, h, cuts):
        form = seeded_trig_form(seed)
        sup = max(t.field.supnorm() for t in form)
        rect = rectangle_corners((x0, y0), (x0 + w, y0 + h))
        fwd, back = polygon_boundary_integrals(form, [rect, rect[::-1]])
        ((length,), _, _) = measure_polygons([rect])
        assert abs(fwd + back) <= 1e-13 * length * sup
        # strips of the rectangle telescope to the whole
        xs = np.linspace(x0, x0 + w, cuts + 1)
        strips = rectangle_corners(np.stack([xs[:-1], np.full(cuts, y0)], -1),
                                   np.stack([xs[1:], np.full(cuts, y0 + h)],
                                            -1))
        parts = polygon_boundary_integrals(form, strips)
        scale = sup * measure_polygons(strips)[0].sum()
        assert abs(math.fsum(parts) - fwd) <= 1e-13 * scale
        # a polygon straddling the seam x = 1 equals its copy shifted by -1
        seam = rectangle_corners((1.0 - 0.5 * w, y0), (1.0 + 0.5 * w, y0 + h))
        shifted = rectangle_corners((-0.5 * w, y0), (0.5 * w, y0 + h))
        a, b = polygon_boundary_integrals(form, [seam, shifted])
        ((length,), _, _) = measure_polygons([seam])
        assert abs(a - b) <= 1e-13 * length * sup

    def test_cli_family_matches_adaptive_quadrature(self, w_form):
        fam = dyadic_square_family(range(2, 9), 8)
        reports = verify_main_inequality(w_form, fam, theta=0.5)
        unskipped = [(r, d) for r, (_, d) in zip(reports, fam)
                     if not r.skipped]
        assert len(unskipped) == 40
        for rep, disk in unskipped:
            ref = abs(per_edge_quadrature(w_form, disk))
            assert abs(rep.lhs - ref) <= 1e-16

    def test_family_is_integrated_in_one_call(self, w_form, monkeypatch):
        # one measure of all 56 squares, one exact integral of the 40
        # that pass the smallness filter
        calls = []

        def counting(name):
            real = getattr(holderforms.inequality, name)

            def spy(*args):
                calls.append((name, len(args[-1])))
                return real(*args)
            return spy

        for name in ("measure_polygons", "polygon_boundary_integrals"):
            monkeypatch.setattr(holderforms.inequality, name, counting(name))
        fam = dyadic_square_family(range(2, 9), 8)
        reports = verify_main_inequality(w_form, fam, theta=0.5)
        assert sum(not r.skipped for r in reports) == 40
        assert calls == [("measure_polygons", 56),
                         ("polygon_boundary_integrals", 40)]


SQUARE = (0.3, 0.3), (0.5, 0.5)  # the stokes-check square


class TestSplitCheck:
    """Every term is an exact boundary integral, so the chain is the
    floating-point triangle inequality, to one ulp of ``lhs``."""

    def test_split_bounds_on_weierstrass(self, stokes_form):
        chk = mollification_split_check(stokes_form, *SQUARE, 0.05, 0.5)
        assert chk.chain_holds
        assert chk.boundary_bound_holds
        assert chk.interior_bound_holds

    def test_chain_holds_at_2048_nodes(self, w_form):
        chk = mollification_split_check(w_form, *SQUARE, 0.05, 0.5)
        assert chk.chain_holds

    @settings(max_examples=40, deadline=None)
    @given(x0=st.floats(0.0, 1.0), y0=st.floats(-1.0, 1.0),
           width=st.floats(1e-3, 0.5), height=st.floats(1e-3, 0.5),
           epsilon=st.floats(0.005, 0.2))
    def test_interior_is_the_closed_form_and_the_chain_holds(
            self, w_form, x0, y0, width, height, epsilon):
        # d(a dy) = a'(x) dx dy integrates to (y1 - y0)(a(x1) - a(x0)),
        # read at the corners the rectangle is built with
        lo, hi = (x0, y0), (x0 + width, y0 + height)
        chk = mollification_split_check(w_form, lo, hi, epsilon, 0.5)
        (x0, y0), _, (x1, y1), _ = rectangle_corners(lo, hi)
        a = chk.alpha_eps[0].field.evaluate(np.array([[x0], [x1]]))
        assert abs(chk.interior - (y1 - y0) * (a[1] - a[0])) <= 1e-15
        assert chk.chain_holds

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
    @example(a=-0.005445472771925581, b=-0.0006409900207965343)
    def test_chain_holds_for_any_two_integrals(self, a, b):
        # I(alpha) = a and I(alpha_eps) = b give the terms |a|, |a - b|, |b|
        chk = SplitCheck(epsilon=0.05, theta=0.5, lhs=abs(a),
                         term_boundary=abs(a - b), interior=b, length=0.8,
                         area=0.04, alpha_eps=None, alpha=None)
        assert chk.chain_holds

    def test_chain_needs_its_one_ulp(self):
        # an equality in real numbers that rounding breaks by one ulp
        a, b = -0.005445472771925581, -0.0006409900207965343
        assert abs(a) > abs(a - b) + abs(b)
        assert abs(a) - (abs(a - b) + abs(b)) == math.ulp(abs(a))

    def test_bounds_equal_the_measured_disk_bounds(self, w_form, w_cnorm):
        # the bounds read only length and area
        chk = mollification_split_check(w_form, *SQUARE, 0.05, 0.5)
        ((length,), (area,), _) = measure_polygons(
            [rectangle_corners(*SQUARE)])
        assert chk.bound_boundary == length * w_cnorm * 0.05 ** 0.5
        assert chk.bound_interior == (area * deta_l1(2) * w_cnorm
                                      * 0.05 ** (0.5 - 1.0))

    def test_cnorm_is_computed_once_and_only_when_read(self, stokes_form,
                                                      monkeypatch):
        calls = []
        real = holderforms.inequality.one_form_cnorm

        def counting(alpha, theta):
            calls.append(theta)
            return real(alpha, theta)

        monkeypatch.setattr(holderforms.inequality, "one_form_cnorm",
                            counting)
        chk = mollification_split_check(stokes_form, *SQUARE, 0.05, 0.5)
        assert chk.chain_holds
        assert calls == []
        assert chk.boundary_bound_holds and chk.interior_bound_holds
        assert (chk.bound_boundary, chk.bound_interior) == (
            chk.bound_boundary, chk.bound_interior)
        assert calls == [0.5]

    def test_split_terms_are_exact_boundary_integrals(self, stokes_form):
        # |int alpha| and int alpha_eps on the square are the exact
        # integrals, and |int (alpha - alpha_eps)| is their difference,
        # which the integral of the difference form equals to rounding
        chk = mollification_split_check(stokes_form, *SQUARE, 0.05, 0.5)
        corners = [rectangle_corners(*SQUARE)]
        (a2,), (b2,) = stokes_form, chk.alpha_eps
        assert a2.covector == b2.covector == (0.0, 1.0)  # x dy-type
        a2, b2 = a2.field, b2.field
        diff = one_form(None, GridField(a2.lo, a2.hi, a2.values - b2.values))
        ((lhs,), (term,), (smooth,)) = (
            polygon_boundary_integrals(form, corners)
            for form in (stokes_form, diff, chk.alpha_eps))
        assert chk.lhs == abs(lhs)
        assert chk.interior == smooth
        assert chk.term_boundary == abs(lhs - smooth)
        assert abs(chk.term_boundary - abs(term)) <= 1e-15

    def test_empty_form_mollifies_to_itself_and_analytic_is_rejected(
            self, w_form):
        # the empty form is zero and mollifies to itself; an analytic field
        # is rejected, with its type, when its term is built
        assert mollify_one_form((), 0.05) == ()
        with pytest.raises(ValueError, match="got function"):
            mollify_one_form(
                w_form + (Term(lambda p: p[..., 1], (1.0, 0.0)),), 0.05)

    def test_1d_form_boundary_term(self):
        # on the square only its two vertical edges carry a2 dy, so the
        # boundary term is 0.2 |d(0.5) - d(0.3)| for d = a2 - a2_eps
        n = 4097
        a2 = make_weierstrass(0.5, 2, 6, n)
        chk = mollification_split_check(one_form(None, a2), *SQUARE, 0.05,
                                        0.5)
        ((b, covector),) = ((t.field, t.covector) for t in chk.alpha_eps)
        assert covector == (0.0, 1.0)
        d = a2.evaluate([[0.3], [0.5]]) - b.evaluate([[0.3], [0.5]])
        assert chk.term_boundary == pytest.approx(0.2 * abs(d[1] - d[0]),
                                                  rel=1e-12)
        assert chk.chain_holds
        assert chk.boundary_bound_holds
        assert chk.interior_bound_holds

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
    def test_bounds_sum_to_at_least_the_constant(self, w_form, theta):
        # on W(x) dy the split's two bounds sum to at least c_theta_constant
        # times cnorm |dD|^(1-theta) |D|^theta, with equality at
        # eps = deta_l1(2) eps_star
        ((length,), (area,), _) = measure_polygons(
            [rectangle_corners(*SQUARE)])
        star = deta_l1(2) * eps_star(area, length, theta)
        for eps in (0.01, 0.03, star, 0.2, 0.5):
            chk = mollification_split_check(w_form, *SQUARE, eps, theta)
            total = chk.bound_boundary + chk.bound_interior
            floor = (c_theta_constant(theta) * chk.cnorm
                     * length ** (1.0 - theta) * area ** theta)
            if eps == star:
                assert total == pytest.approx(floor, rel=1e-12)
            else:
                assert total > floor

    def test_boundary_bound_scales_with_eps(self, w_form):
        a = mollification_split_check(w_form, *SQUARE, 0.02, 0.5)
        b = mollification_split_check(w_form, *SQUARE, 0.08, 0.5)
        assert b.bound_boundary == pytest.approx(2.0 * a.bound_boundary,
                                                 rel=1e-12)
        assert b.bound_interior == pytest.approx(0.5 * a.bound_interior,
                                                 rel=1e-12)
