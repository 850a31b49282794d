import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holderforms import decay
from holderforms.chains import (
    Term, measure_polygons, polygon_boundary_integrals,
)
from holderforms.decay import (
    LinearModel,
    SmallnessError,
    USRectangle,
    choose_strip_count,
    decay_bound_series,
    iterate_rectangle,
)
from holderforms.experiments import weierstrass_form
from holderforms.grids import GridField, weierstrass_callable
from holderforms.inequality import (
    c_theta_constant, one_form_cnorm, verify_main_inequality,
)

from helpers import (
    cut_strips, decay_steps_one_by_one, one_form, per_edge_quadrature,
)


MODEL = LinearModel(1.5, 0.4)
RECT = USRectangle((0.05, 0.05), 0.4, 0.1)


def strip_disks(rect, n):
    """Corners of each strip ``USRectangle((x + i*w, y), w, s)``, in Python.

    Corner ``(r, t)`` of the unit square is ``(x0 + (x1 - x0)*r,
    y0 + (y1 - y0)*t)``, the formula of ``rectangle_corners``.
    """
    (x, y), w = rect.corner, rect.u_len / n
    strips = [USRectangle((x + i * w, y), w, rect.s_len) for i in range(n)]
    out = []
    for s in strips:
        (x0, y0) = s.corner
        x1, y1 = x0 + s.u_len, y0 + s.s_len
        out.append([(x0 + (x1 - x0) * r, y0 + (y1 - y0) * t)
                    for r, t in ((0, 0), (1, 0), (1, 1), (0, 1))])
    return out


class TestLinearModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            LinearModel(0.9, 0.4)  # expansion must exceed 1
        with pytest.raises(ValueError):
            LinearModel(1.5, 1.1)  # contraction must be below 1


class TestRectangleIteration:
    def test_exact_geometric_scaling(self):
        r3 = iterate_rectangle(MODEL, RECT, 3)
        assert r3.u_len == pytest.approx(0.4 * 1.5 ** 3, rel=1e-14)
        assert r3.s_len == pytest.approx(0.1 * 0.4 ** 3, rel=1e-14)

    def test_area_contracts_when_det_below_one(self):
        r5 = iterate_rectangle(MODEL, RECT, 5)
        assert r5.u_len * r5.s_len == pytest.approx(
            RECT.u_len * RECT.s_len * (1.5 * 0.4) ** 5, rel=1e-12)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            iterate_rectangle(MODEL, RECT, 200)

    def test_boundary_integral_matches_analytic_area(self):
        # 0.5 (x dy - y dx) integrates to the area over a positive boundary;
        # on [0, 2] x [0, 1] the interpolant of its samples is the linear
        # form itself off the last cell of each axis, where the ends match
        def sampled(fn):
            return GridField.from_function(fn, (0.0, 0.0), (2.0, 1.0),
                                           (9, 9))
        half_xdy = one_form(sampled(lambda x, y: -0.5 * y),
                            sampled(lambda x, y: 0.5 * x))
        r2 = iterate_rectangle(MODEL, RECT, 2)
        whole = cut_strips(r2, 1)
        ((length,), _, _) = measure_polygons(whole)
        assert length == pytest.approx(r2.boundary_length, rel=1e-12)
        (area,) = polygon_boundary_integrals(half_xdy, whole)
        assert area == pytest.approx(r2.u_len * r2.s_len, rel=1e-10)


class TestStrips:
    def test_partition_preserves_area(self):
        r = iterate_rectangle(MODEL, RECT, 3)
        strips = cut_strips(r, 17)
        assert strips.shape == (17, 4, 2)
        total = math.fsum(measure_polygons(strips)[1])
        assert total == pytest.approx(r.u_len * r.s_len, rel=1e-12)

    def test_strips_are_cut_along_the_expanding_side(self):
        r = iterate_rectangle(MODEL, RECT, 3)
        strips = cut_strips(r, 10)
        u_lens = strips[:, 1, 0] - strips[:, 0, 0]
        s_lens = strips[:, 2, 1] - strips[:, 1, 1]
        assert all(u == pytest.approx(r.u_len / 10) for u in u_lens)
        assert all(s == pytest.approx(r.s_len) for s in s_lens)

    @pytest.mark.parametrize("mu, nu", [(1.5, 0.4), (3.054, 0.1113)])
    def test_corners_equal_the_strip_rectangles_bit_for_bit(self, mu, nu):
        model = LinearModel(mu, nu)
        for k in range(6):
            r = iterate_rectangle(model, RECT, k)
            sc = choose_strip_count(k, model, RECT, sigma=0.5, c1=1.0)
            for n in {1, 3, 17, sc.n or 1}:
                expected = np.array(strip_disks(r, n))
                assert cut_strips(r, n).tobytes() == expected.tobytes()

    def test_strip_count_band(self):
        for k in range(2, 9):
            sc = choose_strip_count(k, MODEL, RECT, sigma=0.5, c1=1.0)
            assert sc.n is not None
            assert sc.n0 < sc.n < 2 * sc.n0

    @pytest.mark.parametrize("k", range(2, 9))
    def test_strip_integrals_equal_integrate_one_form(self, k):
        # the exact batch against one adaptive driver call per strip edge
        alpha = weierstrass_form(0.5, terms=6, resolution=512)
        sc = choose_strip_count(k, MODEL, RECT, sigma=0.5, c1=1.0)
        strips = cut_strips(iterate_rectangle(MODEL, RECT, k), sc.n)
        batch = polygon_boundary_integrals(alpha, strips)
        lengths = measure_polygons(strips)[0]
        for val, c, length in zip(batch, strips, lengths):
            assert abs(val - per_edge_quadrature(alpha, c)) <= 1e-13 * length

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0),
           u_len=st.floats(1e-3, 5.0), s_len=st.floats(1e-3, 5.0),
           n=st.integers(1, 40))
    def test_strip_integrals_telescope(self, x, y, u_len, s_len, n):
        # sin(2 pi y) dx + cos(4 pi x) dy sampled on the unit torus
        def sampled(fn):
            return GridField.from_function(fn, (0.0, 0.0), (1.0, 1.0),
                                           (65, 65))
        alpha = one_form(sampled(lambda x, y: np.sin(2.0 * np.pi * y)),
                         sampled(lambda x, y: np.cos(4.0 * np.pi * x)))
        rect = USRectangle((x, y), u_len, s_len)
        strips = cut_strips(rect, n)
        parts = polygon_boundary_integrals(alpha, strips)
        (whole,) = polygon_boundary_integrals(alpha, cut_strips(rect, 1))
        # the samples, and so the interpolants, are at most 1 in size along
        # every edge, so the perimeters bound each term
        scale = rect.boundary_length + math.fsum(measure_polygons(strips)[0])
        assert abs(math.fsum(parts) - whole) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0),
           u_len=st.floats(1e-3, 10.0), s_len=st.floats(1e-3, 10.0))
    def test_diameter_is_the_exact_diagonal(self, x, y, u_len, s_len):
        rect = USRectangle((x, y), u_len, s_len)
        (_, _, (diameter,)) = measure_polygons(cut_strips(rect, 1))
        assert diameter == pytest.approx(math.hypot(u_len, s_len), rel=1e-12)
        assert diameter <= rect.boundary_length / 2.0

    def test_small_k_is_inadmissible(self):
        # before the contraction kicks in the strips stay too tall
        sc = choose_strip_count(0, MODEL, RECT, sigma=0.5, c1=1.0)
        assert sc.n is None


@pytest.fixture(scope="module")
def series():
    alpha = weierstrass_form(0.5, 2, 8)
    return decay_bound_series(alpha, MODEL, RECT, theta=0.5,
                              k_range=range(0, 6), sigma=0.5)


class TestDecaySeries:

    def test_inadmissible_steps_reported(self, series):
        assert series.skipped_k == (0, 1)

    def test_telescoping_identity(self, series):
        for s in series.steps:
            assert abs(s.lhs_sum - s.lhs_whole) <= 1e-8

    def test_bounds_decrease(self, series):
        bounds = [s.bound for s in series.steps]
        assert all(b < a for a, b in zip(bounds, bounds[1:]))

    def test_consecutive_ratios_near_predicted(self, series):
        ratios = [row[3] for row in series.csv_rows() if row[3] != ""]
        assert len(ratios) == len(series.steps) - 1
        for r in ratios:
            assert abs(r - series.predicted_rate) / series.predicted_rate < 0.15

    def test_strips_pass_smallness(self, series):
        for s in series.steps:
            assert s.strip_boundary_max < 0.5

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_strip_measures_match_family_verifier(self, series, k):
        # the strips and the family verifier share measure_polygons
        step = next(s for s in series.steps if s.k == k)
        reports = verify_main_inequality(
            weierstrass_form(0.5, 2, 8),
            [(f"strip{i}", c) for i, c in enumerate(
                strip_disks(iterate_rectangle(MODEL, RECT, k), step.n))],
            theta=0.5, smallness_sigma=0.5)
        assert not any(r.skipped for r in reports)
        # the series runs at the default cnorm = 1.0
        assert step.bound == c_theta_constant(0.5) * 1.0 * math.fsum(
            r.rhs_shape for r in reports)
        assert step.strip_boundary_max == max(r.length for r in reports)
        # so the length filter is a diameter filter too
        assert max(r.diameter for r in reports) <= step.strip_boundary_max / 2

    def test_sampled_form_integrates_to_its_corner_values(self):
        # W(x) dy pulls back to 0 on the horizontal edges and to the constant
        # w(x) on the vertical ones, so the whole iterate's integral is
        # s_len * (w(x1) - w(x0)) of the grid interpolant w
        alpha = weierstrass_form(0.5, terms=6, resolution=512)
        series = decay_bound_series(alpha, MODEL, RECT, theta=0.5,
                                    k_range=range(2, 9), sigma=0.5)
        assert [s.k for s in series.steps] == list(range(2, 9))
        for s in series.steps:
            r = iterate_rectangle(MODEL, RECT, s.k)
            (x0, y0), x1 = r.corner, r.corner[0] + r.u_len
            w0, w1 = alpha[0].field.evaluate(np.array([[x0], [x1]]))
            expected = r.s_len * (w1 - w0)
            assert s.lhs_whole == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_bound_holds_over_the_strips(self):
        # alpha = W(y) dx at decay's default geometry: each step's bound is
        # at least the strips' summed |boundary integral|, which is at least
        # the whole iterate's.  Scaled by the largest ratio of a j = 2..6
        # dyadic square family on this form, 0.271, instead of c_theta =
        # 2.759, the bound at k = 2 would be 0.564, below the strips' 0.584
        w = weierstrass_callable(0.5, 2, 6)
        field = GridField.from_function(lambda x, y: w(y), (0, 0), (1, 1),
                                        (3, 513))
        alpha = (Term(field, (1.0, 0.0)),)
        series = decay_bound_series(alpha, MODEL, RECT, theta=0.5,
                                    k_range=range(0, 9), sigma=0.5,
                                    cnorm=one_form_cnorm(alpha, 0.5))
        assert [s.k for s in series.steps] == list(range(2, 9))
        for s in series.steps:
            strips = cut_strips(iterate_rectangle(MODEL, RECT, s.k), s.n)
            strip_sum = math.fsum(
                abs(v) for v in polygon_boundary_integrals(alpha, strips))
            # fsum rounds once and rounding is monotone, so |lhs_sum| <=
            # strip_sum holds exactly; the whole iterate's integral is
            # lhs_sum up to rounding, as the telescoping check allows
            assert abs(s.lhs_sum) <= strip_sum <= s.bound
            assert abs(s.lhs_whole) <= strip_sum + 1e-8

    def test_smallness_filter_names_k_and_n(self, monkeypatch):
        # every step is measured and filtered before any integral is taken
        calls = []
        monkeypatch.setattr(decay, "polygon_boundary_integrals",
                            lambda *args: calls.append(args))
        alpha = weierstrass_form(0.5, 2, 8)
        with pytest.raises(SmallnessError, match=r"k=2; N=3") as info:
            decay_bound_series(alpha, MODEL, RECT, theta=0.5,
                               k_range=range(2, 5), sigma=0.5, c1=0.2)
        assert (info.value.k, info.value.n) == (2, 3)
        assert "sigma=0.5" in str(info.value)
        assert calls == []

    def test_errors_come_in_k_order(self, monkeypatch):
        # k = 200 overflows the iterate; a smallness failure before it wins
        calls = []
        monkeypatch.setattr(decay, "polygon_boundary_integrals",
                            lambda *args: calls.append(args))
        alpha = weierstrass_form(0.5, terms=6, resolution=512)
        with pytest.raises(SmallnessError, match=r"k=2; N=3"):
            decay_bound_series(alpha, MODEL, RECT, theta=0.5,
                               k_range=[2, 3, 200], sigma=0.5, c1=0.2)
        with pytest.raises(OverflowError, match=r"k=200"):
            decay_bound_series(alpha, MODEL, RECT, theta=0.5,
                               k_range=[2, 3, 200], sigma=0.5)
        assert calls == []


FORMS = {
    "sampled": lambda: weierstrass_form(0.5, terms=6, resolution=512),
    "fine": lambda: weierstrass_form(0.5, 2, 8),
}


@functools.lru_cache(maxsize=None)
def one_by_one(form):
    return decay_steps_one_by_one(FORMS[form](), MODEL, RECT, theta=0.5,
                                  k_range=range(0, 9), sigma=0.5,
                                  cnorm=7.0)


def hexed(steps):
    return [[v.hex() if isinstance(v, float) else v
             for v in tuple(s)] for s in steps]


@pytest.mark.parametrize("chunk", [1, 3, 16384])
@pytest.mark.parametrize("form", ["sampled", "fine"])
def test_batches_do_not_change_any_field(monkeypatch, form, chunk):
    steps, skipped = one_by_one(form)
    monkeypatch.setattr(decay, "STRIP_CHUNK", chunk)
    series = decay_bound_series(FORMS[form](), MODEL, RECT, theta=0.5,
                                k_range=range(0, 9), sigma=0.5,
                                cnorm=7.0)
    assert series.skipped_k == skipped == (0, 1)
    assert hexed(series.steps) == hexed(steps)
    for s in series.steps:
        strips = cut_strips(iterate_rectangle(MODEL, RECT, s.k), s.n)
        length, area, _ = (m.tolist() for m in measure_polygons(strips))
        assert s.bound == c_theta_constant(0.5) * 7.0 * math.fsum(
            ln ** 0.5 * ar ** 0.5 for ln, ar in zip(length, area))
