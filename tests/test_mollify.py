import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holderforms.grids import GridField, holder_seminorm, make_weierstrass
from holderforms.mollify import (
    _GL_NODES,
    _GL_WEIGHTS,
    _bump,
    _gl_rule,
    _renormalize,
    deta_l1,
    discrete_kernel,
    grad_supnorm,
    mollify,
    normalization_constant,
    verify_regularization,
)
from helpers import eta, torus_nodes


def two_formula_kernel(h, epsilon, n):
    """The sampled kernel as separate 1-D and 2-D formulas build it."""
    if n == 1:
        m = max(int(math.ceil(epsilon / h)) - 1, 0)
        offs = np.arange(-m, m + 1) * h / epsilon
        return _renormalize(_bump(offs * offs))
    h0, h1 = (h, h) if np.isscalar(h) else h
    m0 = max(int(math.ceil(epsilon / h0)) - 1, 0)
    m1 = max(int(math.ceil(epsilon / h1)) - 1, 0)
    j = np.arange(-m0, m0 + 1) * h0 / epsilon
    k = np.arange(-m1, m1 + 1) * h1 / epsilon
    return _renormalize(_bump(j[:, None] ** 2 + k[None, :] ** 2))


def loop_mollify(u, epsilon):
    """Reference convolution: one loop over output nodes, one over taps.

    A 1-D field is one column, the only node of its second axis; the
    indices of every axis of the grid wrap over its nodes.
    """
    w = discrete_kernel(u.spacing, epsilon)
    v = u.values.reshape(u.values.shape + (1,) * (2 - u.dim))
    w = w.reshape(w.shape + (1,) * (2 - u.dim))
    m = [s // 2 for s in w.shape]
    nodes = v.shape
    out = np.zeros(nodes)
    for i in range(nodes[0]):
        for j in range(nodes[1]):
            for p in range(-m[0], m[0] + 1):
                for q in range(-m[1], m[1] + 1):
                    out[i, j] += (w[p + m[0], q + m[1]]
                                  * v[(i + p) % nodes[0], (j + q) % nodes[1]])
    return out.reshape(u.resolution)


def noise_field(shape, hi, seed=0):
    return GridField((0.0,) * len(shape), hi,
                     np.random.default_rng(seed).standard_normal(shape))


class TestGLTable:
    def test_symmetric_exactly(self):
        x, w = _GL_NODES, _GL_WEIGHTS
        assert x.shape == w.shape == (16,)
        assert np.all(np.diff(x) > 0.0)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])

    def test_integrates_monomials_to_degree_31(self):
        x, w = _GL_NODES, _GL_WEIGHTS
        for k in range(32):
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(w * x ** k) - want) <= 1e-15, k

    def test_matches_leggauss_to_one_ulp(self):
        # bit-equal with numpy 2.4's leggauss; another LAPACK may round
        # the eigenvalues differently
        x, w = np.polynomial.legendre.leggauss(16)
        np.testing.assert_array_max_ulp(_GL_NODES, x, maxulp=1)
        np.testing.assert_array_max_ulp(_GL_WEIGHTS, w, maxulp=1)


class TestGLRule:
    @pytest.mark.parametrize("panels, a, b", [
        (1, 0.0, 1.0), (64, 0.0, 1.0), (120, -1.0, 1.0), (160, 0.0, 1.0)])
    def test_composite_rule_is_exact_to_degree_31(self, panels, a, b):
        # 16 ascending interior nodes and positive weights per panel; each
        # panel is exact to degree 31, so the whole rule is too
        nodes, weights = _gl_rule(panels, a, b)
        assert nodes.shape == weights.shape == (16 * panels,)
        assert a < nodes[0] and nodes[-1] < b
        assert np.all(np.diff(nodes) > 0.0)
        assert np.all(weights > 0.0)
        for k in range(32):
            want = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            assert abs(math.fsum(weights * nodes ** k) - want) <= 1e-15, k


class TestKernelNormalization:
    @pytest.mark.parametrize("n, bits", [(1, "0x1.204ad466d96d0p+1"),
                                         (2, "0x1.12605d03ed1f9p+1")])
    def test_constant_keeps_its_bits(self, n, bits):
        # the 120-panel composite rule's values with numpy 2.4; another
        # libm may round exp differently
        assert normalization_constant(n) == float.fromhex(bits)

    @pytest.mark.parametrize("n", [1, 2])
    def test_analytic_unit_mass(self, n):
        # quadrature of A * exp(1/(|x|^2-1)) over the unit ball
        A = normalization_constant(n)
        t, w = np.polynomial.legendre.leggauss(400)
        if n == 1:
            x = 0.5 * (t + 1.0) * 2.0 - 1.0
            mass = float(np.sum(w * eta(x, 1)))
        else:
            r = 0.5 * (t + 1.0)
            g = eta(np.stack([r, np.zeros_like(r)], axis=-1), 2)
            mass = float(2.0 * math.pi * 0.5 * np.sum(w * g * r))
        assert abs(mass - 1.0) <= 1e-8

    def test_1d_constant_value(self):
        # int_{-1}^{1} exp(1/(x^2-1)) dx = 0.443994, so A = 1/0.443994
        assert normalization_constant(1) == pytest.approx(2.25228362104358,
                                                          rel=1e-10)

    def test_eta_vanishes_outside_support(self):
        assert eta(np.array([1.0, -1.2, 3.0]), 1).tolist() == [0.0, 0.0, 0.0]

    def test_deta_1d_closed_form(self):
        # |eta'| integrates to 2 eta(0) in one dimension
        want = 2.0 * float(eta(np.array([0.0]), 1)[0])
        assert abs(deta_l1(1) - want) <= 1e-14

    def test_deta_2d_positive_and_finite(self):
        v = deta_l1(2)
        assert 0.0 < v < 10.0
        # tensor Gauss-Legendre quadrature of |d eta/dx_1| over [-1, 1]^2,
        # split at 0 on each axis, where |x_1| has its kink
        t, w = np.polynomial.legendre.leggauss(200)
        halves = [(0.5 * t + 0.5 * side, 0.5 * w) for side in (-1.0, 1.0)]
        total = 0.0
        for x, wx in halves:
            for y, wy in halves:
                gx, gy = np.meshgrid(x, y, indexing="ij")
                r2 = gx * gx + gy * gy
                g = (eta(np.stack([gx, gy], axis=-1), 2)
                     * 2.0 * np.abs(gx) / (r2 - 1.0) ** 2)
                total += float(np.sum(wx[:, None] * wy[None, :] * g))
        assert abs(v - total) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("h", [1 / 256, 1 / 1024, 1 / 4096,
                                   (1 / 2048, 1 / 8), (1 / 128, 1 / 64)])
    @pytest.mark.parametrize("eps", [0.02, 0.03, 0.05, 0.1])
    def test_kernel_equals_the_two_formulas_bit_for_bit(self, n, h, eps):
        hh = h if n == 2 or np.isscalar(h) else h[0]
        want = two_formula_kernel(hh, eps, n)
        got = discrete_kernel(((h,) * 2 if np.isscalar(h) else h)[:n], eps)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_one_column_kernel_is_the_1d_kernel(self):
        # a y spacing of at least eps leaves one column, the 1-D weights
        for eps in (0.02, 0.05, 0.1):
            w2 = discrete_kernel((1 / 2048, 1 / 8), eps)
            assert w2.shape[1] == 1
            assert w2[:, 0].tobytes() == discrete_kernel((1 / 2048,),
                                                         eps).tobytes()

    @pytest.mark.parametrize("h,eps", [(1 / 256, 0.02), (1 / 256, 0.05),
                                       (1 / 1024, 0.1), (1 / 4096, 0.03)])
    def test_discrete_mass_exactly_one(self, h, eps):
        w = discrete_kernel((h,), eps)
        assert math.fsum(np.ravel(w)) == 1.0


class TestMollify:
    def test_constant_field_is_fixed(self):
        f = GridField((0.0,), (1.0,), np.full(128, 3.5))
        g = mollify(f, 0.05)
        np.testing.assert_array_equal(g.values, 3.5)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100), eps=st.sampled_from([0.02, 0.05, 0.1]))
    def test_sup_never_grows(self, seed, eps):
        f = noise_field((256,), (1.0,), seed)
        g = mollify(f, eps)
        assert np.max(np.abs(g.values)) <= np.max(np.abs(f.values))

    def test_smooth_field_converges_as_eps_shrinks(self):
        x = torus_nodes(0.0, 1.0, 1024)
        f = GridField((0.0,), (1.0,), np.sin(2 * np.pi * x))
        errs = [np.max(np.abs(mollify(f, e).values - f.values))
                for e in (0.2, 0.1, 0.05)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05

    def test_2d_constant_field_is_fixed(self):
        f = GridField((0.0, 0.0), (1.0, 1.0), np.full((64, 64), -1.25))
        g = mollify(f, 0.05)
        np.testing.assert_allclose(g.values, -1.25, atol=1e-12)

    def test_kink_smoothing_bound(self):
        # |x - 1/2| is Lipschitz; mollification moves it by at most eps
        x = torus_nodes(0.0, 1.0, 1024)
        f = GridField((0.0,), (1.0,), np.abs(x - 0.5))
        g = mollify(f, 0.1)
        xs = np.linspace(g.lo[0], g.hi[0], 200)
        err = np.abs(g.evaluate(xs[:, None]) - np.abs(xs - 0.5))
        assert np.max(err) <= 0.1


class TestConvolution:
    @pytest.mark.parametrize("shape,hi", [
        ((64,), (1.0,)),
        ((16, 12), (1.0, 2.0)),
        ((16, 12), (1.0, 1.0)),
        ((32, 4), (1.0, 1.0)),
        ((32,), (0.5,)),
        ((12, 16), (2.0, 1.0)),
        ((4, 32), (0.5, 1.0)),
    ])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    def test_equals_the_loop_reference(self, shape, hi, eps):
        # eps = 0.01 is below every grid spacing here: one tap, m = 0; on a
        # period of 0.5, eps = 0.3 makes the window wrap more than once
        u = noise_field(shape, hi)
        g = mollify(u, eps)
        want = loop_mollify(u, eps)
        assert g.values.shape == want.shape == g.resolution
        assert np.max(np.abs(g.values - want)) <= 1e-14 * u.supnorm()
        assert (g.lo, g.hi) == (u.lo, u.hi)

    @pytest.mark.parametrize("shift", [(5, 0), (0, 7), (-3, 11)])
    def test_commutes_with_a_torus_shift(self, shift):
        # the kernel is the same at every node, seam or not
        u = noise_field((16, 12), (1.0, 2.0))
        v = GridField(u.lo, u.hi, np.roll(u.values, shift, axis=(0, 1)))
        np.testing.assert_allclose(mollify(v, 0.3).values,
                                   np.roll(mollify(u, 0.3).values, shift,
                                           axis=(0, 1)),
                                   rtol=0, atol=1e-14 * u.supnorm())

    def test_one_tap_is_the_identity(self):
        u = noise_field((16, 12), (1.0, 2.0))
        g = mollify(u, 0.01)
        assert g.values.tobytes() == u.values.tobytes()
        assert (g.lo, g.hi, g.resolution) == (u.lo, u.hi, u.resolution)


class TestGradSupnorm:
    def test_tent_slope(self):
        # 3 min(x, 1 - x) has slope +-3 but at its kinks, the nodes 0 and
        # 1/2, where the centred difference is 0
        x = torus_nodes(0.0, 1.0, 128)
        f = GridField((0.0,), (1.0,), 3.0 * np.minimum(x, 1.0 - x))
        assert grad_supnorm(f) == pytest.approx(3.0, rel=1e-10)

    def test_sine_derivative(self):
        x = torus_nodes(0.0, 1.0, 2048)
        f = GridField((0.0,), (1.0,), np.sin(2 * np.pi * x))
        assert grad_supnorm(f) == pytest.approx(2 * np.pi, rel=1e-4)

    def test_2d_matches_hand_difference(self):
        # both axes wrapped; a spike on the seam x = 0 gives the largest
        # difference at the nodes beside it, one of them across the seam
        mx, my = 16, 12
        v = np.random.default_rng(3).standard_normal((mx, my))
        v[0, 4] = 50.0
        f = GridField((0.0, 0.0), (1.0, 2.0), v)
        hx, hy = f.spacing
        best = 0.0
        for i in range(mx):
            for j in range(my):
                d = v[(i + 1) % mx, j] - v[(i - 1) % mx, j]
                best = max(best, abs(d) / (2 * hx))
        for i in range(mx):
            for j in range(my):
                d = v[i, (j + 1) % my] - v[i, (j - 1) % my]
                best = max(best, abs(d) / (2 * hy))
        assert grad_supnorm(f) == best


class TestRegularizationBounds:
    def test_weierstrass_all_three_bounds(self):
        u = make_weierstrass(0.5, 2, 8, 4096)
        reports = verify_regularization(u, 0.5, [0.02, 0.05, 0.1])
        for r in reports:
            assert r.pass_b, r
            assert r.pass_c, r
            assert r.pass_d, r

    def test_measured_error_scales_like_sqrt_eps(self):
        u = make_weierstrass(0.5, 2, 8, 4096)
        r1, r2 = verify_regularization(u, 0.5, [0.025, 0.1])
        # quadrupling eps should roughly double the sup error, never more
        assert r2.measured_c <= 2.5 * r1.measured_c

    def test_bound_reads_the_field_cnorm(self):
        u = make_weierstrass(0.5, 2, 6, 1024)
        est = holder_seminorm(u, 0.5)
        reports = verify_regularization(u, 0.5, [0.05])
        assert reports[0].bound_c == pytest.approx(est.cnorm * 0.05 ** 0.5)
