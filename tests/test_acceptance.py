"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success; a failure surfaces as a
normal pytest failure.  The whole file is designed to finish well inside a
minute on a laptop, so the expensive fixtures are shared at module scope.
"""

import math

import numpy as np
import pytest

from holderforms.chains import (
    measure_polygons,
    polygon_boundary_integrals,
    rectangle_corners,
)
from holderforms.cli import main as cli_main
from holderforms.decay import LinearModel, USRectangle, decay_bound_series
from holderforms.dynamics import (
    ToralAutomorphism,
    anosov_section_criterion,
    pisot_example,
    spectral_rates,
)
from holderforms.experiments import (
    dyadic_square_family,
    family_scale_slope,
    random_convex_polygon_vertices,
    weierstrass_form,
)
from holderforms.grids import GridField, holder_seminorm, make_weierstrass
from holderforms.inequality import (
    c_theta_constant,
    isoperimetric_check,
    isoperimetric_constant,
    mollify_one_form,
    one_form_cnorm,
    theta_bracket,
    verify_main_inequality,
)
from holderforms.mollify import (
    deta_l1,
    discrete_kernel,
    mollify,
    normalization_constant,
    verify_regularization,
)

from helpers import (
    CAT_MAP, cat_map_conjugates, eta, exterior_derivative, integrate_two_form,
    one_form, scaled_form, split_bound_sweep,
)


EPSILONS = (0.02, 0.05, 0.1)


def report(line):
    print(f"PASS {line}")


@pytest.fixture(scope="module")
def w_field():
    return make_weierstrass(0.5, 2, 8, 4096)


@pytest.fixture(scope="module")
def w_form_fine():
    alpha = weierstrass_form(0.5, 2, 8, 4096)
    return alpha, one_form_cnorm(alpha, 0.5)


@pytest.fixture(scope="module")
def w_form_family():
    alpha = weierstrass_form(0.5, 2, 8, 2048)
    return alpha, one_form_cnorm(alpha, 0.5)


def test_c01_mollifier_normalization():
    for n in (1, 2):
        for eps in EPSILONS:
            w = discrete_kernel(1.0 / 1024, eps, n)
            assert math.fsum(np.ravel(w)) == 1.0, (n, eps)
    t, gw = np.polynomial.legendre.leggauss(400)
    for n in (1, 2):
        A = normalization_constant(n)
        if n == 1:
            mass = float(np.sum(gw * eta(t, 1)))
        else:
            r = 0.5 * (t + 1.0)
            g = eta(np.stack([r, np.zeros_like(r)], axis=-1), 2)
            mass = float(2.0 * math.pi * 0.5 * np.sum(gw * g * r))
        assert abs(mass - 1.0) <= 1e-8, n
    report("criterion 01: discrete kernel mass exact, analytic mass to 1e-8")


def test_c02_sup_bound_random_fields():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(257)
        vals[-1] = vals[0]
        u = GridField((0.0,), (1.0,), (257,), vals)
        sup = float(np.max(np.abs(vals)))
        for eps in EPSILONS:
            ue = mollify(u, eps)
            assert float(np.max(np.abs(ue.values))) <= sup, (seed, eps)
    report("criterion 02: sup bound exact on 20 seeded fields x 3 epsilons")


def test_c03_approximation_bound(w_field):
    norm = holder_seminorm(w_field, 0.5)
    reports = verify_regularization(w_field, 0.5, EPSILONS)
    for r in reports:
        assert r.measured_c <= norm.cnorm * r.epsilon ** 0.5 * 1.05, r
    report("criterion 03: |u_eps - u| within cnorm sqrt(eps) x 1.05")


def test_c04_derivative_bound(w_field):
    norm = holder_seminorm(w_field, 0.5)
    dl1 = deta_l1(1)
    closed_form = 2.0 * float(eta(np.array([0.0]), 1)[0])
    assert abs(dl1 - closed_form) <= 1e-6
    reports = verify_regularization(w_field, 0.5, EPSILONS)
    for r in reports:
        assert r.measured_d <= dl1 * norm.cnorm * r.epsilon ** -0.5 * 1.05, r
    report("criterion 04: derivative bound with |d eta|_L1 = 2 eta(0) to 1e-6")


def test_c05_stokes(w_form_fine):
    # x dy over the regular 64-gon inscribed in the unit circle: x sampled
    # at 9 exact nodes of [-2, 2], whose seam cell [1.5, 2] misses the gon
    x = np.append(np.arange(-2.0, 2.0, 0.5), -2.0)
    x_dy = one_form(None, GridField((-2.0,), (2.0,), (9,), x))
    turn = 2.0 * math.pi * np.arange(64) / 64
    gon = np.stack([np.cos(turn), np.sin(turn)], axis=-1)
    (val,) = polygon_boundary_integrals(x_dy, [gon])
    assert abs(val - 32.0 * math.sin(2.0 * math.pi / 64)) <= 1e-6
    alpha, _ = w_form_fine
    lo, hi = (0.3, 0.3), (0.5, 0.5)
    a_eps = mollify_one_form(alpha, 0.05)
    (lhs,) = polygon_boundary_integrals(a_eps, [rectangle_corners(lo, hi)])
    rhs = integrate_two_form(exterior_derivative(a_eps), lo, hi)
    assert abs(lhs - rhs) <= 1e-5
    report("criterion 05: x dy = 64-gon area to 1e-6; mollified Stokes "
           "to 1e-5")


def test_c06_isoperimetric():
    assert isoperimetric_constant(2) == 1.0 / (4.0 * math.pi)
    rep = isoperimetric_check(2.0 * math.pi, math.pi)
    assert rep.holds and abs(rep.equality_gap) <= 1e-6
    polys = [random_convex_polygon_vertices(np.random.default_rng(seed))
             for seed in range(10)]
    for seed, (length, area) in enumerate(zip(*measure_polygons(polys)[:2])):
        rep = isoperimetric_check(length, area)
        assert rep.holds and rep.equality_gap > 1e-6, seed
    report("criterion 06: disk equality to 1e-6, 10 convex polygons strict")


def test_c07_minimizer():
    assert theta_bracket(0.5) == 2.0
    grid = np.geomspace(1e-4, 10.0, 1000)
    sweep = split_bound_sweep(cnorm=2.0, area=0.25, length=1.0, theta=0.5,
                              eps=grid)
    cf = c_theta_constant(0.5) * 2.0 * 1.0 ** 0.5 * 0.25 ** 0.5
    assert abs(sweep.min() - cf) / cf < 0.005
    report("criterion 07: sweep matches closed-form minimum to 0.5%")


def test_c08_main_inequality_family(w_form_family):
    alpha, cnorm = w_form_family
    fam = dyadic_square_family(range(2, 9), 8)
    reports = verify_main_inequality(alpha, fam, theta=0.5,
                                     smallness_sigma=1.25)
    emp = max(r.empirical_k for r in reports)
    assert math.isfinite(emp) and emp > 0.0
    slope, _ = family_scale_slope(reports)
    assert slope <= 0.1

    dy = one_form(None, GridField((0.0,), (1.0,), (2,), np.ones(2)))
    dy_reports = verify_main_inequality(dy, fam, theta=0.5,
                                        smallness_sigma=1.25)
    assert all(r.ratio <= 1e-8 for r in dy_reports)

    sub = dyadic_square_family(range(4, 7), 3)
    five = scaled_form(alpha, 5.0)
    assert abs(one_form_cnorm(five, 0.5) - 5.0 * cnorm) <= 1e-12 * cnorm
    a = verify_main_inequality(alpha, sub, theta=0.5)
    b = verify_main_inequality(five, sub, theta=0.5)
    assert all(abs(ra.ratio - rb.ratio) <= 1e-10 for ra, rb in zip(a, b))
    report("criterion 08: K finite, dy exact, slope <= 0.1, homogeneity 1e-10")


def test_c09_spectral_rates():
    A = ToralAutomorphism(CAT_MAP)
    mods = sorted(abs(e) for e in A.eigenvalues())
    golden = (3.0 + math.sqrt(5.0)) / 2.0
    assert abs(mods[1] - golden) <= 1e-12
    assert abs(mods[0] - 1.0 / golden) <= 1e-12
    inv = sorted(abs(e) for e in A.inverse().eigenvalues())
    assert abs(inv[0] * mods[1] - 1.0) <= 1e-12
    assert abs(inv[1] * mods[0] - 1.0) <= 1e-12
    report("criterion 09: cat-map spectrum and inverse duality to 1e-12")


def test_c10_pisot_example():
    p = pisot_example()
    assert abs(p.xi ** 3 - p.xi - 1.0) <= 1e-9
    assert abs(p.xi - 1.3247179572) <= 1e-9
    assert abs(p.xi * p.eta ** 2 - 1.0) <= 1e-9
    assert abs(p.accessibility_threshold - 0.5) <= 1e-9
    assert abs(p.standard_theta - 0.5) <= 1e-9
    report("criterion 10: Pisot root, unimodularity, both thresholds = 1/2")


def test_c11_unimodular_obstruction():
    for M in cat_map_conjugates(0, 10):
        rates = spectral_rates(ToralAutomorphism(M))
        for theta in np.linspace(0.02, 0.98, 25):
            assert not anosov_section_criterion(rates, theta).holds, M
        rep = anosov_section_criterion(rates, 0.5)
        t_star = rep.theta_threshold
        assert abs(rates.mu * rates.nu ** t_star - 1.0) <= 1e-9, M
    report("criterion 11: criterion never holds on 10 conjugates, value(theta*)=1")


def test_c12_decay_experiment():
    alpha = weierstrass_form(0.5, 2, 8)
    model = LinearModel(1.5, 0.4)
    rect = USRectangle((0.05, 0.05), 0.4, 0.1)
    series = decay_bound_series(alpha, model, rect, theta=0.5,
                                k_range=range(0, 9), sigma=0.5)
    predicted = model.mu * model.nu ** 0.5
    assert abs(predicted - 0.9487) <= 5e-4
    assert abs(series.fitted_rate - predicted) / predicted <= 0.10
    for s in series.steps:
        assert abs(s.lhs_sum - s.lhs_whole) <= 1e-8, s.k
        assert s.n0 < s.n < 2 * s.n0, s.k
    report("criterion 12: fitted rate within 10%, telescoping 1e-8, N in band")


def test_c13_cli_determinism(tmp_path):
    for sub in ("pisot", "isoperimetric", "criteria"):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}-{tag}"
            assert cli_main([sub, "--seed", "4",
                             "--outdir", str(out)]) == 0
            dirs.append(out)
        for fa in sorted(dirs[0].glob("*.csv")):
            assert fa.read_bytes() == (dirs[1] / fa.name).read_bytes(), fa
    report("criterion 13: byte-identical CSVs across reruns")
