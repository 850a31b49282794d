import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import holderforms.dynamics
from holderforms.cli import main
from holderforms.dynamics import (
    AmbiguousSpectrumError,
    SpectralRates,
    ToralAutomorphism,
    UnresolvedSpectrumError,
    accessibility_criterion,
    anosov_section_criterion,
    companion_matrix,
    pisot_example,
    spectral_rates,
    standard_holder_bound,
)
from helpers import CAT_MAP, cat_map_conjugates


GOLDEN = (3.0 + math.sqrt(5.0)) / 2.0  # larger cat-map eigenvalue
DOUBLED_CAT_MAP = np.kron(np.eye(2, dtype=int), CAT_MAP)


@st.composite
def unimodular_matrices(draw):
    """Products of one or two upper and lower unitriangular integer matrices
    (each a product of elementary matrices I + k e_ij) with off-diagonal
    entries in [-2, 2], times an optional row sign flip, so |det| = 1.  The
    entries stay below about 100, where LAPACK's eigenvalues are a 1e-9
    reference: its error on the smallest moduli grows with the entries."""
    n = draw(st.integers(2, 4))
    M = np.eye(n, dtype=np.int64)
    for _ in range(draw(st.integers(1, 2))):
        for lower in (False, True):
            T = np.eye(n, dtype=np.int64)
            for i in range(n):
                for j in range(n):
                    if (i > j) if lower else (i < j):
                        T[i, j] = draw(st.integers(-2, 2))
            M = M @ T
    if draw(st.booleans()):
        M[0] = -M[0]
    return M


class TestToralAutomorphism:
    def test_cat_map_eigenvalues(self):
        A = ToralAutomorphism(CAT_MAP)
        mods = sorted(abs(e) for e in A.eigenvalues())
        assert mods[1] == pytest.approx(GOLDEN, abs=1e-12)
        assert mods[0] == pytest.approx(1.0 / GOLDEN, abs=1e-12)

    def test_inverse_reciprocal_duality(self):
        A = ToralAutomorphism(CAT_MAP)
        fw = sorted(abs(e) for e in A.eigenvalues())
        bw = sorted(abs(e) for e in A.inverse().eigenvalues())
        assert fw[0] * bw[1] == pytest.approx(1.0, abs=1e-12)
        assert fw[1] * bw[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [30, 40, 44])
    def test_fibonacci_power_has_exact_det_and_inverse(self, n):
        # [[F(n+1), F(n)], [F(n), F(n-1)]]: a float det reads 0 at n = 40
        # and 68 at n = 44, and a rounded float inverse fails from n = 30
        A = ToralAutomorphism(np.linalg.matrix_power([[1, 1], [1, 0]], n))
        assert A.det == (-1) ** n
        assert np.array_equal(A.matrix @ A.inverse().matrix,
                              np.eye(2, dtype=np.int64))

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            ToralAutomorphism([[2, 0], [0, 1]])

    @pytest.mark.parametrize("M", [np.zeros((0, 0), dtype=int),
                                   np.eye(5, dtype=int),
                                   np.ones((2, 3), dtype=int),
                                   np.ones(4, dtype=int)])
    def test_size_outside_one_to_four_rejected(self, M):
        # the empty product has determinant 1, so a 0 x 0 matrix would pass
        # the unimodularity check
        with pytest.raises(ValueError, match=r"size 1 to 4, got shape"):
            ToralAutomorphism(M)

    def test_non_integer_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            ToralAutomorphism([[1.5, 0.0], [0.0, 1.0]])

    def test_eigenvalue_product_is_det(self):
        A = ToralAutomorphism([[3, 1], [2, 1]])
        prod = np.prod(A.eigenvalues())
        assert abs(prod) == pytest.approx(1.0, abs=1e-12)

    def test_doubled_cat_map_has_real_double_eigenvalues(self):
        # (x^2 - 3x + 1)^2: a float companion-matrix solver split each
        # double root into a pair with imaginary parts near 1e-8
        A = ToralAutomorphism(DOUBLED_CAT_MAP)
        assert A.char_poly() == [1, -6, 11, -6, 1]
        eig = A.eigenvalues()
        assert len(eig) == 4
        assert all(z.imag == 0.0 for z in eig)
        mods = np.abs(eig)
        assert np.all(np.abs(mods[:2] - 1.0 / GOLDEN) <= 1e-15)
        assert np.all(np.abs(mods[2:] - GOLDEN) <= 1e-15)

    def test_unipotent_eigenvalue_is_exactly_one(self):
        # (x - 1)^2 splits into the exact root 1 with multiplicity 2
        for M in ([[1, 1], [0, 1]], [[1, 0], [0, 1]]):
            assert ToralAutomorphism(M).eigenvalues().tolist() == [1.0, 1.0]

    def test_ties_in_modulus_break_by_imaginary_part(self):
        A = ToralAutomorphism(
            [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 0]])
        eig = A.eigenvalues()
        assert eig[0] == eig[1].conjugate() and eig[0].imag < 0
        assert eig[2].imag == 0.0 and eig[3].imag == 0.0
        assert list(eig) == sorted(eig, key=lambda z: (abs(z), z.imag))

    def test_one_faddeev_leverrier_run_per_matrix(self, monkeypatch):
        # pisot_example builds the companion matrix and its inverse; det,
        # char_poly, eigenvalues and inverse read the stored run
        runs = []
        fl = holderforms.dynamics._faddeev_leverrier
        monkeypatch.setattr(holderforms.dynamics, "_faddeev_leverrier",
                            lambda M: runs.append(M) or fl(M))
        pisot_example()
        assert len(runs) == 2

    def test_large_entries_pass_the_backward_error_bound(self):
        # x^2 + 36193430 x + 1: the large root's residual is 0.079, above
        # 1e-9 max|c_k| = 0.036 but far below the bound 1e-9 sum |c_k|
        # |z|^(n-k), which is the size of Horner's rounding at z
        A = ToralAutomorphism([[-87091, 1908042], [1648044, -36106339]])
        eig = A.eigenvalues()
        assert abs(abs(eig[0]) * abs(eig[1]) - 1.0) <= 1e-14
        assert abs(eig[0] + eig[1] - (-87091 - 36106339)) <= 1e-8

    def test_unresolved_root_raises_with_its_residual(self, monkeypatch):
        # a root the polish leaves off is a typed error, not a bare
        # ArithmeticError: it names the root, its residual and its bound
        real = holderforms.dynamics._factor_roots
        monkeypatch.setattr(holderforms.dynamics, "_factor_roots",
                            lambda g: [z + 1e-3 for z in real(g)])
        with pytest.raises(UnresolvedSpectrumError) as exc:
            ToralAutomorphism(CAT_MAP).eigenvalues()
        err = exc.value
        assert isinstance(err, ArithmeticError)
        assert err.residual > err.bound > 0.0
        assert err.residual == pytest.approx(
            abs(err.root ** 2 - 3 * err.root + 1), rel=1e-9)
        assert repr(err.root) in str(err) and repr(err.residual) in str(err)

    @settings(max_examples=200, deadline=None)
    @given(M=unimodular_matrices())
    def test_spectrum_matches_lapack_and_the_coefficients(self, M):
        A = ToralAutomorphism(M)
        eig = A.eigenvalues()
        coeffs = A.char_poly()
        scale = max(abs(c) for c in coeffs)
        assert len(eig) == A.n
        assert list(eig) == sorted(eig, key=lambda z: (abs(z), z.imag))
        assert all(z.imag == 0.0 or z.conjugate() in eig for z in eig)
        assert abs(np.prod(eig) - A.det) <= 1e-12 * scale
        assert abs(np.sum(eig) - np.trace(M)) <= 1e-12 * scale
        ref = np.linalg.eigvals(M.astype(float))
        # LAPACK resolves a repeated eigenvalue only to about sqrt(eps),
        # so it is a 1e-9 reference for well separated spectra only
        gaps = np.abs(ref[:, None] - ref[None, :]) + np.eye(A.n)
        if gaps.min() > 1e-3:
            assert np.allclose(np.sort(np.abs(eig)), np.sort(np.abs(ref)),
                               rtol=1e-9, atol=0.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_conjugates_share_the_cat_spectrum(self, seed):
        M = cat_map_conjugates(seed, 1)[0]
        mods = sorted(abs(e) for e in ToralAutomorphism(M).eigenvalues())
        assert mods[1] == pytest.approx(GOLDEN, abs=1e-9)


class TestSpectralRates:
    def test_cat_map_rates(self):
        r = spectral_rates(ToralAutomorphism(CAT_MAP))
        assert r.lambda_u == pytest.approx(GOLDEN, abs=1e-12)
        assert r.lambda_s == pytest.approx(1.0 / GOLDEN, abs=1e-12)
        assert r.dims == (1, 0, 1)
        assert r.m_c == 1.0 and r.M_c == 1.0

    def test_mu_nu_conventions(self):
        r = spectral_rates(ToralAutomorphism(CAT_MAP))
        assert r.mu == pytest.approx(r.lambda_u)
        assert r.nu == pytest.approx(r.lambda_s)

    @pytest.mark.parametrize("matrix", ["1 1 0 1", "1 0 0 1"])
    def test_double_root_one_is_center_not_ambiguous(self, matrix, tmp_path,
                                                     capsys):
        # the root 1 of (x - 1)^2 is exact, not sqrt(eps) away from 1
        code = main(["criteria", "--matrix", matrix, "--outdir",
                     str(tmp_path)])
        assert code == 2
        assert "need both stable and unstable directions" in \
            capsys.readouterr().err

    def test_pisot_companion_has_one_dim_center_free_splitting(self):
        r = spectral_rates(companion_matrix(0, -1, -1))
        ds, dc, du = r.dims
        assert du == 1 and ds == 2 and dc == 0

    def test_companion_matrix_needs_integer_unit_constant_term(self):
        # det = -c0, so |c0| != 1 fails the class's |det| = 1 check
        with pytest.raises(ValueError, match=r"\|det\| must be 1.*got -2"):
            companion_matrix(0, -1, 2)
        with pytest.raises(ValueError, match="integers"):
            companion_matrix(0, -1.5, -1)


class TestCriteria:
    def test_section_criterion_monotone_in_theta(self):
        r = spectral_rates(ToralAutomorphism(CAT_MAP))
        v1 = anosov_section_criterion(r, 0.2).value
        v2 = anosov_section_criterion(r, 0.8).value
        assert v2 < v1  # nu < 1, so larger theta helps

    def test_section_criterion_threshold_value(self):
        r = spectral_rates(ToralAutomorphism(CAT_MAP))
        rep = anosov_section_criterion(r, 0.5)
        tt = rep.theta_threshold
        assert r.mu * r.nu ** tt == pytest.approx(1.0, abs=1e-9)

    def test_unimodular_obstruction(self):
        # mu nu = 1 for area-preserving 2x2 maps, so mu nu^theta > 1 on (0,1)
        for M in cat_map_conjugates(0, 10):
            r = spectral_rates(ToralAutomorphism(M))
            for theta in (0.05, 0.5, 0.95):
                assert not anosov_section_criterion(r, theta).holds

    def test_theta_out_of_range_rejected(self):
        r = spectral_rates(ToralAutomorphism(CAT_MAP))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                anosov_section_criterion(r, bad)

    def test_modulus_near_one_raises_with_the_modulus(self, monkeypatch):
        # within 1e-6 of 1 but not within 1e-9: neither center nor hyperbolic
        near = 1.0 + 1e-7
        monkeypatch.setattr(ToralAutomorphism, "eigenvalues",
                            lambda self: np.array([near, 1.0 / near]))
        with pytest.raises(AmbiguousSpectrumError) as exc:
            spectral_rates(ToralAutomorphism(CAT_MAP))
        assert isinstance(exc.value, ValueError)
        assert exc.value.modulus == near
        assert repr(near) in str(exc.value)

    def test_accessibility_ell_validation(self):
        r = spectral_rates(companion_matrix(0, -1, -1))
        with pytest.raises(ValueError):
            accessibility_criterion(r, 0.5, ell=1)  # dim E^c = 0 here

    @settings(max_examples=200, deadline=None)
    @given(mu=st.floats(1.0 + 1e-6, 1e3), nu=st.floats(1e-3, 1.0 - 1e-6),
           theta=st.floats(0.01, 0.99))
    def test_section_criterion_is_accessibility_at_one_center(self, mu, nu,
                                                             theta):
        # at l = 1 and m_c = 1 the accessibility formula is the section
        # one, value and threshold bit for bit
        r = SpectralRates(mu, mu, nu, nu, 1.0, 1.0, (1, 1, 1))
        sec = anosov_section_criterion(r, theta)
        acc = accessibility_criterion(r, theta, ell=1)
        assert sec[1:] == acc[1:]
        assert sec.value == mu * nu ** theta
        assert sec.theta_threshold == math.log(mu) / (-math.log(nu))

    def test_both_criteria_agree_on_a_product_with_a_circle(self):
        # the --ell 1 example of the criteria subcommand
        A = ToralAutomorphism(np.array([[0, 0, 1], [1, 0, 1], [0, 1, 0]]))
        r = spectral_rates(A, extra_center_dims=1)
        sec = anosov_section_criterion(r, 0.5)
        acc = accessibility_criterion(r, 0.5, ell=1)
        assert (sec.name, acc.name) == ("anosov_section", "accessibility")
        assert sec[1:] == acc[1:]
        assert (sec.value, sec.theta_threshold) == (1.2347884757843555,
                                                    2.0000000000000022)


class TestPisotExample:
    def test_root_of_the_cubic(self):
        p = pisot_example()
        assert abs(p.xi ** 3 - p.xi - 1.0) <= 1e-9
        assert p.xi == pytest.approx(1.3247179572, abs=1e-9)

    def test_unimodularity(self):
        p = pisot_example()
        assert p.det == 1
        assert abs(p.xi * p.eta ** 2 - 1.0) <= 1e-9

    def test_thresholds_coincide_at_half(self):
        p = pisot_example()
        assert p.accessibility_threshold == pytest.approx(0.5, abs=1e-9)
        assert p.standard_theta == pytest.approx(0.5, abs=1e-9)

    def test_standard_bound_consistency(self):
        p = pisot_example()
        rates = spectral_rates(companion_matrix(0, -1, -1).inverse(),
                               extra_center_dims=1)
        assert standard_holder_bound(rates) == pytest.approx(
            p.standard_theta, abs=1e-12)
