import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holderforms.dynamics import (
    AmbiguousSpectrumError,
    ToralAutomorphism,
    accessibility_criterion,
    anosov_section_criterion,
    companion_matrix,
    pisot_example,
    spectral_rates,
    standard_holder_bound,
    toral_automorphism,
)
from helpers import CAT_MAP, cat_map_conjugates


GOLDEN = (3.0 + math.sqrt(5.0)) / 2.0  # larger cat-map eigenvalue


class TestToralAutomorphism:
    def test_cat_map_eigenvalues(self):
        A = toral_automorphism(CAT_MAP)
        mods = sorted(abs(e) for e in A.eigenvalues())
        assert mods[1] == pytest.approx(GOLDEN, abs=1e-12)
        assert mods[0] == pytest.approx(1.0 / GOLDEN, abs=1e-12)

    def test_inverse_reciprocal_duality(self):
        A = toral_automorphism(CAT_MAP)
        fw = sorted(abs(e) for e in A.eigenvalues())
        bw = sorted(abs(e) for e in A.inverse().eigenvalues())
        assert fw[0] * bw[1] == pytest.approx(1.0, abs=1e-12)
        assert fw[1] * bw[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [30, 40, 44])
    def test_fibonacci_power_has_exact_det_and_inverse(self, n):
        # [[F(n+1), F(n)], [F(n), F(n-1)]]: a float det reads 0 at n = 40
        # and 68 at n = 44, and a rounded float inverse fails from n = 30
        A = toral_automorphism(np.linalg.matrix_power([[1, 1], [1, 0]], n))
        assert A.det == (-1) ** n
        assert np.array_equal(A.matrix @ A.inverse().matrix,
                              np.eye(2, dtype=np.int64))

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            toral_automorphism([[2, 0], [0, 1]])

    def test_non_integer_rejected(self):
        with pytest.raises((ValueError, TypeError)):
            toral_automorphism([[1.5, 0.0], [0.0, 1.0]])

    def test_eigenvalue_product_is_det(self):
        A = toral_automorphism([[3, 1], [2, 1]])
        prod = np.prod(A.eigenvalues())
        assert abs(prod) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_conjugates_share_the_cat_spectrum(self, seed):
        M = cat_map_conjugates(seed, 1)[0]
        mods = sorted(abs(e) for e in toral_automorphism(M).eigenvalues())
        assert mods[1] == pytest.approx(GOLDEN, abs=1e-9)


class TestSpectralRates:
    def test_cat_map_rates(self):
        r = spectral_rates(toral_automorphism(CAT_MAP))
        assert r.lambda_u == pytest.approx(GOLDEN, abs=1e-12)
        assert r.lambda_s == pytest.approx(1.0 / GOLDEN, abs=1e-12)
        assert r.dims == (1, 0, 1)
        assert r.m_c == 1.0 and r.M_c == 1.0

    def test_mu_nu_conventions(self):
        r = spectral_rates(toral_automorphism(CAT_MAP))
        assert r.mu == pytest.approx(r.lambda_u)
        assert r.nu == pytest.approx(r.lambda_s)

    def test_pisot_companion_has_one_dim_center_free_splitting(self):
        r = spectral_rates(companion_matrix(0, -1, -1))
        ds, dc, du = r.dims
        assert du == 1 and ds == 2 and dc == 0


class TestCriteria:
    def test_section_criterion_monotone_in_theta(self):
        r = spectral_rates(toral_automorphism(CAT_MAP))
        v1 = anosov_section_criterion(r, 0.2).value
        v2 = anosov_section_criterion(r, 0.8).value
        assert v2 < v1  # nu < 1, so larger theta helps

    def test_section_criterion_threshold_value(self):
        r = spectral_rates(toral_automorphism(CAT_MAP))
        rep = anosov_section_criterion(r, 0.5)
        tt = rep.theta_threshold
        assert r.mu * r.nu ** tt == pytest.approx(1.0, abs=1e-9)

    def test_unimodular_obstruction(self):
        # mu nu = 1 for area-preserving 2x2 maps, so mu nu^theta > 1 on (0,1)
        for M in cat_map_conjugates(0, 10):
            r = spectral_rates(toral_automorphism(M))
            for theta in (0.05, 0.5, 0.95):
                assert not anosov_section_criterion(r, theta).holds

    def test_theta_out_of_range_rejected(self):
        r = spectral_rates(toral_automorphism(CAT_MAP))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                anosov_section_criterion(r, bad)

    def test_modulus_near_one_raises_with_the_modulus(self, monkeypatch):
        # within 1e-6 of 1 but not within 1e-9: neither center nor hyperbolic
        near = 1.0 + 1e-7
        monkeypatch.setattr(ToralAutomorphism, "eigenvalues",
                            lambda self: np.array([near, 1.0 / near]))
        with pytest.raises(AmbiguousSpectrumError) as exc:
            spectral_rates(toral_automorphism(CAT_MAP))
        assert isinstance(exc.value, ValueError)
        assert exc.value.modulus == near
        assert repr(near) in str(exc.value)

    def test_accessibility_ell_validation(self):
        r = spectral_rates(companion_matrix(0, -1, -1))
        with pytest.raises(ValueError):
            accessibility_criterion(r, 0.5, ell=1)  # dim E^c = 0 here


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
        assert standard_holder_bound(p.rates) == pytest.approx(
            p.standard_theta, abs=1e-12)
