"""Rate algebra for linear toral maps.

Spectral rates are eigenvalue moduli (sharp for linear maps in an adapted
metric, so the comparison constant is 1).  One exact Faddeev-LeVerrier run
in integers gives an n <= 4 integer matrix's characteristic polynomial,
determinant and integer inverse.  Eigenvalues are the polynomial's roots,
each polished by Newton iteration to ~1e-14 so the closed-form identities
(reciprocal duality, unimodular obstruction) hold to tight tolerance.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "AmbiguousSpectrumError",
    "ToralAutomorphism",
    "SpectralRates",
    "CriterionReport",
    "PisotReport",
    "companion_matrix",
    "toral_automorphism",
    "spectral_rates",
    "anosov_section_criterion",
    "accessibility_criterion",
    "standard_holder_bound",
    "pisot_example",
]

MODULUS_CENTER_TOL = 1e-9
MODULUS_AMBIGUOUS_TOL = 1e-6


class AmbiguousSpectrumError(ValueError):
    """An eigenvalue modulus too close to 1 to classify; carries it."""

    def __init__(self, modulus: float):
        super().__init__(
            f"eigenvalue modulus {modulus!r} is ambiguously close to 1; "
            "cannot classify as stable, center, or unstable")
        self.modulus = modulus


def _faddeev_leverrier(M: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Coefficients ``[1, c_1, ..., c_n]`` of det(xI - M), highest degree
    first, and the last auxiliary matrix N_n, for which M N_n = -c_n I.

    Runs in Python integers, so it is exact for any integer matrix.
    """
    n = M.shape[0]
    A = M.astype(object)
    eye = np.eye(n, dtype=object)
    coeffs = [1]
    N = np.zeros((n, n), dtype=object)
    for k in range(1, n + 1):
        N = A @ N + coeffs[-1] * eye
        coeffs.append(-np.trace(A @ N) // k)
    return coeffs, N


def _polish_roots(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Newton-polish each root: at most 50 steps, until a step is at most
    1e-14 relative to the root (absolute below modulus 1)."""
    dcoeffs = np.polyder(coeffs)
    out = roots.astype(complex).copy()
    for i, z in enumerate(out):
        for _ in range(50):
            p = np.polyval(coeffs, z)
            dp = np.polyval(dcoeffs, z)
            if dp == 0:
                break
            step = p / dp
            z = z - step
            if abs(step) <= 1e-14 * max(1.0, abs(z)):
                break
        out[i] = z
    return out


class ToralAutomorphism:
    """Integer matrix with |det| = 1 acting on the torus T^n (n <= 4)."""

    def __init__(self, matrix: np.ndarray):
        M = np.asarray(matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] > 4:
            raise ValueError("need a square matrix of size <= 4")
        if not np.array_equal(M, np.round(M)):
            raise ValueError("matrix entries must be integers")
        self.matrix = M.astype(np.int64)
        det = self.det
        if abs(det) != 1:
            raise ValueError(f"|det| must be 1 (volume preserving), got {det}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def det(self) -> int:
        # det(xI - M) = (-1)^n det(M) at x = 0
        return (-1) ** self.n * _faddeev_leverrier(self.matrix)[0][-1]

    def char_poly(self) -> np.ndarray:
        """Monic characteristic polynomial coefficients, highest degree
        first, as floats."""
        return np.array(_faddeev_leverrier(self.matrix)[0], dtype=float)

    def eigenvalues(self) -> np.ndarray:
        coeffs = self.char_poly()
        roots = np.roots(coeffs)
        roots = _polish_roots(coeffs, roots)
        resid = np.abs(np.polyval(coeffs, roots))
        if np.any(resid > 1e-9 * max(1.0, float(np.max(np.abs(coeffs))))):
            raise ArithmeticError("eigenvalue polish failed to converge")
        return roots[np.argsort(np.abs(roots))]

    def inverse(self) -> "ToralAutomorphism":
        # M^-1 = -N_n / c_n, and c_n = +-1 for a unimodular M
        coeffs, N = _faddeev_leverrier(self.matrix)
        return ToralAutomorphism(np.array(-N * coeffs[-1], dtype=np.int64))


def toral_automorphism(matrix) -> ToralAutomorphism:
    return ToralAutomorphism(np.asarray(matrix))


def companion_matrix(c2: int, c1: int, c0: int) -> ToralAutomorphism:
    """Companion matrix of the monic cubic x^3 + c2 x^2 + c1 x + c0.

    Unimodularity requires |c0| = 1; determinant equals -c0.
    """
    for c in (c2, c1, c0):
        if int(c) != c:
            raise ValueError("coefficients must be integers")
    if abs(c0) != 1:
        raise ValueError("|constant term| must be 1 for a toral automorphism")
    M = np.array([
        [0, 0, -c0],
        [1, 0, -c1],
        [0, 1, -c2],
    ], dtype=np.int64)
    return ToralAutomorphism(M)


class SpectralRates(NamedTuple):
    """Grouped eigenvalue moduli of a (partially) hyperbolic linear map.

    Empty stable/unstable groups leave the corresponding rate at None;
    an empty center reports m_c = M_c = 1 (the neutral convention used by
    the standard Holder estimate).
    """

    lambda_u: float | None   # max unstable modulus, ||T^u f||
    m_u: float | None        # min unstable modulus, m(T^u f)
    lambda_s: float | None   # max stable modulus, ||T^s f||
    m_s: float | None        # min stable modulus, m(T^s f)
    m_c: float               # min center modulus, m(T^c f)
    M_c: float               # max center modulus, ||T^c f||
    dims: tuple              # (dim E^s, dim E^c, dim E^u)

    @property
    def mu(self) -> float:
        """Flow-analog expansion rate."""
        if self.lambda_u is None:
            raise ValueError("no unstable directions")
        return self.lambda_u

    @property
    def nu(self) -> float:
        """Flow-analog contraction rate."""
        if self.lambda_s is None:
            raise ValueError("no stable directions")
        return self.lambda_s


def spectral_rates(A: ToralAutomorphism,
                   extra_center_dims: int = 0) -> SpectralRates:
    """Partition eigenvalue moduli against 1 and report the extreme rates.

    ``extra_center_dims`` models the direct product with that many identity
    circles.  A modulus within 1e-9 of 1 is center; a modulus within 1e-6
    but not 1e-9 of 1 is ambiguous and raises ``AmbiguousSpectrumError``.
    """
    mods = np.abs(A.eigenvalues())
    stable, center, unstable = [], [], []
    for m in mods:
        gap = abs(m - 1.0)
        if gap <= MODULUS_CENTER_TOL:
            center.append(m)
        elif gap < MODULUS_AMBIGUOUS_TOL:
            raise AmbiguousSpectrumError(float(m))
        elif m < 1.0:
            stable.append(m)
        else:
            unstable.append(m)
    center.extend([1.0] * extra_center_dims)
    return SpectralRates(
        lambda_u=max(unstable) if unstable else None,
        m_u=min(unstable) if unstable else None,
        lambda_s=max(stable) if stable else None,
        m_s=min(stable) if stable else None,
        m_c=min(center) if center else 1.0,
        M_c=max(center) if center else 1.0,
        dims=(len(stable), len(center), len(unstable)),
    )


class CriterionReport(NamedTuple):
    name: str
    value: float
    holds: bool              # value < 1, strictly
    theta: float
    theta_threshold: float | None  # solves value(theta) = 1; None if undefined
    threshold_in_range: bool

    def csv_row(self):
        thr = "" if self.theta_threshold is None else self.theta_threshold
        return [self.name, self.value, int(self.holds), self.theta, thr,
                int(self.threshold_in_range)]


def anosov_section_criterion(rates: SpectralRates, theta: float) -> CriterionReport:
    """Cross-section criterion mu * nu^theta < 1 for Anosov rates."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0,1)")
    mu, nu = rates.mu, rates.nu
    value = mu * nu ** theta
    # mu nu^t = 1  <=>  t = ln(mu) / (-ln(nu))
    threshold = math.log(mu) / (-math.log(nu)) if nu != 1.0 else None
    in_range = threshold is not None and 0.0 < threshold < 1.0
    return CriterionReport("anosov_section", value, value < 1.0, theta,
                           threshold, in_range)


def accessibility_criterion(rates: SpectralRates, theta: float,
                            ell: int) -> CriterionReport:
    """Non-accessibility criterion lambda_u^l lambda_s^theta / m_c^l < 1.

    ``ell`` must equal dim E^c and cannot exceed min(dim E^s, dim E^u).
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0,1)")
    ds, dc, du = rates.dims
    if ell != dc:
        raise ValueError(f"ell = {ell} must equal dim E^c = {dc}")
    if ell > min(ds, du):
        raise ValueError(
            f"dimension hypothesis violated: ell = {ell} exceeds "
            f"min(dim E^s, dim E^u) = {min(ds, du)}")
    lu, ls, mc = rates.lambda_u, rates.lambda_s, rates.m_c
    value = lu ** ell * ls ** theta / mc ** ell
    # lu^l ls^t / mc^l = 1  <=>  t = l (ln mc - ln lu) / ln ls
    threshold = (ell * (math.log(mc) - math.log(lu)) / math.log(ls)
                 if ls != 1.0 else None)
    in_range = threshold is not None and 0.0 < threshold < 1.0
    return CriterionReport("accessibility", value, value < 1.0, theta,
                           threshold, in_range)


def standard_holder_bound(rates: SpectralRates) -> float:
    """Largest theta in (0,1] certified by m_u * m_s^theta / M_c > 1.

    Returns 0.0 when even arbitrarily small exponents fail (m_u <= M_c).
    """
    mu_, ms_, Mc = rates.m_u, rates.m_s, rates.M_c
    if mu_ is None or ms_ is None:
        raise ValueError("need both stable and unstable directions")
    if not ms_ < 1.0 < mu_:
        raise ValueError("need m_s < 1 < m_u")
    if mu_ / Mc <= 1.0:
        return 0.0
    theta = (math.log(Mc) - math.log(mu_)) / math.log(ms_)
    return min(theta, 1.0)


class PisotReport(NamedTuple):
    xi: float
    eta: float
    det: int
    unimodular_residual: float       # |xi eta^2 - 1|
    rates: SpectralRates
    accessibility_threshold: float
    standard_theta: float

    @property
    def thresholds_coincide(self) -> bool:
        return abs(self.accessibility_threshold - self.standard_theta) <= 1e-9


def pisot_example() -> PisotReport:
    """The cubic-Pisot product example: both theta thresholds equal 1/2.

    Builds the companion matrix of x^3 - x - 1, inverts it, takes the
    product with the identity circle, and reports the non-accessibility
    threshold next to the standard Holder estimate.
    """
    A = companion_matrix(0, -1, -1)          # x^3 - x - 1
    eig = A.eigenvalues()
    xi = float(np.abs(eig[-1]))              # the real Pisot root
    eta = float(np.abs(eig[0]))              # modulus of the conjugate pair
    f0 = A.inverse()
    rates = spectral_rates(f0, extra_center_dims=1)
    acc = accessibility_criterion(rates, theta=0.75, ell=1)
    std = standard_holder_bound(rates)
    return PisotReport(
        xi=xi,
        eta=eta,
        det=A.det,
        unimodular_residual=abs(xi * eta * eta - 1.0),
        rates=rates,
        accessibility_threshold=acc.theta_threshold,
        standard_theta=std,
    )
