"""Rate algebra for linear toral maps.

Spectral rates are eigenvalue moduli (sharp for linear maps in an adapted
metric, so the comparison constant is 1).  Building a ``ToralAutomorphism``
runs Faddeev-LeVerrier once, exactly in integers, for the n <= 4 matrix's
characteristic polynomial, determinant and integer inverse.

Eigenvalues are the polynomial's roots, found without LAPACK.  Yun's
algorithm, on primitive pseudo-remainders in Python integers, splits the
polynomial exactly into square-free factors, and the exponent of each factor
is the multiplicity of its roots.  A factor's roots are simple:
Durand-Kerner from fixed starting points finds them and Newton on the factor
polishes each to ~1e-14, so a multiple root is as accurate as a simple one
and the closed-form identities (reciprocal duality, unimodular obstruction)
hold to tight tolerance.  A Sturm sequence in integers counts each factor's
real roots; those have imaginary part exactly 0, and the others come as
exact conjugate pairs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "AmbiguousSpectrumError",
    "UnresolvedSpectrumError",
    "ToralAutomorphism",
    "SpectralRates",
    "CriterionReport",
    "PisotReport",
    "companion_matrix",
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


class UnresolvedSpectrumError(ArithmeticError):
    """A computed eigenvalue whose residual in the characteristic
    polynomial exceeds its backward-error bound; carries both."""

    def __init__(self, root: complex, residual: float, bound: float):
        super().__init__(
            f"eigenvalue {root!r} has residual {residual!r} in the "
            f"characteristic polynomial, above its bound {bound!r}")
        self.root, self.residual, self.bound = root, residual, bound


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


def _trim(p: list[int]) -> list[int]:
    """``p`` without leading zeros; the zero polynomial is ``[]``."""
    while p and p[0] == 0:
        p = p[1:]
    return p


def _primitive(p: list[int]) -> list[int]:
    """``p`` over the gcd of its coefficients, leading coefficient > 0."""
    p = _trim(p)
    g = math.gcd(*p) if p and p[0] > 0 else -math.gcd(*p)
    return [c // g for c in p]


def _derivative(p: list) -> list:
    return [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]


def _divide(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division: ``(q, r)`` with lc(b)^k a = q b + r, k = deg a -
    deg b + 1 and deg r < deg b; for a monic ``b``, quotient and remainder."""
    q, r = [], a
    while len(r) >= len(b):
        q = [b[0] * c for c in q] + [r[0]]
        r = [b[0] * c - r[0] * (b[i] if i < len(b) else 0)
             for i, c in enumerate(r)][1:]
    return q, _trim(r)


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient, from the primitive
    pseudo-remainder sequence.  A divisor of a monic integer polynomial
    comes out monic (Gauss's lemma), so dividing by it is exact."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_divide(a, b)[1])
    return a


def _squarefree_factors(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's square-free split of the monic ``f``: pairs ``(g, m)`` of monic,
    square-free, pairwise coprime integer polynomials of positive degree
    with ``f = prod g^m``."""
    a = _gcd(f, _derivative(f))
    b, c = _divide(f, a)[0], _divide(_derivative(f), a)[0]
    factors, m = [], 1
    while len(b) > 1:
        db = _derivative(b)          # deg c <= deg b'
        d = _trim([x - y for x, y in zip([0] * (len(db) - len(c)) + c, db)])
        a = _gcd(b, d)
        if len(a) > 1:
            factors.append((a, m))
        b, c, m = _divide(b, a)[0], _divide(d, a)[0], m + 1
    return factors


def _real_root_count(g: list[int]) -> int:
    """Number of real roots of the square-free ``g``: the sign changes of
    its Sturm sequence, in integers, at -inf less those at +inf."""
    seq = [g, _derivative(g)]
    while len(seq[-1]) > 1:
        a, b = seq[-2:]
        r = _divide(a, b)[1]
        # -rem(a, b) is -r / lc(b)^(deg a - deg b + 1); scale by |content|
        k = math.gcd(*r)
        if b[0] > 0 or (len(a) - len(b)) % 2:
            k = -k
        seq.append([c // k for c in r])
    changes = 0
    for a, b in zip(seq, seq[1:]):
        same = (a[0] > 0) == (b[0] > 0)
        # a sign change at -inf less one at +inf
        changes += (same == (len(a) - len(b)) % 2) - (not same)
    return changes


def _horner(p, z):
    v = 0
    for c in p:
        v = v * z + c
    return v


def _newton(p, dp, z):
    """Newton-polish ``z`` on ``p`` (derivative ``dp``): at most 50 steps,
    until a step is at most 1e-14 relative to the root (absolute below
    modulus 1)."""
    for _ in range(50):
        d = _horner(dp, z)
        if d == 0:
            break
        step = _horner(p, z) / d
        z -= step
        if abs(step) <= 1e-14 * max(1.0, abs(z)):
            break
    return z


def _factor_roots(g: list[int]) -> list[complex]:
    """Roots of the monic square-free ``g``: Durand-Kerner from fixed points
    inside Cauchy's bound, then Newton on ``g``.  As many roots as the Sturm
    count are real, with imaginary part 0; the rest are conjugate pairs."""
    d = len(g) - 1
    if d == 1:
        return [complex(-g[1])]
    p = [float(c) for c in g]
    dp = _derivative(p)
    z = [(1.0 + max(map(abs, p[1:]))) * (0.4 + 0.9j) ** k for k in range(d)]
    for _ in range(500):
        moved = 0.0
        for i, w in enumerate(z):
            den = 1.0
            for j, u in enumerate(z):
                if j != i:
                    den *= w - u
            z[i] = w - _horner(p, w) / den
            moved = max(moved, abs(z[i] - w) / max(1.0, abs(z[i])))
        if moved <= 1e-12:
            break
    z.sort(key=lambda w: abs(w.imag))
    n_real = _real_root_count(g)
    roots = [complex(_newton(p, dp, w.real)) for w in z[:n_real]]
    for w in z[n_real:]:
        if w.imag > 0:
            w = _newton(p, dp, w)
            roots += [w, w.conjugate()]
    if len(roots) != d:
        raise ArithmeticError("eigenvalue iteration failed to separate "
                              "conjugate roots")
    return roots


class ToralAutomorphism:
    """Integer matrix with |det| = 1 acting on the torus T^n (n <= 4)."""

    def __init__(self, matrix: np.ndarray):
        M = np.asarray(matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1] or not 1 <= len(M) <= 4:
            raise ValueError(f"need a square matrix of size 1 to 4, got "
                             f"shape {M.shape}")
        if not np.array_equal(M, np.round(M)):
            raise ValueError("matrix entries must be integers")
        self.matrix = M.astype(np.int64)
        self._coeffs, self._N = _faddeev_leverrier(self.matrix)
        det = self.det
        if abs(det) != 1:
            raise ValueError(f"|det| must be 1 (volume preserving), got {det}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def det(self) -> int:
        # det(xI - M) = (-1)^n det(M) at x = 0
        return (-1) ** self.n * self._coeffs[-1]

    def char_poly(self) -> list[int]:
        """Monic characteristic polynomial coefficients, highest degree
        first, as exact integers."""
        return list(self._coeffs)

    def eigenvalues(self) -> np.ndarray:
        """Roots of the characteristic polynomial, each repeated by its
        multiplicity, sorted by modulus with ties broken by imaginary part.
        Real roots have imaginary part exactly 0.  A root ``z`` with
        ``|p(z)| > 1e-9 sum |c_k| |z|^(n-k)``, a backward-error bound (that
        sum scales Horner's rounding at ``z``), raises
        ``UnresolvedSpectrumError``."""
        coeffs = self.char_poly()
        roots = [z for g, m in _squarefree_factors(coeffs)
                 for z in _factor_roots(g) for _ in range(m)]
        sizes = [abs(float(c)) for c in coeffs]
        for z in roots:
            residual = abs(_horner(coeffs, z))
            bound = 1e-9 * _horner(sizes, abs(z))
            if residual > bound:
                raise UnresolvedSpectrumError(z, residual, bound)
        roots.sort(key=lambda z: (abs(z), z.imag))
        return np.array(roots, dtype=complex)

    def inverse(self) -> "ToralAutomorphism":
        # M^-1 = -N_n / c_n, and c_n = +-1 for a unimodular M
        return ToralAutomorphism(
            np.array(-self._N * self._coeffs[-1], dtype=np.int64))


def companion_matrix(c2: int, c1: int, c0: int) -> ToralAutomorphism:
    """Companion matrix of the monic cubic x^3 + c2 x^2 + c1 x + c0.

    Its determinant is -c0, so the class's |det| = 1 check is |c0| = 1.
    """
    for c in (c2, c1, c0):  # the int64 array would truncate a fraction
        if int(c) != c:
            raise ValueError("coefficients must be integers")
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


def _rate_criterion(name: str, lu: float, ls: float, mc: float, ell: int,
                    theta: float) -> CriterionReport:
    """The report of ``lu^l ls^theta / mc^l < 1`` and its threshold."""
    value = lu ** ell * ls ** theta / mc ** ell
    # lu^l ls^t / mc^l = 1  <=>  t = l (ln mc - ln lu) / ln ls
    threshold = (ell * (math.log(mc) - math.log(lu)) / math.log(ls)
                 if ls != 1.0 else None)
    in_range = threshold is not None and 0.0 < threshold < 1.0
    return CriterionReport(name, value, value < 1.0, theta, threshold,
                           in_range)


def anosov_section_criterion(rates: SpectralRates, theta: float) -> CriterionReport:
    """Cross-section criterion mu * nu^theta < 1 for Anosov rates: the
    accessibility formula at l = 1 and m_c = 1, bit for bit."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must be in (0,1)")
    return _rate_criterion("anosov_section", rates.mu, rates.nu, 1.0, 1,
                           theta)


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
    return _rate_criterion("accessibility", rates.lambda_u, rates.lambda_s,
                           rates.m_c, ell, theta)


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
        accessibility_threshold=acc.theta_threshold,
        standard_theta=std,
    )
