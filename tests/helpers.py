"""Builders that only the tests use."""

import numpy as np

from holderforms.chains import OneForm
from holderforms.dynamics import CAT_MAP
from holderforms.grids import weierstrass_callable


def analytic_weierstrass_form(theta: float, base: int = 2,
                              terms: int = 8) -> OneForm:
    """Exact-evaluator counterpart of ``experiments.weierstrass_form``."""
    w = weierstrass_callable(theta, base, terms)
    return OneForm(None, lambda pts: w(pts[..., 0]), theta)


def cat_map_conjugates(seed: int, count: int):
    """Unimodular integer conjugates B A B^-1 of the cat map (det B = +-1)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        B = np.eye(2, dtype=np.int64)
        for _ in range(rng.integers(1, 4)):
            k = int(rng.integers(-3, 4))
            if rng.integers(2):
                S = np.array([[1, k], [0, 1]], dtype=np.int64)
            else:
                S = np.array([[1, 0], [k, 1]], dtype=np.int64)
            B = B @ S
        # B is a product of shears, so det B = 1 and the integer inverse is exact
        Binv = np.round(np.linalg.inv(B.astype(float))).astype(np.int64)
        if not np.array_equal(B @ Binv, np.eye(2, dtype=np.int64)):
            continue
        M = B @ CAT_MAP @ Binv
        if np.max(np.abs(M)) > 10**6:
            continue
        out.append(M)
    return out
