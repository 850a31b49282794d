"""Reusable experiment builders shared by the CLI and the acceptance suite."""

from __future__ import annotations

import math

import numpy as np

from .grids import make_weierstrass, weierstrass_callable
from .chains import OneForm, rectangle_corners

__all__ = [
    "weierstrass_form",
    "analytic_weierstrass_form",
    "dyadic_square_family",
    "family_scale_slope",
    "random_convex_polygon_vertices",
    "cat_map_conjugates",
]


def weierstrass_form(theta: float, base: int = 2, terms: int = 8,
                     resolution: int = 2048) -> OneForm:
    """Grid-sampled alpha = W(x) dy on the unit torus.

    Its dy component depends on x alone, so it is the periodic 1-D field
    ``make_weierstrass(...)``, read at planar points through x.
    """
    return OneForm(None, make_weierstrass(theta, base, terms, resolution),
                   theta)


def analytic_weierstrass_form(theta: float, base: int = 2,
                              terms: int = 8) -> OneForm:
    """Exact-evaluator counterpart of :func:`weierstrass_form` (oracle use)."""
    w = weierstrass_callable(theta, base, terms)
    return OneForm(None, lambda pts: w(pts[..., 0]), theta)


def dyadic_square_family(j_range=range(2, 9), anchors: int = 8):
    """Squares of side 2^-j at evenly spread anchors, labelled by scale.

    Returns ``(disk_id, corners)`` pairs, as ``verify_main_inequality``
    reads them.
    """
    family = []
    for j in j_range:
        r = 2.0 ** (-j)
        for i in range(anchors):
            x0 = (i / anchors) * (1.0 - r)
            y0 = ((i + 0.5) / anchors) * (1.0 - r)
            family.append((f"j{j}a{i}", rectangle_corners((x0, y0),
                                                          (x0 + r, y0 + r))))
    return family


def family_scale_slope(reports):
    """Least-squares slope of log(max ratio per scale) against log(side).

    Report ids follow the ``j<j>a<i>`` convention from
    :func:`dyadic_square_family`.
    """
    per_scale = {}
    for rep in reports:
        if rep.skipped:
            continue
        j = int(rep.disk_id[1:].split("a")[0])
        per_scale[j] = max(per_scale.get(j, 0.0), rep.ratio)
    js = sorted(per_scale)
    if len(js) < 2:
        raise ValueError("need at least two scales to fit a slope")
    log_r = np.array([-j * math.log(2.0) for j in js])
    log_ratio = np.log([per_scale[j] for j in js])
    slope = float(np.polyfit(log_r, log_ratio, 1)[0])
    return slope, per_scale


def random_convex_polygon_vertices(rng: np.random.Generator,
                                   n_vertices: int = 8,
                                   center=(0.0, 0.0), radius: float = 1.0):
    """Convex polygon inscribed in a circle: sorted random angles."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_vertices))
    cx, cy = center
    return [(cx + radius * math.cos(a), cy + radius * math.sin(a))
            for a in angles]


def cat_map_conjugates(seed: int, count: int):
    """Unimodular integer conjugates B A B^-1 of the cat map (det B = +-1)."""
    from .dynamics import CAT_MAP

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
