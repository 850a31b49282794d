"""Reusable experiment builders shared by the CLI and the acceptance suite."""

from __future__ import annotations

import math

from .grids import make_weierstrass
from .chains import Term, rectangle_corners

__all__ = [
    "weierstrass_form",
    "dyadic_square_family",
    "family_scale_slope",
    "least_squares_slope",
    "random_convex_polygon_vertices",
]


def weierstrass_form(theta: float, base: int = 2, terms: int = 8,
                     resolution: int = 2048) -> tuple:
    """Grid-sampled alpha = W(x) dy on the unit torus.

    Its one term's field depends on x alone, so it is the periodic 1-D
    field ``make_weierstrass(...)``, read at planar points through x.
    """
    return (Term(make_weierstrass(theta, base, terms, resolution),
                 (0.0, 1.0)),)


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
        raise ValueError("need at least two scales with an unskipped square "
                         f"to fit a slope, got j = {js}")
    slope = least_squares_slope([-j * math.log(2.0) for j in js],
                                [math.log(per_scale[j]) for j in js])
    return slope, per_scale


def least_squares_slope(x, y) -> float:
    """Slope of the least-squares line through the points ``(x_i, y_i)``.

    The closed form ``sum (x_i - mx)(y_i - my) / sum (x_i - mx)^2`` about
    the means ``mx`` and ``my``, every sum a ``math.fsum``.  When the means
    and the centred products are exact floats, as for collinear points
    with integer x in arithmetic progression of odd length, the slope is
    exact.
    """
    x, y = [float(v) for v in x], [float(v) for v in y]
    if len(x) != len(y) or len(x) < 2:
        raise ValueError(f"need two or more (x, y) pairs, got {len(x)} x "
                         f"and {len(y)} y values")
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [v - mx for v in x]
    return (math.fsum(d * (v - my) for d, v in zip(dx, y))
            / math.fsum(d * d for d in dx))


def random_convex_polygon_vertices(rng, n_vertices: int = 8):
    """Convex polygon inscribed in the unit circle: sorted random angles.

    Each angle is ``2 pi rng.random()``, so ``rng`` may be a
    ``random.Random`` or a ``numpy.random.Generator``; for the latter the
    angles are those of ``rng.uniform(0, 2 pi, size=n_vertices)``.
    """
    angles = sorted(2.0 * math.pi * rng.random() for _ in range(n_vertices))
    return [(math.cos(a), math.sin(a)) for a in angles]
