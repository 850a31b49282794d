"""Builders and reference implementations that only the tests use."""

import math

import numpy as np

from holderforms.chains import (
    OneForm, measure_polygons, polygon_boundary_integrals,
)
from holderforms.decay import (
    DecayStep, SmallnessError, choose_strip_count, cut_strips,
    iterate_rectangle,
)
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


def decay_steps_one_by_one(alpha, model, rect, theta, k_range, sigma,
                           c1=1.0, k_emp=1.0, cnorm=1.0, quad_tol=1e-10):
    """The ``steps`` and ``skipped_k`` of ``decay_bound_series``, step by step.

    The reference for the batched series: per admissible k, one
    ``cut_strips``, one ``measure_polygons`` and two
    ``polygon_boundary_integrals`` calls.
    """
    steps, skipped = [], []
    for k in k_range:
        sc = choose_strip_count(k, model, rect, sigma, c1)
        if not sc.admissible:
            skipped.append(k)
            continue
        rect_k = iterate_rectangle(model, rect, k)
        strips = cut_strips(rect_k, sc.n)
        length, area, diameter = measure_polygons(strips)
        if (length >= sigma).any():
            raise SmallnessError(k, sc.n, float(length.max()), sigma)
        rhs_shapes = [ln ** (1.0 - theta) * ar ** theta
                      for ln, ar in zip(length.tolist(), area.tolist())]
        (lhs_whole,) = polygon_boundary_integrals(alpha, cut_strips(rect_k, 1),
                                                  quad_tol)
        steps.append(DecayStep(
            k=k,
            n0=sc.n0,
            n=sc.n,
            strip_boundary_max=float(length.max()),
            strip_diameter_max=float(diameter.max()),
            bound=k_emp * cnorm * math.fsum(rhs_shapes),
            lhs_sum=math.fsum(polygon_boundary_integrals(alpha, strips,
                                                         quad_tol)),
            lhs_whole=lhs_whole,
        ))
    return tuple(steps), tuple(skipped)
