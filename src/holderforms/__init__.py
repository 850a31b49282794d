"""Numerical verifiers for a boundary-integral inequality for Holder forms
and the derived rate criteria for hyperbolic dynamics."""

__version__ = "0.1.0"

import os

# one OpenBLAS thread unless set: numpy loads OpenBLAS at import, but no
# run calls BLAS or LAPACK
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .grids import (
    GridField, HolderEstimate, make_weierstrass, weierstrass_callable,
    holder_seminorm,
)
from .mollify import normalization_constant, deta_l1, mollify, \
    verify_regularization
from .chains import Term, rectangle_corners
from .inequality import (
    c_theta_constant, theta_bracket, eps_star, eps_sweep,
    isoperimetric_constant, isoperimetric_check, verify_main_inequality,
    mollification_split_check,
)
from .dynamics import (
    ToralAutomorphism, SpectralRates, companion_matrix, spectral_rates,
    anosov_section_criterion, accessibility_criterion, standard_holder_bound,
    pisot_example,
)
from .decay import LinearModel, USRectangle, iterate_rectangle, \
    choose_strip_count, decay_bound_series
