"""Numerical verifiers for a boundary-integral inequality for Holder forms
and the derived rate criteria for hyperbolic dynamics."""

__version__ = "0.1.0"

import os

# one OpenBLAS thread unless set: numpy loads OpenBLAS at import, but no
# run calls BLAS or LAPACK
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
