"""Shared test setup.

One BLAS thread: the suite's matrices are small, and on a machine with
few cores a multi-threaded BLAS spends more time in thread start-up and
contention than in arithmetic (``test_c01`` takes about 1 s instead of
0.04 s).  Set before any test module imports numpy; an explicit setting
in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
