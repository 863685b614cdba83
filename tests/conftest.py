"""Test-suite set-up: one BLAS/OpenMP thread, as the benchmark runs with.

The suite makes many small eigensolves, which slow down badly when BLAS
threads compete with other work on the host.  A value already set in the
environment is kept.  This runs before any test module imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
