"""Pin BLAS and OpenMP to one thread before numpy is imported.

The thread count changes floating-point results (summation order inside
BLAS), so tests and the benchmark run with the same setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
