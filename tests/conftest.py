"""Test-session set-up: one BLAS thread, as ``bench/run.py`` uses.

With the default thread count, OpenBLAS sometimes spread the dense engine's
small matmuls over both cores of a 2-vCPU machine and an n=8 pulse took
105-136 ms instead of 1.3-1.9 ms, so a test's time depended on the run.
The variables only take effect if they are set before numpy loads.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin BLAS to one thread; "
        "set OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1 before it loads"
    )
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
