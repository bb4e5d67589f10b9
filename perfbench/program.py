"""Locating the program under test and pinning its thread pools.

Nothing here imports numpy: pin_threads must run before the first numpy
import, because OpenBLAS and OpenMP read their thread counts once, when
the library is loaded.
"""

import os
import sys

# Every variable the BLAS/OpenMP runtimes numpy may be linked against read.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ProgramMissing(RuntimeError):
    """The working directory does not hold the program's source tree."""


def pin_threads(count=1):
    """Fix the BLAS and OpenMP pools to `count` threads; None leaves them alone."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy is already imported; thread counts can no longer be set")
    if count is None:
        for var in THREAD_VARS:
            os.environ.pop(var, None)
        return
    for var in THREAD_VARS:
        os.environ[var] = str(count)


def import_program(root="."):
    """Import fermimass from <root>/src and nowhere else."""
    src = os.path.abspath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "fermimass", "__init__.py")):
        raise ProgramMissing(f"no fermimass source tree under {src}")
    sys.path.insert(0, src)
    import fermimass

    got = os.path.dirname(os.path.abspath(fermimass.__file__))
    if got != os.path.join(src, "fermimass"):
        raise ProgramMissing(f"fermimass was imported from {got}, not from {src}")
    return fermimass
