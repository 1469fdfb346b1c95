"""Where the program lives and how its processes are pinned.

The benchmark runs from the root of a source checkout and imports gjmslab
from `src/` there, never from an installed copy.  BLAS and OpenMP pools are
pinned to one thread before numpy loads, in this process and in every child.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    pass


def pin() -> None:
    """Put the checkout's `src/` first on the path and pin thread pools to one thread."""
    if not os.path.isfile(os.path.join(SRC, "gjmslab", "__init__.py")):
        raise MissingProgram(f"no gjmslab package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)


def child_env() -> dict:
    """Environment for child interpreters: the same pins and the checkout's `src/`."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = SRC
    return env
