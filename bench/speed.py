"""The host's speed, read off a fixed reference kernel, to scale times by.

The benchmark runs on a share of a machine whose speed moves by up to 1.8x
in phases of 10-20 s, for CPU time as much as for wall time, so a run's
median time depends on when the run is made more than on the program.
Every timed piece of work is therefore bracketed by two runs of a fixed
kernel that does the kinds of work the program does (a dict-and-set walk
in pure Python, a sparse LU solve, array arithmetic), and its time is
multiplied by ``NOMINAL_S`` over the kernel's time then. A slow phase of
the host slows the work and the kernel alike and cancels out; a change to
the program moves the work and not the kernel. The kernel never calls the
program.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# seconds one ``kernel_time()`` takes at the reference speed: about its
# median on a 2-vCPU Xeon at 2.1 GHz (bench/README.md, "Reference figures")
NOMINAL_S = 0.015

_N = 1600
_LAPLACIAN = sp.diags([-np.ones(_N - 1), 4.0 * np.ones(_N), -np.ones(_N - 1)], [-1, 0, 1], format="csc")
_RHS = np.ones(_N)


def _kernel() -> float:
    adj = {(i, i % 7): [(i + 1, 0), (i - 1, 1)] for i in range(3000)}
    seen = set()
    for key, nbrs in adj.items():
        seen.add(key)
        seen.update(nbrs)
    x = spla.spsolve(_LAPLACIAN, _RHS)
    return float((np.abs(x) ** 1.5).sum()) + len(seen)


def kernel_time(repeat: int = 4) -> float:
    """Seconds that ``repeat`` runs of the kernel take now."""
    start = time.perf_counter()
    for _ in range(repeat):
        _kernel()
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work bracketed by kernel times ``before`` and ``after``,
    as seconds at the reference speed."""
    return seconds * NOMINAL_S / (0.5 * (before + after))


def warm_up() -> None:
    """First calls pay for lazy imports and cold caches; keep them untimed."""
    for _ in range(3):
        _kernel()
