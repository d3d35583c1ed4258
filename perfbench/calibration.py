"""Fixed blocks of work, using no pdint code, that track the host's speed.

The speed of a shared machine drifts by 20-40% over minutes, and it
switches between a fast and a slow state every few seconds.  Work of
different kinds slows by different amounts in the slow state: Python-bound
calls on small arrays by about 60%, a dense 1024x1024 LU by about 25%.
So each workload is timed against the block that resembles its own hot
loop, run between its calls, and every call's time is scaled by the
block's reference time over the mean of the blocks just before and just
after it.  A change to pdint cannot move a block, so a gain or a loss
shows in full.
"""

import time

import numpy as np
import scipy.linalg


def small_block() -> float:
    """Seconds for 200 LU solves of a 6x6 system and a weighted norm each,
    the per-call overhead that dominates the kinetics workloads."""
    a = np.eye(6) * 4.0 + 0.1
    b = np.linspace(1.0, 2.0, 6)
    t = time.perf_counter()
    for _ in range(200):
        lu = scipy.linalg.lu_factor(a, check_finite=False)
        x = scipy.linalg.lu_solve(lu, b, check_finite=False)
        float(np.sqrt(np.mean((x / (1e-6 + 1e-6 * np.abs(b))) ** 2)))
    return time.perf_counter() - t


DENSE_N = 1024
DENSE_COLUMNS = 128
_dense = {}


def _stencil(v: np.ndarray) -> np.ndarray:
    r = v * v - np.roll(v, -1)
    return r - np.roll(r, 1)


def dense_block() -> float:
    """Seconds for 128 finite-difference columns of a periodic stencil on
    1024 cells and one LU factorization and solve of a 1024x1024 matrix:
    the two kinds of work in a KdV step, which together slow in the slow
    state about as much as a step does."""
    if not _dense:
        rng = np.random.default_rng(0)
        _dense["a"] = np.asfortranarray(np.eye(DENSE_N) * 4.0 + rng.random((DENSE_N, DENSE_N)) * 1e-3)
        _dense["work"] = _dense["a"].copy(order="F")  # touched, so no page faults later
        _dense["y"] = 1.0 + rng.random(DENSE_N)
    a, work, y = _dense["a"], _dense["work"], _dense["y"]
    t = time.perf_counter()
    f0 = _stencil(y)
    for j in range(DENSE_COLUMNS):
        yp = y.copy()
        yp[j] += 1e-7
        work[:, j] = (_stencil(yp) - f0) / 1e-7
    np.copyto(work, a)
    lu = scipy.linalg.lu_factor(work, overwrite_a=True, check_finite=False)
    scipy.linalg.lu_solve(lu, y, check_finite=False)
    return time.perf_counter() - t


# name -> (block, its seconds in the slower state of a 2-vCPU x86-64 host at 2.1 GHz)
BLOCKS = {
    "small": (small_block, 7.5e-3),
    "dense": (dense_block, 2.9e-2),
}


def scaled(times, blocks, ref_s) -> list:
    """Per-call seconds scaled to the reference speed.

    ``blocks`` holds one block time before the first call and one after
    each call, so call ``i`` lies between ``blocks[i]`` and ``blocks[i + 1]``.
    """
    return [t * 2.0 * ref_s / (blocks[i] + blocks[i + 1]) for i, t in enumerate(times)]
