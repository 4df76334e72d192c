"""Shared test fixtures, independent oracles and a memory probe.

The dense Laplacian here is assembled entry by entry from the stencil
definition with modular index arithmetic, deliberately not reusing any
package code, so operator tests compare two independent constructions.
"""

import tracemalloc

import numpy as np
import pytest


def dense_laplacian(M: int, h: float) -> np.ndarray:
    """(M^2, M^2) periodic 5-point Laplacian; row-major node index i + j*M."""
    n = M * M
    A = np.zeros((n, n))
    for j in range(M):
        for i in range(M):
            row = i + j * M
            A[row, row] = -4.0
            A[row, (i + 1) % M + j * M] += 1.0
            A[row, (i - 1) % M + j * M] += 1.0
            A[row, i + ((j + 1) % M) * M] += 1.0
            A[row, i + ((j - 1) % M) * M] += 1.0
    return A / (h * h)


def peak_fields(grid, call):
    """Peak memory a warmed ``call()`` allocates, in fields of ``grid``.

    ``call`` runs once unmeasured first, so workspaces and caches exist;
    tracemalloc sees numpy's data buffers, and the peak includes a root the
    call returns.
    """
    tracemalloc.start()
    try:
        call()
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (8 * grid.M * grid.M)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
