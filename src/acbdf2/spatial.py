"""Periodic grid, five-point Laplacian, norms, snapshot files.

Fields are plain ``(M, M)`` float64 arrays indexed ``u[j, i]`` with ``i``
the x index and ``j`` the y index, so the C-order flat index is
``i + j * M``.  The Laplacian is applied matrix-free; nothing in the solver
path ever assembles a matrix.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SNAPSHOT_MAGIC = b"ACF1"


@dataclass(frozen=True)
class Grid2D:
    """Square periodic grid: ``M`` nodes per direction, spacing ``h = L / M``."""

    M: int
    L: float
    origin: float = 0.0

    def __post_init__(self) -> None:
        if self.M < 2:
            raise ValueError("need at least 2 nodes per direction")
        if not self.L > 0.0:
            raise ValueError("edge length must be positive")

    @property
    def h(self) -> float:
        return self.L / self.M

    def axis(self) -> np.ndarray:
        return self.origin + self.h * np.arange(self.M)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays ``X[j, i] = x_i``, ``Y[j, i] = y_j``."""
        x = self.axis()
        return np.meshgrid(x, x)

    @cached_property
    def neg_laplacian_symbol(self) -> np.ndarray:
        """Eigenvalues of ``-laplacian_apply`` laid out like ``numpy.fft.rfft2``.

        ``(4 / h^2) (sin^2(pi k / M) + sin^2(pi l / M))`` at row frequency
        ``k`` and column frequency ``l``, shape ``(M, M // 2 + 1)``: the
        five-point stencil is diagonal in the discrete Fourier basis, so
        ``irfft2(-symbol * rfft2(u))`` equals ``laplacian_apply(u)`` up to
        rounding.  Built on first use and kept for the grid's lifetime;
        read-only because every caller shares it.
        """
        M = self.M
        rows = np.sin(np.pi * np.arange(M) / M) ** 2
        cols = rows[: M // 2 + 1]
        symbol = (4.0 / (self.h * self.h)) * (rows[:, None] + cols[None, :])
        symbol.flags.writeable = False
        return symbol

    @cached_property
    def work(self) -> dict:
        """The solver's work buffers for this grid: one entry, by class.

        Empty until the stepper stores its :class:`acbdf2.stepper.Workspace`
        here, with the red-black view it builds on an even grid; it then lives
        as long as the grid, so a march reuses one set on every step.  Its
        contents belong to the call that is running: one solve at a time.
        """
        return {}


def laplacian_apply(
    u: np.ndarray,
    h: float,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Five-point periodic Laplacian, ``sum over neighbors of (u_nb - u) / h^2``.

    The sum-of-differences form keeps every intermediate at the size of a
    one-cell increment of ``u``; the textbook ``sum - 4 u`` grouping carries
    order-one intermediates whose rounding, amplified by ``1/h^2``, puts a
    noise floor near ``1e-12`` on fine grids.  Residual-driven Newton needs
    the quieter form.  The four differences are summed as
    ``((below + above) + left) + right``.

    Each axis forms one first difference, ``d[j] = u[j-1] - u[j]`` down the
    rows and ``f[i] = u[i-1] - u[i]`` along them, and reads the other
    neighbor's difference off it: ``u[j+1] - u[j]`` is exactly ``-d[j+1]``,
    since IEEE subtraction rounds ``a - b`` and ``b - a`` to values of
    opposite sign, and adding ``-d`` is subtracting ``d``.  So the result
    equals, value for value, the sum of four separately formed
    differences; only the sign of a zero can differ, where zeros of both
    signs sit side by side in ``u``.  The differences run over the flat
    C-ordered fields, one shifted slice per axis, with the wrap-around
    row and column fixed after: 6 whole-field operations, 17 passes over
    the field.

    ``out`` and ``scratch`` let hot loops reuse buffers; both must match
    ``u`` in shape, must not alias it and must be C-contiguous, else
    :class:`ValueError`.  ``u`` may have any layout; one that is not
    C-contiguous is copied.
    """
    if out is None:
        out = np.empty_like(u, order="C")
    if scratch is None:
        scratch = np.empty_like(u, order="C")
    if not (out.flags.c_contiguous and scratch.flags.c_contiguous):
        raise ValueError("out and scratch must be C-contiguous")
    n = u.shape[1]
    uf, of, sf = u.ravel(), out.reshape(-1), scratch.reshape(-1)
    # first axis: d = u[j-1] - u[j] in scratch, then d[j] - d[j+1]
    np.subtract(uf[:-n], uf[n:], out=sf[n:])
    np.subtract(u[-1], u[0], out=scratch[0])
    np.subtract(sf[:-n], sf[n:], out=of[:-n])
    np.subtract(scratch[-1], scratch[0], out=out[-1])
    # second axis: f = u[i-1] - u[i] in scratch, the flat shift's column 0
    # fixed to the row's own wrap
    np.subtract(uf[:-1], uf[1:], out=sf[1:])
    np.subtract(u[:, -1], u[:, 0], out=scratch[:, 0])
    out += scratch
    # the right neighbor's difference is -f[i+1]; the flat shift reads the
    # last column's from column 0 of the next row, so that column takes
    # each row's wrap one row down, from u rather than by a shifted copy
    np.subtract(u[:-1, -1], u[:-1, 0], out=scratch[1:, 0])
    np.subtract(of[:-1], sf[1:], out=of[:-1])
    out[-1, -1] -= u[-1, -1] - u[-1, 0]
    out *= 1.0 / (h * h)
    return out


def max_norm(u: np.ndarray) -> float:
    """``max |u|`` from the extremes of ``u``, so no ``|u|`` field is made.

    ``abs`` only clears the sign of a zero norm.
    """
    return abs(float(max(u.max(), -u.min())))


def l2_norm(u: np.ndarray, h: float, scratch: np.ndarray | None = None) -> float:
    """Grid-weighted l2 norm, ``sqrt(h^2 sum u^2)``.

    The squares go into ``scratch`` when given (it may be ``u`` itself),
    else into a new array.
    """
    return float(h * np.sqrt(np.sum(np.multiply(u, u, out=scratch))))


def write_snapshot(path: str, u: np.ndarray, t: float) -> None:
    """Binary field dump: magic, M twice (u32 LE), time (f64 LE), M^2 f64."""
    M = u.shape[0]
    if u.shape != (M, M):
        raise ValueError("snapshot field must be square")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IId", M, M, t))
        fh.write(np.ascontiguousarray(u, dtype="<f8").tobytes())


def read_snapshot(path: str) -> tuple[np.ndarray, float]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not a snapshot file: magic {magic!r}")
        m1, m2, t = struct.unpack("<IId", fh.read(16))
        if m1 != m2:
            raise ValueError("snapshot dimensions disagree")
        data = np.frombuffer(fh.read(8 * m1 * m2), dtype="<f8")
        if data.size != m1 * m2:
            raise ValueError("snapshot payload truncated")
    return data.reshape(m1, m2).copy(), t
