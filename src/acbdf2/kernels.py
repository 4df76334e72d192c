"""Discrete convolution kernels of the variable-step two-step scheme.

The backward differentiation operator on a nonuniform mesh is a short
convolution over the solution increments.  With ``r_n = tau_n / tau_{n-1}``
the two nonzero weights at step ``n >= 2`` are

    b0 = (1 + 2 r_n) / (tau_n (1 + r_n)),
    b1 = - r_n^2   / (tau_n (1 + r_n)),

and the first step degenerates to the one-step operator ``b0 = 1/tau_1``,
``b1 = 0`` (the same formulas with ``r_1 = 0``).

The stability analysis never works with ``b0, b1`` directly.  It rewrites
the operator against the shifted increments ``vbar^k = v^k - eta v^{k-1}``
(``vbar^0 = v^0``), which turns the two-term convolution into a full one
with weights

    d_0 = b0,        d_j = eta^(j-1) (b0 eta + b1)   for 1 <= j <= n,

that are nonnegative and decreasing whenever
``r_n^2 / (1 + 2 r_n) <= eta < 1``.  The recombination weight is chosen
once per run from the largest admissible ratio ``r_s`` as
``eta = 2 r_s^2 / (1 + r_s)^2``, which maximizes the maximum-principle
step bound to leading order.

``complementary_row`` builds the discrete inverse of the ``d`` convolution
(the lower-triangular array ``Q`` with ``sum_j Q[n-j] d[j-k] = 1``).  The
solver itself never needs ``Q``; it exists for verification and for the
kernel-table dump of the command-line tool, and costs O(n^2) per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .time_mesh import RATIO_CEILING, S0_LIMIT, TimeMesh


@dataclass(frozen=True)
class Bdf2Kernels:
    """Convolution weights of one step, plus the step data they came from."""

    b0: float
    b1: float
    tau: float
    ratio: float


def step_kernels(tau: float, ratio: float) -> Bdf2Kernels:
    """Weights for a step of size ``tau`` following a ratio ``ratio``.

    ``ratio = 0`` yields the one-step (backward Euler) weights of the
    first step.
    """
    if tau <= 0.0:
        raise ValueError("step size must be positive")
    if ratio < 0.0:
        raise ValueError("step ratio cannot be negative")
    denom = tau * (1.0 + ratio)
    return Bdf2Kernels(
        b0=(1.0 + 2.0 * ratio) / denom,
        b1=-(ratio * ratio) / denom,
        tau=tau,
        ratio=ratio,
    )


def bdf2_kernels(mesh: TimeMesh, n: int) -> Bdf2Kernels:
    """Weights of mesh step ``n`` (1-based)."""
    if not 1 <= n <= mesh.n_steps:
        raise ValueError(f"step index {n} outside 1..{mesh.n_steps}")
    return step_kernels(mesh.tau(n), mesh.ratio(n))


def eta_floor(ratio) -> float:
    """Smallest admissible recombination weight, ``r^2 / (1 + 2r)``."""
    ratio = np.asarray(ratio, dtype=float)
    out = ratio * ratio / (1.0 + 2.0 * ratio)
    return out if out.ndim else float(out)


def eta_admissible(eta: float, ratio: float) -> bool:
    """True iff the recombined weights at this ratio are nonneg. decreasing."""
    return eta_floor(ratio) <= eta < 1.0


def choose_eta(r_s: float) -> float:
    """Recombination weight for a run whose ratios stay ``<= r_s``.

    ``eta = 2 r_s^2 / (1 + r_s)^2``; requires ``1 <= r_s < 1 + sqrt(2)``.
    Within that window the value is admissible for every ratio up to
    ``r_s`` and approaches 1 as ``r_s`` approaches the stability limit.
    """
    if not 1.0 <= r_s < S0_LIMIT:
        raise ValueError(f"ratio cap {r_s!r} outside [1, 1 + sqrt(2))")
    return 2.0 * r_s * r_s / ((1.0 + r_s) * (1.0 + r_s))


def run_eta(r_max: float) -> float:
    """:func:`choose_eta` for a run whose ratios stay ``<= r_max``.

    ``r_max`` is clamped into ``[1, RATIO_CEILING]``, so a uniform mesh, a
    single step or an uncapped controller all get an admissible weight.
    """
    return choose_eta(min(max(r_max, 1.0), RATIO_CEILING))


def recombined_kernels(k: Bdf2Kernels, eta: float, n: int) -> np.ndarray:
    """Weights ``d_0..d_n`` of step ``n`` against the shifted increments.

    Entry ``j`` multiplies the increment ``vbar^{n-j} - vbar^{n-j-1}`` for
    ``j < n`` and the starting value ``vbar^0`` for ``j = n``; the trailing
    entry equals ``eta`` times its predecessor by construction.
    """
    if n < 1:
        raise ValueError("need a step index >= 1")
    d = np.empty(n + 1)
    d[0] = k.b0
    tail = k.b0 * eta + k.b1
    d[1:] = tail * eta ** np.arange(n)
    return d


def recombined_rows(mesh: TimeMesh, eta: float) -> list[np.ndarray]:
    """Rows 1..N of the recombined kernel triangle (row n has n+1 entries)."""
    return [
        recombined_kernels(bdf2_kernels(mesh, n), eta, n)
        for n in range(1, mesh.n_steps + 1)
    ]


def complementary_row(d_rows: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Row ``n`` of the discrete inverse of the ``d`` convolution.

    ``d_rows[j-1]`` must be the recombined weights of step ``j`` for
    ``j = 1..n``.  Returns ``Q[m] = Q_m`` for ``m = 0..n-1``, defined by
    ``Q_0 = 1 / d_0(n)`` and, for ``1 <= j <= n-1``,

        Q_{n-j} = sum_{k=j+1}^{n} (d_{k-j-1}(k) - d_{k-j}(k)) / d_0(j) * Q_{n-k}.

    All entries are positive and bounded by ``1 / d_0(j)``; the defining
    property is ``sum_{j=k}^{n} Q_{n-j} d_{j-k}(j) = 1`` for each ``k``.
    """
    if n < 1 or len(d_rows) < n:
        raise ValueError("need recombined rows 1..n")
    q = np.empty(n)
    q[0] = 1.0 / d_rows[n - 1][0]
    for m in range(1, n):
        j = n - m
        acc = 0.0
        for k in range(j + 1, n + 1):
            acc += (d_rows[k - 1][k - j - 1] - d_rows[k - 1][k - j]) * q[n - k]
        q[m] = acc / d_rows[j - 1][0]
    return q


def complementary_triangle(mesh: TimeMesh, eta: float) -> list[np.ndarray]:
    """All rows 1..N of the discrete inverse; O(N^3) total, verification only."""
    d_rows = recombined_rows(mesh, eta)
    return [complementary_row(d_rows, n) for n in range(1, mesh.n_steps + 1)]


def identity_residual(
    d_rows: Sequence[np.ndarray], q_row: np.ndarray, n: int, k: int
) -> float:
    """``|sum_{j=k}^{n} Q_{n-j} d_{j-k}(j) - 1|`` for one pair ``(n, k)``."""
    acc = 0.0
    for j in range(k, n + 1):
        acc += q_row[n - j] * d_rows[j - 1][j - k]
    return abs(acc - 1.0)


def apply_bdf2(v_curr, v_prev, v_prev2, k: Bdf2Kernels):
    """Backward difference ``b0 (v^n - v^{n-1}) + b1 (v^{n-1} - v^{n-2})``.

    Pass ``v_prev2 = None`` on the first step, where the operator reduces to
    ``(v^1 - v^0) / tau_1``; that requires ``b1 = 0``.
    """
    if v_prev2 is None:
        if k.b1 != 0.0:
            raise ValueError("two-step weights need two history levels")
        return k.b0 * (v_curr - v_prev)
    return k.b0 * (v_curr - v_prev) + k.b1 * (v_prev - v_prev2)


def apply_recombined(values: Sequence, d_row: np.ndarray, eta: float):
    """Same backward difference, evaluated through the shifted increments.

    ``values`` holds ``v^0..v^n``; computes
    ``sum_{j=1}^{n} d_{n-j} (vbar^j - vbar^{j-1}) + d_n vbar^0``.
    Exists so the equivalence with :func:`apply_bdf2` can be checked
    directly; the solver never sums the full history.
    """
    n = len(values) - 1
    if n < 1:
        raise ValueError("need at least two levels")
    vbar = [values[0]]
    for j in range(1, n + 1):
        vbar.append(values[j] - eta * values[j - 1])
    acc = d_row[n] * vbar[0]
    for j in range(1, n + 1):
        acc = acc + d_row[n - j] * (vbar[j] - vbar[j - 1])
    return acc
