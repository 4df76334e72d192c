"""Reference forms of the paper's statements, for the tests alone.

The solver never builds a mesh from its ratios, never forms a mesh's
recombined kernel rows in one call, never needs the smallest admissible
recombination weight and never sums a full history; these forms
exist so the tests can check the solver's own kernels (``step_kernels``,
``recombined_kernels``, ``run_eta``, ``complementary_row``) against the
paper's identities.  :func:`modified_energy_value` writes out the paper's
modified energy from the two sums ``acbdf2.stepper.modified_energy``
returns, as the march assembles it one acceptance later.
"""

import numpy as np

from acbdf2.kernels import recombined_kernels, step_kernels
from acbdf2.time_mesh import TimeMesh


def mesh_from_ratios(tau1, ratios):
    """The mesh with first step ``tau1`` and ratios ``r_2..r_N``."""
    ratios = np.asarray(ratios, dtype=float)
    return TimeMesh(tau1 * np.concatenate(([1.0], np.cumprod(ratios))))


def mesh_kernels(mesh):
    """The solver's weights ``b0, b1`` of every mesh step, in step order."""
    return [
        step_kernels(tau, ratio)
        for tau, ratio in zip(mesh.steps.tolist(), mesh.ratios.tolist())
    ]


def recombined_rows(mesh, eta):
    """Rows 1..N of the recombined kernel triangle (row n has n+1 entries)."""
    return [
        recombined_kernels(k, eta, n) for n, k in enumerate(mesh_kernels(mesh), start=1)
    ]


def eta_floor(ratio):
    """Smallest admissible recombination weight, ``r^2 / (1 + 2r)``.

    The recombined weights at ratio ``r`` are nonnegative and decreasing
    exactly for ``eta_floor(r) <= eta < 1``.
    """
    ratio = np.asarray(ratio, dtype=float)
    out = ratio * ratio / (1.0 + 2.0 * ratio)
    return out if out.ndim else float(out)


def apply_recombined(values, d_row, eta):
    """The backward difference of ``v^n``, summed through the shifted increments.

    ``values`` holds ``v^0..v^n`` (``n >= 1``), scalars or fields; computes
    ``sum_{j=1}^{n} d_{n-j} (vbar^j - vbar^{j-1}) + d_n vbar^0`` with
    ``vbar^j = v^j - eta v^{j-1}`` and ``vbar^0 = v^0``.  It telescopes to
    ``b0 (v^n - v^{n-1}) + b1 (v^{n-1} - v^{n-2})``.
    """
    n = len(values) - 1
    vbar = [values[0]] + [values[j] - eta * values[j - 1] for j in range(1, n + 1)]
    acc = d_row[n] * vbar[0]
    for j in range(1, n + 1):
        acc = acc + d_row[n - j] * (vbar[j] - vbar[j - 1])
    return acc


def modified_energy_value(energy, history, tau, ratio_next, h):
    """``E + r' tau / (2 (1 + r')) h^2 S``, the modified energy at next ratio ``r'``.

    ``energy`` is ``E[u^n]`` and ``history`` the sum ``S = sum ((u^n -
    u^{n-1}) / tau)^2`` of the step ``tau`` that ended at ``u^n``.
    """
    return energy + ratio_next * tau / (2.0 * (1.0 + ratio_next)) * h * h * history
