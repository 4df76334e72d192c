"""Variable-step two-step solver for the 2D periodic Allen-Cahn equation.

The pieces, bottom up: nonuniform time meshes and their admissibility
bounds (:mod:`.time_mesh`), the convolution kernels of the two-step
operator and their recombined and inverse forms (:mod:`.kernels`), the
periodic five-point grid (:mod:`.spatial`), the implicit step solver and
energy monitors (:mod:`.stepper`), the step-size controller
(:mod:`.adaptive`), benchmark problems (:mod:`.experiments`), and the
config/run/CLI plumbing (:mod:`.config`, :mod:`.runner`, :mod:`.cli`).
The root itself holds only ``__version__``: import names from their module.
"""

__version__ = "0.1.0"
