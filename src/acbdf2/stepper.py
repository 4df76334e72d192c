"""One implicit step of the phase-field dynamics, plus the energy monitors.

The discrete problem at level ``n`` is

    b0 (u - u_prev) + b1 (u_prev - u_prev2) = eps^2 Lap u - (u^3 - u) + g,

solved by an undamped Newton iteration whose linear systems are symmetric
positive definite whenever ``b0 > 1``; that inequality is exactly the
step-size solvability bound ``tau_n < (1+2 r_n)/(1+ r_n)``, which is checked
up front.  The Jacobian is applied matrix-free and each Newton correction is
computed by preconditioned conjugate gradients, stopped at a forcing term
set by the residual drop or where the next max-norm residual test can no
longer see its error, whichever comes first (:func:`nonlinear_solve`); no
setting moves either stop but ``newton.tol``.  The preconditioner is
picked per linear solve by a fixed condition-number rule
(:func:`spectral_pays`): Jacobi when the reaction term dominates the
operator, as on the phase-field runs, and the FFT inverse of its
constant-coefficient part when the diffusion number ``eps^2 / h^2``
exceeds the largest reaction coefficient, as in the fine-grid accuracy
runs.  On the Jacobi side an even grid eliminates its black points and
runs CG on the red ones alone (:func:`_jacobi_pcg`).  One CG loop
(:func:`_pcg`) serves all three forms: it runs on the field set its
caller hands it, the grid's workspace or that workspace's red-black view,
which offer it the same two operations.  Newton starts from the
quadratic through the last three levels, evaluated at the new time: the
order-2 predictor of variable-step BDF codes (Hairer, Norsett & Wanner,
Solving ODEs I, III.5-III.7), whose error is third order in the step.
With two levels it starts from the linear extrapolation ``u^n + r (u^n -
u^{n-1})``, ``r = tau / tau_prev``, and on the first level from ``u^n``.
Newton carries its unknown as the increment over ``u^n``, and the start is
formed as that increment, never as a full field.

Every call on a grid works in that grid's :class:`Workspace`, one set of
fields built on first use and reused by every later step, sweep, linear
solve and energy, so a warmed step allocates nothing but the root it
returns.  The one field that outlives a level, the anchor's Laplacian
``anchor_lap``, belongs to the march: :func:`modified_energy` leaves it,
through :func:`energy`, when the march accepts a level, and every solve
from that level reads it.  That call is all the field work of the
level's energies; only the modified energy's weight waits for the next
step ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import step_kernels
from .spatial import Grid2D, laplacian_apply, max_norm
from .time_mesh import solvability_bound


class SolverFailure(RuntimeError):
    """A march that validation admitted could not go on: exit code 3."""


class NewtonDiverged(SolverFailure):
    """Newton or its inner linear solve failed to reach tolerance."""


class SolvabilityViolated(SolverFailure):
    """Step size at or above the unique-solvability bound."""


#: CG iterations after which a linear solve counts as stalled
LIN_MAX_ITER = 2000


@dataclass
class NewtonConfig:
    """Newton controls: residual max-norm tolerance and sweep cap."""

    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self) -> None:
        errs = self.problems()
        if errs:
            raise ValueError("; ".join(errs))

    def problems(self, name=str) -> list[str]:
        """Every out-of-range field, each called ``name(field)``."""
        errs = []
        eps = float(np.finfo(float).eps)
        if not self.tol >= eps:
            errs.append(f"{name('tol')} must be at least machine epsilon ({eps:.3g})")
        if self.max_iter < 1:
            errs.append(f"{name('max_iter')} must be at least 1")
        return errs


@dataclass
class StepperState:
    """March state after ``n`` completed steps: ``u_prev = u^n`` at ``t``.

    ``u_prev2`` and ``u_prev3`` are ``u^{n-1}`` and ``u^{n-2}``, None
    before they exist; ``tau_prev`` and ``tau_prev2`` are the steps that
    ended at ``u^n`` and at ``u^{n-1}``.  Only Newton's start reads
    ``u_prev3`` and ``tau_prev2``.
    """

    u_prev: np.ndarray
    u_prev2: np.ndarray | None
    n: int
    t: float
    tau_prev: float = 0.0
    u_prev3: np.ndarray | None = None
    tau_prev2: float = 0.0

    def ratio(self, tau: float) -> float:
        """Step ratio ``tau / tau_prev``; 0, the one-step scheme's, without ``u_prev2``."""
        return 0.0 if self.u_prev2 is None else tau / self.tau_prev

    def after(self, u: np.ndarray, tau: float) -> StepperState:
        """The next state: ``u`` accepted after a step ``tau``, each level moved back."""
        return StepperState(
            u_prev=u, u_prev2=self.u_prev, n=self.n + 1, t=self.t + tau,
            tau_prev=tau, u_prev3=self.u_prev2, tau_prev2=self.tau_prev,
        )


@dataclass
class StepRecord:
    """Diagnostics of one attempted step; one CSV row of the run log.

    :meth:`solved` fills the first eight fields, the adaptive controller
    resets ``e_est`` and ``accepted``, and the run loop fills the energies
    and the constraint flags.
    """

    n: int
    t: float
    tau: float
    ratio: float
    e_est: float
    accepted: bool
    newton_iters: int
    max_norm: float
    energy: float = math.nan
    modified_energy: float = math.nan
    s0_ok: bool = False
    maxp_bound_ok: bool = False

    @classmethod
    def solved(cls, state: StepperState, tau: float, u: np.ndarray, sweeps: int) -> StepRecord:
        """The accepted record of the level ``u`` solved from ``state`` in ``sweeps``."""
        return cls(
            n=state.n + 1, t=state.t + tau, tau=tau, ratio=state.ratio(tau),
            e_est=math.nan, accepted=True, newton_iters=sweeps, max_norm=max_norm(u),
        )


#: Byte alignment of the workspace: one cache line.  ``malloc`` returns
#: 16-byte aligned blocks, and whether a block also starts on a line
#: depends on what the process allocated before it.  numpy's vector loops
#: then split every load of a misaligned field across two lines: on a
#: 2-vCPU Xeon at M = 128, CG ran about 15% slower from a 16-mod-64 block
#: than from a 64-byte aligned one, so identical trees timed differently.
ALIGN = 64


def _aligned_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised C-ordered array whose data starts on an ``ALIGN`` boundary."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGN
    return raw[start:start + nbytes].view(dtype).reshape(shape)


class Workspace:
    """The solver's work fields on one ``M x M`` grid; see :func:`workspace`.

    A field holds nothing between calls: the call that owns it writes it
    before reading it.  Fields whose lifetimes overlap are distinct; the
    others share storage.  No field is handed to a caller outside this
    module, except ``scratch`` to :func:`acbdf2.adaptive.advance`.  The
    anchor's Laplacian, which must outlive a level, is not here: the march
    owns that field and passes it to every solve as ``anchor_lap``.

    * ``lap``, ``scratch``: output and scratch of :func:`laplacian_apply`,
      and elementwise temporaries, in :func:`nonlinear_solve` and
      :func:`_pcg`.  :func:`energy` and :func:`modified_energy` use
      ``scratch`` and write the Laplacian into the field their caller
      passes, the march's ``anchor_lap``.  ``advance`` lends ``scratch``
      to :func:`acbdf2.adaptive.error_estimate` after each solve.
    * ``w``, ``base``: :func:`nonlinear_solve`, live for the whole solve.
    * ``residual``, ``react``, ``diag``, ``inv``: one Newton sweep: the
      linear system's right side, its reaction coefficient, the Jacobi
      diagonal and the spectral preconditioner's inverse symbol (a complex
      half spectrum with zero imaginary part).
    * ``delta``, ``r``, ``z``, ``p``, ``ap``: :func:`_pcg`; ``delta`` takes
      the correction it returns to :func:`nonlinear_solve`.
    * ``spec``, ``spec_work``: complex half spectra, the transforms of every
      preconditioner :func:`spectral_preconditioner` builds on the grid.

    That is 12 real fields and three half spectra, about 15 fields; the
    spectra are touched only on runs that pick the spectral preconditioner.
    The real fields and the spectra are two blocks, each starting on a
    cache line (:data:`ALIGN`); at M = 128 and 256 so does every field.
    * ``const`` (storage of ``r``), ``start`` (storage of ``w``) and
      ``history`` (storage of ``p``): :func:`bdf2_step`'s constant term,
      its history difference ``u^n - u^{n-1}``, which becomes the start's
      increment over ``u^n``, and the older difference ``u^{n-1} -
      u^{n-2}`` that the quadratic start adds.
    * ``start`` is :func:`nonlinear_solve`'s ``w``, which iterates it in
      place.  ``const`` and ``history`` are dead once that solve has formed
      ``base``, before :func:`_pcg` first writes ``r``, ``z``, ``p`` and
      ``ap``.
    * ``red_black``: on an even grid, the :class:`RedBlack` view that
      carves the half-grid fields of the reduced solve from ``diag``,
      ``lap``, ``scratch``, ``r``, ``z``, ``p`` and ``ap``, which that solve
      leaves otherwise unused; it reads ``react`` and ``residual`` and
      writes ``delta``.  None on an odd grid, which cannot be two-coloured.
    """

    def __init__(self, grid: Grid2D):
        M = grid.M
        self.h = grid.h
        (
            self.lap, self.scratch,
            self.w, self.base,
            self.residual, self.react, self.diag,
            self.delta, self.r, self.z, self.p, self.ap,
        ) = _aligned_empty((12, M, M), float)
        self.inv, self.spec, self.spec_work = _aligned_empty((3, M, M // 2 + 1), complex)
        self.const = self.r
        self.start = self.w
        self.history = self.p
        self.red_black = None if M % 2 else RedBlack(self, M)

    def couple(self) -> None:
        """``lap = Lap p``, through the module's ``laplacian_apply``."""
        laplacian_apply(self.p, self.h, out=self.lap, scratch=self.scratch)

    def jacobi(self, r: np.ndarray, out: np.ndarray) -> None:
        """The Jacobi preconditioner ``out = r / diag``."""
        np.divide(r, self.diag, out=out)


def workspace(grid: Grid2D) -> Workspace:
    """The grid's :class:`Workspace`, built on the first call for the grid.

    It lives as long as the grid, so a march reuses it on every level.
    """
    ws = grid.work.get(Workspace)
    if ws is None:
        ws = grid.work[Workspace] = Workspace(grid)
    return ws


class RedBlack:
    """Half-grid fields of the red-black reduced system on an even grid.

    Red points are those with ``i + j`` even.  A half-grid field is
    ``(2, M // 2, M // 2)``, indexed by row parity, row pair and column
    pair: a red one holds ``R[a, q, k] = u[2 q + a, 2 k + a]`` and a black
    one ``K[a, q, k] = u[2 q + a, 2 k + 1 - a]``.  Each row parity is then
    a contiguous block, and every neighbour lies one flat shift away within
    a block (:func:`_neighbour_sum`).  Each field is one half of a
    :class:`Workspace` field that is dead while :func:`_jacobi_pcg` solves
    the reduced system, so the reduction allocates nothing; the workspace
    builds the view with its fields.  :func:`_pcg` runs on it through
    :meth:`couple` and :meth:`jacobi`, as it runs on a workspace:

    * ``d_r``, ``d_b`` (halves of ``diag``, together ``d``): the diagonal
      ``D = react + 4 c`` on each colour.
    * ``g`` (with ``scratch``): ``c / D_b``, the black weight of
      :meth:`couple`.
    * ``b_s`` (with ``p``), ``b_b`` (with ``r``): the reduced right side
      and the black right side, kept for the back-substitution.
    * ``x`` (with ``z``): the red solution.
    * ``r``, ``z``, ``p``, ``ap``, ``lap``, ``scratch``: :func:`_pcg`'s
      work fields, red, each the first half of the field of that name.
    * ``t`` (with ``lap``): the black temporary of :meth:`couple` and of
      the back-substitution.
    * ``black_of_p``, ``red_of_t``: the neighbour sums ``t = B^T p`` and
      ``lap = B t``, as :func:`_neighbour_sum` prepares them.
    """

    def __init__(self, ws: Workspace, M: int):
        shape = (2, 2, M // 2, M // 2)
        self.d = ws.diag.reshape(shape)
        self.d_r, self.d_b = self.d
        self.lap, self.t = ws.lap.reshape(shape)
        self.scratch, self.g = ws.scratch.reshape(shape)
        self.r, self.b_b = ws.r.reshape(shape)
        self.z, self.x = ws.z.reshape(shape)
        self.p, self.b_s = ws.p.reshape(shape)
        self.ap = ws.ap.reshape(shape)[0]
        self.black_of_p = _neighbour_sum(self.p, self.t, to_red=False)
        self.red_of_t = _neighbour_sum(self.t, self.lap, to_red=True)

    def couple(self) -> None:
        """``lap = B (c / D_b) B^T p``: red to black, weighted, back to red."""
        _add_all(self.black_of_p)
        self.t *= self.g
        _add_all(self.red_of_t)

    def jacobi(self, r: np.ndarray, out: np.ndarray) -> None:
        """The reduced system's Jacobi preconditioner ``out = r / D_r``."""
        np.divide(r, self.d_r, out=out)


def _split(u: np.ndarray, red: np.ndarray, black: np.ndarray) -> None:
    """Copy the red and black points of the grid field ``u`` into half-grid fields."""
    half = u.shape[0] // 2
    # [row pair, row parity, column pair, column parity]
    quad = u.reshape(half, 2, half, 2)
    np.copyto(red[0], quad[:, 0, :, 0])
    np.copyto(red[1], quad[:, 1, :, 1])
    np.copyto(black[0], quad[:, 0, :, 1])
    np.copyto(black[1], quad[:, 1, :, 0])


def _merge(red: np.ndarray, black: np.ndarray, out: np.ndarray) -> None:
    """Write the half-grid fields ``red`` and ``black`` into the grid field ``out``."""
    half = out.shape[0] // 2
    quad = out.reshape(half, 2, half, 2)
    np.copyto(quad[:, 0, :, 0], red[0])
    np.copyto(quad[:, 1, :, 1], red[1])
    np.copyto(quad[:, 0, :, 1], black[0])
    np.copyto(quad[:, 1, :, 0], black[1])


def _neighbour_sum(v: np.ndarray, out: np.ndarray, *, to_red: bool) -> tuple:
    """The additions that write into ``out`` each point's four-neighbour sum in ``v``.

    The neighbours have the other colour: ``v`` is a black half-grid field
    and ``out = B v`` red when ``to_red``; otherwise ``v`` is red and ``out
    = B^T v`` black.  Beside a point in column pair ``k`` lie pairs ``k``
    and ``k - 1`` of its own row (even rows of a red field, odd rows of a
    black one) or ``k`` and ``k + 1``.  Above and below it lie column pair
    ``k`` of the other parity's row pairs ``q - 1`` and ``q`` (even rows)
    or ``q`` and ``q + 1`` (odd rows).  Every term is a flat shift of a
    contiguous block, with the wrap-around column or row fixed after, as in
    :func:`acbdf2.spatial.laplacian_apply`: a strided two-dimensional
    slice would make numpy allocate iterator buffers on every call.  The
    additions are ``(a, b, out)`` triples for :func:`_add_all`, built once
    per grid: making their views on every call took about a third of the
    sum's time at M = 128.
    """
    ops = []
    for o, x, left in ((out[0], v[0], to_red), (out[1], v[1], not to_red)):
        of, xf = o.reshape(-1), x.reshape(-1)
        if left:
            ops += [(xf[:-1], xf[1:], of[1:]), (x[:, -1], x[:, 0], o[:, 0])]
        else:
            ops += [(xf[:-1], xf[1:], of[:-1]), (x[:, -1], x[:, 0], o[:, -1])]
    (even, odd), (v_even, v_odd) = out, v
    ops += [
        (even, v_odd, even), (even[1:], v_odd[:-1], even[1:]), (even[0], v_odd[-1], even[0]),
        (odd, v_even, odd), (odd[:-1], v_even[1:], odd[:-1]), (odd[-1], v_even[0], odd[-1]),
    ]
    return tuple(ops)


def _add_all(ops: tuple) -> None:
    """Run the additions ``out = a + b`` of :func:`_neighbour_sum`, in order."""
    for a, b, out in ops:
        np.add(a, b, out=out)


def spectral_pays(hi: float, e2: float, h: float) -> bool:
    """Whether the spectral preconditioner beats Jacobi on ``react v - e2 Lap v``.

    ``hi`` bounds the reaction coefficient ``react``, which is at least
    ``lo = b0 - 1``.  CG needs about ``sqrt(kappa)`` iterations: under
    Jacobi ``kappa <= (hi + 8 d) / lo`` with the diffusion number ``d = e2
    / h^2``, under the spectral preconditioner ``kappa <= hi / lo`` at about
    three times the price per iteration, so spectral pays when ``d > hi``.
    The answer depends on the inputs alone, never on a timing, so reruns
    take the same path.  False sends the solve to :func:`_jacobi_pcg`.  On
    the manufactured solution's systems at M = 256 (b0 = 20, 60, 200, one
    core) the spectral solve was 3.5, 2.5 and 1.7 times as fast as the
    red-black reduced one.
    """
    return e2 / (h * h) > hi


def spectral_preconditioner(grid: Grid2D, c: float, e2: float):
    """Exact inverse of ``c v - e2 Lap v`` by FFT, as ``apply(r, out)``.

    With ``c`` in the range ``[lo, hi]`` of the reaction coefficient, the
    preconditioned operator's spectrum lies in ``[lo / c, hi / c]``
    whatever the grid.  The inverse symbol goes into the grid workspace's
    ``inv``, so the preconditioner holds until the next one built on the
    grid.  The transforms run one axis at a time through the workspace's
    two complex spectra, which hold nothing between applications: fresh
    arrays on every application cost about as much as the transforms at M
    = 256.
    """
    ws = workspace(grid)
    inv = ws.inv
    # real values stored complex: the product with the spectrum below then
    # runs complex by complex, as it would after a cast, with no cast copy
    re = inv.real
    np.multiply(grid.neg_laplacian_symbol, e2, out=re)
    re += c
    np.divide(1.0, re, out=re)
    inv.imag = 0.0
    spec, work = ws.spec, ws.spec_work

    def apply(r: np.ndarray, out: np.ndarray) -> None:
        np.fft.rfft(r, axis=1, out=spec)
        np.fft.fft(spec, axis=0, out=work)
        np.multiply(work, inv, out=work)
        np.fft.ifft(work, axis=0, out=spec)
        np.fft.irfft(spec, n=grid.M, axis=1, out=out)

    return apply


def _pcg(
    fields,
    react: np.ndarray,
    e2: float,
    b: np.ndarray,
    precond,
    rtol: float,
    max_iter: int,
    *,
    out: np.ndarray,
    atol: float,
    b_norm: float | None = None,
) -> np.ndarray:
    """Preconditioned CG on ``react v - e2 C v = b``, zero guess.

    ``fields`` is a :class:`Workspace` or a :class:`RedBlack` view, and
    its ``couple()`` applies ``C`` to ``p``.  On a workspace ``C`` is the
    Laplacian and ``react`` the pointwise reaction coefficient ``b0 - 1 +
    3 u^2``; the operator is SPD for ``b0 > 1``.  On a red-black view,
    ``C`` is the coupling that eliminating the black points leaves, with
    the black weights :func:`_jacobi_pcg` sets, and ``react`` the red
    diagonal.  ``precond(r, out)`` writes the preconditioned residual into
    ``out``.  Stops at the first iterate whose recurrence residual meets
    ``||residual||_2 <= max(rtol b_norm, atol)``, where ``b_norm`` defaults
    to ``||b||_2``; the absolute stop ``atol`` keeps Newton from solving a
    correction far below what its next residual test can see.  The
    solution goes into ``out``, which is written before it is read: the
    first iterate goes straight in.  The iteration runs in the fields'
    ``r``, ``z``, ``p``, ``ap``, ``lap`` and ``scratch``, and allocates
    nothing, per iteration or per call.
    """
    bf = b.ravel()
    # the residual of the zero guess
    r0 = math.sqrt(float(np.dot(bf, bf)))
    x = out
    target = max(rtol * (r0 if b_norm is None else b_norm), atol)
    if r0 <= target:
        x.fill(0.0)
        return x
    r, z, p, ap, lap, scratch = fields.r, fields.z, fields.p, fields.ap, fields.lap, fields.scratch
    np.copyto(r, b)
    precond(r, z)
    np.copyto(p, z)
    rf = r.ravel()
    zf = z.ravel()
    pf = p.ravel()
    apf = ap.ravel()
    rz = float(np.dot(rf, zf))
    for k in range(max_iter):
        fields.couple()
        np.multiply(react, p, out=ap)
        lap *= e2
        ap -= lap
        alpha = rz / float(np.dot(pf, apf))
        if k:
            np.multiply(p, alpha, out=scratch)
            x += scratch
        else:
            # the first iterate of the zero guess
            np.multiply(p, alpha, out=x)
        np.multiply(ap, alpha, out=scratch)
        r -= scratch
        if math.sqrt(float(np.dot(rf, rf))) <= target:
            return x
        precond(r, z)
        rz_new = float(np.dot(rf, zf))
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise NewtonDiverged("inner linear solve stalled")


def _jacobi_pcg(
    react: np.ndarray,
    e2: float,
    grid: Grid2D,
    b: np.ndarray,
    rtol: float,
    max_iter: int,
    *,
    out: np.ndarray,
    atol: float,
) -> np.ndarray:
    """Solve ``react v - e2 Lap v = b`` into ``out`` by Jacobi-preconditioned CG.

    Write ``c = e2 / h^2`` and ``D = react + 4 c``, the operator's
    diagonal.  The five-point stencil couples a red point (``i + j`` even)
    only to black ones, so on an even grid the operator is ``[[D_r, -c B],
    [-c B^T, D_b]]`` with ``B`` the red-from-black neighbour sum
    (:func:`_neighbour_sum`), and the black unknowns are eliminated
    exactly (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed.,
    SIAM 2003): CG solves the Schur complement ``S x_r = D_r x_r -
    c^2 B D_b^-1 B^T x_r = b_r + c B D_b^-1 b_b`` on the red points,
    Jacobi-preconditioned by ``D_r``, and ``x_b = D_b^-1 (b_b + c B^T
    x_r)``.  With ``mu = 4 c / min D`` the Jacobi condition number drops
    from ``(1 + mu) / (1 - mu)`` to ``1 / (1 - mu^2)``, on half the points.
    The black rows of the full residual are zero by construction and the
    red rows are CG's residual, so the stop ``max(rtol ||b||_2, atol)`` on
    the reduced residual is the full system's stop.  A periodic grid with
    odd ``M`` cannot be two-coloured; there CG runs on the whole field,
    Jacobi-preconditioned by ``D``.
    """
    c = e2 / (grid.h * grid.h)
    ws = workspace(grid)
    rb = ws.red_black
    if rb is None:
        np.add(react, 4.0 * c, out=ws.diag)
        return _pcg(ws, react, e2, b, ws.jacobi, rtol, max_iter, out=out, atol=atol)
    _split(react, rb.d_r, rb.d_b)
    rb.d += 4.0 * c
    np.divide(c, rb.d_b, out=rb.g)
    bf = b.ravel()
    b_norm = math.sqrt(float(np.dot(bf, bf)))
    # the reduced right side c B D_b^-1 b_b + b_r, formed in b_s
    _split(b, rb.b_s, rb.b_b)
    np.multiply(rb.g, rb.b_b, out=rb.t)
    _add_all(rb.red_of_t)
    rb.b_s += rb.lap
    x_r = _pcg(
        rb, rb.d_r, c, rb.b_s, rb.jacobi, rtol, max_iter,
        out=rb.x, atol=atol, b_norm=b_norm,
    )
    # back-substitution: x_b = (b_b + c B^T x_r) / D_b
    np.copyto(rb.p, x_r)
    _add_all(rb.black_of_p)
    x_b = rb.t
    x_b *= c
    x_b += rb.b_b
    x_b /= rb.d_b
    _merge(x_r, x_b, out)
    return out


def finishes(res: float, u_max: float, b0: float, tol: float) -> bool:
    """Whether a correction solved to ``tol / 2`` must leave a residual within ``tol``.

    ``res`` is the sweep's residual max-norm and ``u_max`` the max-norm of
    its iterate ``u``.  The Newton Jacobian ``J = diag(b0 - 1 + 3 u^2) -
    eps^2 Lap`` is strictly diagonally dominant with margin ``b0 - 1``, so
    Varah's bound (Linear Algebra Appl. 11, 1975) gives ``||J^-1||_inf <=
    1 / (b0 - 1)``.  A correction ``delta`` whose CG residual ``r_lin``
    obeys ``||r_lin||_2 <= tol / 2`` thus has ``||delta||_inf <= d = (res +
    tol / 2) / (b0 - 1)``.  The cubic's expansion ends at third order, so
    the next residual is ``-r_lin + 3 u delta^2 + delta^3`` and its
    max-norm is at most ``tol / 2 + (3 u_max + d) d^2``.  True means that
    bound is within ``tol``; only the rounding of the residual evaluation
    could then make the next sweep miss, so :func:`nonlinear_solve` returns
    the corrected iterate without that evaluation.
    """
    d = (res + 0.5 * tol) / (b0 - 1.0)
    return (3.0 * u_max + d) * d * d <= 0.5 * tol


def nonlinear_solve(
    w0: np.ndarray,
    const: np.ndarray,
    b0: float,
    grid: Grid2D,
    eps: float,
    cfg: NewtonConfig,
    *,
    anchor: np.ndarray,
    anchor_lap: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Solve ``b0 (u - anchor) - eps^2 Lap u + u^3 - u = const`` from ``anchor + w0``.

    ``w0`` is the start's increment over the anchor, not the start itself.
    It may be the grid workspace's ``start``, which the solve then iterates
    in place; any other field is only read.  ``anchor_lap`` must hold
    ``laplacian_apply(anchor)``.  A march keeps the field
    :func:`modified_energy` leaves when it accepts the anchor; any other
    caller forms it with :func:`acbdf2.spatial.laplacian_apply`.

    The unknown is carried as the increment ``w = u - anchor``, so the
    stiff term enters the residual as ``b0 w``.  For short steps ``b0`` is
    huge and the naive form cannot converge: one ulp of ``u`` already moves
    ``b0 u`` by more than the tolerance, while one ulp of the small
    increment moves ``b0 w`` by a negligible amount.  The other terms are
    of order one and evaluated at ``u = anchor + w``.

    Returns the root and the number of Newton sweeps; a start point
    already at the root counts as one sweep.  The residual test
    ``||F||_inf <= tol`` ends a solve, except where the finishing rule
    below has proved the last correction good enough: then the bound, not
    the residual test, decides the solve.  Its root returns at the top of
    the next sweep, which evaluates no residual but still counts, so the
    count is the one that sweep's passing residual test would give.  A
    residual that is not finite raises :class:`NewtonDiverged` at once,
    before any linear solve: no correction can mend it.

    Each correction is solved inexactly (Eisenstat & Walker, SIAM J. Sci.
    Comput. 17, 1996).  The relative forcing term tightens with the square
    of the residual drop, so the quadratic tail of the outer iteration is
    preserved at a fraction of the inner work.  Every CG call also stops at
    the absolute floor ``tol / 2``, so the forcing term needs no floor of
    its own: the linear part of the next residual is then below ``tol /
    2`` in the 2-norm, hence in the max norm, and solving further buys
    nothing the residual test can see.  The finishing rule
    (:func:`finishes`) goes one step further: when a correction solved to
    that floor provably leaves a next residual within ``tol``, the CG call
    stops at the floor alone, and the solve returns ``anchor + w`` without
    evaluating that residual.  Only the rounding of the residual
    evaluation could make it miss.  Each linear solve takes the
    preconditioner :func:`spectral_pays` picks for its reaction range; the
    spectral one is built once per solve, and the Jacobi side runs
    :func:`_jacobi_pcg`, on the red points alone where ``M`` is even.  CG
    solves ``J delta = F`` against the residual as it stands, and the sweep
    subtracts ``delta``.

    Everything but the returned root lives in the grid's :class:`Workspace`.
    ``w0``, ``const`` and ``anchor_lap`` are read only before the first
    sweep; ``anchor`` also on every sweep, to form the root ``anchor + w``.
    """
    h = grid.h
    e2 = eps * eps
    ws = workspace(grid)
    lap, scratch, residual = ws.lap, ws.scratch, ws.residual
    react, w, base = ws.react, ws.w, ws.base

    if w0 is not w:
        np.copyto(w, w0)
    # the part of the residual that no sweep changes: -e2 Lap a - const
    np.multiply(anchor_lap, -e2, out=base)
    base -= const
    u = np.empty_like(anchor, order="C")
    res_prev = None
    proven = False
    spectral = None
    for sweep in range(1, cfg.max_iter + 1):
        if proven:
            # the last correction provably met the tolerance (finishes)
            return np.add(anchor, w, out=u), sweep
        # residual (u^2 - 1) u + b0 w + base - e2 Lap w, with e2 Lap w
        # the Laplacian at spacing h / eps
        np.add(anchor, w, out=u)
        laplacian_apply(w, h / eps, out=lap, scratch=scratch)
        np.multiply(u, u, out=residual)
        residual -= 1.0
        residual *= u
        residual += np.multiply(w, b0, out=scratch)
        residual += base
        residual -= lap
        res_norm = max_norm(residual)
        if not math.isfinite(res_norm):
            raise NewtonDiverged(f"non-finite residual in Newton sweep {sweep}")
        if res_norm <= cfg.tol:
            return u, sweep
        u_max = max_norm(u)
        proven = finishes(res_norm, u_max, b0, cfg.tol)
        if proven:
            # the bound assumes the absolute stop alone
            rtol_k = 0.0
        else:
            rtol_k = 1e-4 if res_prev is None else 0.9 * (res_norm / res_prev) ** 2
            rtol_k = min(rtol_k, 1e-2)
        res_prev = res_norm
        np.multiply(u, u, out=react)
        react *= 3.0
        react += b0 - 1.0
        # react.max() bit for bit: each rounded step is monotone in |u|
        if spectral_pays(u_max * u_max * 3.0 + (b0 - 1.0), e2, h):
            # its symbol depends on b0 alone: built once, on the first
            # sweep that picks it
            if spectral is None:
                spectral = spectral_preconditioner(grid, b0 - 1.0, e2)
            w -= _pcg(
                ws, react, e2, residual, spectral, rtol_k, LIN_MAX_ITER,
                out=ws.delta, atol=0.5 * cfg.tol,
            )
        else:
            w -= _jacobi_pcg(
                react, e2, grid, residual, rtol_k, LIN_MAX_ITER,
                out=ws.delta, atol=0.5 * cfg.tol,
            )
    raise NewtonDiverged(f"no convergence in {cfg.max_iter} Newton sweeps")


def bdf2_step(
    state: StepperState,
    tau: float,
    grid: Grid2D,
    eps: float,
    source_at,
    cfg: NewtonConfig,
    *,
    anchor_lap: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Advance one level from ``state`` with step size ``tau``.

    The state alone picks the scheme: the weights of the ratio
    ``state.ratio(tau)``, which are the two-step weights when the state
    holds two levels (``state.u_prev2`` is set) and the one-step weights
    otherwise.  ``source_at(t)`` must return the source field at time
    ``t``, or ``source_at`` is None for no source; it may return a buffer it
    reuses, as this call reads it at once.  ``anchor_lap`` must hold
    ``laplacian_apply(state.u_prev)``; see :func:`nonlinear_solve`.  Newton
    starts from the state's levels extrapolated to ``t + tau``: the
    quadratic through ``u_prev3``, ``u_prev2`` and ``u_prev`` when the state
    holds all three, the line through the last two when it holds two, and
    ``u_prev`` itself on the first level.  The start goes to the solve as
    its increment over ``u_prev``, formed in the workspace's ``start``.
    Does not mutate ``state``.

    Raises :class:`SolvabilityViolated` when ``tau`` is at or above the
    unique-solvability bound, :class:`NewtonDiverged` on iteration failure.
    """
    ratio = state.ratio(tau)
    kernels = step_kernels(tau, ratio)
    if not tau < solvability_bound(ratio):
        raise SolvabilityViolated(
            f"tau = {tau:g} at ratio {ratio:g} reaches the "
            f"solvability bound {solvability_bound(ratio):g}"
        )
    ws = workspace(grid)
    const, start = ws.const, ws.start
    if state.u_prev2 is not None:
        # one history difference a = u^n - u^{n-1} serves the constant
        # and the start
        np.subtract(state.u_prev, state.u_prev2, out=start)
        np.multiply(start, -kernels.b1, out=const)
        if state.u_prev3 is None:
            start *= ratio
        else:
            # the quadratic through the last three levels at t + tau, as
            # an increment over u^n:
            #   r a + c (a / tau_n - b / tau_{n-1}),
            # a = u^n - u^{n-1}, b = u^{n-1} - u^{n-2},
            # c = tau (tau + tau_n) / (tau_n + tau_{n-1})
            tau_n, tau_n1 = state.tau_prev, state.tau_prev2
            c = tau * (tau + tau_n) / (tau_n + tau_n1)
            older = np.subtract(state.u_prev2, state.u_prev3, out=ws.history)
            older *= c / tau_n1
            start *= ratio + c / tau_n
            start -= older
    else:
        const.fill(0.0)
        start.fill(0.0)
    if source_at is not None:
        const += source_at(state.t + tau)
    return nonlinear_solve(
        start, const, kernels.b0, grid, eps, cfg, anchor=state.u_prev, anchor_lap=anchor_lap
    )


def energy(u: np.ndarray, grid: Grid2D, eps: float, lap: np.ndarray) -> float:
    """Discrete free energy, gradient part plus double-well part.

    ``h^2 [ -(eps^2 / 2) <u, Lap u> + (1/4) sum (1 - u^2)^2 ]``; the
    quadrature weight makes values comparable across resolutions.
    ``Lap u`` goes into ``lap`` and stays there, so a march that accepts
    ``u`` keeps it as the next solve's ``anchor_lap``.  ``lap`` must not
    be the workspace's ``scratch``, which holds the other temporaries.
    """
    h = grid.h
    scratch = workspace(grid).scratch
    laplacian_apply(u, h, out=lap, scratch=scratch)
    grad_part = -0.5 * eps * eps * float(np.sum(np.multiply(u, lap, out=scratch)))
    well = np.multiply(u, u, out=scratch)
    np.subtract(1.0, well, out=well)
    well_part = 0.25 * float(np.sum(np.multiply(well, well, out=well)))
    return h * h * (grad_part + well_part)


def modified_energy(
    u: np.ndarray,
    u_prev: np.ndarray,
    tau: float,
    grid: Grid2D,
    eps: float,
    lap: np.ndarray,
) -> tuple[float, float]:
    """All the field work of a level's two energies: ``(E[u], S)``.

    ``E[u]`` is :func:`energy`, which leaves ``Lap u`` in ``lap``, and
    ``S = sum ((u - u_prev) / tau)^2`` is the history sum of the step
    ``tau`` from ``u_prev`` to ``u``.  The modified energy that makes
    dissipation provable is ``E[u] + r' tau / (2 (1 + r')) h^2 S``, with
    ``r'`` the next step ratio: 0 after the final step, where it is the
    plain energy, and never below it.  Only that scalar waits for ``r'``.
    """
    e = energy(u, grid, eps, lap)
    diff = np.subtract(u, u_prev, out=workspace(grid).scratch)
    diff /= tau
    return e, float(np.sum(np.multiply(diff, diff, out=diff)))
