"""Time integration of the coupled density/attractant system.

Equations on (0, L):

    u_t = u_xx - (V(u) v_x)_x + lam*u - u^2      (cell density)
    v_t = v_xx - v - c*u*v                       (attractant)

with zero Neumann data for u at both ends and for v at the vessel end,
and the outward flux v_x = mu*v/(1+v) at the tumor end.

Scheme: IMEX Euler. Diffusion and the attractant's linear decay -v are
implicit: the u block I + dt*(-d2/dx2) and the v block
(1 + dt)*I + dt*(-d2/dx2), each with mirror rows (elliptic.banded_rows).
The logistic term and -c*u*v are explicit. The tumor flux
f(v) = mu*v/(1+v) enters v's tumor-end row as the source (2*dt/h)*f.

A run caches the LDL^T factors of these blocks' state-free rows
(_factor) per dt, in both dt modes (run_batch).

A fixed-dt step keeps the chemotaxis and f explicit, and evaluates
f(v_L) once for the chemotaxis's tumor face and v's source. f(v_L) is
then a source in [0, 2*dt*mu/h], so the v block is state-free, and each
block takes one LDL^T solve with its factor; a dt too large for the
explicit terms raises PositivityError. An auto-dt step makes both linearly
implicit in the new state. Its u block carries the chemotaxis
(_solve_u_block), a tridiagonal M-matrix for every dt, solved by
dgtsv. Its v block carries f(v_L) + beta*(x_L - v_L),
beta = min(f'(v_L), mu1) (_flux_slope), as the Robin row -dt*beta:
a positive definite Z-matrix, so an M-matrix, for every dt. Only its
tumor row depends on the state, so each column takes the cached factor
of the state-free block of its dt and sets only its last pivot
(_solve_v_block), while the explicit rest f(v_L) - beta*v_L is >= 0
as f is concave. So only the explicit reactions bound dt
(cfl_dt) to keep u, v nonnegative. A steady v with u = 0 solves the
banded_rows rows with the flux f, and steady.theta_mu solves those
exactly, so theta_mu is a fixed point of either step for every dt.

Auto dt departs from plain IMEX Euler where accuracy bounds the step
(Hairer, Norsett & Wanner, Solving ODEs I, II.4). A step whose cfl_dt
bound b is below the error controller's proposal a (at first TOL) is
one plain step of dt = b and keeps a, as Euler's local error only
shrinks with dt. Any other step takes dt = a by step doubling: y1 from
one step of dt, yh from two of dt/2, the second only if cfl_dt at the
midpoint admits dt/2, which keeps auto dt nonnegative. If
err = max|yh - y1| / (|yh| + ATOL) <= 2*TOL, it takes Richardson's
second-order 2*yh - y1 (linearly implicit Euler keeps an asymptotic
expansion in dt: Hairer & Wanner, Solving ODEs II, IV.9), or yh wherever
that is negative, and proposes dt*min(2, 0.9*sqrt(TOL/err)) next. Else
it is retried at dt/2, whose full step is the first half step. dt is
rounded down to a power of 2**(1/DT_RUNGS), so that the steps of a run
reuse a few v factors. The full step and the first half step start
from one state, so they share its dt-free terms (_state_terms),
evaluated once per step.

One kernel, run_batch, steps k runs at once. They share the grid, the
initial data, V and the step controls, but each has its own lam, mu and
c. Their state is one Fortran-ordered (n, 2k) array: the k u columns,
then the k v columns, one of each per run. Each block is then one
contiguous n*k vector (_blocks), in which dpttrs solves in place and
the fixed-dt stencil takes one 1-D pass per stage. So a step evaluates
the explicit terms once per block. A batch of one keeps its (2n,)
vector, u above v: the same memory, and Python floats for its dt,
cfl_dt bound and tumor-row terms. A column leaves the batch when it
reaches t_end or its step fails. Fixed-dt columns share t, dt, and one
factor and one solve per block, and hold lam in u's (n, k) layout. So
a fixed-dt step decides its time, t_end landing, dt range and ended
and recorded columns once, and one pass of per-column minima finds a
failed advance, with a max reduce for non-finite values, and updates
the running minima. Auto dt solves the blocks column by
column, runs half steps on the accuracy-bound columns only, finds a
failed advance by a min and a max reduce over the batch, and takes the
running minima once per step. One pass records the diagnostics of all
columns due at a step. run is a batch of one.

The chemotactic flux V(u) v_x is discretized with first-order upwinding
of u in the drift direction, which trades formal second order for
positivity. On the tumor-boundary face the flux uses the boundary value
mu*v/(1+v) of v_x, so the discrete mass balance of u telescopes exactly:
with lam = 0 the change of the trapezoidal mass of u equals
-dt * (boundary flux + quadratic absorption) summed over steps, to
round-off; an auto-dt step's boundary flux is that of its new u_L.
Audits rely on this. An extrapolated step's change is twice its half
steps' terms less its full step's, unless it fell back to yh.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import namedtuple
from dataclasses import field

import numpy as np

from .elliptic import banded_rows, dgtsv, dpttrf, dpttrs
from .errors import PositivityError, SolverError, SpectralShiftError
from .grid import Field, Grid1D, l2_norm, make_field
from .records import record
from .sensitivity import SensitivitySpec
from .spectral import compute_mu1
from .steady import theta_mu

__all__ = [
    "ModelParams",
    "SimState",
    "StepControl",
    "Trajectory",
    "cfl_dt",
    "run",
    "run_batch",
    "chemotaxis_divergence",
    "boundary_flux_v",
    "write_trajectory_csv",
    "write_diagnostics_csv",
]

POSITIVITY_HARD_LIMIT = -1e-9  # beyond this a step is rejected outright
# floor of the reaction rate in cfl_dt, so that a state without
# reactions bounds dt finitely
RATE_FLOOR = 1e-30
TOL = 1e-2  # error tolerance of an accuracy-bound auto-dt step, and its first dt
# absolute part of the error's scale; just above harness.FIT_FLOOR, so
# any v a decay fit can still use keeps steering dt
ATOL = 1e-12
# auto dt is rounded down to a power 2**(k/DT_RUNGS), so that steps of
# nearly equal dt share one cached v-block factor
DT_RUNGS = 16
# the block factors a run keeps, the most recently used (run_batch):
# about 2*n doubles each, freed with the run
V_FACTORS = 32
END_SLACK = 1e-12  # relative: a step ending this close to t_end lands on it
# the share of cfl_dt's raw reaction bound that a step may take: with it
# the explicit reactions take less than DT_SAFETY/2 of a node's u or v,
# so any value < 2 keeps the right-hand sides nonnegative
DT_SAFETY = 0.4

DIAG_COLUMNS = (
    "t", "mass_u", "mass_v", "linf_u", "linf_v", "l2_u",
    "l2_u_minus_lam", "min_u", "min_v", "boundary_flux_v", "chem_boundary_flux",
)


@record(frozen=True)
class ModelParams:
    """Full parameterization of the coupled system.

    lam: logistic growth rate of u (any real).
    mu: tumor-boundary flux strength for v, >= 0 (a source, not a sink).
    c: consumption rate, >= 0. The model proper has c > 0; c = 0 is
       admitted so the decoupled v-problem can be run as a comparison
       (supersolution) twin of a coupled run.
    V: chemotactic sensitivity.
    """

    lam: float
    mu: float
    c: float
    V: SensitivitySpec

    def __post_init__(self):
        for name in ("lam", "mu", "c"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"model parameter {name} must be finite")
        if self.mu < 0:
            raise ValueError(f"flux strength mu must be >= 0, got {self.mu}")
        if self.c < 0:
            raise ValueError(f"consumption rate c must be >= 0, got {self.c}")


@record(frozen=True)
class _Columns:
    """The parameters of a batch: lam, mu and c as arrays of one value
    per column, and the V all columns share. chemotaxis_divergence,
    boundary_flux_v and cfl_dt take it in place of a ModelParams. A
    fixed-dt batch holds lam as an (n, k) array (spread), so that lam*u
    does not broadcast."""

    lam: np.ndarray
    mu: np.ndarray
    c: np.ndarray
    V: SensitivitySpec

    @classmethod
    def of(cls, params) -> _Columns:
        V = params[0].V
        if any(p.V != V for p in params):
            raise ValueError("the runs of a batch must share one sensitivity V")
        return cls(*(np.array([getattr(p, name) for p in params])
                     for name in ("lam", "mu", "c")), V)

    def spread(self, n: int) -> _Columns:
        """lam repeated down n rows, in the layout of a batch's u block."""
        lam = np.asfortranarray(np.broadcast_to(self.lam, (n, self.lam.size)))
        return _Columns(lam, self.mu, self.c, self.V)

    def take(self, keep: list) -> _Columns:
        return _Columns(self.lam[..., keep], self.mu[keep], self.c[keep], self.V)


@record(frozen=True)
class SimState:
    """The state (u, v) of a run at time t."""

    t: float
    u: Field
    v: Field


@record(frozen=True)
class StepControl:
    """Time-stepping controls. dt=None means run's auto dt."""

    t_end: float
    dt: float | None = None
    output_every: int = 10

    def __post_init__(self):
        if not 0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.dt is not None and not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if type(self.output_every) is not int or self.output_every < 1:  # bool is no count
            raise ValueError(f"output_every must be an integer >= 1, got {self.output_every!r}")


def boundary_flux_v(p: ModelParams, v_boundary):
    """Outward flux of v at the tumor end: mu * v / (1 + v), per column
    when p holds a batch's parameters."""
    return p.mu * v_boundary / (1.0 + v_boundary)


def chemotaxis_divergence(grid: Grid1D, u: np.ndarray, v: np.ndarray,
                          p: ModelParams, flux) -> np.ndarray:
    """Divergence of the upwind chemotactic flux J = V(u) v_x, of nodal
    values u and v of shape (n,) or, one column per run, (n, k).

    Faces between nodes use the upwind u (left value when v increases
    across the face). The vessel-end face flux is zero; the tumor-end
    face uses v's boundary flux value, flux = boundary_flux_v(p, v_L)
    of each column, so u's mass bookkeeping closes. A fixed-dt step
    evaluates that flux once and passes it here and to v's tumor row.
    Cell widths are h inside and h/2 at the boundary nodes.

    The columns are taken end to end as one flat vector, a view of the
    Fortran-ordered blocks of run_batch, so each stage is one 1-D pass.
    The k - 1 faces across column seams are computed but never used: no
    seam face picks the next column's u, and the end rows of every
    column are written apart.
    """
    h, n, shape = grid.h, len(u), u.shape
    # the vessel node, tumor node and tumor-side face of each column;
    # scalars for a single column, whose arithmetic costs less
    vessel, tumor, tumor_face = ((0, n - 1, n - 2) if u.ndim == 1
                                 else (np.s_[::n], np.s_[n - 1::n], np.s_[n - 2::n]))
    u, v = u.ravel(order="F"), v.ravel(order="F")
    dv = v[1:] - v[:-1]
    # upwind u of each face (v mostly rises, so few take u[i+1]); each
    # column's tumor node, before a seam, keeps its own
    right = dv <= 0.0
    right[n - 1::n] = False
    u_up = u.copy()
    np.copyto(u_up[:-1], u[1:], where=right)
    vu = np.asarray(p.V.V(u_up))
    j = np.multiply(vu[:-1], dv, out=dv)  # the face fluxes, in place of dv
    j /= h
    div = np.empty_like(u)
    np.subtract(j[1:], j[:-1], out=div[1:-1])
    div[1:-1] /= h
    div[vessel] = j[vessel] / (0.5 * h)
    div[tumor] = (vu[tumor] * flux - j[tumor_face]) / (0.5 * h)
    return div.reshape(shape, order="F")


def cfl_dt(u: np.ndarray, p: ModelParams):
    """Largest auto dt the explicit reactions admit, times DT_SAFETY: a
    Python float when u is (n,), and one per column, an array, when u is
    (n, k) and p holds a batch's parameters.

    The bound for the explicit lam*u - u^2 and -c*u*v is
    0.5 / max(|lam| + 2*max u, c*max u). The decay -v and, in an auto-dt
    step, the chemotaxis are implicit and bound nothing. At dt =
    DT_SAFETY times that bound, the reactions take less than DT_SAFETY/2
    of each u_i and v_i, so the right-hand sides stay nonnegative, and
    so do the M-matrix solves after them.
    """
    linf_u, maximum = np.maximum.reduce(np.abs(u), axis=0), np.maximum
    if u.ndim == 1:  # a Python float, whose arithmetic costs less and rounds alike
        linf_u, maximum = float(linf_u), max
    rate = maximum(maximum(abs(p.lam) + 2.0 * linf_u, p.c * linf_u), RATE_FLOOR)
    return DT_SAFETY * (0.5 / rate)


def _factor(n: int, h: float, dt: float, diag: float) -> tuple[np.ndarray, np.ndarray]:
    """The LDL^T factor (d, e) of the block diag*I + dt*(-d2/dx2): dpttrf's
    of banded_rows(n, h, dt/h^2, diag), read-only. SpectralShiftError if
    the block is not positive definite. A run caches it per (dt, diag)
    (run_batch)."""
    d, e, info = dpttrf(*banded_rows(n, h, dt / (h * h), diag), True, True)
    if info > 0:
        raise SpectralShiftError(f"matrix is not positive definite (minor {info})")
    d.flags.writeable = e.flags.writeable = False
    return d, e


def _blocks(y: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The u and v blocks of the batch y: the (n,) halves of a batch of
    one's (2n,) vector, else the (n, k) halves of its (n, 2k) array."""
    if y.ndim == 1:
        return y[:n], y[n:]
    k = y.shape[1] // 2
    return y[:, :k], y[:, k:]


def _per_column(y: np.ndarray, n: int) -> np.ndarray:
    """The batch y as its (n, 2k) array, a view: (n, 2) for a batch of one."""
    return y.reshape((n, -1), order="F")


def _lows(y: np.ndarray, n: int) -> np.ndarray:
    """The minima of the columns of the batch y: its u columns', then its v columns'."""
    return np.minimum.reduce(_per_column(y, n), axis=0)


def _pair(keep: list, m: int) -> list:
    """The u and v columns, in a (n, 2m) array, of the runs keep of a batch of m."""
    return keep + [m + j for j in keep]


def _flux_slope(mu1: float, cols: _Columns | ModelParams, v_tumor):
    """beta of an auto-dt advance from the tumor value v_tumor, per column:
    the slope mu/(1+v)^2 of the tumor flux, capped at the grid's mu1 so the
    v block stays positive definite. Written without a power, whose array
    and scalar forms can differ in the last bit (see Trajectory)."""
    slope = cols.mu / (1.0 + v_tumor) / (1.0 + v_tumor)
    return min(slope, mu1) if isinstance(slope, float) else np.minimum(slope, mu1)


def _sum_error(a, b):
    """(a + b) - fl(a + b), exactly (Knuth's TwoSum), elementwise."""
    s = a + b
    b_part = s - a
    return (a - (s - b_part)) + (b - b_part)


def _solve_v_block(grid: Grid1D, factors, dt, beta, v: np.ndarray, b: np.ndarray) -> dict:
    """Overwrite b, the v rows of an auto-dt advance from v with flux
    slopes beta, with x: W*A x = W*(b + (A - A_exact) v). A is the block
    (1 + dt)*I + dt*(-d2/dx2) with the Robin row robin = -dt*beta as
    banded_rows rounds it. Its factor is, bitwise, dpttrf's: the factor
    of the state-free block of the column's dt, factors(dt, 1 + dt), with
    the last pivot, the one pivot on which beta acts, set from beta. The
    rows above it are strictly diagonally dominant, so their pivots are
    positive. For 0 <= beta <= mu1, -d2/dx2 with the flux dw/dn = beta*w
    has its smallest eigenvalue in [-1, 0], -1 at beta = mu1 (see
    spectral), so the block's smallest W-eigenvalue is at least 1 for
    every dt.

    Rounded, the diagonal 2*dt/h^2 + (1 + dt) drops the low bits of
    1 + dt alike in every row: a bias of up to eps/h^2 in the decay rate,
    which would shift the step's fixed point off theta_mu by as much
    relative to it. A - A_exact is that rounding error, exact by
    _sum_error (the Robin term's own rounding, in one row, shifts no
    fixed point measurably), so x - v = A^-1 (b - A_exact v). It is below
    eps*(2*dt/h^2 + 1 + dt) in size, and b >= 0.8*v under cfl_dt, so the
    right-hand side stays nonnegative for dt < h^2/(4*eps).

    Returns the SpectralShiftError of each column whose block did not
    factor, by column: whose last pivot is <= 0, dpttrf's own test. Its
    x is NaN.
    """
    n, h = grid.n, grid.h
    r = dt / (h * h)
    lost = _sum_error(2.0 * r, 1.0 + dt) + _sum_error(1.0, dt)  # of banded_rows' 2*r + (1 + dt)
    b -= lost * v
    b[::n - 1] *= 0.5

    def solve(dt_j, beta_j, b_j):
        d, e = factors(dt_j, 1.0 + dt_j)
        # dpttrf's last pivot of the block with the Robin row -dt*beta,
        # rounded as banded_rows and dpttrf round it, and its own test
        r = dt_j / (h * h)
        pivot = (2.0 * r + (1.0 + dt_j) + 2.0 * (-dt_j * beta_j) / h) * 0.5 - float(e[-1]) * -r
        if pivot <= 0.0:
            b_j[:] = np.nan
            return SpectralShiftError(
                f"the v block of dt={dt_j:g} is not positive definite (minor {n})")
        d = d.copy()
        d[-1] = pivot
        dpttrs(d, e, b_j, True)  # in place on b's column

    if b.ndim == 1:
        error = solve(dt, beta, b)
        return {0: error} if error else {}
    return {j: e for j, e in enumerate(map(solve, dt.tolist(), beta.tolist(), b.T)) if e}


class _Terms(namedtuple("_Terms", "growth drift rate_L flux beta rest")):
    """The dt-free terms of an auto-dt advance from a batch (u, v), per
    column: growth = lam*u - u*u, drift = (V(u)/u)_up*dv on each face
    with the upwind node's V(u)/u (0 where u <= 0), rate_L = V(u_L)/u_L,
    flux = f(v_L), beta = _flux_slope and rest = flux - beta*v_L, all
    arrays. A full step and the first half step from one state share
    them (run_batch)."""

    __slots__ = ()

    def take(self, keep: list, m: int) -> _Terms:
        """The terms of the columns keep of an m-column batch."""
        if len(keep) == m:
            return self
        return _Terms(*(np.asfortranarray(a[:, keep]) for a in self[:2]),
                      *(a[keep] for a in self[2:]))


def _state_terms(grid: Grid1D, cols: _Columns | ModelParams, y: np.ndarray, mu1) -> _Terms:
    """The _Terms of an auto-dt advance of the batch y; mu1 is grid's compute_mu1."""
    u, v = _blocks(y, grid.n)
    rate = np.divide(cols.V.V(u), u, out=np.zeros(u.shape, order="F"), where=u > 0.0)
    dv = v[1:] - v[:-1]
    growth = cols.lam * u
    growth -= u * u
    # a batch of one's tumor-row terms are Python floats, whose arithmetic
    # costs less than numpy scalars' and rounds alike
    v_L, rate_L = (v[-1], rate[-1]) if y.ndim == 2 else (float(v[-1]), float(rate[-1]))
    flux, beta = boundary_flux_v(cols, v_L), _flux_slope(mu1, cols, v_L)
    return _Terms(growth, np.where(dv > 0.0, rate[:-1], rate[1:]) * dv, rate_L,
                  flux, beta, flux - beta * v_L)


def _solve_u_block(grid: Grid1D, terms: _Terms, dt, b: np.ndarray) -> None:
    """Overwrite b, the u rows of an auto-dt advance from a state with
    the _Terms terms, with x: W*(I + dt*(-d2/dx2) + dt*C) x = W*b. C x is
    the divergence of the upwind flux of chemotaxis_divergence with
    V(u_up) replaced by (V(u_up)/u_up)*x_up. The face factor
    a = dt*drift/h^2 is > 0 exactly where the left node is upwind."""
    n, h = grid.n, grid.h
    r = dt / (h * h)
    a = terms.drift * r
    lower, upper = np.maximum(a, 0.0), np.minimum(a, 0.0)
    d = np.empty_like(b)
    d[...] = 1.0 + 2.0 * r
    d[::n - 1] *= 0.5  # W*(I + dt*(-d2/dx2)); the rows of W*C follow
    d[:-1] += lower
    d[1:] -= upper
    d[-1] += dt / h * terms.rate_L * terms.flux
    lower, upper = -r - lower, upper - r
    b[::n - 1] *= 0.5
    if b.ndim == 1:
        dgtsv(lower, d, upper, b, True, True, True, True)  # in place on b
        return
    for column in zip(lower.T, d.T, upper.T, b.T):
        dgtsv(*column, True, True, True, True)  # in place on b's column


def _advance(grid: Grid1D, cols: _Columns | ModelParams, y: np.ndarray, t: list, dts: list,
             factors, terms: _Terms | None = None) -> tuple[np.ndarray, dict]:
    """One IMEX Euler step of the batch y, column j from time t[j] by
    dts[j]. y is a Fortran-ordered (n, 2k) array, the k u columns before
    the k v columns, or the (2n,) vector of a batch of one, whose cols is
    then a ModelParams (see run_batch). factors(dt, diag) is the _factor
    of the block diag*I + dt*(-d2/dx2), cached per run (run_batch). A
    fixed-dt step, without terms, keeps the chemotaxis and the tumor flux
    explicit, evaluates f(v_L) once for both, and all its columns share
    dts[0]: its u and v blocks are solved with the factors of diag 1 and
    1 + dt. An auto-dt step passes terms, the _state_terms of y, and
    makes both linearly implicit: _solve_u_block and _solve_v_block solve
    the u and v blocks.

    Returns the new batch, in y's layout; the SolverError of each column
    whose step failed, by column: a v block that did not factor,
    non-finite values, or a density below POSITIVITY_HARD_LIMIT; and the
    _lows of the new batch that a fixed-dt step checks (auto dt: None).
    """
    n, h = grid.n, grid.h
    u, v = _blocks(y, n)
    # fixed dt: all columns share one dt
    dt = np.array(dts) if y.ndim == 2 and terms is not None else dts[0]
    # u + dt*(lam*u - u^2), less dt*div where the chemotaxis is explicit,
    # and v - dt*c*u*v, rounded as written, with few temporaries alive at once
    if terms is None:
        flux = boundary_flux_v(cols, v[-1])  # f(v_L), for the chemotaxis and v's source
        div = chemotaxis_divergence(grid, u, v, cols, flux)  # before g: its temporaries peak
        g = cols.lam * u
        g -= div
        g -= u * u
        g *= dt
    else:
        g = terms.growth * dt
    # Fortran order, so that its blocks are contiguous and solved in place
    rhs = np.empty_like(y, order="F")
    rhs_u, rhs_v = _blocks(rhs, n)
    np.add(u, g, out=rhs_u)
    g = np.multiply(dt * cols.c, u, out=g)
    g *= v
    np.subtract(v, g, out=rhs_v)
    # The tumor flux f(v_L) enters v's tumor row as the source
    # (2*dt/h)*f(v_L). Fixed dt keeps it explicit, so its v factor is
    # state-free. Auto dt takes f(v_L) + beta*(x_L - v_L): its v block
    # carries beta, and the explicit rest f(v_L) - beta*v_L is >= 0, as
    # beta <= f'(v_L) <= f(v_L)/v_L.
    errors, lows = {}, None
    if terms is None:
        rhs_v[-1] += 2.0 * dt / h * flux
        for block, diag in ((rhs_u, 1.0), (rhs_v, 1.0 + dt)):
            block[::n - 1] *= 0.5  # W*b
            dpttrs(*factors(dt, diag), block, True)  # in place on the block
        lows = _lows(rhs, n)  # for the check below and run_batch's running minima
    else:
        rhs_v[-1] += 2.0 * dt / h * terms.rest
        _solve_u_block(grid, terms, dt, rhs_u)
        errors = _solve_v_block(grid, factors, dt, terms.beta, v, rhs_v)
    low = np.minimum.reduce(rhs if lows is None else lows, axis=None)
    if not (low >= POSITIVITY_HARD_LIMIT and np.maximum.reduce(rhs, axis=None) < np.inf):
        finite = np.isfinite(_per_column(rhs, n)).all(axis=0).reshape(2, -1).all(axis=0)
        low = (_lows(rhs, n) if lows is None else lows).reshape(2, -1).min(axis=0)
        for j in np.flatnonzero(~finite | (low < POSITIVITY_HARD_LIMIT)):
            if j in errors:  # its v block did not factor
                continue
            t_new = t[j] + dts[j]
            if not finite[j]:
                errors[j] = SolverError(f"density became non-finite at t={t_new:g}: "
                                        "an explicit term overflowed")
            else:
                errors[j] = PositivityError(
                    f"density dropped to {low[j]:.3e} at t={t_new:g}; "
                    f"dt={dts[j]:g} is too large",
                    t=t_new,
                    min_value=float(low[j]),
                )
    return rhs, errors, lows


@record
class Trajectory:
    """Snapshots plus per-snapshot diagnostics (the DIAG_COLUMNS series,
    each an array of doubles) of one simulation. A run_batch(...,
    keep_states=False) trajectory keeps every diagnostics row, but in
    states only the final state of a run that reached t_end.

    One _record pass appends the rows of all columns due at a step, each
    bitwise as grid.trapezoid and l2_norm give it. Only the tumor V(u_L)
    is a scalar call per column: numpy's array power can differ in its last bit.
    """

    grid: Grid1D
    params: ModelParams
    ctrl: StepControl
    states: list = field(default_factory=list)
    diagnostics: dict = field(
        default_factory=lambda: {name: array("d") for name in DIAG_COLUMNS}
    )
    min_u_overall: float = np.inf
    min_v_overall: float = np.inf
    steps_taken: int = 0
    dt_min: float = np.inf  # smallest and largest dt of the steps taken
    dt_max: float = 0.0
    steps_extrapolated: int = 0  # auto-dt steps by kind, and rejected attempts
    steps_cfl_bound: int = 0
    steps_rejected: int = 0

    @property
    def times(self) -> np.ndarray:
        return self.series("t")

    def series(self, name: str) -> np.ndarray:
        # a copy: a view would stop the array from growing
        return np.array(self.diagnostics[name])

    def final_state(self) -> SimState:
        return self.states[-1]


def _record(y: np.ndarray, cols: _Columns | ModelParams, trajs, times, keep: bool) -> None:
    """Append to each of trajs the diagnostics row of its run in the
    Fortran-ordered (n, 2m) state y, m u columns before m v columns
    (parameters cols), at its time in times, and the state itself if keep
    or it is at t_end. Axis-0 sums add each column as grid.trapezoid adds
    it alone (see Trajectory)."""
    grid = trajs[0].grid
    h, t_end = grid.h, trajs[0].ctrl.t_end
    u, v = _blocks(y, grid.n)

    def mass(w):
        return h * (w.sum(axis=0) - 0.5 * (w[0] + w[-1]))

    def l2(w):
        return np.sqrt(np.maximum(mass(w * w), 0.0))

    flux = boundary_flux_v(cols, v[-1])
    rows = np.array((times, mass(u), mass(v), np.abs(u).max(axis=0), np.abs(v).max(axis=0),
                     l2(u), l2(u - cols.lam), u.min(axis=0), v.min(axis=0), flux))
    for j, (traj, row, u_tumor) in enumerate(zip(trajs, rows.T.tolist(), u[-1].tolist())):
        # integrand of the mass-balance boundary term: mu * V(u) v/(1+v)
        row.append(float(np.asarray(cols.V.V(u_tumor))) * row[-1])
        for name, value in zip(DIAG_COLUMNS, row):
            traj.diagnostics[name].append(value)
        if keep or row[0] == t_end:
            traj.states.append(SimState(row[0], make_field(grid, u[:, j]),
                                        make_field(grid, v[:, j])))


def run(u0: Field, v0: Field, p: ModelParams, ctrl: StepControl) -> Trajectory:
    """Integrate from (u0, v0) to t_end: run_batch on a batch of one.

    On a solver failure the partial trajectory is attached to the raised
    exception as exc.trajectory.
    """
    (result,) = run_batch(u0, v0, [p], ctrl)
    if isinstance(result, SolverError):
        raise result
    return result


def _rung(x: float) -> float:
    """The largest ladder dt 2**(k/DT_RUNGS) <= x; a rounded log2 can be a rung off."""
    k = math.floor(DT_RUNGS * math.log2(x))
    if 2.0 ** ((k + 1) / DT_RUNGS) <= x:
        k += 1
    elif 2.0 ** (k / DT_RUNGS) > x:
        k -= 1
    return 2.0 ** (k / DT_RUNGS)


def _take(y: np.ndarray, keep: list, m: int) -> np.ndarray:
    """The runs keep of the batch y of m runs, or y if that is all."""
    return y if len(keep) == m else np.asfortranarray(y[:, _pair(keep, m)])


def _listed(x) -> list:
    """The per-column values x as a list: a batch of one's float, or an array's values."""
    return [x] if isinstance(x, float) else x.tolist()


def _extrapolate(y1: np.ndarray, yh: np.ndarray) -> np.ndarray:
    """Richardson's 2*yh - y1 of a full step y1 and two half steps yh,
    but yh at every entry where that value would be negative."""
    y = 2.0 * yh
    y -= y1
    np.copyto(y, yh, where=y < 0.0)
    return y


@np.errstate(over="ignore", invalid="ignore")
def run_batch(u0: Field, v0: Field, params, ctrl: StepControl,
              keep_states: bool = True) -> list:
    """Integrate from (u0, v0) to t_end once per ModelParams in params,
    the runs advancing together as the columns of one batch.

    The runs must share V. Each is recorded every output_every of its
    own steps, plus its initial and final states. Fixed-dt times are
    k*dt, and the last step lands on t_end exactly (shortened only if
    dt would overshoot it). Initial data must be nonnegative.

    Returns, in the order of params, each run's Trajectory, or the
    SolverError that stopped it with its partial trajectory attached as
    exc.trajectory. A failed run leaves the batch; the others go on
    unchanged. With keep_states False a trajectory keeps its diagnostics
    rows but no snapshot state except the final one, so that a large
    batch does not hold every snapshot alive.
    One loop serves every batch size and both dt modes; a column subset
    is gathered only when it is not the whole batch. Fixed-dt columns
    share t and dt, so their step's time control runs once per batch.
    """
    grid = u0.grid
    if v0.grid != grid:
        raise ValueError("u0 and v0 must live on the same grid")
    if u0.values.min() < 0 or v0.values.min() < 0:
        raise ValueError("initial data must be nonnegative")
    if not params:
        raise ValueError("a batch needs at least one ModelParams")
    k, n, h = len(params), grid.n, grid.h
    trajs = [Trajectory(grid=grid, params=p, ctrl=ctrl) for p in params]
    results: list = list(trajs)
    # The state: k copies of u0, then k of v0, as the columns of a
    # Fortran-ordered (n, 2k) array. A batch of one keeps the (2n,)
    # vector, u above v, and its ModelParams, so its per-column values
    # are scalars, whose arithmetic costs a fraction of one-element arrays'.
    y = np.concatenate((u0.values, v0.values))
    cols = params[0]
    t_end, auto = ctrl.t_end, ctrl.dt is None
    if k > 1:
        y = np.asfortranarray(np.repeat(_per_column(y, n), k, axis=1))
        cols = _Columns.of(params) if auto else _Columns.of(params).spread(n)
    _record(_per_column(y, n), cols, trajs, [0.0] * k, keep=False)
    if keep_states:
        for traj in trajs:
            traj.states.append(SimState(0.0, u0, v0))
    # Per run, in step with the runs of y: its index in params, time, dt
    # range, and for auto dt its proposal (at first TOL: with u = 0 cfl_dt
    # bounds nothing) and step kind counts; and the running minima of the
    # columns of y (_lows). Every run has taken `steps` steps.
    live, t = list(range(k)), [0.0] * k
    dt_lo, dt_hi = [np.inf] * k, [0.0] * k
    lows = _lows(y, n)
    proposal, tally = [TOL] * k, [[0, 0, 0] for _ in range(k)]
    steps = 0
    slack = END_SLACK * t_end
    mu1 = compute_mu1(grid) if auto else None
    # the block factors of the run, by (dt, diag): the fixed-dt columns
    # share t, so a step has one dt; auto dt rounds dt onto its ladder
    factors = functools.lru_cache(V_FACTORS)(functools.partial(_factor, n, h))

    def settle(j):
        traj = trajs[live[j]]
        traj.steps_taken, traj.dt_min, traj.dt_max = steps, dt_lo[j], dt_hi[j]
        traj.steps_extrapolated, traj.steps_cfl_bound, traj.steps_rejected = tally[j]
        traj.min_u_overall, traj.min_v_overall = float(lows[j]), float(lows[len(live) + j])

    while live:
        m = len(live)
        if auto:
            bound = _listed(cfl_dt(_blocks(y, n)[0], cols))
            plain = [b < a for b, a in zip(bound, proposal)]
            dts = [_rung(min(b, a)) for b, a in zip(bound, proposal)]
            t_new = [ti + dt for ti, dt in zip(t, dts)]
        else:  # the columns share t and dt, so the first decides for all
            dts, t_new = [ctrl.dt], [(steps + 1) * ctrl.dt]
        for j, tj in enumerate(t_new):
            if tj >= t_end - slack:
                if tj > t_end + slack:
                    dts[j] = t_end - t[j]
                t_new[j] = t_end
        if not auto:
            dts, t_new = dts * m, t_new * m
        # auto dt: the full step and every first half step from y share its terms
        terms = _state_terms(grid, cols, y, mu1) if auto else None
        y_new, errors, y_lows = _advance(grid, cols, y, t, dts, factors, terms)
        acc = [j for j, p in enumerate(plain) if not p] if auto else []
        while acc:
            # two half steps, the second only from a midpoint cfl_dt admits;
            # a rejected column retries at dt/2, whose full step is the first
            ca = cols if len(acc) == m else cols.take(acc)
            half = [dts[j] / 2 for j in acc]
            ym, failed, _ = _advance(grid, ca, _take(y, acc, m), [t[j] for j in acc], half,
                                     factors, terms.take(acc, m))
            for i, error in failed.items():  # the full step's error stands
                errors.setdefault(acc[i], error)
            safe = _listed(cfl_dt(_blocks(ym, n)[0], ca))
            ok = [i for i, d in enumerate(half) if d <= safe[i]]
            done, err, retry = [acc[i] for i in ok], {}, []
            if ok:
                cb, hb = ca if len(ok) == len(acc) else ca.take(ok), [half[i] for i in ok]
                y_mid = _take(ym, ok, len(acc))
                yh, failed, _ = _advance(grid, cb, y_mid, [t[j] + d for j, d in zip(done, hb)],
                                         hb, factors, _state_terms(grid, cb, y_mid, mu1))
                for i, error in failed.items():
                    errors.setdefault(done[i], error)
                y1 = _take(y_new, done, m)
                scaled = np.abs(yh - y1) / (np.abs(yh) + ATOL)
                if scaled.ndim == 1:  # a batch of one: its u and v at once
                    err = {0: float(np.maximum.reduce(scaled))}
                else:
                    err = dict(zip(done, np.maximum.reduce(_per_column(scaled, n), axis=0)
                                   .reshape(2, -1).max(axis=0).tolist()))
                x = _extrapolate(y1, yh)
                if len(done) == m:
                    y_new = x
                else:
                    _per_column(y_new, n)[:, _pair(done, m)] = _per_column(x, n)
            for i, j in enumerate(acc):
                e = err.get(j, math.inf)  # inf: the midpoint check failed
                if e <= 2.0 * TOL:
                    proposal[j] = dts[j] * (min(2.0, 0.9 * math.sqrt(TOL / e)) if e else 2.0)
                elif j not in errors:
                    retry.append(i)
                    tally[j][2] += 1
                    dts[j], t_new[j] = half[i], t[j] + half[i]
            acc = [acc[i] for i in retry]
            if acc:
                _per_column(y_new, n)[:, _pair(acc, m)] = (
                    _per_column(ym, n)[:, _pair(retry, len(half))])
        for j, error in errors.items():
            settle(j)
            error.trajectory = trajs[live[j]]
            results[live[j]] = error
        y, t = y_new, t_new
        steps += 1
        if auto:
            dt_lo, dt_hi = list(map(min, dt_lo, dts)), list(map(max, dt_hi, dts))
            for counts, p in zip(tally, plain):
                counts[p] += 1  # extrapolated or reaction-bound
            ended = [j for j, tj in enumerate(t) if tj == t_end and j not in errors]
            y_lows = _lows(y, n)
        else:
            dt_lo, dt_hi = [min(dt_lo[0], dts[0])] * m, [max(dt_hi[0], dts[0])] * m
            ended = [j for j in range(m) if j not in errors] if t[0] == t_end else []
        np.minimum(lows, y_lows, out=lows)
        recorded = [j for j in (ended if steps % ctrl.output_every else range(len(live)))
                    if j not in errors]
        if recorded:
            _record(_take(_per_column(y, n), recorded, m),
                    cols if len(recorded) == m else cols.take(recorded),
                    [trajs[live[j]] for j in recorded], [t[j] for j in recorded], keep_states)
        for j in ended:
            settle(j)
        if errors or ended:
            keep = [j for j in range(len(live)) if j not in errors and t[j] != t_end]
            if not keep:
                break
            live, t, dt_lo, dt_hi, proposal, tally = (
                [a[j] for j in keep] for a in (live, t, dt_lo, dt_hi, proposal, tally))
            lows, y, cols = lows[_pair(keep, m)], _take(y, keep, m), cols.take(keep)
    return results


def write_trajectory_csv(traj: Trajectory, fh) -> None:
    """Long-format snapshot table: one row per (snapshot, node)."""
    fh.write("t,x,u,v\n")
    # the Python floats of tolist() repr exactly as float(value) does
    xs = list(map(repr, traj.grid.nodes.tolist()))
    for state in traj.states:
        t = repr(float(state.t))
        for x, uu, vv in zip(xs, map(repr, state.u.values.tolist()),
                             map(repr, state.v.values.tolist())):
            fh.write(f"{t},{x},{uu},{vv}\n")


def write_diagnostics_csv(traj: Trajectory, fh) -> None:
    """Per-snapshot diagnostics table.

    l2_v_minus_theta is the distance to the run's steady profile:
    theta_mu(grid, mu) above the flux threshold mu1, 0 at or below it.
    The trajectory must keep the state of every diagnostics row: a
    run_batch(..., keep_states=False) one raises ValueError.
    """
    d = traj.diagnostics
    if len(traj.states) != len(d["t"]):
        raise ValueError(f"trajectory keeps {len(traj.states)} states for "
                         f"{len(d['t'])} diagnostics rows")
    fh.write("t,mass_u,mass_v,linf_u,linf_v,l2_v_minus_theta,boundary_flux_v\n")
    grid, mu = traj.grid, traj.params.mu
    theta_vals = theta_mu(grid, mu).values if mu > compute_mu1(grid) else 0.0
    h = grid.h
    for i, state in enumerate(traj.states):
        row = [d[name][i] for name in ("t", "mass_u", "mass_v", "linf_u", "linf_v")]
        row += [l2_norm(h, state.v.values - theta_vals), d["boundary_flux_v"][i]]
        fh.write(",".join(repr(float(x)) for x in row) + "\n")
