"""Time integration of the coupled density/attractant system.

Equations on (0, L):

    u_t = u_xx - (V(u) v_x)_x + lam*u - u^2      (cell density)
    v_t = v_xx - v - c*u*v                       (attractant)

with zero Neumann data for u at both ends and for v at the vessel end,
and the outward flux v_x = mu*v/(1+v) at the tumor end.

Scheme: IMEX Euler. Diffusion and the attractant's linear decay -v are
implicit: the u block I + dt*(-d2/dx2) and the v block
(1 + dt)*I + dt*(-d2/dx2), each with mirror rows (elliptic.banded_rows),
are joined by one zero off-diagonal entry into a single 2n system, so a
step is one LDL^T solve. The chemotactic divergence, the logistic term,
-c*u*v and the tumor flux of v are explicit; the flux enters v's
tumor-end row as the source (2*dt/h)*mu*v/(1+v) in [0, 2*dt*mu/h]. So
the matrix depends only on (n, h, dt) and is an M-matrix for every dt,
and theta_mu is a fixed point of the step for every dt. run keeps one
factor of it per distinct dt. Only the explicit chemotaxis and reactions
can drive a density negative, which raises PositivityError.

Auto dt (run only) takes the smaller of two bounds: cfl_dt, for the
explicit terms, and an accuracy bound min(2*dt_prev, REL_CHANGE*dt_prev/r),
where r is the previous step's largest relative change |dy|/(|y| + ATOL)
of u or v. The first step's accuracy bound is REL_CHANGE, the step that
changes a quantity decaying at unit rate by that fraction. dt is then
rounded down to a power of 2**(1/DT_RUNGS), so that steps of nearly
equal dt share one factor.

The chemotactic flux V(u) v_x is discretized with first-order upwinding
of u in the drift direction, which trades formal second order for
positivity. On the tumor-boundary face the flux uses the boundary value
mu*v/(1+v) of v_x, so the discrete mass balance of u telescopes exactly:
with lam = 0 the change of the trapezoidal mass of u equals
-dt * (boundary flux + quadratic absorption) summed over steps, to
round-off. Audits rely on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import banded_rows, factor
from .errors import PositivityError, SolverError
from .grid import Field, Grid1D, l2_norm, make_field, trapezoid
from .sensitivity import SensitivitySpec

__all__ = [
    "ModelParams",
    "SimState",
    "StepControl",
    "Trajectory",
    "cfl_dt",
    "step",
    "run",
    "chemotaxis_divergence",
    "boundary_flux_v",
    "write_trajectory_csv",
    "write_diagnostics_csv",
]

POSITIVITY_HARD_LIMIT = -1e-9  # beyond this a step is rejected outright
RATE_FLOOR = 1e-30  # floor of the drift speed and reaction rate in cfl_dt
REL_CHANGE = 0.01  # largest relative change of u or v per auto-dt step
# absolute part of that change's scale; just above harness.FIT_FLOOR, so
# any v a decay fit can still use keeps steering dt
ATOL = 1e-12
# auto dt is rounded down to a power 2**(k/DT_RUNGS), so that steps of
# nearly equal dt share one factor
DT_RUNGS = 16
END_SLACK = 1e-12  # relative: a step ending this close to t_end lands on it

DIAG_COLUMNS = (
    "t", "mass_u", "mass_v", "linf_u", "linf_v", "l2_u", "l2_v",
    "l2_u_minus_lam", "min_u", "min_v", "boundary_flux_v", "chem_boundary_flux",
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SimState:
    t: float
    u: Field
    v: Field


@dataclass(frozen=True)
class StepControl:
    """Time-stepping controls. dt=None means run's auto dt."""

    t_end: float
    dt: float | None = None
    output_every: int = 10
    dt_safety: float = 0.4

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0 < self.dt_safety <= 1:
            raise ValueError(f"dt_safety must lie in (0, 1], got {self.dt_safety}")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")


def boundary_flux_v(p: ModelParams, v_boundary: float) -> float:
    """Outward flux of v at the tumor end: mu * v / (1 + v)."""
    return float(p.mu * v_boundary / (1.0 + v_boundary))


def chemotaxis_divergence(grid: Grid1D, u: np.ndarray, v: np.ndarray,
                          p: ModelParams) -> np.ndarray:
    """Divergence of the upwind chemotactic flux J = V(u) v_x.

    Faces between nodes use the upwind u (left value when v increases
    across the face). The vessel-end face flux is zero; the tumor-end
    face uses v's boundary flux value so u's mass bookkeeping closes.
    Cell widths are h inside and h/2 at the boundary nodes.
    """
    h = grid.h
    dv = v[1:] - v[:-1]
    u_up = np.where(dv > 0.0, u[:-1], u[1:])
    j = np.asarray(p.V.V(u_up)) * dv / h
    j_tumor = float(np.asarray(p.V.V(u[-1]))) * boundary_flux_v(p, v[-1])
    div = np.empty(grid.n)
    div[0] = j[0] / (0.5 * h)
    div[1:-1] = (j[1:] - j[:-1]) / h
    div[-1] = (j_tumor - j[-1]) / (0.5 * h)
    return div


def cfl_dt(u: np.ndarray, v: np.ndarray, h: float, p: ModelParams,
           dt_safety: float = 0.4) -> float:
    """Largest safe step for the explicit terms, times dt_safety.

    The advective candidate is h over the largest face drift speed
    max|V'(u)| * max|v_x| (the tumor-boundary face contributes its flux
    value); the reaction cap is 0.5 / max(|lam| + 2*max u, c*max u),
    covering the explicit lam*u - u^2 and -c*u*v. The decay -v is
    implicit and caps nothing. Both rates are floored at RATE_FLOOR. A
    safety factor <= 0.5 makes the upwind update provably
    nonnegativity-preserving (boundary cells are half-width, doubling
    their drain rate).
    """
    grad = float(np.abs(np.diff(v)).max()) / h
    grad = max(grad, abs(boundary_flux_v(p, v[-1])))
    drift = float(np.abs(np.asarray(p.V.V_prime(u))).max()) * grad
    advective = h / max(drift, RATE_FLOOR)
    linf_u = float(np.abs(u).max())
    reaction = 0.5 / max(abs(p.lam) + 2.0 * linf_u, p.c * linf_u, RATE_FLOOR)
    return dt_safety * float(min(advective, reaction))


def _step_factor(n: int, h: float, dt: float):
    """LDL^T factor of the step matrix: the u block I + dt*(-d2/dx2) and
    the v block (1 + dt)*I + dt*(-d2/dx2), joined by one zero entry."""
    r = dt / (h * h)
    d_u, e_u = banded_rows(n, h, r, 1.0)
    d_v, e_v = banded_rows(n, h, r, 1.0 + dt)
    return factor((np.concatenate((d_u, d_v)), np.concatenate((e_u, [0.0], e_v))))


def _advance(grid: Grid1D, p: ModelParams, u: np.ndarray, v: np.ndarray,
             t: float, dt: float, solve) -> np.ndarray:
    """One IMEX Euler step from (u, v) at time t, with solve the
    _step_factor of dt; returns the new u and v as the columns of one
    (n, 2) array."""
    h = grid.h
    div = chemotaxis_divergence(grid, u, v, p)
    v_rhs = v - dt * p.c * u * v
    # Explicit tumor-flux source: keeps the step matrix state-free.
    v_rhs[-1] += 2.0 * dt / h * boundary_flux_v(p, v[-1])
    uv = solve(np.column_stack((u + dt * (-div + p.lam * u - u * u), v_rhs)))
    t_new = t + dt
    if not np.all(np.isfinite(uv)):
        raise SolverError(
            f"density became non-finite at t={t_new:g}: an explicit term overflowed")
    low = float(uv.min())
    if low < POSITIVITY_HARD_LIMIT:
        raise PositivityError(
            f"density dropped to {low:.3e} at t={t_new:g}; dt={dt:g} is too large",
            t=t_new,
            min_value=low,
        )
    return uv


@np.errstate(over="ignore", invalid="ignore")
def step(state: SimState, p: ModelParams, ctrl: StepControl) -> SimState:
    """One IMEX Euler step of the fixed ctrl.dt. Auto dt needs the step
    history that only run keeps."""
    if ctrl.dt is None:
        raise ValueError("step needs a fixed ctrl.dt; auto dt is run's")
    grid, dt = state.u.grid, ctrl.dt
    uv = _advance(grid, p, state.u.values, state.v.values, state.t, dt,
                  _step_factor(grid.n, grid.h, dt))
    return SimState(state.t + dt, make_field(grid, uv[:, 0]), make_field(grid, uv[:, 1]))


@dataclass
class Trajectory:
    """Snapshots plus per-snapshot diagnostics (the DIAG_COLUMNS series)
    of one simulation."""

    grid: Grid1D
    params: ModelParams
    ctrl: StepControl
    states: list = field(default_factory=list)
    diagnostics: dict = field(
        default_factory=lambda: {name: [] for name in DIAG_COLUMNS}
    )
    min_u_overall: float = np.inf
    min_v_overall: float = np.inf
    steps_taken: int = 0
    dt_min: float = np.inf  # smallest and largest dt of the steps taken
    dt_max: float = 0.0

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self.diagnostics["t"])

    def series(self, name: str) -> np.ndarray:
        return np.asarray(self.diagnostics[name])

    def final_state(self) -> SimState:
        return self.states[-1]

    def _record(self, state: SimState):
        p = self.params
        h = self.grid.h
        u, v = state.u.values, state.v.values
        flux = boundary_flux_v(p, v[-1])
        row = (
            state.t,
            trapezoid(h, u),
            trapezoid(h, v),
            float(np.abs(u).max()),
            float(np.abs(v).max()),
            l2_norm(h, u),
            l2_norm(h, v),
            l2_norm(h, u - p.lam),
            float(u.min()),
            float(v.min()),
            flux,
            # integrand of the mass-balance boundary term: mu * V(u) v/(1+v)
            float(np.asarray(p.V.V(u[-1]))) * flux,
        )
        for name, value in zip(DIAG_COLUMNS, row):
            self.diagnostics[name].append(value)
        self.states.append(state)


@np.errstate(over="ignore", invalid="ignore")
def run(u0: Field, v0: Field, p: ModelParams, ctrl: StepControl) -> Trajectory:
    """Integrate from (u0, v0) to t_end, recording every output_every
    steps (plus the initial and final states).

    Fixed-dt times are k*dt, and the last step lands on t_end exactly
    (shortened only if dt would overshoot it). The loop steps on plain
    arrays; Fields are built only for the recorded snapshots. Initial
    data must be nonnegative. On a solver failure the partial trajectory
    is attached to the raised exception as exc.trajectory.
    """
    grid = u0.grid
    if v0.grid != grid:
        raise ValueError("u0 and v0 must live on the same grid")
    if u0.values.min() < 0 or v0.values.min() < 0:
        raise ValueError("initial data must be nonnegative")
    traj = Trajectory(grid=grid, params=p, ctrl=ctrl)
    uv = np.column_stack((u0.values, v0.values))
    traj.min_u_overall = float(u0.values.min())
    traj.min_v_overall = float(v0.values.min())
    traj._record(SimState(0.0, u0, v0))
    t_end = ctrl.t_end
    slack = END_SLACK * t_end
    t, k, h = 0.0, 0, grid.h
    solve_dt = solve = None
    # accuracy bound on the next auto-dt step. The first assumes unit rates
    # (v's decay rate): with u = 0, cfl_dt bounds nothing, and the run
    # would otherwise reach t_end in one step.
    dt_accurate = REL_CHANGE
    try:
        while t < t_end:
            u, v = uv[:, 0], uv[:, 1]
            if ctrl.dt is None:
                dt = min(cfl_dt(u, v, h, p, ctrl.dt_safety), dt_accurate)
                dt = 2.0 ** (math.floor(DT_RUNGS * math.log2(dt)) / DT_RUNGS)
                t_new = t + dt
            else:
                dt = ctrl.dt
                t_new = (k + 1) * dt
            if t_new >= t_end - slack:
                if t_new > t_end + slack:
                    dt = t_end - t
                t_new = t_end
            if dt != solve_dt:
                solve_dt, solve = dt, _step_factor(grid.n, h, dt)
            uv_new = _advance(grid, p, u, v, t, dt, solve)
            if ctrl.dt is None:
                # largest relative change |dy| / (|y| + ATOL) of u or v
                r = float((np.abs(uv_new - uv) / (np.abs(uv_new) + ATOL)).max())
                dt_accurate = 2.0 * dt if 2.0 * r <= REL_CHANGE else REL_CHANGE * dt / r
            uv, t = uv_new, t_new
            k += 1
            traj.steps_taken = k
            traj.dt_min = min(traj.dt_min, dt)
            traj.dt_max = max(traj.dt_max, dt)
            low_u, low_v = uv.min(axis=0)
            traj.min_u_overall = min(traj.min_u_overall, float(low_u))
            traj.min_v_overall = min(traj.min_v_overall, float(low_v))
            if k % ctrl.output_every == 0 or t == t_end:
                traj._record(SimState(t, make_field(grid, uv[:, 0]),
                                      make_field(grid, uv[:, 1])))
    except SolverError as exc:
        exc.trajectory = traj
        raise
    return traj


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


def write_diagnostics_csv(traj: Trajectory, fh, theta: Field | None = None) -> None:
    """Per-snapshot diagnostics table.

    l2_v_minus_theta is the distance to the supplied steady profile;
    below the flux threshold the relevant profile is 0 and theta may be
    omitted.
    """
    fh.write("t,mass_u,mass_v,linf_u,linf_v,l2_v_minus_theta,boundary_flux_v\n")
    theta_vals = theta.values if theta is not None else 0.0
    h = traj.grid.h
    d = traj.diagnostics
    for i, state in enumerate(traj.states):
        row = (
            d["t"][i],
            d["mass_u"][i],
            d["mass_v"][i],
            d["linf_u"][i],
            d["linf_v"][i],
            l2_norm(h, state.v.values - theta_vals),
            d["boundary_flux_v"][i],
        )
        fh.write(",".join(repr(float(x)) for x in row) + "\n")
