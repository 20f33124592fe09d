"""Turns trajectories into verdicts.

A finished run is compared against the two candidate limits: the
density-dominant constant state (lam, 0), and the attractant-dominant
state (0, theta_mu) when the flux strength exceeds the threshold.
Alongside the verdict the harness fits exponential decay rates, audits
the discrete mass-balance identity of u (for lam = 0), and monitors the
late-time lower bounds of both densities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, field, replace

import numpy as np

from . import sensitivity as sens
from .dynamics import ModelParams, StepControl, Trajectory, run_batch
from .errors import CannotFitError, SolverError
from .grid import Field, l2_norm
from .records import record
from .spectral import alpha_of_mu, compute_mu1
from .steady import theta_mu

__all__ = [
    "DecayFit",
    "MassAudit",
    "RegimeReport",
    "fit_decay",
    "mass_audit",
    "classify_regime",
    "sweep",
    "SWEEP_COLUMNS",
]

CONVERGENCE_THRESHOLD = 1e-3
FIT_FLOOR = 1e-14
MIN_FIT_SAMPLES = 10
TRUSTED_R2 = 0.99

VERDICT_TO_LAM0 = "converged-to-(lambda,0)"
VERDICT_TO_THETA = "converged-to-(0,theta_mu)"
VERDICT_UNDECIDED = "undecided"


@record(frozen=True)
class DecayFit:
    """Least-squares exponential rate of a positive time series."""

    rate: float
    window: tuple[float, float]
    r_squared: float
    quantity: str
    n_samples: int

    @property
    def trusted(self) -> bool:
        return self.r_squared >= TRUSTED_R2

    def to_json_dict(self) -> dict:
        return {**asdict(self), "window": list(self.window), "trusted": self.trusted}


def fit_decay(times, values, window: tuple[float, float],
              quantity: str = "") -> DecayFit:
    """Fit value ~ C*exp(-rate*t) on the window by regressing log(value).

    Samples below FIT_FLOOR are treated as already converged (they carry
    only round-off) and dropped; if fewer than MIN_FIT_SAMPLES usable
    samples remain the fit is refused.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    t0, t1 = window
    in_window = (t >= t0) & (t <= t1)
    if int(in_window.sum()) < MIN_FIT_SAMPLES:
        raise CannotFitError(
            f"only {int(in_window.sum())} samples in window [{t0:g}, {t1:g}]"
        )
    usable = in_window & (v >= FIT_FLOOR)
    if int(usable.sum()) < MIN_FIT_SAMPLES:
        raise CannotFitError(
            f"{quantity or 'series'} already converged below {FIT_FLOOR:g} "
            f"on [{t0:g}, {t1:g}]; nothing left to fit"
        )
    tt = t[usable]
    logv = np.log(v[usable])
    slope, intercept = np.polyfit(tt, logv, 1)
    pred = slope * tt + intercept
    ss_res = float(np.sum((logv - pred) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(float(-slope), (float(t0), float(t1)), r2, quantity, int(usable.sum()))


@record(frozen=True)
class MassAudit:
    """Discrete mass-balance bookkeeping of u over [tau, t_end]:
    boundary inflow term + quadratic absorption vs. mass change."""

    residual: float
    boundary_term: float
    absorption_term: float
    mass_change: float
    tau: float
    t_end: float
    scale: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def mass_audit(traj: Trajectory, tau: float = 1.0) -> MassAudit:
    """Check mu * int int V(u) v/(1+v) + int int u^2 = mass(tau) - mass(t).

    Time integrals use the trapezoidal rule over recorded snapshots, so
    the residual carries the O(dt) quadrature mismatch of the scheme's
    exact per-step bookkeeping; it must shrink under refinement.
    """
    t = traj.times
    if t[-1] <= tau:
        raise ValueError(f"trajectory ends at t={t[-1]:g} <= tau={tau:g}")
    i0 = int(np.argmin(np.abs(t - tau)))
    tt = t[i0:]
    flux = traj.series("chem_boundary_flux")[i0:]
    u2 = traj.series("l2_u")[i0:] ** 2
    mass = traj.series("mass_u")
    boundary_term = float(np.trapezoid(flux, tt))
    absorption_term = float(np.trapezoid(u2, tt))
    mass_change = float(mass[i0] - mass[-1])
    residual = abs(boundary_term + absorption_term - mass_change)
    scale = float(max(abs(mass[i0]), abs(mass[-1]), boundary_term, absorption_term, 1e-300))
    return MassAudit(
        residual=residual,
        boundary_term=boundary_term,
        absorption_term=absorption_term,
        mass_change=mass_change,
        tau=float(t[i0]),
        t_end=float(t[-1]),
        scale=scale,
    )


@record
class RegimeReport:
    """Classification of one run's limit plus all supporting audits. The
    report reads the run's parameters, grid, end time and step
    statistics from the trajectory it holds."""

    trajectory: Trajectory
    verdict: str
    mu1: float
    alpha_mu: float
    final_dist_u: float          # inf-distance of u(t_end) to lam
    final_dist_v: float          # inf-norm of v(t_end), or L2 dist to theta
    final_linf_u: float
    final_linf_v: float
    fits: list = field(default_factory=list)
    mass: MassAudit | None = None
    positivity_ok: bool = True
    min_u_late: float = math.nan  # H-monitor: late-window min_x u
    min_v_late: float = math.nan  # c1-monitor: late-window min_x v
    hypothesis_h1: sens.H1Report | None = None
    hypothesis_envelope: sens.EnvelopeReport | None = None
    fit_errors: list = field(default_factory=list)

    def fit_for(self, quantity: str) -> DecayFit | None:
        for f in self.fits:
            if f.quantity == quantity:
                return f
        return None

    def to_json_dict(self) -> dict:
        p, traj = self.trajectory.params, self.trajectory
        return {
            "params": {
                "lambda": p.lam,
                "mu": p.mu,
                "c": p.c,
                "sensitivity": p.V.describe(),
            },
            "grid": {"L": traj.grid.L, "n": traj.grid.n},
            "t_end": float(traj.times[-1]),
            "verdict": self.verdict,
            "mu1": self.mu1,
            "alpha_mu": self.alpha_mu,
            "final_dist_u": self.final_dist_u,
            "final_dist_v": self.final_dist_v,
            "final_linf_u": self.final_linf_u,
            "final_linf_v": self.final_linf_v,
            "steps": traj.steps_taken,
            "dt_min": traj.dt_min,
            "dt_max": traj.dt_max,
            "steps_extrapolated": traj.steps_extrapolated,
            "steps_cfl_bound": traj.steps_cfl_bound,
            "steps_rejected": traj.steps_rejected,
            "fits": [f.to_json_dict() for f in self.fits],
            "mass_audit": self.mass.to_json_dict() if self.mass else None,
            "positivity_ok": self.positivity_ok,
            "min_u_late": self.min_u_late,
            "min_v_late": self.min_v_late,
            "hypothesis_h1": (
                self.hypothesis_h1.to_json_dict() if self.hypothesis_h1 else None
            ),
            "hypothesis_envelope": (
                self.hypothesis_envelope.to_json_dict()
                if self.hypothesis_envelope
                else None
            ),
            "fit_errors": list(self.fit_errors),
        }


def classify_regime(
    traj: Trajectory,
    threshold: float = CONVERGENCE_THRESHOLD,
    fit_window: tuple[float, float] | None = None,
    audit_tau: float = 1.0,
) -> RegimeReport:
    """Decide which semi-trivial state the run approached, for the
    parameters and grid of the run (traj.params, traj.grid).

    The default fit window [0.5*t_end, 0.9*t_end] skips the transient
    and the algebraic prefactor of the early decay envelope.
    """
    p, grid = traj.params, traj.grid
    t_end = float(traj.times[-1])
    if fit_window is None:
        fit_window = (0.5 * t_end, 0.9 * t_end)
    mu1 = compute_mu1(grid)
    a_mu = alpha_of_mu(grid, p.mu)

    final, d = traj.final_state(), traj.diagnostics
    linf_u, linf_v = d["linf_u"][-1], d["linf_v"][-1]  # the final state's row
    dist_u_lam = float(np.abs(final.u.values - p.lam).max())
    dist_v = linf_v
    if p.mu > mu1:
        dist_v = float(l2_norm(grid.h, final.v.values - theta_mu(grid, p.mu).values))

    if dist_u_lam < threshold and linf_v < threshold:
        verdict, dist_v = VERDICT_TO_LAM0, linf_v
    elif p.mu > mu1 and linf_u < threshold and dist_v < threshold:
        verdict = VERDICT_TO_THETA
    else:
        verdict = VERDICT_UNDECIDED

    fits: list[DecayFit] = []
    fit_errors: list[str] = []
    for decays, quantity in ((p.mu < mu1, "linf_v"), (p.lam > 0, "l2_u_minus_lam")):
        if decays:
            try:
                fits.append(fit_decay(traj.times, traj.series(quantity), fit_window, quantity))
            except CannotFitError as exc:
                fit_errors.append(str(exc))

    mass = None
    if p.lam == 0 and traj.times[-1] > audit_tau:
        mass = mass_audit(traj, tau=audit_tau)

    late = traj.times >= 0.5 * t_end
    min_u_late = float(traj.series("min_u")[late].min())
    min_v_late = float(traj.series("min_v")[late].min())
    positivity_ok = traj.min_u_overall >= -1e-12 and traj.min_v_overall >= -1e-12

    h1 = None
    envelope = None
    try:
        sens.check_hypothesis2(p.V)
        h1 = sens.check_H1(p.V, d=1, delta=0.1)
        if p.V.envelope_exponent is not None:
            s_max = float(np.max(traj.series("linf_u")))
            envelope = sens.check_growth_envelope(
                p.V, p.V.envelope_exponent, max(s_max, 1e-8)
            )
    except SolverError as exc:
        fit_errors.append(f"hypothesis check failed: {exc}")

    return RegimeReport(
        trajectory=traj,
        verdict=verdict,
        mu1=mu1,
        alpha_mu=a_mu,
        final_dist_u=dist_u_lam,
        final_dist_v=dist_v,
        final_linf_u=linf_u,
        final_linf_v=linf_v,
        fits=fits,
        mass=mass,
        positivity_ok=positivity_ok,
        min_u_late=min_u_late,
        min_v_late=min_v_late,
        hypothesis_h1=h1,
        hypothesis_envelope=envelope,
        fit_errors=fit_errors,
    )


SWEEP_COLUMNS = (
    "lambda", "mu", "mu1", "alpha_mu", "verdict", "final_dist_u",
    "final_dist_v", "v_rate", "u_rate", "mass_residual",
    "min_u_late", "min_v_late",
)


def _sweep_row(report: RegimeReport) -> dict:
    v_fit = report.fit_for("linf_v")
    u_fit = report.fit_for("l2_u_minus_lam")
    return {
        "lambda": report.trajectory.params.lam,
        "mu": report.trajectory.params.mu,
        "mu1": report.mu1,
        "alpha_mu": report.alpha_mu,
        "verdict": report.verdict,
        "final_dist_u": report.final_dist_u,
        "final_dist_v": report.final_dist_v,
        "v_rate": v_fit.rate if v_fit else "",
        "u_rate": u_fit.rate if u_fit else "",
        "mass_residual": report.mass.residual if report.mass else "",
        "min_u_late": report.min_u_late,
        "min_v_late": report.min_v_late,
    }


def sweep(
    base_params: ModelParams,
    ctrl: StepControl,
    u0: Field,
    v0: Field,
    lambda_values,
    mu_values,
) -> tuple[list[dict], list[RegimeReport | None]]:
    """Classify every (lambda, mu) cell of the cartesian product, each
    run from u0 and v0 on their grid.

    All cells advance together as the columns of one dynamics.run_batch,
    which keeps each cell's diagnostics and final state, not its
    snapshots. A cell that fails leaves the batch with its error
    recorded in its row; the others run on. Returns (rows, reports) in
    row-major (lambda, mu) order.
    """
    if not lambda_values or not mu_values:
        raise ValueError("sweep needs nonempty lambda and mu lists")
    params = [replace(base_params, lam=lam, mu=mu)
              for lam in lambda_values for mu in mu_values]
    rows: list[dict] = []
    reports: list[RegimeReport | None] = []
    for p, result in zip(params, run_batch(u0, v0, params, ctrl, keep_states=False)):
        try:
            if isinstance(result, SolverError):
                raise result
            report = classify_regime(result)
        except SolverError as exc:
            row = {k: "" for k in SWEEP_COLUMNS}
            row.update({"lambda": p.lam, "mu": p.mu, "verdict": f"error: {exc}"})
            rows.append(row)
            reports.append(None)
        else:
            rows.append(_sweep_row(report))
            reports.append(report)
    return rows, reports
