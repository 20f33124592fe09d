"""Acceptance suite: every criterion at its stated tolerance.

Each test registers a PASS/FAIL line printed in the session summary.
The lam = 0 extinction distances at the stated horizons are known to be
unreachable for this model (the quadratic absorption -u^2 gives an
algebraic ~1/t tail, so u(40) ~ 1/42 and u(100) ~ 1/102 regardless of
resolution); those sub-criteria are asserted exactly as stated and fail
honestly. test_supplementary_long_horizon shows the same runs do reach
the limits once the algebraic transient has passed.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import record_criterion

from angiosim.cli import main as cli_main
from angiosim.dynamics import ModelParams, StepControl, run
from angiosim.errors import BelowThresholdError
from angiosim.grid import const_field, l2_norm, make_grid
from angiosim.harness import classify_regime, mass_audit
from angiosim.sensitivity import saturating_power
from angiosim.spectral import alpha_of_mu, compute_mu1, principal_eigen
from angiosim.steady import theta_mu

THRESHOLD = 1e-3


def scalar_alpha_oracle(mu: float) -> float:
    """Independent oracle: bisection on s*tanh(s) = mu, then 1 - s^2."""
    lo, hi = 0.0, 1.0
    while hi * math.tanh(hi) < mu:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.tanh(mid) < mu:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return 1.0 - s * s


def closed_form_theta(grid, mu):
    amp = mu / math.tanh(grid.L) - 1.0
    return amp * np.cosh(grid.nodes) / math.cosh(grid.L)


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def mu1_results():
    out = {}
    t0 = time.perf_counter()
    out[1025] = compute_mu1(make_grid(1.0, 1025))
    out["seconds_1025"] = time.perf_counter() - t0
    out[129] = compute_mu1(make_grid(1.0, 129))
    return out


def _regime_run(lam, mu, c, n, t_end, dt, output_every):
    grid = make_grid(1.0, n)
    p = ModelParams(lam=lam, mu=mu, c=c, V=saturating_power(2.0))
    ctrl = StepControl(t_end=t_end, dt=dt, output_every=output_every)
    t0 = time.perf_counter()
    traj = run(const_field(grid, 0.5), const_field(grid, 0.5), p, ctrl)
    seconds = time.perf_counter() - t0
    return grid, p, traj, seconds


@pytest.fixture(scope="module")
def regime_a():
    """lam=0, mu=0.5 below threshold; coarse n=513 and refined n=1025."""
    grid_c, p_c, traj_c, sec_c = _regime_run(0.0, 0.5, 1.0, 513, 40.0, 0.005, 20)
    grid_f, p_f, traj_f, sec_f = _regime_run(0.0, 0.5, 1.0, 1025, 40.0, 0.0025, 40)
    return {
        "coarse": (grid_c, p_c, traj_c),
        "fine": (grid_f, p_f, traj_f),
        "report_coarse": classify_regime(traj_c),
        "report_fine": classify_regime(traj_f),
        "seconds": sec_c + sec_f,
    }


@pytest.fixture(scope="module")
def regime_b():
    # horizon 25: the growth regime converges exponentially, and the
    # default fit window [12.5, 22.5] then precedes the ~1e-13 round-off
    # plateau of the discrete fixed point that would pollute the fit
    grid, p, traj, seconds = _regime_run(1.0, 0.5, 1.0, 513, 25.0, 0.005, 20)
    return {
        "grid": grid, "p": p, "traj": traj,
        "report": classify_regime(traj),
        "seconds": seconds,
    }


@pytest.fixture(scope="module")
def regime_c():
    grid, p, traj, seconds = _regime_run(0.0, 1.2, 1.0, 513, 100.0, None, 10)
    return {
        "grid": grid, "p": p, "traj": traj,
        "report": classify_regime(traj),
        "theta": theta_mu(grid, 1.2),
        "seconds": seconds,
    }


@pytest.fixture(scope="module")
def supersolution_twin(regime_a):
    grid, p, traj = regime_a["coarse"]
    from dataclasses import replace

    p0 = replace(p, c=0.0)
    ctrl = StepControl(t_end=40.0, dt=0.005, output_every=20)
    twin = run(const_field(grid, 0.5), const_field(grid, 0.5), p0, ctrl)
    return twin


# ------------------------------------------------------------- criterion 1


def test_criterion_1_spectral_threshold(mu1_results):
    exact = math.tanh(1.0)
    err_fine = abs(mu1_results[1025] - exact)
    err_coarse = abs(mu1_results[129] - exact)
    order = math.log(err_coarse / err_fine) / math.log(8.0)
    seconds = mu1_results["seconds_1025"]
    ok = err_fine <= 1e-4 and order >= 1.8 and seconds < 5.0
    record_criterion(
        "1 spectral threshold tanh(1)",
        ok,
        f"err={err_fine:.2e}, order={order:.2f}, {seconds:.2f}s",
    )
    assert err_fine <= 1e-4, f"mu1 error {err_fine:.3e} exceeds 1e-4"
    assert order >= 1.8, f"refinement order {order:.2f} below 1.8"
    assert seconds < 5.0, f"compute_mu1 took {seconds:.1f}s"


# ------------------------------------------------------------- criterion 2


def test_criterion_2_decay_exponent(grid1025):
    oracle = scalar_alpha_oracle(0.5)
    computed = alpha_of_mu(grid1025, 0.5)
    err = abs(computed - oracle)
    alpha0 = alpha_of_mu(grid1025, 0.0)
    mus = [0.0, 0.25, 0.5, 0.75, 1.0]
    alphas = [alpha0, alpha_of_mu(grid1025, 0.25), computed,
              alpha_of_mu(grid1025, 0.75), alpha_of_mu(grid1025, 1.0)]
    decreasing = all(a > b for a, b in zip(alphas, alphas[1:]))
    ok = err <= 1e-4 and abs(alpha0 - 1.0) <= 1e-9 and decreasing
    record_criterion(
        "2 decay exponent alpha(mu)",
        ok,
        f"|alpha(0.5)-oracle|={err:.2e}, alpha(0)-1={alpha0 - 1.0:.1e}",
    )
    assert err <= 1e-4
    assert abs(alpha0 - 1.0) <= 1e-9
    assert decreasing, f"alpha not strictly decreasing on {mus}: {alphas}"


# ------------------------------------------------------------- criterion 3


def test_criterion_3_steady_state(grid1025):
    t0 = time.perf_counter()
    theta = theta_mu(grid1025, 1.0)
    seconds = time.perf_counter() - t0
    err = float(np.abs(theta.values - closed_form_theta(grid1025, 1.0)).max())
    raised = False
    try:
        theta_mu(grid1025, 0.5)
    except BelowThresholdError:
        raised = True
    ok = err <= 1e-4 and raised and seconds < 5.0
    record_criterion(
        "3 steady profile theta_mu",
        ok,
        f"Linf err={err:.2e}, below-threshold raises={raised}, {seconds:.2f}s",
    )
    assert err <= 1e-4
    assert raised, "theta_mu(mu=0.5) must raise the below-threshold error"
    assert seconds < 5.0


# ------------------------------------------------------------- criterion 4


def test_criterion_4a_attractant_extinction(regime_a):
    linf_v = regime_a["report_coarse"].final_linf_v
    ok = linf_v < THRESHOLD
    record_criterion("4a low-flux regime: v extinction at t=40", ok,
                     f"linf_v={linf_v:.2e}")
    assert ok, f"final linf_v {linf_v:.3e} not below {THRESHOLD}"


def test_criterion_4b_density_extinction(regime_a):
    # algebraic tail: u(40) ~ 1/42; stated horizon cannot reach 1e-3
    linf_u = regime_a["report_coarse"].final_linf_u
    ok = linf_u < THRESHOLD
    record_criterion("4b low-flux regime: u extinction at t=40", ok,
                     f"linf_u={linf_u:.2e} (algebraic ~1/t tail)")
    assert ok, (
        f"final linf_u {linf_u:.3e} not below {THRESHOLD}: the quadratic "
        f"absorption gives u ~ 1/(2+t), so t=40 leaves ~{1 / 42:.2e}; "
        "see test_supplementary_long_horizon for the attained limit"
    )


def test_criterion_4c_decay_rate_matches_alpha(regime_a):
    report = regime_a["report_coarse"]
    fit = report.fit_for("linf_v")
    assert fit is not None, f"v-decay fit missing: {report.fit_errors}"
    rel = abs(fit.rate - report.alpha_mu) / report.alpha_mu
    ok = rel <= 0.15
    record_criterion(
        "4c low-flux regime: v-rate within 15% of alpha",
        ok,
        f"rate={fit.rate:.4f}, alpha={report.alpha_mu:.4f}, rel={rel:.1%}",
    )
    assert ok, f"fitted rate {fit.rate:.4f} vs alpha {report.alpha_mu:.4f}"
    assert fit.rate >= 0.85 * report.alpha_mu


def test_criterion_4d_verdict_stable_under_refinement(regime_a):
    vc = regime_a["report_coarse"].verdict
    vf = regime_a["report_fine"].verdict
    ok = vc == vf
    record_criterion("4d low-flux regime: verdict refinement-stable", ok,
                     f"coarse={vc}, fine={vf}")
    assert ok
    # the attractant conclusions agree across resolutions too
    assert regime_a["report_fine"].final_linf_v < THRESHOLD


def test_criterion_4e_runtime(regime_a):
    seconds = regime_a["seconds"]
    ok = seconds < 60.0
    record_criterion("4e low-flux regime: runtime", ok, f"{seconds:.1f}s")
    assert ok


# ------------------------------------------------------------- criterion 5


def test_criterion_5_growth_regime(regime_b):
    report = regime_b["report"]
    dist = report.final_dist_u
    fit = report.fit_for("l2_u_minus_lam")
    seconds = regime_b["seconds"]
    fit_ok = fit is not None and fit.rate > 0 and fit.r_squared >= 0.99
    ok = dist < THRESHOLD and fit_ok and report.min_u_late > 0 and seconds < 60.0
    detail = f"|u-1|={dist:.2e}, min_u_late={report.min_u_late:.3f}, {seconds:.1f}s"
    if fit is not None:
        detail += f", rate={fit.rate:.3f}, r2={fit.r_squared:.4f}"
    record_criterion("5 growth regime converges to (1,0)", ok, detail)
    assert dist < THRESHOLD
    assert fit is not None, f"u-decay fit missing: {report.fit_errors}"
    assert fit.rate > 0
    assert fit.r_squared >= 0.99
    assert report.min_u_late > 0
    assert report.verdict == "converged-to-(lambda,0)"
    assert seconds < 60.0


# ------------------------------------------------------------- criterion 6


def test_criterion_6a_attractant_lower_bound(regime_c):
    traj = regime_c["traj"]
    t = traj.times
    min_v = traj.series("min_v")
    mid = float(min_v[(t >= 25.0) & (t <= 50.0)].min())
    late = float(min_v[(t >= 50.0) & (t <= 100.0)].min())
    ok = mid > 0 and late > 0 and late >= mid - 1e-6
    record_criterion(
        "6a high-flux regime: attractant bounded below",
        ok,
        f"min_v[25,50]={mid:.4f}, min_v[50,100]={late:.4f}",
    )
    assert mid > 0 and late > 0
    assert late >= mid - 1e-6, "lower bound shrank as the horizon grew"


def test_criterion_6b_density_extinction(regime_c):
    linf_u = regime_c["report"].final_linf_u
    ok = linf_u < THRESHOLD
    record_criterion("6b high-flux regime: u extinction at t=100", ok,
                     f"linf_u={linf_u:.2e} (algebraic ~1/t tail)")
    assert ok, (
        f"final linf_u {linf_u:.3e} not below {THRESHOLD}: u ~ 1/(2+t) "
        f"leaves ~{1 / 102:.2e} at t=100; see test_supplementary_long_horizon"
    )


def test_criterion_6c_attractant_converges_to_theta(regime_c):
    grid, _, traj = regime_c["grid"], regime_c["p"], regime_c["traj"]
    theta = regime_c["theta"]
    dist = l2_norm(grid.h, traj.final_state().v.values - theta.values)
    ok = dist < THRESHOLD
    record_criterion("6c high-flux regime: v -> theta at t=100", ok,
                     f"l2 dist={dist:.2e} (slaved to u's ~1/t tail)")
    assert ok, (
        f"|v - theta|_2 = {dist:.3e} not below {THRESHOLD}: the distance is "
        "slaved to the algebraic u tail through the consumption term"
    )


def test_criterion_6d_runtime(regime_c):
    seconds = regime_c["seconds"]
    ok = seconds < 120.0
    record_criterion("6d high-flux regime: runtime", ok, f"{seconds:.1f}s")
    assert ok


# ------------------------------------------------------------- criterion 7


def test_criterion_7_mass_identity_audit(regime_a):
    grid_c, _, traj_c = regime_a["coarse"]
    grid_f, _, traj_f = regime_a["fine"]
    audit_c = mass_audit(traj_c, tau=1.0)
    audit_f = mass_audit(traj_f, tau=1.0)
    tol = 10.0 * (0.005 + grid_c.h**2) * (audit_c.t_end - audit_c.tau) * audit_c.scale
    slope = math.log2(audit_c.residual / audit_f.residual)
    ok = audit_c.residual < tol and slope >= 0.8
    record_criterion(
        "7 mass-balance identity audit",
        ok,
        f"residual={audit_c.residual:.2e} (tol {tol:.2e}), slope={slope:.2f}",
    )
    assert audit_c.residual < tol
    assert slope >= 0.8, (
        f"audit residual refinement slope {slope:.2f} below 0.8 "
        f"({audit_c.residual:.3e} -> {audit_f.residual:.3e})"
    )


# ------------------------------------------------------------- criterion 8


def test_criterion_8a_nonnegativity(regime_a, regime_b, regime_c):
    worst = min(
        regime_a["coarse"][2].min_u_overall, regime_a["coarse"][2].min_v_overall,
        regime_a["fine"][2].min_u_overall, regime_a["fine"][2].min_v_overall,
        regime_b["traj"].min_u_overall, regime_b["traj"].min_v_overall,
        regime_c["traj"].min_u_overall, regime_c["traj"].min_v_overall,
    )
    ok = worst >= -1e-12
    record_criterion("8a nonnegativity on all acceptance runs", ok,
                     f"worst min={worst:.2e}")
    assert ok


def test_criterion_8b_supersolution_domination(regime_a, supersolution_twin):
    _, _, coupled = regime_a["coarse"]
    twin = supersolution_twin
    assert len(coupled.states) == len(twin.states)
    worst = max(
        float((s.v.values - w.v.values).max())
        for s, w in zip(coupled.states, twin.states)
    )
    ok = worst <= 1e-8
    record_criterion("8b decoupled run dominates coupled v", ok,
                     f"max(v_coupled - v_twin)={worst:.2e}")
    assert ok


def test_criterion_8c_zero_density_invariance(grid257):
    p = ModelParams(lam=1.0, mu=1.2, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=0.1, dt=0.002, output_every=1)
    traj = run(const_field(grid257, 0.0), const_field(grid257, 0.5), p, ctrl)
    assert traj.steps_taken == 50
    ok = all(np.all(state.u.values == 0.0) for state in traj.states)
    record_criterion("8c zero density exactly invariant", ok, "")
    assert ok


def test_criterion_8d_eigen_positivity_and_residual(grid257, grid1025):
    worst_min, worst_res = np.inf, 0.0
    for grid in (grid257, grid1025):
        for mu in (0.0, 0.5, 1.2):
            res = principal_eigen(grid, const_field(grid, 1.0), mu)
            worst_min = min(worst_min, float(res.eigenfunction.values.min()))
            worst_res = max(worst_res, res.residual)
    ok = worst_min > 0 and worst_res <= 1e-8
    record_criterion("8d eigenfunction positivity and residual", ok,
                     f"min phi={worst_min:.3f}, max residual={worst_res:.1e}")
    assert worst_min > 0
    assert worst_res <= 1e-8


def test_criterion_8e_determinism(tmp_path):
    doc = {
        "grid": {"n": 65},
        "model": {"lambda": 0.0, "mu": 0.5},
        "time": {"dt": 0.01, "t_end": 2.0, "output_every": 10},
    }
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = tmp_path / f"cfg_{tag}.json"
        doc["io"] = {"outdir": str(out)}
        cfg.write_text(json.dumps(doc))
        assert cli_main(["classify", "--config", str(cfg)]) == 0
        blobs.append(
            (out / "report.json").read_bytes() + (out / "diagnostics.csv").read_bytes()
        )
    ok = blobs[0] == blobs[1]
    record_criterion("8e byte-identical reruns", ok, "")
    assert ok


# ----------------------------------------------------------- supplementary


def test_supplementary_long_horizon_limits():
    """The stated-horizon extinction criteria fail only because of the
    algebraic transient; by t=2500 both regimes are inside tolerance."""
    grid = make_grid(1.0, 257)
    ctrl = StepControl(t_end=2500.0, dt=None, output_every=500)
    u0 = const_field(grid, 0.5)
    v0 = const_field(grid, 0.5)

    p_low = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    low = run(u0, v0, p_low, ctrl)
    linf_u_low = float(np.abs(low.final_state().u.values).max())
    linf_v_low = float(np.abs(low.final_state().v.values).max())

    p_high = ModelParams(lam=0.0, mu=1.2, c=1.0, V=saturating_power(2.0))
    high = run(u0, v0, p_high, ctrl)
    theta = theta_mu(grid, 1.2)
    linf_u_high = float(np.abs(high.final_state().u.values).max())
    dist_v_high = l2_norm(grid.h, high.final_state().v.values - theta.values)
    ok = max(linf_u_low, linf_v_low, linf_u_high, dist_v_high) < THRESHOLD
    record_criterion(
        "supplementary: limits reached at t=2500",
        ok,
        f"low-flux u={linf_u_low:.1e}, high-flux u={linf_u_high:.1e}, "
        f"|v-theta|={dist_v_high:.1e}",
    )
    assert linf_u_low < THRESHOLD and linf_v_low < THRESHOLD
    assert linf_u_high < THRESHOLD and dist_v_high < THRESHOLD
