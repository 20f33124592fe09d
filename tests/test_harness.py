import json
import math

import numpy as np
import pytest

from angiosim.dynamics import ModelParams, StepControl, run
from angiosim.errors import CannotFitError
from angiosim.grid import const_field, make_grid
from angiosim.harness import (
    SWEEP_COLUMNS,
    VERDICT_TO_LAM0,
    VERDICT_TO_THETA,
    VERDICT_UNDECIDED,
    classify_regime,
    fit_decay,
    mass_audit,
    sweep,
)
from angiosim.sensitivity import saturating_power


def test_fit_decay_exact_exponential():
    t = np.linspace(1.0, 5.0, 81)
    fit = fit_decay(t, np.exp(-2.0 * t), (1.0, 5.0), "demo")
    assert fit.rate == pytest.approx(2.0, abs=1e-6)
    assert fit.r_squared > 0.999999
    assert fit.trusted


def test_fit_decay_with_algebraic_prefactor():
    t = np.linspace(10.0, 20.0, 101)
    values = (1.0 + t**-0.5) * np.exp(-t)
    fit = fit_decay(t, values, (10.0, 20.0))
    assert fit.rate == pytest.approx(1.0, abs=1e-2)


def test_fit_decay_constant_series():
    t = np.linspace(0.0, 10.0, 50)
    fit = fit_decay(t, np.full(50, 0.37), (0.0, 10.0))
    assert abs(fit.rate) < 1e-10


def test_fit_decay_refuses_thin_or_converged_windows():
    t = np.linspace(0.0, 10.0, 50)
    with pytest.raises(CannotFitError):
        fit_decay(t, np.exp(-t), (9.5, 10.0))  # too few samples
    tiny = np.full(50, 1e-16)  # below the floor: already converged
    with pytest.raises(CannotFitError):
        fit_decay(t, tiny, (0.0, 10.0))


def test_fit_decay_drops_floored_tail():
    # clean exponential that dives below the floor mid-window: the fit
    # must use only the clean samples instead of refusing or skewing
    t = np.linspace(0.0, 40.0, 201)
    values = np.maximum(np.exp(-2.0 * t), 1e-16)
    fit = fit_decay(t, values, (5.0, 35.0))
    assert fit.rate == pytest.approx(2.0, abs=1e-3)
    assert fit.n_samples < 151  # tail was dropped


def make_run(lam, mu, n=129, t_end=20.0, c=1.0, dt=0.01, output_every=10):
    g = make_grid(1.0, n)
    p = ModelParams(lam=lam, mu=mu, c=c, V=saturating_power(2.0))
    ctrl = StepControl(t_end=t_end, dt=dt, output_every=output_every)
    traj = run(const_field(g, 0.5), const_field(g, 0.5), p, ctrl)
    return g, p, traj


def test_classify_growth_regime_converges():
    g, p, traj = make_run(lam=1.0, mu=0.5)
    report = classify_regime(traj, p, g)
    assert report.verdict == VERDICT_TO_LAM0
    assert report.final_dist_u < 1e-3
    assert report.final_linf_v < 1e-3
    assert report.mu1 == pytest.approx(math.tanh(1.0), abs=1e-3)
    assert report.positivity_ok
    assert report.min_u_late > 0.9  # density sits near lam = 1 late
    ufit = report.fit_for("l2_u_minus_lam")
    assert ufit is not None and ufit.rate > 0 and ufit.r_squared >= 0.99
    vfit = report.fit_for("linf_v")
    assert vfit is not None and vfit.rate >= 0.85 * report.alpha_mu
    assert report.hypothesis_h1 is not None and report.hypothesis_h1.passed
    assert report.hypothesis_envelope is not None and report.hypothesis_envelope.passed


def test_classify_short_horizon_is_honest():
    # lam = 0 decay is algebraic (quadratic absorption), so at t = 20 the
    # density is still ~1/22 and the verdict must stay undecided
    g, p, traj = make_run(lam=0.0, mu=0.5)
    report = classify_regime(traj, p, g)
    assert report.verdict == VERDICT_UNDECIDED
    assert 0.02 < report.final_dist_u < 0.1
    assert report.final_linf_v < 1e-3
    assert report.mass is not None
    audit = report.mass
    tol = 10.0 * (0.01 + g.h**2) * (audit.t_end - audit.tau) * audit.scale
    assert audit.residual < tol


def test_classify_long_horizon_extinction():
    g, p, traj = make_run(lam=0.0, mu=0.5, t_end=2500.0, dt=None, output_every=200)
    report = classify_regime(traj, p, g)
    assert report.verdict == VERDICT_TO_LAM0
    assert report.final_dist_u < 1e-3


def test_classify_long_horizon_attractant_state():
    g, p, traj = make_run(lam=0.0, mu=1.2, t_end=2500.0, dt=None, output_every=200)
    report = classify_regime(traj, p, g)
    assert report.verdict == VERDICT_TO_THETA
    assert report.final_linf_u < 1e-3
    assert report.final_dist_v < 1e-3
    assert report.min_v_late > 0.3


def test_report_json_round_trip():
    g, p, traj = make_run(lam=1.0, mu=0.5, n=65, t_end=5.0)
    report = classify_regime(traj, p, g)
    blob = json.dumps(report.to_json_dict(), sort_keys=True)
    decoded = json.loads(blob)
    assert decoded["params"]["lambda"] == 1.0
    assert decoded["verdict"] == report.verdict
    assert "mu1" in decoded and "alpha_mu" in decoded


def test_mass_audit_requires_window():
    g, p, traj = make_run(lam=0.0, mu=0.5, n=65, t_end=0.5)
    with pytest.raises(ValueError):
        mass_audit(traj, tau=1.0)


def test_sweep_rows_and_order():
    g = make_grid(1.0, 65)
    base = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=5.0, dt=None, output_every=20)
    u0 = const_field(g, 0.5)
    v0 = const_field(g, 0.5)
    rows, reports = sweep(g, base, ctrl, u0, v0, [0.0, 1.0], [0.3, 1.2])
    assert len(rows) == 4
    assert [(r["lambda"], r["mu"]) for r in rows] == [
        (0.0, 0.3), (0.0, 1.2), (1.0, 0.3), (1.0, 1.2),
    ]
    for row, report in zip(rows, reports):
        assert report is not None
        assert set(SWEEP_COLUMNS) <= set(row)
        assert row["verdict"] in (VERDICT_TO_LAM0, VERDICT_TO_THETA, VERDICT_UNDECIDED)


def test_sweep_solves_per_mu_work_once(monkeypatch):
    from angiosim import spectral, steady

    g = make_grid(1.0, 37)
    spectral.alpha_of_mu.cache_clear()
    steady.theta_mu.cache_clear()
    spectral.compute_mu1(g)  # the threshold search is not per-mu work
    eigen_solves, newton_solves = [], []

    def count(calls, fn):
        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(spectral, "principal_eigen", count(eigen_solves, spectral.principal_eigen))
    monkeypatch.setattr(steady, "solve_nonlinear_bvp",
                        count(newton_solves, steady.solve_nonlinear_bvp))
    base = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=1.0, dt=0.05, output_every=2)
    u0 = const_field(g, 0.5)
    rows, _ = sweep(g, base, ctrl, u0, u0, [0.0, 0.5, 1.0], [0.3, 1.1])
    assert len(rows) == 6
    assert len(eigen_solves) == 2  # one alpha per distinct mu
    assert len(newton_solves) == 1  # theta only above mu1


def test_sweep_records_cell_failures():
    g = make_grid(1.0, 65)
    base = ModelParams(lam=0.0, mu=0.0, c=1.0, V=saturating_power(1.0))
    # fixed dt far beyond the advective limit: every cell fails positivity
    ctrl = StepControl(t_end=10.0, dt=2.0, output_every=1)
    u0 = const_field(g, 0.9)
    from angiosim.grid import make_field

    v0 = make_field(g, 5.0 * g.nodes)
    rows, reports = sweep(g, base, ctrl, u0, v0, [0.0], [3.0, 5.0])
    assert all(rep is None for rep in reports)
    assert all(row["verdict"].startswith("error:") for row in rows)
    assert rows[0]["lambda"] == 0.0 and rows[0]["mu"] == 3.0


def test_sweep_rejects_empty_lists():
    g = make_grid(1.0, 65)
    base = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=1.0)
    f = const_field(g, 0.5)
    with pytest.raises(ValueError):
        sweep(g, base, ctrl, f, f, [], [0.5])
