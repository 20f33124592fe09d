import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from angiosim import dynamics
from angiosim.dynamics import ModelParams, StepControl, run, run_batch
from angiosim.errors import CannotFitError, PositivityError, SolverError, SpectralShiftError
from angiosim.grid import const_field, make_field, make_grid
from angiosim.harness import (
    SWEEP_COLUMNS,
    VERDICT_TO_LAM0,
    VERDICT_TO_THETA,
    VERDICT_UNDECIDED,
    _sweep_row,
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
    report = classify_regime(traj)
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
    report = classify_regime(traj)
    assert report.verdict == VERDICT_UNDECIDED
    assert 0.02 < report.final_dist_u < 0.1
    assert report.final_linf_v < 1e-3
    assert report.mass is not None
    audit = report.mass
    tol = 10.0 * (0.01 + g.h**2) * (audit.t_end - audit.tau) * audit.scale
    assert audit.residual < tol


def test_classify_long_horizon_extinction():
    g, p, traj = make_run(lam=0.0, mu=0.5, t_end=2500.0, dt=None, output_every=200)
    report = classify_regime(traj)
    assert report.verdict == VERDICT_TO_LAM0
    assert report.final_dist_u < 1e-3


def test_classify_long_horizon_attractant_state():
    g, p, traj = make_run(lam=0.0, mu=1.2, t_end=2500.0, dt=None, output_every=200)
    report = classify_regime(traj)
    assert report.verdict == VERDICT_TO_THETA
    assert report.final_linf_u < 1e-3
    assert report.final_dist_v < 1e-3
    assert report.min_v_late > 0.3


def test_report_json_round_trip():
    g, p, traj = make_run(lam=1.0, mu=0.5, n=65, t_end=5.0)
    report = classify_regime(traj)
    assert report.trajectory is traj
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
    rows, reports = sweep(base, ctrl, u0, v0, [0.0, 1.0], [0.3, 1.2])
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
    spectral.compute_mu1(g)  # the threshold is not per-mu work
    beta_roots, theta_profiles = [], []

    def count(calls, fn):
        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(spectral, "_beta", count(beta_roots, spectral._beta))
    monkeypatch.setattr(steady, "cosh_profile", count(theta_profiles, steady.cosh_profile))
    base = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=1.0, dt=0.05, output_every=2)
    u0 = const_field(g, 0.5)
    rows, _ = sweep(base, ctrl, u0, u0, [0.0, 0.5, 1.0], [0.3, 1.1])
    assert len(rows) == 6
    assert len(beta_roots) == 2  # one alpha per distinct mu
    assert len(theta_profiles) == 1  # theta only above mu1


def test_sweep_records_cell_failures():
    g = make_grid(1.0, 65)
    base = ModelParams(lam=0.0, mu=0.0, c=1.0, V=saturating_power(1.0))
    # fixed dt far beyond the advective limit: every cell fails positivity
    ctrl = StepControl(t_end=10.0, dt=2.0, output_every=1)
    u0 = const_field(g, 0.9)
    from angiosim.grid import make_field

    v0 = make_field(g, 5.0 * g.nodes)
    rows, reports = sweep(base, ctrl, u0, v0, [0.0], [3.0, 5.0])
    assert all(rep is None for rep in reports)
    assert all(row["verdict"].startswith("error:") for row in rows)
    assert rows[0]["lambda"] == 0.0 and rows[0]["mu"] == 3.0


def test_sweep_rejects_empty_lists():
    g = make_grid(1.0, 65)
    base = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=1.0)
    f = const_field(g, 0.5)
    with pytest.raises(ValueError):
        sweep(base, ctrl, f, f, [], [0.5])


def _solo(u0, v0, p, ctrl, g):
    """The trajectory (or error), sweep row and report of one cell run alone."""
    try:
        traj = run(u0, v0, p, ctrl)
    except SolverError as exc:
        row = {k: "" for k in SWEEP_COLUMNS}
        row.update({"lambda": p.lam, "mu": p.mu, "verdict": f"error: {exc}"})
        return exc, row, None
    report = classify_regime(traj)
    return traj, _sweep_row(report), report


def _assert_same_trajectory(batched, solo):
    assert batched.steps_taken == solo.steps_taken
    assert (batched.dt_min, batched.dt_max) == (solo.dt_min, solo.dt_max)
    assert batched.min_u_overall == solo.min_u_overall
    assert batched.min_v_overall == solo.min_v_overall
    for name, series in solo.diagnostics.items():  # exactly, NaN where solo has NaN
        np.testing.assert_array_equal(batched.series(name), series)
    final, want = batched.final_state(), solo.final_state()
    assert final.t == want.t
    assert np.array_equal(final.u.values, want.u.values)
    assert np.array_equal(final.v.values, want.v.values)


@pytest.mark.parametrize("dt, lams, mus", [
    (0.03, [0.0, 0.5, 1.0], [0.3, 0.6, 0.9, 1.2]),  # 33 steps of 0.03, then 0.01
    (None, [0.0, 0.5, 1.0], [0.3, 0.6, 0.9, 1.2]),
    (0.03, [0.5], [1.2]),
    (None, [0.5], [1.2]),
])
def test_sweep_matches_solo_runs_bitwise(dt, lams, mus):
    # the batch kernel must give each cell exactly what run gives it alone
    g = make_grid(1.0, 65)
    base = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=1.0 if dt else 3.0, dt=dt, output_every=4)
    u0 = make_field(g, 0.5 + 0.1 * np.cos(np.pi * g.nodes))
    v0 = const_field(g, 0.5)
    params = [replace(base, lam=lam, mu=mu) for lam in lams for mu in mus]
    rows, reports = sweep(base, ctrl, u0, v0, lams, mus)
    batched = run_batch(u0, v0, params, ctrl, keep_states=False)
    steps = set()
    for p, row, report, traj in zip(params, rows, reports, batched):
        solo_traj, solo_row, solo_report = _solo(u0, v0, p, ctrl, g)
        assert row == solo_row
        assert report.to_json_dict() == solo_report.to_json_dict()
        _assert_same_trajectory(traj, solo_traj)
        assert len(traj.states) == 1 and traj.times[-1] == ctrl.t_end
        steps.add(traj.steps_taken)
        if dt:
            assert traj.dt_min < dt == traj.dt_max  # the clipped last step
    if dt is None and len(params) > 1:
        assert len(steps) > 1  # cells end on different step counts


def test_fixed_dt_batch_lands_on_t_end_within_the_slack():
    # 3*0.1 is 0.30000000000000004, within END_SLACK of t_end = 0.3: the
    # third step keeps dt = 0.1 and lands on t_end exactly, in the batch
    # as alone
    assert 0.3 < 3 * 0.1 <= 0.3 * (1.0 + dynamics.END_SLACK)
    g = make_grid(1.0, 33)
    ctrl = StepControl(t_end=0.3, dt=0.1, output_every=2)
    u0 = make_field(g, 0.5 + 0.1 * np.cos(np.pi * g.nodes))
    v0 = const_field(g, 0.5)
    base = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    params = [replace(base, lam=lam, mu=mu) for lam, mu in ((0.0, 0.3), (0.5, 1.2), (1.0, 0.9))]
    for p, traj in zip(params, run_batch(u0, v0, params, ctrl)):
        solo = run(u0, v0, p, ctrl)
        _assert_same_trajectory(traj, solo)
        assert traj.steps_taken == 3
        assert traj.dt_min == traj.dt_max == 0.1
        assert traj.final_state().t == 0.3 and traj.times.tolist() == [0.0, 0.2, 0.3]


def test_auto_dt_batch_with_mixed_steps_matches_solo_runs(monkeypatch):
    # At TOL = 1e-4 the columns take different step kinds: the first and
    # last reject a step, the middle one does not, and only the last takes
    # plain reaction-bound steps (its growth lam = 20 makes u large enough
    # for cfl_dt to bound dt). Each still takes exactly its solo path.
    monkeypatch.setattr(dynamics, "TOL", 1e-4)
    g = make_grid(1.0, 65)
    ctrl = StepControl(t_end=2.0, output_every=4)
    u0 = make_field(g, 0.5 + 0.1 * np.cos(np.pi * g.nodes))
    v0 = const_field(g, 0.5)
    base = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    params = [replace(base, lam=lam, mu=mu)
              for lam, mu in ((0.3, 0.8), (0.0, 0.5), (20.0, 5.0))]
    counts = []
    for p, traj in zip(params, run_batch(u0, v0, params, ctrl)):
        solo = run(u0, v0, p, ctrl)
        _assert_same_trajectory(traj, solo)
        assert [s.t for s in traj.states] == [s.t for s in solo.states]
        for state, want in zip(traj.states, solo.states):
            assert np.array_equal(state.u.values, want.u.values)
            assert np.array_equal(state.v.values, want.v.values)
        counts.append((traj.steps_extrapolated, traj.steps_cfl_bound, traj.steps_rejected))
        assert counts[-1] == (solo.steps_extrapolated, solo.steps_cfl_bound,
                              solo.steps_rejected)
    assert [c[2] > 0 for c in counts] == [True, False, True]
    assert [c[1] > 0 for c in counts] == [False, False, True]


@pytest.mark.parametrize("lams", [[0.0, 1e300], [0.0, -60.0, 1e300], [1e300, 0.0, 0.5]])
def test_sweep_isolates_a_failing_cell(lams):
    # lam = 1e300 overflows on the second step, lam = -60 drives u negative
    # on the first; each such cell leaves the batch with the error and
    # partial trajectory of its solo run, and the others run on unchanged,
    # without a numpy warning. When the first cell fails, the survivors
    # move up a column, and their time, lam and c move with them.
    g = make_grid(1.0, 33)
    base = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=1.0, dt=0.05, output_every=1)
    u0 = v0 = const_field(g, 0.5)
    params = [replace(base, lam=lam) for lam in lams]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, reports = sweep(base, ctrl, u0, v0, lams, [0.5])
        batched = run_batch(u0, v0, params, ctrl)
    for p, row, report, result in zip(params, rows, reports, batched):
        solo, solo_row, solo_report = _solo(u0, v0, p, ctrl, g)
        assert row == solo_row
        assert type(result) is type(solo)
        if isinstance(solo, SolverError):
            assert report is None and str(result) == str(solo)
            assert row["verdict"].startswith("error: density")
            _assert_same_trajectory(result.trajectory, solo.trajectory)
        else:
            assert report.to_json_dict() == solo_report.to_json_dict()
            _assert_same_trajectory(result, solo)
    failures = {1e300: SolverError, -60.0: PositivityError}
    assert ([type(r) if isinstance(r, SolverError) else None for r in batched]
            == [failures.get(lam) for lam in lams])


def test_auto_dt_batch_isolates_a_column_whose_v_block_fails(monkeypatch):
    # With mu1 patched to inf the flux slope mu/(1+v_L)^2 goes uncapped.
    # v stays below ATOL, so the slope of the mu = 3 column stays near 3,
    # and its v block turns indefinite once auto dt passes about 0.13, a
    # few steps in. That column leaves the batch with the
    # SpectralShiftError and partial trajectory of its solo run; the
    # columns before and after it run on exactly as alone.
    monkeypatch.setattr(dynamics, "compute_mu1", lambda grid: np.inf)
    g = make_grid(1.0, 33)
    ctrl = StepControl(t_end=3.0, output_every=2)
    u0 = make_field(g, 0.5 + 0.1 * np.cos(np.pi * g.nodes))
    v0 = const_field(g, 1e-20)
    base = ModelParams(lam=0.0, mu=0.3, c=1.0, V=saturating_power(2.0))
    params = [replace(base, lam=lam, mu=mu) for lam, mu in ((0.0, 0.3), (0.0, 3.0), (0.5, 0.6))]
    batched = run_batch(u0, v0, params, ctrl)
    for p, result in zip(params, batched):
        try:
            solo = run(u0, v0, p, ctrl)
        except SolverError as exc:
            solo = exc
        assert type(result) is type(solo)
        if isinstance(solo, SolverError):
            assert str(result) == str(solo)
            _assert_same_trajectory(result.trajectory, solo.trajectory)
        else:
            _assert_same_trajectory(result, solo)
    assert [isinstance(r, SpectralShiftError) for r in batched] == [False, True, False]
    assert 1 < batched[1].trajectory.steps_taken < batched[0].steps_taken


def test_run_batch_checks_its_params(grid65):
    f = const_field(grid65, 0.5)
    params = [ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(s)) for s in (2.0, 3.0)]
    with pytest.raises(ValueError, match="share one sensitivity"):
        run_batch(f, f, params, StepControl(t_end=1.0, dt=0.1))
    with pytest.raises(ValueError, match="at least one"):
        run_batch(f, f, [], StepControl(t_end=1.0, dt=0.1))
