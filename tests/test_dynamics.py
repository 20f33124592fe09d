import functools
import math

import numpy as np
import pytest

import angiosim.dynamics
from angiosim.dynamics import (
    DIAG_COLUMNS,
    DT_SAFETY,
    ModelParams,
    SimState,
    StepControl,
    Trajectory,
    boundary_flux_v,
    cfl_dt,
    chemotaxis_divergence,
    run,
    run_batch,
    write_diagnostics_csv,
    write_trajectory_csv,
)
from angiosim.elliptic import banded_rows, dpttrf, dpttrs
from angiosim.errors import PositivityError, SolverError, SpectralShiftError
from angiosim.grid import const_field, l2_norm, make_field, make_grid, trapezoid
from angiosim.harness import fit_decay
from angiosim.sensitivity import SensitivitySpec, saturating_power, truncated_linear
from angiosim.spectral import compute_mu1, cosh_profile
from angiosim.steady import theta_mu


def _batch(u, v, k):
    # run_batch's state of k runs from (u, v): k u columns, then k v columns
    return np.asfortranarray(np.repeat(np.stack((u, v), axis=1), k, axis=1))


def _factors(grid):
    # the block factors of grid, uncached
    return functools.partial(angiosim.dynamics._factor, grid.n, grid.h)


def _auto_advance(grid, cols, y, t, dts):
    # the new batch and errors of an auto-dt advance of the batch y, from
    # its own _state_terms
    dynamics = angiosim.dynamics
    return dynamics._advance(grid, cols, y, t, dts, _factors(grid),
                             dynamics._state_terms(grid, cols, y, dynamics.compute_mu1(grid)))[:2]


def test_model_params_validation(zero_V):
    with pytest.raises(ValueError):
        ModelParams(lam=0.0, mu=0.5, c=-1.0, V=zero_V)
    with pytest.raises(ValueError):
        ModelParams(lam=math.nan, mu=0.5, c=1.0, V=zero_V)
    with pytest.raises(ValueError):
        ModelParams(lam=0.0, mu=-0.5, c=1.0, V=zero_V)  # flux is a source
    ModelParams(lam=0.0, mu=0.5, c=0.0, V=zero_V)  # c = 0 allowed (comparison runs)
    for name in ("lam", "mu", "c"):  # a bool is no number; a report wrote "lambda": true
        with pytest.raises(ValueError, match=name):
            ModelParams(**{"lam": 0.0, "mu": 0.5, "c": 1.0, "V": zero_V, name: True})


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(t_end=0.0)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, dt=-0.1)
    for t_end in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t_end"):
            StepControl(t_end=t_end)  # nan would never end a run
    for dt in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            StepControl(t_end=1.0, dt=dt)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, output_every=0)
    with pytest.raises(ValueError, match="t_end"):
        StepControl(t_end=True)  # a bool is no time
    with pytest.raises(ValueError, match="dt"):
        StepControl(t_end=1.0, dt=True)


@pytest.mark.parametrize("every", [2.5, True, 2.0, "2"])
def test_step_control_takes_only_an_integer_output_every(every):
    # 2.5 used to record every 5th step, and True every step
    with pytest.raises(ValueError, match="output_every"):
        StepControl(t_end=1.0, dt=0.1, output_every=every)


def test_decoupled_logistic_decay(grid65, zero_V):
    # V = 0, lam = 0, mu = 0: u follows u' = -u^2 at every node
    p = ModelParams(lam=0.0, mu=0.0, c=1.0, V=zero_V)
    ctrl = StepControl(t_end=1.0, dt=1e-3)
    traj = run(const_field(grid65, 1.0), const_field(grid65, 1.0), p, ctrl)
    u_final = traj.final_state().u.values
    assert np.abs(u_final - 0.5).max() < 5e-3  # 1/(1+t) at t=1
    # v' = -(1+u) v with u in [0.5, 1]: envelope bounds
    v_final = traj.final_state().v.values
    assert np.all(v_final <= math.exp(-1.0) + 5e-3)
    assert np.all(v_final >= math.exp(-2.0) - 5e-3)


def test_logistic_growth_closed_form(grid65, zero_V):
    lam, u0 = 1.0, 0.5
    p = ModelParams(lam=lam, mu=0.0, c=1.0, V=zero_V)
    ctrl = StepControl(t_end=5.0, dt=1e-3)
    traj = run(const_field(grid65, u0), const_field(grid65, 0.5), p, ctrl)
    exact = lam / (1.0 + ((lam - u0) / u0) * math.exp(-lam * 5.0))
    assert np.abs(traj.final_state().u.values - exact).max() < 5e-3


def test_zero_u_is_invariant(grid65):
    p = ModelParams(lam=0.5, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=0.4, dt=0.01, output_every=1)
    traj = run(const_field(grid65, 0.0), const_field(grid65, 0.5), p, ctrl)
    assert traj.steps_taken == 40
    v_linf = []
    for state in traj.states[1:]:
        assert np.all(state.u.values == 0.0)
        v_linf.append(np.abs(state.v.values).max())
    # mu = 0.5 < threshold: v decays once the boundary layer has formed
    assert all(b < a for a, b in zip(v_linf[5:], v_linf[6:]))
    assert v_linf[-1] < 0.95 * v_linf[0]


def test_zero_v_is_invariant(grid65):
    p = ModelParams(lam=1.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=0.1, dt=0.01, output_every=1)
    traj = run(const_field(grid65, 0.5), const_field(grid65, 0.0), p, ctrl)
    assert traj.steps_taken == 10
    for state in traj.states[1:]:
        assert np.all(state.v.values == 0.0)


def test_cfl_dt_zero_state(grid65, zero_V):
    # The decay -v is implicit, so only the explicit reactions cap dt:
    # DT_SAFETY * 0.5 / max(|lam| + 2*max u, c*max u).
    zero, one = np.zeros(grid65.n), np.ones(grid65.n)
    decay_only = ModelParams(lam=0.0, mu=0.5, c=3.0, V=zero_V)
    assert cfl_dt(zero, decay_only) > 1e20
    shrinking = ModelParams(lam=-3.0, mu=0.5, c=3.0, V=zero_V)
    assert cfl_dt(zero, shrinking) == pytest.approx(
        DT_SAFETY * 0.5 / 3.0, abs=1e-15)
    consuming = ModelParams(lam=0.0, mu=0.5, c=5.0, V=zero_V)
    assert cfl_dt(one, consuming) == pytest.approx(
        DT_SAFETY * 0.1, abs=1e-15)


def test_auto_dt_first_step_from_zero_density_is_bounded(grid65):
    # With u = 0 cfl_dt bounds nothing; the first step takes the
    # controller's start value TOL, rounded down onto the dt ladder.
    p = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    traj = run(const_field(grid65, 0.0), const_field(grid65, 0.5), p,
               StepControl(t_end=1.0, output_every=1))
    tol, rungs = angiosim.dynamics.TOL, angiosim.dynamics.DT_RUNGS
    assert tol * 2.0 ** (-1.0 / rungs) < traj.times[1] <= tol


@pytest.mark.parametrize("dt", [1e-3, 1.0, 1e3])
def test_auto_dt_v_block_caps_the_flux_slope_at_mu1(grid65, dt):
    # At mu = 50 and v_L = 1e-6 the tumor flux slope mu/(1+v_L)^2 is far
    # above mu1. Capped at mu1 the v block factors for every dt, the
    # cosh profile of spectral's beta = 1 is its positive eigenvector of
    # W-eigenvalue 1, so 1 is its smallest, and as an M-matrix it solves
    # nonnegative right-hand sides to nonnegative values.
    n, h = grid65.n, grid65.h
    p = ModelParams(lam=0.0, mu=50.0, c=1.0, V=saturating_power(2.0))
    beta = angiosim.dynamics._flux_slope(compute_mu1(grid65), p, 1e-6)
    assert beta == compute_mu1(grid65)
    d, e = banded_rows(n, h, dt / (h * h), 1.0 + dt, -dt * beta)
    assert dpttrf(d, e)[2] == 0
    w = np.ones(n)
    w[[0, -1]] = 0.5

    def times_block(x):  # W*A x
        ax = d * x
        ax[1:] += e * x[:-1]
        ax[:-1] += e * x[1:]
        return ax

    phi = cosh_profile(grid65, 1.0)
    scale = np.finfo(float).eps * d.max()
    np.testing.assert_allclose(times_block(phi), w * phi, rtol=0.0, atol=16.0 * scale)
    rng = np.random.default_rng(17)
    for b in (np.full(n, 1e-6), rng.uniform(0.0, 1.0, n),
              rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.3)):
        x = b.copy()
        assert not angiosim.dynamics._solve_v_block(grid65, _factors(grid65), dt, beta, b, x)
        assert np.isfinite(x).all() and x.min() >= 0.0
        np.testing.assert_allclose(times_block(x), w * b, rtol=0.0,
                                   atol=16.0 * scale * (1.0 + x.max()))


def test_auto_dt_v_block_that_does_not_factor_fails_its_column(grid65, monkeypatch):
    # an uncapped flux slope of 50 makes the v block of dt = 1 indefinite;
    # the column with mu = 0.5 still steps
    monkeypatch.setattr(angiosim.dynamics, "compute_mu1", lambda grid: np.inf)
    n = grid65.n
    V = saturating_power(2.0)
    params = [ModelParams(lam=0.0, mu=mu, c=1.0, V=V) for mu in (50.0, 0.5)]
    y = _batch(np.zeros(n), np.full(n, 1e-6), 2)
    _, errors = _auto_advance(grid65, angiosim.dynamics._Columns.of(params), y,
                              [0.0, 0.0], [1.0, 1.0])
    assert list(errors) == [0] and isinstance(errors[0], SpectralShiftError)


@pytest.mark.parametrize("n", [3, 65, 257, 8193])
def test_cached_v_factor_with_its_pivot_is_dpttrfs(n, monkeypatch):
    # A column's v factor is the factor of the state-free block of its
    # dt, as a run caches it, with the last pivot set from beta: bitwise
    # dpttrf's factor of the whole block, failing exactly where dpttrf
    # reports its last minor. Uncapped, slopes above mu1 make indefinite
    # blocks too.
    dynamics = angiosim.dynamics
    grid = make_grid(1.0, n)
    h, mu1 = grid.h, compute_mu1(grid)
    V = saturating_power(2.0)
    betas = [0.0, mu1] + [dynamics._flux_slope(np.inf, ModelParams(lam=0.0, mu=mu, c=1.0, V=V), v)
                          for mu in (0.5, 1.2, 50.0) for v in (1e-6, 0.5, 3.0)]
    factors = []
    monkeypatch.setattr(dynamics, "dpttrs", lambda d, e, b, overwrite: factors.append((d, e)))
    k, failed = len(betas), 0
    cached = functools.lru_cache(dynamics.V_FACTORS)(_factors(grid))
    for rung in range(-400, 201):
        dt = 2.0 ** (rung / dynamics.DT_RUNGS)
        factors.clear()
        errors = dynamics._solve_v_block(grid, cached, np.full(k, dt), np.array(betas),
                                         np.zeros((n, k)), np.ones((n, k), order="F"))
        solved = iter(factors)
        for j, beta in enumerate(betas):
            d_ref, e_ref, info = dpttrf(*banded_rows(n, h, dt / (h * h), 1.0 + dt, -dt * beta))
            if info:
                assert info == n and isinstance(errors.get(j), SpectralShiftError)
                failed += 1
            else:
                d, e = next(solved)
                assert j not in errors
                assert d.tobytes() == d_ref.tobytes() and e.tobytes() == e_ref.tobytes()
        assert next(solved, None) is None
    assert 0 < failed < 601 * k


def _count_v_factors(monkeypatch):
    # the dts of the auto-dt v-block solves, and the dpttrf calls, as
    # they are made
    dynamics = angiosim.dynamics
    dts, factored = [], []
    solve_v_block, dpttrf_ = dynamics._solve_v_block, dynamics.dpttrf

    def recorded(grid, factors, dt, *rest):
        dts.append(dt)
        return solve_v_block(grid, factors, dt, *rest)

    def counted(*args):
        factored.append(1)
        return dpttrf_(*args)

    monkeypatch.setattr(dynamics, "_solve_v_block", recorded)
    monkeypatch.setattr(dynamics, "dpttrf", counted)
    return dts, factored


def _auto_dt_run(grid):
    p = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    u0 = make_field(grid, 0.5 + 0.1 * np.cos(np.pi * grid.nodes))
    return run(u0, const_field(grid, 0.5), p, StepControl(t_end=40.0, output_every=1))


def test_auto_dt_run_factors_its_v_block_once_per_dt(grid65, monkeypatch):
    # The ladder puts most steps on a dt already factored: the run calls
    # dpttrf once per distinct dt (31 for 262 v solves, within
    # V_FACTORS), and its results are bitwise those of the same run
    # factoring every v block anew (a cache of V_FACTORS = 0).
    dts, factored = _count_v_factors(monkeypatch)
    cached = _auto_dt_run(grid65)
    solves, distinct = len(dts), len(set(dts))
    assert len(factored) == distinct < solves / 2

    monkeypatch.setattr(angiosim.dynamics, "V_FACTORS", 0)
    factored.clear()
    fresh = _auto_dt_run(grid65)
    assert len(factored) == len(dts) - solves == solves
    for name in DIAG_COLUMNS:
        assert cached.diagnostics[name].tobytes() == fresh.diagnostics[name].tobytes()
    assert len(cached.states) == len(fresh.states)
    for a, b in zip(cached.states, fresh.states):
        assert a.t == b.t
        assert a.u.values.tobytes() == b.u.values.tobytes()
        assert a.v.values.tobytes() == b.v.values.tobytes()
    for name in ("steps_taken", "dt_min", "dt_max", "steps_extrapolated", "steps_cfl_bound",
                 "steps_rejected", "min_u_overall", "min_v_overall"):
        assert getattr(cached, name) == getattr(fresh, name)


def test_auto_dt_runs_do_not_share_factors(grid65, monkeypatch):
    # a run's factors die with it: a second identical run in the same
    # process factors its v block once per distinct dt of its own again
    dts, factored = _count_v_factors(monkeypatch)
    for _ in range(2):
        dts.clear()
        factored.clear()
        _auto_dt_run(grid65)
        assert len(factored) == len(set(dts)) > 0


def test_dt_ladder_rounds_down_to_the_nearest_rung():
    # the floor of DT_RUNGS*log2(x) alone maps 19 of these rungs one rung
    # low, so an exact doubling of a ladder dt fell short of its rung
    rungs, rung = angiosim.dynamics.DT_RUNGS, angiosim.dynamics._rung
    for k in range(-400, 100):
        x = 2.0 ** (k / rungs)
        assert rung(x) == x
        assert rung(2.0 * x) == 2.0 ** ((k + rungs) / rungs)
        assert rung(math.nextafter(x, 0.0)) == 2.0 ** ((k - 1) / rungs)


def test_cfl_dt_reaction_cap_scales(grid65, zero_V):
    p = ModelParams(lam=2.0, mu=0.0, c=1.0, V=zero_V)
    # max(lam + 2, 1 + 1) = 4
    assert cfl_dt(np.ones(grid65.n), p) == pytest.approx(
        DT_SAFETY * 0.125, abs=1e-15)


def _falling_into_tumor(grid, mu, v_tumor):
    # v flat but for one drop into the tumor node, as steep as its boundary flux
    v = np.full(grid.n, v_tumor + grid.h * mu * v_tumor / (1.0 + v_tumor))
    v[-1] = v_tumor
    return v


def _adversarial_states(grid):
    # The first four states sent one explicit upwind stage below zero, to
    # -3.2, -25, -0.70 and -0.63, at a dt bounded by max|V'| * max|v_x|:
    # u past V's inflection point, a V' = 0 plateau and v falling into the
    # tumor node. The rest are random, with zeros in u.
    x = grid.nodes
    kinked = 4.0 * np.maximum(x - 0.5, 0.0)  # flat on [0, 0.5], slope 4 beyond
    yield np.full(grid.n, 3.0), kinked, ModelParams(0.0, 0.0, 1.0, saturating_power(2.0))
    yield np.full(grid.n, 0.5), kinked, ModelParams(0.0, 0.0, 1.0, truncated_linear(0.5))
    for mu, v_tumor in ((1.0, 0.15), (50.0, 0.01)):
        yield (np.ones(grid.n), _falling_into_tumor(grid, mu, v_tumor),
               ModelParams(0.0, mu, 1.0, saturating_power(2.0)))
    rng = np.random.default_rng(15)
    for V in (saturating_power(2.0), saturating_power(1.0), truncated_linear(0.3)):
        for _ in range(50):
            u = rng.uniform(0.0, 4.0, grid.n) * (rng.uniform(size=grid.n) < 0.7)
            v = rng.uniform(0.0, 2.0, grid.n)
            yield u, v, ModelParams(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 50.0),
                                    rng.uniform(0.0, 5.0), V)


@pytest.mark.parametrize("dt", [1e-3, 1.0, 1e3])
def test_u_block_solve_keeps_nonnegative_data_nonnegative(grid65, dt):
    # the implicit chemotaxis makes the u block an M-matrix for every dt
    rng = np.random.default_rng(16)
    for u, v, p in _adversarial_states(grid65):
        terms = angiosim.dynamics._state_terms(grid65, p, np.concatenate((u, v)),
                                               compute_mu1(grid65))
        for b in (u.copy(), rng.uniform(0.0, 1.0, grid65.n) * (u > 0.0)):
            angiosim.dynamics._solve_u_block(grid65, terms, dt, b)
            assert np.isfinite(b).all() and b.min() >= 0.0


def test_u_block_reproduces_the_explicit_upwind_flux_at_the_old_state(grid65):
    # Taken at x = u, the implicit flux (V(u_up)/u_up)*x_up is the explicit
    # V(u_up): the u block maps u to u + dt*(-d2/dx2)u + dt*chemotaxis_divergence,
    # so solving with that right-hand side gives u back
    n, h, dt = grid65.n, grid65.h, 0.1
    d, e = banded_rows(n, h, 1.0 / (h * h), 0.0)  # W*(-d2/dx2)
    w = np.ones(n)
    w[[0, -1]] = 0.5
    for u, v, p in _adversarial_states(grid65):
        laplace = d * u
        laplace[1:] += e * u[:-1]
        laplace[:-1] += e * u[1:]
        div = chemotaxis_divergence(grid65, u, v, p, boundary_flux_v(p, v[-1]))
        b = u + dt * (laplace / w + div)
        terms = angiosim.dynamics._state_terms(grid65, p, np.concatenate((u, v)),
                                               compute_mu1(grid65))
        angiosim.dynamics._solve_u_block(grid65, terms, dt, b)
        np.testing.assert_allclose(b, u, rtol=0.0, atol=1e-12 * (1.0 + u.max()))


def test_auto_dt_advance_at_cfl_dt_stays_nonnegative(grid65):
    for u, v, p in _adversarial_states(grid65):
        dt = cfl_dt(u, p)
        y, errors = _auto_advance(grid65, p, np.concatenate((u, v)), [0.0], [dt])
        assert not errors and y.min() >= 0.0


@pytest.mark.parametrize("n", [65, 257])
@pytest.mark.parametrize("k", [1, 3])
def test_auto_dt_advance_keeps_the_mass_identity(n, k):
    # h*sum(W*(x - u)) = dt*trapz(lam*u - u^2) - dt*(V(u_L)/u_L)*mu*v_L/(1+v_L)*x_L
    # to round-off, which grows with n: the interior faces telescope, and
    # the tumor face carries the new u_L
    g = make_grid(1.0, n)
    x = g.nodes
    u = 0.5 + 0.4 * np.cos(3.0 * x)
    v = 0.2 + x * x
    V = saturating_power(2.0)
    params = [ModelParams(lam=lam, mu=mu, c=2.0, V=V)
              for lam, mu in ((0.7, 1.3), (-0.4, 5.0), (1.5, 0.2))[:k]]
    dts = [0.05, 0.2, 0.05][:k]
    y = np.concatenate((u, v))
    cols = params[0]
    if k > 1:
        y, cols = _batch(u, v, k), angiosim.dynamics._Columns.of(params)
    y_new, errors = _auto_advance(g, cols, y, [0.0] * k, dts)
    assert not errors
    for j, (p, dt) in enumerate(zip(params, dts)):
        x_new = y_new.reshape((n, -1), order="F")[:, j]  # a batch of one is its (n, 2) array
        loss = p.V.V(u[-1]) / u[-1] * boundary_flux_v(p, v[-1]) * x_new[-1]
        change = trapezoid(g.h, x_new) - trapezoid(g.h, u)
        ledger = dt * trapezoid(g.h, p.lam * u - u * u) - dt * loss
        assert abs(change - ledger) <= 4.0 * n * np.finfo(float).eps * trapezoid(g.h, u)


def test_cfl_dt_of_a_batch_is_each_columns_bound(grid65):
    states = list(_adversarial_states(grid65))
    for V in {id(s[2].V): s[2].V for s in states}.values():  # a batch shares its V
        cols = [s for s in states if s[2].V is V][:8]
        u = np.asfortranarray(np.stack([s[0] for s in cols], axis=1))
        v = np.asfortranarray(np.stack([s[1] for s in cols], axis=1))
        batch = cfl_dt(u, angiosim.dynamics._Columns.of([s[2] for s in cols]))
        solo = [cfl_dt(s[0], s[2]) for s in cols]
        assert batch.tolist() == solo


def test_auto_dt_never_calls_v_prime(grid65):
    # the implicit upwind chemotaxis reads V(u)/u, and cfl_dt no V at all
    def no_derivative(s):
        raise AssertionError("V' was called")

    V = SensitivitySpec("no-derivative", saturating_power(2.0).V, no_derivative)
    p = ModelParams(lam=0.3, mu=0.8, c=1.0, V=V)
    assert 0.0 < cfl_dt(np.full(grid65.n, 0.5), p) < np.inf
    traj = run(const_field(grid65, 0.5), const_field(grid65, 0.5), p, StepControl(t_end=1.0))
    assert traj.steps_cfl_bound + traj.steps_extrapolated == traj.steps_taken > 1


def test_auto_dt_run_calls_cfl_dt_once_per_step(grid65, monkeypatch):
    # one bound per step, at its start; no half step is bounded apart
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cfl_dt(*args, **kwargs)

    monkeypatch.setattr(angiosim.dynamics, "cfl_dt", counted)
    p = ModelParams(lam=0.3, mu=0.8, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=1.0, dt=None, output_every=7)
    traj = run(const_field(grid65, 0.5), const_field(grid65, 0.5), p, ctrl)
    assert traj.steps_taken > 1 and traj.steps_extrapolated > 0
    assert len(calls) == traj.steps_taken


def test_rejected_steps_are_retried_and_counted(grid65, monkeypatch):
    # At TOL = 1e-4 the controller's proposal overshoots on this run. A
    # rejected step is retried at dt/2 from the same state, with its cfl
    # bound kept, and only accepted steps are steps.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cfl_dt(*args, **kwargs)

    monkeypatch.setattr(angiosim.dynamics, "TOL", 1e-4)
    monkeypatch.setattr(angiosim.dynamics, "cfl_dt", counted)
    p = ModelParams(lam=0.3, mu=0.8, c=1.0, V=saturating_power(2.0))
    traj = run(const_field(grid65, 0.5), const_field(grid65, 0.5), p,
               StepControl(t_end=3.0, output_every=1))
    assert traj.steps_rejected >= 1
    assert traj.steps_taken == traj.steps_extrapolated + traj.steps_cfl_bound
    assert traj.steps_taken == len(traj.times) - 1 and traj.times[-1] == 3.0
    assert len(calls) == traj.steps_taken
    assert traj.series("min_u").min() >= 0.0 and traj.series("min_v").min() >= 0.0
    assert traj.min_u_overall >= 0.0 and traj.min_v_overall >= 0.0


@pytest.mark.parametrize("u0, growth, deep", [(0.5, -1e3, True), (0.0, -1e-13, False)],
                         ids=["below-hard-limit", "just-below-zero"])
@pytest.mark.parametrize("k", [1, 2])
def test_negative_second_half_step_halves_the_step(grid65, monkeypatch, u0, growth, deep, k):
    # the second half step is judged by its result: poisoned terms at the
    # first midpoint send yh below 0, either below POSITIVITY_HARD_LIMIT
    # (that half step's PositivityError) or just below 0 with an error
    # estimate within 2*TOL (u = 0, so y1's u is 0), and either way the
    # first step is retried at half its dt, alone or in a batch
    dynamics = angiosim.dynamics
    state_terms, extrapolate = dynamics._state_terms, dynamics._extrapolate
    terms_calls, lows = [], []

    def poisoned_at_first_midpoint(*args):
        terms = state_terms(*args)
        terms_calls.append(1)
        if len(terms_calls) == 2:
            return terms._replace(growth=np.full_like(terms.growth, growth))
        return terms

    def seen(y1, yh):
        lows.append(yh.min())
        return extrapolate(y1, yh)

    monkeypatch.setattr(dynamics, "_state_terms", poisoned_at_first_midpoint)
    monkeypatch.setattr(dynamics, "_extrapolate", seen)
    V = saturating_power(2.0)
    params = [ModelParams(lam=0.0, mu=mu, c=1.0, V=V) for mu in (0.5, 1.2)[:k]]
    trajs = run_batch(const_field(grid65, u0), const_field(grid65, 0.5), params,
                      StepControl(t_end=0.1, output_every=1))
    if deep:
        assert lows[0] < dynamics.POSITIVITY_HARD_LIMIT
    else:
        assert dynamics.POSITIVITY_HARD_LIMIT < lows[0] < 0.0
    first = 2.0 ** (math.floor(dynamics.DT_RUNGS * math.log2(dynamics.TOL)) / dynamics.DT_RUNGS)
    for traj in trajs:
        assert traj.steps_rejected == 1
        assert traj.times[1] == first / 2
        assert traj.series("min_u").min() >= 0.0 and traj.series("min_v").min() >= 0.0
        assert traj.min_u_overall >= 0.0 and traj.min_v_overall >= 0.0


def test_negative_extrapolation_takes_the_half_steps(grid65, monkeypatch):
    # u0 vanishes beyond x = 7h. Ahead of that front one implicit step of
    # dt spreads more of u than two of dt/2, so 2*yh - y1 is negative
    # there, and those entries, and only those, take yh.
    seen = []
    original = angiosim.dynamics._extrapolate

    def spy(y1, yh):
        y = original(y1, yh)
        seen.append((y1.copy(), yh.copy(), y.copy()))
        return y

    monkeypatch.setattr(angiosim.dynamics, "_extrapolate", spy)
    u0 = np.where(grid65.nodes < 7.5 * grid65.h, 1.0, 0.0)
    p = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    traj = run(make_field(grid65, u0), const_field(grid65, 0.5), p,
               StepControl(t_end=0.5))
    negative = 0
    for y1, yh, y in seen:
        plain = 2.0 * yh - y1
        below = plain < 0.0
        negative += int(below.sum())
        np.testing.assert_array_equal(y, np.where(below, yh, plain))
        assert y.min() >= 0.0
    assert negative > 0
    assert traj.min_u_overall >= 0.0 and traj.min_v_overall >= 0.0


@pytest.mark.parametrize("t_end, factors", [(1.0, 1), (1.05, 2)])
def test_fixed_dt_run_factors_once_per_dt(grid65, monkeypatch, t_end, factors):
    # dt = 1/8 keeps every t exact: t_end = 1 takes 8 full steps, while
    # t_end = 1.05 clips the last step to 0.05 and needs its own factor
    calls = []
    original = angiosim.dynamics._factor

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(angiosim.dynamics, "_factor", counted)
    p = ModelParams(lam=0.3, mu=0.8, c=1.0, V=saturating_power(2.0))
    traj = run(const_field(grid65, 0.5), const_field(grid65, 0.5), p,
               StepControl(t_end=t_end, dt=0.125))
    assert traj.steps_taken == 8 + (factors - 1)
    assert len(calls) == 2 * factors  # one factor per block


def test_step_factor_matches_per_block_solves(grid65):
    # the fixed-dt solve of an (n, 2k) state with the read-only factors of
    # _factor, each block's k columns at once and in place, has the bits
    # of each column's solo solve with a fresh dpttrf factor; so has a
    # batch of one's (2n,) vector
    n, h, dt = grid65.n, grid65.h, 0.3
    r = dt / (h * h)
    rng = np.random.default_rng(0)
    for k in (1, 3):
        rhs = np.asfortranarray(rng.random((n, 2 * k)))
        rhs[[0, -1]] *= 0.5  # W*b
        y = rhs.copy(order="F")
        blocks = angiosim.dynamics._blocks(y if k > 1 else y.ravel(order="F"), n)
        for diag, block in zip((1.0, 1.0 + dt), blocks):
            assert dpttrs(*angiosim.dynamics._factor(n, h, dt, diag), block, True)[0] is block
        for j in range(2 * k):
            d, e, _ = dpttrf(*banded_rows(n, h, r, 1.0 if j < k else 1.0 + dt))
            alone = dpttrs(d, e, rhs[:, j].copy())[0]
            assert y[:, j].tobytes() == alone.tobytes()


def test_fixed_dt_run_ends_on_t_end():
    # 1000 additions of 0.01 fall short of 10; times are k*dt instead
    g = make_grid(1.0, 33)
    p = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    traj = run(const_field(g, 0.5), const_field(g, 0.5), p,
               StepControl(t_end=10.0, dt=0.01, output_every=100))
    assert traj.times[-1] == 10.0
    assert traj.steps_taken == 1000
    assert traj.dt_min == traj.dt_max == 0.01


@pytest.mark.parametrize("lam", [-10.0, -50.0])
def test_negative_lam_auto_dt_stays_nonnegative(grid65, lam):
    # the reaction cap must bound |lam|: a shrinking population drains u
    # explicitly just as fast as a growing one feeds it
    p = ModelParams(lam=lam, mu=0.5, c=1.0, V=saturating_power(2.0))
    traj = run(const_field(grid65, 0.5), const_field(grid65, 0.5), p,
               StepControl(t_end=2.0))
    assert traj.times[-1] == 2.0
    assert traj.min_u_overall >= 0.0
    assert traj.min_v_overall >= 0.0


@pytest.mark.parametrize("u0", [0.5, 0.0])
def test_auto_dt_decay_rate_matches_fixed_dt(u0):
    # The fitted v-decay rate of an auto-dt run stays within 3% of a fine
    # fixed-dt run: the accuracy bound lets dt grow beyond the decay cap
    # only once u and v change little per step. Under the stability
    # bounds alone dt grows so fast that the fit window holds only 5
    # steps, and with u = 0 nothing bounds dt at all.
    g = make_grid(1.0, 129)
    p = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    rates = []
    for dt in (None, 0.005):
        traj = run(const_field(g, u0), const_field(g, 0.5), p,
                   StepControl(t_end=40.0, dt=dt, output_every=1))
        rates.append(fit_decay(traj.times, traj.series("linf_v"), (20.0, 36.0)).rate)
        if dt is None:
            # the linearly implicit tumor flux: 89 and 94 steps, 239 and 221 if explicit
            assert traj.steps_taken <= 120
    assert rates[0] == pytest.approx(rates[1], rel=0.03)


def test_run_rejects_bad_initial_data(grid65):
    p = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=1.0, dt=0.01)
    neg = make_field(grid65, np.full(grid65.n, -0.1) * -1)  # positive; now break it
    bad = np.full(grid65.n, 0.5)
    bad[3] = -0.2
    with pytest.raises(ValueError):
        run(make_field(grid65, bad), neg, p, ctrl)
    other = make_grid(1.0, 33)
    with pytest.raises(ValueError):
        run(const_field(other, 0.5), const_field(grid65, 0.5), p, ctrl)


def test_positivity_error_on_reckless_dt():
    g = make_grid(1.0, 65)
    p = ModelParams(lam=0.0, mu=0.0, c=1.0, V=saturating_power(1.0))
    u = np.zeros(g.n)
    u[10] = 1.0  # isolated spike
    v = make_field(g, 5.0 * g.nodes)  # steep attractant gradient
    ctrl = StepControl(t_end=10.0, dt=0.5)
    with pytest.raises(PositivityError) as exc_info:
        run(make_field(g, u), v, p, ctrl)
    assert exc_info.value.trajectory is not None
    assert exc_info.value.min_value < -1e-9


def test_non_finite_step_raises_solver_error():
    # lam = 1e300 overflows the explicit logistic term on the second step;
    # the step must fail as a SolverError, not as an input-check ValueError.
    g = make_grid(1.0, 33)
    p = ModelParams(lam=1e300, mu=0.5, c=1.0, V=saturating_power(2.0))
    with np.errstate(all="ignore"), pytest.raises(SolverError) as exc_info:
        run(const_field(g, 0.5), const_field(g, 0.5), p, StepControl(t_end=0.1, dt=0.01))
    assert exc_info.value.trajectory is not None


@pytest.mark.parametrize(
    "n, mu, dt, t_end",
    [(33, 50.0, None, 1.0), (257, 50.0, None, 0.3), (33, 5.0, 0.3, 3.0), (33, 3.0, 0.6, 3.0)],
)
def test_tiny_attractant_large_flux_stays_nonnegative(n, mu, dt, t_end):
    # A lagged Robin row -2*dt*mu/(1+v(L))/h in the v matrix drove v
    # negative on the first step here; the explicit boundary source cannot.
    g = make_grid(1.0, n)
    p = ModelParams(lam=0.0, mu=mu, c=1.0, V=saturating_power(2.0))
    traj = run(const_field(g, 0.5), const_field(g, 1e-6), p,
               StepControl(t_end=t_end, dt=dt))
    assert traj.times[-1] == pytest.approx(t_end, abs=1e-12)
    assert traj.min_u_overall >= 0.0
    assert traj.min_v_overall >= 0.0


@pytest.mark.parametrize("dt", [0.05, 1.0, 100.0])
def test_theta_is_fixed_point_of_the_step(grid65, dt):
    # The boundary source (2*dt/h)*mu*v/(1+v) makes the step's fixed point
    # the discrete steady profile of the banded_rows operator with the
    # nonlinear tumor row, which theta_mu solves exactly, for any dt. An
    # auto-dt advance adds beta*(x_L - v_L) to that flux, which vanishes
    # at x = v, so theta_mu is its fixed point too.
    theta = theta_mu(grid65, 1.2)
    p = ModelParams(lam=0.0, mu=1.2, c=1.0, V=saturating_power(2.0))
    traj = run(const_field(grid65, 0.0), theta, p, StepControl(t_end=5.0, dt=dt))
    assert traj.times[-1] == pytest.approx(5.0, abs=1e-12)
    assert np.abs(traj.final_state().v.values - theta.values).max() <= 1e-10
    n = grid65.n
    y, errors = _auto_advance(grid65, p, np.concatenate((np.zeros(n), theta.values)),
                              [0.0], [dt])
    assert not errors and np.all(y[:n] == 0.0)
    assert np.abs(y[n:] - theta.values).max() <= 1e-10


def test_auto_dt_stays_on_theta(grid65):
    # the full step and both half steps fix theta_mu, and so does their
    # extrapolation; with u = 0 every step is accuracy-bound, and the
    # error estimate is round-off, so dt doubles each step. Extrapolation
    # scales the round-off by up to 3: 1.8e-13 here, 2.3e-13 over 2000
    # fixed steps of 0.05.
    theta = theta_mu(grid65, 1.2)
    p = ModelParams(lam=0.0, mu=1.2, c=1.0, V=saturating_power(2.0))
    traj = run(const_field(grid65, 0.0), theta, p, StepControl(t_end=100.0, output_every=1))
    assert traj.times[-1] == 100.0
    assert traj.steps_extrapolated == traj.steps_taken < 20
    assert traj.steps_rejected == traj.steps_cfl_bound == 0
    for state in traj.states:
        assert np.all(state.u.values == 0.0)
        assert np.abs(state.v.values - theta.values).max() <= 1e-12


@pytest.mark.parametrize("mu, extrapolated, reaction_bound", [(0.5, 132, 6), (1.2, 41, 0)])
def test_auto_dt_evaluates_each_state_once(grid65, mu, extrapolated, reaction_bound):
    # V runs on arrays once per state a step starts from: an extrapolated
    # step's full and first half steps share y's terms, so it evaluates y
    # and its midpoint; a reaction-bound step evaluates y alone
    base = saturating_power(2.0)
    calls = []

    def counted(s):
        if np.ndim(s):  # _record's tumor V(u_L) is a scalar call
            calls.append(1)
        return base.V(s)

    V = SensitivitySpec(base.family, counted, base.V_prime, base.params)
    traj = run(const_field(grid65, 0.5), const_field(grid65, 0.5),
               ModelParams(lam=0.0, mu=mu, c=1.0, V=V), StepControl(t_end=100.0))
    assert (traj.steps_extrapolated, traj.steps_cfl_bound) == (extrapolated, reaction_bound)
    assert traj.steps_rejected == 0
    assert len(calls) == 2 * extrapolated + reaction_bound


@pytest.mark.parametrize("k", [1, 3])
def test_fixed_dt_evaluates_the_tumor_flux_once_per_step(grid65, monkeypatch, k):
    # a fixed-dt step evaluates f(v_L) once, for the chemotaxis's tumor
    # face and v's source alike; each _record call evaluates it once more
    calls = []

    def counted(p, v_boundary):
        calls.append(1)
        return boundary_flux_v(p, v_boundary)

    monkeypatch.setattr(angiosim.dynamics, "boundary_flux_v", counted)
    V = saturating_power(2.0)
    params = [ModelParams(lam=lam, mu=1.2, c=1.0, V=V) for lam in (0.0, 0.5, 1.0)[:k]]
    ctrl = StepControl(t_end=1.0, dt=0.03, output_every=4)
    trajs = run_batch(const_field(grid65, 0.5), const_field(grid65, 0.5), params, ctrl)
    steps, records = trajs[0].steps_taken, len(trajs[0].times)
    assert (steps, records) == (34, 10)  # 33 steps of 0.03, one of 0.01
    assert len(calls) == steps + records


def test_snapshot_schedule_and_diagnostics(grid65):
    p = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=0.5, dt=0.01, output_every=10)
    traj = run(const_field(grid65, 0.5), const_field(grid65, 0.5), p, ctrl)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(np.diff(traj.times), 0.1, atol=1e-9)
    for key in ("mass_u", "linf_v", "min_u", "boundary_flux_v", "chem_boundary_flux"):
        assert len(traj.diagnostics[key]) == len(traj.states)
    assert traj.min_u_overall >= -1e-12
    assert traj.min_v_overall >= -1e-12


def test_nonnegativity_with_auto_dt(grid257):
    p = ModelParams(lam=0.0, mu=1.2, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=5.0, dt=None, output_every=50)
    traj = run(const_field(grid257, 0.5), const_field(grid257, 0.5), p, ctrl)
    assert traj.min_u_overall >= -1e-12
    assert traj.min_v_overall >= -1e-12


def test_mass_bookkeeping_closes(grid257):
    # lam = 0: mass change equals boundary term plus quadratic absorption
    from angiosim.harness import mass_audit

    p = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=5.0, dt=0.002, output_every=50)
    traj = run(const_field(grid257, 0.5), const_field(grid257, 0.5), p, ctrl)
    audit = mass_audit(traj, tau=1.0)
    h = grid257.h
    tol = 10.0 * (0.002 + h * h) * (audit.t_end - audit.tau) * audit.scale
    assert audit.residual < tol


def test_supersolution_domination_small(grid65):
    base = dict(lam=0.0, mu=0.5, V=saturating_power(2.0))
    ctrl = StepControl(t_end=5.0, dt=0.005, output_every=20)
    u0 = const_field(grid65, 0.5)
    v0 = const_field(grid65, 0.5)
    coupled = run(u0, v0, ModelParams(c=1.0, **base), ctrl)
    twin = run(u0, v0, ModelParams(c=0.0, **base), ctrl)
    assert len(coupled.states) == len(twin.states)
    worst = max(
        float((s.v.values - w.v.values).max())
        for s, w in zip(coupled.states, twin.states)
    )
    assert worst <= 1e-8


def test_two_resolution_consistency():
    p = ModelParams(lam=1.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    finals = []
    for n, dt in ((129, 0.01), (257, 0.005)):
        g = make_grid(1.0, n)
        ctrl = StepControl(t_end=10.0, dt=dt, output_every=100)
        traj = run(const_field(g, 0.5), const_field(g, 0.5), p, ctrl)
        finals.append(
            (traj.series("linf_u")[-1], traj.series("linf_v")[-1])
        )
    assert abs(finals[0][0] - finals[1][0]) < 1e-3
    assert abs(finals[0][1] - finals[1][1]) < 1e-3


def test_run_determinism(grid65):
    p = ModelParams(lam=0.3, mu=0.8, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=1.0, dt=None, output_every=7)
    a = run(const_field(grid65, 0.5), const_field(grid65, 0.5), p, ctrl)
    b = run(const_field(grid65, 0.5), const_field(grid65, 0.5), p, ctrl)
    assert np.array_equal(a.final_state().u.values, b.final_state().u.values)
    assert np.array_equal(a.final_state().v.values, b.final_state().v.values)
    assert list(a.times) == list(b.times)


def test_trajectory_csv_writers(grid65, tmp_path):
    p = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=0.2, dt=0.01, output_every=10)
    traj = run(const_field(grid65, 0.5), const_field(grid65, 0.5), p, ctrl)
    tpath = tmp_path / "trajectory.csv"
    with open(tpath, "w", newline="") as fh:
        write_trajectory_csv(traj, fh)
    lines = tpath.read_text().splitlines()
    assert lines[0] == "t,x,u,v"
    assert len(lines) == 1 + len(traj.states) * grid65.n
    dpath = tmp_path / "diag.csv"
    with open(dpath, "w", newline="") as fh:
        write_diagnostics_csv(traj, fh)
    dlines = dpath.read_text().splitlines()
    assert dlines[0] == "t,mass_u,mass_v,linf_u,linf_v,l2_v_minus_theta,boundary_flux_v"
    assert len(dlines) == 1 + len(traj.states)


def test_diagnostics_csv_needs_every_state(tmp_path):
    # a keep_states=False trajectory holds 1 state for 6 diagnostics rows;
    # pairing them would write t=0 beside the final state's distance
    grid = make_grid(1.0, 33)
    p = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    ctrl = StepControl(t_end=1.0, dt=0.1, output_every=2)
    u0, v0 = const_field(grid, 0.5), const_field(grid, 0.5)
    (lean,) = run_batch(u0, v0, [p], ctrl, keep_states=False)
    assert (len(lean.states), len(lean.times)) == (1, 6)
    with open(tmp_path / "lean.csv", "w", newline="") as fh:
        with pytest.raises(ValueError, match="1 states for 6 diagnostics rows"):
            write_diagnostics_csv(lean, fh)
    (full,) = run_batch(u0, v0, [p], ctrl)
    with open(tmp_path / "full.csv", "w", newline="") as fh:
        write_diagnostics_csv(full, fh)
    rows = (tmp_path / "full.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    t, *_, l2_v, _ = map(float, rows[0].split(","))
    assert t == 0.0 and l2_v == pytest.approx(0.5, rel=1e-12)


def test_diagnostics_csv_measures_against_the_runs_theta(tmp_path):
    # above mu1 the writer finds theta_mu(grid, mu) of the run itself
    grid = make_grid(1.0, 33)
    p = ModelParams(lam=0.0, mu=1.2, c=1.0, V=saturating_power(2.0))
    u0, v0 = const_field(grid, 0.5), const_field(grid, 0.5)
    traj = run(u0, v0, p, StepControl(t_end=0.2, dt=0.05, output_every=2))
    with open(tmp_path / "diag.csv", "w", newline="") as fh:
        write_diagnostics_csv(traj, fh)
    first = (tmp_path / "diag.csv").read_text().splitlines()[1].split(",")
    want = l2_norm(grid.h, v0.values - theta_mu(grid, 1.2).values)
    assert float(first[0]) == 0.0 and float(first[5]) == want


def test_trajectory_csv_bytes_match_reference(tmp_path):
    # reference: the per-value float()/repr formulation of the writer
    g = make_grid(0.3, 4)
    p = ModelParams(lam=0.0, mu=0.5, c=1.0, V=saturating_power(2.0))
    traj = Trajectory(grid=g, params=p, ctrl=StepControl(t_end=1.0))
    for t, u, v in [
        (0.0, [0.1, 1e-300, 5e-324, 3.0], [2.0, 0.1 + 0.2, 1e300, 0.0]),
        (np.float64(0.1) * 3, [1.0, 1e16, 2.5e-308, 7.0], [0.1, 5e-324, 1e-300, 12.0]),
    ]:
        traj.states.append(SimState(t, make_field(g, u), make_field(g, v)))
    expected = "t,x,u,v\n" + "".join(
        f"{float(s.t)!r},{float(x)!r},{float(uu)!r},{float(vv)!r}\n"
        for s in traj.states
        for x, uu, vv in zip(g.nodes, s.u.values, s.v.values)
    )
    path = tmp_path / "trajectory.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_trajectory_csv(traj, fh)
    assert path.read_bytes() == expected.encode("utf-8")


def test_chemotaxis_divergence_upwinds_ties_to_the_right():
    # a face takes u[i] where v rises across it and u[i+1] otherwise,
    # ties (dv == 0) included; the tumor node takes u[-1]
    seen = []

    def spy(s):
        seen.append(np.array(s))
        return np.asarray(s, dtype=float)

    g = make_grid(1.0, 9)
    p = ModelParams(lam=0.0, mu=0.5, c=1.0, V=SensitivitySpec("spy", spy, spy))
    u = np.arange(1.0, 10.0)
    v = np.array([0.0, 1.0, 1.0, 0.5, 0.5, 2.0, 2.0, 2.0, 3.0])  # up tie down tie up tie tie up
    chemotaxis_divergence(g, u, v, p, boundary_flux_v(p, v[-1]))
    assert seen[0].tolist() == [1.0, 3.0, 4.0, 5.0, 5.0, 7.0, 8.0, 8.0, 9.0]


def test_chemotaxis_divergence_of_a_batch_is_per_column(grid65):
    n = grid65.n
    V = saturating_power(2.0)
    params = [ModelParams(lam=lam, mu=mu, c=1.0, V=V)
              for lam, mu in ((0.0, 0.3), (0.5, 1.2), (1.0, 0.8))]
    rng = np.random.default_rng(2)
    cols = angiosim.dynamics._Columns.of(params)
    for seams in (None, (0.9, 0.1, 0.4, 0.4)):
        y = np.asfortranarray(rng.random((n, 6)))  # u, u, u, v, v, v
        y[10:20, 3:] = 0.25  # tied faces
        if seams:  # a falling face from column 0 into 1, and a tied one from 1 into 2
            y[-1, 3], y[0, 4], y[-1, 4], y[0, 5] = seams
        batch = chemotaxis_divergence(grid65, y[:, :3], y[:, 3:], cols,
                                      boundary_flux_v(cols, y[-1, 3:]))
        for j, p in enumerate(params):
            alone = chemotaxis_divergence(grid65, y[:, j].copy(), y[:, 3 + j].copy(), p,
                                          boundary_flux_v(p, y[-1, 3 + j]))
            assert batch[:, j].tobytes() == alone.tobytes()


def test_batches_compare_and_hash_by_identity():
    # comparing their lam, mu and c arrays would raise: a batch equals only itself
    V = saturating_power(2.0)
    params = [ModelParams(lam=lam, mu=0.5, c=1.0, V=V) for lam in (0.0, 1.0)]
    a, b = angiosim.dynamics._Columns.of(params), angiosim.dynamics._Columns.of(params)
    assert a == a and a != b and len({a, b, a}) == 2
    assert hash(a) == object.__hash__(a)


def test_chemotaxis_divergence_telescopes_to_the_tumor_flux(grid65):
    # the trapezoid-weighted sum of the divergence leaves only the tumor
    # face term V(u_L)*mu*v_L/(1+v_L): the discrete mass balance of u
    rng = np.random.default_rng(3)
    u, v = rng.random(grid65.n), rng.random(grid65.n)
    p = ModelParams(lam=0.0, mu=1.2, c=1.0, V=saturating_power(2.0))
    w = np.full(grid65.n, grid65.h)  # the trapezoid weights
    w[0] = w[-1] = 0.5 * grid65.h
    terms = w * chemotaxis_divergence(grid65, u, v, p, boundary_flux_v(p, v[-1]))
    tumor = float(p.V.V(u[-1])) * p.mu * v[-1] / (1.0 + v[-1])
    assert terms.sum() == pytest.approx(tumor, rel=0.0, abs=1e-14 * np.abs(terms).sum())


def _reference_row(p: ModelParams, state: SimState) -> list:
    h, u, v = state.u.grid.h, state.u.values, state.v.values
    flux = float(boundary_flux_v(p, v[-1]))
    return [state.t, trapezoid(h, u), trapezoid(h, v), float(np.abs(u).max()),
            float(np.abs(v).max()), l2_norm(h, u), l2_norm(h, u - p.lam),
            float(u.min()), float(v.min()), flux, float(p.V.V(u[-1])) * flux]


def test_batched_record_matches_per_column_reference(grid65):
    # every diagnostics value of a batch, and of a batch of one, equals
    # its per-column reference bit for bit. u0's tumor value is one where
    # numpy's array V rounds differently from the scalar V, at the array
    # lengths of both batches, where the host's numpy has such a value.
    V = saturating_power(2.0)
    xs = np.random.default_rng(1).random(5000) * 2.0
    differ = [x for x in xs
              if float(V.V(x)) not in (V.V(np.array([x]))[0], V.V(np.full(3, x))[0])]
    u0 = 0.5 + 0.1 * np.cos(np.pi * grid65.nodes)
    u0[-1] = differ[0] if differ else u0[-1]
    params = [ModelParams(lam=lam, mu=mu, c=1.0, V=V)
              for lam, mu in ((0.0, 0.3), (0.5, 1.2), (1.0, 0.8))]
    # auto dt: the columns reach t_end at different steps, so some rows
    # are recorded off the output_every schedule, for a subset of columns
    ctrl = StepControl(t_end=0.5, output_every=3)
    f0, v0 = make_field(grid65, u0), const_field(grid65, 0.5)
    trajs = run_batch(f0, v0, params, ctrl) + [run(f0, v0, params[1], ctrl)]
    assert len({traj.steps_taken for traj in trajs}) > 1
    for traj in trajs:
        assert traj.states[0].u.values[-1] == u0[-1]
        assert len(traj.states) == len(traj.times) > 2
        for i, state in enumerate(traj.states):
            row = [traj.diagnostics[name][i] for name in DIAG_COLUMNS]
            assert list(map(float.hex, row)) == list(map(float.hex, _reference_row(traj.params, state)))
