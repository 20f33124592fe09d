import math

import numpy as np
import pytest

from angiosim.errors import BelowThresholdError
from angiosim.grid import make_grid
from angiosim.spectral import compute_mu1
from angiosim.steady import theta_mu


def closed_form(grid, mu):
    amp = mu / math.tanh(grid.L) - 1.0
    return amp * np.cosh(grid.nodes) / math.cosh(grid.L)


def steady_residual(grid, mu, theta):
    """-theta'' + theta with a mirror row at the vessel end and the
    nonlinear flux dtheta/dn = mu*theta/(1+theta) at the tumor end, from
    the stencil with ghost nodes, second differences of neighbors first."""
    flux = mu * theta[-1] / (1.0 + theta[-1])
    ghost = np.concatenate(([theta[1]], theta, [theta[-2] + 2.0 * grid.h * flux]))
    return ((theta - ghost[:-2]) + (theta - ghost[2:])) / (grid.h * grid.h) + theta


@pytest.mark.parametrize("n", [65, 257, 1025, 8193])
@pytest.mark.parametrize("mu", [0.77, 1.2, 3.0])
def test_theta_mu_solves_the_discrete_rows(n, mu):
    # interior rows, the vessel row and the nonlinear tumor row all hold
    # to the round-off of second differences: entries rounded by about
    # 2 ulp give up to 4*(2*eps*|theta|)/h^2; the worst case here is 0.46 of it
    g = make_grid(1.0, n)
    theta = theta_mu(g, mu).values
    scale = 8.0 * np.finfo(float).eps * np.abs(theta).max() / (g.h * g.h)
    assert np.abs(steady_residual(g, mu, theta)).max() <= scale


def test_theta_mu_matches_closed_form_mu1(grid1025):
    theta = theta_mu(grid1025, 1.0)
    assert theta.values[-1] == pytest.approx(1.0 / math.tanh(1.0) - 1.0, abs=1e-4)
    assert np.abs(theta.values - closed_form(grid1025, 1.0)).max() < 1e-4


def test_theta_mu_matches_closed_form_mu2(grid257):
    theta = theta_mu(grid257, 2.0)
    assert theta.values[-1] == pytest.approx(2.0 / math.tanh(1.0) - 1.0, abs=1e-4)
    # 2/tanh(1) - 1 = 1.62607...
    assert theta.values[-1] == pytest.approx(1.62607, abs=1e-4)


def test_theta_mu_near_threshold(grid1025):
    mu = math.tanh(1.0) + 1e-3
    theta = theta_mu(grid1025, mu)
    assert theta.values.min() > 0.0
    assert np.abs(theta.values).max() == pytest.approx(theta.values[-1], abs=1e-12)
    assert theta.values[-1] == pytest.approx(1e-3 / math.tanh(1.0), abs=1e-4)


def test_theta_mu_below_threshold_raises(grid257):
    with pytest.raises(BelowThresholdError):
        theta_mu(grid257, 0.5)
    with pytest.raises(BelowThresholdError):
        theta_mu(grid257, compute_mu1(grid257))


def test_theta_mu_closed_form_tolerance_scales_with_h():
    for n in (129, 257, 513):
        g = make_grid(1.0, n)
        theta = theta_mu(g, 1.5)
        err = np.abs(theta.values - closed_form(g, 1.5)).max()
        assert err < max(1e-4, 5.0 * g.h**2)


def test_theta_mu_monotone_in_mu(grid257):
    profiles = [theta_mu(grid257, mu).values for mu in (0.9, 1.0, 1.5, 2.0)]
    for lo, hi in zip(profiles, profiles[1:]):
        assert np.all(hi > lo)


def test_theta_profile_increasing_with_max_at_tumor_boundary(grid257):
    theta = theta_mu(grid257, 1.2).values
    assert np.all(np.diff(theta) > 0)
    assert theta.max() == theta[-1]
