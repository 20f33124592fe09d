"""The positive steady attractant profile theta_mu.

Once the boundary flux strength mu exceeds the threshold mu1, the
attractant-dominant limit (0, theta_mu) exists, where theta_mu is the
positive solution of

    -theta'' + theta = 0,  theta'(0) = 0,  theta'(L) = mu*theta/(1+theta).

The discrete problem has an exact solution. Every row but the tumor row
is linear, so theta is a multiple A of the beta = 1 profile
cosh(i*kappa1)/cosh(N*kappa1) of spectral.cosh_profile, and for that
profile the linear tumor row holds with flux mu1 = compute_mu1(grid).
The nonlinear row, whose flux is mu*A/(1 + A) at the tumor-end value
A, then asks mu1 = mu/(1 + A), so A = mu/mu1 - 1. No Newton iteration
is needed. The other limit, the density-dominant constant state
(lam, 0), needs no solver.
"""

from __future__ import annotations

import functools

from .errors import BelowThresholdError
from .grid import Field, Grid1D, make_field
from .spectral import compute_mu1, cosh_profile

__all__ = ["theta_mu"]


@functools.cache
def theta_mu(grid: Grid1D, mu: float) -> Field:
    """Positive steady attractant profile for mu above the threshold.

    Raises BelowThresholdError when mu <= mu1(grid): there the only
    nonnegative steady solution is zero, and callers must be able to
    tell "no positive state exists" apart from a solver failure.
    The profile is a pure function of (grid, mu), cached.
    """
    mu1 = compute_mu1(grid)
    if mu <= mu1:
        raise BelowThresholdError(
            f"mu = {mu:g} is at or below the flux threshold mu1 = {mu1:.8f}; "
            "no positive steady profile exists"
        )
    return make_field(grid, (mu / mu1 - 1.0) * cosh_profile(grid, 1.0))
