"""The positive steady attractant profile theta_mu.

Once the boundary flux strength mu exceeds the threshold mu1, the
attractant-dominant limit (0, theta_mu) exists, where theta_mu is the
positive solution of

    -theta'' + theta = 0,  theta'(0) = 0,  theta'(L) = mu*theta/(1+theta).

On an interval that problem has the closed form
theta(x) = A cosh(x) / cosh(L) with A = mu/tanh(L) - 1, which serves
both as the Newton starting point and as an independent oracle. The
other limit, the density-dominant constant state (lam, 0), needs no
solver.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .elliptic import solve_nonlinear_bvp
from .errors import BelowThresholdError, SolverError
from .grid import Field, Grid1D, const_field, make_field
from .spectral import compute_mu1

__all__ = ["theta_closed_form", "theta_mu"]


def theta_closed_form(grid: Grid1D, mu: float) -> Field:
    """Interval solution A*cosh(x)/cosh(L), A = mu/tanh(L) - 1.

    Positive only above the threshold tanh(L); below it the returned
    profile is negative and useful solely as a reference.
    """
    amplitude = mu / math.tanh(grid.L) - 1.0
    return make_field(grid, amplitude * np.cosh(grid.nodes) / math.cosh(grid.L))


@functools.cache
def theta_mu(grid: Grid1D, mu: float) -> Field:
    """Positive steady attractant profile for mu above the threshold.

    Raises BelowThresholdError when mu <= mu1(grid): there the only
    nonnegative steady solution is zero, and callers must be able to
    tell "no positive state exists" apart from a solver failure.
    The profile is a pure function of (grid, mu), so it is solved once
    per (grid, mu) and cached.
    """
    mu1 = compute_mu1(grid)
    if mu <= mu1:
        raise BelowThresholdError(
            f"mu = {mu:g} is at or below the flux threshold mu1 = {mu1:.8f}; "
            "no positive steady profile exists"
        )
    guess = theta_closed_form(grid, mu)
    if guess.values.min() <= 0.0:
        # mu sits between the discrete threshold and tanh(L); fall back
        # to a small positive constant so Newton starts on the right branch
        guess = const_field(grid, max(mu / math.tanh(grid.L) - 1.0, 0.1))
    theta = solve_nonlinear_bvp(
        grid,
        a=const_field(grid, 1.0),
        g=lambda w: mu * w / (1.0 + w),
        g_prime=lambda w: mu / (1.0 + w) ** 2,
        source=const_field(grid, 0.0),
        w0=guess,
    )
    if theta.values.min() <= 0.0:
        raise SolverError(
            f"Newton converged to a non-positive profile for mu = {mu:g}"
        )
    return theta

