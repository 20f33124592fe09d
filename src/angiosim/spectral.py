"""Principal eigenvalues of -d2/dx2 + a(x) with zero Neumann data on the
vessel end and a Robin row dw/dn = mu*w on the tumor end.

The principal eigenvalue is found by shifted inverse power iteration.
The discrete operator is self-adjoint in the trapezoidal inner product
(the boundary rows carry half-weight cells), so Rayleigh quotients are
taken in that weighting. The flux threshold is the root in mu of the
eigenvalue map, and the decay exponent alpha(mu) is the eigenvalue of
the unit-potential operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .elliptic import assemble, factor, flux_residual
from .errors import (
    EigenPositivityError,
    NonConvergenceError,
    SpectralShiftError,
    ThresholdSearchError,
)
from .grid import Field, Grid1D, const_field, make_field

__all__ = ["EigenResult", "principal_eigen", "alpha_of_mu", "compute_mu1"]

RQ_TOL = 1e-11
RESIDUAL_TOL = 1e-8
MAX_ITER = 10000
MAX_SHIFT_RETRIES = 40
MU1_TOL = 1e-8
MU_BRACKET_CAP = 64.0


@dataclass(frozen=True)
class EigenResult:
    """Principal eigenvalue with its positive, inf-normalized eigenfunction."""

    eigenvalue: float
    eigenfunction: Field
    residual: float
    iterations: int


def _inverse_iteration(grid: Grid1D, a: Field, robin_mu: float,
                       shift: float) -> EigenResult:
    weights = grid.quadrature_weights()
    # One factor per shift serves every iteration. factor refuses a shift
    # not below the principal eigenvalue: W*(A - shift) is not positive definite.
    solve = factor(assemble(grid, make_field(grid, a.values - shift), -robin_mu))
    zero_src = np.zeros(grid.n)
    y = np.full(grid.n, 1.0)
    lam_old = None
    for iteration in range(1, MAX_ITER + 1):
        y = solve(y)
        y = y / np.abs(y).max()
        if y[np.argmax(np.abs(y))] < 0:
            y = -y
        # cancellation-safe matvec: second differences of neighbors, then
        # potential and boundary terms; keeps Rayleigh quotients and
        # residuals at the true floating-point floor
        ay = flux_residual(grid, a, lambda w: robin_mu * w, y, zero_src)
        wy = weights * y
        lam = float(np.dot(wy, ay) / np.dot(wy, y))
        residual = float(np.abs(ay - lam * y).max())
        # demand margin below the reported residual bound, down to the
        # attainable floor ~eps/h^2 of an inf-normalized eigenvector
        residual_goal = max(RESIDUAL_TOL / 5.0, 8.0 * np.finfo(float).eps / (grid.h * grid.h))
        if (
            lam_old is not None
            and abs(lam - lam_old) < RQ_TOL
            and residual <= residual_goal
        ):
            if y.min() < -1e-12:
                raise EigenPositivityError(
                    f"principal eigenfunction has entry {y.min():.3e} < -1e-12"
                )
            return EigenResult(lam, make_field(grid, y), residual, iteration)
        lam_old = lam
    raise NonConvergenceError(
        f"inverse iteration did not converge in {MAX_ITER} iterations",
        residual=residual,
    )


def principal_eigen(grid: Grid1D, a: Field, robin_mu: float) -> EigenResult:
    """Principal eigenvalue/eigenfunction of -d2/dx2 + a with
    dw/dn = robin_mu * w on the tumor end.

    The first shift is s0 = min(0, min a) - 1. A shifted matrix that is
    not positive definite means the shift is not below the principal
    eigenvalue, so the shift moves to s0 - (2**k - 1), k = 1, 2, ... up
    to MAX_SHIFT_RETRIES: the accepted shift is at most about twice as
    far below s0 as the eigenvalue, and that is >= min a - 2*max(robin_mu, 0)/h.
    """
    shift0 = min(0.0, float(a.values.min())) - 1.0
    for retry in range(MAX_SHIFT_RETRIES + 1):
        shift = shift0 - (2.0 ** retry - 1.0)
        try:
            return _inverse_iteration(grid, a, robin_mu, shift)
        except SpectralShiftError as exc:
            last_exc = exc
    raise NonConvergenceError(
        f"inverse iteration failed for all shifts down to {shift:g}: {last_exc}")


@functools.cache
def alpha_of_mu(grid: Grid1D, mu: float) -> float:
    """Decay exponent: principal eigenvalue of -d2/dx2 + 1 with
    dw/dn = mu*w on the tumor end. Positive exactly when mu is below
    the flux threshold. Computed once per (grid, mu) and cached."""
    return principal_eigen(grid, const_field(grid, 1.0), mu).eigenvalue


@functools.cache
def compute_mu1(grid: Grid1D, tol: float = MU1_TOL) -> float:
    """Flux threshold: the root of mu -> alpha_of_mu(grid, mu).

    alpha is strictly decreasing in mu (the Robin term only weakens the
    quadratic form), so bisection on a sign-changing bracket is safe.
    The bracket starts at [0, 1] and doubles its right end if needed.
    The threshold is a pure function of the grid, so it is computed once
    per (grid, tol) and cached.
    """
    lo, hi = 0.0, 1.0
    alpha_lo = alpha_of_mu(grid, lo)
    if alpha_lo <= 0.0:
        raise ThresholdSearchError(
            f"alpha(0) = {alpha_lo:g} <= 0; no positive threshold to find"
        )
    while alpha_of_mu(grid, hi) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > MU_BRACKET_CAP:
            raise ThresholdSearchError(
                f"no sign change in alpha(mu) for mu up to {MU_BRACKET_CAP}"
            )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if alpha_of_mu(grid, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
