"""Principal eigenvalues of -d2/dx2 + a with zero Neumann data on the
vessel end and a Robin row dw/dn = mu*w on the tumor end.

The laboratory poses this problem only for a constant potential on a
uniform grid, and there the discrete operator of elliptic.banded_rows
has an exact principal eigenfunction. Write its eigenvalue as a - beta.
For beta >= 0 it is w_i = cosh(i*kappa) with sinh(kappa/2) = h*sqrt(beta)/2:
every interior row and the mirrored vessel row hold identically, and
the tumor row holds exactly when

    mu = sqrt(beta)*sinh((N - 1/2)*kappa)/cosh(N*kappa) + h*beta/2
       = sqrt(beta)*cosh(kappa/2)*tanh(N*kappa),   N = n - 1,

the discrete counterpart of s*tanh(s*L); the tanh form cannot overflow.
For beta < 0, w_i = cos(i*theta) with sin(theta/2) = h*sqrt(-beta)/2
and mu = -sqrt(-beta)*cos(theta/2)*tan(N*theta). mu is strictly
increasing in beta, so:

- the flux threshold mu1 is its value at beta = 1 (alpha = 0);
- the decay exponent alpha(mu) = 1 - beta, beta its root at mu, found
  by bisection down to adjacent floats.

These formulas are exact for the discrete problem and have no
tolerance, where the general iterative solvers of a nonlinear elliptic
eigenvalue problem (inverse power iteration, a threshold bisection,
damped Newton) could only approach the same discrete values.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .elliptic import banded_rows
from .grid import Field, Grid1D, make_field
from .records import record

__all__ = ["EigenResult", "principal_eigen", "alpha_of_mu", "compute_mu1", "cosh_profile"]


@record(frozen=True)
class EigenResult:
    """Principal eigenvalue with its positive, inf-normalized eigenfunction
    and the inf-norm residual of the discrete eigen-equation."""

    eigenvalue: float
    eigenfunction: Field
    residual: float


def _flux(grid: Grid1D, beta: float) -> float:
    """The Robin coefficient mu whose principal eigenvalue is a - beta."""
    s = math.sqrt(abs(beta))
    if beta >= 0.0:
        half = math.asinh(0.5 * grid.h * s)  # kappa/2
        return s * math.cosh(half) * math.tanh(2 * (grid.n - 1) * half)
    half = math.asin(0.5 * grid.h * s)
    return -s * math.cos(half) * math.tan(2 * (grid.n - 1) * half)


def _beta(grid: Grid1D, mu: float) -> float:
    """Root beta of _flux(grid, beta) = mu.

    For mu >= 0 it lies in [0, 2*mu/h], as _flux(beta) >= h*beta/2. For
    mu < 0 it lies above the discrete Dirichlet limit N*theta = pi/2.
    """
    if not math.isfinite(mu):
        raise ValueError(f"Robin coefficient mu must be finite, got {mu}")
    if mu >= 0.0:
        lo, hi = 0.0, 2.0 * mu / grid.h
    else:
        lo, hi = -(2.0 * math.sin(0.25 * math.pi / (grid.n - 1)) / grid.h) ** 2, 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _flux(grid, mid) < mu:
            lo = mid
        else:
            hi = mid


def cosh_profile(grid: Grid1D, beta: float) -> np.ndarray:
    """Principal eigenfunction for a - beta, positive with maximum 1:
    cosh(i*kappa)/cosh(N*kappa), written in exponentials that cannot
    overflow, or cos(i*theta) for beta < 0."""
    i = np.arange(grid.n)
    if beta >= 0.0:
        kappa = 2.0 * math.asinh(0.5 * grid.h * math.sqrt(beta))
        far = (grid.n - 1) * kappa
        return (np.exp(i * kappa - far) + np.exp(-i * kappa - far)) / (1.0 + math.exp(-2.0 * far))
    return np.cos(i * 2.0 * math.asin(0.5 * grid.h * math.sqrt(-beta)))


def principal_eigen(grid: Grid1D, a: Field, robin_mu: float) -> EigenResult:
    """Principal eigenvalue/eigenfunction of -d2/dx2 + a with
    dw/dn = robin_mu * w on the tumor end, for a constant potential a.

    The residual applies the banded_rows operator to the eigenfunction.
    """
    a0 = float(a.values[0])
    if not np.all(a.values == a0):
        raise ValueError("principal_eigen has a closed form only for a constant potential")
    beta = _beta(grid, robin_mu)
    y = cosh_profile(grid, beta)
    d, e = banded_rows(grid.n, grid.h, 1.0 / (grid.h * grid.h), a0, -robin_mu)
    ay = d * y
    ay[:-1] += e * y[1:]
    ay[1:] += e * y[:-1]
    ay[[0, -1]] *= 2.0  # undo the half-width boundary cells of W*A
    lam = a0 - beta
    return EigenResult(lam, make_field(grid, y), float(np.abs(ay - lam * y).max()))


@functools.cache
def alpha_of_mu(grid: Grid1D, mu: float) -> float:
    """Decay exponent: principal eigenvalue of -d2/dx2 + 1 with
    dw/dn = mu*w on the tumor end. Positive exactly when mu is below
    the flux threshold. Computed once per (grid, mu) and cached."""
    return 1.0 - _beta(grid, mu)


@functools.cache
def compute_mu1(grid: Grid1D) -> float:
    """Flux threshold: the mu at which alpha_of_mu(grid, mu) = 0,
    cached per grid."""
    return _flux(grid, 1.0)
