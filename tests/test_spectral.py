import math

import numpy as np
import pytest

from scipy.linalg import eigh_tridiagonal

from angiosim.elliptic import banded_rows
from angiosim.grid import const_field, make_field, make_grid
from angiosim.spectral import alpha_of_mu, compute_mu1, principal_eigen


def exact_alpha(mu: float) -> float:
    """Independent oracle: alpha = 1 - s^2 with s*tanh(s) = mu, by bisection.

    For mu < 0 the eigenfunction is a cosine and alpha = 1 + k^2 with
    k*tan(k) = -mu; only mu >= 0 is needed here.
    """
    if mu == 0.0:
        return 1.0
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


def test_pure_neumann_unit_potential(grid257):
    res = principal_eigen(grid257, const_field(grid257, 1.0), 0.0)
    assert res.eigenvalue == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(res.eigenfunction.values, 1.0, atol=1e-10)


def test_threshold_flux_gives_zero_eigenvalue(grid1025):
    res = principal_eigen(grid1025, const_field(grid1025, 1.0), math.tanh(1.0))
    assert abs(res.eigenvalue) < 1e-4


def test_eigenvalue_against_scalar_oracle(grid1025):
    res = principal_eigen(grid1025, const_field(grid1025, 1.0), 0.5)
    assert res.eigenvalue == pytest.approx(exact_alpha(0.5), abs=1e-4)
    # oracle sanity: s ~ 0.7717, alpha ~ 0.404
    assert exact_alpha(0.5) == pytest.approx(0.404, abs=5e-4)


def test_eigen_result_invariants(grid257):
    for mu in (0.0, 0.5, 1.2):
        res = principal_eigen(grid257, const_field(grid257, 1.0), mu)
        assert res.eigenfunction.values.min() > 0.0
        assert np.abs(res.eigenfunction.values).max() == pytest.approx(1.0, abs=1e-14)
        assert res.residual <= 1e-8


@pytest.mark.parametrize("mu", [2.8, 5.0, 10.0])
def test_principal_eigen_far_below_first_shift(grid1025, mu):
    # alpha(2.8) ~ -6.95 and alpha(10) ~ -99 lie far below zero, where
    # the eigenfunction is a steep cosh
    res = principal_eigen(grid1025, const_field(grid1025, 1.0), mu)
    assert res.eigenvalue == pytest.approx(exact_alpha(mu), rel=1e-4)
    assert res.eigenfunction.values.min() > 0.0


def tridiagonal_alpha(grid, mu):
    """Independent oracle: LAPACK's bisection for the lowest eigenvalue of
    W^(1/2) A W^(-1/2), the symmetric similarity transform of the unit
    potential operator with dw/dn = mu*w."""
    d, e = banded_rows(grid.n, grid.h, 1.0 / (grid.h * grid.h), 1.0, -mu)
    w = np.ones(grid.n)
    w[[0, -1]] = 0.5
    return eigh_tridiagonal(d / w, e / np.sqrt(w[:-1] * w[1:]),
                            eigvals_only=True, select="i", select_range=(0, 0))[0]


@pytest.mark.parametrize("n, mu", [
    *((n, mu) for n in (65, 257, 8193) for mu in (-0.5, 0.0, 0.5, 1.2, 3.0, 50.0)),
    (8193, 1000.0),  # cosh(N*kappa) alone would overflow here
])
def test_alpha_against_tridiagonal_eigensolver(n, mu):
    # the oracle's error is about eps times the operator norm 4/h^2
    grid = make_grid(1.0, n)
    scale = np.finfo(float).eps * 4.0 / (grid.h * grid.h)
    assert abs(alpha_of_mu(grid, mu) - tridiagonal_alpha(grid, mu)) <= scale


def test_principal_eigen_rejects_nonconstant_potential(grid65):
    a = make_field(grid65, 1.0 + 0.5 * np.sin(2 * np.pi * grid65.nodes))
    with pytest.raises(ValueError, match="constant potential"):
        principal_eigen(grid65, a, 0.0)


@pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
def test_nonfinite_mu_is_rejected(grid65, mu):
    with pytest.raises(ValueError, match="finite"):
        alpha_of_mu(grid65, mu)
    with pytest.raises(ValueError, match="finite"):
        principal_eigen(grid65, const_field(grid65, 1.0), mu)


def test_eigen_deterministic(grid257):
    a = const_field(grid257, 1.0)
    r1 = principal_eigen(grid257, a, 0.7)
    r2 = principal_eigen(grid257, a, 0.7)
    assert r1.eigenvalue == r2.eigenvalue
    assert np.array_equal(r1.eigenfunction.values, r2.eigenfunction.values)


def test_alpha_of_mu_values(grid1025):
    assert alpha_of_mu(grid1025, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert abs(alpha_of_mu(grid1025, math.tanh(1.0))) < 1e-4
    assert alpha_of_mu(grid1025, 0.5) == pytest.approx(exact_alpha(0.5), abs=1e-4)


def test_alpha_strictly_decreasing(grid257):
    mus = [0.0, 0.25, 0.5, 0.75, 1.0]
    alphas = [alpha_of_mu(grid257, mu) for mu in mus]
    assert all(a1 > a2 for a1, a2 in zip(alphas, alphas[1:]))
    assert alphas[0] == pytest.approx(1.0, abs=1e-10)
    assert all(a < 1.0 for a in alphas[1:])


def test_compute_mu1_unit_interval(grid257):
    mu1 = compute_mu1(grid257)
    assert mu1 == pytest.approx(math.tanh(1.0), abs=1e-4)
    # cached per (L, n): an equal grid returns the identical float
    assert compute_mu1(make_grid(1.0, 257)) is mu1


def test_compute_mu1_longer_interval():
    g = make_grid(2.0, 513)
    assert compute_mu1(g) == pytest.approx(math.tanh(2.0), abs=1e-4)


@pytest.mark.parametrize("L", [0.1, 0.01])
def test_compute_mu1_short_interval(L):
    # the bracket end alpha(1) is about -9.3 (L=0.1) and -99 (L=0.01)
    assert compute_mu1(make_grid(L, 65)) == pytest.approx(math.tanh(L), rel=1e-4)


def test_compute_mu1_refinement():
    coarse = abs(compute_mu1(make_grid(1.0, 65)) - math.tanh(1.0))
    fine = abs(compute_mu1(make_grid(1.0, 257)) - math.tanh(1.0))
    assert coarse > fine
    assert coarse / fine > 8.0  # second order would give ~16


def test_equal_grids_share_cache_entries():
    a, b = make_grid(1.0, 33), make_grid(1.0, 33)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_grid(1.0, 65) and a != make_grid(2.0, 33)
    alpha_of_mu.cache_clear()
    assert alpha_of_mu(b, 0.25) == alpha_of_mu(a, 0.25)
    info = alpha_of_mu.cache_info()
    assert (info.hits, info.currsize) == (1, 1)
    assert compute_mu1(a) is compute_mu1(b)
