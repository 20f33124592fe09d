import math

import numpy as np
import pytest

import angiosim.spectral as spectral
from angiosim.errors import SpectralShiftError, ThresholdSearchError
from angiosim.grid import const_field, make_grid
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


@pytest.mark.parametrize("mu, shifts", [(0.5, 1), (2.0, 3), (2.8, 4)])
def test_principal_eigen_factors_once_per_shift(grid65, monkeypatch, mu, shifts):
    # the shifts tried are -1, -2, -4, -8: alpha(2) ~ -3.27 is first
    # undercut by -4, alpha(2.8) ~ -6.95 by -8
    calls, refused = [], []
    original = spectral.factor

    def counted(op):
        calls.append(1)
        try:
            return original(op)
        except SpectralShiftError:
            refused.append(1)
            raise

    monkeypatch.setattr(spectral, "factor", counted)
    res = principal_eigen(grid65, const_field(grid65, 1.0), mu)
    assert res.eigenvalue == pytest.approx(exact_alpha(mu), abs=1e-2)
    assert res.iterations > 1
    assert len(calls) == shifts
    assert len(refused) == shifts - 1


@pytest.mark.parametrize("mu", [2.8, 5.0, 10.0])
def test_principal_eigen_far_below_first_shift(grid1025, mu):
    # alpha(2.8) ~ -6.95 and alpha(10) ~ -99 lie far below the first
    # shift -1; the shift must still get below them
    res = principal_eigen(grid1025, const_field(grid1025, 1.0), mu)
    assert res.eigenvalue == pytest.approx(exact_alpha(mu), rel=1e-4)
    assert res.eigenfunction.values.min() > 0.0


def test_eigen_deterministic(grid257):
    a = const_field(grid257, 1.0)
    r1 = principal_eigen(grid257, a, 0.7)
    r2 = principal_eigen(grid257, a, 0.7)
    assert r1.eigenvalue == r2.eigenvalue
    assert np.array_equal(r1.eigenfunction.values, r2.eigenfunction.values)


def test_nonconstant_potential_rayleigh_bound(grid257):
    # principal eigenvalue lies between min(a) and max(a) for pure Neumann
    a = const_field(grid257, 0.0).values + 1.0 + 0.5 * np.sin(
        2 * np.pi * grid257.nodes
    )
    from angiosim.grid import make_field

    res = principal_eigen(grid257, make_field(grid257, a), 0.0)
    assert a.min() - 1e-10 <= res.eigenvalue <= a.max() + 1e-10
    assert res.eigenfunction.values.min() > 0.0


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
    # cached per (L, n, tol): an equal grid returns the identical float
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


def test_threshold_search_error_paths(grid65, monkeypatch):
    # bypass the per-grid cache so the search runs on the patched map
    search = compute_mu1.__wrapped__
    monkeypatch.setattr(spectral, "alpha_of_mu", lambda g, mu: -1.0)
    with pytest.raises(ThresholdSearchError):
        search(grid65)
    monkeypatch.setattr(spectral, "alpha_of_mu", lambda g, mu: 1.0)
    with pytest.raises(ThresholdSearchError):
        search(grid65)


def test_equal_grids_share_cache_entries():
    a, b = make_grid(1.0, 33), make_grid(1.0, 33)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_grid(1.0, 65) and a != make_grid(2.0, 33)
    alpha_of_mu.cache_clear()
    assert alpha_of_mu(b, 0.25) == alpha_of_mu(a, 0.25)
    info = alpha_of_mu.cache_info()
    assert (info.hits, info.currsize) == (1, 1)
    assert compute_mu1(a) is compute_mu1(b)
