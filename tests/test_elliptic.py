import importlib.util
import math
import sys

import numpy as np
import pytest
from scipy.linalg import lapack

from angiosim import elliptic
from angiosim.dynamics import _factor
from angiosim.elliptic import banded_rows, dpttrf, dpttrs
from angiosim.errors import SpectralShiftError
from angiosim.grid import const_field, make_field, make_grid


def dense(op):
    """Dense symmetric matrix W*A of a (d, e) pair."""
    d, e = op
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def apply_rows(op, w):
    """A @ w from the W-symmetrized (d, e) pair, W = diag(1/2, 1, ..., 1, 1/2):
    an independent reading of the storage layout."""
    out = dense(op) @ w
    out[[0, -1]] *= 2.0
    return out


def assemble(grid, a, robin_b=0.0):
    """(d, e) pair of W*(-d2/dx2 + a) with dw/dn = -robin_b*w at the tumor end."""
    return banded_rows(grid.n, grid.h, 1.0 / (grid.h * grid.h), a.values, robin_b)


def solve_linear(op, rhs):
    """W*A w = W*rhs for the positive definite (d, e) pair op of W*A, by
    dpttrf and dpttrs, as dynamics solves its time-step blocks."""
    d, e, info = dpttrf(*op)
    assert info == 0
    b = np.array(rhs, dtype=float)
    b[[0, -1]] *= 0.5  # W*rhs
    return dpttrs(d, e, b)[0]


def linear_residual(grid, a, robin_b, w):
    """-w'' + a*w with dw/dn = -robin_b*w at the tumor end, written from
    the stencil: a ghost node one spacing outside each end, eliminated by
    the centered boundary condition (w_{-1} = w_1, and
    w_n = w_{n-2} - 2*h*robin_b*w_{n-1}), then second differences of
    neighbors, which keep the 1/h^2 cancellation near the machine floor."""
    ghost = np.concatenate(([w[1]], w, [w[-2] - 2.0 * grid.h * robin_b * w[-1]]))
    return ((w - ghost[:-2]) + (w - ghost[2:])) / (grid.h * grid.h) + a.values * w


@pytest.mark.parametrize("robin_b", [0.0, -0.7, 0.4])
def test_banded_rows_match_flux_residual(robin_b):
    # the stored rows and the stencil write the same operator
    g = make_grid(1.0, 129)
    rng = np.random.default_rng(5)
    a = make_field(g, rng.uniform(0.0, 2.0, size=g.n))
    w = rng.normal(size=g.n)
    rows = apply_rows(assemble(g, a, robin_b), w)
    res = linear_residual(g, a, robin_b, w)
    scale = 4.0 / (g.h * g.h) * np.abs(w).max()
    assert np.abs(rows - res).max() <= 1e-13 * scale


def test_constant_potential_on_constants(grid65):
    out = linear_residual(grid65, const_field(grid65, 1.0), 0.0, np.ones(grid65.n))
    assert np.allclose(out, 1.0, atol=1e-12)


def test_pure_laplacian_annihilates_constants(grid65):
    out = apply_rows(assemble(grid65, const_field(grid65, 0.0)), np.full(grid65.n, 3.7))
    assert np.abs(out).max() < 1e-9


def test_robin_cosh_interior_truncation_second_order():
    # cosh solves -w'' + w = 0 with w'(1) = tanh(1)*cosh(1); interior rows
    # of the discrete operator must see it at O(h^2)
    errs = []
    for n in (65, 129, 257):
        g = make_grid(1.0, n)
        res = linear_residual(g, const_field(g, 1.0), -math.tanh(1.0), np.cosh(g.nodes))
        errs.append(np.abs(res[1:-1]).max())
    order1 = math.log(errs[0] / errs[1], 2)
    order2 = math.log(errs[1] / errs[2], 2)
    assert order1 == pytest.approx(2.0, abs=0.2)
    assert order2 == pytest.approx(2.0, abs=0.2)


def test_robin_cosh_boundary_row_consistent():
    # the ghost-eliminated tumor row is consistent (first order), which
    # is enough for second-order solutions
    errs = []
    for n in (65, 129, 257):
        g = make_grid(1.0, n)
        res = linear_residual(g, const_field(g, 1.0), -math.tanh(1.0), np.cosh(g.nodes))
        errs.append(abs(res[-1]))
    assert errs[0] > errs[1] > errs[2]
    assert math.log(errs[0] / errs[2], 4) == pytest.approx(1.0, abs=0.2)


def test_solve_linear_constant(grid65):
    w = solve_linear(assemble(grid65, const_field(grid65, 1.0)), np.ones(grid65.n))
    assert np.allclose(w, 1.0, atol=1e-12)


def test_solve_linear_boundary_forcing_gives_cosh_shape():
    # forcing only the tumor-boundary row of the near-threshold operator
    # excites its almost-null mode, which is the cosh profile
    g = make_grid(1.0, 513)
    op = assemble(g, const_field(g, 1.0), -math.tanh(1.0))
    rhs = np.zeros(g.n)
    rhs[-1] = 2.0 / g.h
    w = solve_linear(op, rhs)
    profile = w / w[0]
    assert np.abs(profile - np.cosh(g.nodes)).max() < 1e-4


def test_solve_linear_round_trip():
    g = make_grid(1.0, 513)
    a = const_field(g, 1.0)
    rng = np.random.default_rng(42)
    f = rng.normal(size=g.n)
    w = solve_linear(assemble(g, a, -0.5), linear_residual(g, a, -0.5, f))
    assert np.abs(w - f).max() < 1e-9


def test_solve_linear_residual_contract():
    g = make_grid(1.0, 257)
    a = const_field(g, 1.0)
    rhs = make_field(g, np.cos(np.pi * g.nodes) + 2.0)
    w = solve_linear(assemble(g, a), rhs.values)
    res = np.abs(linear_residual(g, a, 0.0, w) - rhs.values).max()
    assert res <= 1e-10 * (1.0 + np.abs(rhs.values).max())


def test_solve_linear_rejects_indefinite_operator(grid65):
    # a Robin flux mu = 1.5 above the threshold tanh(1) gives -d2/dx2 + 1
    # a negative principal eigenvalue: W @ A is indefinite, and dpttrf
    # reports a minor that is not positive definite. dynamics' _factor
    # refuses such a block: with diag < 0 the constant vector's
    # eigenvalue, diag, is negative.
    op = assemble(grid65, const_field(grid65, 1.0), -1.5)
    assert dpttrf(*op)[2] > 0
    with pytest.raises(SpectralShiftError, match="not positive definite"):
        _factor(grid65.n, grid65.h, 1.0, -0.5)


def test_discrete_maximum_principle():
    g = make_grid(1.0, 129)
    rng = np.random.default_rng(3)
    a = make_field(g, rng.uniform(0.0, 2.0, size=g.n))
    rhs = rng.uniform(0.0, 1.0, size=g.n)
    w = solve_linear(assemble(g, a, 0.3), rhs)
    assert w.min() >= -1e-12


def test_manufactured_solution_convergence_order():
    # w = cos(pi x) through -w'' + w with zero Neumann ends
    exact_coeff = 1.0 + math.pi**2
    errs = []
    ns = (65, 129, 257, 513)
    for n in ns:
        g = make_grid(1.0, n)
        rhs = exact_coeff * np.cos(np.pi * g.nodes)
        w = solve_linear(assemble(g, const_field(g, 1.0)), rhs)
        errs.append(np.abs(w - np.cos(np.pi * g.nodes)).max())
    hs = [1.0 / (n - 1) for n in ns]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_operator_symmetric_in_quadrature_weights(grid65):
    # the boundary rows scale by the half-width cells: W @ A is symmetric
    # (A from the stencil column by column; the stored pair must be W @ A)
    a = const_field(grid65, 1.0)
    cols = [linear_residual(grid65, a, -0.7, col) for col in np.eye(grid65.n)]
    w = np.full(grid65.n, grid65.h)  # the trapezoid weights
    w[0] = w[-1] = 0.5 * grid65.h
    wa = w[:, None] * np.array(cols).T
    assert np.abs(wa - wa.T).max() < 1e-9
    stored = dense(assemble(grid65, a, -0.7))
    assert np.abs(grid65.h * stored - wa).max() < 1e-9


def test_operator_diagonally_dominant_for_nonneg_potential(grid65):
    rng = np.random.default_rng(11)
    a = make_field(grid65, rng.uniform(0.1, 1.0, grid65.n))
    d, e = assemble(grid65, a, 0.4)
    row_gap = np.abs(d)
    row_gap[1:] -= np.abs(e)  # row i couples to node i-1
    row_gap[:-1] -= np.abs(e)  # row i couples to node i+1
    assert row_gap.min() > 0


def test_ldlt_routines_match_scipy_lapack_bitwise():
    # the directly loaded routines against scipy.linalg.lapack's, called
    # the way dynamics calls them: in place on one column and on a
    # Fortran-ordered matrix of 12
    rng = np.random.default_rng(257)
    n = 257
    e = rng.uniform(-1.0, 1.0, n - 1)
    d = 2.0 + rng.uniform(0.0, 1.0, n)  # diagonally dominant: positive definite
    ours, theirs = elliptic.dpttrf(d, e), lapack.dpttrf(d, e)
    assert ours[2] == theirs[2] == 0
    for a, b in zip(ours[:2], theirs[:2]):
        assert a.tobytes() == b.tobytes()
    for shape in [(n,), (n, 12)]:
        rhs = np.asfortranarray(rng.standard_normal(shape))
        b1, b2 = rhs.copy(order="F"), rhs.copy(order="F")
        x1, info1 = elliptic.dpttrs(*ours[:2], b1, overwrite_b=True)
        x2, info2 = lapack.dpttrs(*theirs[:2], b2, overwrite_b=True)
        assert info1 == info2 == 0
        assert x1 is b1 and x2 is b2  # solved in place
        assert x1.tobytes() == x2.tobytes()


def test_ldlt_routines_fall_back_to_scipy_linalg_lapack(monkeypatch):
    # a direct load beside the imported scipy.linalg leaves its module in place
    held = sys.modules["scipy.linalg._flapack"]
    elliptic._ldlt_routines()
    assert sys.modules["scipy.linalg._flapack"] is held
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise ImportError("no such extension")

    monkeypatch.setattr(importlib.util, "spec_from_file_location", broken)
    assert elliptic._ldlt_routines() == (lapack.dpttrf, lapack.dpttrs, lapack.dgtsv)
    assert calls  # the direct load was tried, and failed

    # scipy's package directory cannot be found: find_spec returns None
    monkeypatch.undo()
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
    assert elliptic._ldlt_routines() == (lapack.dpttrf, lapack.dpttrs, lapack.dgtsv)
