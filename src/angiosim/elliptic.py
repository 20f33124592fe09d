"""Discrete operator -d2/dx2 + a(x) with mixed boundary rows.

Boundary handling is ghost-node (mirror) elimination throughout: the
normal-derivative condition is written with a centered difference
through a fictitious node one spacing outside the domain, and the
fictitious value is substituted into the regular second-difference row.
The vessel end always carries a zero-Neumann row; the tumor end carries
a linear Robin row (zero Neumann when its coefficient is 0), or a
nonlinear flux condition dw/dn = g(w) solved by damped Newton.

Sign convention for Robin data: the stored coefficient b means
dw/dn = -b*w on the tumor boundary, so an outward flux dw/dn = mu*w
is represented by b = -mu.

Every matrix is stored as W*A, W = diag(1/2, 1, ..., 1, 1/2) the
trapezoid weights: a symmetric tridiagonal (d, e) pair, solved by the
no-pivot LDL^T of LAPACK dpttrf/dpttrs, which exists exactly when W*A is
positive definite. One factor serves many solves.

LAPACK is loaded without the scipy.linalg package: importing that
package costs about 0.3 s of a CLI call (scipy.linalg's own imports pull
in numpy.f2py, numpy.testing and more), while the package needs only
dpttrf and dpttrs. _ldlt_routines loads scipy's f2py extension
linalg/_flapack by its file path and takes the two routines from it;
this is the very extension scipy.linalg.lapack wraps, so every factor
and solve is the same compiled code. If that load fails for any reason,
for example in a scipy whose layout has no such file, the routines come
from scipy.linalg.lapack instead.
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from .errors import (
    NonConvergenceError,
    SingularJacobianError,
    SpectralShiftError,
)
from .grid import Field, Grid1D, make_field

__all__ = [
    "banded_rows",
    "assemble",
    "factor",
    "solve_linear",
    "solve_nonlinear_bvp",
    "flux_residual",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 8
_FLAPACK = "scipy.linalg._flapack"


def _ldlt_routines() -> tuple[Callable, Callable]:
    """LAPACK (dpttrf, dpttrs) from scipy's extension linalg/_flapack,
    loaded by file path so that the scipy.linalg package is not
    imported; scipy.linalg.lapack's if that load fails."""
    try:
        linalg = Path(scipy.__file__).parent / "linalg"
        path = next(p for p in (linalg / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES)
                    if p.is_file())
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        held = sys.modules.get(_FLAPACK)
        try:
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
        finally:
            # A single-phase extension module enters itself in sys.modules
            # under its name. Restore that entry, so that a later import of
            # scipy.linalg sets _flapack up as a submodule of its package.
            if held is None:
                sys.modules.pop(_FLAPACK, None)
            else:
                sys.modules[_FLAPACK] = held
        return flapack.dpttrf, flapack.dpttrs
    except Exception:  # whatever stopped the direct load, the public module serves
        from scipy.linalg.lapack import dpttrf, dpttrs
        return dpttrf, dpttrs


dpttrf, dpttrs = _ldlt_routines()


def banded_rows(n: int, h: float, r: float, diag: float | np.ndarray,
                robin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) pair of W*(diag + r*h^2*(-d2/dx2)).

    Mirror rows close both ends; the Robin coefficient adds 2*robin/h to
    the tumor-end row. This is the one place the operator's rows are
    written: the elliptic solves use r = 1/h^2, the implicit diffusion
    of a time step r = dt/h^2 with diag = 1 and robin = 0.
    """
    d = np.full(n, 2.0 * r) + diag
    d[-1] += 2.0 * robin / h
    d[[0, -1]] *= 0.5  # half-width boundary cells
    return d, np.full(n - 1, -r)


def assemble(grid: Grid1D, a: Field,
             robin_b: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) pair of W*(-d2/dx2 + a(x)) with the tumor-end row
    dw/dn = -robin_b*w (robin_b = 0 is zero Neumann).

    A nonlinear flux condition has no fixed matrix: solve_nonlinear_bvp
    assembles its Newton Jacobian here with robin_b = -g'(w) at the
    current iterate.
    """
    if not (np.all(np.isfinite(a.values)) and np.isfinite(robin_b)):
        raise ValueError("potential a(x) and Robin coefficient must be finite")
    h = grid.h
    return banded_rows(grid.n, h, 1.0 / (h * h), a.values, robin_b)


def factor(op: tuple[np.ndarray, np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """LDL^T factor of the (d, e) pair op as the in-place solve b -> A^-1 b;
    SpectralShiftError if op is not positive definite.

    b is a float vector of op's length, or a matrix of such columns; the
    solve returns the solution, written over b when b is contiguous in
    Fortran order. op may stack independent blocks, joined by zero
    entries of e; the trapezoid weights W then apply at both ends of
    every block.
    """
    joins = np.flatnonzero(op[1] == 0.0)
    ends = np.concatenate(([0], joins, joins + 1, [len(op[0]) - 1]))
    d, e, info = dpttrf(*op)
    if info > 0:
        raise SpectralShiftError(f"matrix is not positive definite (minor {info})")

    def solve(b: np.ndarray) -> np.ndarray:
        b[ends] *= 0.5  # W*b
        return dpttrs(d, e, b, overwrite_b=True)[0]
    return solve


def solve_linear(op: tuple[np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """factor(op) applied to a copy of rhs; a non-finite result also
    raises SpectralShiftError."""
    w = factor(op)(np.array(rhs, dtype=float))
    if not np.all(np.isfinite(w)):
        raise SpectralShiftError("LDL^T solve produced non-finite values")
    return w


def _second_difference(w: np.ndarray, h: float) -> np.ndarray:
    """Interior rows of -w'' via (w_i - w_{i-1}) + (w_i - w_{i+1}).

    Differencing neighbors first keeps the 1/h^2 cancellation near the
    machine floor for smooth w, which the Newton termination test needs.
    """
    return ((w[1:-1] - w[:-2]) + (w[1:-1] - w[2:])) / (h * h)


def flux_residual(
    grid: Grid1D,
    a: Field,
    g: Callable,
    w: np.ndarray,
    source: np.ndarray,
) -> np.ndarray:
    """Residual of -w'' + a*w = source with mirror row at the vessel end
    and outward flux dw/dn = g(w) at the tumor end."""
    h = grid.h
    r = np.empty(grid.n)
    r[1:-1] = _second_difference(w, h)
    r[0] = 2.0 * (w[0] - w[1]) / (h * h)
    r[-1] = 2.0 * (w[-1] - w[-2]) / (h * h) - 2.0 * float(g(w[-1])) / h
    r += a.values * w - source
    return r


def solve_nonlinear_bvp(
    grid: Grid1D,
    a: Field,
    g: Callable,
    g_prime: Callable,
    source: Field,
    w0: Field,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
    residual_history: list | None = None,
) -> Field:
    """Damped Newton solve of -w'' + a*w = source with dw/dn = g(w) at
    the tumor end.

    Terminates when the residual inf-norm drops to tol, widened to the
    attainable double-precision floor ~4*eps*|w|/h^2 when that exceeds
    tol: storing the iterate quantizes each residual component in jumps
    of ulp(w)/h^2, so no representable vector beats that scale on fine
    grids. Steps that do not decrease the residual are halved up to
    NEWTON_MAX_HALVINGS times; if no halved step decreases it either,
    the full step is taken (near the floor the residual bounces rather
    than descends, and freezing the iterate would stall the iteration).
    """
    if not np.all(np.isfinite(w0.values)):
        raise ValueError("initial iterate must be finite")
    eps = float(np.finfo(float).eps)
    h2 = grid.h * grid.h
    w = w0.values.copy()
    src = source.values
    r = flux_residual(grid, a, g, w, src)
    rnorm = float(np.abs(r).max())
    if residual_history is not None:
        residual_history.append(rnorm)
    tol_eff = tol
    for _ in range(max_iter):
        tol_eff = max(tol, 4.0 * eps * float(np.abs(w).max()) / h2)
        if rnorm <= tol_eff:
            return make_field(grid, w)
        jac = assemble(grid, a, -float(g_prime(w[-1])))
        try:
            delta = solve_linear(jac, -r)
        except SpectralShiftError as exc:
            raise SingularJacobianError(f"Newton Jacobian solve failed: {exc}") from exc
        full = None
        step = 1.0
        accepted = False
        for _halving in range(NEWTON_MAX_HALVINGS + 1):
            w_try = w + step * delta
            r_try = flux_residual(grid, a, g, w_try, src)
            r_try_norm = float(np.abs(r_try).max())
            if full is None:
                full = (w_try, r_try, r_try_norm)
            if np.isfinite(r_try_norm) and r_try_norm < rnorm:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            w_try, r_try, r_try_norm = full
        if not np.isfinite(r_try_norm):
            raise NonConvergenceError(
                "Newton step produced a non-finite residual", residual=rnorm
            )
        w, r, rnorm = w_try, r_try, r_try_norm
        if residual_history is not None:
            residual_history.append(rnorm)
    if rnorm <= tol_eff:
        return make_field(grid, w)
    raise NonConvergenceError(
        f"Newton did not reach residual {tol:g} in {max_iter} steps "
        f"(last residual {rnorm:.3e})",
        residual=rnorm,
    )
