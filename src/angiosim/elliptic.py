"""Discrete operator diag + r*h^2*(-d2/dx2) with mirror boundary rows,
and the LAPACK routines that factor and solve it.

Boundary handling is ghost-node (mirror) elimination: the
normal-derivative condition is written with a centered difference
through a fictitious node one spacing outside the domain, and the
fictitious value is substituted into the regular second-difference row.
The vessel end carries a zero-Neumann row; the tumor end carries a
linear Robin row (zero Neumann when its coefficient is 0).

Sign convention for Robin data: the stored coefficient b means
dw/dn = -b*w on the tumor boundary, so an outward flux dw/dn = mu*w
is represented by b = -mu.

Every matrix is stored as W*A, W = diag(1/2, 1, ..., 1, 1/2) the
trapezoid weights: a symmetric tridiagonal (d, e) pair, solved by the
no-pivot LDL^T of LAPACK dpttrf/dpttrs, which exists exactly when W*A is
positive definite. One factor serves many solves: dynamics caches the
factors of its time-step blocks per run and dt, and a fixed-dt step
solves all columns of a block in one call, in place. The v block of an
auto-dt step carries its state in the Robin row alone, so it takes the
cached factor of its state-free rows and sets only the last pivot. The
nonsymmetric tridiagonal u block of an auto-dt step is solved by LAPACK
dgtsv.

LAPACK is loaded without importing scipy: the package needs only dpttrf,
dpttrs and dgtsv, while scipy's __init__ alone pulls in subprocess and
sysconfig. _ldlt_routines finds scipy's directory with
importlib.util.find_spec, which does not run the package, and loads
scipy's f2py extension linalg/_flapack by its file path: the very
extension scipy.linalg.lapack wraps, so every factor and solve is the
same compiled code. If that load fails for any reason, for example in a
scipy whose layout has no such file, the routines come from
scipy.linalg.lapack instead.
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["banded_rows"]

_FLAPACK = "scipy.linalg._flapack"


def _ldlt_routines() -> tuple[Callable, Callable, Callable]:
    """LAPACK (dpttrf, dpttrs, dgtsv) from scipy's extension linalg/_flapack,
    loaded by file path so that scipy is not imported; scipy.linalg.lapack's
    if that load fails."""
    try:  # find_spec is None without scipy, and the attribute lookup fails
        linalg = Path(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
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
        return flapack.dpttrf, flapack.dpttrs, flapack.dgtsv
    except Exception:  # whatever stopped the direct load, the public module serves
        from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs
        return dpttrf, dpttrs, dgtsv


dpttrf, dpttrs, dgtsv = _ldlt_routines()


def banded_rows(n: int, h: float, r: float, diag: float | np.ndarray,
                robin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) pair of W*(diag + r*h^2*(-d2/dx2)).

    Mirror rows close both ends; the Robin coefficient adds 2*robin/h to
    the tumor-end row. This is the one place the operator's rows are
    written: spectral's residual uses r = 1/h^2, the implicit diffusion
    of a time step r = dt/h^2 with diag = 1 or 1 + dt, and the v block of
    an auto-dt step the linearized tumor flux as robin = -dt*beta.
    """
    d = np.full(n, 2.0 * r + diag)
    d[-1] += 2.0 * robin / h
    d[::n - 1] *= 0.5  # half-width boundary cells
    return d, np.full(n - 1, -r)
