"""Uniform 1D grids on (0, L), nodal fields, and trapezoidal quadrature.

The left endpoint (index 0) is the vessel boundary, the right endpoint
(index n-1) the tumor boundary. Grids and fields are immutable after
construction and safe to share between concurrent runs.
"""

from __future__ import annotations

from dataclasses import field

import numpy as np

from .errors import DomainConfigError
from .records import record

__all__ = [
    "Grid1D",
    "Field",
    "make_grid",
    "make_field",
    "const_field",
    "trapezoid",
    "l2_norm",
    "field_to_csv",
]


@record(frozen=True)
class Grid1D:
    """Equispaced nodes on [0, L], L > 0 finite and n >= 3 integral
    (DomainConfigError otherwise), kept as a float and an int. Grids
    compare and hash by (L, n), from which h and nodes derive."""

    L: float
    n: int
    h: float = field(init=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.L) or self.L <= 0:
            raise DomainConfigError(f"domain length L must be positive and finite, got {self.L}")
        if not 3 <= self.n < np.inf or int(self.n) != self.n:  # nan and inf fail the first test
            raise DomainConfigError(f"node count n must be an integer >= 3, got {self.n}")
        L, n = float(self.L), int(self.n)
        nodes = np.linspace(0.0, L, n)
        nodes.flags.writeable = False
        for name, value in (("L", L), ("n", n), ("h", L / (n - 1)), ("nodes", nodes)):
            object.__setattr__(self, name, value)


def make_grid(L: float, n: int) -> Grid1D:
    """Build a uniform grid with n nodes on (0, L)."""
    return Grid1D(L, n)


@record(frozen=True, eq=False)
class Field:
    """Nodal scalar function on a Grid1D. Fields compare and hash by
    identity: their values are arrays."""

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"field needs {self.grid.n} nodal values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must all be finite")
        if vals is self.values:
            vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def make_field(grid: Grid1D, values) -> Field:
    return Field(grid, np.asarray(values, dtype=float))


def const_field(grid: Grid1D, value: float) -> Field:
    return Field(grid, np.full(grid.n, float(value)))


def trapezoid(h: float, v: np.ndarray):
    """Composite trapezoidal integral of nodal values v at spacing h, exact for
    affine integrands; one per column of an (n, k) block. The columns of a
    Fortran-ordered block add bitwise as each alone, a C-ordered one's do not."""
    return h * (v.sum(axis=0) - 0.5 * (v[0] + v[-1]))


def l2_norm(h: float, v: np.ndarray):
    """Quadrature-based L2 norm of nodal values v at spacing h, per column."""
    return np.sqrt(np.maximum(trapezoid(h, v * v), 0.0))


def field_to_csv(f: Field, fh) -> None:
    """Write "x,value" rows with a header to an open text handle."""
    fh.write("x,value\n")
    for x, v in zip(f.grid.nodes, f.values):
        fh.write(f"{float(x)!r},{float(v)!r}\n")
