import io
import math

import numpy as np
import pytest

from angiosim.dynamics import SimState
from angiosim.errors import DomainConfigError
from angiosim.grid import (
    Grid1D, const_field, field_to_csv, l2_norm, make_field, make_grid, trapezoid,
)


def test_make_grid_nodes():
    g = make_grid(1.0, 5)
    assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_make_grid_spacing():
    assert make_grid(1.0, 3).h == 0.5
    assert make_grid(2.0, 1025).h == 2.0 / 1024


def test_grid_nodes_equispaced_and_immutable():
    g = make_grid(3.7, 101)
    dx = np.diff(g.nodes)
    assert dx.min() > 0
    assert np.allclose(dx, g.h, rtol=0, atol=8 * np.finfo(float).eps * g.L)
    with pytest.raises(ValueError):
        g.nodes[0] = 1.0


@pytest.mark.parametrize("L, n", [(0.0, 5), (-1.0, 5), (1.0, 2), (1.0, 1), (math.inf, 5),
                                  (1.0, math.inf), (1.0, math.nan)])
def test_make_grid_rejects_bad_domains(L, n):
    with pytest.raises(DomainConfigError):
        make_grid(L, n)
    with pytest.raises(DomainConfigError):  # the grid checks itself
        Grid1D(L, n)


def test_field_validation(grid65):
    with pytest.raises(ValueError):
        make_field(grid65, np.ones(7))
    bad = np.ones(grid65.n)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        make_field(grid65, bad)


def test_fields_compare_and_hash_by_identity(grid65):
    # comparing their arrays would raise: a field equals only itself
    a, b = const_field(grid65, 1.0), const_field(grid65, 1.0)
    assert a == a and a != b and len({a, b, a}) == 2
    assert hash(a) == object.__hash__(a)
    # records holding fields compare without raising too
    assert SimState(0.0, a, b) == SimState(0.0, a, b)
    assert SimState(0.0, a, b) != SimState(0.0, b, a)


def test_integrate_constant_and_affine():
    g = make_grid(1.0, 17)
    assert trapezoid(g.h, np.ones(g.n)) == pytest.approx(1.0, abs=1e-15)
    assert trapezoid(g.h, g.nodes) == pytest.approx(0.5, abs=1e-15)


def test_integrate_quadratic(grid1025):
    assert trapezoid(grid1025.h, grid1025.nodes**2) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_integrate_linearity():
    g = make_grid(2.0, 33)
    rng = np.random.default_rng(7)
    f = rng.normal(size=g.n)
    h = rng.normal(size=g.n)
    a, b = 2.5, -1.25
    assert trapezoid(g.h, a * f + b * h) == pytest.approx(
        a * trapezoid(g.h, f) + b * trapezoid(g.h, h), rel=1e-13, abs=1e-13
    )


def test_integrate_refinement_order():
    exact = 1.0 / 3.0
    errs = []
    for n in (33, 65, 129):
        g = make_grid(1.0, n)
        errs.append(abs(trapezoid(g.h, g.nodes**2) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_norm_zero_and_constant():
    g = make_grid(1.0, 9)
    assert l2_norm(g.h, np.zeros(g.n)) == 0.0
    assert l2_norm(g.h, np.full(g.n, 2.0)) == pytest.approx(2.0, abs=1e-14)


def test_norm_sine(grid1025):
    sine = np.sin(np.pi * grid1025.nodes)
    assert l2_norm(grid1025.h, sine) == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_field_csv_round_trip(grid65):
    f = make_field(grid65, np.cos(3 * grid65.nodes) + 0.1)
    buf = io.StringIO()
    field_to_csv(f, buf)
    buf.seek(0)
    assert buf.readline() == "x,value\n"
    table = np.loadtxt(buf, delimiter=",", ndmin=2)
    # repr-formatted floats parse back bit for bit
    assert np.array_equal(table[:, 0], grid65.nodes)
    assert np.array_equal(table[:, 1], f.values)
