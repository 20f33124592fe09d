import numpy as np
import pytest

from angiosim.errors import SensitivityHypothesisError
from angiosim.sensitivity import (
    SensitivitySpec,
    check_H1,
    check_growth_envelope,
    check_hypothesis2,
    derivative_consistency,
    f_g_diagnostics,
    linear_saturating,
    saturating_power,
    truncated_linear,
)

ALL_FAMILIES = [
    saturating_power(2.0),
    saturating_power(3.0),
    linear_saturating(),
    truncated_linear(0.5),
]


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family + str(s.params))
def test_hypothesis2_holds_for_families(spec):
    check_hypothesis2(spec)  # does not raise


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family + str(s.params))
def test_derivative_consistency(spec):
    assert derivative_consistency(spec) <= 1e-5


def test_saturating_power_bounded_by_one():
    spec = saturating_power(2.0)
    s = np.logspace(-8, 2, 201)
    assert np.asarray(spec.V(s)).max() <= 1.0


def test_check_h1_superlinear_passes():
    rep = check_H1(saturating_power(2.0), d=1, delta=0.1)
    assert rep.k0 == pytest.approx(2.0, abs=0.1)
    assert rep.j == pytest.approx(1.0, abs=0.1)
    assert rep.passed


def test_check_h1_linear_fails_in_1d():
    rep = check_H1(linear_saturating(), d=1, delta=0.1)
    assert rep.k0 == pytest.approx(1.0, abs=0.05)
    assert not rep.passed


def test_check_h1_cubic_passes_in_2d():
    rep = check_H1(saturating_power(3.0), d=2, delta=0.1)
    assert rep.k0 == pytest.approx(3.0, abs=0.15)
    assert rep.j == pytest.approx(2.0, abs=0.15)
    assert rep.passed


def test_check_h1_rejects_nonpositive_v():
    def flat_then_linear(s):  # V = 0 on [0, 1], s - 1 beyond
        return np.maximum(np.asarray(s, dtype=float) - 1.0, 0.0)

    bad = SensitivitySpec("flat-at-zero", flat_then_linear,
                          lambda s: np.where(np.asarray(s, dtype=float) > 1.0, 1.0, 0.0))
    with pytest.raises(SensitivityHypothesisError):
        check_H1(bad, d=1, delta=0.1)


def test_envelope_matched_exponent():
    rep = check_growth_envelope(saturating_power(2.0), alpha=2.0, s_max=1.0)
    assert rep.c_m == pytest.approx(0.5, abs=1e-9)
    assert rep.C_M == pytest.approx(1.0, abs=1e-6)
    assert rep.passed


def test_envelope_linear_family():
    rep = check_growth_envelope(linear_saturating(), alpha=1.0, s_max=1.0)
    assert rep.c_m == pytest.approx(0.5, abs=1e-9)
    assert rep.C_M == pytest.approx(1.0, abs=1e-6)
    assert rep.passed


def test_envelope_mismatched_exponent_fails():
    rep = check_growth_envelope(saturating_power(2.0), alpha=1.0, s_max=1.0)
    assert not rep.passed
    assert rep.c_m == 0.0


def test_f_diagnostic_truncated_identity():
    out = f_g_diagnostics(truncated_linear(1.0), delta=0.1)
    assert out["f"] == pytest.approx(0.01, rel=1e-9)


def test_f_diagnostic_saturating():
    out = f_g_diagnostics(saturating_power(2.0), delta=0.1)
    expected = (0.01 / 1.01) ** 2
    assert out["f"] == pytest.approx(expected, rel=1e-9)


def test_f_g_vanish_at_zero():
    out = f_g_diagnostics(saturating_power(2.0), delta=1e-6)
    assert out["f"] < 1e-11
    assert out["g"] < 1e-11


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family + str(s.params))
def test_f_g_nondecreasing_in_delta(spec):
    deltas = [0.01, 0.05, 0.1, 0.5, 1.0]
    outs = [f_g_diagnostics(spec, d) for d in deltas]
    fs = [o["f"] for o in outs]
    gs = [o["g"] for o in outs]
    assert all(a <= b + 1e-15 for a, b in zip(fs, fs[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(gs, gs[1:]))


def test_linear_saturating_is_saturating_power_one():
    # bitwise, in 1-D and in the Fortran-ordered (n, k) layout of a batch,
    # and equal to s/(1+s) and 1/(1+s)^2 as written
    s = np.concatenate(([-1.0, 0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e300],
                        np.random.default_rng(5).random(1000) * 10.0))
    lin, power = linear_saturating(), saturating_power(1.0)

    def bits(x):
        return np.asarray(x, dtype=float).view(np.uint64)

    for x in (s, np.asfortranarray(s[:1000].reshape(500, 2)), 1e300, 0.0):
        sp = np.maximum(np.asarray(x, dtype=float), 0.0)
        for V in (lin.V, power.V):
            assert np.array_equal(bits(V(x)), bits(sp / (1.0 + sp)))
        with np.errstate(over="ignore"):  # (1 + 1e300)**2 is inf, so V' is 0 there
            for Vp in (lin.V_prime, power.V_prime):
                assert np.array_equal(bits(Vp(x)), bits(1.0 / (1.0 + sp) ** 2))
    assert lin.describe() == {"family": "linear-saturating", "params": []}
    assert (lin.kinks, lin.envelope_exponent) == ((), 1.0)


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        saturating_power(0.5)
    with pytest.raises(ValueError):
        truncated_linear(0.0)


def test_check_h1_validates_delta():
    with pytest.raises(ValueError):
        check_H1(saturating_power(2.0), d=1, delta=1.5)


def test_envelope_validates_inputs():
    with pytest.raises(ValueError):
        check_growth_envelope(saturating_power(2.0), alpha=0.5, s_max=1.0)
    with pytest.raises(ValueError):
        check_growth_envelope(saturating_power(2.0), alpha=2.0, s_max=0.0)
