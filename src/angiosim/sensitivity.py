"""Chemotactic sensitivity functions and numerical hypothesis checkers.

A sensitivity function V maps cell density to chemotactic response; the
model requires V(0) = 0 and V > 0 away from zero. The checkers here
estimate growth exponents of V near zero (superlinearity) and power
envelopes on a working range, so a harness run can record which
structural conditions its V actually satisfies. Checks are numerical on
sample grids: a SensitivitySpec holds any V/V' pair of Python callables,
for which no formula gives the growth orders or checks V' against V.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from .errors import SensitivityHypothesisError
from .records import record

__all__ = [
    "SensitivitySpec",
    "saturating_power",
    "linear_saturating",
    "truncated_linear",
    "H1Report",
    "EnvelopeReport",
    "check_hypothesis2",
    "derivative_consistency",
    "check_H1",
    "check_growth_envelope",
    "f_g_diagnostics",
]

# log-spaced sample grid used by the basic positivity / consistency checks
_SAMPLE_GRID = np.logspace(-8.0, 2.0, 201)
FD_STEP = 1e-5  # step of derivative_consistency's central difference
H1_SLACK = 0.05  # check_H1's allowance for fit noise in the exponents


@record(frozen=True)
class SensitivitySpec:
    """A sensitivity function V with its analytic derivative.

    kinks lists points where V' jumps (empty for smooth families); the
    finite-difference consistency check skips their neighborhoods.
    envelope_exponent is the natural power for growth-envelope checks,
    None when there is no canonical choice (a user-supplied V).
    """

    family: str
    V: Callable[[np.ndarray], np.ndarray]
    V_prime: Callable[[np.ndarray], np.ndarray]
    params: tuple = ()
    kinks: tuple = ()
    envelope_exponent: float | None = None

    def describe(self) -> dict:
        return {"family": self.family, "params": list(self.params)}


def saturating_power(alpha: float) -> SensitivitySpec:
    """V(s) = s^alpha / (1 + s^alpha), alpha >= 1. Bounded by 1."""
    if alpha < 1:
        raise ValueError(f"saturating-power exponent must be >= 1, got {alpha}")
    a = float(alpha)

    def V(s):
        sp = np.maximum(np.asarray(s, dtype=float), 0.0)
        p = sp**a
        return p / (1.0 + p)

    def Vp(s):
        sp = np.maximum(np.asarray(s, dtype=float), 0.0)
        p = sp**a
        with np.errstate(divide="ignore", invalid="ignore"):
            out = a * sp ** (a - 1.0) / (1.0 + p) ** 2
        return np.where(sp > 0.0, out, 1.0 if a == 1.0 else 0.0)

    return SensitivitySpec("saturating-power", V, Vp, params=(a,),
                           envelope_exponent=a)


def linear_saturating() -> SensitivitySpec:
    """V(s) = s / (1 + s): saturating_power(1.0) under its own family name."""
    return replace(saturating_power(1.0), family="linear-saturating", params=())


def truncated_linear(v_max: float) -> SensitivitySpec:
    """V(s) = min(s, v_max); derivative jumps at s = v_max."""
    if v_max <= 0:
        raise ValueError(f"truncation level must be positive, got {v_max}")
    m = float(v_max)

    def V(s):
        return np.minimum(np.maximum(np.asarray(s, dtype=float), 0.0), m)

    def Vp(s):
        sp = np.asarray(s, dtype=float)
        return np.where((sp >= 0.0) & (sp < m), 1.0, 0.0)

    return SensitivitySpec("truncated-linear", V, Vp, params=(m,),
                           kinks=(m,), envelope_exponent=1.0)


def check_hypothesis2(spec: SensitivitySpec) -> None:
    """Require V(0) = 0 and V > 0 on the positive sample range."""
    if abs(float(np.asarray(spec.V(0.0)))) > 1e-14:
        raise SensitivityHypothesisError(
            f"{spec.family}: V(0) = {float(np.asarray(spec.V(0.0)))!r}, expected 0"
        )
    vals = np.asarray(spec.V(_SAMPLE_GRID))
    if np.any(vals <= 0.0):
        s_bad = _SAMPLE_GRID[np.argmin(vals)]
        raise SensitivityHypothesisError(
            f"{spec.family}: V is not positive at s = {s_bad:g}"
        )


def derivative_consistency(spec: SensitivitySpec) -> float:
    """Max deviation of a central difference from V' on the sample grid.

    Points within 3*FD_STEP of a declared kink are skipped: the central
    difference straddles the jump there and measures nothing useful.
    """
    s = _SAMPLE_GRID[_SAMPLE_GRID > 3.0 * FD_STEP]  # all families clip at s = 0
    for k in spec.kinks:
        s = s[np.abs(s - k) > 3.0 * FD_STEP]
    approx = (np.asarray(spec.V(s + FD_STEP))
              - np.asarray(spec.V(s - FD_STEP))) / (2.0 * FD_STEP)
    return float(np.abs(approx - np.asarray(spec.V_prime(s))).max())


@record(frozen=True)
class H1Report:
    """Fitted near-zero growth exponents of V and |V'|."""

    k0: float
    j: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {"k0": self.k0, "j": self.j, "pass": self.passed}


def check_H1(spec: SensitivitySpec, d: int, delta: float) -> H1Report:
    """Estimate growth orders of V and |V'| on (0, delta] by log-log
    least squares and compare against the superlinearity thresholds
    k0 > 1 + d/2 and j > d/2, less H1_SLACK for fit noise."""
    if delta <= 0 or delta > 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    s = np.logspace(np.log10(delta / 100.0), np.log10(delta), 50)
    v = np.asarray(spec.V(s))
    if np.any(v <= 0.0):
        raise SensitivityHypothesisError(
            f"{spec.family}: V not positive on ({delta / 100:g}, {delta:g})"
        )
    k0 = float(np.polyfit(np.log(s), np.log(v), 1)[0])
    vp = np.abs(np.asarray(spec.V_prime(s)))
    pos = vp > 0.0
    if not pos.any():
        j = float("inf")  # |V'| identically 0 satisfies any envelope
    else:
        j = float(np.polyfit(np.log(s[pos]), np.log(vp[pos]), 1)[0])
    passed = (k0 > 1.0 + d / 2.0 - H1_SLACK) and (j > d / 2.0 - H1_SLACK)
    return H1Report(k0=k0, j=j, passed=passed)


@record(frozen=True)
class EnvelopeReport:
    """Two-sided power envelope constants c_m s^alpha <= V <= C_M s^alpha."""

    c_m: float
    C_M: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {"c_m": self.c_m, "C_M": self.C_M, "pass": self.passed}


def check_growth_envelope(spec: SensitivitySpec, alpha: float,
                          s_max: float) -> EnvelopeReport:
    """Estimate the envelope constants on (0, s_max].

    The ratio V(s)/s^alpha is sampled on two log grids whose lower ends
    differ by two decades; a c_m (or C_M) that keeps shrinking (growing)
    under that refinement signals a vanishing or unbounded envelope and
    fails the check rather than reporting a grid-dependent constant.
    """
    if alpha < 1:
        raise ValueError(f"envelope exponent must be >= 1, got {alpha}")
    if s_max <= 0:
        raise ValueError(f"s_max must be positive, got {s_max}")

    def ratio_extrema(s_floor):
        s = np.logspace(np.log10(s_floor), np.log10(s_max), 400)
        r = np.asarray(spec.V(s)) / s**alpha
        return float(r.min()), float(r.max())

    c_m, C_M = ratio_extrema(1e-8 * min(1.0, s_max))
    c_m_fine, C_M_fine = ratio_extrema(1e-10 * min(1.0, s_max))
    vanishing = c_m_fine < 0.9 * c_m
    unbounded = C_M_fine > 1.1 * C_M
    if vanishing:
        c_m = 0.0
    if unbounded:
        C_M = float("inf")
    passed = (c_m > 0.0) and np.isfinite(C_M) and not vanishing and not unbounded
    return EnvelopeReport(c_m=c_m, C_M=C_M, passed=passed)


def f_g_diagnostics(spec: SensitivitySpec, delta: float) -> dict:
    """Suprema over (0, delta) of V^2 and of
    2*(s - delta)^2 * V'(s)^2 + 2*V(s)^2, on a 10^4-point grid."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    s = np.linspace(delta / 1e4, delta, 10000)
    v2 = np.asarray(spec.V(s)) ** 2
    vp = np.asarray(spec.V_prime(s))
    g_vals = 2.0 * np.minimum(s - delta, 0.0) ** 2 * vp**2 + 2.0 * v2
    return {"f": float(v2.max()), "g": float(g_vals.max())}
