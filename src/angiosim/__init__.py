"""angiosim: a 1D numerical laboratory for a chemotaxis model of
tumor-induced angiogenesis with nonlinear flux at the tumor boundary.

The package computes the spectral threshold of the boundary flux, the
steady states it separates, and time-integrates the coupled dynamics to
verify the predicted long-time limits.
"""

__version__ = "0.1.0"

from .dynamics import ModelParams, SimState, StepControl, Trajectory, cfl_dt, run
from .grid import Field, Grid1D, const_field, make_field, make_grid
from .harness import DecayFit, RegimeReport, classify_regime, fit_decay, mass_audit, sweep
from .sensitivity import SensitivitySpec, linear_saturating, saturating_power, truncated_linear
from .spectral import EigenResult, alpha_of_mu, compute_mu1, principal_eigen
from .steady import theta_mu

__all__ = [
    "__version__",
    "Field", "Grid1D", "make_grid", "make_field", "const_field",
    "EigenResult", "principal_eigen", "alpha_of_mu", "compute_mu1",
    "theta_mu",
    "SensitivitySpec", "saturating_power", "linear_saturating", "truncated_linear",
    "ModelParams", "SimState", "StepControl", "Trajectory", "cfl_dt", "run",
    "DecayFit", "RegimeReport", "fit_decay", "mass_audit", "classify_regime", "sweep",
]
