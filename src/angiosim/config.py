"""Run configuration: a single JSON document, strictly validated.

Unknown keys are rejected and every validation error names the key it
refers to, so a typo fails loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ModelParams, StepControl
from .errors import ConfigError
from .grid import Field, Grid1D, make_field, make_grid
from .sensitivity import (
    SensitivitySpec,
    linear_saturating,
    saturating_power,
    truncated_linear,
)

__all__ = ["RunConfig", "parse_config", "load_config"]

_SENSITIVITY_FAMILIES = ("saturating-power", "linear-saturating", "truncated-linear")


@dataclass
class RunConfig:
    """Validated configuration with all defaults filled."""

    L: float = 1.0
    n: int = 513
    lam: float = 0.0
    mu: float = 0.5
    c: float = 1.0
    family: str = "saturating-power"
    exponent: float = 2.0
    v_max: float = 1.0
    dt: float | None = None  # None = auto CFL
    t_end: float = 40.0
    output_every: int = 10
    dt_safety: float = 0.4
    u0: float = 0.5
    v0: float = 0.5
    perturb_amplitude: float = 0.0
    outdir: str = "out"
    formats: tuple = ("csv", "json")
    experiment: dict = field(default_factory=dict)

    def grid(self) -> Grid1D:
        return make_grid(self.L, self.n)

    def sensitivity(self) -> SensitivitySpec:
        if self.family == "saturating-power":
            return saturating_power(self.exponent)
        if self.family == "linear-saturating":
            return linear_saturating()
        return truncated_linear(self.v_max)

    def params(self) -> ModelParams:
        return ModelParams(lam=self.lam, mu=self.mu, c=self.c, V=self.sensitivity())

    def control(self) -> StepControl:
        return StepControl(
            t_end=self.t_end,
            dt=self.dt,
            output_every=self.output_every,
            dt_safety=self.dt_safety,
        )

    def initial_data(self, grid: Grid1D) -> tuple[Field, Field]:
        """Constant positive profiles; the optional perturbation adds a
        fixed cosine hump (1 - cos(2 pi x / L))/2 to u0. No randomness."""
        u = np.full(grid.n, self.u0)
        if self.perturb_amplitude > 0:
            u = u + self.perturb_amplitude * 0.5 * (
                1.0 - np.cos(2.0 * np.pi * grid.nodes / grid.L)
            )
        v = np.full(grid.n, self.v0)
        return make_field(grid, u), make_field(grid, v)

    def echo(self) -> dict:
        """Full configuration in the on-disk document shape."""
        return {
            "grid": {"L": self.L, "n": self.n},
            "model": {
                "lambda": self.lam,
                "mu": self.mu,
                "c": self.c,
                "sensitivity": {
                    "family": self.family,
                    "exponent": self.exponent,
                    "v_max": self.v_max,
                },
            },
            "time": {
                "dt": "auto" if self.dt is None else self.dt,
                "t_end": self.t_end,
                "output_every": self.output_every,
                "dt_safety": self.dt_safety,
            },
            "initial": {
                "u0": self.u0,
                "v0": self.v0,
                "perturb_amplitude": self.perturb_amplitude,
            },
            "io": {"outdir": self.outdir, "formats": list(self.formats)},
            "experiment": dict(self.experiment),
        }


def _need_number(section: str, key: str, value, minimum=None,
                 maximum=None, strict_min=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    if minimum is not None and (x <= minimum if strict_min else x < minimum):
        op = ">" if strict_min else ">="
        raise ConfigError(f"{section}.{key} must be {op} {minimum}, got {value!r}")
    if maximum is not None and x > maximum:
        raise ConfigError(f"{section}.{key} must be <= {maximum}, got {value!r}")
    return x


def _need_int(section: str, key: str, value, minimum) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{section}.{key} must be >= {minimum}, got {value!r}")
    return value


def _reject_unknown(section: str, given: dict, allowed) -> None:
    unknown = set(given) - set(allowed)
    if unknown:
        name = sorted(unknown)[0]
        where = f"{section}.{name}" if section else name
        raise ConfigError(f"unknown configuration key {where!r}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"configuration is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    _reject_unknown("", doc, ("grid", "model", "time", "initial", "io", "experiment"))
    cfg = RunConfig()

    grid_sec = doc.get("grid", {})
    _reject_unknown("grid", grid_sec, ("L", "n"))
    if "L" in grid_sec:
        cfg.L = _need_number("grid", "L", grid_sec["L"], minimum=0, strict_min=True)
    if "n" in grid_sec:
        cfg.n = _need_int("grid", "n", grid_sec["n"], minimum=3)

    model = doc.get("model", {})
    _reject_unknown("model", model, ("lambda", "mu", "c", "sensitivity"))
    if "lambda" in model:
        cfg.lam = _need_number("model", "lambda", model["lambda"])
    if "mu" in model:
        cfg.mu = _need_number("model", "mu", model["mu"], minimum=0)
    if "c" in model:
        cfg.c = _need_number("model", "c", model["c"], minimum=0)
    sens_sec = model.get("sensitivity", {})
    _reject_unknown("model.sensitivity", sens_sec, ("family", "exponent", "v_max"))
    if "family" in sens_sec:
        fam = sens_sec["family"]
        if fam not in _SENSITIVITY_FAMILIES:
            raise ConfigError(
                f"model.sensitivity.family must be one of {_SENSITIVITY_FAMILIES}, "
                f"got {fam!r}"
            )
        cfg.family = fam
    if "exponent" in sens_sec:
        cfg.exponent = _need_number(
            "model.sensitivity", "exponent", sens_sec["exponent"], minimum=1
        )
    if "v_max" in sens_sec:
        cfg.v_max = _need_number(
            "model.sensitivity", "v_max", sens_sec["v_max"], minimum=0, strict_min=True
        )

    time_sec = doc.get("time", {})
    _reject_unknown("time", time_sec, ("dt", "t_end", "output_every", "dt_safety"))
    if "dt" in time_sec:
        dt = time_sec["dt"]
        if dt == "auto":
            cfg.dt = None
        else:
            cfg.dt = _need_number("time", "dt", dt, minimum=0, strict_min=True)
    if "t_end" in time_sec:
        cfg.t_end = _need_number(
            "time", "t_end", time_sec["t_end"], minimum=0, strict_min=True
        )
    if "output_every" in time_sec:
        cfg.output_every = _need_int("time", "output_every", time_sec["output_every"], 1)
    if "dt_safety" in time_sec:
        cfg.dt_safety = _need_number(
            "time", "dt_safety", time_sec["dt_safety"],
            minimum=0, maximum=1, strict_min=True,
        )

    initial = doc.get("initial", {})
    _reject_unknown("initial", initial, ("u0", "v0", "perturb_amplitude"))
    if "u0" in initial:
        cfg.u0 = _need_number("initial", "u0", initial["u0"], minimum=0)
    if "v0" in initial:
        cfg.v0 = _need_number("initial", "v0", initial["v0"], minimum=0)
    if "perturb_amplitude" in initial:
        cfg.perturb_amplitude = _need_number(
            "initial", "perturb_amplitude", initial["perturb_amplitude"], minimum=0
        )

    io_sec = doc.get("io", {})
    _reject_unknown("io", io_sec, ("outdir", "formats"))
    if "outdir" in io_sec:
        if not isinstance(io_sec["outdir"], str) or not io_sec["outdir"]:
            raise ConfigError(f"io.outdir must be a nonempty string, got {io_sec['outdir']!r}")
        cfg.outdir = io_sec["outdir"]
    if "formats" in io_sec:
        fmts = io_sec["formats"]
        if (not isinstance(fmts, list) or not fmts
                or any(f not in ("csv", "json") for f in fmts)):
            raise ConfigError(
                f"io.formats must be a nonempty list drawn from ['csv', 'json'], got {fmts!r}"
            )
        cfg.formats = tuple(fmts)

    experiment = doc.get("experiment", {})
    if not isinstance(experiment, dict):
        raise ConfigError("experiment must be an object")
    cfg.experiment = dict(experiment)
    return cfg


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
