"""Run configuration: a single JSON document, strictly validated.

This module is the only one that knows the document. _SCHEMA lists every
section and key with its RunConfig attribute and its check, and
_EXPERIMENT_SCHEMA lists, for each CLI subcommand, the `experiment` keys
it accepts and their checks. One walker over these tables parses the
document: every section must be an object, unknown keys are rejected,
and each check runs once. RunConfig.echo() is built from the same table.
Every validation error names the key it refers to, so a typo fails
loudly instead of silently running defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import field

import numpy as np

from .dynamics import ModelParams, StepControl
from .errors import ConfigError
from .grid import Field, Grid1D, make_field, make_grid
from .records import record
from .sensitivity import (
    SensitivitySpec,
    linear_saturating,
    saturating_power,
    truncated_linear,
)

__all__ = ["RunConfig", "parse_config", "load_config"]


@record
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
    dt: float | None = None  # None = auto dt
    t_end: float = 40.0
    output_every: int = 10
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
        return StepControl(t_end=self.t_end, dt=self.dt, output_every=self.output_every)

    def initial_data(self) -> tuple[Field, Field]:
        """Constant positive profiles on self.grid(); the optional
        perturbation adds a fixed cosine hump (1 - cos(2 pi x / L))/2 to
        u0. No randomness."""
        grid = self.grid()
        u = np.full(grid.n, self.u0)
        if self.perturb_amplitude > 0:
            u = u + self.perturb_amplitude * 0.5 * (
                1.0 - np.cos(2.0 * np.pi * grid.nodes / grid.L)
            )
        v = np.full(grid.n, self.v0)
        return make_field(grid, u), make_field(grid, v)

    def experiment_values(self, subcommand: str) -> dict:
        """The checked `experiment` values of subcommand, keyed by the names
        it reads them under; ConfigError for an unknown or missing key."""
        values = _walk(self.experiment, _EXPERIMENT_SCHEMA[subcommand], "experiment", {})
        for key in _REQUIRED_EXPERIMENT.get(subcommand, ()):
            if key not in self.experiment:
                raise ConfigError(f"experiment.{key} is required for {subcommand}")
        return values

    def echo(self) -> dict:
        """Full configuration in the on-disk document shape."""

        def document(schema: dict) -> dict:
            return {key: document(entry) if isinstance(entry, dict) else getattr(self, entry[0])
                    for key, entry in schema.items()}

        # the JSON round trip copies every value and turns tuples into lists
        doc = json.loads(json.dumps(document(_SCHEMA)))
        if self.dt is None:
            doc["time"]["dt"] = "auto"
        return doc


def _number(minimum=None, maximum=None, strict_min=False):
    """Check for a finite JSON number within the given bounds."""

    def check(where: str, value) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        x = float(value)
        if not math.isfinite(x):
            raise ConfigError(f"{where} must be finite, got {value!r}")
        if minimum is not None and (x <= minimum if strict_min else x < minimum):
            op = ">" if strict_min else ">="
            raise ConfigError(f"{where} must be {op} {minimum}, got {value!r}")
        if maximum is not None and x > maximum:
            raise ConfigError(f"{where} must be <= {maximum}, got {value!r}")
        return x

    return check


_POSITIVE = _number(minimum=0, strict_min=True)
_NONNEGATIVE = _number(minimum=0)


def _check(ok, expected: str):
    """Check that passes on a value for which ok(value) holds."""

    def check(where: str, value):
        if not ok(value):
            raise ConfigError(f"{where} must be {expected}, got {value!r}")
        return value

    return check


def _integer(minimum: int):
    return _check(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= minimum,
                  f"an integer >= {minimum}")


def _one_of(*choices):
    return _check(lambda v: v in choices, f"one of {list(choices)}")


def _list_of(item, length: int | None):
    """Check for a nonempty list, of exactly length entries unless length
    is None, whose entries each pass item; returns a tuple."""

    def check(where: str, value) -> tuple:
        if not isinstance(value, list) or not value or length not in (None, len(value)):
            size = "a nonempty" if length is None else f"a {length}-entry"
            raise ConfigError(f"{where} must be {size} list, got {value!r}")
        return tuple(item(where, x) for x in value)

    return check


def _or_none(check):
    """Let null through as None, else check."""
    return lambda where, value: None if value is None else check(where, value)


_OBJECT = _check(lambda v: isinstance(v, dict), "an object")


def _time_window(where: str, value) -> tuple:
    """Check for a list [t0, t1] of times with 0 <= t0 < t1."""
    t0, t1 = _list_of(_NONNEGATIVE, 2)(where, value)
    if not t0 < t1:
        raise ConfigError(f"{where} must satisfy t0 < t1, got {value!r}")
    return t0, t1


# section -> key -> (RunConfig attribute, check); a nested dict is a subsection.
_SCHEMA = {
    "grid": {"L": ("L", _POSITIVE), "n": ("n", _integer(3))},
    "model": {
        "lambda": ("lam", _number()),
        "mu": ("mu", _NONNEGATIVE),
        "c": ("c", _NONNEGATIVE),
        "sensitivity": {
            "family": ("family", _one_of(
                "saturating-power", "linear-saturating", "truncated-linear")),
            "exponent": ("exponent", _number(minimum=1)),
            "v_max": ("v_max", _POSITIVE),
        },
    },
    "time": {
        "dt": ("dt", lambda where, value: None if value == "auto" else _POSITIVE(where, value)),
        "t_end": ("t_end", _POSITIVE),
        "output_every": ("output_every", _integer(1)),
    },
    "initial": {
        "u0": ("u0", _NONNEGATIVE),
        "v0": ("v0", _NONNEGATIVE),
        "perturb_amplitude": ("perturb_amplitude", _NONNEGATIVE),
    },
    "io": {
        "outdir": ("outdir", _check(lambda v: isinstance(v, str) and v != "",
                                    "a nonempty string")),
        "formats": ("formats", _list_of(_one_of("csv", "json"), None)),
    },
    # checked per subcommand by RunConfig.experiment_values
    "experiment": ("experiment", _OBJECT),
}

# subcommand -> experiment key -> (name the subcommand reads it under, check).
# A null fit_window or eigen mu_values selects the default; a null
# envelope_alpha skips the envelope check.
_EXPERIMENT_SCHEMA = {
    "eigen": {"mu_values": ("mu_values", _or_none(_list_of(_number(), None)))},
    "mu1": {},
    "steady": {},
    "simulate": {},
    "classify": {
        "tau": ("audit_tau", _NONNEGATIVE),
        "fit_window": ("fit_window", _or_none(_time_window)),
        "threshold": ("threshold", _POSITIVE),
    },
    "sweep": {
        "lambda_values": ("lambda_values", _list_of(_number(), None)),
        "mu_values": ("mu_values", _list_of(_NONNEGATIVE, None)),
    },
    "check-v": {
        "dimension": ("dimension", _integer(1)),
        "delta": ("delta", _number(minimum=0, maximum=1, strict_min=True)),
        "envelope_alpha": ("envelope_alpha", _or_none(_number(minimum=1))),
        "s_max": ("s_max", _POSITIVE),
    },
}
_REQUIRED_EXPERIMENT = {"sweep": ("lambda_values", "mu_values")}


def _walk(node, schema: dict, where: str, values: dict) -> dict:
    """Check node against schema, storing each checked value in values
    under its attribute name; returns values."""
    _OBJECT(where or "configuration document", node)
    prefix = f"{where}." if where else ""
    unknown = sorted(set(node) - set(schema))
    if unknown:
        raise ConfigError(f"unknown configuration key {prefix + unknown[0]!r}; "
                          f"{where or 'the document'} takes {sorted(schema)}")
    for key, entry in schema.items():
        if key in node and isinstance(entry, dict):
            _walk(node[key], entry, prefix + key, values)
        elif key in node:
            attr, check = entry
            values[attr] = check(prefix + key, node[key])
    return values


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"configuration is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from exc
    return RunConfig(**_walk(doc, _SCHEMA, "", {}))


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
