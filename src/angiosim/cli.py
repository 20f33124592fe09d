"""Command-line entry point.

Subcommands: eigen, mu1, steady, simulate, classify, sweep, check-v.
Every invocation writes a manifest (config echo, versions, wall time,
output list) into the output directory. All outputs except the manifest
are byte-deterministic for a fixed configuration: there is no randomness
anywhere in the package.

Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import RunConfig, _need_number, load_config, parse_config
from .dynamics import run, write_diagnostics_csv, write_trajectory_csv
from .errors import BelowThresholdError, ConfigError, SolverError
from .grid import field_to_csv
from .harness import SWEEP_COLUMNS, classify_regime, sweep
from .sensitivity import (
    check_H1,
    check_growth_envelope,
    check_hypothesis2,
    derivative_consistency,
    f_g_diagnostics,
)
from .spectral import alpha_of_mu, compute_mu1
from .steady import theta_mu

SUBCOMMANDS = ("eigen", "mu1", "steady", "simulate", "classify", "sweep", "check-v")

_EXPERIMENT_KEYS = {
    "eigen": {"mu_values"},
    "mu1": set(),
    "steady": set(),
    "simulate": set(),
    "classify": {"tau", "fit_window", "threshold"},
    "sweep": {"lambda_values", "mu_values"},
    "check-v": {"dimension", "delta", "envelope_alpha", "s_max"},
}


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(outdir: Path, subcommand: str, cfg: RunConfig,
                    outputs: list[str], status: str, wall: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": cfg.echo(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "angiosim": __version__,
        },
        "wall_time_s": wall,
        "outputs": sorted(outputs),
        "status": status,
    }
    _json_dump(manifest, outdir / "manifest.json")


def _float_list(section: str, key: str, raw) -> list[float]:
    if (not isinstance(raw, list) or not raw
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in raw)):
        raise ConfigError(f"{section}.{key} must be a nonempty list of numbers")
    return [float(x) for x in raw]


def _cmd_eigen(cfg: RunConfig, outdir: Path) -> list[str]:
    grid = cfg.grid()
    mu_values = cfg.experiment.get("mu_values")
    if mu_values is None:
        mu_values = [0.1 * k for k in range(11)]
    else:
        mu_values = _float_list("experiment", "mu_values", mu_values)
    with open(outdir / "alpha_table.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("mu,alpha\n")
        for mu in mu_values:
            fh.write(f"{mu!r},{alpha_of_mu(grid, mu)!r}\n")
    return ["alpha_table.csv"]


def _cmd_mu1(cfg: RunConfig, outdir: Path) -> list[str]:
    value = compute_mu1(cfg.grid())
    print(repr(value))
    _json_dump({"mu1": value, "L": cfg.L, "n": cfg.n}, outdir / "mu1.json")
    return ["mu1.json"]


def _cmd_steady(cfg: RunConfig, outdir: Path) -> list[str]:
    theta = theta_mu(cfg.grid(), cfg.mu)
    with open(outdir / "theta_profile.csv", "w", encoding="utf-8", newline="") as fh:
        field_to_csv(theta, fh)
    return ["theta_profile.csv"]


def _run_trajectory(cfg: RunConfig):
    grid = cfg.grid()
    u0, v0 = cfg.initial_data(grid)
    return grid, run(u0, v0, cfg.params(), cfg.control())


def _cmd_simulate(cfg: RunConfig, outdir: Path) -> list[str]:
    grid, traj = _run_trajectory(cfg)
    outputs = []
    if "csv" in cfg.formats:
        with open(outdir / "trajectory.csv", "w", encoding="utf-8", newline="") as fh:
            write_trajectory_csv(traj, fh)
        try:
            theta = theta_mu(grid, cfg.mu)
        except BelowThresholdError:
            theta = None
        with open(outdir / "diagnostics.csv", "w", encoding="utf-8", newline="") as fh:
            write_diagnostics_csv(traj, fh, theta=theta)
        outputs += ["trajectory.csv", "diagnostics.csv"]
    return outputs


def _cmd_classify(cfg: RunConfig, outdir: Path) -> list[str]:
    exp = cfg.experiment
    kwargs = {}
    if "threshold" in exp:
        kwargs["threshold"] = _need_number("experiment", "threshold", exp["threshold"])
    if "tau" in exp:
        kwargs["audit_tau"] = _need_number("experiment", "tau", exp["tau"])
    if exp.get("fit_window") is not None:
        w = _float_list("experiment", "fit_window", exp["fit_window"])
        if len(w) != 2:
            raise ConfigError("experiment.fit_window must hold exactly two numbers")
        kwargs["fit_window"] = (w[0], w[1])
    grid, traj = _run_trajectory(cfg)
    report = classify_regime(traj, cfg.params(), grid, **kwargs)
    _json_dump(report.to_json_dict(), outdir / "report.json")
    outputs = ["report.json"]
    if "csv" in cfg.formats:
        with open(outdir / "diagnostics.csv", "w", encoding="utf-8", newline="") as fh:
            write_diagnostics_csv(traj, fh, theta=report.theta)
        outputs.append("diagnostics.csv")
    return outputs


def _cmd_sweep(cfg: RunConfig, outdir: Path) -> list[str]:
    grid = cfg.grid()
    exp = cfg.experiment
    if "lambda_values" not in exp or "mu_values" not in exp:
        raise ConfigError(
            "experiment.lambda_values and experiment.mu_values are required for sweep"
        )
    lams = _float_list("experiment", "lambda_values", exp["lambda_values"])
    mus = [_need_number("experiment", "mu_values", mu, minimum=0)
           for mu in _float_list("experiment", "mu_values", exp["mu_values"])]
    u0, v0 = cfg.initial_data(grid)
    rows, reports = sweep(grid, cfg.params(), cfg.control(), u0, v0, lams, mus)
    outputs = []
    with open(outdir / "sweep_summary.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row[c]) for c in SWEEP_COLUMNS) + "\n")
    outputs.append("sweep_summary.csv")
    for idx, report in enumerate(reports):
        i, j = divmod(idx, len(mus))
        name = f"cell_{i}_{j}.json"
        if report is not None:
            _json_dump(report.to_json_dict(), outdir / name)
        else:
            _json_dump({"error": rows[idx]["verdict"]}, outdir / name)
        outputs.append(name)
    return outputs


def _csv_cell(value) -> str:
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return repr(value)


def _cmd_check_v(cfg: RunConfig, outdir: Path) -> list[str]:
    exp = cfg.experiment
    d = exp.get("dimension", 1)
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ConfigError(f"experiment.dimension must be a positive integer, got {d!r}")
    delta = _need_number("experiment", "delta", exp.get("delta", 0.1),
                         minimum=0, strict_min=True, maximum=1)
    spec = cfg.sensitivity()
    alpha = exp.get("envelope_alpha", spec.envelope_exponent)
    if alpha is not None:
        alpha = _need_number("experiment", "envelope_alpha", alpha, minimum=1)
    s_max = _need_number("experiment", "s_max", exp.get("s_max", 1.0),
                         minimum=0, strict_min=True)
    report: dict = {"sensitivity": spec.describe(), "dimension": d, "delta": delta}
    try:
        check_hypothesis2(spec)
        report["hypothesis2"] = {"pass": True}
    except SolverError as exc:
        report["hypothesis2"] = {"pass": False, "reason": str(exc)}
    report["derivative_consistency"] = derivative_consistency(spec)
    try:
        report["H1"] = check_H1(spec, d=d, delta=delta).to_json_dict()
    except SolverError as exc:
        report["H1"] = {"pass": False, "reason": str(exc)}
    if alpha is not None:
        report["envelope"] = check_growth_envelope(spec, alpha, s_max).to_json_dict()
        report["envelope"]["alpha"] = alpha
        report["envelope"]["s_max"] = s_max
    report["f_g"] = f_g_diagnostics(spec, delta)
    _json_dump(report, outdir / "sensitivity_report.json")
    return ["sensitivity_report.json"]


_DISPATCH = {
    "eigen": _cmd_eigen,
    "mu1": _cmd_mu1,
    "steady": _cmd_steady,
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "check-v": _cmd_check_v,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="angiosim",
        description="Numerical laboratory for a chemotaxis model with "
        "nonlinear flux at the tumor boundary",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None,
                        help="path to a JSON configuration file")
        sp.add_argument("--out", type=str, default=None,
                        help="output directory (overrides io.outdir)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        cfg = load_config(args.config) if args.config else parse_config("{}")
        if args.out:
            cfg.outdir = args.out
        allowed = _EXPERIMENT_KEYS[args.subcommand]
        unknown = set(cfg.experiment) - allowed
        if unknown:
            raise ConfigError(
                f"unknown configuration key 'experiment.{sorted(unknown)[0]}' "
                f"for subcommand {args.subcommand!r}"
            )
        outdir = Path(cfg.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        outputs = _DISPATCH[args.subcommand](cfg, outdir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        _write_manifest(outdir, args.subcommand, cfg, [], "error",
                        time.perf_counter() - start)
        return 1
    _write_manifest(outdir, args.subcommand, cfg, outputs, "ok",
                    time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
