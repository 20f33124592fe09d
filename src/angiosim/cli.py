"""Command-line entry point: angiosim SUBCOMMAND [--config C] [--out O],
SUBCOMMAND one of eigen, mu1, steady, simulate, classify, sweep, check-v.
One flat parser takes both options before or after it, so
`angiosim SUBCOMMAND -h` prints the top-level help. Every invocation
writes a manifest (config echo, versions, wall time, output list) into
the output directory. All outputs except the manifest are
byte-deterministic for a fixed configuration: there is no randomness
anywhere in the package.

Exit codes: 0 success, 1 solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config, parse_config
from .dynamics import run, write_diagnostics_csv, write_trajectory_csv
from .errors import ConfigError, SolverError
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


def _scipy_version() -> str:
    """scipy.__version__ from scipy/version.py, loaded by its file path
    without importing scipy; from the imported package if that load fails."""
    try:
        path = Path(importlib.util.find_spec("scipy").submodule_search_locations[0], "version.py")
        spec = importlib.util.spec_from_file_location("_scipy_version", path)
        spec.loader.exec_module(version := importlib.util.module_from_spec(spec))
        return version.version
    except Exception:  # whatever stopped the load, the package knows its version
        import scipy
        return scipy.__version__


_SCIPY_VERSION = _scipy_version()


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
            "scipy": _SCIPY_VERSION,
            "angiosim": __version__,
        },
        "wall_time_s": wall,
        "outputs": sorted(outputs),
        "status": status,
    }
    _json_dump(manifest, outdir / "manifest.json")


def _cmd_eigen(cfg: RunConfig, exp: dict, outdir: Path) -> list[str]:
    grid = cfg.grid()
    mu_values = exp.get("mu_values") or [0.1 * k for k in range(11)]
    with open(outdir / "alpha_table.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("mu,alpha\n")
        for mu in mu_values:
            fh.write(f"{mu!r},{alpha_of_mu(grid, mu)!r}\n")
    return ["alpha_table.csv"]


def _cmd_mu1(cfg: RunConfig, exp: dict, outdir: Path) -> list[str]:
    value = compute_mu1(cfg.grid())
    print(repr(value))
    _json_dump({"mu1": value, "L": cfg.L, "n": cfg.n}, outdir / "mu1.json")
    return ["mu1.json"]


def _cmd_steady(cfg: RunConfig, exp: dict, outdir: Path) -> list[str]:
    theta = theta_mu(cfg.grid(), cfg.mu)
    with open(outdir / "theta_profile.csv", "w", encoding="utf-8", newline="") as fh:
        field_to_csv(theta, fh)
    return ["theta_profile.csv"]


def _run_trajectory(cfg: RunConfig):
    u0, v0 = cfg.initial_data()
    return run(u0, v0, cfg.params(), cfg.control())


def _cmd_simulate(cfg: RunConfig, exp: dict, outdir: Path) -> list[str]:
    traj = _run_trajectory(cfg)
    outputs = []
    if "csv" in cfg.formats:
        with open(outdir / "trajectory.csv", "w", encoding="utf-8", newline="") as fh:
            write_trajectory_csv(traj, fh)
        with open(outdir / "diagnostics.csv", "w", encoding="utf-8", newline="") as fh:
            write_diagnostics_csv(traj, fh)
        outputs += ["trajectory.csv", "diagnostics.csv"]
    return outputs


def _cmd_classify(cfg: RunConfig, exp: dict, outdir: Path) -> list[str]:
    traj = _run_trajectory(cfg)
    report = classify_regime(traj, **exp)
    _json_dump(report.to_json_dict(), outdir / "report.json")
    outputs = ["report.json"]
    if "csv" in cfg.formats:
        with open(outdir / "diagnostics.csv", "w", encoding="utf-8", newline="") as fh:
            write_diagnostics_csv(traj, fh)
        outputs.append("diagnostics.csv")
    return outputs


def _cmd_sweep(cfg: RunConfig, exp: dict, outdir: Path) -> list[str]:
    u0, v0 = cfg.initial_data()
    rows, reports = sweep(cfg.params(), cfg.control(), u0, v0, **exp)
    outputs = []
    with open(outdir / "sweep_summary.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row[c]) for c in SWEEP_COLUMNS) + "\n")
    outputs.append("sweep_summary.csv")
    for idx, report in enumerate(reports):
        i, j = divmod(idx, len(exp["mu_values"]))
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


def _cmd_check_v(cfg: RunConfig, exp: dict, outdir: Path) -> list[str]:
    d = exp.get("dimension", 1)
    delta = exp.get("delta", 0.1)
    spec = cfg.sensitivity()
    alpha = exp.get("envelope_alpha", spec.envelope_exponent)
    s_max = exp.get("s_max", 1.0)
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
    parser = argparse.ArgumentParser(prog="angiosim", description="Numerical laboratory for a "
                                     "chemotaxis model with nonlinear flux at the tumor boundary")
    parser.add_argument("subcommand", choices=_DISPATCH)
    parser.add_argument("--config", help="path to a JSON configuration file")
    parser.add_argument("--out", help="output directory (overrides io.outdir)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        cfg = load_config(args.config) if args.config else parse_config("{}")
        if args.out == "":  # as io.outdir, an empty directory name is refused
            raise ConfigError("--out must be a nonempty string, got ''")
        if args.out:
            cfg.outdir = args.out
        exp = cfg.experiment_values(args.subcommand)
        outdir = Path(cfg.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        outputs = _DISPATCH[args.subcommand](cfg, exp, outdir)
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
