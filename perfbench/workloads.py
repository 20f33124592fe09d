"""The three benchmark workloads: their inputs, derived from a seed, and
the correctness checks applied to their outputs.

Every check follows from the theory of the model, so it holds for any
seed: the seed only moves the cosine perturbation of u0 and jitters each
flux strength mu by at most MU_JITTER, which keeps every mu at least
MU1_MARGIN away from the threshold mu1 = tanh(1) and so keeps each
workload's verdicts and step counts.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

MU1 = math.tanh(1.0)  # flux threshold on the unit interval
MU_JITTER = 0.02
MU1_MARGIN = 0.1
MAX_PERTURB = 0.1
TOL = 1e-4

VERDICT_TO_LAM0 = "converged-to-(lambda,0)"
VERDICT_TO_THETA = "converged-to-(0,theta_mu)"

NAMES = ("late-time", "sweep", "fine-grid")


def _base(n: int, mu: float, perturb: float) -> dict:
    return {
        "grid": {"L": 1.0, "n": n},
        "model": {
            "lambda": 0.0,
            "mu": mu,
            "c": 1.0,
            "sensitivity": {"family": "saturating-power", "exponent": 2.0},
        },
        "initial": {"u0": 0.5, "v0": 0.5, "perturb_amplitude": perturb},
    }


def _jitter(rng: random.Random, mu: float) -> float:
    out = mu + rng.uniform(-MU_JITTER, MU_JITTER)
    if abs(out - MU1) < MU1_MARGIN:
        raise ValueError(f"mu = {out} lies within {MU1_MARGIN} of mu1")
    return out


def make_inputs(name: str, seed: int) -> dict:
    """Configurations and the ordered CLI operations of one workload.

    Returns {"configs": {config name: document}, "ops": [(subcommand,
    config name)], "expect": values the checks compare against}.
    """
    rng = random.Random(f"{name}:{seed}")
    perturb = rng.uniform(0.0, MAX_PERTURB)
    if name == "late-time":
        # the supplementary t = 2500 runs: both limits of the paper reached
        configs, ops, mus = {}, [], []
        for k, mu0 in enumerate((0.5, 1.2)):
            mu = _jitter(rng, mu0)
            doc = _base(257, mu, perturb)
            doc["time"] = {"dt": "auto", "t_end": 2500.0, "output_every": 500}
            doc["io"] = {"formats": ["json"]}
            configs[f"classify{k}"] = doc
            ops.append(("classify", f"classify{k}"))
            mus.append(mu)
        return {"configs": configs, "ops": ops, "expect": {"mu": mus}}
    if name == "sweep":
        # twelve short fixed-dt cells straddling mu1
        lams = [0.0, 0.5, 1.0]
        mus = [_jitter(rng, mu) for mu in (0.3, 0.6, 0.9, 1.2)]
        doc = _base(257, 0.5, perturb)
        doc["time"] = {"dt": 0.01, "t_end": 10.0}
        doc["experiment"] = {"lambda_values": lams, "mu_values": mus}
        return {
            "configs": {"sweep": doc},
            "ops": [("sweep", "sweep")],
            "expect": {"lambda": lams, "mu": mus},
        }
    if name == "fine-grid":
        # per-node arithmetic and bytes written dominate, not call overhead
        mu = _jitter(rng, 1.2)
        doc = _base(8193, mu, perturb)
        doc["time"] = {"dt": 1e-4, "t_end": 0.3, "output_every": 300}
        doc["io"] = {"formats": ["csv"]}
        return {
            "configs": {"fine": doc},
            "ops": [("mu1", "fine"), ("steady", "fine"), ("simulate", "fine")],
            "expect": {"mu": mu, "n": 8193, "steps": 3000, "output_every": 300},
        }
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def op_size(name: str, inputs: dict) -> int:
    """Operations an invocation counts for: one, or one per sweep cell."""
    if name == "sweep":
        exp = inputs["expect"]
        return len(exp["lambda"]) * len(exp["mu"])
    return 1


def scalar_alpha(mu: float) -> float:
    """Decay exponent on the unit interval: 1 - s^2 with s*tanh(s) = mu."""
    lo, hi = 0.0, 1.0
    while hi * math.tanh(hi) < mu:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.tanh(mid) < mu:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    return 1.0 - s * s


def _check_late_time(inputs: dict, op_index: int, out: Path) -> list[str]:
    mu = inputs["expect"]["mu"][op_index]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    want = VERDICT_TO_LAM0 if mu < MU1 else VERDICT_TO_THETA
    problems = []
    if report["verdict"] != want:
        problems.append(f"mu={mu}: verdict {report['verdict']!r}, expected {want!r}")
    if report["positivity_ok"] is not True:
        problems.append(f"mu={mu}: positivity_ok is {report['positivity_ok']!r}")
    return problems


def _check_sweep_cells(inputs: dict, out: Path) -> list[list[str]]:
    """One problem list per expected cell, in row-major (lambda, mu) order."""
    exp = inputs["expect"]
    cells = [(lam, mu) for lam in exp["lambda"] for mu in exp["mu"]]
    with open(out / "sweep_summary.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    found: list[list[str]] = []
    for i, (lam, mu) in enumerate(cells):
        if i >= len(rows):
            found.append([f"cell ({lam}, {mu}): missing row"])
            continue
        row = rows[i]
        problems = []
        verdict = row["verdict"]
        if float(row["lambda"]) != lam or float(row["mu"]) != mu:
            problems.append(f"row {i} is ({row['lambda']}, {row['mu']})")
        if verdict.startswith("error:"):
            problems.append(f"{verdict}")
        else:
            if abs(float(row["mu1"]) - MU1) > TOL:
                problems.append(f"mu1 {row['mu1']} not within {TOL} of tanh(1)")
            if abs(float(row["alpha_mu"]) - scalar_alpha(mu)) > TOL:
                problems.append(f"alpha_mu {row['alpha_mu']} off the oracle")
            if verdict == VERDICT_TO_THETA and mu < float(row["mu1"]):
                problems.append(f"{verdict} below mu1")
            if float(row["min_u_late"]) < 0 or float(row["min_v_late"]) < 0:
                problems.append("negative late-time minimum")
        found.append([f"cell ({lam}, {mu}): {p}" for p in problems])
    if len(rows) != len(cells):
        found[-1].append(f"{len(rows)} rows, expected {len(cells)}")
    return found


def _check_fine_grid(inputs: dict, op_index: int, out: Path) -> list[str]:
    exp = inputs["expect"]
    if op_index == 0:
        mu1 = json.loads((out / "mu1.json").read_text(encoding="utf-8"))["mu1"]
        if abs(mu1 - MU1) > TOL:
            return [f"mu1 = {mu1} not within {TOL} of tanh(1)"]
        return []
    if op_index == 1:
        data = np.loadtxt(out / "theta_profile.csv", delimiter=",", skiprows=1)
        x, theta = data[:, 0], data[:, 1]
        exact = (exp["mu"] / MU1 - 1.0) * np.cosh(x) / math.cosh(1.0)
        err = float(np.abs(theta - exact).max()) if len(x) == exp["n"] else math.inf
        if not err <= TOL:
            return [f"theta_profile: {len(x)} rows, max error {err:.3e}"]
        return []
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    steps, every = exp["steps"], exp["output_every"]
    snapshots = 1 + steps // every + (1 if steps % every else 0)
    problems = []
    if data.shape != (snapshots * exp["n"], 4):
        problems.append(f"trajectory.csv shape {data.shape}, expected "
                        f"({snapshots * exp['n']}, 4)")
    elif float(data[:, 2:].min()) < 0.0:
        problems.append(f"trajectory.csv holds a negative density {data[:, 2:].min()}")
    return problems


def check(name: str, inputs: dict, op_index: int, out: Path) -> list[list[str]]:
    """Problems found in the outputs of one successful invocation: one
    list per operation it counts for (see op_size)."""
    try:
        if name == "sweep":
            return _check_sweep_cells(inputs, out)
        if name == "late-time":
            return [_check_late_time(inputs, op_index, out)]
        return [_check_fine_grid(inputs, op_index, out)]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [[f"unreadable output: {exc!r}"]] * op_size(name, inputs)
