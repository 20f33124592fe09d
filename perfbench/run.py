#!/usr/bin/env python3
"""angiosim benchmark: one workload through the public CLI entry point.

    python3 perfbench/run.py --workload {late-time,sweep,fine-grid}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; angiosim is imported from its
`src` directory. Every pass is a fresh single-threaded interpreter
(BLAS threads pinned to 1) that runs the workload's CLI operations in
order via `angiosim.cli.main`. Passes repeat until the next one would
end after --seconds. Outputs of every pass are checked against the
theory and against the first pass byte for byte (manifest.json aside).

With --trace 0 the last stdout line reports the end-to-end metrics:
wall_s, setup_s and peak_rss_mb, as medians over the run. The two
timings are rescaled to the host at full speed, by a calibration loop
that each process times around its measured windows. With --trace 1
untraced and traced passes alternate, and the line reports the per-layer
metrics of the traced passes (see README.md). All lines before it are a
readable report: each metric with its unit, the median and the largest
sample with the sample count, failed_frac, and an environment stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

SETUP_PROBES = 5
MIN_PASSES = 2
PASS_TIMEOUT_S = 150.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# A traced pass must account for its wall time to within this share.
SELF_TIME_SLACK = 0.01
# What passrun.calibrate() takes when this host runs at full speed.
# End-to-end timings are reported in seconds at that speed.
CAL_REF_S = 0.11


def _hash_outputs(outdir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _spawn(plan: dict, tag: str) -> dict | None:
    """Run passrun.py on plan in a fresh interpreter; its result or None."""
    plan_path = WORK / f"{tag}.plan.json"
    plan = dict(plan, result=str(WORK / f"{tag}.result.json"), spans=str(WORK / "spans.csv"))
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    # no bytecode is written, so every import compiles angiosim the same way
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", **THREAD_ENV)
    with open(WORK / f"{tag}.log", "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "passrun.py"), str(plan_path), repr(t_spawn)],
                env=env, stdout=log, stderr=log, timeout=PASS_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            return None
    result_path = Path(plan["result"])
    if proc.returncode != 0 or not result_path.exists():
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: angiosim was imported from {result['module']}, not {SRC}")
    return result


class Run:
    """The passes of one benchmark run and their accumulated checks."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.inputs = workloads.make_inputs(workload, seed)
        indir = WORK / "inputs"
        indir.mkdir()
        paths = {}
        for name, doc in self.inputs["configs"].items():
            paths[name] = indir / f"{name}.json"
            paths[name].write_text(json.dumps(doc, indent=1), encoding="utf-8")
        self.outdir = WORK / "out"
        self.plan = {
            "src": str(SRC),
            "ops": [
                [sub, str(paths[cfg]), str(self.outdir / f"{i}-{sub}")]
                for i, (sub, cfg) in enumerate(self.inputs["ops"])
            ],
        }
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None
        # (seconds, calibration made right after set-up in the same process)
        self.setups: list[tuple[float, float]] = []
        self.passes = {"plain": [], "trace": []}
        self.versions: dict = {}

    def probe_setup(self, count: int) -> None:
        """Fresh interpreters that only import angiosim.cli and parse the
        configuration. The first is a warm-up and is not recorded."""
        for k in range(count + 1):
            result = _spawn(dict(self.plan, mode="setup"), f"setup{k}")
            if result is None:
                sys.exit(f"error: setup probe failed; see {WORK / f'setup{k}.log'}")
            if k:
                self.setups.append((result["setup_s"], result["calib_s"][0]))

    def one_pass(self, mode: str) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)
        tag = f"pass{sum(map(len, self.passes.values()))}-{mode}"
        result = _spawn(dict(self.plan, mode=mode), tag)
        sizes = [workloads.op_size(self.workload, self.inputs)] * len(self.plan["ops"])
        self.attempted += sum(sizes)
        if result is None:
            self.failed += sum(sizes)
            self.problems.append(f"{tag}: pass did not complete; see {WORK / (tag + '.log')}")
            return
        self.versions = result["versions"]
        hashes = _hash_outputs(self.outdir)
        if self.reference is None:
            self.reference = hashes
        for i, (op, size) in enumerate(zip(result["ops"], sizes)):
            out = Path(self.plan["ops"][i][2])
            if op["rc"] != 0:
                found = [[f"exit code {op['rc']}"]] * size
            else:
                found = workloads.check(self.workload, self.inputs, i, out)
                prefix = out.name + "/"
                mine = {k: v for k, v in hashes.items() if k.startswith(prefix)}
                ref = {k: v for k, v in self.reference.items() if k.startswith(prefix)}
                if mine != ref:
                    found = [f + ["outputs differ from the first pass"] for f in found]
            for problems in found:
                if problems:
                    self.failed += 1
                    self.problems.extend(f"{tag} {op['subcommand']}: {p}" for p in problems)
        result["output_bytes"] = sum(p.stat().st_size for p in self.outdir.rglob("*")
                                     if p.is_file())
        result["csv_bytes"] = sum(p.stat().st_size for p in self.outdir.rglob("*.csv")
                                  if p.name in ("trajectory.csv", "diagnostics.csv"))
        if mode == "trace":
            t = result["trace"]
            gap = abs(t["self_total_s"] - t["wall_s"])
            if gap > SELF_TIME_SLACK * t["wall_s"] + 0.005:
                self.problems.append(f"{tag}: self times sum to {t['self_total_s']:.4f} s, "
                                     f"traced wall is {t['wall_s']:.4f} s")
            if t["double_wrapped"]:
                self.problems.append(f"{tag}: {t['double_wrapped']} spans nest in a span "
                                     "of their own name")
        if mode == "plain":
            self.setups.append((result["setup_s"], result["calib_s"][0]))
        self.passes[mode].append(result)

    def run_passes(self, seconds: float, trace: bool) -> None:
        start = time.monotonic()
        took: list[float] = []
        while True:
            mode = "trace" if trace and len(took) % 2 == 1 else "plain"
            t = time.monotonic()
            self.one_pass(mode)
            took.append(time.monotonic() - t)
            done = len(took) >= MIN_PASSES
            if done and time.monotonic() - start + statistics.median(took) > seconds:
                return

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _median(values):
    return statistics.median(values) if values else float("nan")


def at_full_speed(seconds: float, *calibrations: float) -> float:
    """Seconds measured on this host, rescaled to the host at full speed.

    The host's speed drifts by tens of percent over tens of seconds, so
    each sample is divided by the calibrations its own process made just
    before and after it, which see the same speed.
    """
    return seconds * CAL_REF_S / statistics.fmean(calibrations)


def end_to_end(run: Run) -> dict:
    plain = run.passes["plain"]
    return {
        "wall_s": ([at_full_speed(p["wall_s"], *p["calib_s"]) for p in plain], "s"),
        "setup_s": ([at_full_speed(*sample) for sample in run.setups], "s"),
        "peak_rss_mb": ([p["peak_rss_mb"] for p in plain], "MiB"),
    }


def per_layer(run: Run) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over the traced passes."""
    traced = run.passes["trace"]
    samples: dict[str, tuple[list, str]] = {}

    def add(name, unit, value):
        samples.setdefault(name, ([], unit))[0].append(value)

    for p in traced:
        t = p["trace"]
        fns = t["functions"]
        for module, names in tracing.REPORTED.items():
            for fn in names:
                name = f"{module}.{fn}"
                f = fns.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
                add(f"{name}.calls", "count", f["calls"])
                add(f"{name}.self_s", "s", f["self_s"])
                add(f"{name}.us_per_call", "us",
                    1e6 * f["incl_s"] / f["calls"] if f["calls"] else 0.0)
        counts = t["counts"]
        steps = counts["dynamics.steps"]
        run_s = fns.get("dynamics.run", {}).get("incl_s", 0.0)
        add("dynamics.steps", "count", steps)
        add("dynamics.snapshots", "count", counts["dynamics.snapshots"])
        add("dynamics.step_us", "us", 1e6 * run_s / steps if steps else 0.0)
        add("dynamics.csv_bytes", "bytes", p["csv_bytes"])
        add("elliptic.newton_steps", "count", counts["elliptic.newton_steps"])
        add("spectral.inverse_iters", "count", counts["spectral.inverse_iters"])
        mu1_calls = fns.get("spectral.compute_mu1", {}).get("calls", 0)
        grids = counts["spectral.mu1_grids"]
        add("spectral.mu1_calls_per_grid", "ratio", mu1_calls / grids if grids else 0.0)
        add("harness.cells_failed", "count", counts["harness.cells_failed"])
        for sub in ("mu1", "steady", "simulate", "classify", "sweep"):
            add(f"cli.{sub}.s", "s", fns.get(f"cli.{sub}", {}).get("incl_s", 0.0))
        add("cli.output_bytes", "bytes", p["output_bytes"])
        add("trace.wall_s", "s", p["wall_s"])
        add("trace.spans", "count", t["spans"])
        add("trace.self_gap_s", "s", abs(t["self_total_s"] - t["wall_s"]))
    # both sides rescaled to full host speed, so host drift cancels
    plain_wall = _median([at_full_speed(p["wall_s"], *p["calib_s"]) for p in run.passes["plain"]])
    traced_wall = _median([at_full_speed(p["wall_s"], *p["calib_s"]) for p in traced])
    samples["trace.overhead_s"] = ([traced_wall - plain_wall], "s")
    absent = sorted({n for p in traced for n in p["trace"]["absent"]})
    return samples, absent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "angiosim" / "cli.py").is_file():
        print(f"error: no angiosim sources under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    run = Run(args.workload, args.seed)
    run.probe_setup(SETUP_PROBES)
    run.run_passes(args.seconds, bool(args.trace))
    if not run.passes["plain"] or (args.trace and not run.passes["trace"]):
        print("error: no pass completed", file=sys.stderr)
        for p in run.problems:
            print(f"  {p}", file=sys.stderr)
        return 1

    if args.trace:
        samples, absent = per_layer(run)
    else:
        samples, absent = end_to_end(run), []
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(run.passes['plain'])} plain, {len(run.passes['trace'])} traced")
    for name, (values, unit) in samples.items():
        metrics[name] = {"value": _median(values), "unit": unit}
        print(f"  {name:44s} {_median(values):14.6g} {unit:6s} "
              f"(median; max {max(values):.6g}; n={len(values)})")
    print(f"  {'failed_frac':44s} {run.failed / run.attempted:14.6g} ratio  "
          f"({run.failed} of {run.attempted} operations)")
    calibrations = [c for _, c in run.setups]
    calibrations += [p["calib_s"][-1] for p in run.passes["plain"]]
    print(f"  host: calibration median {_median(calibrations):.4f} s against {CAL_REF_S} s "
          f"at full speed; unscaled medians: wall_s "
          f"{_median([p['wall_s'] for p in run.passes['plain']]):.4f} s, "
          f"setup_s {_median([s for s, _ in run.setups]):.4f} s")
    if absent:
        print(f"  absent at this commit (read 0): {', '.join(absent)}")
    for p in run.problems:
        print(f"  FAILED {p}")
    stamp = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **run.versions,
        "threads": THREAD_ENV,
    }
    print(f"  env {json.dumps(stamp, sort_keys=True)}")
    (WORK / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "env": stamp, "absent": absent,
         "problems": run.problems, "setups": run.setups,
         "passes": run.passes["plain"],
         "samples": {k: {"values": v, "unit": u} for k, (v, u) in samples.items()}},
        indent=1), encoding="utf-8")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
