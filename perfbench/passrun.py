"""One benchmark pass in a fresh interpreter.

    python3 passrun.py PLAN.json T_SPAWN

PLAN names the source tree to import angiosim from, the CLI operations
to run in order and the file to write the result to. T_SPAWN is the
parent's time.monotonic() just before it started this process, so that
setup_s covers interpreter start, the import of angiosim.cli and the
parsing of the first configuration. In mode "setup" the pass stops
there; in mode "trace" every operation runs under the span tracer.

Outside the timed windows the process times calibrate(), once after
set-up and once after the last operation, so that the parent can tell
how fast the host ran.
"""

import gc
import json
import resource
import sys
import time
import traceback


def calibrate() -> float:
    """Seconds for a fixed loop of Python calls, small numpy operations and
    banded solves, the mix the stepping loops spend their time on, using
    no angiosim code."""
    import numpy as np
    import scipy.linalg

    n = 257
    ab = np.array([[-1.0] * n, [3.0] * n, [-1.0] * n])
    x = np.linspace(0.0, 1.0, n)
    # whatever objects the operations left alive must not slow the loop
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3000):
            d = np.diff(x)
            up = np.where(d > 0.0, x[:-1], x[1:])
            y = scipy.linalg.solve_banded((1, 1), ab, x + 0.001 * float(up.sum()))
            float(np.abs(y).max())
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    plan_path, t_spawn = sys.argv[1], float(sys.argv[2])
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import angiosim.cli as cli
    from angiosim.config import load_config

    load_config(plan["ops"][0][1])
    result = {"setup_s": time.monotonic() - t_spawn, "module": cli.__file__}
    result["calib_s"] = [calibrate()]

    if plan["mode"] != "setup":
        tracer = None
        if plan["mode"] == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        ops = []
        first = time.perf_counter()
        for sub, config, out in plan["ops"]:
            argv = [sub, "--config", config, "--out", out]
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.root(f"cli.{sub}", cli.main, argv)
            except Exception:  # an uncaught error fails this operation only
                traceback.print_exc()
                rc = "exception"
            ops.append({"subcommand": sub, "rc": rc})
        wall = time.perf_counter() - first
        result["calib_s"].append(calibrate())

        result["wall_s"] = wall
        result["ops"] = ops
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["trace"] = tracer.summary(wall)
            tracer.write_spans(plan["spans"])

    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
