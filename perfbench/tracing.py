"""Span tracer for the traced benchmark pass.

Wraps every public function of each angiosim module, from outside the
package, at every module attribute it is looked up through (so
`angiosim.cli.run` and `angiosim.harness.run` both reach the wrapper of
`angiosim.dynamics.run`). Each call records a span: id, name, start,
end, parent span and operation id. An operation is one CLI invocation,
or one cell of a sweep. Self time is a span's duration minus the time
its direct child spans cover.

`scipy.linalg.solve_banded` is wrapped too, but only calls made from a
dynamics span are recorded (as `dynamics.solve_banded`); elsewhere the
call stays in its caller's self time.

A reported name that does not exist at the traced commit is listed as
absent and reads 0, instead of failing the pass.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from collections import defaultdict

MODULES = ("grid", "elliptic", "spectral", "steady", "sensitivity",
           "dynamics", "harness", "config")

# Functions whose calls, self time and time per call are reported.
REPORTED = {
    "dynamics": ("run", "cfl_dt", "chemotaxis_divergence", "solve_banded",
                 "write_trajectory_csv", "write_diagnostics_csv"),
    "grid": ("make_field", "integrate", "norm", "field_to_csv"),
    "elliptic": ("assemble", "solve_linear", "flux_residual", "solve_nonlinear_bvp"),
    "spectral": ("compute_mu1", "principal_eigen"),
    "steady": ("theta_mu",),
    "sensitivity": ("check_hypothesis2", "check_H1", "check_growth_envelope"),
    "harness": ("classify_regime", "sweep", "fit_decay", "mass_audit"),
    "config": ("load_config",),
}

# Counts read from what the traced calls return.
COUNTS = ("dynamics.steps", "dynamics.snapshots", "spectral.inverse_iters",
          "harness.cells_failed")


def _after_run(tracer, args, result):
    steps = getattr(result, "steps_taken", None)
    states = getattr(result, "states", None)
    if steps is None:
        tracer.missing.add("dynamics.steps")
    else:
        tracer.counts["dynamics.steps"] += steps
    if states is None:
        tracer.missing.add("dynamics.snapshots")
    else:
        tracer.counts["dynamics.snapshots"] += len(states)


def _after_principal_eigen(tracer, args, result):
    iterations = getattr(result, "iterations", None)
    if iterations is None:
        tracer.missing.add("spectral.inverse_iters")
    else:
        tracer.counts["spectral.inverse_iters"] += iterations


def _after_compute_mu1(tracer, args, result):
    grid = args[0] if args else None
    tracer.mu1_grids.add((getattr(grid, "L", None), getattr(grid, "n", None)))


def _after_sweep(tracer, args, result):
    rows = result[0]
    tracer.counts["harness.cells_failed"] += sum(
        str(row.get("verdict", "")).startswith("error") for row in rows
    )


HOOKS = {
    "dynamics.run": _after_run,
    "spectral.principal_eigen": _after_principal_eigen,
    "spectral.compute_mu1": _after_compute_mu1,
    "harness.sweep": _after_sweep,
}


class Tracer:
    """Spans kept in memory while the pass runs, summarised at its end."""

    def __init__(self):
        # (span id, name, start, end, parent id or 0, operation id, child seconds)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # open spans: [id, name, op, child seconds]
        self._ids = itertools.count(1)
        self._invocations = 0
        self._cells = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.mu1_grids: set = set()
        self.wrapped: set[str] = set()
        self.missing: set[str] = set()  # counts a traced call could not read

    def _open(self, name: str) -> list:
        """Push a span whose operation id needs the slow path: a root
        starts an invocation, and a run under a sweep starts a cell."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._invocations += 1
            self._cells = 0
            op = str(self._invocations)
        else:
            if name == "dynamics.run":
                self._cells += 1
            op = f"{parent[2]}/{self._cells}"
        frame = [next(self._ids), name, op, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[3] += end - start
            parent_id = parent[0]
        self.spans.append((frame[0], frame[1], start, end, parent_id, frame[2], frame[3]))

    def root(self, name: str, fn, *args):
        """Run fn(*args) as a top-level span (one CLI invocation)."""
        frame = self._open(name)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(frame, start, time.perf_counter())

    def _wrap(self, name: str, fn, under: str | None = None):
        hook = HOOKS.get(name)
        stack = self._stack
        ids = self._ids
        close = self._close
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # the common case, a span nested in a plain span, is inlined
            parent = stack[-1] if stack else None
            if under is not None and (parent is None or not parent[1].startswith(under)):
                return fn(*args, **kwargs)
            if parent is None or parent[1] == "harness.sweep":
                frame = self._open(name)
            else:
                frame = [next(ids), name, parent[2], 0.0]
                stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, start, clock())
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every angiosim module present."""
        import scipy.linalg

        wrappers = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            try:
                mod = importlib.import_module(f"angiosim.{short}")
            except ImportError:
                continue
            public = getattr(mod, "__all__", None)
            if public is None:
                public = [n for n in vars(mod) if not n.startswith("_")]
            for attr in sorted(set(public) | set(REPORTED.get(short, ()))):
                fn = getattr(mod, attr, None)
                if (fn is None or isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != mod.__name__
                        or id(fn) in wrappers):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
                self.wrapped.add(f"{short}.{attr}")
        solve = scipy.linalg.solve_banded
        wrappers[id(solve)] = (solve, self._wrap("dynamics.solve_banded", solve,
                                                 under="dynamics."))
        self.wrapped.add("dynamics.solve_banded")

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "angiosim" or name.startswith("angiosim."))]
        for mod in modules + [scipy.linalg]:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])

    def summary(self, wall_s: float) -> dict:
        """Per-name calls, self and inclusive seconds, the derived counts,
        and the consistency figures of the pass."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        names = {span[0]: span[1] for span in self.spans}
        newton_steps = 0
        double_wrapped = 0
        for _sid, name, start, end, parent, _op, child in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child
            incl_s[name] += end - start
            parent_name = names.get(parent)
            if parent_name == name:
                double_wrapped += 1
            elif name == "elliptic.solve_linear" and parent_name == "elliptic.solve_nonlinear_bvp":
                newton_steps += 1
        total_self = sum(self_s.values())
        reported = [f"{m}.{f}" for m, fs in REPORTED.items() for f in fs]
        counts = {name: self.counts.get(name, 0) for name in COUNTS}
        counts["elliptic.newton_steps"] = newton_steps
        counts["spectral.mu1_grids"] = len(self.mu1_grids)
        absent = [n for n in reported if n not in self.wrapped] + sorted(self.missing)
        return {
            "functions": {
                n: {"calls": calls[n], "self_s": self_s[n], "incl_s": incl_s[n]}
                for n in sorted(calls)
            },
            "counts": counts,
            "absent": absent,
            "spans": len(self.spans),
            "self_total_s": total_self,
            "wall_s": wall_s,
            "double_wrapped": double_wrapped,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,name,start,end,parent_id,op_id\n")
            for sid, name, start, end, parent, op, _child in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{op}\n")
