"""A seeded corpus of admissible configurations, each run to t_end with auto dt.

The documents are drawn from the admissible set of the config schema
with one seeded random.Random, so the corpus is the same on every run:
  L in {0.1, 0.5, 1, 3, 10}, n in {3, 5, 17, 65, 257},
  lambda in [-5, 5], mu in [0, 50], c in [0, 10],
  each sensitivity family, with exponent in [1, 4] and v_max in [0.1, 3],
  u0 and v0 each 0 or in [0, 5], perturb_amplitude in [0, 3],
  output_every in 1..10, and t_end in {0.5, 5, 50}.
To keep the module to about two seconds, t_end is drawn only among the
values with n*t_end <= N_T_END_CAP (a 257-node grid runs to t_end 5 at
most), and the corpus holds DRAWS documents. Every draw is run; none is
skipped.

Auto dt keeps both densities nonnegative for every admissible input, so
each run must complete with min_u_overall and min_v_overall >= 0 exactly,
and with every diagnostics series finite.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from angiosim.config import parse_config
from angiosim.dynamics import run

SEED = 18
DRAWS = 30
N_T_END_CAP = 257 * 5


def _draw(rng: random.Random) -> dict:
    n = rng.choice((3, 5, 17, 65, 257))
    return {
        "grid": {"L": rng.choice((0.1, 0.5, 1.0, 3.0, 10.0)), "n": n},
        "model": {
            "lambda": rng.uniform(-5.0, 5.0),
            "mu": rng.uniform(0.0, 50.0),
            "c": rng.uniform(0.0, 10.0),
            "sensitivity": {
                "family": rng.choice(("saturating-power", "linear-saturating",
                                      "truncated-linear")),
                "exponent": rng.uniform(1.0, 4.0),
                "v_max": rng.uniform(0.1, 3.0),
            },
        },
        "time": {
            "dt": "auto",
            "t_end": rng.choice([t for t in (0.5, 5.0, 50.0) if n * t <= N_T_END_CAP]),
            "output_every": rng.randint(1, 10),
        },
        "initial": {
            "u0": rng.choice((0.0, rng.uniform(0.0, 5.0))),
            "v0": rng.choice((0.0, rng.uniform(0.0, 5.0))),
            "perturb_amplitude": rng.uniform(0.0, 3.0),
        },
    }


_rng = random.Random(SEED)
CORPUS = [_draw(_rng) for _ in range(DRAWS)]


@pytest.mark.parametrize("doc", CORPUS, ids=[f"draw{i}" for i in range(DRAWS)])
def test_auto_dt_run_of_an_admissible_document_stays_nonnegative(doc):
    cfg = parse_config(json.dumps(doc))
    traj = run(*cfg.initial_data(), cfg.params(), cfg.control())
    assert traj.times[-1] == cfg.t_end
    assert traj.min_u_overall >= 0.0 and traj.min_v_overall >= 0.0
    for name in traj.diagnostics:
        assert np.isfinite(traj.series(name)).all(), name
