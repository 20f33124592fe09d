import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from angiosim.cli import _build_parser, _scipy_version, main
from angiosim.config import parse_config
from angiosim.errors import ConfigError

SUBCOMMANDS = ("eigen", "mu1", "steady", "simulate", "classify", "sweep", "check-v")


def test_parse_config_minimal_fills_defaults():
    cfg = parse_config('{"model": {"lambda": 0, "mu": 0.5}}')
    assert cfg.lam == 0.0 and cfg.mu == 0.5
    assert cfg.L == 1.0 and cfg.n == 513
    assert cfg.c == 1.0 and cfg.dt is None
    assert cfg.u0 == 0.5 and cfg.v0 == 0.5
    assert cfg.family == "saturating-power" and cfg.exponent == 2.0


def test_parse_config_type_error_names_key():
    with pytest.raises(ConfigError, match="mu"):
        parse_config('{"model": {"mu": "abc"}}')
    for doc, section in [('{"grid": 5}', "grid"), ('{"grid": "Ln"}', "grid"),
                         ('{"time": null}', "time"),
                         ('{"model": {"sensitivity": [1]}}', r"model\.sensitivity")]:
        with pytest.raises(ConfigError, match=f"^{section} must be an object"):
            parse_config(doc)


def test_parse_config_bounds_error_names_key():
    with pytest.raises(ConfigError, match="n"):
        parse_config('{"grid": {"n": 2}}')
    with pytest.raises(ConfigError, match="mu"):
        parse_config('{"model": {"mu": -0.5}}')


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="mumble"):
        parse_config('{"model": {"mumble": 3}}')
    with pytest.raises(ConfigError, match="grud"):
        parse_config('{"grud": {}}')
    with pytest.raises(ConfigError, match=r"time\.dt_safety"):  # even the value of DT_SAFETY
        parse_config('{"time": {"dt_safety": 0.4}}')


def test_parse_config_reports_syntax_error_position():
    with pytest.raises(ConfigError, match="line"):
        parse_config('{"model": {,}}')


def test_parse_config_dt_auto_and_fixed():
    assert parse_config('{"time": {"dt": "auto"}}').dt is None
    assert parse_config('{"time": {"dt": 0.005}}').dt == 0.005
    with pytest.raises(ConfigError, match="dt"):
        parse_config('{"time": {"dt": -1}}')


def test_parse_config_sensitivity_family():
    cfg = parse_config('{"model": {"sensitivity": {"family": "linear-saturating"}}}')
    assert cfg.sensitivity().family == "linear-saturating"
    with pytest.raises(ConfigError, match="family"):
        parse_config('{"model": {"sensitivity": {"family": "cubic"}}}')


def test_parse_config_formats():
    with pytest.raises(ConfigError, match="formats"):
        parse_config('{"io": {"formats": ["xml"]}}')


def test_readme_example_configuration_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Example configuration", 1)[1].split("```json\n", 1)[1]
    block = block.split("```", 1)[0]
    echoed = parse_config(block).echo()

    def assert_echoed(given, echo, where):
        for key, value in given.items():
            if isinstance(value, dict) and value:
                assert_echoed(value, echo[key], f"{where}{key}.")
            else:
                assert echo[key] == value, f"{where}{key}"

    assert_echoed(json.loads(block), echoed, "")


def test_perturbed_initial_data():
    cfg = parse_config(
        '{"initial": {"perturb_amplitude": 0.1}, "grid": {"n": 33}}'
    )
    u0, v0 = cfg.initial_data()
    assert u0.values.min() >= 0.5
    assert u0.values.max() == pytest.approx(0.6, abs=1e-12)
    assert np.all(v0.values == 0.5)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_mu1_prints_threshold(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"n": 513}, "io": {"outdir": str(tmp_path / "o")}})
    assert main(["mu1", "--config", cfg]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(math.tanh(1.0), abs=1e-4)
    data = json.loads((tmp_path / "o" / "mu1.json").read_text())
    assert data["mu1"] == printed
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["subcommand"] == "mu1"
    assert "wall_time_s" in manifest


def test_cli_eigen_table(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"n": 129},
        "io": {"outdir": str(tmp_path / "o")},
        "experiment": {"mu_values": [0.0, 0.5]},
    })
    assert main(["eigen", "--config", cfg]) == 0
    lines = (tmp_path / "o" / "alpha_table.csv").read_text().splitlines()
    assert lines[0] == "mu,alpha"
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[1][1]) == pytest.approx(0.4045, abs=1e-3)


def test_cli_eigen_negative_mu(tmp_path):
    # an absorbing tumor end, mu < 0, has a cosine eigenfunction: alpha > 1,
    # and alpha = 1 + k^2 with k*tan(k) = 0.5 on L = 1 gives about 1.4268
    cfg = write_config(tmp_path, {
        "grid": {"n": 129},
        "io": {"outdir": str(tmp_path / "o")},
        "experiment": {"mu_values": [-0.5]},
    })
    assert main(["eigen", "--config", cfg]) == 0
    lines = (tmp_path / "o" / "alpha_table.csv").read_text().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(1.4268, abs=1e-3)


def test_cli_eigen_and_mu1_far_below_first_shift(tmp_path, capsys):
    # alpha(3) ~ -8.1 on L=1, and mu1 on the short domain L=0.1, where
    # alpha(1) ~ -9.3
    cfg = write_config(tmp_path, {
        "grid": {"n": 129},
        "io": {"outdir": str(tmp_path / "o")},
        "experiment": {"mu_values": [3.0]},
    })
    assert main(["eigen", "--config", cfg]) == 0
    lines = (tmp_path / "o" / "alpha_table.csv").read_text().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(-8.09, abs=1e-2)
    cfg = write_config(tmp_path, {"grid": {"L": 0.1, "n": 65},
                                  "io": {"outdir": str(tmp_path / "m")}})
    assert main(["mu1", "--config", cfg]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(math.tanh(0.1), rel=1e-4)


def test_cli_steady_profile(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"n": 257},
        "model": {"mu": 1.0},
        "io": {"outdir": str(tmp_path / "o")},
    })
    assert main(["steady", "--config", cfg]) == 0
    lines = (tmp_path / "o" / "theta_profile.csv").read_text().splitlines()
    assert lines[0] == "x,value"
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == pytest.approx(1.0 / math.tanh(1.0) - 1.0, abs=1e-4)


def test_cli_steady_below_threshold_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "grid": {"n": 129},
        "model": {"mu": 0.5},
        "io": {"outdir": str(tmp_path / "o")},
    })
    assert main(["steady", "--config", cfg]) == 1
    assert "threshold" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "error"


def test_cli_non_finite_step_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"lambda": 1e300},
        "time": {"dt": 0.01, "t_end": 0.1},
        "grid": {"n": 33},
        "io": {"outdir": str(tmp_path / "o")},
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "solver error:" in err and "non-finite" in err
    assert "too large" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "error"


def test_cli_bad_config_exits_2(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"grid": {"n": 2}})
    assert main(["mu1", "--config", cfg]) == 2
    assert "n" in capsys.readouterr().err
    cfg = write_config(tmp_path, {"time": {"dt_safety": 0.4}})
    assert main(["mu1", "--config", cfg]) == 2
    assert "time.dt_safety" in capsys.readouterr().err
    # an empty --out is refused as an empty io.outdir is, and writes nothing
    monkeypatch.chdir(tmp_path)
    assert main(["mu1", "--out", ""]) == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_unknown_experiment_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": {"bogus": 1}})
    assert main(["mu1", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, experiment, key",
    [
        ("classify", {"threshold": "abc"}, "threshold"),
        ("classify", {"tau": None}, "tau"),
        ("check-v", {"delta": 2.0}, "delta"),
        ("check-v", {"s_max": "x"}, "s_max"),
        ("check-v", {"envelope_alpha": 0.5}, "envelope_alpha"),
        ("sweep", {"lambda_values": [0.0], "mu_values": [0.5], "workers": 2}, "workers"),
        ("sweep", {"lambda_values": [0.0], "mu_values": [0.5, -0.5]}, "mu_values"),
        ("eigen", {"mu_values": [math.inf]}, "mu_values"),
        ("eigen", {"mu_values": [math.nan]}, "mu_values"),
        ("sweep", {"lambda_values": [math.inf], "mu_values": [0.5]}, "lambda_values"),
        ("classify", {"fit_window": [math.inf, math.nan]}, "fit_window"),
        ("classify", {"threshold": 0}, "threshold"),
        ("classify", {"threshold": -1}, "threshold"),
        ("classify", {"tau": -5}, "tau"),
        ("classify", {"fit_window": [7, 2]}, "fit_window"),
        ("classify", {"fit_window": [3, 3]}, "fit_window"),
        ("classify", {"fit_window": [-1, 2]}, "fit_window"),
    ],
)
def test_cli_bad_experiment_value_exits_2(tmp_path, capsys, subcommand, experiment, key):
    doc = {"grid": {"n": 33}, "time": {"dt": 0.01, "t_end": 0.1},
           "io": {"outdir": str(tmp_path / "o")}, "experiment": experiment}
    cfg = write_config(tmp_path, doc)
    assert main([subcommand, "--config", cfg]) == 2
    assert f"experiment.{key}" in capsys.readouterr().err


def _small_classify_doc(outdir):
    return {
        "grid": {"n": 65},
        "model": {"lambda": 1.0, "mu": 0.5},
        "time": {"dt": 0.01, "t_end": 8.0, "output_every": 10},
        "io": {"outdir": outdir},
    }


def test_cli_classify_report(tmp_path):
    out = str(tmp_path / "o")
    doc = _small_classify_doc(out)
    doc["experiment"] = {"fit_window": None}  # null keeps the default window
    cfg = write_config(tmp_path, doc)
    assert main(["classify", "--config", cfg]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert set(report) == {
        "params", "grid", "t_end", "verdict", "mu1", "alpha_mu",
        "final_dist_u", "final_dist_v", "final_linf_u", "final_linf_v",
        "steps", "dt_min", "dt_max", "steps_extrapolated", "steps_cfl_bound",
        "steps_rejected", "fits", "mass_audit", "positivity_ok", "min_u_late",
        "min_v_late", "hypothesis_h1", "hypothesis_envelope", "fit_errors",
    }
    assert set(report["params"]) == {"lambda", "mu", "c", "sensitivity"}
    assert set(report["grid"]) == {"L", "n"}
    assert report["params"]["lambda"] == 1.0
    t_end = report["t_end"]
    assert report["fits"] and all(
        fit["window"] == [0.5 * t_end, 0.9 * t_end] for fit in report["fits"]
    )
    assert report["verdict"] in (
        "converged-to-(lambda,0)", "converged-to-(0,theta_mu)", "undecided"
    )
    assert report["steps"] == 800 and report["dt_min"] == report["dt_max"] == 0.01
    assert (tmp_path / "o" / "diagnostics.csv").exists()


@pytest.mark.parametrize("dt", [0.01, "auto"])
def test_cli_classify_reports_step_kinds(tmp_path, dt):
    # fixed dt takes none of auto dt's extrapolated, cfl-bound or
    # rejected steps; an auto-dt run's steps are extrapolated or cfl-bound
    doc = _small_classify_doc(str(tmp_path / "o"))
    doc["time"]["dt"] = dt
    assert main(["classify", "--config", write_config(tmp_path, doc)]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    kinds = [report[f"steps_{kind}"] for kind in ("extrapolated", "cfl_bound", "rejected")]
    if dt == "auto":
        assert kinds[0] > 0 and kinds[0] + kinds[1] == report["steps"]
    else:
        assert kinds == [0, 0, 0] and report["steps"] == 800


def test_cli_classify_solves_theta_once(tmp_path):
    # the report and the diagnostics writer both look theta up; only the
    # first lookup may solve, so theta's cache misses count the solves
    from angiosim.steady import theta_mu

    theta_mu.cache_clear()
    doc = {
        "grid": {"n": 33},
        "model": {"lambda": 0.0, "mu": 1.2},
        "time": {"dt": 0.05, "t_end": 1.0},
        "io": {"outdir": str(tmp_path / "o"), "formats": ["csv", "json"]},
    }
    assert main(["classify", "--config", write_config(tmp_path, doc)]) == 0
    assert (tmp_path / "o" / "diagnostics.csv").exists()
    assert theta_mu.cache_info().misses == 1


def test_cli_simulate_outputs(tmp_path):
    out = str(tmp_path / "o")
    doc = _small_classify_doc(out)
    doc["time"]["t_end"] = 1.0
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfg]) == 0
    traj = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,x,u,v"
    diag = (tmp_path / "o" / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "t,mass_u,mass_v,linf_u,linf_v,l2_v_minus_theta,boundary_flux_v"


def test_cli_sweep(tmp_path):
    out = str(tmp_path / "o")
    doc = {
        "grid": {"n": 65},
        "time": {"dt": 0.02, "t_end": 3.0, "output_every": 10},
        "io": {"outdir": out},
        "experiment": {"lambda_values": [0.0, 1.0], "mu_values": [0.3]},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg]) == 0
    lines = (tmp_path / "o" / "sweep_summary.csv").read_text().splitlines()
    assert lines[0].split(",")[:5] == ["lambda", "mu", "mu1", "alpha_mu", "verdict"]
    assert len(lines) == 3
    assert (tmp_path / "o" / "cell_0_0.json").exists()
    assert (tmp_path / "o" / "cell_1_0.json").exists()


def _small_sweep_doc(outdir):
    # auto dt: the cells take different step counts, straddling mu1
    return {
        "grid": {"n": 33},
        "initial": {"perturb_amplitude": 0.05},
        "time": {"dt": "auto", "t_end": 3.0, "output_every": 5},
        "io": {"outdir": outdir},
        "experiment": {"lambda_values": [0.0, 1.0], "mu_values": [0.3, 0.9, 1.2]},
    }


def test_cli_sweep_cells_match_classify_reports(tmp_path):
    # a sweep cell is the report classify writes for that (lambda, mu)
    doc = _small_sweep_doc(str(tmp_path / "sweep"))
    assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
    exp = doc.pop("experiment")
    for i, lam in enumerate(exp["lambda_values"]):
        for j, mu in enumerate(exp["mu_values"]):
            out = tmp_path / f"classify_{i}_{j}"
            doc["model"] = {"lambda": lam, "mu": mu}
            doc["io"] = {"outdir": str(out)}
            cfg = write_config(tmp_path, doc, f"classify_{i}_{j}.json")
            assert main(["classify", "--config", cfg]) == 0
            cell = (tmp_path / "sweep" / f"cell_{i}_{j}.json").read_bytes()
            assert cell == (out / "report.json").read_bytes()


def test_cli_sweep_reruns_are_byte_identical(tmp_path):
    # criterion 8e for sweep: every output but the manifest repeats exactly
    outs = [tmp_path / "a", tmp_path / "b"]
    for k, out in enumerate(outs):
        cfg = write_config(tmp_path, _small_sweep_doc(str(out)), f"c{k}.json")
        assert main(["sweep", "--config", cfg]) == 0
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
    assert len(names) == 7  # the summary and six cells
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_sweep_requires_lists(tmp_path, capsys):
    cfg = write_config(tmp_path, {"io": {"outdir": str(tmp_path / "o")}})
    assert main(["sweep", "--config", cfg]) == 2
    assert "lambda_values" in capsys.readouterr().err


def test_cli_check_v_linear_family(tmp_path):
    out = str(tmp_path / "o")
    doc = {
        "model": {"sensitivity": {"family": "linear-saturating"}},
        "io": {"outdir": out},
        "experiment": {"dimension": 1, "delta": 0.1, "envelope_alpha": 1.0, "s_max": 1.0},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["check-v", "--config", cfg]) == 0
    report = json.loads((tmp_path / "o" / "sensitivity_report.json").read_text())
    assert report["hypothesis2"]["pass"] is True
    assert report["H1"]["pass"] is False
    assert report["envelope"]["pass"] is True
    assert report["envelope"]["c_m"] == pytest.approx(0.5, abs=1e-6)


def test_cli_determinism_excluding_manifest(tmp_path):
    doc = _small_classify_doc("placeholder")
    doc["time"]["t_end"] = 2.0
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    doc["io"]["outdir"] = out1
    cfg1 = write_config(tmp_path, doc, "c1.json")
    doc["io"]["outdir"] = out2
    cfg2 = write_config(tmp_path, doc, "c2.json")
    assert main(["classify", "--config", cfg1]) == 0
    assert main(["classify", "--config", cfg2]) == 0
    for name in ("report.json", "diagnostics.csv"):
        b1 = (tmp_path / "a" / name).read_bytes()
        b2 = (tmp_path / "b" / name).read_bytes()
        assert b1 == b2
    m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    m1["config"]["io"].pop("outdir"), m2["config"]["io"].pop("outdir")
    assert m1 == m2


def test_cli_manifest_round_trip(tmp_path):
    out1 = str(tmp_path / "a")
    cfg = write_config(tmp_path, _small_classify_doc(out1))
    assert main(["classify", "--config", cfg]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    echoed = manifest["config"]
    echoed["io"]["outdir"] = str(tmp_path / "b")
    cfg2 = write_config(tmp_path, echoed, "echoed.json")
    assert main(["classify", "--config", cfg2]) == 0
    assert (
        (tmp_path / "a" / "report.json").read_bytes()
        == (tmp_path / "b" / "report.json").read_bytes()
    )


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["mu1", "--config", str(tmp_path / "nope.json")]) == 2
    assert "configuration error" in capsys.readouterr().err
    # a file that is not UTF-8 is a configuration error too, not a traceback
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"grid": {"n": 9}, "x": "\xff"}')
    assert main(["mu1", "--config", str(latin1)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy_linalg(tmp_path):
    # A fresh interpreter: the CLI imports and parses a configuration
    # without scipy itself, let alone the scipy.linalg package (its LAPACK
    # routines are loaded directly, not through the fallback), and the
    # package still imports afterwards.
    src = Path(__file__).resolve().parents[1] / "src"
    cfg = write_config(tmp_path, {"grid": {"n": 33}})
    probe = (
        "import sys\n"
        "import angiosim.cli\n"
        "from angiosim.config import load_config\n"
        f"load_config({cfg!r})\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg was imported'\n"
        "import numpy as np\n"
        "import scipy.linalg.lapack as lapack\n"
        "d, e, info = lapack.dpttrf(np.full(4, 2.0), np.full(3, -1.0))\n"
        "assert info == 0\n"
        "x, info = lapack.dpttrs(d, e, np.ones(4))\n"
        "assert info == 0 and np.allclose(x, [2.0, 3.0, 3.0, 2.0])\n"
        "import scipy.linalg\n"
        "assert scipy.linalg._flapack is sys.modules['scipy.linalg._flapack']\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_generates_no_dataclass_method():
    # the record classes get closures from angiosim.records; a plain
    # @dataclass would compile its methods at every start-up again
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import dataclasses\n"
        "calls = []\n"
        "create = dataclasses._create_fn\n"
        "dataclasses._create_fn = lambda *a, **k: calls.append(a[0]) or create(*a, **k)\n"
        "import angiosim.cli\n"
        "assert calls == [], calls\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_runs_the_cli_from_the_source_tree(tmp_path):
    # no install: the package is found through PYTHONPATH alone
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "angiosim", "mu1", "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "mu1.json").read_text())["mu1"] == float(proc.stdout)


def test_cli_manifest_scipy_version(tmp_path, monkeypatch):
    # read from scipy/version.py without importing scipy, and the same
    # value through the fallback when that read fails
    assert main(["mu1", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == scipy.__version__
    assert _scipy_version() == scipy.__version__
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise OSError("no version file")

    monkeypatch.setattr(importlib.util, "spec_from_file_location", broken)
    assert _scipy_version() == scipy.__version__
    assert calls  # the read was tried, and failed
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
    assert _scipy_version() == scipy.__version__


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_cli_parser_takes_options_before_or_after_the_subcommand(subcommand):
    options = ["--config", "c.json", "--out", "o"]
    for argv in ([subcommand, *options], [*options, subcommand],
                 ["--out", "o", subcommand, "--config", "c.json"]):
        args = _build_parser().parse_args(argv)
        assert (args.subcommand, args.config, args.out) == (subcommand, "c.json", "o")
    args = _build_parser().parse_args([subcommand])
    assert (args.config, args.out) == (None, None)


@pytest.mark.parametrize("argv", [["bogus"], [], ["--out", "o"]])
def test_cli_unknown_or_missing_subcommand_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "subcommand" in capsys.readouterr().err


def test_python_dash_m_help_lists_every_subcommand():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "angiosim", "-h"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for subcommand in SUBCOMMANDS:
        assert subcommand in proc.stdout
