import dataclasses
import importlib.metadata
import math
import os
import shutil
import subprocess
import sys

import pytest

import scarr
from scarr import __version__
from scarr.cli import EXIT_CONFIG, EXIT_DATA, main


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One full CLI pipeline run, shared by all tests in this module."""
    d = str(tmp_path_factory.mktemp("pipeline") / "ds")
    assert main(["simulate", "--seed", "7", "--days", "90", "--out", d]) == 0
    assert main(["features", d]) == 0
    assert main(["fit-step1", d]) == 0
    assert main(["fit-step2", d]) == 0
    assert main(["predict", d]) == 0
    assert main(["validate", d]) == 0
    return d


class TestPipeline:
    def test_all_products_written(self, pipeline_dir):
        out = os.path.join(pipeline_dir, "out")
        for name in (
            "covariates.csv", "step1_fit.txt", "step2_fit.txt",
            "state_path.csv", "site_predictions.csv", "metrics.csv",
        ):
            assert os.path.exists(os.path.join(out, name)), name

    def test_output_headers_carry_version_and_hash(self, pipeline_dir):
        for name in (
            "covariates.csv", "step1_fit.txt", "step2_fit.txt",
            "state_path.csv", "site_predictions.csv", "metrics.csv",
        ):
            with open(os.path.join(pipeline_dir, "out", name)) as fh:
                head = [fh.readline(), fh.readline()]
            assert head[0] == f"# scarr {__version__}\n", name
            assert head[1].startswith("# config_hash="), name

    def test_step1_fit_reparses(self, pipeline_dir):
        from scarr.step1 import gamma_hat, read_step1_fit

        fit = read_step1_fit(os.path.join(pipeline_dir, "out", "step1_fit.txt"))
        assert fit.n == 40
        assert "cmaq" in fit.names
        assert 0.0 < fit.r2 <= 1.0
        assert abs(gamma_hat(fit)) < 5.0

    def test_step2_fit_reparses(self, pipeline_dir):
        from scarr.step2 import read_step2_fit

        p = read_step2_fit(os.path.join(pipeline_dir, "out", "step2_fit.txt"))
        assert p.sigma_z > 0
        assert 0 <= p.psi_a < 1

    def test_refit_is_byte_deterministic(self, pipeline_dir, tmp_path):
        src = os.path.join(pipeline_dir, "out", "step1_fit.txt")
        saved = tmp_path / "step1_fit.txt"
        shutil.copy(src, saved)
        assert main(["fit-step1", pipeline_dir]) == 0
        assert open(src, "rb").read() == saved.read_bytes()

    def test_simulate_is_byte_deterministic(self, pipeline_dir, tmp_path):
        d2 = str(tmp_path / "ds2")
        assert main(["simulate", "--seed", "7", "--days", "90", "--out", d2]) == 0
        for name in ("sites.csv", "daily_series.csv", "cmaq_daily.csv"):
            a = open(os.path.join(pipeline_dir, name), "rb").read()
            b = open(os.path.join(d2, name), "rb").read()
            assert a == b, name

    def test_validate_against_matching_golden(self, pipeline_dir, tmp_path):
        metrics = os.path.join(pipeline_dir, "out", "metrics.csv")
        golden = tmp_path / "golden.csv"
        shutil.copy(metrics, golden)
        assert main(["validate", pipeline_dir, "--golden", str(golden)]) == 0

    def test_validate_against_tampered_golden(self, pipeline_dir, tmp_path):
        metrics = os.path.join(pipeline_dir, "out", "metrics.csv")
        golden = tmp_path / "tampered.csv"
        golden.write_bytes(open(metrics, "rb").read() + b"extra\n")
        assert main(["validate", pipeline_dir, "--golden", str(golden)]) == EXIT_DATA

    def test_predict_writes_rasters_when_configured(self, pipeline_dir):
        cfg = os.path.join(pipeline_dir, "predict_config.txt")
        with open(cfg, "w") as fh:
            fh.write("grid_days=5 20\n")
            fh.write("grid_ncols=6\ngrid_nrows=6\ngrid_cell_size=8000\n")
            fh.write("grid_xll=0\ngrid_yll=0\n")
        try:
            assert main(["predict", pipeline_dir]) == 0
            rasters = os.path.join(pipeline_dir, "out", "rasters")
            assert sorted(os.listdir(rasters)) == [
                "no2_day0005.asc", "no2_day0020.asc",
            ]
        finally:
            os.remove(cfg)

    def test_smoothed_predict(self, pipeline_dir):
        assert main(["predict", pipeline_dir, "--smoothed"]) == 0


def test_fit_carries_its_buffer_radii(tmp_path):
    """Prediction names the design columns from the radii the fit used, not
    from the default rings."""
    d = str(tmp_path / "radii")
    assert main(["simulate", "--seed", "7", "--days", "90", "--out", d]) == 0
    with open(os.path.join(d, "step1_config.txt"), "w") as fh:
        fh.write("buffer_radii_km=0.25 1 2 3\nalpha=1.0\n")
    for command in ("features", "fit-step1", "fit-step2", "predict", "validate"):
        assert main([command, d]) == 0, command

    from scarr.step1 import read_step1_fit

    out = os.path.join(d, "out")
    fit = read_step1_fit(os.path.join(out, "step1_fit.txt"))
    assert fit.spec.radii_km == (0.25, 1.0, 2.0, 3.0)
    assert "ttv_0-0.25km" in fit.names
    with open(os.path.join(out, "covariates.csv")) as fh:
        columns = [line for line in fh if not line.startswith("#")][0].split(",")
    assert "ttv_0-0.25km" in columns and "ttv_3-4km" not in columns


def test_fit_step1_reports_unconverged_gls(tmp_path, monkeypatch, capsys):
    from scarr import step1

    minimize = step1.optimize.minimize

    def one_iteration(*args, **kwargs):
        kwargs["options"] = {**kwargs["options"], "maxiter": 1}
        return minimize(*args, **kwargs)

    d = str(tmp_path / "gls")
    assert main(["simulate", "--seed", "7", "--days", "90", "--out", d]) == 0
    with open(os.path.join(d, "step1_config.txt"), "w") as fh:
        fh.write("error_model=exponential\nrun_selection=false\n")
    monkeypatch.setattr(step1.optimize, "minimize", one_iteration)
    capsys.readouterr()
    assert main(["fit-step1", d]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "converge" in ln]
    assert lines == [
        "fit-step1: warning: GLS optimizer did not converge: "
        "Maximum number of iterations has been exceeded."
    ]


class TestErrorExits:
    def test_missing_dataset_is_data_error(self, tmp_path):
        assert main(["features", str(tmp_path / "nowhere")]) == EXIT_DATA

    def test_bad_config_key_is_config_error(self, pipeline_dir, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not_a_real_key=1\n")
        assert main(["fit-step1", pipeline_dir, "--config", str(bad)]) == EXIT_CONFIG

    def test_fit_step2_requires_step1(self, tmp_path):
        d = str(tmp_path / "fresh")
        assert main(["simulate", "--seed", "3", "--days", "60", "--out", d]) == 0
        assert main(["fit-step2", d]) == EXIT_DATA

    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _scarr_distribution():
    try:
        return importlib.metadata.distribution("scarr")
    except importlib.metadata.PackageNotFoundError:
        return None


def _run_entry_point(module, attr, args, cwd):
    """Run ``module:attr`` the way an installer's generated ``scarr`` wrapper
    does: import it and ``sys.exit(attr())`` with no argv, so ``main`` has to
    read the arguments from ``sys.argv`` itself."""
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    # the directory `scarr` was imported from, so the child runs this source
    src = os.path.dirname(os.path.dirname(os.path.abspath(scarr.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_console_script_installed(tmp_path):
    """The `scarr` console script that pyproject.toml declares works, with or
    without an install: it names scarr.cli:main, and running that entry point
    as the generated wrapper does reads its arguments from sys.argv."""
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["scarr"] == "scarr.cli:main"

    module, attr = scripts["scarr"].split(":")
    assert getattr(importlib.import_module(module), attr) is main

    done = _run_entry_point(module, attr, ["--version"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert f"scarr {__version__}" in done.stdout

    done = _run_entry_point(module, attr, ["no-such-command"], tmp_path)
    assert done.returncode == 2, done.stderr


@pytest.mark.skipif(
    _scarr_distribution() is None,
    reason="the scarr distribution is not installed "
    "(importlib.metadata finds no 'scarr' metadata)",
)
def test_installed_console_script_runs(tmp_path):
    """Where scarr is installed, its `scarr` command is on PATH, points at
    scarr.cli:main and reports this version."""
    dist = _scarr_distribution()
    (ep,) = dist.entry_points.select(group="console_scripts", name="scarr")
    assert ep.value == "scarr.cli:main"

    exe = shutil.which("scarr")
    assert exe is not None
    done = subprocess.run(
        [exe, "--version"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert f"scarr {__version__}" in done.stdout


MINI = os.path.join(REPO_ROOT, "data", "mini")


def _edit_line(path, line, column, text):
    """Set one field of line ``line`` (1-based): a CSV column by name, a
    whitespace-separated token by index, or the whole line (column None)."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    old = lines[line - 1]
    if column is None:
        lines[line - 1] = text
    elif isinstance(column, int):
        tokens = old.split()
        tokens[column] = text
        lines[line - 1] = " ".join(tokens)
    else:
        fields = old.split(",")
        fields[lines[0].split(",").index(column)] = text
        lines[line - 1] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


_DATA_CASES = [
    ("manifest.txt", 1, None, "epoch=1994-13-01"),
    ("manifest.txt", 2, None, "crs synthetic"),
    ("manifest.txt", 3, None, "cmaq_cell_size=twelve"),
    ("manifest.txt", 3, None, "cell=12000"),
    ("sites.csv", 3, "x", "abc"),
    ("sites.csv", 4, "role", "roadside"),
    ("interval_obs.csv", 2, "t_start", "1.5"),
    ("interval_obs.csv", 3, "value_ppb", "NA"),
    ("interval_obs.csv", 4, "value_ppb", "-1"),
    ("daily_series.csv", 5, "day", "five"),
    ("daily_series.csv", 6, "value_ppb", "n/a"),
    ("cmaq_centroids.csv", 2, "y", "abc"),
    ("cmaq_daily.csv", 7, "value_ppb", "1,5"),
    ("traffic_polylines.csv", 3, "adt", "heavy"),
    ("tracts.csv", 2, "vertex_index", "one"),
    ("tract_attrs.csv", 3, "area_mi2", "abc"),
    ("tract_attrs.csv", 4, "area_mi2", "0"),
    ("site_attrs.csv", 2, "elevation_m", "high"),
    ("landuse_reclass.csv", 3, "code", "x3"),
    ("landuse.asc", 1, 1, "many"),
    ("landuse.asc", 8, 5, "abc"),
]


@pytest.mark.parametrize("name, line, column, text", _DATA_CASES)
def test_bad_dataset_value_names_file_and_line(tmp_path, capsys, name, line, column, text):
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    path = os.path.join(str(d), name)
    _edit_line(path, line, column, text)
    capsys.readouterr()
    assert main(["features", str(d), "--out", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path}:{line}:" in err
    assert "Traceback" not in err


_CONFIG_CASES = [
    ("step1_config.txt", "features", "selection_alpha=0.1"),
    ("step1_config.txt", "features", "alpha 0.1"),
    ("step1_config.txt", "features", "run_selection=maybe"),
    ("step1_config.txt", "features", "alpha=abc"),
    ("step1_config.txt", "features", "buffer_radii_km=1 two 3"),
    ("step1_config.txt", "features", "buffer_radii_km=2 1"),
    ("step1_config.txt", "features", "error_model=gaussian"),
    ("step1_config.txt", "features", "landuse_categories=wetland"),
    ("step2_config.txt", "fit-step2", "n_start=2"),
    ("step2_config.txt", "fit-step2", "drop_mu_a"),
    ("step2_config.txt", "fit-step2", "drop_mu_a=sometimes"),
    ("step2_config.txt", "fit-step2", "n_starts=two"),
    ("step2_config.txt", "fit-step2", "grad_tol=tiny"),
    ("predict_config.txt", "predict", "grid_day=5"),
    ("predict_config.txt", "predict", "grid_days"),
    ("predict_config.txt", "predict", "smoothed=perhaps"),
    ("predict_config.txt", "predict", "grid_ncols=16.5"),
    ("predict_config.txt", "predict", "grid_days=5 x"),
    ("predict_config.txt", "predict", "grid_cell_size=3km"),
]


@pytest.fixture
def fitted_out(pipeline_dir, tmp_path):
    """A copy of the pipeline's products, so a failing command writes nothing
    that other tests read."""
    out = str(tmp_path / "out")
    shutil.copytree(os.path.join(pipeline_dir, "out"), out)
    return out


@pytest.mark.parametrize("name, command, bad", _CONFIG_CASES)
def test_bad_config_line_names_file_and_line(pipeline_dir, fitted_out, tmp_path, capsys,
                                             name, command, bad):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        fh.write(f"# {name}\n\n{bad}\n")
    capsys.readouterr()
    argv = [command, pipeline_dir, "--config", path, "--out", fitted_out]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{path}:3:" in err
    assert "Traceback" not in err


def test_alpha_flag_without_config_file(pipeline_dir, fitted_out):
    assert main(["fit-step1", pipeline_dir, "--out", fitted_out, "--alpha", "0.5"]) == 0


def test_missing_config_file_is_config_error(pipeline_dir, fitted_out, tmp_path, capsys):
    missing = str(tmp_path / "nowhere.txt")
    capsys.readouterr()
    assert main(["features", pipeline_dir, "--config", missing, "--out", fitted_out]) == EXIT_CONFIG
    assert missing in capsys.readouterr().err


def test_predict_config_smoothed_yes_equals_flag(pipeline_dir, fitted_out, tmp_path):
    def predictions(*extra):
        assert main(["predict", pipeline_dir, "--out", fitted_out, *extra]) == 0
        with open(os.path.join(fitted_out, "site_predictions.csv")) as fh:
            # the config hash header differs with the config text
            return [line for line in fh if not line.startswith("#")]

    cfg = tmp_path / "predict_config.txt"
    cfg.write_text("smoothed=yes\n")
    by_config = predictions("--config", str(cfg))
    assert by_config == predictions("--smoothed")
    assert by_config != predictions()


def test_cli_import_leaves_out_scipy_stats(tmp_path):
    code = "import sys, scarr.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(scarr.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_matern_selection_run_completes(tmp_path):
    """Nelder-Mead walks the range towards infinity, where the Matern kernel
    used to give inf/NaN entries and the fit died in solve_triangular."""
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    (d / "step1_config.txt").write_text(
        "error_model=matern\nmatern_nu=1.5\nrun_selection=true\n"
    )
    assert main(["fit-step1", str(d)]) == 0
    from scarr.step1 import read_step1_fit

    fit = read_step1_fit(str(d / "out" / "step1_fit.txt"))
    assert fit.error_model.kind == "matern" and math.isfinite(fit.loglik)


def test_readme_configuration_table_matches_config_classes():
    """README's Configuration table lists exactly the fields of the three
    config dataclasses, in order, with the type each is parsed as."""
    import re
    import typing

    from scarr import prediction, step1, step2

    type_names = {
        str: "text", float: "number", int: "integer", bool: "boolean",
        tuple[str, ...]: "words", tuple[float, ...]: "numbers", tuple[int, ...]: "integers",
    }
    with open(os.path.join(REPO_ROOT, "README.md")) as fh:
        rows = re.findall(r"^\| `(\w+_config\.txt)` \| `(\w+)` \| (\w+) \|", fh.read(), re.M)
    for name, cls in (("step1_config.txt", step1.Step1Config),
                      ("step2_config.txt", step2.Step2Config),
                      ("predict_config.txt", prediction.PredictConfig)):
        hints = typing.get_type_hints(cls)
        want = [(f.name, type_names[hints[f.name]]) for f in dataclasses.fields(cls)]
        assert [(key, kind) for file, key, kind in rows if file == name] == want, name
