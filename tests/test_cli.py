import dataclasses
import hashlib
import importlib.metadata
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scarr
from scarr import __version__, step1
from scarr.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main


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
        assert Path(src).read_bytes() == saved.read_bytes()

    def test_simulate_is_byte_deterministic(self, pipeline_dir, tmp_path):
        d2 = str(tmp_path / "ds2")
        assert main(["simulate", "--seed", "7", "--days", "90", "--out", d2]) == 0
        for name in ("sites.csv", "daily_series.csv", "cmaq_daily.csv"):
            a = Path(pipeline_dir, name).read_bytes()
            b = Path(d2, name).read_bytes()
            assert a == b, name

    def test_validate_against_matching_golden(self, pipeline_dir, tmp_path):
        metrics = os.path.join(pipeline_dir, "out", "metrics.csv")
        golden = tmp_path / "golden.csv"
        shutil.copy(metrics, golden)
        assert main(["validate", pipeline_dir, "--golden", str(golden)]) == 0

    def test_validate_against_tampered_golden(self, pipeline_dir, tmp_path):
        metrics = os.path.join(pipeline_dir, "out", "metrics.csv")
        golden = tmp_path / "tampered.csv"
        golden.write_bytes(Path(metrics).read_bytes() + b"extra\n")
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
    bfgs = step1._bfgs

    def one_iteration(*args, **kwargs):
        return bfgs(*args, **{**kwargs, "maxiter": 1})

    d = str(tmp_path / "gls")
    assert main(["simulate", "--seed", "7", "--days", "90", "--out", d]) == 0
    with open(os.path.join(d, "step1_config.txt"), "w") as fh:
        fh.write("error_model=exponential\nrun_selection=false\n")
    monkeypatch.setattr(step1, "_bfgs", one_iteration)
    capsys.readouterr()
    assert main(["fit-step1", d]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "converge" in ln]
    assert lines == [
        "fit-step1: warning: GLS optimizer did not converge: "
        "the iteration limit was reached"
    ]


def test_fit_step1_reports_leverage_one_rows(tmp_path, capsys):
    """One interval at C000, the only site with a nonzero elevation, gives
    its row leverage 1: PRESS leaves it out, and fit-step1 says so."""
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    obs = (d / "interval_obs.csv").read_text().splitlines()
    first = next(i for i, line in enumerate(obs) if line.startswith("C000,"))
    kept = [line for i, line in enumerate(obs) if i == first or not line.startswith("C000,")]
    (d / "interval_obs.csv").write_text("\n".join(kept) + "\n")
    header, *attrs = (d / "site_attrs.csv").read_text().splitlines()
    zeroed = [line if line.startswith("C000,") else line.split(",")[0] + ",0" for line in attrs]
    (d / "site_attrs.csv").write_text("\n".join([header, *zeroed]) + "\n")
    (d / "step1_config.txt").write_text("use_elevation=true\n")
    capsys.readouterr()
    assert main(["fit-step1", str(d)]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "leverage" in ln]
    assert lines == ["fit-step1: warning: loocv_press: 1 row(s) with leverage 1 excluded"]


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


def test_simulate_reproduces_bundled_mini(tmp_path):
    """The bundled data/mini is ``simulate --seed 7 --days 90``, every file
    byte for byte."""
    d = tmp_path / "ds"
    assert main(["simulate", "--seed", "7", "--days", "90", "--out", str(d)]) == 0
    names = sorted(os.listdir(MINI))
    assert len(names) == 13
    assert sorted(os.listdir(d)) == names
    for name in names:
        assert (d / name).read_bytes() == Path(MINI, name).read_bytes(), name


#: SHA-256 of each file ``simulate`` writes for the benchmark's simulated
#: workloads: ``long-record`` (seed 1, 1825 days) and ``raster-gls`` (seed 6,
#: 365 days).
_SIMULATED_SHA256 = {
    (1, 1825): {
        "cmaq_centroids.csv": "38047ae12f77dec561ad9b4c30f4b1ff34386bc67b36214d01ee76e5f583793c",
        "cmaq_daily.csv": "551f557aaac15d530394e6ec0e6bbd93cf19bc4298d78ca94213b44a9cad4aaa",
        "daily_series.csv": "a02bac74195578a6cf09988ff14f658dd3d4bccceb933439bbb5754ee8105dba",
        "interval_obs.csv": "137fa86d9cc9d85d9bf069918850eaea1f02fafef36dcad709c0eba41f54dfb9",
        "landuse.asc": "d4ae21021bbb1ccc8c20c91b8afdaa9820c163294a81f66bd183ff397f0cf378",
        "landuse_reclass.csv": "e18e3f348a6105dd51761f45c1df88265d8367a7b6b005530b099c68b1843393",
        "manifest.txt": "f9cd9ba8c296869c1c7c163f649b5067cc56759206480f7f5b6e42a9fdf63f92",
        "site_attrs.csv": "ff3584806e46501ee61aef3345cb06ba8ca173c7abf38e00f7c46e698adf8df4",
        "sites.csv": "70acda83907e1af72c4b55dd8b09a4eaf7d3e9b1958694b51dcbf8e136eb10fc",
        "tract_attrs.csv": "d96da77c31006642ebf8c00ee459d4406b2de02e9d5e8dc568f474250dabb34a",
        "tracts.csv": "4b9a4e373721343e6bbc59bffb8c3666df715a538557c0aa52b7b3756a4f6c63",
        "traffic_polylines.csv": "5e8d151820bfbc33c1d5457c3a33d49801ec23c90ff6cb16cbe3ce0d203137c8",
        "truth.txt": "872aa63fa5cd959bace1091491b323fd0976e1a08a45f53056b0a8e406a8fd00",
    },
    (6, 365): {
        "cmaq_centroids.csv": "38047ae12f77dec561ad9b4c30f4b1ff34386bc67b36214d01ee76e5f583793c",
        "cmaq_daily.csv": "a51794026655143beeba3b37c42feb3eeb7ab456c719244fdc5b009e7866f2ea",
        "daily_series.csv": "51ed9534f3e956258c73ea077ea8ef04057e43cd74f500988db2d1c889b4ca26",
        "interval_obs.csv": "1a5059f682f9d81135f63bd725281e4c9e42c5ca2b0715aaed0a80203367b8e8",
        "landuse.asc": "95fc90e57f4ddc1eeaee4a472bf3b636a783d1d45619d5c699db9eddd96e9bfa",
        "landuse_reclass.csv": "e18e3f348a6105dd51761f45c1df88265d8367a7b6b005530b099c68b1843393",
        "manifest.txt": "f9cd9ba8c296869c1c7c163f649b5067cc56759206480f7f5b6e42a9fdf63f92",
        "site_attrs.csv": "f2772ec967ea3ed10c336ea980e3220a2f0d501c51dcd9bd698f8c062bbc9987",
        "sites.csv": "b55f3dc057011170381db608d3215eab26e233cbb8ab4c1f681fcce2f840cdee",
        "tract_attrs.csv": "fca353e7ca0b2bfac97ed7e512fcd00a5e5f11897dcd8b34fd46933498015375",
        "tracts.csv": "4b9a4e373721343e6bbc59bffb8c3666df715a538557c0aa52b7b3756a4f6c63",
        "traffic_polylines.csv": "d701462bed04f85a62901be4de42e241c1cffd51e117c50184e4eb38a3537647",
        "truth.txt": "3b39d134e2bfeb78bab49186a291a4193da00a2c98722d9450fdba0588e00069",
    },
}


@pytest.mark.parametrize("seed, days", sorted(_SIMULATED_SHA256))
def test_simulate_keeps_benchmark_dataset_bytes(tmp_path, seed, days):
    """``simulate`` writes the benchmark's simulated datasets byte for byte
    as pinned."""
    d = tmp_path / "ds"
    assert main(["simulate", "--seed", str(seed), "--days", str(days), "--out", str(d)]) == 0
    digests = {name: hashlib.sha256((d / name).read_bytes()).hexdigest()
               for name in sorted(os.listdir(d))}
    assert digests == _SIMULATED_SHA256[seed, days]


def test_every_interval_skipped_exits_3(tmp_path, capsys):
    """With every interval past the end of the coarse-grid series,
    ``features`` writes the header alone and ``fit-step1`` exits 3."""
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    header, *rows = (d / "interval_obs.csv").read_text().splitlines()
    shifted = [[sid, str(int(a) + 1000), str(int(b) + 1000), value]
               for sid, a, b, value in (row.split(",") for row in rows)]
    (d / "interval_obs.csv").write_text("\n".join([header] + list(map(",".join, shifted))) + "\n")
    capsys.readouterr()
    assert main(["features", str(d)]) == 0
    assert "features: wrote 0 covariate rows" in capsys.readouterr().err.splitlines()
    lines = (d / "out" / "covariates.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[2].startswith("site_id,")
    assert main(["fit-step1", str(d)]) == EXIT_DATA


@pytest.mark.parametrize("level", [logging.NOTSET, logging.WARNING], ids=["NOTSET", "WARNING"])
def test_main_restores_the_log_level(tmp_path, level):
    """``main`` raises the ``scarr`` logger to INFO for its own stderr lines
    and puts back the caller's level, after a successful command and after
    one that exits 3."""
    logger = logging.getLogger("scarr")
    before = logger.level
    logger.setLevel(level)
    try:
        assert main(["features", MINI, "--out", str(tmp_path / "out")]) == 0
        assert logger.level == level
        assert main(["features", str(tmp_path / "nowhere")]) == EXIT_DATA
        assert logger.level == level
    finally:
        logger.setLevel(before)


def test_features_logs_its_row_count(tmp_path, capsys):
    capsys.readouterr()
    assert main(["features", MINI, "--out", str(tmp_path / "out")]) == 0
    assert "features: wrote 40 covariate rows" in capsys.readouterr().err.splitlines()


#: SHA-256 of each prediction product on data/mini, without its ``#`` header
#: lines, filtered and ``--smoothed``: a 4 x 4 raster whose left column and
#: top row lie off the coarse grid, on days 7 and 30.
PREDICTION_DIGESTS = {
    "filtered": {
        "site_predictions.csv":
            "0585cafc50e7770eb51921bdd1a85afbe9b4596bb6733069e733b662ff147995",
        "rasters/no2_day0007.asc":
            "361829bc80ea25b1f543c871d13f4e90ef7da019566bb1b53d60c807891b826b",
        "rasters/no2_day0030.asc":
            "a582375262a271f0f39650b3dd1a5a4948bb43b614a13306b3ff19a8577fe93f",
    },
    "smoothed": {
        "site_predictions.csv":
            "ef75981b0f36dd98733f1ee952dbf283458d4ba2cfe15c9ab51a4affd2f0bc1c",
        "rasters/no2_day0007.asc":
            "ae5be293e9946c8a67b7ca9dc50f4d54526d4b9c6865098fa71823a773f68bc6",
        "rasters/no2_day0030.asc":
            "660462fde5bc893ae5722c84694bc02c3e6007a9c891db0eb1ef3f2e6dd58ec3",
    },
}


def test_prediction_products_are_pinned(tmp_path):
    import hashlib

    out = str(tmp_path / "out")
    cfg = tmp_path / "predict_config.txt"
    cfg.write_text("grid_days=7 30\ngrid_ncols=4\ngrid_nrows=4\ngrid_cell_size=12000\n"
                   "grid_xll=-9000\ngrid_yll=9000\n")
    for command in ("fit-step1", "fit-step2"):
        assert main([command, MINI, "--out", out]) == 0
    for kind, digests in PREDICTION_DIGESTS.items():
        flags = ["--smoothed"] if kind == "smoothed" else []
        assert main(["predict", MINI, "--out", out, "--config", str(cfg), *flags]) == 0
        for name, want in digests.items():
            with open(os.path.join(out, name), "rb") as fh:
                body = b"".join(line for line in fh if not line.startswith(b"#"))
            assert hashlib.sha256(body).hexdigest() == want, (kind, name)


#: SHA-256 of ``step1_fit.txt`` on data/mini, without its ``#`` header lines,
#: and of ``fit-step1``'s per-start stderr lines (nit, nfev, -loglik) for
#: each GLS kind with ring selection on: the full fit and the refit.  Every
#: one is a fit at the pure-nugget boundary, which the kernel's last bits do
#: not reach; ``test_step1.py::test_interior_gls_fit_is_pinned`` pins one that
#: they do.
GLS_FIT_DIGESTS = {
    "exponential": (
        "9b34f6042b8aa62fc86029883532d66e0e8b9c75909ca1cb9ada3778588ad6fa",
        "257f6aeed44309d32cc2d0d50920c80e9ab78872f78256b98cbcba196055a8ed",
    ),
    "spherical": (
        "5cd0a1e5d30628475c8b22e3482ed4f1d11a27a0a3826802d813da3fc28c6634",
        "ed0d7661ad343afdc3ba978371473bd45aec8c400f7d461106852e634b74c686",
    ),
    "matern": (
        "ccbca68b6119bf877f346ae3d404c3be5a141493740c8377efbc0e75aeedb95f",
        "4a8c984e0feffb98f78650993074de13e457068d9a4172537e210caaf595c68f",
    ),
}


@pytest.mark.parametrize("kind", sorted(GLS_FIT_DIGESTS))
def test_gls_fit_products_are_pinned(tmp_path, capsys, kind):
    import hashlib

    out = str(tmp_path / "out")
    cfg = tmp_path / "step1_config.txt"
    cfg.write_text(f"error_model={kind}\nmatern_nu=1.5\nrun_selection=true\n")
    capsys.readouterr()
    assert main(["fit-step1", MINI, "--out", out, "--config", str(cfg)]) == 0
    starts = [line for line in capsys.readouterr().err.splitlines() if " GLS, start " in line]
    assert len(starts) % 6 == 0 and starts
    with open(os.path.join(out, "step1_fit.txt"), "rb") as fh:
        body = b"".join(line for line in fh if not line.startswith(b"#"))
    got = (hashlib.sha256(body).hexdigest(),
           hashlib.sha256("\n".join(starts).encode()).hexdigest())
    assert got == GLS_FIT_DIGESTS[kind]


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
    ("landuse.asc", 9, 3, "nan"),  # non-finite, not NODATA
    ("sites.csv", 1, None, "id,x,y,kind"),  # header mismatch
    ("cmaq_daily.csv", 4, "day", "1"),  # non-monotone day
    ("daily_series.csv", 2, "day", "0"),  # day below 1
    ("cmaq_daily.csv", 2, "day", "0"),  # day below 1
    ("daily_series.csv", 4, "site_id", "GHOST"),  # unknown site_id
    ("cmaq_daily.csv", 5, None, "1,5"),  # short row
    ("tract_attrs.csv", 18, None, "T00,999999,55.598710830112196"),  # repeated tract_id
    ("site_attrs.csv", 26, None, "C000,9999"),  # repeated site_id
    # numbers the geometry cannot use, on any row of a polyline or polygon
    ("traffic_polylines.csv", 3, "x", "nan"),
    ("traffic_polylines.csv", 4, "y", "inf"),
    ("traffic_polylines.csv", 5, "adt", "-5"),
    ("tracts.csv", 3, "x", "inf"),
    ("cmaq_centroids.csv", 2, "x", "nan"),
    ("tract_attrs.csv", 2, "area_mi2", "nan"),
    ("tract_attrs.csv", 3, "population", "-5000"),
    ("interval_obs.csv", 2, "t_start", "0"),  # day below 1
    ("manifest.txt", 3, None, "cmaq_cell_size=-5"),
    ("manifest.txt", 3, None, "cmaq_cell_size=nan"),
]


def _first_reader(d, out, name):
    """The first command of the chain that reads the dataset file ``name``:
    ``features``, but ``fit-step2`` for ``daily_series.csv``, which
    ``features`` and ``fit-step1`` never open (and so run as usual)."""
    if name != "daily_series.csv":
        return "features"
    for command in ("features", "fit-step1"):
        assert main([command, str(d), "--out", str(out)]) == 0, command
    return "fit-step2"


@pytest.mark.parametrize("name, line, column, text", _DATA_CASES)
def test_bad_dataset_value_names_file_and_line(tmp_path, capsys, name, line, column, text):
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    path = os.path.join(str(d), name)
    _edit_line(path, line, column, text)
    out = tmp_path / "out"
    command = _first_reader(d, out, name)
    capsys.readouterr()
    assert main([command, str(d), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path}:{line}:" in err
    assert "Traceback" not in err


_BEYOND_INT64 = "99999999999999999999"


@pytest.mark.parametrize("names, column, at", [
    # the last line: the last day of the last series, so the days still increase
    (["daily_series.csv"], "day", ("daily_series.csv", 361)),
    (["cmaq_daily.csv"], "pixel_id", ("cmaq_daily.csv", 1441)),
    # every line of the last pixel in both CMAQ tables, so every id is known
    (["cmaq_centroids.csv", "cmaq_daily.csv"], "pixel_id", ("cmaq_centroids.csv", 17)),
], ids=["daily_series-day", "cmaq_daily-pixel_id", "both_cmaq-pixel_id"])
def test_integer_beyond_64_bits_names_file_and_line(tmp_path, capsys, names, column, at):
    """An integer column value outside int64 exits 3 naming its path:line
    and column, not with an OverflowError traceback."""
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    for name in names:
        path = d / name
        header, *rows = (row.split(",") for row in path.read_text().splitlines())
        for row in rows if len(names) > 1 else rows[-1:]:
            if row[0] == rows[-1][0]:
                row[header.index(column)] = _BEYOND_INT64
        path.write_text("\n".join(map(",".join, [header, *rows])) + "\n")
    out = tmp_path / "out"
    command = _first_reader(d, out, at[0])
    capsys.readouterr()
    assert main([command, str(d), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    where = os.path.join(str(d), at[0])
    assert f"{where}:{at[1]}: {column}: expected a 64-bit integer, got '{_BEYOND_INT64}'" in err, err
    assert "Traceback" not in err


def test_each_command_opens_only_the_tables_it_uses(tmp_path, monkeypatch):
    """Every command opens every dataset table but ``daily_series.csv``,
    which only ``fit-step2``, ``predict`` and ``validate`` open."""
    from scarr import data_model

    opened, read_text = [], data_model.read_text

    def recorded(path, *args):
        opened.append(path)
        return read_text(path, *args)

    monkeypatch.setattr(data_model, "read_text", recorded)
    tables = {"manifest.txt", *data_model._DEFAULT_FILES.values()}
    for command in ("features", "fit-step1", "fit-step2", "predict", "validate"):
        opened.clear()
        assert main([command, MINI, "--out", str(tmp_path / "out")]) == 0, command
        got = {os.path.basename(p) for p in opened if os.path.dirname(p) == MINI}
        skipped = {"daily_series.csv"} if command in ("features", "fit-step1") else set()
        assert got == tables - skipped, command


@pytest.mark.parametrize("config", ["", "error_model=exponential"], ids=["default", "exponential"])
def test_step1_commands_do_not_need_the_daily_series(tmp_path, capsys, config):
    """``features`` and ``fit-step1`` write the same bytes, products and
    stderr, whether ``daily_series.csv`` is intact, missing or holds a bad
    line; on the bad line the commands that read it exit 3 naming it."""
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    if config:
        (d / "step1_config.txt").write_text(config + "\n")
    daily = d / "daily_series.csv"
    intact = daily.read_text()

    def step1_run(tag):
        out, runs = tmp_path / tag, []
        for command, product in (("features", "covariates.csv"), ("fit-step1", "step1_fit.txt")):
            capsys.readouterr()
            assert main([command, str(d), "--out", str(out)]) == 0
            runs.append(((out / product).read_bytes(), capsys.readouterr().err))
        return runs

    want = step1_run("intact")
    daily.unlink()
    assert step1_run("missing") == want
    daily.write_text(intact)
    _edit_line(str(daily), 5, "day", "five")
    assert step1_run("bad") == want
    for command in ("fit-step2", "predict", "validate"):
        capsys.readouterr()
        assert main([command, str(d), "--out", str(tmp_path / "bad")]) == EXIT_DATA, command
        assert f"{daily}:5:" in capsys.readouterr().err, command


_CONFIG_CASES = [
    ("step1_config.txt", "features", "selection_alpha=0.1"),
    ("step1_config.txt", "features", "alpha 0.1"),
    ("step1_config.txt", "features", "run_selection=maybe"),
    ("step1_config.txt", "features", "alpha=abc"),
    ("step1_config.txt", "features", "buffer_radii_km=1 two 3"),
    ("step1_config.txt", "features", "buffer_radii_km=2 1"),
    ("step1_config.txt", "features", "error_model=gaussian"),
    ("step1_config.txt", "features", "landuse_categories=wetland"),
    # buffer radii that the land-use rings or the geometry cannot use
    ("step1_config.txt", "features", "buffer_radii_km=0.5 1"),
    ("step1_config.txt", "features", "buffer_radii_km=0.5 1 nan"),
    ("step1_config.txt", "features", "buffer_radii_km=0.5 1 2 inf"),
    ("step1_config.txt", "fit-step1", "alpha=0"),
    ("step1_config.txt", "fit-step1", "alpha=1.5"),
    ("step1_config.txt", "fit-step1", "alpha=nan"),
    ("step2_config.txt", "fit-step2", "n_start=2"),
    ("step2_config.txt", "fit-step2", "drop_mu_a"),
    ("step2_config.txt", "fit-step2", "drop_mu_a=sometimes"),
    # keys that the search constants replaced
    ("step2_config.txt", "fit-step2", "n_starts=3"),
    ("step2_config.txt", "fit-step2", "grad_tol=1e-6"),
    ("step2_config.txt", "fit-step2", "step_tol=1e-9"),
    ("step2_config.txt", "fit-step2", "min_days_per_param=10"),
    ("step1_config.txt", "features", "collinearity_threshold=0.85"),
    ("predict_config.txt", "predict", "grid_day=5"),
    ("predict_config.txt", "predict", "grid_days"),
    ("predict_config.txt", "predict", "smoothed=perhaps"),
    ("predict_config.txt", "predict", "grid_ncols=16.5"),
    ("predict_config.txt", "predict", "grid_days=5 x"),
    ("predict_config.txt", "predict", "grid_cell_size=3km"),
    ("predict_config.txt", "predict", "grid_nrows=-2"),
    ("predict_config.txt", "predict", "grid_ncols=0"),
    ("predict_config.txt", "predict", "grid_cell_size=0"),
    ("predict_config.txt", "predict", "grid_cell_size=nan"),
    ("predict_config.txt", "predict", "grid_xll=inf"),
    # days outside the record of 90 days
    ("predict_config.txt", "predict", "grid_days=0"),
    ("predict_config.txt", "predict", "grid_days=5 100000"),
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


def test_alpha_flag_out_of_range_names_the_flag(pipeline_dir, fitted_out, capsys):
    capsys.readouterr()
    assert main(["fit-step1", pipeline_dir, "--alpha", "-1", "--out", fitted_out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--alpha: alpha must lie in (0, 1]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, text", [("--days", "0"), ("--days", "-5"), ("--seed", "-1"),
                                        ("--days", "many")])
def test_simulate_rejects_bad_days_and_seed(tmp_path, capsys, flag, text):
    out = tmp_path / "ds"
    assert main(["simulate", flag, text, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {flag}: expected an integer" in err
    assert not out.exists()


@pytest.mark.parametrize("name, key, text, want", [
    ("step2_fit.txt", "psi_a", "psi_a=abc", "{path}:{line}: psi_a:"),
    ("step2_fit.txt", "psi_a", "psi_a=1.5", "{path}: psi_a must lie in [0, 1)"),
    ("step1_fit.txt", "n", None, "{path}: missing key n"),  # the line deleted
    ("step1_fit.txt", "cov", "cov=1 2 3", "{path}:{line}: cov: expected"),
    ("step1_fit.txt", "error_kind", "error_kind=gaussian", "{path}: unknown error model kind"),
    ("step1_fit.txt", "buffer_radii_km", "buffer_radii_km=0.5 1", "{path}: buffer radii must"),
])
def test_bad_fit_file_names_file_and_line(pipeline_dir, fitted_out, capsys, name, key, text,
                                          want):
    path = os.path.join(fitted_out, name)
    with open(path) as fh:
        lines = fh.read().splitlines()
    line = next(i for i, old in enumerate(lines, start=1) if old.startswith(f"{key}="))
    if text is None:
        del lines[line - 1]
    else:
        lines[line - 1] = text
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["predict", pipeline_dir, "--out", fitted_out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert want.format(path=path, line=line) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, key, index, text, command, want", [
    ("step1_fit.txt", "estimates", 0, "nan", "predict", "expected finite numbers, got 'nan'"),
    # the cmaq estimate, gamma-hat, which fit-step2 fixes
    ("step1_fit.txt", "estimates", -1, "nan", "fit-step2",
     "expected finite numbers, got 'nan'"),
    ("step1_fit.txt", "cov", 4, "-inf", "predict", "expected finite numbers, got '-inf'"),
    ("step1_fit.txt", "error_sill", 0, "nan", "fit-step2",
     "expected a finite number > 0, got 'nan'"),
    ("step1_fit.txt", "error_sill", 0, "inf", "fit-step2",
     "expected a finite number > 0, got 'inf'"),
    ("step1_fit.txt", "error_nugget", 0, "nan", "fit-step2",
     "expected a finite number >= 0, got 'nan'"),
    ("step2_fit.txt", "sigma_z", 0, "inf", "predict", "expected a finite number > 0, got 'inf'"),
    ("step2_fit.txt", "sigma_a", 0, "nan", "predict",
     "expected a finite number >= 0, got 'nan'"),
    ("step2_fit.txt", "sigma_a", 0, "nan", "validate",
     "expected a finite number >= 0, got 'nan'"),
    ("step2_fit.txt", "mu_a", 0, "nan", "predict", "expected a finite number, got 'nan'"),
    ("step2_fit.txt", "beta_c", 0, "inf", "predict", "expected a finite number, got 'inf'"),
    ("step2_fit.txt", "gamma_hat", 0, "nan", "predict", "expected a finite number, got 'nan'"),
])
def test_non_finite_fit_value_names_file_and_line(pipeline_dir, fitted_out, capsys, name, key,
                                                  index, text, command, want):
    path = os.path.join(fitted_out, name)
    lines = Path(path).read_text().split("\n")
    line = next(i for i, old in enumerate(lines, start=1) if old.startswith(f"{key}="))
    tokens = lines[line - 1].split("=", 1)[1].split()
    tokens[index] = text
    lines[line - 1] = f"{key}={' '.join(tokens)}"
    Path(path).write_text("\n".join(lines))
    capsys.readouterr()
    assert main([command, pipeline_dir, "--out", fitted_out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: data: {path}:{line}: {key}: {want}" in err.splitlines()


@pytest.mark.parametrize("text, code", [("nan", EXIT_DATA), ("inf", 0)])
def test_step1_fit_error_range(pipeline_dir, fitted_out, capsys, text, code):
    """A NaN ``error_range`` is no error model: ``fit-step2`` exits 3 naming
    the fit file.  An infinite range, the fully correlated limit, loads."""
    path = os.path.join(fitted_out, "step1_fit.txt")
    text = re.sub(r"(?m)^error_range=.*$", f"error_range={text}", Path(path).read_text())
    Path(path).write_text(text)
    capsys.readouterr()
    assert main(["fit-step2", pipeline_dir, "--out", fitted_out]) == code
    err = capsys.readouterr().err
    assert (f"error: data: {path}: error model requires" in err) == (code == EXIT_DATA)


def test_validate_missing_golden_is_data_error(pipeline_dir, fitted_out, tmp_path, capsys):
    missing = str(tmp_path / "nowhere.csv")
    capsys.readouterr()
    assert main(["validate", pipeline_dir, "--out", fitted_out, "--golden", missing]) == EXIT_DATA
    assert missing in capsys.readouterr().err


def test_fit_step2_logs_each_start(pipeline_dir, fitted_out, capsys):
    capsys.readouterr()
    assert main(["fit-step2", pipeline_dir, "--out", fitted_out]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    starts = [line for line in lines if "start psi0=" in line]
    assert len(starts) in (3, 6)  # three starts, and three more if mu_a is dropped
    for line in starts:
        assert line.startswith("fit-step2: mu_a ")
        for word in ("nit=", "nfev=", "success=", "-loglik="):
            assert word in line, line
    assert sum(line.endswith("likelihood kernel passes") for line in lines) == 1


def test_fit_step1_logs_each_gls_start_and_dropped_ring(pipeline_dir, fitted_out, tmp_path,
                                                        capsys):
    config = tmp_path / "step1_config.txt"
    config.write_text("error_model=exponential\n")
    capsys.readouterr()
    assert main(["fit-step1", pipeline_dir, "--config", str(config), "--out", fitted_out]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    dropped = [line for line in lines if line.startswith("fit-step1: dropped ")]
    assert dropped
    for line in dropped:
        for word in ("F=", "df1=1 ", "df2=", "p="):
            assert word in line, line
    assert sum(line.startswith("fit-step1: retained buffer rings {") for line in lines) == 1
    starts = [line for line in lines if " GLS, start " in line]
    assert len(starts) == 12  # six for the full model, six for the refit
    for line in starts:
        assert line.startswith("fit-step1: exponential GLS, start ")
        for word in ("nit=", "nfev=", "success=", "-loglik="):
            assert word in line, line


def test_fit_step1_logs_each_gls_fit(pipeline_dir, fitted_out, tmp_path, capsys):
    """One line per GLS fit, after its six starts: sigma2, range, sill share,
    the likelihood evaluations of the six and the rounds they took, one
    point per start and round, so as many as the longest start's; the
    simulated design fits at the pure-nugget boundary, so the line says the
    range means nothing."""
    config = tmp_path / "step1_config.txt"
    config.write_text("error_model=spherical\n")
    capsys.readouterr()
    assert main(["fit-step1", pipeline_dir, "--config", str(config), "--out", fitted_out]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if " GLS" in line]
    assert len(lines) == 14  # the full model and the refit, six starts and a summary each
    for fit in (lines[:7], lines[7:]):
        starts, summary = fit[:6], fit[6]
        nfev = [int(re.search(r" nfev=(\d+) ", line).group(1)) for line in starts]
        assert re.fullmatch(
            rf"fit-step1: spherical GLS: sigma2=\S+ range=\S+ sill share=\S+, {sum(nfev)} "
            rf"likelihood evaluations in {max(nfev)} rounds; the share is at the pure-nugget "
            r"boundary: range not identified", summary), summary


def test_validate_names_interval_site_it_skips(tmp_path, capsys):
    """A calibration site outside every census tract has no prediction: its
    intervals are left out of MSPE and validate says so."""
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    _edit_line(str(d / "sites.csv"), 2, "x", "-500000.0")
    with open(d / "sites.csv") as fh:
        site_id = fh.read().split("\n")[1].split(",")[0]
    capsys.readouterr()
    assert main(["features", str(d)]) == 0
    assert (f"features: warning: site {site_id}: outside all census tracts"
            in capsys.readouterr().err.splitlines())
    for command in ("fit-step1", "fit-step2"):
        assert main([command, str(d)]) == 0
    capsys.readouterr()
    assert main(["validate", str(d)]) == 0
    err = capsys.readouterr().err
    assert f"validate: interval site {site_id} skipped: " in err
    assert "outside all census tracts" in err


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


def _modules_after_cli_import(tmp_path, names):
    """Which of ``names`` a fresh ``import scarr.cli`` loads, in a child process."""
    code = f"import sys, scarr.cli; print([m for m in {list(names)!r} if m in sys.modules])"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(scarr.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_leaves_out_scipy_stats(tmp_path):
    assert _modules_after_cli_import(tmp_path, ["scipy.stats"]) == "[]"


def test_cli_import_leaves_out_scipy_optimize_and_oracle(tmp_path):
    """Step II searches in the package and only ``simulate`` needs the
    oracle, so neither module is loaded before a command runs."""
    assert _modules_after_cli_import(tmp_path, ["scipy.optimize", "scarr.oracle"]) == "[]"


def test_matern_selection_run_completes(tmp_path):
    """A Matern fit with selection on data/mini: a search that walked the
    range towards infinity once met inf/NaN kernel entries there, and the
    fit died in solve_triangular."""
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    (d / "step1_config.txt").write_text(
        "error_model=matern\nmatern_nu=1.5\nrun_selection=true\n"
    )
    assert main(["fit-step1", str(d)]) == 0
    from scarr.step1 import read_step1_fit

    fit = read_step1_fit(str(d / "out" / "step1_fit.txt"))
    assert fit.error_model.kind == "matern" and math.isfinite(fit.loglik)
    assert fit.error_model.nu == 1.5


def test_matern_smoothness_beyond_the_kernel_exits_2(tmp_path, capsys):
    """A smoothness above ``MATERN_NU_MAX`` is a config error naming its
    line: at nu = 120 the kernel's x**nu overflows below the x = 700
    cut-off.  A fit file that records such a smoothness exits 3."""
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    config = d / "step1_config.txt"
    config.write_text("error_model=matern\nmatern_nu=120\nrun_selection=false\n")
    capsys.readouterr()
    assert main(["fit-step1", str(d)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{config}:2: matern smoothness" in err, err
    assert not (d / "out" / "step1_fit.txt").exists()

    config.write_text("run_selection=false\n")
    assert main(["fit-step1", str(d)]) == 0
    fit_file = d / "out" / "step1_fit.txt"
    text = fit_file.read_text().replace("error_kind=independent", "error_kind=matern")
    fit_file.write_text(text.replace("error_nu=0.5", "error_nu=120.0"))
    assert main(["fit-step2", str(d)]) == EXIT_DATA
    assert f"{fit_file}: matern smoothness" in capsys.readouterr().err


def test_rank_deficient_design_exits_3(tmp_path, capsys):
    """Two rings inside 0.2 m hold no traffic at any site: two zero
    columns.  The fit rejects the design and writes no fit file."""
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    (d / "step1_config.txt").write_text("buffer_radii_km=0.0001 0.0002 2 3\n")
    assert main(["fit-step1", str(d)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "rank deficient" in err, err
    assert not (d / "out" / "step1_fit.txt").exists()


@pytest.mark.parametrize("kind", ["exponential", "spherical"])
def test_gls_fit_records_no_matern_smoothness(tmp_path, kind):
    """Only a Matern fit records ``matern_nu``; the other kinds keep the
    ErrorModel default, the exponential's own 0.5."""
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    (d / "step1_config.txt").write_text(
        f"error_model={kind}\nrun_selection=false\nmatern_nu=2.5\n"
    )
    assert main(["fit-step1", str(d)]) == 0
    lines = (d / "out" / "step1_fit.txt").read_text().splitlines()
    assert f"error_kind={kind}" in lines
    assert "error_nu=0.5" in lines


def test_unknown_landuse_code_exits_3(tmp_path, capsys):
    """A land-use code missing from the reclass map, within reach of a
    target, stops ``features`` and ``predict`` with exit 3 naming it."""
    from scarr.data_model import load_dataset

    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    for command in ("fit-step1", "fit-step2"):
        assert main([command, str(d)]) == 0
    ds = load_dataset(str(d))
    # a calibration and a dense-time site 1.4 km apart: the cell halfway
    # between them lies in the first land-use rings of both
    a, b = ds.sites["C002"], ds.sites["E000"]
    assert math.hypot(a.x - b.x, a.y - b.y) < 1500.0
    raster = ds.landuse
    col = int(((a.x + b.x) / 2 - raster.x_ll) // raster.cell_size)
    row = raster.n_rows - 1 - int(((a.y + b.y) / 2 - raster.y_ll) // raster.cell_size)
    lines = (d / "landuse.asc").read_text().split("\n")
    cells = lines[6 + row].split()
    cells[col] = "99"
    lines[6 + row] = " ".join(cells)
    (d / "landuse.asc").write_text("\n".join(lines))
    capsys.readouterr()
    for command in ("features", "predict"):
        assert main([command, str(d)]) == EXIT_DATA, command
        err = capsys.readouterr().err
        assert "error: data: land-use code 99 absent from reclass map" in err, err
        assert "Traceback" not in err


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


def test_grid_day_past_the_record_writes_nothing(pipeline_dir, tmp_path, capsys):
    """A raster day past the record is a config error, found before
    ``predict`` writes any product."""
    out = tmp_path / "out"
    out.mkdir()
    for name in ("step1_fit.txt", "step2_fit.txt"):
        shutil.copy(os.path.join(pipeline_dir, "out", name), out)
    cfg = tmp_path / "predict_config.txt"
    cfg.write_text("grid_days=5 500\n")
    capsys.readouterr()
    assert main(["predict", pipeline_dir, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{cfg}:1: grid_days: day 500 is past the record's last day, 90" in err
    assert sorted(os.listdir(out)) == ["step1_fit.txt", "step2_fit.txt"]


def test_raster_directory_that_is_a_file_writes_nothing(pipeline_dir, tmp_path, capsys):
    """A file where the raster directory goes is a config error naming it,
    found before ``predict`` writes any product."""
    out = tmp_path / "out"
    out.mkdir()
    for name in ("step1_fit.txt", "step2_fit.txt"):
        shutil.copy(os.path.join(pipeline_dir, "out", name), out)
    (out / "rasters").write_text("")
    cfg = tmp_path / "predict_config.txt"
    cfg.write_text("grid_days=5\n")
    capsys.readouterr()
    assert main(["predict", pipeline_dir, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{out / 'rasters'}: cannot make output directory: " in err
    assert "Traceback" not in err
    assert sorted(os.listdir(out)) == ["rasters", "step1_fit.txt", "step2_fit.txt"]


def _config_is_a_directory(d, tmp_path):
    (tmp_path / "config").mkdir()
    return ["--config", str(tmp_path / "config")], tmp_path / "config", EXIT_CONFIG


def _tracts_is_a_directory(d, tmp_path):
    (d / "tracts.csv").unlink()
    (d / "tracts.csv").mkdir()
    return [], d / "tracts.csv", EXIT_DATA


def _sites_not_text(d, tmp_path):
    sites = d / "sites.csv"
    sites.write_bytes(sites.read_bytes().replace(b"C001", b"C\xff01"))
    return [], sites, EXIT_DATA


def _out_is_a_file(d, tmp_path):
    (tmp_path / "out").write_text("")
    return ["--out", str(tmp_path / "out")], tmp_path / "out", EXIT_CONFIG


@pytest.mark.parametrize("make", [_config_is_a_directory, _tracts_is_a_directory,
                                  _sites_not_text, _out_is_a_file])
def test_unusable_path_names_it(tmp_path, capsys, make):
    """An input that cannot be read as text, or an output directory that
    cannot be made, ends with an exit code that names the path."""
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    argv, path, code = make(d, tmp_path)
    capsys.readouterr()
    assert main(["features", str(d), *argv]) == code
    err = capsys.readouterr().err
    assert f"{path}: " in err
    assert "Traceback" not in err


def test_smoothed_flag_enters_the_config_hash(pipeline_dir, fitted_out, tmp_path):
    def config_hash(*extra):
        assert main(["predict", pipeline_dir, "--out", fitted_out, *extra]) == 0
        with open(os.path.join(fitted_out, "site_predictions.csv")) as fh:
            return [fh.readline(), fh.readline()][1]

    cfg = tmp_path / "predict_config.txt"
    cfg.write_text("smoothed=true\n")
    by_flag = config_hash("--smoothed")
    assert by_flag.startswith("# config_hash=")
    assert by_flag == config_hash("--config", str(cfg))
    assert by_flag != config_hash()


def test_fit_step2_exits_4_when_no_start_converges(pipeline_dir, fitted_out, monkeypatch,
                                                  capsys):
    from scarr import step2
    from scarr.search import _Search

    def failed(x0, **kwargs):
        yield x0
        return _Search(x=x0, fun=math.inf, nit=0, nfev=0, success=False,
                       message="no step taken")

    monkeypatch.setattr(step2, "_bfgs", failed)
    capsys.readouterr()
    assert main(["fit-step2", pipeline_dir, "--out", fitted_out]) == EXIT_NUMERIC
    err = capsys.readouterr().err.splitlines()
    assert "error: numeric: fit_mle: no multistart converged" in err


def test_fit_step2_reports_unconverged_optimizer(pipeline_dir, fitted_out, monkeypatch,
                                                 capsys):
    from scarr import step2

    bfgs = step2._bfgs

    def unconverged(*args, **kwargs):
        res = yield from bfgs(*args, **kwargs)
        return res._replace(success=False, message="stopped early")

    monkeypatch.setattr(step2, "_bfgs", unconverged)
    capsys.readouterr()
    assert main(["fit-step2", pipeline_dir, "--out", fitted_out]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "converge" in ln]
    assert lines == ["fit-step2: warning: optimizer did not converge: stopped early"]
    assert "converged=false" in Path(fitted_out, "step2_fit.txt").read_text().splitlines()


@pytest.mark.parametrize("command", ["fit-step2", "predict", "validate"])
def test_one_site_table_per_command(tmp_path, monkeypatch, command):
    """Each command computes the static covariates of all its sites in one
    call: the dense sites, then the prediction sites (predict) or the
    interval sites (validate)."""
    from scarr import covariates as cov
    from scarr.data_model import load_dataset

    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    with open(d / "sites.csv", "a") as fh:
        fh.write("P000,40000.0,10000.0,prediction\n")
    for step in ("fit-step1", "fit-step2"):
        assert main([step, str(d)]) == 0
    ds = load_dataset(str(d))
    dense = sorted(s.id for s in ds.sites_with_role("dense_time"))
    extra = {"fit-step2": [], "predict": ["P000"],
             "validate": [s.id for s in cov.interval_sites(ds)]}[command]
    calls, original = [], cov.site_covariates

    def counted(dataset, sites, *args):
        calls.append([s.id for s in sites])
        return original(dataset, sites, *args)

    monkeypatch.setattr(cov, "site_covariates", counted)
    assert main([command, str(d)]) == 0
    assert calls == [dense + extra]


def test_one_separation_table_per_gls_fit_step1(tmp_path, monkeypatch):
    """A GLS fit-step1 with selection sorts the pair separations once: the
    full fit, the selection's whitening and the refit after a ring is
    dropped share the table."""
    from scarr import step1

    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    (d / "step1_config.txt").write_text("error_model=exponential\nrun_selection=true\n")
    calls = {"_pairs": 0, "fit_gls": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(step1, name, counted(name, getattr(step1, name)))
    assert main(["fit-step1", str(d)]) == 0
    assert calls == {"_pairs": 1, "fit_gls": 2}  # a ring was dropped, so refitted


def _site_predictions(out):
    """The rows of ``out``'s site_predictions.csv, without header lines."""
    return Path(out, "site_predictions.csv").read_text().splitlines()[3:]


def test_predict_at_prediction_sites(tmp_path):
    """Prediction sites get rows of their own in site id order, before and
    after the dense sites, and leave the dense sites' rows as they were."""
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    with open(d / "sites.csv", "a") as fh:
        fh.write("P000,40000.0,10000.0,prediction\nA000,20000.0,20000.0,prediction\n")
    for command in ("fit-step1", "fit-step2"):
        assert main([command, str(d)]) == 0
    shutil.copytree(d / "out", tmp_path / "dense")
    assert main(["predict", str(d)]) == 0
    assert main(["predict", MINI, "--out", str(tmp_path / "dense")]) == 0
    rows = _site_predictions(d / "out")
    assert list(dict.fromkeys(row.split(",")[0] for row in rows)) == [
        "A000", "E000", "E001", "E002", "E003", "P000"]
    assert [row for row in rows if row.startswith("E")] == _site_predictions(tmp_path / "dense")


def _outside_every_tract(d):
    with open(d / "sites.csv", "a") as fh:
        fh.write("Z000,-500000.0,10000.0,prediction\n")
    return "error: data: site Z000: outside all census tracts"


def _no_gridded_value(d):
    """A site at the centroid of coarse pixel 10, which no other site is
    nearest to, with that pixel's rows removed."""
    daily = d / "cmaq_daily.csv"
    daily.write_text("".join(line for line in daily.read_text().splitlines(keepends=True)
                             if not line.startswith("10,")))
    with open(d / "sites.csv", "a") as fh:
        fh.write("G000,18000.0,30000.0,prediction\n")
    return "error: data: predict: no usable days for site G000"


@pytest.mark.parametrize("make", [_outside_every_tract, _no_gridded_value])
def test_prediction_site_without_prediction_exits_3(tmp_path, capsys, make):
    d = tmp_path / "mini"
    shutil.copytree(MINI, d)
    want = make(d)
    for command in ("fit-step1", "fit-step2"):
        assert main([command, str(d)]) == 0
    capsys.readouterr()
    assert main(["predict", str(d)]) == EXIT_DATA
    assert want in capsys.readouterr().err.splitlines()
    assert not (d / "out" / "site_predictions.csv").exists()
