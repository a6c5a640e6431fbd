import dataclasses
import logging
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from scarr import covariates as cov
from scarr.cli import _compute_metrics, main
from scarr.data_model import CmaqGrid, RasterGrid
from scarr.errors import DataError
from scarr.prediction import (
    NODATA,
    Targets,
    build_dlm_inputs,
    c_tilde_for_day,
    metrics,
    pearson_r,
    predict_grid,
    predict_site,
    raster_day_filename,
    state_path,
    write_metrics,
    write_prediction_rasters,
    write_site_predictions,
    without_prediction,
)
from scarr.step1 import assemble_design, design_columns, fit_ols
from scarr.step2 import DlmInputs, DlmParams, kalman_filter, log_likelihood


@pytest.fixture(scope="module")
def mini_fit(mini_dataset):
    ds, _ = mini_dataset
    table = cov.build_covariates(ds)
    design = assemble_design(ds, table)
    return fit_ols(design.X, design.y, design.names)


STATIC = {
    "ttv": np.arange(1.0, 8.0),
    "ttv_quadrant": np.arange(28.0).reshape(4, 7),
    "lu_area": {"forest": np.array([10.0, 20.0, 30.0])},
    "pop_density": 25_000.0,
    "elevation": 120.0,
    "cmaq_index": 0,
}
SEASON = (0.1, 0.2, 0.3, 0.4)
SPEC = cov.BufferSpec()


def rows(*statics):
    """``static_covariates``-style arrays, one row per single-site dict."""
    return {
        key: ({c: np.array([s[key][c] for s in statics]) for c in statics[0][key]}
              if key == "lu_area" else np.array([s[key] for s in statics]))
        for key in statics[0]
    }


class TestCovariateValue:
    """The design column map that both the Step I design and c-tilde use."""

    def column(self, name):
        return design_columns(STATIC, SEASON, SPEC)[name]

    def test_intercept(self):
        assert self.column("intercept") == 1.0

    def test_pop_density_scaled(self):
        assert self.column("pop_density_10k") == pytest.approx(2.5)

    def test_season(self):
        assert self.column("cos_2pi_dyr") == 0.2

    def test_elevation(self):
        assert self.column("elevation_m") == 120.0

    def test_ttv_ring(self):
        assert self.column("ttv_1-2km") == 3.0

    def test_ttv_quadrant_ring(self):
        # NW is quadrant row 1; 0.5-1km is ring column 1
        assert self.column("ttv_NW_0.5-1km") == 8.0

    def test_landuse_combined_scaled(self):
        assert self.column("lu_forest_0-2km") == pytest.approx(0.06)

    def test_landuse_per_ring(self):
        assert self.column("lu_forest_1-2km") == pytest.approx(0.03)

    def test_unknown_column(self, mini_fit):
        import copy

        other = copy.deepcopy(mini_fit)
        other.names[other.names.index("intercept")] = "mystery"
        with pytest.raises(DataError, match="missing retained covariate 'mystery'"):
            c_tilde_for_day(other, rows(STATIC), np.array([SEASON]))


def season_table(*dyrs):
    return np.array([cov.seasonal_basis(d) for d in dyrs])


class TestCTilde:
    def test_matches_manual_dot_product(self, mini_fit):
        dyr = 0.37
        by_hand = {
            "intercept": 1.0,
            "pop_density_10k": 2.5,
            **dict(zip(cov.SEASON_NAMES, cov.seasonal_basis(dyr))),
            **{f"ttv_{lab}": float(k + 1) for k, lab in enumerate(SPEC.ring_labels())},
            "lu_forest_0-2km": 0.06,
        }
        expected = sum(
            b * by_hand[nm]
            for nm, b in zip(mini_fit.names, mini_fit.beta)
            if nm != "cmaq"
        )
        got = c_tilde_for_day(mini_fit, rows(STATIC), season_table(0.9, dyr))
        assert got.shape == (1, 2)
        assert got[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_excludes_gridded_term(self, mini_fit):
        # changing the CMAQ coefficient must not change the additive bias
        import copy

        other = copy.deepcopy(mini_fit)
        other.beta = other.beta.copy()
        other.beta[other.names.index("cmaq")] += 100.0
        season = season_table(0.5)
        assert c_tilde_for_day(mini_fit, rows(STATIC), season) == c_tilde_for_day(
            other, rows(STATIC), season
        )

    def test_all_days_equal_one_day_at_a_time(self, mini_fit):
        season = season_table(*(np.arange(1, 40) / 365.0))
        whole = c_tilde_for_day(mini_fit, rows(STATIC), season)
        for t in range(len(season)):
            assert whole[0, t] == c_tilde_for_day(mini_fit, rows(STATIC), season[t : t + 1])[0, 0]

    def test_n_targets_equal_one_at_a_time(self, mini_fit, rng):
        statics = [
            {**STATIC, "ttv": rng.uniform(0, 5, 7), "pop_density": float(rng.uniform(1e3, 5e4)),
             "lu_area": {"forest": rng.uniform(0, 300, 3)}}
            for _ in range(6)
        ]
        season = season_table(*(np.arange(1, 30) / 365.0))
        whole = c_tilde_for_day(mini_fit, rows(*statics), season)
        assert whole.shape == (6, 29)
        for j, static in enumerate(statics):
            alone = c_tilde_for_day(mini_fit, rows(static), season)
            assert whole[j].tobytes() == alone[0].tobytes()


class TestBuildDlmInputs:
    def test_shapes_and_order(self, mini_dataset, mini_fit):
        ds, _ = mini_dataset
        targets = Targets(ds, mini_fit)
        inputs = build_dlm_inputs(targets)
        site_ids = [s.id for s in targets.dense]
        assert targets.n_days == 90
        assert site_ids == sorted(site_ids)
        assert inputs.y.shape == (90, 4)
        assert np.all(np.isfinite(inputs.c_tilde))

    def test_observation_masked_without_gridded_value(self, mini_dataset, mini_fit):
        ds, _ = mini_dataset
        inputs = build_dlm_inputs(Targets(ds, mini_fit))
        present = np.isfinite(inputs.y)
        assert np.all(np.isfinite(inputs.y1[present]))

    def test_requires_dense_sites(self, mini_dataset, mini_fit):
        import copy

        ds, _ = mini_dataset
        ds2 = copy.copy(ds)
        ds2.sites = {k: v for k, v in ds.sites.items() if v.role != "dense_time"}
        with pytest.raises(DataError, match="no dense_time sites"):
            build_dlm_inputs(Targets(ds2, mini_fit))

    def test_requires_daily_data(self, mini_dataset, mini_fit):
        ds, _ = mini_dataset
        bare = dataclasses.replace(ds, daily_series={},
                                   cmaq=dataclasses.replace(ds.cmaq, series={}))
        with pytest.raises(DataError, match="no daily data present"):
            Targets(bare, mini_fit)

    def test_dense_site_outside_every_tract(self, mini_dataset, mini_fit):
        ds, _ = mini_dataset
        site = sorted(ds.sites_with_role("dense_time"), key=lambda s: s.id)[1]
        sites = {**ds.sites, site.id: dataclasses.replace(site, x=-500_000.0)}
        with pytest.raises(DataError, match=f"site {site.id}: outside all census tracts"):
            build_dlm_inputs(Targets(dataclasses.replace(ds, sites=sites), mini_fit))

    def test_extra_sites_leave_the_inputs_alone(self, mini_dataset, mini_fit):
        """The dense rows of a site table with more sites, one outside every
        tract among them, have the bits of the dense-only table."""
        ds, _ = mini_dataset
        far = dataclasses.replace(cov.interval_sites(ds)[0], id="far", x=-500_000.0)
        targets = Targets(ds, mini_fit, [*cov.interval_sites(ds), far])
        assert targets.ids[-1] == "far" and targets.outside[-1]
        alone, extended = build_dlm_inputs(Targets(ds, mini_fit)), build_dlm_inputs(targets)
        for key in ("y", "c_tilde", "y1"):
            assert getattr(extended, key).tobytes() == getattr(alone, key).tobytes(), key


def small_state_problem(rng, T=30, n=3):
    params = DlmParams(1.5, 2.0, 0.6, mu_a=0.0, beta_c=0.7, gamma_hat=0.5)
    y = rng.normal(12, 4, size=(T, n))
    y[rng.uniform(size=(T, n)) < 0.1] = np.nan
    c = rng.normal(5, 1, size=(T, n))
    y1 = rng.uniform(2, 15, size=(T, n))
    return params, DlmInputs(y=y, c_tilde=c, y1=y1)


class TestAugmentation:
    def test_all_missing_column_leaves_state_unchanged(self, rng):
        params, inputs = small_state_problem(rng)
        T, n = inputs.y.shape
        aug = DlmInputs(
            y=np.column_stack([inputs.y, np.full(T, np.nan)]),
            c_tilde=np.column_stack([inputs.c_tilde, np.zeros(T)]),
            y1=np.column_stack([inputs.y1, np.zeros(T)]),
        )
        base = kalman_filter(params, inputs)
        plus = kalman_filter(params, aug)
        np.testing.assert_allclose(plus.filtered_mean, base.filtered_mean, atol=1e-12)
        np.testing.assert_allclose(plus.filtered_var, base.filtered_var, atol=1e-12)
        assert log_likelihood(params, aug) == pytest.approx(log_likelihood(params, inputs),
                                                            abs=1e-12)

    def test_predict_site_is_state_plus_offset(self, rng):
        params, inputs = small_state_problem(rng)
        T = inputs.n_days
        c_new = rng.normal(4, 1, size=(2, T))
        y1_new = rng.uniform(2, 15, size=(2, T))
        a_mean, a_var = state_path(params, inputs)
        pred, half = predict_site(params, (a_mean, a_var), c_new, y1_new)
        expected = a_mean + params.beta_c * c_new + params.gamma_hat * y1_new
        assert pred.shape == half.shape == (2, T) and np.isfinite(pred).all()
        np.testing.assert_allclose(pred, expected, rtol=1e-12)
        np.testing.assert_allclose(
            half, np.tile(1.96 * np.sqrt(a_var + params.sigma_z**2), (2, 1)), rtol=1e-12
        )

    def test_smoothed_option(self, rng):
        params, inputs = small_state_problem(rng)
        T = inputs.n_days
        c_new = np.zeros((1, T))
        y1_new = np.ones((1, T))
        filtered = state_path(params, inputs, smoothed=False)
        smoothed = state_path(params, inputs, smoothed=True)
        pf, _ = predict_site(params, filtered, c_new, y1_new)
        ps, _ = predict_site(params, smoothed, c_new, y1_new)
        assert not np.allclose(pf, ps)

    def test_day_outside_range(self, rng):
        params, inputs = small_state_problem(rng)
        state = state_path(params, inputs)
        with pytest.raises(DataError, match="fitted range"):
            predict_site(params, state, np.zeros((1, 31)), np.ones((1, 31)))

    def test_predict_series_rejects_missing_offsets(self, rng):
        params, inputs = small_state_problem(rng)
        T = inputs.n_days
        c_new = np.zeros((2, T))
        c_new[1, 3] = np.nan
        errors = without_prediction(["ok", "new"], np.array([False, False]), c_new,
                                    np.ones((2, T), dtype=bool))
        assert list(errors) == [1]
        assert re.search("missing additive bias at new", str(errors[1]))

    def test_only_days_with_gridded_value(self, rng):
        params, inputs = small_state_problem(rng)
        T = inputs.n_days
        y1_new = np.ones((1, T))
        y1_new[0, [0, 5]] = np.nan
        c_new = np.zeros((1, T))
        c_new[0, 5] = np.nan  # no prediction on day 6, so no bias needed there
        assert without_prediction(["new"], np.array([False]), c_new, np.isfinite(y1_new)) == {}
        pred, half = predict_site(params, state_path(params, inputs), c_new, y1_new)
        days = np.flatnonzero(np.isfinite(pred[0])) + 1
        assert 1 not in days and 6 not in days
        assert len(days) == T - 2
        np.testing.assert_array_equal(np.isfinite(half), np.isfinite(pred))


class TestPredictGrid:
    def test_grid_days_and_nodata(self, mini_dataset, mini_fit, rng):
        ds, _ = mini_dataset
        targets = Targets(ds, mini_fit)
        inputs = build_dlm_inputs(targets)
        params = DlmParams(3.0, 4.0, 0.6, mu_a=0.0, beta_c=0.7, gamma_hat=0.5)
        # grid straddles the domain edge: left half outside coarse coverage
        grids = predict_grid(
            targets, params, state_path(params, inputs),
            n_cols=8, n_rows=4, x_ll=-24_000.0, y_ll=18_000.0, cell_size=6_000.0,
            days=[10, 40],
        )
        assert set(grids) == {10, 40}
        for g in grids.values():
            assert isinstance(g, RasterGrid)
            left = g.values[:, :3]
            assert np.all(left == g.nodata_value)
            inside = g.values[:, 5:]
            assert np.all(inside != g.nodata_value)
            assert np.all(inside > 0)

    def test_nodata_pixels_are_counted_in_the_log(self, mini_dataset, mini_fit, caplog):
        ds, _ = mini_dataset
        params = DlmParams(3.0, 4.0, 0.6, beta_c=0.7, gamma_hat=0.5)
        state = state_path(params, build_dlm_inputs(Targets(ds, mini_fit)))
        # with one census tract left, pixels outside it have no covariates
        targets = Targets(dataclasses.replace(ds, tracts=ds.tracts[:1]), mini_fit)
        caplog.set_level(logging.INFO, logger="scarr")
        grid = predict_grid(
            targets, params, state, n_cols=8, n_rows=4, x_ll=-24_000.0, y_ll=18_000.0,
            cell_size=6_000.0, days=[10],
        )[10]
        (message,) = caplog.messages
        m = re.fullmatch(r"(\d+) of 32 raster pixels nodata: (\d+) outside the coarse grid, "
                         r"(\d+) without a prediction \(first: (.*)\)", message)
        assert m, message
        nodata, outside, failed = int(m[1]), int(m[2]), int(m[3])
        assert nodata == int(np.sum(grid.values == grid.nodata_value)) == outside + failed
        assert outside >= 12 and failed > 0  # the left three columns lie off the grid
        assert m[4].endswith("outside all census tracts")

    def test_pixels_without_additive_bias_are_counted(self, mini_dataset, mini_fit, caplog):
        import copy

        ds, _ = mini_dataset
        # only sites have an elevation, so a fit that uses it has no c-tilde at a pixel
        fit = copy.deepcopy(mini_fit)
        fit.names[fit.names.index("pop_density_10k")] = "elevation_m"
        targets = Targets(ds, fit)
        params = DlmParams(3.0, 4.0, 0.6, beta_c=0.7, gamma_hat=0.5)
        state = state_path(params, build_dlm_inputs(targets))
        caplog.set_level(logging.INFO, logger="scarr")
        grid = predict_grid(
            targets, params, state, n_cols=8, n_rows=4, x_ll=-24_000.0, y_ll=18_000.0,
            cell_size=6_000.0, days=[7],
        )[7]
        assert np.all(grid.values == grid.nodata_value)
        assert caplog.messages == [
            "32 of 32 raster pixels nodata: 16 outside the coarse grid, 16 without a "
            "prediction (first: predict_site: missing additive bias at px_0_4)"
        ]

    def test_empty_coarse_grid_is_all_nodata(self, mini_dataset, mini_fit):
        ds, _ = mini_dataset
        params = DlmParams(3.0, 4.0, 0.6, beta_c=0.7, gamma_hat=0.5)
        state = state_path(params, build_dlm_inputs(Targets(ds, mini_fit)))
        empty = CmaqGrid(np.empty(0, dtype=int), np.empty(0), np.empty(0), ds.cmaq.cell_size, {})
        targets = Targets(dataclasses.replace(ds, cmaq=empty), mini_fit)
        grids = predict_grid(targets, params, state, n_cols=3, n_rows=2, x_ll=0.0, y_ll=0.0,
                             cell_size=6_000.0, days=[5, 9])
        assert sorted(grids) == [5, 9]
        for grid in grids.values():
            assert grid.values.shape == (2, 3) and np.all(grid.values == NODATA)

    def test_day_out_of_range(self, mini_dataset, mini_fit):
        ds, _ = mini_dataset
        targets = Targets(ds, mini_fit)
        inputs = build_dlm_inputs(targets)
        params = DlmParams(3.0, 4.0, 0.6)
        state = state_path(params, inputs)
        with pytest.raises(DataError, match="outside fitted range"):
            predict_grid(targets, params, state, 2, 2, 0, 0, 1000.0, [targets.n_days + 1])

    def test_pixel_is_a_target(self, mini_dataset, mini_fit):
        """Every pixel's values, filtered and smoothed, are those of
        ``predict_site`` at its centroid, a target of its own."""
        ds, _ = mini_dataset
        targets = Targets(ds, mini_fit)
        params = DlmParams(3.0, 4.0, 0.6, beta_c=0.7, gamma_hat=0.5)
        for smoothed in (False, True):
            state = state_path(params, build_dlm_inputs(targets), smoothed)
            grids = predict_grid(
                targets, params, state, 4, 4, 12_000.0, 12_000.0, 6_000.0, [7, 30]
            )
            for i, (px, py) in enumerate(grids[7].centroids()):
                static = cov.static_covariates(ds, [(px, py)], targets.segments, mini_fit.spec)
                pred, _ = predict_site(params, state, *targets.offsets(static))
                for d in (7, 30):
                    assert grids[d].values.flat[i] == pred[0, d - 1]

    def test_pixel_offsets_on_grid_days_only(self, mini_dataset, mini_fit):
        ds, _ = mini_dataset
        targets = Targets(ds, mini_fit)
        static = cov.static_covariates(ds, [(20_000.0, 30_000.0)], targets.segments,
                                       mini_fit.spec)
        c_all, y1_all = targets.offsets(static)
        c_two, y1_two = targets.offsets(static, [9, 4])
        assert c_all.shape == y1_all.shape == (1, targets.n_days)
        assert c_two.tobytes() == c_all[:, [8, 3]].tobytes()
        assert y1_two.tobytes() == y1_all[:, [8, 3]].tobytes()

    def test_raster_writer(self, tmp_path, mini_dataset, mini_fit):
        ds, _ = mini_dataset
        targets = Targets(ds, mini_fit)
        inputs = build_dlm_inputs(targets)
        params = DlmParams(3.0, 4.0, 0.6, beta_c=0.7, gamma_hat=0.5)
        grids = predict_grid(
            targets, params, state_path(params, inputs),
            4, 4, 12_000.0, 12_000.0, 6_000.0, [7],
        )
        paths = write_prediction_rasters(grids, str(tmp_path))
        assert paths == [str(tmp_path / "no2_day0007.asc")]
        assert (tmp_path / "no2_day0007.asc").read_text().startswith("ncols 4")


MINI = Path(__file__).resolve().parents[1] / "data" / "mini"

#: ``step1_config.txt`` on data/mini: the default, whose fit keeps no
#: quadrant column, and one whose fit keeps twelve.
QUADRANT_CONFIGS = {
    "default": "",
    "quadrants": "use_quadrants=true\nbuffer_radii_km=2 4 6\nrun_selection=false\n",
}


@pytest.mark.parametrize("name", sorted(QUADRANT_CONFIGS))
def test_one_traffic_pass_per_chunk(tmp_path, monkeypatch, name):
    """Every command, with or without quadrant columns in the fit, gets both
    traffic tables of a ``static_covariates`` chunk from one pass over its
    (point, source) pairs: one ``_ring_sources`` call per ``ring_ttv`` call."""
    data = tmp_path / "mini"
    shutil.copytree(MINI, data)
    (data / "step1_config.txt").write_text(QUADRANT_CONFIGS[name])
    (data / "predict_config.txt").write_text("grid_days=3 40\n")  # a 16 x 16 raster
    calls = {"ring_ttv": 0, "_ring_sources": 0}
    for fn in calls:
        def counted(*args, _fn=fn, _original=getattr(cov, fn), **kwargs):
            calls[_fn] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cov, fn, counted)
    monkeypatch.setattr(cov, "CHUNK_ELEMENTS", 1 << 11)  # several chunks each
    for command in ("features", "fit-step1", "fit-step2", "predict", "validate"):
        calls.update(dict.fromkeys(calls, 0))
        assert main([command, str(data)]) == 0, command
        assert calls["ring_ttv"] > 1, command
        assert calls["_ring_sources"] == calls["ring_ttv"], command


class TestMetrics:
    def test_pearson_r(self):
        a = np.array([1.0, 2.0, 3.0])
        assert pearson_r(a, 2 * a + 1) == pytest.approx(1.0)
        assert pearson_r(a, -a) == pytest.approx(-1.0)
        assert math.isnan(pearson_r(a, np.ones(3)))

    def test_hand_example(self):
        preds = np.array([[1.0, 2.0, 3.0, 4.0]])
        obs = np.array([[1.0, 2.0, 3.0, 8.0]])
        raw = np.zeros((1, 4))
        rep = metrics(["s"], preds, obs, raw, interval_pairs=[(2.0, 3.0), (4.0, 4.0)])
        assert rep.per_site["s"]["mse"] == pytest.approx(16.0 / 4)
        assert rep.per_site["s"]["mse_raw"] == pytest.approx((1 + 4 + 9 + 64) / 4)
        assert rep.mspe == pytest.approx(0.5)

    def test_missing_overlap_raises(self):
        with pytest.raises(DataError, match="no overlapping days"):
            metrics(["s"], np.array([[np.nan, np.nan]]), np.array([[1.0, 2.0]]))

    def test_skips_sites_without_observations(self, mini_dataset, mini_fit):
        ds, _ = mini_dataset
        dropped = sorted(ds.daily_series)[0]
        ds = dataclasses.replace(
            ds, daily_series={k: v for k, v in ds.daily_series.items() if k != dropped})
        targets = Targets(ds, mini_fit, cov.interval_sites(ds))
        params = DlmParams(3.0, 4.0, 0.6, beta_c=0.7, gamma_hat=0.5)
        rep = _compute_metrics(targets, params, state_path(params, build_dlm_inputs(targets)))
        assert dropped in [s.id for s in targets.dense]
        assert sorted(rep.per_site) == sorted(ds.daily_series)

    def test_interval_past_the_record_end(self, mini_dataset, mini_fit):
        """An interval that runs past day T is averaged over its days up to T."""
        ds, _ = mini_dataset
        late = dataclasses.replace(ds.interval_obs[0], t_start=85, t_end=120)
        ds = dataclasses.replace(ds, interval_obs=[late])
        targets = Targets(ds, mini_fit, [ds.sites[late.site_id]])
        params = DlmParams(3.0, 4.0, 0.6, beta_c=0.7, gamma_hat=0.5)
        state = state_path(params, build_dlm_inputs(targets))
        rep = _compute_metrics(targets, params, state)
        c_tilde, y1 = targets.c_tilde[-1:], targets.y1[-1:]
        pred, _ = predict_site(params, state, c_tilde, y1)
        assert targets.n_days == 90 and np.isfinite(pred[0, 84:]).all()
        assert rep.mspe == (float(np.mean(pred[0, 84:])) - late.value) ** 2
        assert rep.mspe_raw == (float(np.mean(y1[0, 84:])) - late.value) ** 2

    def test_metrics_csv_format(self, tmp_path):
        rep = metrics(
            ["s"], np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 2.5, 3.0]]),
            interval_pairs=[(1.0, 2.0)],
        )
        path = tmp_path / "metrics.csv"
        write_metrics(rep, str(path), header_lines=["hdr"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# hdr"
        assert lines[1] == "site_id,r,mse,r_raw,mse_raw"
        assert lines[-1].startswith("OVERALL_MSPE,1")

    def test_site_predictions_csv(self, tmp_path, rng):
        params, inputs = small_state_problem(rng)
        T = inputs.n_days
        pred, half = predict_site(params, state_path(params, inputs), np.zeros((1, T)),
                                  np.ones((1, T)))
        path = tmp_path / "preds.csv"
        write_site_predictions(["s1"], pred, half, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "site_id,day,pred,ci_lo,ci_hi"
        assert len(lines) == T + 1
        first = lines[1].split(",")
        assert first[0] == "s1" and first[1] == "1"
        assert float(first[2]) - float(first[3]) == pytest.approx(
            float(half[0, 0]), rel=1e-9
        )


def test_raster_day_filename():
    assert raster_day_filename(7) == "no2_day0007.asc"
    assert raster_day_filename(365) == "no2_day0365.asc"
