"""Calibrated daily predictions at new sites and on a fine raster grid.

A new site is handled by observation-vector augmentation: its observation is
treated as always missing, so the shared daily state path is unchanged and
the prediction is the state estimate plus the site's offset.  Validation
metrics compare predictions against the daily monitoring series and the
interval-averaged observations.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from scarr import covariates as cov
from scarr.data_model import (
    Dataset,
    RasterGrid,
    SiteRecord,
    nearest_cmaq_centroid,
    write_raster,
    write_table,
)
from scarr.errors import DataError
from scarr.step1 import StepOneFit, additive_bias_c_tilde, design_columns
from scarr.step2 import DlmInputs, DlmParams, kalman_filter, kalman_smoother


def c_tilde_for_day(fit: StepOneFit, static: dict, season: np.ndarray) -> np.ndarray:
    """Additive bias at one location on every day of a (T, 4) seasonal basis."""
    values = design_columns(static, season.T, fit.spec)
    return np.broadcast_to(additive_bias_c_tilde(fit, values), len(season))


class Targets:
    """Days 1..T of a dataset's record and the linear offset of any target
    (site or raster pixel) on them: c-tilde from its static covariates and
    each day's seasonal basis, y1 from its nearest coarse pixel (NaN where
    that has no value).  Offsets of sites are kept, so each is computed once.
    """

    def __init__(self, dataset: Dataset, fit: StepOneFit):
        self.dense = sorted(dataset.sites_with_role("dense_time"), key=lambda s: s.id)
        if not self.dense:
            raise DataError("no dense_time sites in dataset")
        series = list(dataset.cmaq.series.values())
        series += [dataset.daily_series[s.id] for s in self.dense
                   if s.id in dataset.daily_series]
        T = max((int(ser.days.max()) for ser in series if ser.days.size), default=0)
        if T == 0:
            raise DataError("no daily data present")
        self.dataset, self.fit, self.n_days = dataset, fit, T
        self.segments = cov.segmentize([(p.vertices, p.adt) for p in dataset.traffic])
        self.season = np.array(
            [cov.seasonal_basis(dataset.manifest.dyr(d)) for d in range(1, T + 1)]
        )
        self._sites = {}

    def compute(self, target: SiteRecord):
        """(c_tilde, y1) arrays over days 1..T at one target."""
        static = cov.site_static_covariates(
            self.dataset, target, self.segments, self.fit.spec
        )
        y1 = np.full(self.n_days, np.nan)
        cser = self.dataset.cmaq.series.get(static["cmaq_pixel"])
        if cser is not None:
            y1[cser.days - 1] = cser.values
        return c_tilde_for_day(self.fit, static, self.season), y1

    def offsets(self, site: SiteRecord):
        """``compute(site)``, kept for the next request of the same site."""
        if site.id not in self._sites:
            self._sites[site.id] = self.compute(site)
        return self._sites[site.id]


def build_dlm_inputs(targets: Targets) -> DlmInputs:
    """Step II inputs from the dense-time sites, in ``targets.dense`` order.

    Days where the gridded-model value is unavailable have the observation
    masked as missing as well.
    """
    dataset, T, n = targets.dataset, targets.n_days, len(targets.dense)
    y = np.full((T, n), np.nan)
    c_t = np.empty((T, n))
    y1 = np.empty((T, n))
    for j, site in enumerate(targets.dense):
        c_t[:, j], y1[:, j] = targets.offsets(site)
        ser = dataset.daily_series.get(site.id)
        if ser is not None:
            y[ser.days - 1, j] = ser.values
    y[~np.isfinite(y1)] = np.nan
    return DlmInputs(y=y, c_tilde=c_t, y1=y1)


@dataclass
class SitePrediction:
    site_id: str
    days: np.ndarray
    pred: np.ndarray
    ci_half: np.ndarray

    @property
    def n_days(self) -> int:
        return len(self.days)


@dataclass(frozen=True)
class PredictConfig:
    """``predict_config.txt``: each field is a key, parsed by its type."""

    smoothed: bool = False  # smoothed instead of filtered states
    grid_days: tuple[int, ...] = ()  # days to draw a raster for
    grid_ncols: int = 16
    grid_nrows: int = 16
    grid_cell_size: float = 3000.0
    grid_xll: float = 0.0
    grid_yll: float = 0.0


def state_path(params: DlmParams, inputs: DlmInputs, smoothed: bool = False):
    """(mean, variance) arrays of the shared daily state."""
    if smoothed:
        est = kalman_smoother(params, inputs)
        return est.smoothed_mean, est.smoothed_var
    est = kalman_filter(params, inputs)
    return est.filtered_mean, est.filtered_var


def predict_site(site_id: str, params: DlmParams, state, c_tilde, y1) -> SitePrediction:
    """Prediction ``(a + beta_c*c_tilde) + gamma_hat*y1`` and its 95% CI
    half-width at a target, on the days where y1 is present.  The target is an
    always-missing observation column, so ``state = (mean, variance)`` is the
    shared state path; the interval adds the observation noise.
    """
    a_mean, a_var = state
    if len(c_tilde) != len(a_mean) or len(y1) != len(a_mean):
        raise DataError(
            f"predict_site: offsets span {len(y1)} days, not the fitted range "
            f"of {len(a_mean)}"
        )
    idx = np.flatnonzero(np.isfinite(y1))
    c = np.asarray(c_tilde)[idx]
    if not np.all(np.isfinite(c)):
        raise DataError(f"predict_site: missing additive bias at {site_id}")
    pred = a_mean[idx] + params.beta_c * c + params.gamma_hat * y1[idx]
    half = 1.96 * np.sqrt(np.clip(a_var[idx] + params.sigma_z**2, 0.0, None))
    return SitePrediction(site_id, idx + 1, pred, half)


def predict_grid(
    targets: Targets,
    params: DlmParams,
    state,
    n_cols: int,
    n_rows: int,
    x_ll: float,
    y_ll: float,
    cell_size: float,
    days,
    nodata: float = -9999.0,
):
    """One RasterGrid of predicted concentration per requested day.

    Every pixel centroid is a target.  Pixels outside the coarse-grid
    coverage (or outside every census tract) are nodata.  Returns
    {day: RasterGrid}.
    """
    days = [int(d) for d in days]
    for d in days:
        if d < 1 or d > targets.n_days:
            raise DataError(f"predict_grid: day {d} outside fitted range")
    cmaq = targets.dataset.cmaq
    half_cell = cmaq.cell_size / 2.0
    grids = {
        d: RasterGrid(n_cols, n_rows, x_ll, y_ll, cell_size, nodata,
                      np.full((n_rows, n_cols), nodata))
        for d in days
    }
    if not grids or cmaq.pixel_ids.size == 0:
        return grids
    by_day = np.full(targets.n_days + 1, nodata)
    for i, (px, py) in enumerate(grids[days[0]].centroids().tolist()):
        r, c_i = divmod(i, n_cols)
        pixel = SiteRecord(f"px_{r}_{c_i}", px, py, "prediction")
        k = int(np.where(cmaq.pixel_ids == nearest_cmaq_centroid(pixel, cmaq))[0][0])
        if abs(cmaq.xs[k] - px) > half_cell or abs(cmaq.ys[k] - py) > half_cell:
            continue  # outside coarse-grid coverage
        try:
            p = predict_site(pixel.id, params, state, *targets.compute(pixel))
        except DataError:
            continue  # e.g. outside every census tract
        by_day[:] = nodata
        by_day[p.days] = p.pred
        for d in days:
            grids[d].values[r, c_i] = by_day[d]
    return grids


@dataclass
class MetricsReport:
    per_site: dict  # site_id -> {"r": .., "mse": .., "r_raw": .., "mse_raw": ..}
    mspe: float = math.nan
    mspe_raw: float = math.nan


def pearson_r(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    den = math.sqrt(float(a @ a) * float(b @ b))
    if den == 0:
        return math.nan
    return float(a @ b) / den


def metrics(
    predictions: dict,
    observations: dict,
    raw: dict | None = None,
    interval_pairs=None,
    raw_interval_pairs=None,
) -> MetricsReport:
    """Per-site correlation and MSE, plus MSPE over interval observations.

    predictions/observations/raw map site_id -> (days, values) aligned
    arrays (NaN = missing); interval_pairs is a list of
    (predicted interval mean, observed interval value).
    """
    per_site = {}
    for sid, (days_p, vals_p) in predictions.items():
        if sid not in observations:
            continue
        days_o, vals_o = observations[sid]
        common = np.intersect1d(days_p, days_o)
        ip = np.searchsorted(days_p, common)
        io = np.searchsorted(days_o, common)
        vp, vo = np.asarray(vals_p)[ip], np.asarray(vals_o)[io]
        ok = np.isfinite(vp) & np.isfinite(vo)
        if not ok.any():
            raise DataError(f"metrics: no overlapping days for site {sid}")
        vp, vo = vp[ok], vo[ok]
        entry = {
            "mse": float(np.mean((vp - vo) ** 2)),
            "r": pearson_r(vp, vo) if len(vp) >= 2 else math.nan,
            "n": int(len(vp)),
        }
        if raw and sid in raw:
            days_r, vals_r = raw[sid]
            ir = np.searchsorted(days_r, common)
            vr = np.asarray(vals_r)[ir][ok]
            ok_r = np.isfinite(vr)
            entry["mse_raw"] = float(np.mean((vr[ok_r] - vo[ok_r]) ** 2))
            entry["r_raw"] = (
                pearson_r(vr[ok_r], vo[ok_r]) if ok_r.sum() >= 2 else math.nan
            )
        per_site[sid] = entry
    report = MetricsReport(per_site=per_site)
    if interval_pairs:
        arr = np.asarray(interval_pairs, dtype=float)
        report.mspe = float(np.mean((arr[:, 0] - arr[:, 1]) ** 2))
    if raw_interval_pairs:
        arr = np.asarray(raw_interval_pairs, dtype=float)
        report.mspe_raw = float(np.mean((arr[:, 0] - arr[:, 1]) ** 2))
    return report


def write_site_predictions(preds, path: str, header_lines=()) -> None:
    rows = (
        (p.site_id, int(d), v, v - h, v + h)
        for p in preds for d, v, h in zip(p.days, p.pred, p.ci_half)
    )
    write_table(path, ("site_id", "day", "pred", "ci_lo", "ci_hi"), rows, header_lines)


def write_metrics(report: MetricsReport, path: str, header_lines=()) -> None:
    rows = [
        (sid, e.get("r", math.nan), e["mse"], e.get("r_raw", math.nan),
         e.get("mse_raw", math.nan))
        for sid, e in sorted(report.per_site.items())
    ]
    rows.append(("OVERALL_MSPE", report.mspe, "NA", report.mspe_raw, "NA"))
    write_table(path, ("site_id", "r", "mse", "r_raw", "mse_raw"), rows, header_lines)


def raster_day_filename(day: int) -> str:
    return f"no2_day{day:04d}.asc"


def write_prediction_rasters(grids: dict, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for day in sorted(grids):
        path = os.path.join(out_dir, raster_day_filename(day))
        write_raster(grids[day], path)
        paths.append(path)
    return paths
