"""Calibrated daily predictions at new sites and on a fine raster grid.

A new site is handled by observation-vector augmentation: its observation is
treated as always missing, so the shared daily state path is unchanged and
the prediction is the state estimate plus the site's offset.  Validation
metrics compare predictions against the daily monitoring series and the
interval-averaged observations.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from scarr import covariates as cov
from scarr.data_model import Dataset, RasterGrid, write_raster, write_table
from scarr.errors import ConfigError, DataError
from scarr.step1 import StepOneFit, additive_bias_c_tilde, design_columns
from scarr.step2 import DlmInputs, DlmParams, kalman_filter, kalman_smoother

_LOG = logging.getLogger(__name__)

#: Value of a raster pixel without a prediction.
NODATA = -9999.0


def c_tilde_for_day(fit: StepOneFit, static: dict, season: np.ndarray) -> np.ndarray:
    """Additive bias at N targets (``static_covariates`` output) on each day
    of a (D, 4) seasonal basis: an (N, D) array.  Terms are added in
    ``fit.names`` order elementwise, not by a matrix product, so each entry
    has the bits of its target and day computed alone."""
    # season columns (D, 1) against static columns (N,) sum to (D, N)
    values = design_columns(static, season.T[:, :, None], fit.spec)
    shape = (len(season), len(static["pop_density"]))
    return np.broadcast_to(additive_bias_c_tilde(fit, values), shape).T


class Targets:
    """Days 1..T of a dataset's record and what the linear offsets of any
    targets (sites or raster pixels) on them share: the dense-time sites, the
    road segments, each day's seasonal basis and the coarse values by grid
    index.  A target's c-tilde comes from its static covariates and each
    day's seasonal basis, its y1 from its nearest coarse pixel (NaN where
    that has no value).  ``observed`` holds the dense-time sites' daily
    series, (n_dense, T), NaN where missing.  The site table, from one
    ``site_covariates`` call, has a row per site of ``ids``, the dense-time
    sites then ``sites``: ``c_tilde``, ``y1`` (N, T) and ``outside`` (N,),
    true where the site lies outside every census tract.
    """

    def __init__(self, dataset: Dataset, fit: StepOneFit, sites=()):
        self.dense = sorted(dataset.sites_with_role("dense_time"), key=lambda s: s.id)
        if not self.dense:
            raise DataError("no dense_time sites in dataset")
        observed = {j: dataset.daily_series[s.id] for j, s in enumerate(self.dense)
                    if s.id in dataset.daily_series}
        series = [*dataset.cmaq.series.values(), *observed.values()]
        T = max((int(ser.days.max()) for ser in series if ser.days.size), default=0)
        if T == 0:
            raise DataError("no daily data present")
        self.dataset, self.fit, self.n_days = dataset, fit, T
        self.observed = np.full((len(self.dense), T), np.nan)
        for j, ser in observed.items():
            self.observed[j, ser.days - 1] = ser.values
        self.segments = cov.segmentize([(p.vertices, p.adt) for p in dataset.traffic])
        self.season = np.array(
            [cov.seasonal_basis(dataset.manifest.dyr(d)) for d in range(1, T + 1)]
        )
        # coarse values by grid index; the last row, all NaN, is that of the
        # index -1 (no coarse grid)
        cmaq = dataset.cmaq
        self.coarse = np.full((cmaq.pixel_ids.size + 1, T), np.nan)
        for k, pid in enumerate(cmaq.pixel_ids.tolist()):
            if pid in cmaq.series:
                self.coarse[k, cmaq.series[pid].days - 1] = cmaq.series[pid].values
        records = self.dense + list(sites)
        self.ids = [s.id for s in records]
        static = cov.site_covariates(dataset, records, self.segments, fit.spec)
        self.c_tilde, self.y1 = self.offsets(static)
        self.outside = np.isnan(static["pop_density"])

    def offsets(self, static: dict, days=None):
        """(c_tilde, y1), each (N, D), at the N targets of ``static`` on
        ``days`` (default 1..T)."""
        idx = slice(None) if days is None else np.asarray(days) - 1
        y1 = self.coarse[:, idx][static["cmaq_index"]]
        return c_tilde_for_day(self.fit, static, self.season[idx]), y1


def build_dlm_inputs(targets: Targets) -> DlmInputs:
    """Step II inputs from the dense-time sites, in ``targets.dense`` order:
    the first rows of the site table.

    Days where the gridded-model value is unavailable have the observation
    masked as missing as well.
    """
    n = len(targets.dense)
    c_tilde, y1, outside = targets.c_tilde[:n], targets.y1[:n], targets.outside[:n]
    if outside.any():
        raise cov.outside_tracts(targets.dense[int(np.argmax(outside))].id)
    y = np.where(np.isfinite(y1), targets.observed, np.nan)
    return DlmInputs(y=y.T, c_tilde=c_tilde.T, y1=y1.T)


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

    def __post_init__(self):
        if any(d < 1 for d in self.grid_days):
            raise ConfigError("grid_days must be >= 1", "grid_days")
        for key in ("grid_ncols", "grid_nrows"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1", key)
        if not 0 < self.grid_cell_size < math.inf:
            raise ConfigError("grid_cell_size must be finite and > 0", "grid_cell_size")
        for key in ("grid_xll", "grid_yll"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite", key)


def state_path(params: DlmParams, inputs: DlmInputs, smoothed: bool = False):
    """(mean, variance) arrays of the shared daily state."""
    if smoothed:
        est = kalman_smoother(params, inputs)
        return est.smoothed_mean, est.smoothed_var
    est = kalman_filter(params, inputs)
    return est.filtered_mean, est.filtered_var


def without_prediction(target_ids, outside, c_tilde, has_y1) -> dict:
    """{index: DataError} for each of N targets that has no prediction, in
    index order.  The reasons, in this order: the target lies outside every
    census tract (``outside``, (N,)), or its additive bias is missing on a day
    that has a gridded value (``has_y1``, which broadcasts against the (N, D)
    ``c_tilde``).  ``target_ids[j]`` names target j in the error."""
    failed = outside | np.any(has_y1 & ~np.isfinite(c_tilde), axis=1)
    return {
        j: cov.outside_tracts(target_ids[j]) if outside[j]
        else DataError(f"predict_site: missing additive bias at {target_ids[j]}")
        for j in np.flatnonzero(failed).tolist()
    }


def predict_site(params: DlmParams, state, c_tilde, y1, days=None):
    """Predictions ``(a + beta_c*c_tilde) + gamma_hat*y1`` and their 95% CI
    half-widths at N targets on D days: two (N, D) arrays, NaN where y1 is
    missing.  The offsets cover days 1..T, or ``days`` when given.  Each
    target is an always-missing observation column, so ``state = (mean,
    variance)`` is the shared state path; the interval adds the observation
    noise.
    """
    a_mean, a_var = state
    if days is not None:
        idx = np.asarray(days) - 1
        a_mean, a_var = a_mean[idx], a_var[idx]
    if c_tilde.shape[-1] != len(a_mean) or y1.shape[-1] != len(a_mean):
        raise DataError(
            f"predict_site: offsets span {y1.shape[-1]} days, not the fitted range "
            f"of {len(a_mean)}"
        )
    missing = ~np.isfinite(y1)
    pred = a_mean + params.beta_c * c_tilde + params.gamma_hat * y1
    half = 1.96 * np.sqrt(np.clip(a_var + params.sigma_z**2, 0.0, None))
    return np.where(missing, np.nan, pred), np.where(missing, np.nan, half)


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
):
    """One RasterGrid of predicted concentration per requested day.

    Every pixel centroid is a target, ``px_<row>_<col>``, with the values
    ``predict_site`` gives it; all of them go through one
    ``static_covariates`` call, with offsets on the requested days only.
    Pixels outside the coarse-grid coverage, or without a prediction (e.g.
    outside every census tract), are nodata; their counts are logged.
    Returns {day: RasterGrid}.
    """
    days = [int(d) for d in days]
    for d in days:
        if d < 1 or d > targets.n_days:
            raise DataError(f"predict_grid: day {d} outside fitted range")
    cmaq = targets.dataset.cmaq
    grids = {
        d: RasterGrid(n_cols, n_rows, x_ll, y_ll, cell_size, NODATA,
                      np.full((n_rows, n_cols), NODATA))
        for d in days
    }
    if not grids or cmaq.pixel_ids.size == 0:
        return grids
    xy = grids[days[0]].centroids()
    static = cov.static_covariates(targets.dataset, xy, targets.segments, targets.fit.spec)
    c_tilde, y1 = targets.offsets(static, days)
    k = static["cmaq_index"]
    half_cell = cmaq.cell_size / 2.0
    covered = ((np.abs(cmaq.xs[k] - xy[:, 0]) <= half_cell)
               & (np.abs(cmaq.ys[k] - xy[:, 1]) <= half_cell))
    # a pixel is a target over days 1..T: c-tilde is non-finite on every day
    # or on none, and is needed when y1 is present on any day
    has_y1 = (covered & np.isfinite(targets.coarse).any(axis=1)[k])[:, None]
    names = ["px_%d_%d" % divmod(j, n_cols) for j in range(len(xy))]
    failed = without_prediction(names, covered & np.isnan(static["pop_density"]),
                                c_tilde, has_y1)
    ok = covered.copy()
    ok[list(failed)] = False
    pred, _ = predict_site(params, state, c_tilde, y1, days)
    values = np.where(ok[:, None] & np.isfinite(y1), pred, NODATA)
    for j, d in enumerate(days):
        grids[d].values[:] = values[:, j].reshape(n_rows, n_cols)
    outside, n_failed = int(np.sum(~covered)), len(failed)
    if outside or n_failed:
        first = f" (first: {next(iter(failed.values()))})" if failed else ""
        _LOG.info("%d of %d raster pixels nodata: %d outside the coarse grid, %d without a "
                  "prediction%s", outside + n_failed, n_cols * n_rows, outside, n_failed, first)
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
    site_ids,
    pred: np.ndarray,
    obs: np.ndarray,
    raw: np.ndarray | None = None,
    interval_pairs=None,
    raw_interval_pairs=None,
) -> MetricsReport:
    """Per-site correlation and MSE, plus MSPE over interval observations.

    pred/obs/raw are (N, T) arrays on one day axis, a row per site of
    ``site_ids`` (NaN = missing); interval_pairs is a list of (predicted
    interval mean, observed interval value).
    """
    per_site = {}
    for i, sid in enumerate(site_ids):
        ok = np.isfinite(pred[i]) & np.isfinite(obs[i])
        if not ok.any():
            raise DataError(f"metrics: no overlapping days for site {sid}")
        vp, vo = pred[i][ok], obs[i][ok]
        entry = {
            "mse": float(np.mean((vp - vo) ** 2)),
            "r": pearson_r(vp, vo) if len(vp) >= 2 else math.nan,
        }
        if raw is not None:
            vr = raw[i][ok]
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


def write_site_predictions(site_ids, pred, half, path: str, header_lines=()) -> None:
    """A row per finite entry of the (N, T) ``pred``, site by site in
    ``site_ids`` order and day by day, with its 95% interval."""
    site, day = np.nonzero(np.isfinite(pred))
    p, h = pred[site, day], half[site, day]
    write_table(path, ("site_id", "day", "pred", "ci_lo", "ci_hi"),
                (np.asarray(site_ids)[site], day + 1, p, p - h, p + h), header_lines)


def write_metrics(report: MetricsReport, path: str, header_lines=()) -> None:
    rows = [
        (sid, e.get("r", math.nan), e["mse"], e.get("r_raw", math.nan),
         e.get("mse_raw", math.nan))
        for sid, e in sorted(report.per_site.items())
    ]
    rows.append(("OVERALL_MSPE", report.mspe, "NA", report.mspe_raw, "NA"))
    write_table(path, ("site_id", "r", "mse", "r_raw", "mse_raw"), zip(*rows), header_lines)


def raster_day_filename(day: int) -> str:
    return f"no2_day{day:04d}.asc"


def write_prediction_rasters(grids: dict, out_dir: str) -> list:
    """One ESRI ASCII raster per day of ``grids`` in the existing ``out_dir``."""
    paths = []
    for day in sorted(grids):
        path = os.path.join(out_dir, raster_day_filename(day))
        write_raster(grids[day], path)
        paths.append(path)
    return paths
