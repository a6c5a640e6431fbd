"""Synthetic data generation and an independent dense-Gaussian verifier.

The simulators draw from the full generative model (calibration regression
for interval observations; AR(1)-state dynamic model for daily series) with
a seeded, portable PCG64 generator so datasets are byte-reproducible.

The dense oracle assembles the exact joint covariance of the state path and
the observed entries and answers conditional-moment and log-density queries
by plain Gaussian conditioning.  It shares no recursion code with the
Kalman filter; that independence is its reason to exist.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field

import numpy as np

from scarr import covariates as cov
from scarr import step1
from scarr.data_model import (
    CmaqGrid,
    DailySeries,
    Dataset,
    IntervalObservation,
    Manifest,
    RasterGrid,
    SiteRecord,
    TractPolygon,
    TrafficPolyline,
    interval_mean,
    write_keyvalue,
)
from scarr.errors import DataError
from scarr.step2 import DlmInputs, DlmParams

MI2_PER_M2 = 1.0 / 2_589_988.110336


# ---------------------------------------------------------------------------
# dense Gaussian oracle


class DenseGaussianOracle:
    """Exact joint-Gaussian reference for small state-space instances.

    Builds cov(A(t), A(t+h)) = psi^|h| sigma_a^2 / (1 - psi^2) and the linear
    observation map, then conditions directly.  Limited to T <= 12, n <= 4.
    """

    def __init__(self, params: DlmParams, inputs: DlmInputs):
        T, n = inputs.n_days, inputs.n_sites
        if T > 12 or n > 4:
            raise DataError(f"dense oracle limited to T <= 12, n <= 4 (got {T}, {n})")
        self.params = params
        self.inputs = inputs
        t_idx = np.arange(T)
        var = params.stationary_var
        self.K_A = var * params.psi_a ** np.abs(t_idx[:, None] - t_idx[None, :])
        present = np.isfinite(inputs.y)
        self.entries = [(t, i) for t in range(T) for i in range(n) if present[t, i]]
        off = params.beta_c * inputs.c_tilde + params.gamma_hat * inputs.y1
        self.obs_vals = np.array([inputs.y[t, i] for t, i in self.entries])
        self.obs_mean = np.array(
            [params.mu_a + off[t, i] for t, i in self.entries]
        )
        m = len(self.entries)
        days = np.array([t for t, _ in self.entries], dtype=int)
        self.K_yy = self.K_A[np.ix_(days, days)] + params.sigma_z**2 * np.eye(m)
        # cov(A(t), y_entry)
        self.K_Ay = self.K_A[:, days]

    def _subset(self, upto=None, exclude=None):
        sel = []
        for k, (t, i) in enumerate(self.entries):
            if upto is not None and t > upto:
                continue
            if exclude is not None and (t, i) == exclude:
                continue
            sel.append(k)
        return np.array(sel, dtype=int)

    def log_density(self) -> float:
        """Log-density of all observed entries under the joint Gaussian."""
        m = len(self.entries)
        if m == 0:
            return 0.0
        r = self.obs_vals - self.obs_mean
        L = np.linalg.cholesky(self.K_yy)
        z = np.linalg.solve(L, r)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        return float(-0.5 * (m * math.log(2 * math.pi) + logdet + z @ z))

    def state_posterior(self, t: int, upto=None, exclude=None):
        """Mean and variance of A(t) given observed entries with day <= upto
        (0-based), but for the entry ``exclude`` = (day, site); upto=None
        conditions on everything (smoothing)."""
        sel = self._subset(upto=upto, exclude=exclude)
        prior_mean = self.params.mu_a
        prior_var = float(self.K_A[t, t])
        if sel.size == 0:
            return prior_mean, prior_var
        S = self.K_yy[np.ix_(sel, sel)]
        k = self.K_Ay[t, sel]
        r = self.obs_vals[sel] - self.obs_mean[sel]
        w = np.linalg.solve(S, r)
        mean = prior_mean + float(k @ w)
        var = prior_var - float(k @ np.linalg.solve(S, k))
        return mean, max(var, 0.0)

    def predict_obs(self, t: int, i: int, off_value: float, upto=None):
        """Conditional mean/variance of an observation coordinate at (t, i)
        with offset off_value, given entries with day <= upto, excluding the
        coordinate itself when it was observed."""
        mean_a, var_a = self.state_posterior(t, upto=upto, exclude=(t, i))
        return mean_a + off_value, var_a + self.params.sigma_z**2


# ---------------------------------------------------------------------------
# simulation


@dataclass
class SimulationConfig:
    seed: int = 0
    n_calibration: int = 20
    n_dense: int = 4
    n_days: int = 365
    n_intervals_per_site: int = 2
    domain_m: float = 48_000.0
    cmaq_nx: int = 4
    cmaq_ny: int = 4
    cmaq_cell: float = 12_000.0
    landuse_cell: float = 300.0
    epoch: datetime.date = datetime.date(1994, 1, 1)
    n_traffic_lines: int = 16
    interval_len_range: tuple = (10, 14)
    noise_sd: float = 2.6  # Step I regression error sd
    missing_rate: float = 0.05
    coefficients: dict = field(default_factory=lambda: {
        "intercept": 12.0,
        "pop_density_10k": 5.5,
        "sin_2pi_dyr": 1.2,
        "cos_2pi_dyr": 1.7,
        "sin_4pi_dyr": 1.8,
        "cos_4pi_dyr": 2.7,
        # the default rings, 0-0.5 km out to 5-6 km, and forest within 2 km
        **dict(zip(cov.BufferSpec().groups()["ttv"], (0.85, -0.14, 0.08, 0.0, 0.0, 0.0, 0.0))),
        cov.BufferSpec().landuse_total("forest"): -5.4,
        "cmaq": 0.5,
    })
    dlm_sigma_z: float = 3.0
    dlm_sigma_a: float = 4.0
    dlm_psi_a: float = 0.6
    dlm_mu_a: float = 0.0
    dlm_beta_c: float = 0.7


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _true_mean(config: SimulationConfig, static: dict, j: int, season, cmaq_mean):
    """Calibration-model mean under the true coefficients at site ``j`` of
    ``static_covariates`` output, at a seasonal basis (four numbers, or four
    arrays over days) and a gridded-model mean (a number, or an array over
    the same days)."""
    c = config.coefficients
    total = c["intercept"]
    total += c["pop_density_10k"] * static["pop_density"][j] / step1.POP_DENSITY_SCALE
    for name, val in zip(cov.SEASON_NAMES, season):
        total += c.get(name, 0.0) * val
    spec = cov.BufferSpec()
    for name, ttv in zip(spec.groups()["ttv"], static["ttv"][j]):
        total += c.get(name, 0.0) * ttv
    forest = float(np.sum(static["lu_area"]["forest"][j]))
    total += c.get(spec.landuse_total("forest"), 0.0) * forest / step1.LANDUSE_SCALE
    total += c["cmaq"] * cmaq_mean
    return total


def simulate_ar1(rng, T, sigma_a, psi_a, mu_a) -> np.ndarray:
    """AR(1) path started from the stationary distribution."""
    a = np.empty(T)
    sd0 = sigma_a / math.sqrt(1.0 - psi_a**2) if psi_a < 1 else sigma_a
    a[0] = mu_a + sd0 * rng.standard_normal()
    eps = rng.standard_normal(T)
    for t in range(1, T):
        a[t] = mu_a + psi_a * (a[t - 1] - mu_a) + sigma_a * eps[t]
    return a


def simulate_step2_series(
    T: int = 200,
    n: int = 6,
    params: DlmParams | None = None,
    seed: int = 0,
    missing_rate: float = 0.05,
):
    """Synthetic daily inputs from the state-space generative model.

    Returns (DlmInputs, true A(t) path).
    """
    if params is None:
        params = DlmParams(3.0, 4.0, 0.6, mu_a=0.0, beta_c=0.7, gamma_hat=0.5)
    rng = _rng(seed)
    days = np.arange(1, T + 1)
    doy = (days - 1) % 365 + 1
    season = np.cos(2 * math.pi * doy / 365.0)
    site_level = rng.uniform(5.0, 25.0, size=n)
    c_tilde = site_level[None, :] + 3.0 * season[:, None] + rng.normal(0, 0.5, (T, n))
    y1_level = rng.uniform(5.0, 20.0, size=n)
    y1 = np.clip(
        y1_level[None, :] - 5.0 * season[:, None] + rng.normal(0, 2.0, (T, n)), 0.1, None
    )
    a = simulate_ar1(rng, T, params.sigma_a, params.psi_a, params.mu_a)
    y = (
        a[:, None]
        + params.beta_c * c_tilde
        + params.gamma_hat * y1
        + params.sigma_z * rng.standard_normal((T, n))
    )
    if missing_rate > 0:
        mask = rng.uniform(size=(T, n)) < missing_rate
        y = np.where(mask, np.nan, y)
    return DlmInputs(y=y, c_tilde=c_tilde, y1=y1), a


def _simulate_landuse(rng, config) -> tuple:
    """Classified raster with codes 1..6 and a reclass map to 3 categories."""
    ncells = int(round(config.domain_m / config.landuse_cell))
    xf = np.linspace(0, 4 * math.pi, ncells)
    fx, fy = np.meshgrid(xf, xf)
    fieldv = (
        np.sin(fx) + np.cos(fy) + 0.8 * rng.standard_normal((ncells, ncells))
    )
    codes = np.ones((ncells, ncells))
    codes[fieldv > -0.6] = 2.0
    codes[fieldv > 0.0] = 3.0
    codes[fieldv > 0.6] = 4.0
    codes[fieldv > 1.2] = 5.0
    codes[fieldv > 1.8] = 6.0
    raster = RasterGrid(
        n_cols=ncells, n_rows=ncells, x_ll=0.0, y_ll=0.0,
        cell_size=config.landuse_cell, nodata_value=-9999.0, values=codes,
    )
    reclass = {1: "developed", 2: "developed", 3: "forest", 4: "forest",
               5: "other", 6: "other"}
    return raster, reclass


def _simulate_traffic(rng, config):
    lines = []
    for k in range(config.n_traffic_lines):
        n_verts = int(rng.integers(3, 7))
        start = rng.uniform(0.05, 0.95, size=2) * config.domain_m
        angle = rng.uniform(0, 2 * math.pi)
        length = rng.uniform(8_000.0, 25_000.0)
        ts = np.linspace(0, 1, n_verts)
        wiggle = rng.normal(0, 800.0, size=(n_verts, 2))
        wiggle[0] = 0
        pts = start + ts[:, None] * length * np.array(
            [math.cos(angle), math.sin(angle)]
        ) + wiggle
        pts = np.clip(pts, 0.0, config.domain_m)
        adt = float(np.round(rng.uniform(8_000.0, 60_000.0)))
        lines.append(TrafficPolyline(f"L{k:03d}", pts, adt))
    return lines


def _simulate_tracts(rng, config):
    n_side = 4
    step = config.domain_m / n_side
    tracts = []
    area_mi2 = step * step * MI2_PER_M2
    for i in range(n_side):
        for j in range(n_side):
            x0, y0 = i * step, j * step
            verts = np.array(
                [[x0, y0], [x0 + step, y0], [x0 + step, y0 + step], [x0, y0 + step]]
            )
            pop = float(np.round(rng.uniform(500.0, 60_000.0)))
            tracts.append(TractPolygon(f"T{i}{j}", verts, pop, area_mi2))
    return tracts


def _simulate_cmaq(rng, config) -> CmaqGrid:
    ids, xs, ys = [], [], []
    for j in range(config.cmaq_ny):
        for i in range(config.cmaq_nx):
            ids.append(j * config.cmaq_nx + i + 1)
            xs.append((i + 0.5) * config.cmaq_cell)
            ys.append((j + 0.5) * config.cmaq_cell)
    days = np.arange(1, config.n_days + 1)
    doy = (days - 1) % 365 + 1
    # persistent regional weather anomaly so interval averages keep
    # variation that is independent of the seasonal cycle
    regional = simulate_ar1(rng, len(days), sigma_a=2.2, psi_a=0.85, mu_a=0.0)
    series = {}
    for pid, x, y in zip(ids, xs, ys):
        gradient = 4.0 * (x + y) / (2 * config.domain_m)
        amp = rng.uniform(4.0, 7.0)
        phase = rng.uniform(-0.3, 0.3)
        season = 10.0 + amp * np.cos(2 * math.pi * doy / 365.0 + phase)
        noise = rng.normal(0, 1.5, size=len(days))
        vals = np.clip(season + gradient + regional + noise, 0.5, None)
        series[pid] = DailySeries(str(pid), days, np.round(vals, 6))
    return CmaqGrid(np.array(ids), np.array(xs), np.array(ys), config.cmaq_cell, series)


def simulate_step1_dataset(config: SimulationConfig = SimulationConfig()):
    """Full synthetic dataset drawn from the generative model.

    Returns (Dataset, truth) where truth records every generating parameter
    for recovery tests.
    """
    rng = _rng(config.seed)
    margin = 0.05 * config.domain_m
    sites = {}
    for prefix, n, role in (("C", config.n_calibration, "calibration"),
                            ("E", config.n_dense, "dense_time")):
        xy = rng.uniform(margin, config.domain_m - margin, (n, 2))
        for k, (x, y) in enumerate(xy.tolist()):
            sid = f"{prefix}{k:03d}"
            sites[sid] = SiteRecord(sid, x, y, role)

    traffic = _simulate_traffic(rng, config)
    tracts = _simulate_tracts(rng, config)
    landuse, reclass = _simulate_landuse(rng, config)
    cmaq = _simulate_cmaq(rng, config)
    site_attrs = {
        sid: {"elevation_m": float(np.round(rng.uniform(2.0, 300.0), 1))}
        for sid in sites
    }

    manifest = Manifest(epoch=config.epoch, crs="synthetic-planar-m", files={})
    dataset = Dataset(
        manifest=manifest, sites=sites, interval_obs=[], daily_series={},
        cmaq=cmaq, traffic=traffic, tracts=tracts, site_attrs=site_attrs,
        landuse=landuse, landuse_reclass=reclass,
    )

    segments = cov.segmentize([(p.vertices, p.adt) for p in traffic])
    static = cov.static_covariates(dataset, [(s.x, s.y) for s in sites.values()], segments)
    index = {sid: j for j, sid in enumerate(sites)}
    grid_series = {sid: cmaq.series[int(cmaq.pixel_ids[static["cmaq_index"][j]])]
                   for sid, j in index.items()}

    # interval observations at calibration sites
    lo, hi = config.interval_len_range
    for sid in sorted(s for s in sites if sites[s].role == "calibration"):
        for _ in range(config.n_intervals_per_site):
            length = int(rng.integers(lo, hi + 1))
            t_start = int(rng.integers(1, max(config.n_days - length, 1) + 1))
            t_end = t_start + length - 1
            season = cov.seasonal_basis(manifest.dyr(0.5 * (t_start + t_end)))
            cmaq_mean, _ = interval_mean(grid_series[sid], t_start, t_end)
            mean = _true_mean(config, static, index[sid], season, cmaq_mean)
            value = mean + config.noise_sd * rng.standard_normal()
            while value <= 0:  # observations are strictly positive by schema
                value = mean + config.noise_sd * rng.standard_normal()
            value = float(np.round(value, 6))
            dataset.interval_obs.append(IntervalObservation(sid, t_start, t_end, value))

    # daily series at dense-time sites from the state-space model
    a_path = simulate_ar1(
        rng, config.n_days, config.dlm_sigma_a, config.dlm_psi_a, config.dlm_mu_a
    )
    days = np.arange(1, config.n_days + 1)
    season = cov.seasonal_table(manifest, config.n_days).T
    # The same bytes as one scalar draw and sum per day: each element takes
    # the scalar's floating-point steps, standard_normal(n_days) yields the
    # numbers of n_days scalar calls in order, and the pixel series holds
    # every day 1..T with no NaN, so it is each day's gridded value.
    for sid in sorted(s for s in sites if sites[s].role == "dense_time"):
        y1 = grid_series[sid].values
        mean = _true_mean(config, static, index[sid], season, y1)
        ct = mean - config.coefficients["cmaq"] * y1  # the additive bias
        vals = np.round(a_path + config.dlm_beta_c * ct + config.coefficients["cmaq"] * y1
                        + config.dlm_sigma_z * rng.standard_normal(config.n_days), 6)
        if config.missing_rate > 0:
            mask = rng.uniform(size=config.n_days) < config.missing_rate
            vals = np.where(mask, np.nan, vals)
        dataset.daily_series[sid] = DailySeries(sid, days, vals)

    truth = {
        "seed": config.seed,
        "noise_sd": config.noise_sd,
        "dlm_sigma_z": config.dlm_sigma_z,
        "dlm_sigma_a": config.dlm_sigma_a,
        "dlm_psi_a": config.dlm_psi_a,
        "dlm_mu_a": config.dlm_mu_a,
        "dlm_beta_c": config.dlm_beta_c,
        "a_path_first": float(a_path[0]),
    }
    truth.update({f"coef_{k}": v for k, v in config.coefficients.items()})
    return dataset, truth


def write_truth(truth: dict, path: str) -> None:
    write_keyvalue(path, truth)
