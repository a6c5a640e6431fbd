"""Step I: calibration and spatial refinement regression.

Fits the interval-averaged calibration model (OLS or spatially correlated
GLS errors), runs backward buffer selection with nested-model F-tests,
computes LOOCV PRESS, estimates the traffic dispersion step function, and
exports the additive bias field and multiplicative bias for Step II.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, special
from scipy.linalg import solve_triangular

from scarr.covariates import (
    LANDUSE_CATEGORIES,
    N_LANDUSE_RINGS,
    QUADRANTS,
    SEASON_NAMES,
    BufferSpec,
)
from scarr.data_model import read_keyvalue
from scarr.errors import ConfigError, ConvergenceError, DataError

#: Scaling applied at design assembly (raw files stay in natural units).
POP_DENSITY_SCALE = 10_000.0  # persons/mi^2 per design unit
LANDUSE_SCALE = 1_000.0  # hectares per design unit


@dataclass
class ErrorModel:
    kind: str = "independent"  # independent | spherical | exponential | matern
    sill: float = 1.0
    range_: float = 0.0
    nugget: float = 0.0
    nu: float = 0.5  # matern smoothness

    def __post_init__(self):
        if self.kind not in ("independent", "spherical", "exponential", "matern"):
            raise ConfigError(f"unknown error model kind {self.kind!r}")
        if self.sill <= 0 or self.range_ < 0 or self.nugget < 0:
            raise ConfigError("error model requires sill > 0, range >= 0, nugget >= 0")
        if self.kind == "matern" and self.nu <= 0:
            raise ConfigError("matern smoothness must be > 0")


def cov_value(model: ErrorModel, d: float) -> float:
    """Spatial covariance at separation d; the nugget contributes only at d = 0."""
    if d < 0:
        raise DataError("cov_value: negative distance")
    if d == 0:
        return model.sill + model.nugget
    return float(_cov_kernel(model, np.array([d], dtype=float))[0])


def _cov_kernel(model: ErrorModel, d: np.ndarray) -> np.ndarray:
    """Spatial covariance at the nonzero separations ``d`` (1-d array)."""
    out = np.zeros(len(d))
    if model.kind == "independent" or model.range_ == 0:
        return out
    h = d / model.range_
    # the cut-offs below are negated comparisons, so that a NaN separation
    # takes the formula (and gives NaN) as in the scalar closed form
    if model.kind == "spherical":
        inside = ~(h >= 1.0)
        poly = [1.0 - 1.5 * x + 0.5 * x**3 for x in h[inside].tolist()]
        out[inside] = model.sill * np.array(poly, dtype=float)
        return out
    nu = model.nu
    if model.kind == "exponential" or nu == 0.5:  # matern nu = 0.5 is the exponential
        return model.sill * np.fromiter(map(math.exp, (-h).tolist()), float, len(h))
    arg = math.sqrt(2.0 * nu) * h
    near = ~(arg > 700.0)
    a = arg[near]
    scale = 2.0 ** (1.0 - nu) / special.gamma(nu)
    powers = np.array([x**nu for x in a.tolist()], dtype=float)
    bessel = special.kv(nu, a)
    with np.errstate(invalid="ignore"):
        corr = scale * powers * bessel
    # where K_nu(x) overflows, x is so small that the correlation is 1 to
    # double precision, but x**nu * inf is inf (or NaN, once x**nu underflows)
    corr[np.isinf(bessel)] = 1.0
    out[near] = model.sill * corr
    return out


def cov_matrix(model: ErrorModel, coords: np.ndarray) -> np.ndarray:
    """Error covariance over observations; the nugget is per-observation, so
    two distinct observations at the same location share only the sill.

    The off-diagonal entries are array code over the upper triangle, but every
    transcendental (exp, pow, the Bessel function) still runs element by
    element through libm or ``special.kv``: numpy's own SIMD ``exp`` and
    ``power`` differ from libm in the last bit for some inputs, and the
    fitted digits must not depend on which one ran.
    """
    d = np.hypot(
        coords[:, None, 0] - coords[None, :, 0],
        coords[:, None, 1] - coords[None, :, 1],
    )
    n = len(coords)
    i, j = np.triu_indices(n, 1)
    dij = d[i, j]
    v = np.zeros(len(dij))
    if model.kind != "independent":
        same = dij == 0.0
        v[same] = model.sill
        v[~same] = _cov_kernel(model, dij[~same])
    out = np.empty((n, n))
    out[i, j] = v
    out[j, i] = v
    np.fill_diagonal(out, model.sill + model.nugget)
    return out


@dataclass
class StepOneFit:
    names: list
    beta: np.ndarray
    cov: np.ndarray
    n: int
    rss: float
    tss: float
    sigma2: float  # unbiased residual variance (OLS) / plug-in (GLS)
    error_model: ErrorModel
    press: float = math.nan
    rmspe: float = math.nan
    loglik: float = math.nan
    rank_warnings: list = field(default_factory=list)
    converged: bool = True  # the GLS optimizer reported success
    optimizer_message: str = ""
    spec: BufferSpec = BufferSpec()  # buffer rings the design columns were named from

    @property
    def p(self) -> int:
        return len(self.names)

    @property
    def dof(self) -> int:
        return self.n - self.p

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None))

    @property
    def r2(self) -> float:
        return 1.0 - self.rss / self.tss if self.tss > 0 else math.nan

    @property
    def adj_r2(self) -> float:
        if self.tss <= 0 or self.dof <= 0:
            return math.nan
        return 1.0 - (self.rss / self.dof) / (self.tss / (self.n - 1))

    @property
    def rmse(self) -> float:
        return math.sqrt(self.sigma2)

    def coef(self, name: str) -> float:
        return float(self.beta[self.names.index(name)])

    def conf_int(self, name: str, level: float = 0.95):
        i = self.names.index(name)
        t = special.stdtrit(self.dof, 0.5 + level / 2.0)
        return (self.beta[i] - t * self.se[i], self.beta[i] + t * self.se[i])


def fit_ols(X: np.ndarray, y: np.ndarray, names, allow_singular: bool = False) -> StepOneFit:
    """Ordinary least squares with unbiased residual variance."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n <= p and not allow_singular:
        raise DataError(f"fit_ols: n={n} <= p={p}")
    rank = np.linalg.matrix_rank(X)
    if rank < p and not allow_singular:
        raise DataError(f"fit_ols: design is rank deficient (rank {rank} < {p})")
    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2))
    dof = max(n - p, 0)
    sigma2 = rss / dof if dof > 0 else math.nan
    xtx_inv = np.linalg.pinv(X.T @ X)
    cov = sigma2 * xtx_inv if dof > 0 else np.full((p, p), math.nan)
    ll = -0.5 * n * (math.log(2 * math.pi) + math.log(max(rss / n, 1e-300)) + 1.0)
    return StepOneFit(
        names=list(names), beta=beta, cov=cov, n=n, rss=rss, tss=tss,
        sigma2=sigma2, error_model=ErrorModel("independent", sill=max(sigma2, 1e-300)),
        loglik=ll,
    )


def _gls_nll(theta, X, y, coords, kind, nu):
    with np.errstate(over="ignore"):  # range -> inf is the fully correlated limit
        sill, rng, nugget = np.exp(theta)
    model = ErrorModel(kind, sill=sill, range_=rng, nugget=nugget, nu=nu)
    V = cov_matrix(model, coords)
    n = len(y)
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        return 1e12
    Xs = solve_triangular(L, X, lower=True)
    ys = solve_triangular(L, y, lower=True)
    beta, _, _, _ = np.linalg.lstsq(Xs, ys, rcond=None)
    r = ys - Xs @ beta
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return 0.5 * (n * math.log(2 * math.pi) + logdet + float(r @ r))


def fit_gls(
    X: np.ndarray,
    y: np.ndarray,
    coords: np.ndarray,
    names,
    kind: str = "exponential",
    nu: float = 0.5,
    n_starts: int = 5,
) -> StepOneFit:
    """Maximum-likelihood GLS with a spatial error covariance.

    Optimizes (sill, range, nugget) on the log scale by Nelder-Mead from
    deterministic multistarts; the first start is the iid-equivalent point so
    the fitted likelihood can never fall below the OLS reduction.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    coords = np.asarray(coords, dtype=float)
    if len({(float(a), float(b)) for a, b in coords}) < 3:
        raise DataError("fit_gls: need at least 3 distinct site locations")
    ols = fit_ols(X, y, names)
    s2_ml = max(ols.rss / len(y), 1e-12)

    d = np.hypot(
        coords[:, None, 0] - coords[None, :, 0],
        coords[:, None, 1] - coords[None, :, 1],
    )
    pos = d[d > 0]
    dmed = float(np.median(pos))
    tiny_range = max(pos.min() * 1e-6, 1e-9)

    starts = [
        (s2_ml * 1e-6, tiny_range, s2_ml),  # iid-equivalent (pure nugget)
        (0.5 * s2_ml, 0.25 * dmed, 0.5 * s2_ml),
        (0.9 * s2_ml, dmed, 0.1 * s2_ml),
        (0.5 * s2_ml, 2.0 * dmed, 0.5 * s2_ml),
        (0.2 * s2_ml, 0.5 * dmed, 0.8 * s2_ml),
    ][: max(n_starts, 1)]

    best = None
    for s0 in starts:
        theta0 = np.log(np.asarray(s0))
        res = optimize.minimize(
            _gls_nll, theta0, args=(X, y, coords, kind, nu),
            method="Nelder-Mead",
            options={"maxiter": 2000, "xatol": 1e-8, "fatol": 1e-10},
        )
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not np.all(np.isfinite(best.x)):
        raise ConvergenceError("fit_gls: all multistarts failed")

    sill, rng, nugget = np.exp(best.x)
    model = ErrorModel(kind, sill=float(sill), range_=float(rng), nugget=float(nugget), nu=nu)
    V = cov_matrix(model, coords)
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            "fit_gls: fitted covariance is numerically singular"
        ) from exc
    Xw = solve_triangular(L, X, lower=True)
    yw = solve_triangular(L, y, lower=True)
    cov_beta = np.linalg.pinv(Xw.T @ Xw)
    beta = cov_beta @ (Xw.T @ yw)
    resid = y - X @ beta
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2))
    n, p = X.shape
    sigma2 = rss / max(n - p, 1)
    return StepOneFit(
        names=list(names), beta=beta, cov=cov_beta, n=n, rss=rss, tss=tss,
        sigma2=sigma2, error_model=model, loglik=-float(best.fun),
        converged=bool(best.success), optimizer_message=str(best.message),
    )


def f_test(reduced: StepOneFit, full: StepOneFit):
    """Nested-model F-test; returns (F, df1, df2, p-value)."""
    if reduced.n != full.n:
        raise DataError("f_test: models fit on different rows")
    if not set(reduced.names) <= set(full.names):
        raise DataError("f_test: models are not nested")
    q = full.p - reduced.p
    if q <= 0:
        raise DataError("f_test: non-nested/empty comparison")
    df2 = full.n - full.p
    if df2 <= 0:
        raise DataError("f_test: no residual degrees of freedom")
    num = (reduced.rss - full.rss) / q
    den = full.rss / df2
    if den == 0:
        F = math.inf if num > 0 else 0.0
    else:
        F = num / den
    F = max(F, 0.0)
    return F, q, df2, float(special.fdtrc(q, df2, F))


def loocv_press(fit: StepOneFit, X: np.ndarray, y: np.ndarray, method: str = "hat"):
    """Leave-one-out PRESS and RMSPE.

    ``method='hat'`` uses the hat-matrix shortcut (valid for OLS error model);
    ``method='refit'`` refits n times and must agree with the shortcut.
    Rows with leverage 1 are excluded with a warning.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if method == "hat":
        H = X @ np.linalg.pinv(X.T @ X) @ X.T
        h = np.diag(H)
        resid = y - X @ fit.beta
        usable = h < 1.0 - 1e-12
        if not usable.all():
            _warnings.warn(
                f"loocv_press: {np.sum(~usable)} row(s) with leverage 1 excluded"
            )
        press = float(np.sum((resid[usable] / (1.0 - h[usable])) ** 2))
        m = int(usable.sum())
    elif method == "refit":
        press = 0.0
        m = 0
        for i in range(n):
            keep = np.ones(n, dtype=bool)
            keep[i] = False
            Xi, yi = X[keep], y[keep]
            if np.linalg.matrix_rank(Xi) < X.shape[1]:
                _warnings.warn(f"loocv_press: row {i} not predictable (leverage 1)")
                continue
            beta_i, _, _, _ = np.linalg.lstsq(Xi, yi, rcond=None)
            press += float((y[i] - X[i] @ beta_i) ** 2)
            m += 1
    else:
        raise ConfigError(f"loocv_press: unknown method {method!r}")
    rmspe = math.sqrt(press / m) if m else math.nan
    return press, rmspe


# ---------------------------------------------------------------------------
# design assembly


@dataclass
class Step1Config:
    """``step1_config.txt``: each field is a key, parsed by its type."""

    error_model: str = "independent"
    alpha: float = 0.05
    use_elevation: bool = False
    use_quadrants: bool = False
    landuse_categories: tuple[str, ...] = ("forest",)  # collinearity choice, user-named
    landuse_combined: bool = True  # 0-2 km aggregate vs. per-ring columns
    buffer_radii_km: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    run_selection: bool = True
    matern_nu: float = 1.5
    collinearity_threshold: float = 0.85

    def __post_init__(self):
        if self.error_model not in ("independent", "spherical", "exponential", "matern"):
            raise ConfigError(f"unknown error model {self.error_model!r}", "error_model")
        if self.error_model == "matern" and not self.matern_nu > 0:
            raise ConfigError("matern smoothness must be > 0", "matern_nu")
        bad = set(self.landuse_categories) - set(LANDUSE_CATEGORIES)
        if bad:
            raise ConfigError(f"unknown land-use categories {sorted(bad)}", "landuse_categories")
        try:
            spec = self.buffer_spec
        except DataError as exc:
            raise ConfigError(str(exc), "buffer_radii_km") from None
        if not self.landuse_combined and spec.ring_labels()[0] == "0-2km":
            # design columns are keyed by name: lu_<cat>_0-2km is the combined column
            raise ConfigError(
                "a first buffer ring of 0-2 km needs landuse_combined", "landuse_combined"
            )

    @property
    def buffer_spec(self) -> BufferSpec:
        return BufferSpec(tuple(self.buffer_radii_km))


@dataclass
class Design:
    """Assembled regression problem with a documented fixed column order."""

    X: np.ndarray
    y: np.ndarray
    names: list
    coords: np.ndarray  # (n, 2) site locations per row
    site_ids: list
    groups: dict  # selectable buffer group -> ordered list of column names
    warnings: list
    rank_deficient: bool


def design_columns(static, season, spec: BufferSpec) -> dict:
    """Value of every design column but ``cmaq`` at one target, by name.

    ``static`` is ``site_static_covariates`` output or a CovariateRow's
    fields; ``season`` is the four seasonal-basis values, each a number or an
    array over days.
    """
    labels = spec.ring_labels()
    cols = {
        "intercept": 1.0,
        "pop_density_10k": static["pop_density"] / POP_DENSITY_SCALE,
        "elevation_m": static["elevation"],
        **dict(zip(SEASON_NAMES, season)),
    }
    cols.update(zip([f"ttv_{lab}" for lab in labels], static["ttv"]))
    for q, quadrant in zip(QUADRANTS, static["ttv_quadrant"]):
        cols.update(zip([f"ttv_{q}_{lab}" for lab in labels], quadrant))
    for cat in LANDUSE_CATEGORIES:
        areas = np.asarray(static["lu_area"].get(cat, np.zeros(N_LANDUSE_RINGS)))
        lu_labels = labels[:N_LANDUSE_RINGS]
        cols.update(zip([f"lu_{cat}_{lab}" for lab in lu_labels], areas / LANDUSE_SCALE))
        cols[f"lu_{cat}_0-2km"] = float(areas.sum()) / LANDUSE_SCALE
    return cols


def assemble_design(dataset, rows, config: Step1Config = Step1Config()) -> Design:
    """Build the design matrix from covariate rows and their responses.

    Column order: intercept, pop density (per 10,000), season basis (4),
    optional elevation, TTV rings inner->outer (or 4x quadrant rings),
    land-use aggregates/rings per configured category (per 1,000 ha), CMAQ
    interval mean.  Rows with any missing entry are dropped with a warning.
    """
    spec = config.buffer_spec
    ring_labels = spec.ring_labels()
    lu_rings = ring_labels[:N_LANDUSE_RINGS]

    names = ["intercept", "pop_density_10k"] + list(SEASON_NAMES)
    if config.use_elevation:
        names.append("elevation_m")
    groups = {}
    if config.use_quadrants:
        for q in QUADRANTS:
            cols = [f"ttv_{q}_{lab}" for lab in ring_labels]
            groups[f"ttv_{q}"] = cols
            names += cols
    else:
        cols = [f"ttv_{lab}" for lab in ring_labels]
        groups["ttv"] = cols
        names += cols
    for cat in config.landuse_categories:
        if config.landuse_combined:
            col = f"lu_{cat}_0-2km"
            groups[f"lu_{cat}"] = [col]
            names.append(col)
        else:
            cols = [f"lu_{cat}_{lab}" for lab in lu_rings]
            groups[f"lu_{cat}"] = cols
            names += cols
    names.append("cmaq")

    data, resp, coords, site_ids, warn = [], [], [], [], []
    for row in rows:
        values = design_columns(vars(row), row.season, spec)
        values["cmaq"] = row.cmaq_mean
        vals = [values[nm] for nm in names]
        if not all(math.isfinite(v) for v in vals) or not math.isfinite(row.response):
            warn.append(f"site {row.site_id}: dropped (missing covariate or response)")
            continue
        site = dataset.sites[row.site_id]
        data.append(vals)
        resp.append(row.response)
        coords.append((site.x, site.y))
        site_ids.append(row.site_id)

    X = np.asarray(data, dtype=float)
    y = np.asarray(resp, dtype=float)
    rank_deficient = bool(X.size) and np.linalg.matrix_rank(X) < X.shape[1]
    if rank_deficient:
        warn.append("design matrix is rank deficient (exact collinearity)")
    return Design(
        X=X, y=y, names=names, coords=np.asarray(coords, dtype=float),
        site_ids=site_ids, groups=groups, warnings=warn,
        rank_deficient=rank_deficient,
    )


def collinearity_report(X: np.ndarray, names, threshold: float = 0.85):
    """Pairs of columns with |pairwise correlation| above the threshold."""
    out = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                xi, xj = X[:, i], X[:, j]
                if np.std(xi) == 0 or np.std(xj) == 0:
                    continue
                r = float(np.corrcoef(xi, xj)[0, 1])
                if abs(r) > threshold:
                    out.append((names[i], names[j], r))
    return out


def _subset_fit(X, y, names, keep_names, fitter):
    idx = [names.index(nm) for nm in keep_names]
    return fitter(X[:, idx], y, keep_names)


def backward_buffer_selection(design: Design, alpha: float = 0.05, fitter=None):
    """Backward elimination of buffer rings, preferring inner rings.

    Only the outermost remaining ring of a group may be dropped (hierarchy
    rule).  At each step every group's outermost ring is F-tested against the
    current model and the first non-significant candidate in group order
    (TTV groups before land-use groups) is removed.  Returns
    (retained: {group: [column names]}, final fit).
    """
    if fitter is None:
        fitter = fit_ols
    names = list(design.names)
    retained = {g: list(cols) for g, cols in design.groups.items()}
    order = sorted(retained, key=lambda g: (0 if g.startswith("ttv") else 1, g))

    def current_names():
        sel = []
        dropped = {c for g in retained for c in design.groups[g] if c not in retained[g]}
        for nm in names:
            if nm not in dropped:
                sel.append(nm)
        return sel

    full = _subset_fit(design.X, design.y, names, current_names(), fitter)
    while True:
        dropped_one = False
        for g in order:
            if not retained[g]:
                continue
            candidate = retained[g][-1]
            cur = current_names()
            reduced_names = [nm for nm in cur if nm != candidate]
            reduced = _subset_fit(design.X, design.y, names, reduced_names, fitter)
            _, _, _, p = f_test(reduced, full)
            if p > alpha:
                retained[g].pop()
                full = reduced
                dropped_one = True
                break
        if not dropped_one:
            break
    return retained, full


@dataclass
class StepFunction:
    """Dispersion step heights lambda-hat over (r_{k-1}, r_k] buffer rings."""

    ring_labels: list
    heights: np.ndarray
    se: np.ndarray


def dispersion_step_function(fit: StepOneFit, prefix: str = "ttv_") -> StepFunction:
    """Extract TTV ring coefficients from a fit as a distance step function."""
    labels, heights, ses = [], [], []
    se = fit.se
    for i, nm in enumerate(fit.names):
        if nm.startswith(prefix) and not any(
            nm.startswith(f"ttv_{q}_") for q in QUADRANTS if prefix == "ttv_"
        ):
            labels.append(nm[len(prefix):])
            heights.append(fit.beta[i])
            ses.append(se[i])
    if not labels:
        raise DataError("dispersion_step_function: no TTV columns retained")
    return StepFunction(labels, np.asarray(heights), np.asarray(ses))


def quadrant_step_functions(design: Design, fitter=None) -> dict:
    """Separate TTV-only model per quadrant; returns {quadrant: StepFunction}.

    Each directional model regresses the response on an intercept and that
    quadrant's ring covariates.  Rings with no traffic in the quadrant at any
    site (constant zero column) are unidentifiable and are left out of that
    quadrant's step function.
    """
    if fitter is None:
        fitter = fit_ols
    out = {}
    for q in QUADRANTS:
        cols = [
            nm
            for nm in design.names
            if nm.startswith(f"ttv_{q}_")
            and np.ptp(design.X[:, design.names.index(nm)]) > 0
        ]
        if not cols:
            raise DataError("quadrant_step_functions: design lacks quadrant columns")
        keep = ["intercept"] + cols
        fit = _subset_fit(design.X, design.y, design.names, keep, fitter)
        out[q] = dispersion_step_function(fit, prefix=f"ttv_{q}_")
    return out


def additive_bias_c_tilde(fit: StepOneFit, covariate_values: dict):
    """Additive bias: inner product of retained non-CMAQ columns with estimates,
    summed in ``fit.names`` order; columns may be arrays over days."""
    total = 0.0
    for nm, b in zip(fit.names, fit.beta):
        if nm == "cmaq":
            continue
        if nm not in covariate_values:
            raise DataError(f"additive_bias: missing retained covariate {nm!r}")
        total += b * covariate_values[nm]
    return total


def gamma_hat(fit: StepOneFit) -> float:
    """Multiplicative calibration bias (gridded-model coefficient)."""
    return fit.coef("cmaq")


# ---------------------------------------------------------------------------
# flat-text serialization (exact round-trip)


def _join(values):
    return " ".join(repr(float(v)) for v in values)


def write_step1_fit(fit: StepOneFit, path: str, header_lines=()) -> None:
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("columns=" + " ".join(fit.names) + "\n")
        fh.write("estimates=" + _join(fit.beta) + "\n")
        fh.write("cov=" + _join(fit.cov.ravel()) + "\n")
        fh.write(f"n={fit.n}\n")
        fh.write(f"rss={float(fit.rss)!r}\n")
        fh.write(f"tss={float(fit.tss)!r}\n")
        fh.write(f"sigma2={float(fit.sigma2)!r}\n")
        fh.write(f"press={float(fit.press)!r}\n")
        fh.write(f"rmspe={float(fit.rmspe)!r}\n")
        fh.write(f"loglik={float(fit.loglik)!r}\n")
        em = fit.error_model
        fh.write(f"error_kind={em.kind}\n")
        fh.write(f"error_sill={float(em.sill)!r}\n")
        fh.write(f"error_range={float(em.range_)!r}\n")
        fh.write(f"error_nugget={float(em.nugget)!r}\n")
        fh.write(f"error_nu={float(em.nu)!r}\n")
        fh.write("buffer_radii_km=" + _join(fit.spec.radii_km) + "\n")


def read_step1_fit(path: str) -> StepOneFit:
    kv = read_keyvalue(path)
    names = kv["columns"].split()
    beta = np.array([float(v) for v in kv["estimates"].split()])
    cov = np.array([float(v) for v in kv["cov"].split()]).reshape(len(names), len(names))
    em = ErrorModel(
        kv["error_kind"], sill=float(kv["error_sill"]), range_=float(kv["error_range"]),
        nugget=float(kv["error_nugget"]), nu=float(kv["error_nu"]),
    )
    return StepOneFit(
        names=names, beta=beta, cov=cov, n=int(kv["n"]), rss=float(kv["rss"]),
        tss=float(kv["tss"]), sigma2=float(kv["sigma2"]), error_model=em,
        press=float(kv["press"]), rmspe=float(kv["rmspe"]), loglik=float(kv["loglik"]),
        spec=BufferSpec(tuple(float(r) for r in kv["buffer_radii_km"].split()))
        if "buffer_radii_km" in kv else BufferSpec(),
    )
