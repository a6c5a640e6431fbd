"""Step I: calibration and spatial refinement regression.

Fits the interval-averaged calibration model (OLS or spatially correlated
GLS errors), runs backward buffer selection with nested-model F-tests (on
whitened data under GLS), computes LOOCV PRESS, estimates the traffic
dispersion step function, and exports the additive and multiplicative bias.
"""

from __future__ import annotations

import logging
import math
import warnings as _warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import optimize, special
from scipy.linalg import get_lapack_funcs

from scarr.covariates import (
    LANDUSE_CATEGORIES,
    N_LANDUSE_RINGS,
    QUADRANTS,
    SEASON_NAMES,
    BufferSpec,
)
from scarr.data_model import read_keyvalue, write_keyvalue
from scarr.errors import ConfigError, ConvergenceError, DataError

#: Scaling applied at design assembly (raw files stay in natural units).
POP_DENSITY_SCALE = 10_000.0  # persons/mi^2 per design unit
LANDUSE_SCALE = 1_000.0  # hectares per design unit

#: Error-model kinds: iid errors, then the three spatial covariance families.
ERROR_KINDS = ("independent", "spherical", "exponential", "matern")

_LOG = logging.getLogger(__name__)


@dataclass
class ErrorModel:
    kind: str = "independent"  # one of ERROR_KINDS
    sill: float = 1.0
    range_: float = 0.0
    nugget: float = 0.0
    nu: float = 0.5  # matern smoothness

    def __post_init__(self):
        if self.kind not in ERROR_KINDS:
            raise ConfigError(f"unknown error model kind {self.kind!r}")
        if self.sill <= 0 or self.range_ < 0 or self.nugget < 0:
            raise ConfigError("error model requires sill > 0, range >= 0, nugget >= 0")
        if self.kind == "matern" and not 0 < self.nu < math.inf:
            raise ConfigError("matern smoothness must be finite and > 0")


def _cov_kernel(model: ErrorModel, d: np.ndarray) -> np.ndarray:
    """Spatial covariance at the nonzero separations ``d`` (1-d array)."""
    out = np.zeros(len(d))
    if model.kind == "independent" or model.range_ == 0:
        return out
    # a subnormal range overflows h (and sqrt(2 nu) h below) to inf, the
    # separation at which the correlation is 0
    with np.errstate(over="ignore"):
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
    with np.errstate(over="ignore"):
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


class _Pairs(NamedTuple):
    """The sorted distinct separations ``d`` of n observations, and the
    (n, n) ``index`` of each covariance entry's separation in ``d``; the
    diagonal indexes one slot past the last, which holds sill + nugget.

    Every interval at a site shares its coordinates, so ``d`` holds one entry
    per distinct pair of site locations, not per pair of interval rows: the
    kernel runs once per distinct separation (``_pair_cov``)."""

    d: np.ndarray
    index: np.ndarray


def _pairs(coords: np.ndarray) -> _Pairs:
    n = len(coords)
    i, j = np.triu_indices(n, 1)
    x, y = coords[:, 0], coords[:, 1]
    d, inverse = np.unique(np.hypot(x[i] - x[j], y[i] - y[j]), return_inverse=True)
    index = np.full((n, n), len(d))
    index[i, j] = index[j, i] = inverse
    return _Pairs(d, index)


def _pair_cov(model: ErrorModel, pairs: _Pairs) -> np.ndarray:
    """Error covariance over the observations of ``pairs``."""
    v = np.zeros(len(pairs.d))
    if model.kind != "independent":
        same = pairs.d == 0.0
        v[same] = model.sill
        v[~same] = _cov_kernel(model, pairs.d[~same])
    return np.append(v, model.sill + model.nugget)[pairs.index]


def cov_matrix(model: ErrorModel, coords: np.ndarray) -> np.ndarray:
    """Error covariance over observations; the nugget is per-observation, so
    two distinct observations at the same location share only the sill.

    The separations are the distinct values over the upper triangle
    (``_pairs``), which the GLS likelihood computes once per fit and passes
    to the same kernel (``_pair_cov``).  The kernel runs once per distinct
    separation, so its cost follows the number of distinct site locations,
    not the number of interval rows.  Every transcendental (exp, pow, the
    Bessel function) runs element by element through libm or ``special.kv``:
    numpy's own SIMD ``exp`` and ``power`` differ from libm in the last bit
    for some inputs, and the fitted digits must not depend on which one ran.
    """
    return _pair_cov(model, _pairs(coords))


@dataclass
class StepOneFit:
    names: list
    beta: np.ndarray
    cov: np.ndarray
    n: int
    rss: float
    tss: float
    # rss / (n - p) of the unwhitened residuals y - X beta, under OLS and
    # GLS alike; under GLS it is not the fitted covariance's scale
    sigma2: float
    error_model: ErrorModel
    press: float = math.nan
    rmspe: float = math.nan
    loglik: float = math.nan
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


def fit_ols(X: np.ndarray, y: np.ndarray, names) -> StepOneFit:
    """Ordinary least squares with unbiased residual variance."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n <= p:
        raise DataError(f"fit_ols: n={n} <= p={p}")
    rank = np.linalg.matrix_rank(X)
    if rank < p:
        zero = [name for name, col in zip(names, X.T) if not col.any()]
        raise DataError(f"fit_ols: design is rank deficient (rank {rank} < {p})"
                        + (f"; all-zero columns: {' '.join(zero)}" if zero else ""))
    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2))
    sigma2 = rss / (n - p)
    cov = sigma2 * np.linalg.pinv(X.T @ X)
    ll = -0.5 * n * (math.log(2 * math.pi) + math.log(max(rss / n, 1e-300)) + 1.0)
    return StepOneFit(
        names=list(names), beta=beta, cov=cov, n=n, rss=rss, tss=tss,
        sigma2=sigma2, error_model=ErrorModel("independent", sill=max(sigma2, 1e-300)),
        loglik=ll,
    )


#: LAPACK's double-precision triangular solve, the one ``solve_triangular``
#: calls, and its QR factorization, the one ``np.linalg.qr`` calls.
_TRTRS, _GEQRF = get_lapack_funcs(("trtrs", "geqrf"), (np.empty(0),))


def _solve_lower(L: np.ndarray, a: np.ndarray) -> np.ndarray:
    """L^-1 a for L a Cholesky factor from ``np.linalg.cholesky``, bit for bit
    as ``solve_triangular(L, a, lower=True)`` computes it for a C-ordered L,
    without its per-call wrappers.  A non-finite entry raises the ValueError
    of its finiteness check; L's diagonal is positive, so the solve cannot
    fail."""
    if not (np.isfinite(L).all() and np.isfinite(a).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, _ = _TRTRS(L.T, a, lower=0, trans=1)
    return x


def _whiten(model: ErrorModel, pairs: _Pairs, *arrays):
    """L^-1 a for each array a, L the Cholesky factor of the error covariance
    over the observations of ``pairs``; ``np.linalg.LinAlgError`` if that is
    numerically singular."""
    L = np.linalg.cholesky(_pair_cov(model, pairs))
    return tuple(_solve_lower(L, a) for a in arrays)


#: Sill share of the iid-equivalent start, and nugget share of the
#: nugget-free one.  A fit whose share ends no higher than IID_SHARE is at
#: the pure-nugget boundary, where the range is not identified.
IID_SHARE = 1e-6


def _theta_model(theta, kind: str, nu: float, scale: float = 1.0) -> ErrorModel:
    """The error model of variance ``scale`` at theta = (log range, logit s),
    s the sill share: sill = scale s, nugget = scale (1 - s).  s and 1 - s
    are each computed from the logit, so neither loses its digits to a
    cancellation as the other nears 1, and each is held above 0 where its
    exponential would overflow: a zero sill is invalid, and a zero nugget
    leaves only the correlation, which may not factor."""
    with np.errstate(over="ignore"):  # range -> inf is the fully correlated limit
        rng = float(np.exp(theta[0]))
    s = 1.0 / (1.0 + math.exp(min(-theta[1], 700.0)))
    s_nugget = 1.0 / (1.0 + math.exp(min(theta[1], 700.0)))
    return ErrorModel(kind, sill=scale * s, range_=rng, nugget=scale * s_nugget, nu=nu)


def _gls_profile(theta, Xy, pairs, kind, nu):
    """(-loglik, sigma2-hat) of the GLS model at theta = (log range, logit s),
    with beta and the scale profiled out.

    The covariance is sigma2 R, R = s C1(range) + (1 - s) I with C1 the
    unit-sill correlation; given R, sigma2-hat = RSS_w / n with RSS_w the
    whitened residual sum of squares of y on X (``Xy`` = [X | y]), and
    -loglik = (n log 2 pi + n log sigma2-hat + log|R| + n) / 2.  Each
    evaluation takes one Cholesky factor L of R, one LAPACK triangular solve
    for L^-1 [X | y] and one LAPACK QR of that (``fit_ols`` has rejected a
    rank-deficient X); RSS_w is the square of the QR factor's last diagonal
    entry, at [k-1, k-1] of ``geqrf``'s packed n x k output, bit for bit as
    ``np.linalg.qr`` computes it.  ``pairs`` is ``_pairs(coords)``.
    """
    n, k = Xy.shape
    R = _pair_cov(_theta_model(theta, kind, nu), pairs)
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        return 1e12, math.nan
    qr, _, _, _ = _GEQRF(_solve_lower(L, Xy), overwrite_a=1)
    rss = float(qr[k - 1, k - 1]) ** 2
    s2 = max(rss / n, 1e-300)
    logdet = 2.0 * np.log(L.diagonal()).sum()
    return 0.5 * (n * (math.log(2 * math.pi) + math.log(s2) + 1.0) + logdet), s2


def fit_gls(
    X: np.ndarray,
    y: np.ndarray,
    coords: np.ndarray,
    names,
    kind: str = "exponential",
    nu: float = 0.5,
    pairs: _Pairs | None = None,
) -> StepOneFit:
    """Maximum-likelihood GLS with a spatial error covariance.

    The covariance is sigma2 (s C1(range) + (1 - s) I), sill = sigma2 s and
    nugget = sigma2 (1 - s); beta and sigma2 are profiled out (Mardia &
    Marshall 1984; Diggle & Ribeiro 2007, sec. 5.4), so Nelder-Mead searches
    (log range, logit s) only, from six deterministic starts, each logged.
    The first is the iid-equivalent point, so the fitted likelihood can never
    fall below the OLS reduction; the last is its mirror, nearly nugget-free,
    from which the search reaches optima with a vanishing nugget that the
    interior starts leave for another basin.  The pair separations are
    computed once, or taken from ``pairs`` (``_pairs(coords)``) when given.
    One line logs the fit: sigma2, range, sill share and the likelihood
    evaluations of all starts, and whether the share is at the pure-nugget
    boundary, where the range means nothing.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    coords = np.asarray(coords, dtype=float)
    if len({(float(a), float(b)) for a, b in coords}) < 3:
        raise DataError("fit_gls: need at least 3 distinct site locations")
    fit_ols(X, y, names)  # rejects a rank-deficient design
    Xy = np.column_stack([X, y])
    if pairs is None:
        pairs = _pairs(coords)
    # the starts are set from every row pair, not from the distinct separations
    rows = pairs.d[pairs.index[np.triu_indices(len(coords), 1)]]
    pos = rows[rows > 0]
    dmed = float(np.median(pos))
    tiny_range = max(pos.min() * 1e-6, 1e-9)

    starts = [  # (log range, logit sill share)
        np.array([math.log(r), math.log(s / (1.0 - s))]) for r, s in (
            (tiny_range, IID_SHARE),  # iid-equivalent (pure nugget)
            (0.25 * dmed, 0.5),
            (dmed, 0.9),
            (2.0 * dmed, 0.5),
            (0.5 * dmed, 0.2),
            (dmed, 1.0 - IID_SHARE),  # nugget-free-equivalent
        )
    ]

    def nll(theta):
        return _gls_profile(theta, Xy, pairs, kind, nu)[0]

    best, nfev = None, 0
    for i, theta0 in enumerate(starts, start=1):
        res = optimize.minimize(
            nll, theta0, method="Nelder-Mead",
            options={"maxiter": 2000, "xatol": 1e-8, "fatol": 1e-10},
        )
        _LOG.info("%s GLS, start %d: nit=%d nfev=%d success=%s -loglik=%.9f",
                  kind, i, res.nit, res.nfev, str(bool(res.success)).lower(), res.fun)
        nfev += res.nfev
        if best is None or res.fun < best.fun:
            best = res
    if not (np.all(np.isfinite(best.x)) and best.fun < 1e12):
        raise ConvergenceError("fit_gls: all multistarts failed")

    _, s2 = _gls_profile(best.x, Xy, pairs, kind, nu)
    model = _theta_model(best.x, kind, nu, s2)
    _LOG.info("%s GLS: sigma2=%.9g range=%.9g sill share=%.3g, %d likelihood evaluations%s",
              kind, s2, model.range_, model.sill / s2, nfev,
              "; the share is at the pure-nugget boundary: range not identified"
              if best.x[1] <= starts[0][1] else "")
    try:
        Xw, yw = _whiten(model, pairs, X, y)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            "fit_gls: fitted covariance is numerically singular"
        ) from exc
    cov_beta = np.linalg.pinv(Xw.T @ Xw)
    beta = cov_beta @ (Xw.T @ yw)
    resid = y - X @ beta
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2))
    n, p = X.shape
    sigma2 = rss / (n - p)
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
    landuse_combined: bool = True  # total over the land-use rings vs. per-ring columns
    buffer_radii_km: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    run_selection: bool = True
    matern_nu: float = 1.5

    def __post_init__(self):
        try:  # the kind and smoothness are checked by the ErrorModel they configure
            ErrorModel(self.error_model, nu=self.matern_nu)
        except ConfigError as exc:
            key = "matern_nu" if self.error_model in ERROR_KINDS else "error_model"
            raise ConfigError(str(exc), key) from None
        if not 0 < self.alpha <= 1:
            raise ConfigError("alpha must lie in (0, 1]", "alpha")
        bad = set(self.landuse_categories) - set(LANDUSE_CATEGORIES)
        if bad:
            raise ConfigError(f"unknown land-use categories {sorted(bad)}", "landuse_categories")
        try:
            self.buffer_spec
        except DataError as exc:
            raise ConfigError(str(exc), "buffer_radii_km") from None

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
    groups: dict  # selectable buffer group -> ordered list of column names
    warnings: list
    spec: BufferSpec = BufferSpec()  # buffer rings the columns were named from


def design_columns(static, season, spec: BufferSpec) -> dict:
    """Value of every design column but ``cmaq`` at one target, by name.

    ``static`` is ``site_static_covariates`` output, or ``static_covariates``
    output (or a ``build_covariates`` table) with a leading target axis;
    ``season`` is the four seasonal-basis values, each a number or an array.
    """
    groups = spec.groups()
    cols = {
        "intercept": 1.0,
        "pop_density_10k": static["pop_density"] / POP_DENSITY_SCALE,
        "elevation_m": static["elevation"],
        **dict(zip(SEASON_NAMES, season)),
    }
    cols.update(zip(groups["ttv"], np.moveaxis(static["ttv"], -1, 0)))
    for q, quadrant in zip(QUADRANTS, np.moveaxis(static["ttv_quadrant"], -2, 0)):
        cols.update(zip(groups[f"ttv_{q}"], np.moveaxis(quadrant, -1, 0)))
    for cat in LANDUSE_CATEGORIES:
        areas = np.asarray(static["lu_area"].get(cat, np.zeros(N_LANDUSE_RINGS)))
        cols.update(zip(groups[f"lu_{cat}"], np.moveaxis(areas / LANDUSE_SCALE, -1, 0)))
        cols[spec.landuse_total(cat)] = areas.sum(axis=-1) / LANDUSE_SCALE
    return cols


def assemble_design(dataset, table, config: Step1Config = Step1Config()) -> Design:
    """Build the design matrix from a ``build_covariates`` table and its
    responses.

    Column order: intercept, pop density (per 10,000), season basis (4),
    optional elevation, TTV rings inner->outer (or 4x quadrant rings),
    land-use aggregates/rings per configured category (per 1,000 ha), CMAQ
    interval mean.  Rows with any missing entry are dropped with a warning.
    """
    spec = config.buffer_spec
    every = spec.groups()
    ttv = [f"ttv_{q}" for q in QUADRANTS] if config.use_quadrants else ["ttv"]
    groups = {g: every[g] for g in ttv}
    for cat in config.landuse_categories:
        groups[f"lu_{cat}"] = ([spec.landuse_total(cat)] if config.landuse_combined
                               else every[f"lu_{cat}"])
    names = ["intercept", "pop_density_10k", *SEASON_NAMES]
    if config.use_elevation:
        names.append("elevation_m")
    names += [name for cols in groups.values() for name in cols] + ["cmaq"]

    values = design_columns(table, table["season"].T, spec)
    values["cmaq"] = table["cmaq_mean"]
    y = table["response"]
    X = np.column_stack([np.broadcast_to(values[nm], y.shape) for nm in names])
    keep = np.isfinite(X).all(axis=1) & np.isfinite(y)
    warn = [f"site {sid}: dropped (missing covariate or response)"
            for sid in table["site_id"][~keep]]
    coords = [(dataset.sites[sid].x, dataset.sites[sid].y) for sid in table["site_id"][keep]]
    return Design(
        X=X[keep], y=y[keep], names=names, coords=np.asarray(coords, dtype=float),
        groups=groups, warnings=warn, spec=spec,
    )


def collinearity_report(X: np.ndarray, names, threshold: float = 0.85):
    """Pairs of columns with |pairwise correlation| above the threshold, in
    column order; none for a design of fewer than two rows or columns.  A
    constant column's correlations are NaN, so it is in no pair."""
    if len(X) < 2 or X.shape[1] < 2:  # one column makes corrcoef 0-d
        return []
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.corrcoef(X, rowvar=False)
        above = np.triu(np.abs(r) > threshold, 1)
    return [(names[i], names[j], float(r[i, j])) for i, j in zip(*np.nonzero(above))]


def _columns(design: Design, names) -> np.ndarray:
    return design.X[:, [design.names.index(nm) for nm in names]]


def backward_buffer_selection(design: Design, alpha: float = 0.05):
    """Backward elimination of buffer rings by OLS F-tests, preferring inner
    rings; under GLS ``fit_design`` passes the whitened design.

    Only the outermost remaining ring of a group may be dropped (hierarchy
    rule).  At each step every group's outermost ring is F-tested against the
    current model and the first non-significant candidate in group order
    (TTV groups before land-use groups) is removed and logged.  Returns
    (retained: {group: [column names]}, final OLS fit).
    """
    retained = {g: list(cols) for g, cols in design.groups.items()}
    order = sorted(retained, key=lambda g: (0 if g.startswith("ttv") else 1, g))

    def fit(keep):
        return fit_ols(_columns(design, keep), design.y, keep)

    full = fit(design.names)
    while True:
        for g in order:
            if not retained[g]:
                continue
            candidate = retained[g][-1]
            reduced = fit([nm for nm in full.names if nm != candidate])
            F, df1, df2, p = f_test(reduced, full)
            if p > alpha:
                _LOG.info("dropped %s: F=%.6g df1=%d df2=%d p=%.6g", candidate, F, df1, df2, p)
                retained[g].pop()
                full = reduced
                break
        else:
            return retained, full


def fit_design(design: Design, cfg: Step1Config):
    """Step I: fit every column by OLS or ML GLS, select buffer rings if
    configured, refit if a ring was dropped; returns (retained, fit).

    Under GLS the selection's F-tests run on (L^-1 X, L^-1 y), L the Cholesky
    factor of the full model's fitted covariance, so each is a GLS test with
    that covariance fixed.  The GLS fits and the whitening share one table
    of pair separations.  PRESS is attached under OLS only.
    """
    # only the Matern has a smoothness; the others record the default
    nu = cfg.matern_nu if cfg.error_model == "matern" else ErrorModel.nu
    pairs = None if cfg.error_model == "independent" else _pairs(design.coords)

    def fit(names):
        # the full fit takes design.X itself: a _columns copy changes the residual bits
        X = design.X if names == design.names else _columns(design, names)
        if cfg.error_model == "independent":
            return fit_ols(X, design.y, names)
        return fit_gls(X, design.y, design.coords, names, cfg.error_model, nu, pairs)

    result = fit(design.names)
    retained = {g: list(cols) for g, cols in design.groups.items()}
    if cfg.run_selection:
        tested = design
        if cfg.error_model != "independent":
            X, y = _whiten(result.error_model, pairs, design.X, design.y)
            tested = replace(design, X=X, y=y)
        retained, selected = backward_buffer_selection(tested, cfg.alpha)
        _LOG.info("retained buffer rings %s", {g: len(cols) for g, cols in retained.items()})
        if selected.names != design.names:
            result = fit(selected.names)
    if cfg.error_model == "independent":
        result.press, result.rmspe = loocv_press(result, _columns(design, result.names), design.y)
    result.spec = cfg.buffer_spec
    return retained, result


@dataclass
class StepFunction:
    """Dispersion step heights lambda-hat over (r_{k-1}, r_k] buffer rings."""

    ring_labels: list
    heights: np.ndarray
    se: np.ndarray


def dispersion_step_function(fit: StepOneFit, group: str = "ttv") -> StepFunction:
    """The retained ring coefficients of ``group``, a key of
    ``fit.spec.groups()`` (``ttv`` or ``ttv_<q>``), as a distance step function."""
    label = dict(zip(fit.spec.groups()[group], fit.spec.ring_labels()))
    idx = [i for i, nm in enumerate(fit.names) if nm in label]
    if not idx:
        raise DataError("dispersion_step_function: no TTV columns retained")
    return StepFunction([label[fit.names[i]] for i in idx], fit.beta[idx], fit.se[idx])


def quadrant_step_functions(design: Design) -> dict:
    """Separate TTV-only model per quadrant; returns {quadrant: StepFunction}.

    Each directional model regresses the response on an intercept and that
    quadrant's ring covariates.  Rings with no traffic in the quadrant at any
    site (constant zero column) are unidentifiable and are left out of that
    quadrant's step function.
    """
    out = {}
    for q in QUADRANTS:
        group = f"ttv_{q}"
        cols = [nm for nm in design.groups.get(group, ()) if np.ptp(_columns(design, [nm])) > 0]
        if not cols:
            raise DataError("quadrant_step_functions: design lacks quadrant columns")
        keep = ["intercept"] + cols
        fit = replace(fit_ols(_columns(design, keep), design.y, keep), spec=design.spec)
        out[q] = dispersion_step_function(fit, group)
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
        total = total + b * covariate_values[nm]  # shapes may broadcast
    return total


def gamma_hat(fit: StepOneFit) -> float:
    """Multiplicative calibration bias (gridded-model coefficient)."""
    return fit.coef("cmaq")


# ---------------------------------------------------------------------------
# flat-text serialization (exact round-trip)


def _join(values):
    return " ".join(repr(float(v)) for v in values)


#: Scalar keys of step1_fit.txt, and the error model's keys and attributes.
_FIT_SCALARS = ("rss", "tss", "sigma2", "press", "rmspe", "loglik")
_ERROR_FIELDS = {"sill": "sill", "range": "range_", "nugget": "nugget", "nu": "nu"}


def write_step1_fit(fit: StepOneFit, path: str, header_lines=()) -> None:
    em = fit.error_model
    write_keyvalue(path, {
        "columns": " ".join(fit.names),
        "estimates": _join(fit.beta),
        "cov": _join(fit.cov.ravel()),
        "n": fit.n,
        **{key: float(getattr(fit, key)) for key in _FIT_SCALARS},
        "error_kind": em.kind,
        **{f"error_{key}": float(getattr(em, attr)) for key, attr in _ERROR_FIELDS.items()},
        "buffer_radii_km": _join(fit.spec.radii_km),
    }, header_lines)


def read_step1_fit(path: str) -> StepOneFit:
    kv = read_keyvalue(path)
    names = list(kv.parse("columns", tuple[str, ...]))
    k = len(names)
    beta, cov = (np.array(kv.parse(key, tuple[float, ...])) for key in ("estimates", "cov"))
    for key, values, size in (("estimates", beta, k), ("cov", cov, k * k)):
        if values.size != size:
            raise DataError(f"{kv.where[key]}: {key}: expected {size} numbers, got {values.size}")
    em_fields = [kv.parse("error_kind", str)]
    em_fields += [kv.parse(f"error_{key}", float) for key in _ERROR_FIELDS]
    radii = kv.parse("buffer_radii_km", tuple[float, ...], BufferSpec().radii_km)
    try:
        em, spec = ErrorModel(*em_fields), BufferSpec(radii)
    except (ConfigError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from None
    return StepOneFit(
        names=names, beta=beta, cov=cov.reshape(k, k), n=kv.parse("n", int),
        error_model=em, spec=spec,
        **{key: kv.parse(key, float) for key in _FIT_SCALARS},
    )
