"""Step II: dynamic state-space temporal calibration.

A single pooled daily state A(t) follows a stationary AR(1); the observation
vector at day t is A(t) plus a site-specific offset built from the Step I
additive bias (scaled by beta_c) and the gridded-model value (scaled by the
fixed Step I gamma-hat), with iid Gaussian observation noise.  Missing
observations are dropped from the day's observation equation, never imputed.

Because the state is scalar and the day-t observation covariance is
P 11' + sigma_z^2 I, the filter update and the Gaussian prediction-error
log-likelihood have closed forms in (count, sum, sum of squares) of the
day's residuals, which keeps full-length filtering cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from scarr.data_model import read_keyvalue, write_table
from scarr.errors import ConvergenceError, DataError


@dataclass
class DlmParams:
    sigma_z: float  # observation noise sd (ppb)
    sigma_a: float  # state innovation sd (ppb)
    psi_a: float  # AR(1) coefficient, in [0, 1)
    mu_a: float = 0.0  # state mean (ppb)
    beta_c: float = 1.0  # additive-bias influence
    gamma_hat: float = 1.0  # multiplicative bias, fixed from Step I
    se: dict = field(default_factory=dict)  # parameter name -> standard error
    mu_a_dropped: bool = False
    loglik: float = math.nan
    converged: bool = True

    def __post_init__(self):
        if not (self.sigma_z > 0):
            raise DataError("sigma_z must be > 0")
        if self.sigma_a < 0:
            raise DataError("sigma_a must be >= 0")
        if not (0.0 <= self.psi_a < 1.0):
            raise DataError("psi_a must lie in [0, 1)")

    @property
    def stationary_var(self) -> float:
        return self.sigma_a**2 / (1.0 - self.psi_a**2)


@dataclass
class DlmInputs:
    """Aligned day-by-site arrays; NaN in y marks a missing observation."""

    y: np.ndarray  # (T, n)
    c_tilde: np.ndarray  # (T, n), never missing where y present
    y1: np.ndarray  # (T, n) gridded-model values, never missing where y present

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.c_tilde = np.asarray(self.c_tilde, dtype=float)
        self.y1 = np.asarray(self.y1, dtype=float)
        if not (self.y.shape == self.c_tilde.shape == self.y1.shape):
            raise DataError("DlmInputs arrays must share one (T, n) shape")
        if self.y.ndim != 2:
            raise DataError("DlmInputs arrays must be 2-d (days x sites)")
        present = np.isfinite(self.y)
        if not np.all(np.isfinite(self.c_tilde[present])):
            raise DataError("c_tilde missing where y is present")
        if not np.all(np.isfinite(self.y1[present])):
            raise DataError("y1 missing where y is present")

    @property
    def n_days(self) -> int:
        return self.y.shape[0]

    @property
    def n_sites(self) -> int:
        return self.y.shape[1]


@dataclass
class StateEstimate:
    pred_mean: np.ndarray
    pred_var: np.ndarray
    filtered_mean: np.ndarray
    filtered_var: np.ndarray
    loglik_terms: np.ndarray
    smoothed_mean: np.ndarray | None = None
    smoothed_var: np.ndarray | None = None

    @property
    def loglik(self) -> float:
        return float(self.loglik_terms.sum())


def _day_stats(params: DlmParams, inputs: DlmInputs):
    """Per-day sufficient statistics (m, sum resid, sum resid^2) of
    u = y - beta_c*c_tilde - gamma*y1 over the observed entries."""
    u = inputs.y - params.beta_c * inputs.c_tilde - params.gamma_hat * inputs.y1
    present = np.isfinite(inputs.y)
    u = np.where(present, u, 0.0)
    m = present.sum(axis=1)
    s1 = u.sum(axis=1)
    s2 = (u * u).sum(axis=1)
    return m, s1, s2


def kalman_filter(params: DlmParams, inputs: DlmInputs) -> StateEstimate:
    """Exact scalar-state Kalman filter with day-varying observed dimension.

    The initial state is the stationary AR(1) prior.  Days with every entry
    missing perform prediction only and contribute 0 to the log-likelihood.
    """
    if not np.all(np.isfinite(inputs.c_tilde[np.isfinite(inputs.y)])):
        raise DataError("non-finite inputs")
    T = inputs.n_days
    if T < 1:
        raise DataError("kalman_filter: need at least one day")
    m, s1, s2 = (x.tolist() for x in _day_stats(params, inputs))
    sz2 = params.sigma_z**2
    sa2 = params.sigma_a**2
    psi = params.psi_a
    mu = params.mu_a

    pred_mean, pred_var, filt_mean, filt_var, ll = [], [], [], [], []
    a = mu
    P = params.stationary_var
    log2pi = math.log(2.0 * math.pi)
    log_sz2 = math.log(sz2)
    for mt, s1t, s2t in zip(m, s1, s2):
        pred_mean.append(a)
        pred_var.append(P)
        if mt == 0:
            ll.append(0.0)
        else:
            denom = sz2 + mt * P
            sv = s1t - mt * a  # sum of innovations
            vsq = s2t - 2.0 * a * s1t + mt * a * a  # squared innovation norm
            quad = (vsq - P * sv * sv / denom) / sz2
            logdet = (mt - 1) * log_sz2 + math.log(denom)
            ll.append(-0.5 * (mt * log2pi + logdet + quad))
            a = a + P * sv / denom
            P = P * sz2 / denom
        filt_mean.append(a)
        filt_var.append(P)
        # time update to t+1
        a = mu + psi * (a - mu)
        P = psi * psi * P + sa2
    return StateEstimate(*(np.array(x, dtype=float) for x in
                           (pred_mean, pred_var, filt_mean, filt_var, ll)))


def kalman_smoother(params: DlmParams, inputs: DlmInputs) -> StateEstimate:
    """Fixed-interval (RTS) smoother on top of the filter output."""
    est = kalman_filter(params, inputs)
    psi = params.psi_a
    sa2 = params.sigma_a**2
    mu = params.mu_a

    fm, fv = est.filtered_mean.tolist(), est.filtered_var.tolist()
    sm, sv = fm[:], fv[:]
    for t in range(len(fm) - 2, -1, -1):
        # one-step-ahead prior at t+1 derived from the filtered state at t
        P_pred = psi * psi * fv[t] + sa2
        a_pred = mu + psi * (fm[t] - mu)
        J = fv[t] * psi / P_pred if P_pred > 0 else 0.0
        sm[t] = fm[t] + J * (sm[t + 1] - a_pred)
        sv[t] = fv[t] + J * J * (sv[t + 1] - P_pred)
    est.smoothed_mean = np.array(sm, dtype=float)
    est.smoothed_var = np.maximum(np.array(sv, dtype=float), 0.0)
    return est


def log_likelihood(params: DlmParams, inputs: DlmInputs) -> float:
    """Gaussian prediction-error-decomposition log-likelihood."""
    return kalman_filter(params, inputs).loglik


# ---------------------------------------------------------------------------
# maximum likelihood


@dataclass
class Step2Config:
    """``step2_config.txt``: each field is a key, parsed by its type."""

    drop_mu_a: bool = True  # refit with mu_a = 0 when not significant
    n_starts: int = 3
    grad_tol: float = 1e-6
    step_tol: float = 1e-9
    min_days_per_param: int = 10


def _logit(p):
    return math.log(p / (1.0 - p))


def _expit(x):
    if x >= 0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


_PARAM_NAMES = ("sigma_z", "sigma_a", "psi_a", "mu_a", "beta_c")


def _params(vec, gamma_hat, fix_mu) -> DlmParams:
    """DlmParams from a natural parameter vector
    (sigma_z, sigma_a, psi_a, [mu_a,] beta_c)."""
    if fix_mu:
        sigma_z, sigma_a, psi, beta_c = vec
        mu = 0.0
    else:
        sigma_z, sigma_a, psi, mu, beta_c = vec
    return DlmParams(sigma_z, sigma_a, psi, mu_a=mu, beta_c=beta_c, gamma_hat=gamma_hat)


def _natural(theta):
    """Natural parameter vector of an optimizer point
    (log sigma_z, log sigma_a, logit psi_a, [mu_a,] beta_c)."""
    return [math.exp(theta[0]), math.exp(theta[1]),
            min(_expit(theta[2]), 1.0 - 1e-12), *theta[3:]]


def _nll(inputs, gamma_hat, fix_mu):
    """Negative log-likelihood of a natural parameter vector; 1e12 outside
    the parameter space or where the likelihood is not finite."""
    def nll(vec):
        try:
            val = -log_likelihood(_params(vec, gamma_hat, fix_mu), inputs)
        except (DataError, FloatingPointError, ValueError):
            return 1e12
        return val if math.isfinite(val) else 1e12

    return nll


def _moment_starts(inputs: DlmInputs, gamma_hat: float, n_starts: int, fix_mu: bool):
    """Deterministic multistart points from pooled moment estimates."""
    present = np.isfinite(inputs.y)
    u = (inputs.y - gamma_hat * inputs.y1)[present]
    c = inputs.c_tilde[present]
    # crude regression of u on c for a beta_c guess
    cc = float(np.sum((c - c.mean()) ** 2))
    beta0 = float(np.sum((c - c.mean()) * (u - u.mean())) / cc) if cc > 0 else 1.0
    resid_sd = float(np.std(u - beta0 * c))
    resid_sd = max(resid_sd, 1e-3)
    mu0 = float(np.mean(u - beta0 * c))
    starts = []
    for psi0 in (0.5, 0.2, 0.8, 0.35, 0.65)[: max(n_starts, 1)]:
        theta = [math.log(0.8 * resid_sd), math.log(0.6 * resid_sd), _logit(psi0)]
        if fix_mu:
            theta += [beta0]
        else:
            theta += [mu0, beta0]
        starts.append(np.array(theta))
    return starts


def _numeric_hessian(fun, x, rel_step=1e-4):
    n = len(x)
    h = np.maximum(np.abs(x), 1.0) * rel_step
    H = np.empty((n, n))
    f0 = fun(x)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                xp = x.copy(); xp[i] += h[i]
                xm = x.copy(); xm[i] -= h[i]
                H[i, i] = (fun(xp) - 2.0 * f0 + fun(xm)) / h[i] ** 2
            else:
                xpp = x.copy(); xpp[i] += h[i]; xpp[j] += h[j]
                xpm = x.copy(); xpm[i] += h[i]; xpm[j] -= h[j]
                xmp = x.copy(); xmp[i] -= h[i]; xmp[j] += h[j]
                xmm = x.copy(); xmm[i] -= h[i]; xmm[j] -= h[j]
                H[i, j] = H[j, i] = (
                    fun(xpp) - fun(xpm) - fun(xmp) + fun(xmm)
                ) / (4.0 * h[i] * h[j])
    return H


def _fit_once(inputs, gamma_hat, config, fix_mu):
    nll = _nll(inputs, gamma_hat, fix_mu)

    def objective(theta):
        try:
            vec = _natural(theta)
        except OverflowError:
            return 1e12
        return nll(vec)

    best = None
    for theta0 in _moment_starts(inputs, gamma_hat, config.n_starts, fix_mu):
        res = optimize.minimize(
            objective, theta0, method="L-BFGS-B",
            options={"gtol": config.grad_tol, "ftol": config.step_tol, "maxiter": 500},
        )
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not math.isfinite(best.fun) or best.fun >= 1e12:
        raise ConvergenceError("fit_mle: no multistart converged")
    vec = _natural(best.x)
    params = _params(vec, gamma_hat, fix_mu)
    params.loglik = -float(best.fun)
    params.converged = bool(best.success)

    # standard errors: inverse numeric Hessian in the natural parameterization
    names = [nm for nm in _PARAM_NAMES if not (fix_mu and nm == "mu_a")]
    H = _numeric_hessian(nll, np.array(vec))
    try:
        cov = np.linalg.inv(H)
        diag = np.diag(cov)
        if np.all(diag > 0):
            params.se = {nm: float(math.sqrt(v)) for nm, v in zip(names, diag)}
        else:
            params.se = {}
    except np.linalg.LinAlgError:
        params.se = {}
    return params


def fit_mle(inputs: DlmInputs, gamma_hat: float = 1.0,
            config: Step2Config = Step2Config()) -> DlmParams:
    """Maximum-likelihood fit of the state-space parameters.

    Optimizes over (log sigma_z, log sigma_a, logit psi_a, mu_a, beta_c) by
    quasi-Newton with numeric gradients from deterministic multistarts.  With
    ``drop_mu_a`` set, the model is refit with mu_a fixed at zero when the
    estimate is not significant at the 5% level.
    """
    n_free = 5
    n_obs_days = int(np.sum(np.any(np.isfinite(inputs.y), axis=1)))
    if n_obs_days < config.min_days_per_param * n_free:
        raise DataError(
            f"fit_mle: {n_obs_days} observed days < "
            f"{config.min_days_per_param * n_free} required"
        )
    params = _fit_once(inputs, gamma_hat, config, fix_mu=False)
    if config.drop_mu_a:
        se_mu = params.se.get("mu_a")
        if se_mu is not None and abs(params.mu_a) < 1.96 * se_mu:
            params = _fit_once(inputs, gamma_hat, config, fix_mu=True)
            params.mu_a_dropped = True
    return params


def write_step2_fit(params: DlmParams, path: str, header_lines=()) -> None:
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for nm in _PARAM_NAMES:
            fh.write(f"{nm}={float(getattr(params, nm))!r}\n")
        fh.write(f"gamma_hat={float(params.gamma_hat)!r}\n")
        for nm in _PARAM_NAMES:
            if nm in params.se:
                fh.write(f"se_{nm}={params.se[nm]!r}\n")
        fh.write(f"mu_a_dropped={str(params.mu_a_dropped).lower()}\n")
        fh.write(f"loglik={float(params.loglik)!r}\n")
        fh.write(f"converged={str(params.converged).lower()}\n")


def read_step2_fit(path: str) -> DlmParams:
    kv = read_keyvalue(path)
    params = DlmParams(**{nm: float(kv[nm]) for nm in (*_PARAM_NAMES, "gamma_hat")})
    params.se = {nm: float(kv[f"se_{nm}"]) for nm in _PARAM_NAMES if f"se_{nm}" in kv}
    params.mu_a_dropped = kv.get("mu_a_dropped", "false") == "true"
    params.loglik = float(kv.get("loglik", "nan"))
    params.converged = kv.get("converged", "true") == "true"
    return params


def write_state_path(est: StateEstimate, path: str, header_lines=()) -> None:
    T = len(est.filtered_mean)
    sm = est.smoothed_mean if est.smoothed_mean is not None else [math.nan] * T
    sv = est.smoothed_var if est.smoothed_var is not None else [math.nan] * T
    columns = ("day", "filtered_mean", "filtered_var", "smoothed_mean", "smoothed_var")
    rows = zip(range(1, T + 1), est.filtered_mean, est.filtered_var, sm, sv)
    write_table(path, columns, rows, header_lines)
