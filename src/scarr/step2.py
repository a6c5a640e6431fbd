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

The maximum-likelihood fit works on the columns (u, 1, c_tilde), with
u = y - gamma_hat*y1.  The mean of u is linear in (mu_a, beta_c) and sigma_z^2
scales the covariance, so their closed forms leave a search over
q = sigma_a^2/sigma_z^2 and psi_a only (regression effects: de Jong 1991, Ann.
Statist. 19; Harvey 1989, section 3.4).  The AR(1) precision is tridiagonal
(Rue & Held 2005, ch. 1-2), so each evaluation is one tridiagonal LDL'
factorization in LAPACK, not a filter pass.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize
from scipy.linalg.lapack import dpttrf, dpttrs

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
        # C order whatever the caller's layout: the kernel's reductions, and
        # so the fitted bits, follow the memory order
        self.y = np.ascontiguousarray(self.y, dtype=float)
        self.c_tilde = np.ascontiguousarray(self.c_tilde, dtype=float)
        self.y1 = np.ascontiguousarray(self.y1, dtype=float)
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
    return present.sum(axis=1), u.sum(axis=1), (u * u).sum(axis=1)


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
    fm, fv = est.filtered_mean.tolist(), est.filtered_var.tolist()
    pm, pv = est.pred_mean.tolist(), est.pred_var.tolist()
    sm, sv = fm[:], fv[:]
    for t in range(len(fm) - 2, -1, -1):
        # the filter's one-step-ahead prior at t+1 is its time update of t
        a_pred, P_pred = pm[t + 1], pv[t + 1]
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


def _logit(p):
    return math.log(p / (1.0 - p))


def _expit(x):
    if x >= 0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


_PARAM_NAMES = ("sigma_z", "sigma_a", "psi_a", "mu_a", "beta_c")

#: Starting AR(1) coefficient of each optimizer start, in order of use.
_PSI_STARTS = (0.5, 0.2, 0.8)

#: Starting q = sigma_a^2 / sigma_z^2 of every start.
_Q_START = 0.5625

#: L-BFGS-B stopping rules of every start, in (log q, logit psi_a).
_LBFGSB_OPTIONS = {"gtol": 1e-6, "ftol": 1e-9, "maxiter": 500}

#: Observed days required per free parameter.
_MIN_DAYS_PER_PARAM = 10

#: Rows of the kernel's columns (u, 1, c_tilde) that carry the mean, with
#: mu_a free and with mu_a fixed at 0.
_MEAN_ROWS = {False: [1, 2], True: [2]}

_LOG2PI = math.log(2.0 * math.pi)

_LOG = logging.getLogger(__name__)


def _profile_kernel(inputs: DlmInputs, gamma_hat: float):
    """``(kernel, n_obs)``: ``kernel(q, psi)`` is ``(Q, logdet)`` at sigma_z = 1,
    sigma_a^2 = q and state mean 0, where Q = X'V^-1 X for the columns
    X = (u, 1, c_tilde) and logdet = log det V, V the observations' covariance.
    Q gives the likelihood at every mean (de Jong 1991).

    K, the AR(1) precision (diagonal 1, 1+psi^2, ..., 1+psi^2, 1, or 1-psi^2
    when T = 1; off-diagonal -psi), and C = K + q diag(m_t) are tridiagonal.
    With C = L diag(d) L' from LAPACK ``pttrf`` and C^-1 S from ``pttrs`` for
    the per-day sums S, logdet = sum log d_t - log(1 - psi^2) and
    Q = W + (C^-1 S)' K Ybar, where Ybar holds the day means (0 on empty days)
    and W the within-day cross-products about them.  This Q has no division by
    q, unlike X'X - q S'C^-1 S, which cancels at large q.  Q is summed without
    BLAS and the logs go through libm, so the bytes do not depend on BLAS
    threads.  Raises ``LinAlgError`` when C is not positive definite.
    """
    present = np.isfinite(inputs.y)
    m = present.sum(axis=1).astype(float)
    columns = (np.where(present, inputs.y - gamma_hat * inputs.y1, 0.0),
               present.astype(float), np.where(present, inputs.c_tilde, 0.0))
    sums = np.array([x.sum(axis=1) for x in columns])  # (3, T)
    means = sums / np.maximum(m, 1.0)
    resid = [np.where(present, x - mean[:, None], 0.0) for x, mean in zip(columns, means)]
    W = np.array([[np.sum(a * b) for b in resid] for a in resid])
    T = len(m)
    k2 = np.ones(T)  # K's diagonal is 1 + psi^2 * k2
    k2[[0, -1]] = 0.0 if T > 1 else -1.0
    padded = np.pad(means, ((0, 0), (1, 1)))
    neighbours = padded[:, :-2] + padded[:, 2:]  # Ybar[t-1] + Ybar[t+1]

    def kernel(q: float, psi: float):
        psi2 = psi * psi
        k_diag = 1.0 + psi2 * k2
        # LAPACK ignores e when T = 1, but the wrapper wants one element
        d, e, info = dpttrf(k_diag + q * m, np.full(max(T - 1, 1), -psi))
        if info:
            raise np.linalg.LinAlgError("AR(1) kernel matrix is not positive definite")
        x = dpttrs(d, e, sums.T)[0].T  # C^-1 S, (3, T)
        k_means = k_diag * means - psi * neighbours  # K Ybar
        G = (x[:, None, :] * k_means[None, :, :]).sum(axis=2)
        # sum_t log d_t through libm on products of 8 mantissas in [0.5, 1)
        mant, expo = np.frexp(d)
        blocks = np.pad(mant, (0, -T % 8), constant_values=1.0).reshape(8, -1)
        logdet = (math.fsum(map(math.log, np.multiply.reduce(blocks).tolist()))
                  + math.log(2.0) * int(expo.sum()) - math.log(1.0 - psi2))
        return W + 0.5 * (G + G.T), logdet

    return kernel, int(m.sum())


def _quadratic(Q, b, rows) -> float:
    """(u - X b)' V^-1 (u - X b) from the kernel's Q, for coefficients ``b`` on
    the kernel columns ``rows`` and 0 on the other mean column: the residual of
    the GLS fit on both mean columns plus b's distance from it, which keeps its
    digits near an exact fit and does the same arithmetic for either ``rows``."""
    full = np.zeros(2)
    full[[r - 1 for r in rows]] = b
    b_hat = np.linalg.lstsq(Q[1:, 1:], Q[1:, 0], rcond=None)[0]
    d = full - b_hat
    return (Q[0, 0] - Q[1:, 0] @ b_hat) + d @ Q[1:, 1:] @ d


def _full_nll(stats, n_obs: int, sigma_z: float, b, rows) -> float:
    """Negative log-likelihood from the kernel at q = sigma_a^2 / sigma_z^2, with
    mean coefficients ``b`` on the kernel columns ``rows``."""
    Q, logdet = stats
    sz2 = sigma_z * sigma_z
    return 0.5 * (n_obs * (_LOG2PI + math.log(sz2)) + logdet + _quadratic(Q, b, rows) / sz2)


def _profile_nll(stats, n_obs: int, rows):
    """(-loglik, b, sigma_z^2): the negative log-likelihood from the kernel,
    minimised in closed form over the mean coefficients ``b`` on the kernel
    columns ``rows`` (GLS normal equations) and over sigma_z^2 (RSS / N)."""
    Q, logdet = stats
    b = np.linalg.solve(Q[rows][:, rows], Q[rows, 0])
    s2 = _quadratic(Q, b, rows) / n_obs
    return 0.5 * (n_obs * (_LOG2PI + math.log(s2) + 1.0) + logdet), b.tolist(), s2


def _penalised(fun):
    """``fun`` with 1e12 in place of a value that is not finite or not computed."""
    def wrapped(x):
        try:
            val = fun(x)
        except (OverflowError, ValueError, np.linalg.LinAlgError):
            return 1e12
        return val if math.isfinite(val) else 1e12
    return wrapped


def _numeric_hessian(fun, x, rel_step=1e-4):
    h = np.maximum(np.abs(x), 1.0) * rel_step
    e = np.diag(h)  # e[i] steps x by h[i] along axis i
    f0 = fun(x)
    H = np.empty((len(x), len(x)))
    for i, j in itertools.combinations_with_replacement(range(len(x)), 2):
        if i == j:
            H[i, i] = (fun(x + e[i]) - 2.0 * f0 + fun(x - e[i])) / h[i] ** 2
        else:
            ei, ej = e[i], e[j]
            H[i, j] = H[j, i] = (fun(x + ei + ej) - fun(x + ei - ej) - fun(x - ei + ej)
                                 + fun(x - ei - ej)) / (4.0 * h[i] * h[j])
    return H


def _fit_once(stats, n_obs, gamma_hat, fix_mu):
    """Fit with mu_a free or fixed at 0; ``stats(q, psi)`` is the memoised
    kernel."""
    rows = _MEAN_ROWS[fix_mu]
    model = "mu_a = 0" if fix_mu else "mu_a free"

    def point(theta):
        return math.exp(theta[0]), min(_expit(theta[1]), 1.0 - 1e-12)

    @_penalised
    def profile(theta):
        return _profile_nll(stats(*point(theta)), n_obs, rows)[0]

    best = None
    for psi0 in _PSI_STARTS:
        res = optimize.minimize(profile, np.array([math.log(_Q_START), _logit(psi0)]),
                                method="L-BFGS-B", options=_LBFGSB_OPTIONS)
        _LOG.info("%s, start psi0=%g: nit=%d nfev=%d success=%s -loglik=%.9f",
                  model, psi0, res.nit, res.nfev, str(bool(res.success)).lower(), res.fun)
        if best is None or res.fun < best.fun:
            best = res
    if not math.isfinite(best.fun) or best.fun >= 1e12:
        raise ConvergenceError("fit_mle: no multistart converged")
    q, psi = point(best.x)
    _, b, s2 = _profile_nll(stats(q, psi), n_obs, rows)
    sigma_z = math.sqrt(s2)
    mu, beta_c = (0.0, *b) if fix_mu else b
    params = DlmParams(sigma_z, math.sqrt(q) * sigma_z, psi, mu_a=mu, beta_c=beta_c,
                       gamma_hat=gamma_hat)
    params.loglik = -float(best.fun)
    params.converged = bool(best.success)

    @_penalised
    def nll(vec):
        """Full negative log-likelihood of (sigma_z, sigma_a, psi_a, [mu_a,]
        beta_c); 1e12 outside the parameter space."""
        sigma_z, sigma_a, psi, *b = vec.tolist()
        if not (sigma_z > 0 and sigma_a >= 0 and 0.0 <= psi < 1.0):
            return 1e12
        return _full_nll(stats(sigma_a**2 / sigma_z**2, psi), n_obs, sigma_z, b, rows)

    # standard errors: inverse numeric Hessian in the natural parameterization
    names = [nm for nm in _PARAM_NAMES if not (fix_mu and nm == "mu_a")]
    H = _numeric_hessian(nll, np.array([getattr(params, nm) for nm in names]))
    try:
        diag = np.diag(np.linalg.inv(H))
    except np.linalg.LinAlgError:
        diag = np.zeros(1)
    ok = np.all(diag > 0)
    params.se = {nm: math.sqrt(v) for nm, v in zip(names, diag.tolist())} if ok else {}
    return params


def fit_mle(inputs: DlmInputs, gamma_hat: float = 1.0, drop_mu_a: bool = True) -> DlmParams:
    """Maximum-likelihood fit of the state-space parameters.

    The mean of u = y - gamma_hat*y1 is linear in (mu_a, beta_c), and sigma_z^2
    scales the whole covariance, so given q = sigma_a^2/sigma_z^2 and psi_a all
    three have closed forms.  The profile likelihood is maximised over
    (log q, logit psi_a) by L-BFGS-B with numeric gradients (gtol 1e-6,
    ftol 1e-9, at most 500 iterations) from three starts, q = 0.5625 and
    psi_a = 0.5, 0.2, 0.8, keeping the best.  Each evaluation is
    one O(T) tridiagonal factorization and solve in LAPACK over per-day sums
    computed once per fit (``_profile_kernel``), not a filter pass.  Standard
    errors are the inverse numeric Hessian of the full negative log-likelihood
    in (sigma_z, sigma_a, psi_a, mu_a, beta_c).  With ``drop_mu_a`` set, the
    model is refit with mu_a fixed at zero when the estimate is not
    significant at the 5% level.  Fewer than 10 observed days per free
    parameter is a ``DataError``.
    """
    n_free = 5
    n_obs_days = int(np.sum(np.any(np.isfinite(inputs.y), axis=1)))
    if n_obs_days < _MIN_DAYS_PER_PARAM * n_free:
        raise DataError(
            f"fit_mle: {n_obs_days} observed days < {_MIN_DAYS_PER_PARAM * n_free} required"
        )
    c = inputs.c_tilde[np.isfinite(inputs.y)]
    if not np.sum((c - c.mean()) ** 2) > 1e-12 * np.sum(c * c):
        raise DataError(
            "fit_mle: c_tilde is constant over the observed entries, so the "
            "(1, c_tilde) normal matrix is singular and mu_a, beta_c are not identified"
        )
    kernel, n_obs = _profile_kernel(inputs, gamma_hat)
    memo = {}

    def stats(q, psi):
        if (q, psi) not in memo:
            memo[q, psi] = kernel(q, psi)
        return memo[q, psi]

    params = _fit_once(stats, n_obs, gamma_hat, fix_mu=False)
    if drop_mu_a:
        se_mu = params.se.get("mu_a")
        if se_mu is not None and abs(params.mu_a) < 1.96 * se_mu:
            params = _fit_once(stats, n_obs, gamma_hat, fix_mu=True)
            params.mu_a_dropped = True
    _LOG.info("%d likelihood kernel passes", len(memo))
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
    values = {nm: kv.parse(nm, float) for nm in (*_PARAM_NAMES, "gamma_hat")}
    try:
        params = DlmParams(**values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    params.se = {nm: kv.parse(f"se_{nm}", float) for nm in _PARAM_NAMES if f"se_{nm}" in kv}
    params.mu_a_dropped = kv.parse("mu_a_dropped", bool, False)
    params.loglik = kv.parse("loglik", float, math.nan)
    params.converged = kv.parse("converged", bool, True)
    return params


def write_state_path(est: StateEstimate, path: str, header_lines=()) -> None:
    """Write the smoother output ``est`` (filtered and smoothed) day by day."""
    names = ("day", "filtered_mean", "filtered_var", "smoothed_mean", "smoothed_var")
    columns = (np.arange(1, len(est.filtered_mean) + 1), est.filtered_mean, est.filtered_var,
               est.smoothed_mean, est.smoothed_var)
    write_table(path, names, columns, header_lines)
