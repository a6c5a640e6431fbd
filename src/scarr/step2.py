"""Step II: dynamic state-space temporal calibration.

A single pooled daily state A(t) follows a stationary AR(1); the observation
vector at day t is A(t) plus a site-specific offset built from the Step I
additive bias (scaled by beta_c) and the gridded-model value (scaled by the
fixed Step I gamma-hat), with iid Gaussian observation noise.  Missing
observations are dropped from the day's observation equation, never imputed.

Because the state is scalar and the day-t observation covariance is
P 11' + sigma_z^2 I, the filter update has a closed form in the count and
sum of the day's residuals.  The filter and smoother give the state path only;
the one likelihood is the kernel's below, for the fit and ``log_likelihood``.

The maximum-likelihood fit works on the columns (u, 1, c_tilde), with
u = y - gamma_hat*y1.  The mean of u is linear in (mu_a, beta_c) and sigma_z^2
scales the covariance, so their closed forms leave a search over
q = sigma_a^2/sigma_z^2 and psi_a only (regression effects: de Jong 1991, Ann.
Statist. 19; Harvey 1989, section 3.4).  The AR(1) precision is tridiagonal
(Rue & Held 2005, ch. 1-2), so each evaluation is one tridiagonal LDL'
factorization in LAPACK, not a filter pass.  The same factorization, with one
more of C reversed for the band of C^-1, gives the exact score of the profile
likelihood (Koopman & Shephard 1992, Biometrika 79), on which an in-package
BFGS searches.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from scarr.data_model import read_keyvalue, write_keyvalue, write_table
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
    optimizer_message: str = ""  # the best start's

    def __post_init__(self):
        if not (0.0 < self.sigma_z < math.inf):
            raise DataError("sigma_z must be finite and > 0")
        if not (0.0 <= self.sigma_a < math.inf):
            raise DataError("sigma_a must be finite and >= 0")
        if not (0.0 <= self.psi_a < 1.0):
            raise DataError("psi_a must lie in [0, 1)")
        if not all(map(math.isfinite, (self.mu_a, self.beta_c, self.gamma_hat))):
            raise DataError("mu_a, beta_c and gamma_hat must be finite")

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
        if self.y.ndim != 2 or not len(self.y):
            raise DataError("DlmInputs arrays must be 2-d (days x sites), with a day")
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
    smoothed_mean: np.ndarray | None = None
    smoothed_var: np.ndarray | None = None


def kalman_filter(params: DlmParams, inputs: DlmInputs) -> StateEstimate:
    """Exact scalar-state Kalman filter with day-varying observed dimension.

    The initial state is the stationary AR(1) prior.  Days with every entry
    missing perform prediction only.  The update needs only the count and the
    sum of each day's residuals u = y - beta_c*c_tilde - gamma*y1.
    """
    present = np.isfinite(inputs.y)
    u = inputs.y - params.beta_c * inputs.c_tilde - params.gamma_hat * inputs.y1
    m, s1 = present.sum(axis=1).tolist(), np.where(present, u, 0.0).sum(axis=1).tolist()
    sz2 = params.sigma_z**2
    sa2 = params.sigma_a**2
    psi = params.psi_a
    mu = params.mu_a

    pred_mean, pred_var, filt_mean, filt_var = [], [], [], []
    a = mu
    P = params.stationary_var
    for mt, s1t in zip(m, s1):
        pred_mean.append(a)
        pred_var.append(P)
        if mt:
            denom = sz2 + mt * P
            a = a + P * (s1t - mt * a) / denom  # s1t - mt*a sums the day's innovations
            P = P * sz2 / denom
        filt_mean.append(a)
        filt_var.append(P)
        # time update to t+1
        a = mu + psi * (a - mu)
        P = psi * psi * P + sa2
    return StateEstimate(*(np.array(x, dtype=float) for x in
                           (pred_mean, pred_var, filt_mean, filt_var)))


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
    """Gaussian log-likelihood at ``params``: minus ``_nll``, which ``fit_mle``
    maximises through its profile and differentiates for its standard
    errors.  It shares the kernel's limit near a unit root: at psi_a =
    1 - 1e-12 and sigma_a = 0 it is 3.6e-5 relative off on 8 days x 3 sites
    (C conditioned like 1/(1 - psi_a^2)).  ``LinAlgError`` when C is not
    positive definite."""
    kernel, n_obs = _profile_kernel(inputs, params.gamma_hat)
    return -_nll(kernel, n_obs, [getattr(params, nm) for nm in _PARAM_NAMES], _MEAN_ROWS[False])


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

#: Kind (a key of ``data_model._PARSERS``) of each parameter of step2_fit.txt.
_FIT_KINDS = {"sigma_z": "finite > 0", "sigma_a": "finite >= 0", "psi_a": "finite",
              "mu_a": "finite", "beta_c": "finite", "gamma_hat": "finite"}

#: Starting AR(1) coefficient of each optimizer start, in order of use.
_PSI_STARTS = (0.5, 0.2, 0.8)

#: Starting q = sigma_a^2 / sigma_z^2 of every start.
_Q_START = 0.5625

#: ``_bfgs`` stopping rules of every start, in (log q, logit psi_a).
_SEARCH_OPTIONS = {"gtol": 1e-6, "ftol": 1e-9, "maxiter": 500}

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

    ``kernel(q, psi, score=True)`` also returns ``(dQ, dlogdet)``, the
    derivatives of Q and logdet in q and in psi.  With x = C^-1 S,
    dQ/dq = -x'K x and dQ/dpsi = q x'K' x, K' = dK/dpsi; d logdet/dq =
    sum_t m_t Sigma_tt and d logdet/dpsi = tr(Sigma K') + 2 psi / (1 - psi^2),
    from the band of Sigma = C^-1 (``_inverse_band``; Rue & Held 2005, ch. 2).
    These sums also go without BLAS.
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
    blocks = np.ones((8, -(-T // 8)))  # d's mantissas, padded with ones
    head = blocks.reshape(-1)[:T]

    def kernel(q: float, psi: float, score: bool = False):
        psi2 = psi * psi
        k_diag = 1.0 + psi2 * k2
        c_diag = k_diag + q * m
        off = np.full(max(T - 1, 1), -psi)  # LAPACK ignores it when T = 1
        d, e, info = dpttrf(c_diag, off)
        if info:
            raise np.linalg.LinAlgError("AR(1) kernel matrix is not positive definite")
        x = dpttrs(d, e, sums.T)[0].T  # C^-1 S, (3, T)
        k_means = k_diag * means - psi * neighbours  # K Ybar
        G = (x[:, None, :] * k_means[None, :, :]).sum(axis=2)
        # sum_t log d_t through libm on products of 8 mantissas in [0.5, 1)
        mant, expo = np.frexp(d)
        head[:] = mant
        logdet = (math.fsum(map(math.log, np.multiply.reduce(blocks).tolist()))
                  + math.log(2.0) * int(expo.sum()) - math.log(1.0 - psi2))
        if not score:
            return W + 0.5 * (G + G.T), logdet
        s_diag, s_off = _inverse_band(c_diag, off, d, e)
        x_nbr = np.zeros_like(x)  # x[t-1] + x[t+1]
        x_nbr[:, 1:] = x[:, :-1]
        x_nbr[:, :-1] += x[:, 1:]
        # K x and K' x, K' = dK/dpsi, then x'K x and x'K' x
        kx = np.stack((k_diag * x - psi * x_nbr, 2.0 * psi * k2 * x - x_nbr))
        xkx = (x[None, :, None, :] * kx[:, None, :, :]).sum(axis=3)
        dQ = (-xkx[0], q * xkx[1])
        dlogdet = (float(np.sum(m * s_diag)),
                   2.0 * psi * float(np.sum(k2 * s_diag)) - 2.0 * float(np.sum(s_off))
                   + 2.0 * psi / (1.0 - psi2))
        return W + 0.5 * (G + G.T), logdet, dQ, dlogdet

    return kernel, int(m.sum())


def _inverse_band(c_diag, off, d, e):
    """``(Sigma_tt, Sigma_t,t+1)``, the band of Sigma = C^-1 for the tridiagonal
    C with diagonal ``c_diag`` and off-diagonal ``off``, from its ``pttrf``
    factors ``d``, ``e`` and one more ``pttrf`` of C reversed, whose pivots
    d~ give Sigma_tt = 1/(d_t + d~_t - C_tt); Sigma_t,t+1 = -e_t Sigma_t+1,t+1.
    ``LinAlgError`` when C reversed does not factor."""
    d_rev, _, info = dpttrf(c_diag[::-1], off)
    if info:
        raise np.linalg.LinAlgError("AR(1) kernel matrix is not positive definite")
    s_diag = 1.0 / (d + d_rev[::-1] - c_diag)
    return s_diag, -e[:len(d) - 1] * s_diag[1:]


def _mean_root(Q):
    """``(l11, l21, l22, w1, w2, rss)`` from the kernel's Q, in Python floats.

    L = [[l11, 0], [l21, l22]] is the Cholesky root of the mean columns'
    cross-products Q[1:, 1:], with a pivot that is not > 0 set to 0 (a
    semidefinite Q[1:, 1:]: no observation, or 1 and c_tilde collinear);
    w = L^-1 Q[1:, 0], with 0 where the pivot is 0; and rss = Q00 - |w|^2, the
    residual of the GLS fit on both mean columns."""
    (q00, q01, q02), (_, a11, a12), (_, _, a22) = Q.tolist()
    l11 = math.sqrt(a11) if a11 > 0 else 0.0
    l21 = a12 / l11 if l11 else 0.0
    d = a22 - l21 * l21
    l22 = math.sqrt(d) if d > 0 else 0.0
    w1 = q01 / l11 if l11 else 0.0
    w2 = (q02 - l21 * w1) / l22 if l22 else 0.0
    return l11, l21, l22, w1, w2, q00 - (w1 * w1 + w2 * w2)


def _quadratic(root, b, rows) -> float:
    """(u - X b)' V^-1 (u - X b) = rss + |L'b - w|^2 from the kernel's
    ``_mean_root``, for coefficients ``b`` on the kernel columns ``rows`` and 0
    on the other mean column.  Both terms are sums of squares, so nothing
    cancels when 1 and c_tilde are nearly collinear or b is far from the GLS
    fit, and either ``rows`` takes the same arithmetic."""
    l11, l21, l22, w1, w2, rss = root
    b1, b2 = b if len(rows) == 2 else (0.0, *b)
    r1 = l11 * b1 + l21 * b2 - w1
    r2 = l22 * b2 - w2
    return rss + (r1 * r1 + r2 * r2)


def _full_nll(stats, n_obs: int, sigma_z: float, b, rows) -> float:
    """Negative log-likelihood from the kernel at q = sigma_a^2 / sigma_z^2, with
    mean coefficients ``b`` on the kernel columns ``rows``; its quadratic comes
    from the 2x2 root of ``_mean_root``."""
    Q, logdet = stats
    sz2 = sigma_z * sigma_z
    return 0.5 * (n_obs * (_LOG2PI + math.log(sz2)) + logdet
                  + _quadratic(_mean_root(Q), b, rows) / sz2)


def _nll(kernel, n_obs: int, vec, rows) -> float:
    """Step II's negative log-likelihood of ``vec`` = (sigma_z, sigma_a, psi_a,
    *b), b the mean coefficients on the kernel columns ``rows`` (mu_a and
    beta_c, or beta_c alone), through ``kernel(q, psi)`` of
    ``_profile_kernel``."""
    sigma_z, sigma_a, psi, *b = vec
    return _full_nll(kernel(sigma_a**2 / sigma_z**2, psi), n_obs, sigma_z, b, rows)


def _profile_nll(stats, n_obs: int, rows):
    """(-loglik, b, sigma_z^2): the negative log-likelihood from the kernel,
    minimised in closed form over the mean coefficients ``b`` on the kernel
    columns ``rows`` and over sigma_z^2 (RSS / N).  With both mean columns,
    b solves L'b = w by back substitution on the root of ``_mean_root``; with
    c_tilde alone, b = Q20 / Q22.  The residual is ``_quadratic`` through the
    same root, the quadratic that ``_full_nll`` takes at b.  A zero pivot
    that leaves b unidentified raises ``LinAlgError``."""
    Q, logdet = stats
    root = _mean_root(Q)
    l11, l21, l22, w1, w2, _ = root
    if len(rows) == 2:
        if not (l11 and l22):
            raise np.linalg.LinAlgError("the (1, c_tilde) cross-products are singular")
        b2 = w2 / l22
        b = [(w1 - l21 * b2) / l11, b2]
    else:
        q02, q22 = float(Q[0, 2]), float(Q[2, 2])
        if not q22 > 0:
            raise np.linalg.LinAlgError("the c_tilde cross-product is not positive")
        b = [q02 / q22]
    s2 = _quadratic(root, b, rows) / n_obs
    return 0.5 * (n_obs * (_LOG2PI + math.log(s2) + 1.0) + logdet), b, s2


def _profile_score(stats, n_obs: int, b, s2: float, rows):
    """Gradient in (q, psi) of ``_profile_nll``'s -loglik, from the kernel's
    ``score=True`` output and the profile's ``b`` and ``s2``.  By the envelope
    theorem the minimised RSS moves like r'Q r at r = (1, -b) on (0, *rows),
    so the gradient is (N r'dQ r / RSS + dlogdet) / 2, summed in Python
    floats."""
    _, _, dQ, dlogdet = stats
    r = [1.0, 0.0, 0.0]
    for row, coef in zip(rows, b):
        r[row] = -coef
    rss = n_obs * s2
    return [0.5 * (n_obs * sum(ri * rj * v for ri, row in zip(r, dq.tolist())
                               for rj, v in zip(r, row)) / rss + dl)
            for dq, dl in zip(dQ, dlogdet)]


class _Search(NamedTuple):
    """What one ``_bfgs`` search reports, under ``scipy.optimize``'s names."""

    x: list
    fun: float
    nit: int
    nfev: int
    success: bool
    message: str


def _bfgs(fun, x0, gtol: float, ftol: float, maxiter: int) -> _Search:
    """Minimise ``fun`` by BFGS from ``x0``, a list of floats (Nocedal & Wright
    2006, ch. 6).

    ``fun(x)`` is ``(f, gradient)``, or ``(f, None)`` where f is a penalty.
    The inverse-Hessian estimate H starts at the identity, is rescaled by
    s'y / y'y after the first step (their eq. 6.20) and is updated only when
    s'y > 0.  Each step backtracks by halves from p = -H g, shortened to unit
    infinity norm where it is longer, until f falls by 1e-4 of the predicted
    reduction (Armijo).  Near the optimum f's rounding swamps that test, so
    once the predicted reduction -g'p is at most ``ftol`` max(|f|, 1), a
    trial is also taken when it lowers |g|_inf and raises f by at most that
    much.  Success is |g|_inf <=
    ``gtol``; the search fails after ``maxiter`` steps, or when halving
    leaves x unchanged."""
    n = len(x0)
    x = list(x0)
    f, g = fun(x)
    nfev, nit = 1, 0
    if g is None:
        return _Search(x, f, nit, nfev, False, "the start has no finite value")
    identity = [[float(i == j) for j in range(n)] for i in range(n)]
    H = identity
    while (g_max := max(map(abs, g))) > gtol:
        if nit >= maxiter:
            return _Search(x, f, nit, nfev, False, "the iteration limit was reached")
        p = [-sum(hij * gj for hij, gj in zip(row, g)) for row in H]
        if not sum(pi * gi for pi, gi in zip(p, g)) < 0:  # H lost definiteness to rounding
            H = identity
            p = [-gi for gi in g]
        p_max = max(map(abs, p))
        if p_max > 1.0:
            p = [pi / p_max for pi in p]
        slope = sum(pi * gi for pi, gi in zip(p, g))
        resolution = ftol * max(abs(f), 1.0)
        alpha = 1.0
        while True:
            x_new = [xi + alpha * pi for xi, pi in zip(x, p)]
            if x_new == x:
                return _Search(x, f, nit, nfev, False, "the line search found no lower value")
            f_new, g_new = fun(x_new)
            nfev += 1
            if g_new is not None and (
                    f_new <= f + 1e-4 * alpha * slope
                    or (-slope <= resolution and f_new <= f + resolution
                        and max(map(abs, g_new)) < g_max)):
                break
            alpha *= 0.5
        s = [a - b for a, b in zip(x_new, x)]
        y = [a - b for a, b in zip(g_new, g)]
        sy = sum(a * b for a, b in zip(s, y))
        if sy > 0:
            if nit == 0:
                H = [[sy / sum(a * a for a in y) * v for v in row] for row in H]
            Hy = [sum(hij * yj for hij, yj in zip(row, y)) for row in H]
            c = (1.0 + sum(a * b for a, b in zip(y, Hy)) / sy) / sy
            H = [[H[i][j] - (Hy[i] * s[j] + s[i] * Hy[j]) / sy + c * s[i] * s[j]
                  for j in range(n)] for i in range(n)]
        nit += 1
        x, f, g = x_new, f_new, g_new
    return _Search(x, f, nit, nfev, True, "|gradient|_inf <= gtol")


def _penalised(fun):
    """``fun`` with 1e12 in place of a value that is not finite or not computed."""
    def wrapped(x):
        try:
            val = fun(x)
        except (OverflowError, ValueError, np.linalg.LinAlgError):
            return 1e12
        return val if math.isfinite(val) else 1e12
    return wrapped


def _in_space(sigma_z, sigma_a, psi, *_):
    """Whether (sigma_z, sigma_a, psi_a, ...) lies in the parameter space."""
    return sigma_z > 0 and sigma_a >= 0 and 0.0 <= psi < 1.0


def _numeric_hessian(fun, x, rel_step=1e-4):
    """``(H, held)``: the central-difference Hessian of ``fun`` at ``x`` over the
    coordinates whose steps stay ``_in_space``; those ``held`` stay at x."""
    h = np.maximum(np.abs(x), 1.0) * rel_step
    e = np.diag(h)  # e[i] steps x by h[i] along axis i
    held = [i for i in range(len(x)) if not (_in_space(*(x + e[i])) and _in_space(*(x - e[i])))]
    free = [i for i in range(len(x)) if i not in held]
    f0 = fun(x)
    H = np.empty((len(free), len(free)))
    for (a, i), (b, j) in itertools.combinations_with_replacement(enumerate(free), 2):
        if i == j:
            H[a, a] = (fun(x + e[i]) - 2.0 * f0 + fun(x - e[i])) / h[i] ** 2
        else:
            ei, ej = e[i], e[j]
            H[a, b] = H[b, a] = (fun(x + ei + ej) - fun(x + ei - ej) - fun(x - ei + ej)
                                 + fun(x - ei - ej)) / (4.0 * h[i] * h[j])
    return H, held


def _fit_once(stats, n_obs, gamma_hat, fix_mu):
    """Fit with mu_a free or fixed at 0; ``stats(q, psi, score=False)`` is the
    memoised kernel."""
    rows = _MEAN_ROWS[fix_mu]
    model = "mu_a = 0" if fix_mu else "mu_a free"

    def point(theta):
        return math.exp(theta[0]), min(_expit(theta[1]), 1.0 - 1e-12)

    def profile(theta):
        """(-loglik, gradient) in theta = (log q, logit psi_a), or (1e12, None)."""
        try:
            q, psi = point(theta)
            st = stats(q, psi, score=True)
            val, b, s2 = _profile_nll(st[:2], n_obs, rows)
            d_q, d_psi = _profile_score(st, n_obs, b, s2, rows)
        except (OverflowError, ValueError, np.linalg.LinAlgError):
            return 1e12, None
        grad = [q * d_q, psi * (1.0 - psi) * d_psi if psi < 1.0 - 1e-12 else 0.0]
        if not (math.isfinite(val) and all(map(math.isfinite, grad))):
            return 1e12, None
        return val, grad

    best = None
    for psi0 in _PSI_STARTS:
        res = _bfgs(profile, [math.log(_Q_START), _logit(psi0)], **_SEARCH_OPTIONS)
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
    params.converged, params.optimizer_message = bool(best.success), str(best.message)

    # standard errors: inverse numeric Hessian in the natural parameterization,
    # without a parameter whose step would leave the parameter space
    names = [nm for nm in _PARAM_NAMES if not (fix_mu and nm == "mu_a")]
    x = np.array([getattr(params, nm) for nm in names])
    H, held = _numeric_hessian(_penalised(lambda vec: _nll(stats, n_obs, vec.tolist(), rows)), x)
    for i in held:
        _LOG.info("%s: no standard error for %s=%.9g: a Hessian step from it leaves the "
                  "parameter space, so the others hold it fixed", model, names[i], x[i])
    names = [nm for i, nm in enumerate(names) if i not in held]
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
    three have closed forms, taken in Python floats from one 2x2 Cholesky root
    of the kernel's mean cross-products (``_mean_root``).  The profile
    likelihood is maximised over (log q, logit psi_a) by ``_bfgs`` on its
    exact score (``_profile_score``), to |score|_inf <= 1e-6 within 500
    iterations, from three starts, q = 0.5625 and psi_a = 0.5, 0.2, 0.8,
    keeping the best; a start that stops short of that reports
    ``success=false``.  Each evaluation is one O(T) tridiagonal factorization
    and solve in LAPACK over per-day sums computed once per fit
    (``_profile_kernel``), and one more factorization for the score, not a
    filter pass.  Standard
    errors are the inverse numeric Hessian of ``_nll`` in (sigma_z, sigma_a,
    psi_a, mu_a, beta_c), less (logged) a parameter whose step would leave
    the parameter space, which is held fixed.  With ``drop_mu_a`` set, the
    model is refit with mu_a fixed at zero when the estimate is not
    significant at the 5% level.  Fewer than 10 observed days per free
    parameter is a ``DataError``.  A fit that did not converge is logged
    last, as a warning.
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

    def stats(q, psi, score=False):
        got = memo.get((q, psi))
        if got is None or (score and len(got) == 2):  # absent, or without its score
            memo[q, psi] = got = kernel(q, psi, score)
        return got if score else got[:2]

    params = _fit_once(stats, n_obs, gamma_hat, fix_mu=False)
    if drop_mu_a:
        se_mu = params.se.get("mu_a")
        if se_mu is not None and abs(params.mu_a) < 1.96 * se_mu:
            params = _fit_once(stats, n_obs, gamma_hat, fix_mu=True)
            params.mu_a_dropped = True
    _LOG.info("%d likelihood kernel passes", len(memo))
    if not params.converged:
        _LOG.warning("warning: optimizer did not converge: %s", params.optimizer_message)
    return params


def write_step2_fit(params: DlmParams, path: str, header_lines=()) -> None:
    write_keyvalue(path, {
        **{nm: float(getattr(params, nm)) for nm in (*_PARAM_NAMES, "gamma_hat")},
        **{f"se_{nm}": params.se[nm] for nm in _PARAM_NAMES if nm in params.se},
        "mu_a_dropped": params.mu_a_dropped,
        "loglik": float(params.loglik),
        "converged": params.converged,
    }, header_lines)


def read_step2_fit(path: str) -> DlmParams:
    kv = read_keyvalue(path)
    values = {nm: kv.parse(nm, kind) for nm, kind in _FIT_KINDS.items()}
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
