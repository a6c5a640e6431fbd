import logging
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from scarr import step2
from scarr.data_model import parse_config
from scarr.errors import ConfigError, DataError
from scarr.oracle import DenseGaussianOracle, simulate_step2_series
from scarr.step2 import (
    DlmInputs,
    DlmParams,
    Step2Config,
    _bfgs,
    _full_nll,
    _inverse_band,
    _mean_root,
    _nll,
    _numeric_hessian,
    _penalised,
    _profile_kernel,
    _profile_nll,
    _profile_score,
    fit_mle,
    kalman_filter,
    kalman_smoother,
    log_likelihood,
    read_step2_fit,
    write_state_path,
    write_step2_fit,
)


def plain_inputs(y):
    y = np.asarray(y, dtype=float)
    return DlmInputs(y=y, c_tilde=np.zeros_like(y), y1=np.zeros_like(y))


def random_instance(rng, T, n, missing=True):
    params = DlmParams(
        sigma_z=float(rng.uniform(0.5, 3.0)),
        sigma_a=float(rng.uniform(0.5, 3.0)),
        psi_a=float(rng.uniform(0.05, 0.95)),
        mu_a=float(rng.normal(0, 2)),
        beta_c=float(rng.normal(1, 0.3)),
        gamma_hat=float(rng.uniform(0.3, 1.2)),
    )
    y = rng.normal(10, 4, size=(T, n))
    if missing and T * n > 2:
        drop = rng.integers(0, T * n, size=max(1, T * n // 5))
        y.ravel()[drop] = np.nan
    c = rng.normal(5, 2, size=(T, n))
    y1 = rng.uniform(1, 20, size=(T, n))
    return params, DlmInputs(y=y, c_tilde=c, y1=y1)


class TestParamValidation:
    def test_sigma_z_positive(self):
        with pytest.raises(DataError):
            DlmParams(sigma_z=0.0, sigma_a=1.0, psi_a=0.5)

    def test_psi_range(self):
        with pytest.raises(DataError):
            DlmParams(sigma_z=1.0, sigma_a=1.0, psi_a=1.0)
        with pytest.raises(DataError):
            DlmParams(sigma_z=1.0, sigma_a=1.0, psi_a=-0.1)

    @pytest.mark.parametrize("name, value", [
        ("sigma_z", math.inf), ("sigma_a", math.nan), ("sigma_a", math.inf),
        ("mu_a", math.nan), ("beta_c", -math.inf), ("gamma_hat", math.nan),
    ])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(DataError, match="finite"):
            DlmParams(**{"sigma_z": 1.0, "sigma_a": 1.0, "psi_a": 0.5, name: value})

    def test_stationary_var(self):
        p = DlmParams(sigma_z=1.0, sigma_a=2.0, psi_a=0.6)
        assert p.stationary_var == pytest.approx(4.0 / (1 - 0.36), rel=1e-12)

    def test_inputs_shape_mismatch(self):
        with pytest.raises(DataError):
            DlmInputs(y=np.zeros((3, 2)), c_tilde=np.zeros((3, 3)), y1=np.zeros((3, 2)))

    def test_inputs_offset_missing_where_observed(self):
        c = np.zeros((2, 1))
        c[0, 0] = np.nan
        with pytest.raises(DataError, match="c_tilde missing"):
            DlmInputs(y=np.ones((2, 1)), c_tilde=c, y1=np.zeros((2, 1)))


class TestFilterClosedForms:
    def test_single_obs_conjugate_update(self):
        p = DlmParams(sigma_z=1.5, sigma_a=2.0, psi_a=0.6, mu_a=3.0)
        y = np.array([[7.0]])
        est = kalman_filter(p, plain_inputs(y))
        v0 = p.stationary_var
        gain = v0 / (v0 + p.sigma_z**2)
        assert est.pred_mean[0] == pytest.approx(3.0)
        assert est.pred_var[0] == pytest.approx(v0)
        assert est.filtered_mean[0] == pytest.approx(3.0 + gain * (7.0 - 3.0), rel=1e-14)
        assert est.filtered_var[0] == pytest.approx(v0 * p.sigma_z**2 / (v0 + p.sigma_z**2), rel=1e-14)
        expected_ll = stats.norm.logpdf(7.0, loc=3.0, scale=math.sqrt(v0 + p.sigma_z**2))
        assert log_likelihood(p, plain_inputs(y)) == pytest.approx(expected_ll, rel=1e-13)

    def test_two_sites_one_day_mvn_loglik(self):
        p = DlmParams(sigma_z=1.2, sigma_a=1.0, psi_a=0.4, mu_a=1.0)
        y = np.array([[3.0, -1.0]])
        v0 = p.stationary_var
        S = v0 * np.ones((2, 2)) + p.sigma_z**2 * np.eye(2)
        expected = stats.multivariate_normal.logpdf(y[0], mean=[1.0, 1.0], cov=S)
        assert log_likelihood(p, plain_inputs(y)) == pytest.approx(expected, rel=1e-12)

    def test_fully_missing_day_prediction_only(self):
        p = DlmParams(sigma_z=1.0, sigma_a=1.0, psi_a=0.5, mu_a=0.0)
        y = np.array([[2.0], [np.nan], [1.0]])
        est = kalman_filter(p, plain_inputs(y))
        # the empty day adds no term: the density of days 1 and 3 alone
        v0 = p.stationary_var
        S = v0 * np.array([[1.0, p.psi_a**2], [p.psi_a**2, 1.0]]) + p.sigma_z**2 * np.eye(2)
        expected = stats.multivariate_normal.logpdf([2.0, 1.0], mean=[0.0, 0.0], cov=S)
        assert log_likelihood(p, plain_inputs(y)) == pytest.approx(expected, rel=1e-12)
        assert est.filtered_mean[1] == est.pred_mean[1]
        assert est.filtered_var[1] == est.pred_var[1]

    def test_offsets_shift_observations(self, rng):
        # subtracting the offset by hand must reproduce the plain filter
        p, inputs = random_instance(rng, 6, 3)
        u = inputs.y - p.beta_c * inputs.c_tilde - p.gamma_hat * inputs.y1
        plain = DlmParams(p.sigma_z, p.sigma_a, p.psi_a, mu_a=p.mu_a,
                          beta_c=0.0, gamma_hat=0.0)
        a = kalman_filter(p, inputs)
        b = kalman_filter(plain, plain_inputs(u))
        np.testing.assert_allclose(a.filtered_mean, b.filtered_mean, rtol=1e-12)
        assert log_likelihood(p, inputs) == pytest.approx(
            log_likelihood(plain, plain_inputs(u)), rel=1e-12)

    def test_empty_inputs_rejected(self):
        p = DlmParams(1.0, 1.0, 0.5)
        with pytest.raises(DataError):
            kalman_filter(p, plain_inputs(np.zeros((0, 1))))


class TestAgainstDenseOracle:
    def test_filter_matches_oracle(self, rng):
        for _ in range(20):
            p, inputs = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            oracle = DenseGaussianOracle(p, inputs)
            est = kalman_filter(p, inputs)
            for t in range(inputs.n_days):
                mean, var = oracle.state_posterior(t, upto=t)
                assert est.filtered_mean[t] == pytest.approx(mean, abs=1e-9)
                assert est.filtered_var[t] == pytest.approx(var, abs=1e-9)

    def test_loglik_matches_oracle(self, rng):
        for _ in range(20):
            p, inputs = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            assert log_likelihood(p, inputs) == pytest.approx(
                DenseGaussianOracle(p, inputs).log_density(), abs=1e-9
            )

    def test_smoother_matches_oracle(self, rng):
        for _ in range(20):
            p, inputs = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            oracle = DenseGaussianOracle(p, inputs)
            est = kalman_smoother(p, inputs)
            for t in range(inputs.n_days):
                mean, var = oracle.state_posterior(t, upto=None)
                assert est.smoothed_mean[t] == pytest.approx(mean, abs=1e-9)
                assert est.smoothed_var[t] == pytest.approx(var, abs=1e-9)


class TestSmootherProperties:
    def test_last_day_equals_filter(self, rng):
        p, inputs = random_instance(rng, 8, 2)
        est = kalman_smoother(p, inputs)
        assert est.smoothed_mean[-1] == est.filtered_mean[-1]
        assert est.smoothed_var[-1] == est.filtered_var[-1]

    def test_smoothing_never_increases_variance(self, rng):
        p, inputs = random_instance(rng, 10, 3)
        est = kalman_smoother(p, inputs)
        assert np.all(est.smoothed_var <= est.filtered_var + 1e-12)

    def test_psi_zero_decouples_days(self, rng):
        p, inputs = random_instance(rng, 8, 2)
        p0 = DlmParams(p.sigma_z, p.sigma_a, 0.0, mu_a=p.mu_a,
                       beta_c=p.beta_c, gamma_hat=p.gamma_hat)
        est = kalman_smoother(p0, inputs)
        np.testing.assert_allclose(est.smoothed_mean, est.filtered_mean, rtol=1e-12)
        np.testing.assert_allclose(est.smoothed_var, est.filtered_var, rtol=1e-12)


@st.composite
def kernel_instances(draw):
    """Small Step II instances with empty days, psi_a = 0 among the AR(1)
    coefficients and a varying observed count per day."""
    T = draw(st.integers(1, 10))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = DlmParams(
        sigma_z=draw(st.floats(0.3, 4.0)),
        sigma_a=draw(st.floats(0.0, 4.0)),
        psi_a=draw(st.sampled_from([0.0]) | st.floats(0.0, 0.97)),
        mu_a=draw(st.floats(-5.0, 5.0)),
        beta_c=draw(st.floats(-2.0, 2.0)),
        gamma_hat=draw(st.floats(0.2, 1.5)),
    )
    y = rng.normal(10, 5, size=(T, n))
    y[rng.uniform(size=(T, n)) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = np.nan
    y[draw(st.lists(st.integers(0, T - 1), max_size=T)), :] = np.nan  # empty days
    c = rng.normal(3, 2, size=(T, n))
    y1 = rng.uniform(0.5, 20, size=(T, n))
    return params, DlmInputs(y=y, c_tilde=c, y1=y1)


def reference_stats(inputs, gamma_hat, q, psi):
    """(Q, logdet) from the scalar filter at sigma_z = 1, sigma_a^2 = q and
    state mean 0, run day by day over the columns (u, 1, c_tilde), which share
    one gain sequence: the per-day loop that ``_profile_kernel`` replaced.

    Q sums each day's innovations' quadratic forms under the inverse
    innovation covariance I - g 11', g = P/(1 + m P); logdet is
    sum_t log(1 + m_t P_t)."""
    present = np.isfinite(inputs.y)
    u = np.where(present, inputs.y - gamma_hat * inputs.y1, 0.0)
    c = np.where(present, inputs.c_tilde, 0.0)
    sums = [x.tolist() for x in (present.sum(axis=1), u.sum(axis=1), c.sum(axis=1),
                                 (u * u).sum(axis=1), (u * c).sum(axis=1), (c * c).sum(axis=1))]
    au = a1 = ac = 0.0  # predicted state of each column
    P = q / (1.0 - psi * psi)
    quu = qu1 = quc = q11 = q1c = qcc = logdet = 0.0
    for m, su, sc, suu, suc, scc in zip(*sums):
        if m:
            f = 1.0 + m * P
            g = P / f
            vu = su - m * au  # the day's summed innovations of u and c
            vc = sc - m * ac
            e1 = 1.0 - a1  # each innovation of the column of ones
            quu += suu - au * (su + vu) - g * vu * vu
            quc += suc - au * sc - ac * vu - g * vu * vc
            qcc += scc - ac * (sc + vc) - g * vc * vc
            qu1 += e1 * vu / f
            q1c += e1 * vc / f
            q11 += m * e1 * e1 / f
            logdet += math.log(f)
            au += g * vu
            ac += g * vc
            a1 += g * m * e1
            P = g
        au *= psi
        ac *= psi
        a1 *= psi
        P = psi * psi * P + q
    return np.array([[quu, qu1, quc], [qu1, q11, q1c], [quc, q1c, qcc]]), logdet


def reference_loglik(p, inputs):
    """Log-likelihood at ``p`` from ``reference_stats`` run on the residuals
    e = y - mu_a - beta_c*c_tilde - gamma_hat*y1, so that Q00 is e'V^-1 e at
    sigma_z = 1: the per-day filter's prediction-error decomposition, with no
    mean to profile and nothing to cancel."""
    resid = DlmInputs(y=inputs.y - p.mu_a - p.beta_c * inputs.c_tilde,
                      c_tilde=inputs.c_tilde, y1=inputs.y1)
    Q, logdet = reference_stats(resid, p.gamma_hat, p.sigma_a**2 / p.sigma_z**2, p.psi_a)
    sz2 = p.sigma_z**2
    n_obs = int(np.isfinite(inputs.y).sum())
    return -0.5 * (n_obs * math.log(2.0 * math.pi * sz2) + logdet + Q[0, 0] / sz2)


@settings(max_examples=200, deadline=None)
@given(kernel_instances())
def test_state_path_equals_oracle(instance):
    """Filtered and smoothed means and variances equal the dense oracle's
    conditional moments within 1e-8, a bound fixed before the first run, on
    instances with sigma_a = 0, psi_a = 0 and empty days among them."""
    p, inputs = instance
    est = kalman_smoother(p, inputs)
    oracle = DenseGaussianOracle(p, inputs)
    for t in range(inputs.n_days):
        for upto, mean, var in ((t, est.filtered_mean, est.filtered_var),
                                (None, est.smoothed_mean, est.smoothed_var)):
            assert (mean[t], var[t]) == pytest.approx(oracle.state_posterior(t, upto=upto),
                                                      abs=1e-8)


def pinned(params, y, c_tilde, y1):
    """An ``@example`` instance of ``kernel_instances``."""
    return params, DlmInputs(y=np.array(y), c_tilde=np.array(c_tilde), y1=np.array(y1))


class TestProfileKernel:
    @settings(max_examples=200, deadline=None)
    @given(kernel_instances())
    # 1 and c_tilde nearly collinear, b far from the GLS fit: the old two-form
    # quadratic was off by 8.2e-8 and 4.9e-7 on these
    @example(pinned(DlmParams(0.5, 0.0, 0.0, mu_a=0.0, beta_c=0.0, gamma_hat=0.5),
                    [[12.0], [12.4]], [[4.108], [4.105]], [[9.8], [5.3]]))
    @example(pinned(DlmParams(1.0, 0.0, 0.0, mu_a=0.0, beta_c=0.0, gamma_hat=1.0),
                    [[np.nan, 14.50551293], [np.nan, 17.25772484]],
                    [[3.0, 3.69632997], [3.0, 3.69564987]],
                    [[10.0, 12.26411658], [10.0, 4.51777505]]))
    # a semidefinite root: no observation, and one
    @example(pinned(DlmParams(1.5, 0.8, 0.4, mu_a=0.7, beta_c=0.9, gamma_hat=0.6),
                    [[np.nan]], [[3.0]], [[10.0]]))
    @example(pinned(DlmParams(1.5, 0.8, 0.4, mu_a=0.7, beta_c=0.9, gamma_hat=0.6),
                    [[12.0]], [[3.0]], [[10.0]]))
    def test_full_loglik_equals_filter_and_oracle(self, instance):
        p, inputs = instance
        ll = log_likelihood(p, inputs)
        assert ll == pytest.approx(reference_loglik(p, inputs), rel=1e-9, abs=1e-12)
        assert ll == pytest.approx(DenseGaussianOracle(p, inputs).log_density(), abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(kernel_instances(), st.booleans(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
           st.floats(-0.5, 0.5))
    def test_closed_forms_maximise_at_fixed_q_psi(self, instance, fix_mu, d_mu, d_beta,
                                                   d_log_sz):
        p, inputs = instance
        kernel, n_obs = _profile_kernel(inputs, p.gamma_hat)
        assume(n_obs >= 3)
        rows = [2] if fix_mu else [1, 2]
        kernel = kernel(p.sigma_a**2 / p.sigma_z**2, p.psi_a)
        nll, b, s2 = _profile_nll(kernel, n_obs, rows)
        sigma_z = math.sqrt(s2)
        assert _full_nll(kernel, n_obs, sigma_z, b, rows) == pytest.approx(nll, rel=1e-10)
        moved = [b[0] + d_mu, b[1] + d_beta] if len(b) == 2 else [b[0] + d_beta]
        for sz, coef in ((sigma_z * math.exp(d_log_sz), b), (sigma_z, moved),
                         (sigma_z * math.exp(d_log_sz), moved)):
            assert _full_nll(kernel, n_obs, sz, coef, rows) >= nll - 1e-9 * abs(nll)

    @settings(max_examples=100, deadline=None)
    @given(kernel_instances())
    def test_no_mean_kernel_is_full_kernel_at_zero_mean(self, instance):
        p, inputs = instance
        p0 = DlmParams(p.sigma_z, p.sigma_a, p.psi_a, mu_a=0.0, beta_c=p.beta_c,
                       gamma_hat=p.gamma_hat)
        kernel, n_obs = _profile_kernel(inputs, p.gamma_hat)
        ll = -_nll(kernel, n_obs, [p.sigma_z, p.sigma_a, p.psi_a, p.beta_c], [2])
        assert ll == pytest.approx(log_likelihood(p0, inputs), rel=1e-12, abs=1e-12)
        assert ll == pytest.approx(reference_loglik(p0, inputs), rel=1e-9, abs=1e-12)

    def test_no_mean_profile_slope(self, rng):
        p, inputs = random_instance(rng, 9, 3)
        kernel, n_obs = _profile_kernel(inputs, p.gamma_hat)
        (Q, _) = stats = kernel(0.8, 0.4)
        _, b, _ = _profile_nll(stats, n_obs, [2])
        assert b[0] == pytest.approx(Q[0, 2] / Q[2, 2], rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(kernel_instances())
    def test_kernel_equals_reference_filter_loop(self, instance):
        """Q and logdet against the per-day filter loop.  The tolerance was set
        before the first run from the conditioning of C = K + q M on these
        instances: q <= 4^2/0.3^2, m_t <= 4 and psi <= 0.97 give
        cond(C) <= ((1 + psi)^2 + 4 q) / (1 - psi)^2 < 1e6, and T <= 10 terms
        at double precision then leave about 2e-9 of the raw scale; 1e-8 of
        it is allowed.  The raw scale of Q_jk is sqrt(X_j'X_j X_k'X_k) and
        that of logdet is T."""
        p, inputs = instance
        q = p.sigma_a**2 / p.sigma_z**2
        kernel, _ = _profile_kernel(inputs, p.gamma_hat)
        Q, logdet = kernel(q, p.psi_a)
        Q_ref, logdet_ref = reference_stats(inputs, p.gamma_hat, q, p.psi_a)
        raw = np.sqrt(np.diag(reference_stats(inputs, p.gamma_hat, 0.0, 0.0)[0]))
        assert np.all(np.abs(Q - Q_ref) <= 1e-8 * np.outer(raw, raw))
        assert abs(logdet - logdet_ref) <= 1e-8 * inputs.n_days

    @pytest.mark.parametrize("q", [1e3, 1e6, 1e9])
    @pytest.mark.parametrize("psi", [0.3, 0.9])
    def test_kernel_keeps_its_digits_at_large_q(self, rng, q, psi):
        """At large q the state absorbs the day means and Q_11 falls like 1/q,
        so X'X - q S'C^-1 S would cancel.  Each Q_jk must match the reference
        loop to 1e-8 of its own scale sqrt(Q_jj Q_kk), fixed before the first
        run."""
        _, inputs = random_instance(rng, 30, 3, missing=False)
        kernel, _ = _profile_kernel(inputs, 0.7)
        Q, logdet = kernel(q, psi)
        Q_ref, logdet_ref = reference_stats(inputs, 0.7, q, psi)
        scale = np.sqrt(np.outer(np.diag(Q_ref), np.diag(Q_ref)))
        assert np.all(np.abs(Q - Q_ref) <= 1e-8 * scale)
        assert logdet == pytest.approx(logdet_ref, rel=1e-12)

    @pytest.mark.parametrize("case", ["one day", "one observed day", "dense"])
    @pytest.mark.parametrize("psi", [0.0, 0.5, 1.0 - 1e-12])
    @pytest.mark.parametrize("q", [0.0, 1e-12, 1e6])
    def test_extreme_cases_are_finite_or_penalised(self, case, psi, q):
        """At the edges of the search the kernel either agrees with the filter
        or signals that pttrf found C not positive definite, which the fit
        turns into its 1e12 penalty; nothing else is raised.  Near a unit root
        C = K + q M is ill-conditioned, so the bound, fixed before the first
        run, is 1e-9 relative plus 10 T eps cond(C) times the likelihood's
        raw scale N + sum(e^2)/sigma_z^2, e the observation residuals."""
        rng = np.random.default_rng(17)
        T, n = {"one day": (1, 3), "one observed day": (7, 3), "dense": (8, 3)}[case]
        y = rng.normal(10, 4, size=(T, n))
        if case == "one observed day":
            y[np.arange(T) != 3] = np.nan
        inputs = DlmInputs(y=y, c_tilde=rng.normal(3, 2, size=(T, n)),
                           y1=rng.uniform(1, 20, size=(T, n)))
        p = DlmParams(sigma_z=1.5, sigma_a=math.sqrt(q) * 1.5, psi_a=psi, mu_a=0.7,
                      beta_c=0.9, gamma_hat=0.6)
        value = _penalised(lambda params: -log_likelihood(params, inputs))(p)
        kernel, _ = _profile_kernel(inputs, p.gamma_hat)
        try:
            kernel(q, psi)
        except np.linalg.LinAlgError:
            assert value == 1e12
            return
        assert math.isfinite(value) and value != 1e12
        m = np.isfinite(y).sum(axis=1)
        C = (np.diag(1.0 + psi * psi * np.r_[0.0, np.ones(T - 2), 0.0] + q * m) if T > 1
             else np.array([[1.0 - psi * psi + q * m[0]]]))
        C -= psi * (np.eye(T, k=1) + np.eye(T, k=-1))
        e = (y - p.mu_a - p.beta_c * inputs.c_tilde - p.gamma_hat * inputs.y1)[np.isfinite(y)]
        scale = e.size + np.sum(e * e) / p.sigma_z**2
        want = -reference_loglik(p, inputs)
        bound = 1e-9 * abs(want) + 10 * T * np.finfo(float).eps * np.linalg.cond(C) * scale
        assert abs(value - want) <= bound

    @settings(max_examples=200, deadline=None)
    @given(kernel_instances())
    def test_score_equals_central_differences(self, instance):
        """The analytic score of the profile -loglik in (q, psi), with mu_a free
        and fixed, against central differences.  The bound was fixed before
        the first run.  Each step is 1e-5 of the scale on which the profile
        bends: the eigenvalues of C^-1 M are at most 8 / (q + (1 - psi)^2)
        (K's are at least (1 - psi)^2, and m_t <= 4), and those of C^-1 K' at
        most 4 / (1 - psi)^2.  So the truncation error is below 1e-14 of the
        profile's raw scale per unit step, and 1e-12 of it is allowed; the
        rounding of the two values is allowed 10 T eps cond(C) of that scale,
        as in ``test_extreme_cases_are_finite_or_penalised``; and the score
        itself gets 1e-6 relative.  The raw scale is that test's
        N + sum(e^2)/sigma_z^2 with e = u and sigma_z^2 = RSS/N, so
        N (1 + Q00/RSS): RSS = Q00 - |w|^2 cancels, and its rounding is of
        order eps Q00.  (N + |nll| was too small where RSS << Q00: at T = 3,
        n = 1, q = psi = 0, Q00 = 116 and RSS = 0.17, the score is -1e-12, a
        step of 1e-3 gives -3e-11 and the step of 1e-5 gives -1.7e-6.)"""
        p, inputs = instance
        q, psi = p.sigma_a**2 / p.sigma_z**2, p.psi_a
        kernel, n_obs = _profile_kernel(inputs, p.gamma_hat)
        assume(n_obs >= 3)
        steps = (1e-5 * (q + (1.0 - psi) ** 2), 1e-5 * (1.0 - psi) ** 2)
        m = np.isfinite(inputs.y).sum(axis=1)
        T = inputs.n_days
        C = (np.diag(1.0 + psi * psi * np.r_[0.0, np.ones(T - 2), 0.0] + q * m) if T > 1
             else np.array([[1.0 - psi * psi + q * m[0]]]))
        C -= psi * (np.eye(T, k=1) + np.eye(T, k=-1))
        rounding = 10 * T * np.finfo(float).eps * np.linalg.cond(C) + 1e-12
        for rows in ([1, 2], [2]):
            stats = kernel(q, psi, score=True)
            try:
                _, b, s2 = _profile_nll(stats[:2], n_obs, rows)
            except np.linalg.LinAlgError:
                continue  # b not identified: the search sees the penalty
            score = _profile_score(stats, n_obs, b, s2, rows)
            raw = n_obs * (1.0 + stats[0][0, 0] / (n_obs * s2))
            for j, h in enumerate(steps):
                up, down = ([q + h, psi], [q - h, psi]) if j == 0 else ([q, psi + h], [q, psi - h])
                diff = (_profile_nll(kernel(*up), n_obs, rows)[0]
                        - _profile_nll(kernel(*down), n_obs, rows)[0]) / (2 * h)
                bound = 1e-6 * abs(diff) + rounding * raw / h
                assert abs(score[j] - diff) <= bound, (rows, j, score[j], diff)

    @settings(max_examples=200, deadline=None)
    @given(kernel_instances())
    def test_inverse_band_equals_inverse(self, instance):
        """The diagonal and first off-diagonal of C^-1 from two ``pttrf``
        pivots equal ``np.linalg.inv(C)``'s within 10 T eps cond(C) of its
        largest entry, a bound fixed before the first run."""
        from scipy.linalg.lapack import dpttrf

        p, inputs = instance
        q, psi = p.sigma_a**2 / p.sigma_z**2, p.psi_a
        m = np.isfinite(inputs.y).sum(axis=1)
        T = inputs.n_days
        c_diag = 1.0 + psi * psi * (np.r_[0.0, np.ones(T - 2), 0.0] if T > 1 else -1.0) + q * m
        off = np.full(max(T - 1, 1), -psi)
        d, e, info = dpttrf(c_diag, off)
        assert info == 0
        diag, upper = _inverse_band(c_diag, off, d, e)
        C = np.diag(c_diag) - psi * (np.eye(T, k=1) + np.eye(T, k=-1))
        inv = np.linalg.inv(C)
        bound = 10 * T * np.finfo(float).eps * np.linalg.cond(C) * np.abs(inv).max()
        assert np.all(np.abs(diag - np.diag(inv)) <= bound)
        assert np.all(np.abs(upper - np.diag(inv, k=1)) <= bound)

    def test_full_nll_keeps_its_digits_near_an_exact_fit(self):
        """Three observations that u = mu + beta c fits to about 1e-3.  The
        full likelihood at the closed-form point equals the profile at rel
        1e-10, and a step delta of 1e-6 from it raises -loglik by
        delta'Q_xx delta / (2 sigma_z^2) to rel 1e-6, as the numeric Hessian
        needs; Q00 - 2 q'b + b'Qb loses both to cancellation.  The rounding of
        two -loglik values of size |loglik| is below 1e-9 of that step."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            c, y1 = rng.normal(3, 2, size=(3, 1)), rng.uniform(1, 20, size=(3, 1))
            y = 0.8 * y1 + 3.0 + 1.7 * c + rng.normal(0, 1e-3, size=(3, 1))
            kernel, n_obs = _profile_kernel(DlmInputs(y=y, c_tilde=c, y1=y1), 0.8)
            stats = kernel(0.3, 0.6)
            nll, b, s2 = _profile_nll(stats, n_obs, [1, 2])
            assert s2 < 1e-5
            sigma_z = math.sqrt(s2)
            full = _full_nll(stats, n_obs, sigma_z, b, [1, 2])
            assert full == pytest.approx(nll, rel=1e-10)
            delta = np.array([1e-6, -2e-6])
            step = _full_nll(stats, n_obs, sigma_z, (b + delta).tolist(), [1, 2]) - full
            want = 0.5 * delta @ stats[0][1:, 1:] @ delta / sigma_z**2
            assert step == pytest.approx(want, rel=1e-6)

    def test_collinear_mean_columns_are_penalised(self):
        """Four observations with c_tilde = 2 at q = psi = 0 give Q[1:, 1:] =
        [[4, 8], [8, 16]] exactly, whose second pivot is 0: b is not
        identified with mu_a free, so the profile raises ``LinAlgError`` and
        the fit's wrapper returns 1e12.  With mu_a fixed, b = Q20 / Q22."""
        y = np.array([[11.0, 9.0], [12.5, 10.0]])
        inputs = DlmInputs(y=y, c_tilde=np.full_like(y, 2.0), y1=np.full_like(y, 3.0))
        kernel, n_obs = _profile_kernel(inputs, 0.5)
        stats = kernel(0.0, 0.0)
        assert stats[0][1:, 1:].tolist() == [[4.0, 8.0], [8.0, 16.0]]
        assert _mean_root(stats[0])[2] == 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _profile_nll(stats, n_obs, [1, 2])
        assert _penalised(lambda rows: _profile_nll(stats, n_obs, rows)[0])([1, 2]) == 1e12
        _, b, _ = _profile_nll(stats, n_obs, [2])
        assert b == [stats[0][0, 2] / 16.0]

    def test_no_observation_is_penalised(self):
        """With no observation every cross-product is 0, so neither mean
        column is identified: ``LinAlgError``, never a division by zero."""
        y = np.full((3, 2), np.nan)
        kernel, n_obs = _profile_kernel(DlmInputs(y=y, c_tilde=np.ones_like(y),
                                                  y1=np.ones_like(y)), 1.0)
        stats = kernel(0.5, 0.3)
        for rows in ([1, 2], [2]):
            with pytest.raises(np.linalg.LinAlgError):
                _profile_nll(stats, n_obs, rows)

    def test_constant_c_tilde_is_data_error(self):
        inputs, _ = simulate_step2_series(T=120, n=3, seed=3)
        flat = DlmInputs(y=inputs.y, c_tilde=np.full_like(inputs.y, 4.25), y1=inputs.y1)
        with pytest.raises(DataError, match="c_tilde is constant"):
            fit_mle(flat, gamma_hat=0.5)


@pytest.fixture(scope="module")
def fitted():
    truth = DlmParams(3.0, 4.0, 0.6, mu_a=0.0, beta_c=0.7, gamma_hat=0.5)
    inputs, _ = simulate_step2_series(T=400, n=4, params=truth, seed=11)
    return truth, inputs, fit_mle(inputs, gamma_hat=0.5)


def test_filter_matches_recorded_values():
    """Bit-exact filter state moments on a fixed input with empty days, a
    varying observed count and a nonzero state mean; the hex values were
    recorded from the numpy-scalar filter loop this one replaced."""
    nan = math.nan
    y = np.array([
        [31.5, 28.25, nan],
        [nan, nan, nan],
        [29.0, nan, 33.75],
        [27.5, 30.5, 26.0],
        [nan, nan, nan],
        [nan, 35.125, nan],
        [32.0, 29.5, 30.25],
    ])
    c = np.array([[0.5, -1.25, 2.0]] * 7) + np.arange(7)[:, None] * 0.125
    y1 = np.array([[20.0, 22.5, 19.75]] * 7) - np.arange(7)[:, None] * 0.25
    params = DlmParams(sigma_z=1.75, sigma_a=2.5, psi_a=0.6, mu_a=3.25,
                       beta_c=0.9, gamma_hat=1.1)
    est = kalman_filter(params, DlmInputs(y, c, y1))
    recorded = {
        "pred_mean": [
            "0x1.a000000000000p+1", "0x1.47164e9b164e8p+2", "0x1.1773c8c373c8bp+2",
            "0x1.88b68fc0e8610p+2", "0x1.2289d44c4d1edp+2", "0x1.0185e5c76178ep+2",
            "0x1.d886bc659c17dp+2"],
        "pred_var": [
            "0x1.3880000000000p+3", "0x1.ae7f78087f781p+2", "0x1.157d582a7d583p+3",
            "0x1.adfc31816ccf9p+2", "0x1.a46aec98d7751p+2", "0x1.13acd8aadf1a3p+3",
            "0x1.c40e10d62b5a3p+2"],
        "filtered_mean": [
            "0x1.967a83027a82ep+2", "0x1.47164e9b164e8p+2", "0x1.01ed77cb6c50ep+3",
            "0x1.599061d48088bp+2", "0x1.2289d44c4d1edp+2", "0x1.447047aa0213ep+3",
            "0x1.0786c47c0e04dp+3"],
        "filtered_var": [
            "0x1.52dda77adda78p+0", "0x1.ae7f78087f781p+2", "0x1.4d2b099e0e577p+0",
            "0x1.c5b9df0b977f2p-1", "0x1.a46aec98d7751p+2", "0x1.2131b2deb7f50p+1",
            "0x1.c8aab3a1ad666p-1"],
    }
    for name, values in recorded.items():
        arr = getattr(est, name)
        assert arr.dtype == np.float64, name
        assert [float(v).hex() for v in arr] == values, name


class TestMle:
    def test_recovers_parameters(self, fitted):
        truth, _, fit = fitted
        assert fit.se, "standard errors should be available"
        for name, true_val in (
            ("sigma_z", truth.sigma_z), ("sigma_a", truth.sigma_a),
            ("psi_a", truth.psi_a), ("beta_c", truth.beta_c),
        ):
            est = getattr(fit, name)
            assert abs(est - true_val) < 4 * fit.se[name], name

    def test_loglik_at_estimate_beats_truth(self, fitted):
        truth, inputs, fit = fitted
        assert fit.loglik >= log_likelihood(truth, inputs) - 1e-6

    def test_loglik_is_the_likelihood_at_the_estimate(self, fitted):
        _, inputs, fit = fitted
        assert fit.loglik == pytest.approx(log_likelihood(fit, inputs), rel=1e-10)

    def test_insignificant_mean_dropped(self, fitted):
        _, _, fit = fitted
        assert fit.mu_a_dropped
        assert fit.mu_a == 0.0

    def test_gamma_passed_through(self, fitted):
        _, _, fit = fitted
        assert fit.gamma_hat == 0.5

    @pytest.mark.parametrize("x, held", [
        ([2.0, 1.0, 0.5, 0.3], []),
        ([5e-5, 1.0, 0.5, 0.3], [0]),
        ([2.0, 5e-5, 0.5, 0.3], [1]),
        ([2.0, 1.0, 2e-11, 0.3], [2]),
        ([2.0, 1.0, 1.0 - 5e-5, 0.3], [2]),
        ([2.0, 0.0, 0.0, 0.3], [1, 2]),
    ])
    def test_hessian_holds_a_parameter_whose_step_leaves_the_space(self, x, held):
        """The numeric Hessian of (sigma_z, sigma_a, psi_a, beta_c) never
        evaluates outside the parameter space: a coordinate within a step of
        its bound is held, and the rest is the Hessian of the others."""
        A = np.array([[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.4, 0.1],
                      [0.5, 0.4, 2.0, 0.3], [0.2, 0.1, 0.3, 1.0]])

        def fun(v):
            assert v[0] > 0 and v[1] >= 0 and 0 <= v[2] < 1
            return 0.5 * v @ A @ v

        H, got = _numeric_hessian(fun, np.array(x))
        assert got == held
        free = [i for i in range(4) if i not in held]
        np.testing.assert_allclose(H, A[np.ix_(free, free)], rtol=1e-6)

    def test_boundary_fit_has_no_psi_se(self, caplog):
        """This series fits psi_a = 2.3e-11 with mu_a = 0, inside the Hessian's
        step of 1e-4, so a step to psi_a < 0 would leave the parameter space:
        psi_a gets no standard error and a log line that says why, and the
        others come from the Hessian with psi_a held.  beta_c's then matches
        sigma_z / sqrt(Q22), its GLS error at the fitted (q, psi_a), which
        ignores only the estimation of the variance parameters."""
        truth = DlmParams(3.0, 1.0, 0.0, beta_c=0.7, gamma_hat=0.5)
        inputs, _ = simulate_step2_series(T=365, n=4, params=truth, seed=0)
        with caplog.at_level(logging.INFO, logger="scarr.step2"):
            fit = fit_mle(inputs, gamma_hat=0.5)
        assert fit.mu_a_dropped and fit.psi_a < 1e-10
        assert sorted(fit.se) == ["beta_c", "sigma_a", "sigma_z"]
        assert any(r.getMessage().startswith("mu_a = 0: no standard error for psi_a=")
                   for r in caplog.records)
        kernel, _ = _profile_kernel(inputs, 0.5)
        Q, _ = kernel((fit.sigma_a / fit.sigma_z) ** 2, fit.psi_a)
        assert fit.se["beta_c"] == pytest.approx(fit.sigma_z / math.sqrt(Q[2, 2]), rel=1e-2)

    def test_too_few_days_rejected(self):
        inputs, _ = simulate_step2_series(T=20, n=3, seed=1)
        with pytest.raises(DataError, match="observed days"):
            fit_mle(inputs)

    def test_drop_mu_a_disabled(self):
        inputs, _ = simulate_step2_series(T=120, n=3, seed=3)
        fit = fit_mle(inputs, gamma_hat=0.5, drop_mu_a=False)
        assert not fit.mu_a_dropped

    def test_converged_false_when_optimizer_fails(self, monkeypatch, tmp_path):
        def failing(*args, **kwargs):
            return _bfgs(*args, **kwargs)._replace(success=False)

        monkeypatch.setattr(step2, "_bfgs", failing)
        inputs, _ = simulate_step2_series(T=120, n=3, seed=3)
        fit = fit_mle(inputs, gamma_hat=0.5)
        assert math.isfinite(fit.loglik)
        assert fit.converged is False
        path = tmp_path / "fit.txt"
        write_step2_fit(fit, str(path))
        assert "converged=false" in path.read_text().splitlines()
        assert read_step2_fit(str(path)).converged is False

    def test_iteration_limit_is_not_converged(self, monkeypatch, tmp_path, caplog):
        """Every start stops after two steps, short of |score| <= 1e-6, so the
        fit is written with converged=false and the reason is logged."""
        monkeypatch.setitem(step2._SEARCH_OPTIONS, "maxiter", 2)
        inputs, _ = simulate_step2_series(T=120, n=3, seed=3)
        with caplog.at_level(logging.INFO, logger="scarr.step2"):
            fit = fit_mle(inputs, gamma_hat=0.5)
        starts = [r.getMessage() for r in caplog.records if "start psi0=" in r.getMessage()]
        assert starts and all("nit=2 " in m and "success=false" in m for m in starts)
        assert fit.converged is False
        assert fit.optimizer_message == "the iteration limit was reached"
        path = tmp_path / "fit.txt"
        write_step2_fit(fit, str(path))
        assert "converged=false" in path.read_text().splitlines()


def rosenbrock(x):
    a, b = x
    return ((1 - a) ** 2 + 100 * (b - a * a) ** 2,
            [-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])


class TestSearch:
    def test_minimises_rosenbrock(self):
        res = _bfgs(rosenbrock, [-1.2, 1.0], gtol=1e-6, ftol=1e-9, maxiter=500)
        assert res.success and res.message == "|gradient|_inf <= gtol"
        assert max(map(abs, rosenbrock(res.x)[1])) <= 1e-6
        assert res.x == pytest.approx([1.0, 1.0], abs=1e-5)
        assert res.fun == rosenbrock(res.x)[0]
        assert res.nfev > res.nit > 0

    def test_iteration_limit(self):
        res = _bfgs(rosenbrock, [-1.2, 1.0], gtol=1e-6, ftol=1e-9, maxiter=3)
        assert (res.nit, res.success, res.message) == (
            3, False, "the iteration limit was reached")

    def test_penalised_trials_backtrack(self):
        """A trial outside the domain (here x < 0.5) is halved back into it."""
        def fun(x):
            if x[0] < 0.5:
                return 1e12, None
            return (x[0] - 0.6) ** 2, [2 * (x[0] - 0.6)]

        res = _bfgs(fun, [3.0], gtol=1e-6, ftol=1e-9, maxiter=500)
        assert res.success and res.x[0] == pytest.approx(0.6, abs=1e-6)

    def test_penalised_start_fails(self):
        res = _bfgs(lambda x: (1e12, None), [0.0, 0.0], gtol=1e-6, ftol=1e-9, maxiter=500)
        assert (res.fun, res.nfev, res.success) == (1e12, 1, False)

    def test_no_lower_value_fails(self):
        """A gradient that points uphill: every trial raises f, so halving
        ends with x unchanged and the search reports it."""
        res = _bfgs(lambda x: (x[0] ** 2, [-1.0]), [1.0], gtol=1e-6, ftol=1e-9, maxiter=500)
        assert (res.x, res.success) == ([1.0], False)
        assert res.message == "the line search found no lower value"

    @pytest.mark.parametrize("truth", [
        DlmParams(3.0, 4.0, 0.6, mu_a=0.0, beta_c=0.7, gamma_hat=0.5),
        DlmParams(3.0, 1.0, 0.0, mu_a=2.0, beta_c=0.7, gamma_hat=0.5),
        DlmParams(2.0, 1.5, 0.95, mu_a=-1.0, beta_c=1.2, gamma_hat=0.5),
    ])
    @pytest.mark.parametrize("fix_mu", [False, True])
    def test_no_worse_than_lbfgsb(self, truth, fix_mu):
        """Over seeds 0-5 of each truth, the fit's -loglik is at most that of
        scipy's L-BFGS-B, with numeric gradients, on the same profile from the
        same three starts and with the same stopping rules, plus 1e-9 of its
        size: a tolerance fixed before the first run.  Each start ends at
        |score| <= 1e-6 or reports success=false.  With mu_a held at 0 while
        the truth's is 2, some seeds have no interior optimum: the likelihood
        climbs towards psi_a = 1, q = 0, where a constant state stands in for
        the mean, and those starts stop on a failed line search."""
        from scipy import optimize

        rows = step2._MEAN_ROWS[fix_mu]
        for seed in range(6):
            inputs, _ = simulate_step2_series(T=365, n=4, params=truth, seed=seed)
            kernel, n_obs = _profile_kernel(inputs, 0.5)
            searches = []

            def search(fun, x0, **options):
                searches.append(_bfgs(fun, x0, **options))
                searches.append(fun(searches[-1].x))
                return searches[-2]

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(step2, "_bfgs", search)
                fit = step2._fit_once(
                    lambda q, psi, score=False: kernel(q, psi, score), n_obs, 0.5, fix_mu)
            assert len(searches) == 6
            for res, (_, grad) in zip(searches[::2], searches[1::2]):
                assert not res.success or max(map(abs, grad)) <= 1e-6

            @_penalised
            def profile(theta):
                q, psi = math.exp(theta[0]), min(1 / (1 + math.exp(-theta[1])), 1 - 1e-12)
                return _profile_nll(kernel(q, psi), n_obs, rows)[0]

            ref = min(optimize.minimize(profile, [math.log(0.5625), math.log(psi0 / (1 - psi0))],
                                        method="L-BFGS-B",
                                        options={"gtol": 1e-6, "ftol": 1e-9, "maxiter": 500}).fun
                      for psi0 in (0.5, 0.2, 0.8))
            assert -fit.loglik <= ref + 1e-9 * abs(ref), seed


class TestConfigAndSerialization:
    def test_parse_defaults(self):
        cfg = parse_config(Step2Config, {})
        assert cfg.drop_mu_a

    def test_parse_keys(self):
        cfg = parse_config(Step2Config, {"drop_mu_a": "false"})
        assert not cfg.drop_mu_a

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config(Step2Config, {"nope": "1"})

    def test_fit_roundtrip_exact(self, tmp_path):
        p = DlmParams(2.5, 1.75, 0.61234, mu_a=0.0, beta_c=0.71, gamma_hat=0.52)
        p.se = {"sigma_z": 0.11, "beta_c": 0.05}
        p.mu_a_dropped = True
        p.loglik = -1234.5678
        path = tmp_path / "fit.txt"
        write_step2_fit(p, str(path), header_lines=["test header"])
        back = read_step2_fit(str(path))
        for nm in ("sigma_z", "sigma_a", "psi_a", "mu_a", "beta_c", "gamma_hat", "loglik"):
            assert getattr(back, nm) == getattr(p, nm), nm
        assert back.se == p.se
        assert back.mu_a_dropped

    def test_state_path_csv(self, tmp_path, rng):
        p, inputs = random_instance(rng, 5, 2)
        est = kalman_smoother(p, inputs)
        path = tmp_path / "state.csv"
        write_state_path(est, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "day,filtered_mean,filtered_var,smoothed_mean,smoothed_var"
        assert len(lines) == 6
        assert lines[1].startswith("1,")


def test_fit_does_not_depend_on_memory_order():
    """Step II stores its inputs C-contiguous, so Fortran-order copies of the
    same arrays fit to the same bits."""
    inputs, _ = simulate_step2_series(T=1825, n=4, seed=3)
    fortran = DlmInputs(*(np.asfortranarray(a) for a in (inputs.y, inputs.c_tilde, inputs.y1)))
    assert repr(fit_mle(fortran, gamma_hat=0.5)) == repr(fit_mle(inputs, gamma_hat=0.5))
