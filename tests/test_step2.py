import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from scarr.data_model import parse_config
from scarr.errors import ConfigError, DataError
from scarr.oracle import dense_gaussian_oracle, simulate_step2_series
from scarr.step2 import (
    DlmInputs,
    DlmParams,
    Step2Config,
    _day_sums,
    _full_nll,
    _profile_nll,
    _profile_stats,
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
        assert est.loglik == pytest.approx(expected_ll, rel=1e-13)

    def test_two_sites_one_day_mvn_loglik(self):
        p = DlmParams(sigma_z=1.2, sigma_a=1.0, psi_a=0.4, mu_a=1.0)
        y = np.array([[3.0, -1.0]])
        est = kalman_filter(p, plain_inputs(y))
        v0 = p.stationary_var
        S = v0 * np.ones((2, 2)) + p.sigma_z**2 * np.eye(2)
        expected = stats.multivariate_normal.logpdf(y[0], mean=[1.0, 1.0], cov=S)
        assert est.loglik == pytest.approx(expected, rel=1e-12)

    def test_fully_missing_day_prediction_only(self):
        p = DlmParams(sigma_z=1.0, sigma_a=1.0, psi_a=0.5, mu_a=0.0)
        y = np.array([[2.0], [np.nan], [1.0]])
        est = kalman_filter(p, plain_inputs(y))
        assert est.loglik_terms[1] == 0.0
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
        np.testing.assert_allclose(a.loglik_terms, b.loglik_terms, rtol=1e-12)

    def test_empty_inputs_rejected(self):
        p = DlmParams(1.0, 1.0, 0.5)
        with pytest.raises(DataError):
            kalman_filter(p, plain_inputs(np.zeros((0, 1))))


class TestAgainstDenseOracle:
    def test_filter_matches_oracle(self, rng):
        for _ in range(20):
            p, inputs = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            oracle = dense_gaussian_oracle(p, inputs)
            est = kalman_filter(p, inputs)
            for t in range(inputs.n_days):
                mean, var = oracle.state_posterior(t, upto=t)
                assert est.filtered_mean[t] == pytest.approx(mean, abs=1e-9)
                assert est.filtered_var[t] == pytest.approx(var, abs=1e-9)

    def test_loglik_matches_oracle(self, rng):
        for _ in range(20):
            p, inputs = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            assert log_likelihood(p, inputs) == pytest.approx(
                dense_gaussian_oracle(p, inputs).log_density(), abs=1e-9
            )

    def test_smoother_matches_oracle(self, rng):
        for _ in range(20):
            p, inputs = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)))
            oracle = dense_gaussian_oracle(p, inputs)
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


def kernel_loglik(p, inputs, rows=(1, 2)):
    """Log-likelihood at ``p`` through the kernel, with mu_a free (rows 1, 2)
    or fixed at 0 (row 2)."""
    sums = _day_sums(inputs, p.gamma_hat)
    kernel = _profile_stats(sums, p.sigma_a**2 / p.sigma_z**2, p.psi_a)
    b = [p.mu_a, p.beta_c][2 - len(rows):]
    return -_full_nll(kernel, sum(sums[0]), p.sigma_z, b, list(rows))


class TestProfileKernel:
    @settings(max_examples=200, deadline=None)
    @given(kernel_instances())
    def test_full_loglik_equals_filter_and_oracle(self, instance):
        p, inputs = instance
        ll = kernel_loglik(p, inputs)
        assert ll == pytest.approx(log_likelihood(p, inputs), rel=1e-9, abs=1e-12)
        assert ll == pytest.approx(dense_gaussian_oracle(p, inputs).log_density(), abs=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(kernel_instances(), st.booleans(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
           st.floats(-0.5, 0.5))
    def test_closed_forms_maximise_at_fixed_q_psi(self, instance, fix_mu, d_mu, d_beta,
                                                   d_log_sz):
        p, inputs = instance
        sums = _day_sums(inputs, p.gamma_hat)
        n_obs = sum(sums[0])
        assume(n_obs >= 3)
        rows = [2] if fix_mu else [1, 2]
        kernel = _profile_stats(sums, p.sigma_a**2 / p.sigma_z**2, p.psi_a)
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
        ll = kernel_loglik(p, inputs, rows=(2,))
        assert ll == pytest.approx(kernel_loglik(p0, inputs), rel=1e-12, abs=1e-12)
        assert ll == pytest.approx(log_likelihood(p0, inputs), rel=1e-9, abs=1e-12)

    def test_no_mean_profile_slope(self, rng):
        p, inputs = random_instance(rng, 9, 3)
        sums = _day_sums(inputs, p.gamma_hat)
        (Q, _) = kernel = _profile_stats(sums, 0.8, 0.4)
        _, b, _ = _profile_nll(kernel, sum(sums[0]), [2])
        assert b[0] == pytest.approx(Q[0, 2] / Q[2, 2], rel=1e-13)

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
    """Bit-exact filter output on a fixed input with empty days, a varying
    observed count and a nonzero state mean; the hex values were recorded from
    the numpy-scalar filter loop this one replaced."""
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
        "loglik_terms": [
            "-0x1.87f5dd34dc378p+2", "0x0.0p+0", "-0x1.7bbf104345e0dp+2",
            "-0x1.c5ceec6b163aap+2", "0x0.0p+0", "-0x1.45b9d45f679ddp+2",
            "-0x1.af376759d0007p+2"],
    }
    for name, values in recorded.items():
        arr = getattr(est, name)
        assert arr.dtype == np.float64, name
        assert [float(v).hex() for v in arr] == values, name
    assert est.loglik.hex() == "-0x1.ef9d45671bfc5p+4"


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

    def test_loglik_is_the_filter_loglik_at_the_estimate(self, fitted):
        _, inputs, fit = fitted
        assert fit.loglik == pytest.approx(log_likelihood(fit, inputs), rel=1e-10)

    def test_insignificant_mean_dropped(self, fitted):
        _, _, fit = fitted
        assert fit.mu_a_dropped
        assert fit.mu_a == 0.0

    def test_gamma_passed_through(self, fitted):
        _, _, fit = fitted
        assert fit.gamma_hat == 0.5

    def test_too_few_days_rejected(self):
        inputs, _ = simulate_step2_series(T=20, n=3, seed=1)
        with pytest.raises(DataError, match="observed days"):
            fit_mle(inputs)

    def test_drop_mu_a_disabled(self):
        inputs, _ = simulate_step2_series(T=120, n=3, seed=3)
        fit = fit_mle(inputs, gamma_hat=0.5, config=Step2Config(drop_mu_a=False))
        assert not fit.mu_a_dropped

    def test_converged_false_when_optimizer_fails(self, monkeypatch, tmp_path):
        from scarr import step2

        minimize = step2.optimize.minimize

        def failing(*args, **kwargs):
            res = minimize(*args, **kwargs)
            res.success = False
            return res

        monkeypatch.setattr(step2.optimize, "minimize", failing)
        inputs, _ = simulate_step2_series(T=120, n=3, seed=3)
        fit = fit_mle(inputs, gamma_hat=0.5)
        assert math.isfinite(fit.loglik)
        assert fit.converged is False
        path = tmp_path / "fit.txt"
        write_step2_fit(fit, str(path))
        assert "converged=false" in path.read_text().splitlines()
        assert read_step2_fit(str(path)).converged is False


class TestConfigAndSerialization:
    def test_parse_defaults(self):
        cfg = parse_config(Step2Config, {})
        assert cfg.drop_mu_a and cfg.n_starts == 3

    def test_parse_keys(self):
        cfg = parse_config(Step2Config, {"drop_mu_a": "false", "n_starts": "5"})
        assert not cfg.drop_mu_a and cfg.n_starts == 5

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
