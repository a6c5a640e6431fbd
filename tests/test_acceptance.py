"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Every expected number is either hand-computed, produced by an independent
dense-Gaussian reference implementation, or an analytic property of the
generative model; no value here was copied from the code under test.
"""

import math
import os
import time

import numpy as np
import pytest

from scarr import covariates as cov
from scarr.cli import main as cli_main
from scarr.data_model import RasterGrid
from scarr.oracle import DenseGaussianOracle, simulate_step2_series
from scarr.step1 import (
    Design,
    ErrorModel,
    assemble_design,
    backward_buffer_selection,
    cov_matrix,
    f_test,
    fit_gls,
    fit_ols,
    loocv_press,
    quadrant_step_functions,
)
from scarr.step2 import (
    DlmInputs,
    DlmParams,
    fit_mle,
    kalman_filter,
    kalman_smoother,
    log_likelihood,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_METRICS = os.path.join(REPO_ROOT, "data", "golden_metrics.csv")


def _report(capsys, num, desc, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {num}] FAIL: {desc}")
        raise
    with capsys.disabled():
        print(f"[criterion {num}] PASS: {desc}")


def _random_instance(rng, T, n):
    params = DlmParams(
        sigma_z=float(rng.uniform(0.3, 4.0)),
        sigma_a=float(rng.uniform(0.3, 4.0)),
        psi_a=float(rng.uniform(0.0, 0.97)),
        mu_a=float(rng.normal(0, 3)),
        beta_c=float(rng.normal(1, 0.5)),
        gamma_hat=float(rng.uniform(0.2, 1.5)),
    )
    y = rng.normal(10, 5, size=(T, n))
    if rng.uniform() < 0.7 and T * n > 1:
        k = int(rng.integers(1, max(T * n // 3, 2)))
        y.ravel()[rng.integers(0, T * n, size=k)] = np.nan
    c = rng.normal(3, 2, size=(T, n))
    y1 = rng.uniform(0.5, 20, size=(T, n))
    return params, DlmInputs(y=y, c_tilde=c, y1=y1)


def test_criterion_1_oracle_equivalence(capsys):
    def body():
        t0 = time.monotonic()
        rng = np.random.Generator(np.random.PCG64(2024))
        for _ in range(200):
            T = int(rng.integers(1, 11))
            n = int(rng.integers(1, 4))
            params, inputs = _random_instance(rng, T, n)
            oracle = DenseGaussianOracle(params, inputs)
            est = kalman_smoother(params, inputs)
            assert log_likelihood(params, inputs) == pytest.approx(oracle.log_density(), abs=1e-8)
            for t in range(T):
                fm, fv = oracle.state_posterior(t, upto=t)
                assert est.filtered_mean[t] == pytest.approx(fm, abs=1e-8)
                assert est.filtered_var[t] == pytest.approx(fv, abs=1e-8)
                sm, sv = oracle.state_posterior(t, upto=None)
                assert est.smoothed_mean[t] == pytest.approx(sm, abs=1e-8)
                assert est.smoothed_var[t] == pytest.approx(sv, abs=1e-8)
        assert time.monotonic() - t0 < 10.0

    _report(
        capsys, 1,
        "filter/smoother/log-likelihood match the dense Gaussian reference "
        "within 1e-8 on 200 seeded instances in < 10 s",
        body,
    )


def test_criterion_2_state_space_recovery(capsys):
    def body():
        t0 = time.monotonic()
        truth = DlmParams(22.5, 30.3, 0.59, mu_a=0.0, beta_c=0.71, gamma_hat=0.5)
        n_seeds = 20
        within = {nm: 0 for nm in ("sigma_z", "sigma_a", "psi_a", "beta_c")}
        dropped = 0
        for seed in range(n_seeds):
            inputs, _ = simulate_step2_series(
                T=730, n=6, params=truth, seed=1000 + seed, missing_rate=0.05
            )
            fit = fit_mle(inputs, gamma_hat=truth.gamma_hat)
            assert fit.se, f"seed {seed}: no standard errors"
            for nm in within:
                if abs(getattr(fit, nm) - getattr(truth, nm)) < 3 * fit.se[nm]:
                    within[nm] += 1
            if fit.mu_a_dropped:
                dropped += 1
        for nm, count in within.items():
            assert count >= 18, f"{nm}: only {count}/20 seeds within 3 SEs"
        assert dropped >= 18, f"mu_a drop rule fired in only {dropped}/20 seeds"
        assert time.monotonic() - t0 < 300.0

    _report(
        capsys, 2,
        "state-space MLE recovers every parameter within 3 SEs and drops the "
        "state mean in >= 90% of 20 long simulations in < 5 min",
        body,
    )


def test_criterion_3_regression_exactness(capsys, mini_dataset):
    def body():
        # noiseless data from the generative regression: exact recovery
        from scarr.oracle import SimulationConfig

        ds, _ = mini_dataset
        table = cov.build_covariates(ds)
        design = assemble_design(ds, table)
        coefs = SimulationConfig().coefficients
        beta_true = np.array([coefs.get(nm, 0.0) for nm in design.names])
        y = design.X @ beta_true
        fit = fit_ols(design.X, y, design.names)
        np.testing.assert_allclose(fit.beta, beta_true, rtol=1e-9, atol=1e-9)

        # PRESS: hat-matrix shortcut equals the explicit refit loop
        rng = np.random.Generator(np.random.PCG64(77))
        noisy = y + rng.normal(0, 2.0, size=len(y))
        fit_n = fit_ols(design.X, noisy, design.names)
        p_hat, _ = loocv_press(fit_n, design.X, noisy, method="hat")
        p_ref, _ = loocv_press(fit_n, design.X, noisy, method="refit")
        assert p_hat == pytest.approx(p_ref, rel=1e-9)

        # hand-computed 4-point regression
        X4 = np.column_stack([np.ones(4), np.array([0.0, 1.0, 2.0, 3.0])])
        y4 = np.array([0.6, 0.8, 2.0, 2.2])
        f4 = fit_ols(X4, y4, ["intercept", "x"])
        assert f4.coef("intercept") == pytest.approx(0.5, rel=1e-12)
        assert f4.coef("x") == pytest.approx(0.6, rel=1e-12)
        assert f4.rss == pytest.approx(0.2, rel=1e-12)
        F, df1, df2, _ = f_test(fit_ols(np.ones((4, 1)), y4, ["intercept"]), f4)
        assert F == pytest.approx(18.0, rel=1e-12)
        assert (df1, df2) == (1, 2)

    _report(
        capsys, 3,
        "noiseless regression recovered to 1e-9, PRESS shortcut equals the "
        "refit loop to 1e-9, and the 4-point hand regression is exact",
        body,
    )


def _cov_at(m, d):
    """The covariance at separation d > 0, read from ``cov_matrix``: the
    entry of two observations d apart."""
    return cov_matrix(m, np.array([[0.0, 0.0], [d, 0.0]]))[0, 1]


def test_criterion_4_gls_reduction(capsys):
    def body():
        # iid (zero-spatial-range) data: fully estimated GLS collapses to OLS
        rng = np.random.Generator(np.random.PCG64(0))
        n = 60
        coords = rng.uniform(0, 10_000, size=(n, 2))
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = X @ np.array([10.0, 2.0, -1.0]) + rng.normal(size=n)
        ols = fit_ols(X, y, ["a", "b", "c"])
        gls = fit_gls(X, y, coords, ["a", "b", "c"], kind="exponential")
        np.testing.assert_allclose(gls.beta, ols.beta, rtol=1e-6)

        # explicit zero-range covariance: GLS estimator identical to OLS
        V = cov_matrix(ErrorModel("exponential", sill=2.0, range_=0.0, nugget=0.5),
                       coords)
        Vi = np.linalg.inv(V)
        beta_zero = np.linalg.solve(X.T @ Vi @ X, X.T @ Vi @ y)
        np.testing.assert_allclose(beta_zero, ols.beta, rtol=1e-10)

        # Matern nu = 1/2 equals the exponential covariance
        me = ErrorModel("matern", sill=1.9, range_=1200.0, nu=0.5)
        ex = ErrorModel("exponential", sill=1.9, range_=1200.0)
        for d in np.linspace(1.0, 8000.0, 40):
            assert _cov_at(me, float(d)) == pytest.approx(_cov_at(ex, float(d)), abs=1e-10)

    _report(
        capsys, 4,
        "GLS with zero spatial range reproduces OLS coefficients and the "
        "Matern(1/2) covariance equals the exponential to 1e-10",
        body,
    )


def _ring_selection_design(rng, n=400, noise=1.0):
    spec = cov.BufferSpec()
    labels = spec.ring_labels()
    names = ["intercept"] + [f"ttv_{lab}" for lab in labels]
    X = np.column_stack([np.ones(n), rng.uniform(0, 5, size=(n, 7))])
    beta = np.array([5.0, 0.9, 0.6, 0.35, 0.0, 0.0, 0.0, 0.0])
    y = X @ beta + noise * rng.standard_normal(n)
    return Design(
        X=X, y=y, names=names, coords=np.zeros((n, 2)),
        groups={"ttv": names[1:]},
    )


def test_criterion_5_buffer_selection(capsys):
    def body():
        successes = 0
        target = ["ttv_0-0.5km", "ttv_0.5-1km", "ttv_1-2km"]
        for seed in range(20):
            rng = np.random.Generator(np.random.PCG64(3000 + seed))
            design = _ring_selection_design(rng)
            retained, _ = backward_buffer_selection(design, alpha=0.01)
            if retained["ttv"] == target:
                successes += 1
        assert successes >= 16, f"exact <=2 km retention in only {successes}/20 seeds"

    _report(
        capsys, 5,
        "with true traffic effects confined to <= 2 km, backward selection "
        "retains exactly the <= 2 km rings in >= 80% of 20 seeds",
        body,
    )


def _isotropic_quadrant_design(rng, n=300, noise=1.0):
    spec = cov.BufferSpec((0.5, 1.0, 2.0, 3.0))
    labels = spec.ring_labels()
    lam = np.array([1.0, 0.7, 0.4, 0.2])
    names = ["intercept"]
    blocks = []
    groups = {}
    for q in cov.QUADRANTS:
        cols = [f"ttv_{q}_{lab}" for lab in labels]
        names += cols
        groups[f"ttv_{q}"] = cols
        blocks.append(rng.uniform(0, 5, size=(n, 4)))
    X = np.column_stack([np.ones(n)] + blocks)
    # isotropy: the same ring coefficient in every direction
    y = 5.0 + sum(b @ lam for b in blocks) + noise * rng.standard_normal(n)
    return Design(
        X=X, y=y, names=names, coords=np.zeros((n, 2)),
        groups=groups,
    )


def test_criterion_6_isotropy(capsys):
    def body():
        agree = total = 0
        for seed in range(20):
            rng = np.random.Generator(np.random.PCG64(4000 + seed))
            design = _isotropic_quadrant_design(rng)
            sfs = quadrant_step_functions(design)
            quads = list(sfs)
            for i in range(len(quads)):
                for j in range(i + 1, len(quads)):
                    a, b = sfs[quads[i]], sfs[quads[j]]
                    for k in range(len(a.heights)):
                        tol = 2.0 * math.hypot(a.se[k], b.se[k])
                        agree += abs(a.heights[k] - b.heights[k]) <= tol
                        total += 1
        frac = agree / total
        assert frac >= 0.8, f"quadrant step functions agree on only {frac:.0%} of rings"

    _report(
        capsys, 6,
        "under an isotropic truth the four directional step functions agree "
        "pairwise within 2 SEs on >= 80% of rings over 20 seeds",
        body,
    )


def test_criterion_7_prediction_neutrality(capsys):
    def body():
        rng = np.random.Generator(np.random.PCG64(55))
        params, inputs = _random_instance(rng, 60, 4)

        # 50 always-missing prediction columns leave the state untouched
        T = inputs.n_days
        aug = DlmInputs(
            y=np.column_stack([inputs.y, np.full((T, 50), np.nan)]),
            c_tilde=np.column_stack([inputs.c_tilde, np.zeros((T, 50))]),
            y1=np.column_stack([inputs.y1, np.zeros((T, 50))]),
        )
        base = kalman_smoother(params, inputs)
        plus = kalman_smoother(params, aug)
        assert abs(log_likelihood(params, aug) - log_likelihood(params, inputs)) < 1e-10
        assert np.max(np.abs(plus.filtered_mean - base.filtered_mean)) < 1e-10
        assert np.max(np.abs(plus.smoothed_mean - base.smoothed_mean)) < 1e-10
        assert np.max(np.abs(plus.smoothed_var - base.smoothed_var)) < 1e-10

        # a withheld coordinate's prediction equals the exact conditional mean
        for seed in range(10):
            r2 = np.random.Generator(np.random.PCG64(600 + seed))
            p, full = _random_instance(r2, 8, 3)
            obs = np.argwhere(np.isfinite(full.y))
            if len(obs) < 2:
                continue
            t, i = (int(v) for v in obs[len(obs) // 2])
            y_w = full.y.copy()
            y_w[t, i] = np.nan
            withheld = DlmInputs(y=y_w, c_tilde=full.c_tilde, y1=full.y1)
            off = p.beta_c * full.c_tilde[t, i] + p.gamma_hat * full.y1[t, i]
            oracle = DenseGaussianOracle(p, withheld)
            want_mean, want_var = oracle.predict_obs(t, i, off, upto=None)
            est = kalman_smoother(p, withheld)
            got_mean = est.smoothed_mean[t] + off
            got_var = est.smoothed_var[t] + p.sigma_z**2
            assert abs(got_mean - want_mean) < 1e-10
            assert abs(got_var - want_var) < 1e-10

    _report(
        capsys, 7,
        "augmented prediction sites change nothing (< 1e-10) and withheld "
        "coordinates match the exact conditional expectation to 1e-10",
        body,
    )


def test_criterion_8_end_to_end_golden(capsys, tmp_path):
    def body():
        t0 = time.monotonic()
        assert os.path.exists(GOLDEN_METRICS), "frozen golden metrics missing"
        d = str(tmp_path / "golden_run")
        assert cli_main(["simulate", "--seed", "7", "--days", "90", "--out", d]) == 0
        assert cli_main(["features", d]) == 0
        assert cli_main(["fit-step1", d]) == 0
        assert cli_main(["fit-step2", d]) == 0
        assert cli_main(["predict", d]) == 0
        assert cli_main(["validate", d, "--golden", GOLDEN_METRICS]) == 0
        assert time.monotonic() - t0 < 120.0

    _report(
        capsys, 8,
        "the full pipeline reproduces the frozen golden metrics byte-for-byte "
        "in < 2 min",
        body,
    )


def test_criterion_9_covariate_geometry(capsys):
    def body():
        # 50 m segment at 20,000 ADT, 700 m away: exactly 0.1 in ring 2
        seg = cov.TrafficSegment(700.0, 0.0, 0.05, 20_000.0)
        (out,), _ = cov.ring_ttv([(0.0, 0.0)], [seg])
        assert out[1] == 0.1
        assert np.all(out[[0, 2, 3, 4, 5, 6]] == 0.0)

        # uniform raster: each ring's area within one cell-area of the annulus
        cell = 180.0
        n = 25
        raster = RasterGrid(n, n, 0.0, 0.0, cell, -9999.0,
                            np.full((n, n), 2.0))
        site_c = [((12 + 0.2) * cell, (12 + 0.4) * cell)]
        areas = {cat: a[0] for cat, a in cov.ring_landuse_area(site_c, raster, {2: "all"}).items()}
        cell_area_ha = cell * cell / 10_000.0
        prev = 0.0
        for k, r_km in enumerate((0.5, 1.0, 2.0)):
            analytic_ha = math.pi * (r_km**2 - prev**2) * 100.0
            assert abs(areas["all"][k] - analytic_ha) <= cell_area_ha, f"ring {k}"
            prev = r_km

    _report(
        capsys, 9,
        "hand traffic-volume example exact and uniform-raster ring areas "
        "within one cell-area of the analytic annulus",
        body,
    )
