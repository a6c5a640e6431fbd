import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from scarr.covariates import BufferSpec
from scarr.data_model import parse_config
from scarr.errors import ConfigError, DataError
from scarr.step1 import (
    Design,
    ErrorModel,
    Step1Config,
    additive_bias_c_tilde,
    assemble_design,
    backward_buffer_selection,
    collinearity_report,
    cov_matrix,
    cov_value,
    dispersion_step_function,
    f_test,
    fit_gls,
    fit_ols,
    gamma_hat,
    loocv_press,
    quadrant_step_functions,
    read_step1_fit,
    write_step1_fit,
)

# Four points constructed so the simple regression has slope 0.6,
# intercept 0.5, RSS 0.2 and a slope F-statistic of exactly 18 on (1, 2) df.
HAND_X = np.array([0.0, 1.0, 2.0, 3.0])
HAND_Y = np.array([0.6, 0.8, 2.0, 2.2])


def hand_design():
    return np.column_stack([np.ones(4), HAND_X])


class TestOls:
    def test_hand_example_exact(self):
        fit = fit_ols(hand_design(), HAND_Y, ["intercept", "x"])
        assert fit.coef("intercept") == pytest.approx(0.5, rel=1e-12)
        assert fit.coef("x") == pytest.approx(0.6, rel=1e-12)
        assert fit.rss == pytest.approx(0.2, rel=1e-12)
        assert fit.tss == pytest.approx(2.0, rel=1e-12)
        assert fit.sigma2 == pytest.approx(0.1, rel=1e-12)
        assert fit.r2 == pytest.approx(0.9, rel=1e-12)

    def test_hand_f_test(self):
        full = fit_ols(hand_design(), HAND_Y, ["intercept", "x"])
        reduced = fit_ols(np.ones((4, 1)), HAND_Y, ["intercept"])
        F, df1, df2, p = f_test(reduced, full)
        assert F == pytest.approx(18.0, rel=1e-12)
        assert (df1, df2) == (1, 2)
        assert 0.0 < p < 0.06

    def test_noiseless_recovery(self, rng):
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
        beta = np.array([2.0, -1.5, 0.25, 4.0])
        fit = fit_ols(X, X @ beta, ["b0", "b1", "b2", "b3"])
        np.testing.assert_allclose(fit.beta, beta, rtol=1e-9)
        assert fit.rss < 1e-18

    def test_se_matches_direct_formula(self, rng):
        X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
        y = X @ np.array([1.0, 2.0, -1.0]) + rng.normal(size=30)
        fit = fit_ols(X, y, ["b0", "b1", "b2"])
        s2 = fit.rss / (30 - 3)
        expected = np.sqrt(np.diag(s2 * np.linalg.inv(X.T @ X)))
        np.testing.assert_allclose(fit.se, expected, rtol=1e-10)

    def test_rank_deficiency_raises(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), 2 * np.arange(10.0)])
        with pytest.raises(DataError, match="rank deficient"):
            fit_ols(X, np.arange(10.0), ["a", "b", "c"])

    def test_underdetermined_raises(self):
        with pytest.raises(DataError, match="n=2 <= p=2"):
            fit_ols(np.eye(2), np.ones(2), ["a", "b"])

    def test_conf_int_contains_estimate(self):
        fit = fit_ols(hand_design(), HAND_Y, ["intercept", "x"])
        lo, hi = fit.conf_int("x")
        assert lo < 0.6 < hi


class TestFTestErrors:
    def test_different_rows(self):
        a = fit_ols(hand_design(), HAND_Y, ["intercept", "x"])
        b = fit_ols(np.ones((3, 1)), HAND_Y[:3], ["intercept"])
        with pytest.raises(DataError, match="different rows"):
            f_test(b, a)

    def test_non_nested(self):
        a = fit_ols(hand_design(), HAND_Y, ["intercept", "x"])
        b = fit_ols(hand_design(), HAND_Y, ["intercept", "z"])
        with pytest.raises(DataError, match="not nested"):
            f_test(b, a)


class TestPress:
    def test_hat_equals_refit(self, rng):
        X = np.column_stack([np.ones(25), rng.normal(size=(25, 3))])
        y = X @ np.array([1.0, 0.5, -2.0, 0.1]) + rng.normal(size=25)
        fit = fit_ols(X, y, ["b0", "b1", "b2", "b3"])
        p_hat, r_hat = loocv_press(fit, X, y, method="hat")
        p_ref, r_ref = loocv_press(fit, X, y, method="refit")
        assert p_hat == pytest.approx(p_ref, rel=1e-9)
        assert r_hat == pytest.approx(r_ref, rel=1e-9)

    def test_two_point_slope_press(self):
        # with 3 collinear-in-x points the LOO prediction errors are computable
        # by hand: dropping the middle of (0,0), (1,1), (2,2) predicts it exactly
        X = np.column_stack([np.ones(3), np.array([0.0, 1.0, 2.0])])
        y = np.array([0.0, 1.0, 2.0])
        fit = fit_ols(X, y, ["b0", "b1"])
        press, rmspe = loocv_press(fit, X, y)
        assert press == pytest.approx(0.0, abs=1e-20)

    def test_leverage_one_row_excluded(self, rng):
        # an indicator column makes its row's leverage exactly 1
        X = np.column_stack([np.ones(10), rng.normal(size=10), np.eye(10)[:, 0]])
        y = rng.normal(size=10)
        fit = fit_ols(X, y, ["b0", "b1", "ind"])
        with pytest.warns(UserWarning, match="leverage 1"):
            p_hat, _ = loocv_press(fit, X, y, method="hat")
        with pytest.warns(UserWarning, match="leverage 1"):
            p_ref, _ = loocv_press(fit, X, y, method="refit")
        assert p_hat == pytest.approx(p_ref, rel=1e-9)

    def test_unknown_method(self):
        fit = fit_ols(hand_design(), HAND_Y, ["a", "b"])
        with pytest.raises(ConfigError):
            loocv_press(fit, hand_design(), HAND_Y, method="jackknife")


_coord = st.one_of(st.integers(-3, 3).map(lambda k: 1000.0 * k), st.floats(-2e4, 2e4))


def _closed_form(m, d):
    """Covariance at a separation d > 0, one scalar at a time."""
    if m.range_ == 0:
        return 0.0
    h = d / m.range_
    if m.kind == "exponential" or (m.kind == "matern" and m.nu == 0.5):
        return m.sill * math.exp(-h)
    if m.kind == "spherical":
        return 0.0 if h >= 1.0 else m.sill * (1.0 - 1.5 * h + 0.5 * h**3)
    arg = math.sqrt(2.0 * m.nu) * h
    if arg > 700.0:
        return 0.0
    scale = 2.0 ** (1.0 - m.nu) / special.gamma(m.nu)
    bessel = special.kv(m.nu, arg)
    if math.isinf(bessel):
        return m.sill  # arg -> 0: the correlation is 1 to double precision
    return m.sill * float(scale * arg**m.nu * bessel)


def _assert_closed_form(m, coords):
    V = cov_matrix(m, np.array(coords, dtype=float))
    for i, (xi, yi) in enumerate(coords):
        assert V[i, i] == m.sill + m.nugget
        for j in range(i + 1, len(coords)):
            d = float(np.hypot(xi - coords[j][0], yi - coords[j][1]))
            if m.kind == "independent":
                want = 0.0
            elif d == 0.0:
                want = m.sill
            else:
                want = _closed_form(m, d)
                assert cov_value(m, d) == want
            assert V[i, j] == want and V[j, i] == want


class TestCovarianceFunctions:
    def test_nugget_only_at_zero(self):
        m = ErrorModel("exponential", sill=2.0, range_=1000.0, nugget=0.5)
        assert cov_value(m, 0.0) == pytest.approx(2.5)
        assert cov_value(m, 1e-9) < 2.0

    def test_exponential_closed_form(self):
        m = ErrorModel("exponential", sill=3.0, range_=500.0)
        assert cov_value(m, 500.0) == pytest.approx(3.0 * math.exp(-1.0), rel=1e-12)

    def test_spherical_closed_form(self):
        m = ErrorModel("spherical", sill=2.0, range_=1000.0)
        # h = 0.5: 1 - 1.5*0.5 + 0.5*0.125 = 0.3125
        assert cov_value(m, 500.0) == pytest.approx(2.0 * 0.3125, rel=1e-12)
        assert cov_value(m, 1000.0) == 0.0
        assert cov_value(m, 2000.0) == 0.0

    def test_colocated_observations_share_sill_not_nugget(self):
        m = ErrorModel("exponential", sill=2.0, range_=1000.0, nugget=0.5)
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [500.0, 0.0]])
        V = cov_matrix(m, coords)
        # Diagonal carries the nugget; the two distinct observations at the
        # same location share only the sill, so V stays non-singular.
        assert V[0, 0] == pytest.approx(2.5)
        assert V[0, 1] == pytest.approx(2.0)
        np.linalg.cholesky(V)

    def test_matern_half_equals_exponential(self):
        me = ErrorModel("matern", sill=1.7, range_=800.0, nu=0.5)
        ex = ErrorModel("exponential", sill=1.7, range_=800.0)
        for d in (1.0, 100.0, 800.0, 5000.0):
            assert cov_value(me, d) == pytest.approx(cov_value(ex, d), rel=1e-10)

    def test_matern_three_halves_closed_form(self):
        m = ErrorModel("matern", sill=2.0, range_=1000.0, nu=1.5)
        for d in (10.0, 500.0, 1500.0):
            a = math.sqrt(3.0) * d / 1000.0
            assert cov_value(m, d) == pytest.approx(
                2.0 * (1 + a) * math.exp(-a), rel=1e-9
            )

    @pytest.mark.parametrize("nu", [1.5, 2.5])
    @pytest.mark.parametrize("h", [1e-300, 1e-206])
    def test_matern_sill_at_vanishing_separation(self, nu, h):
        # K_nu(x) overflows to inf while x**nu underflows to 0 or, at h = 1e-206
        # and nu = 1.5, to a subnormal; the limit there is the sill
        m = ErrorModel("matern", sill=2.5, range_=1000.0, nugget=0.4, nu=nu)
        assert cov_value(m, h * m.range_) == m.sill
        V = cov_matrix(m, np.array([[0.0, 0.0], [h * m.range_, 0.0]]))
        assert V[0, 1] == V[1, 0] == m.sill

    def test_cov_matrix_symmetric_psd(self, rng):
        coords = rng.uniform(0, 5000, size=(12, 2))
        m = ErrorModel("exponential", sill=2.0, range_=1500.0, nugget=0.3)
        V = cov_matrix(m, coords)
        np.testing.assert_allclose(V, V.T)
        assert np.linalg.eigvalsh(V).min() > 0

    def test_independent_is_diagonal(self, rng):
        coords = rng.uniform(0, 5000, size=(6, 2))
        V = cov_matrix(ErrorModel("independent", sill=1.3, nugget=0.2), coords)
        np.testing.assert_allclose(V, np.eye(6) * 1.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ErrorModel("gaussian")

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["independent", "spherical", "exponential", "matern"]),
        st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8),
        st.floats(1e-3, 1e3),
        st.one_of(st.just(0.0), st.floats(1.0, 1e5)),
        st.floats(0.0, 10.0),
        st.sampled_from([0.5, 0.7, 1.5, 2.5, 3.3]),
    )
    def test_entries_equal_closed_form(self, kind, coords, sill, range_, nugget, nu):
        """Every entry equals, bit for bit, the scalar closed form in libm floats."""
        _assert_closed_form(ErrorModel(kind, sill=sill, range_=range_, nugget=nugget, nu=nu),
                            coords)

    @pytest.mark.parametrize("kind, nu", [
        ("spherical", 0.5), ("exponential", 0.5), ("matern", 0.5), ("matern", 1.5),
        ("matern", 0.7),
    ])
    def test_dense_entries_equal_closed_form(self, rng, kind, nu):
        # 1,770 separations, nearly all inside the range, so that a kernel
        # computing exp or pow with numpy's own routines would differ somewhere
        coords = rng.uniform(0, 10_000, size=(60, 2)).tolist()
        _assert_closed_form(ErrorModel(kind, sill=2.5, range_=15_000.0, nugget=0.4, nu=nu),
                            coords)


class TestGls:
    def test_loglik_never_below_ols(self, rng):
        n = 30
        coords = rng.uniform(0, 10000, size=(n, 2))
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([3.0, 1.0]) + rng.normal(size=n)
        ols = fit_ols(X, y, ["b0", "b1"])
        for kind in ("exponential", "spherical"):
            gls = fit_gls(X, y, coords, ["b0", "b1"], kind=kind)
            assert gls.loglik >= ols.loglik - 1e-6

    def test_iid_point_matches_ols_ml(self, rng):
        from scarr.step1 import _gls_nll

        n = 20
        coords = rng.uniform(0, 10000, size=(n, 2))
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, -2.0]) + rng.normal(size=n)
        ols = fit_ols(X, y, ["b0", "b1"])
        s2 = ols.rss / n
        nll = _gls_nll(
            np.log([s2, 1e-6, s2 * 1e-12]), X, y, coords, "exponential", 0.5
        )
        assert -nll == pytest.approx(ols.loglik, abs=1e-6)

    def test_fits_with_duplicate_coordinates(self, rng):
        # Two interval observations per site sit at identical coordinates;
        # the fit must not treat them as one singular pair.
        sites = rng.uniform(0, 10000, size=(15, 2))
        coords = np.repeat(sites, 2, axis=0)
        n = len(coords)
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([2.0, 1.0]) + rng.normal(size=n)
        ols = fit_ols(X, y, ["b0", "b1"])
        gls = fit_gls(X, y, coords, ["b0", "b1"], kind="exponential")
        assert np.all(np.isfinite(gls.beta))
        assert gls.loglik >= ols.loglik - 1e-6

    def test_recovers_correlated_noise_beta(self, rng):
        n = 60
        coords = rng.uniform(0, 8000, size=(n, 2))
        truth = ErrorModel("exponential", sill=4.0, range_=3000.0, nugget=0.5)
        V = cov_matrix(truth, coords)
        L = np.linalg.cholesky(V)
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        beta = np.array([10.0, 2.0])
        y = X @ beta + L @ rng.normal(size=n)
        gls = fit_gls(X, y, coords, ["b0", "b1"], kind="exponential")
        se = gls.se
        assert abs(gls.coef("b1") - 2.0) < 4 * se[1]
        assert gls.error_model.sill > 0

    def test_converged_false_when_optimizer_fails(self, monkeypatch, rng):
        from scarr import step1

        minimize = step1.optimize.minimize

        def failing(*args, **kwargs):
            res = minimize(*args, **kwargs)
            res.success = False
            res.message = "stopped by the test"
            return res

        n = 20
        coords = rng.uniform(0, 10000, size=(n, 2))
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, 0.5]) + rng.normal(size=n)
        assert fit_gls(X, y, coords, ["b0", "b1"]).converged is True
        monkeypatch.setattr(step1.optimize, "minimize", failing)
        fit = fit_gls(X, y, coords, ["b0", "b1"])
        assert fit.converged is False
        assert fit.optimizer_message == "stopped by the test"
        assert math.isfinite(fit.loglik)

    def test_nll_finite_at_infinite_range(self, rng):
        """exp(800) overflows to an infinite range: the fully correlated
        limit, whose likelihood is finite and computed without a warning."""
        import warnings

        from scarr.step1 import _gls_nll

        n = 20
        coords = rng.uniform(0, 10000, size=(n, 2))
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, 0.5]) + rng.normal(size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nll = _gls_nll(np.array([0.0, 800.0, -1.0]), X, y, coords, "exponential", 0.5)
        assert math.isfinite(nll) and nll < 1e12

    def test_requires_three_distinct_locations(self):
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DataError, match="3 distinct"):
            fit_gls(hand_design(), HAND_Y, coords, ["a", "b"])


class TestConfig:
    def test_defaults(self):
        cfg = parse_config(Step1Config, {})
        assert cfg.error_model == "independent"
        assert cfg.alpha == 0.05
        assert cfg.landuse_categories == ("forest",)

    def test_parses_all_keys(self):
        cfg = parse_config(
            Step1Config,
            {
                "error_model": "exponential",
                "alpha": "0.1",
                "use_elevation": "true",
                "use_quadrants": "yes",
                "landuse_categories": "forest developed",
                "landuse_combined": "false",
                "buffer_radii_km": "1 2 3",
                "run_selection": "no",
                "matern_nu": "2.5",
            }
        )
        assert cfg.error_model == "exponential"
        assert cfg.use_elevation and cfg.use_quadrants
        assert cfg.landuse_categories == ("forest", "developed")
        assert not cfg.landuse_combined
        assert cfg.buffer_radii_km == (1.0, 2.0, 3.0)
        assert not cfg.run_selection
        assert cfg.matern_nu == 2.5

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(Step1Config, {"mystery": "1"})

    def test_unknown_error_model(self):
        with pytest.raises(ConfigError):
            parse_config(Step1Config, {"error_model": "gaussian"})

    def test_per_ring_landuse_cannot_reuse_combined_name(self):
        # a first ring of 0-2 km would name its column lu_<cat>_0-2km
        parse_config(Step1Config, {"buffer_radii_km": "2 4 6"})
        with pytest.raises(ConfigError, match="landuse_combined"):
            parse_config(
                Step1Config, {"buffer_radii_km": "2 4 6", "landuse_combined": "false"}
            )

    def test_unknown_landuse_category(self):
        with pytest.raises(ConfigError):
            parse_config(Step1Config, {"landuse_categories": "wetland"})


@pytest.fixture(scope="module")
def design(mini_dataset):
    from scarr.covariates import build_covariates

    ds, _ = mini_dataset
    rows, _ = build_covariates(ds)
    return assemble_design(ds, rows)


class TestAssembleDesign:
    def test_column_order(self, design):
        assert design.names[0] == "intercept"
        assert design.names[1] == "pop_density_10k"
        assert design.names[2:6] == [
            "sin_2pi_dyr", "cos_2pi_dyr", "sin_4pi_dyr", "cos_4pi_dyr",
        ]
        assert design.names[6] == "ttv_0-0.5km"
        assert design.names[-2] == "lu_forest_0-2km"
        assert design.names[-1] == "cmaq"

    def test_intercept_column_is_ones(self, design):
        np.testing.assert_allclose(design.X[:, 0], 1.0)

    def test_shapes_consistent(self, design):
        assert design.X.shape == (len(design.y), len(design.names))
        assert design.coords.shape == (len(design.y), 2)
        assert len(design.site_ids) == len(design.y)

    def test_groups(self, design):
        assert set(design.groups) == {"ttv", "lu_forest"}
        assert design.groups["ttv"][0] == "ttv_0-0.5km"
        assert design.groups["lu_forest"] == ["lu_forest_0-2km"]

    def test_quadrant_design(self, mini_dataset):
        from scarr.covariates import build_covariates

        ds, _ = mini_dataset
        rows, _ = build_covariates(ds)
        d = assemble_design(ds, rows, Step1Config(use_quadrants=True))
        assert "ttv_NE" in d.groups and len(d.groups["ttv_NE"]) == 7
        assert "ttv_NE_0-0.5km" in d.names

    def test_missing_row_dropped_with_warning(self, mini_dataset):
        from scarr.covariates import build_covariates

        ds, _ = mini_dataset
        rows, _ = build_covariates(ds)
        rows[0].cmaq_mean = math.nan
        d = assemble_design(ds, rows)
        assert len(d.y) == len(rows) - 1
        assert any("dropped" in w for w in d.warnings)

    def test_duplicate_intervals_keep_their_own_responses(self, mini_dataset):
        import copy

        from scarr.covariates import build_covariates
        from scarr.data_model import IntervalObservation

        ds, _ = mini_dataset
        first = ds.interval_obs[0]
        twin = IntervalObservation(first.site_id, first.t_start, first.t_end,
                                   first.value + 5.0)
        ds2 = copy.copy(ds)
        ds2.interval_obs = [first, twin]
        rows, _ = build_covariates(ds2)
        d = assemble_design(ds2, rows)
        assert d.X.shape[0] == 2
        np.testing.assert_array_equal(d.X[0], d.X[1])
        assert list(d.y) == [first.value, first.value + 5.0]

    def test_collinearity_report(self, rng):
        x = rng.normal(size=50)
        X = np.column_stack([x, x + 1e-6 * rng.normal(size=50), rng.normal(size=50)])
        pairs = collinearity_report(X, ["a", "b", "c"], threshold=0.85)
        assert [(p[0], p[1]) for p in pairs] == [("a", "b")]


def synthetic_ring_design(rng, n=300, active=(1.0, 0.6), n_rings=4, noise=0.5):
    """Design whose TTV effect is confined to the innermost len(active) rings."""
    labels = BufferSpec((0.5, 1.0, 2.0, 3.0)).ring_labels()[:n_rings]
    names = ["intercept"] + [f"ttv_{lab}" for lab in labels]
    X = np.column_stack([np.ones(n), rng.uniform(0, 5, size=(n, n_rings))])
    beta = np.concatenate([[5.0], active, np.zeros(n_rings - len(active))])
    y = X @ beta + noise * rng.normal(size=n)
    return Design(
        X=X, y=y, names=names, coords=np.zeros((n, 2)),
        site_ids=[f"s{i}" for i in range(n)],
        groups={"ttv": names[1:]}, warnings=[], rank_deficient=False,
    )


class TestBackwardSelection:
    def test_drops_only_outermost(self, rng):
        design = synthetic_ring_design(rng)
        retained, fit = backward_buffer_selection(design, alpha=0.05)
        kept = retained["ttv"]
        # hierarchy: whatever remains must be a prefix of the original ring order
        assert kept == design.groups["ttv"][: len(kept)]
        assert set(fit.names) == {"intercept"} | set(kept)

    def test_strong_inner_rings_survive(self, rng):
        design = synthetic_ring_design(rng, active=(2.0, 1.5), noise=0.1)
        retained, _ = backward_buffer_selection(design, alpha=0.05)
        assert len(retained["ttv"]) >= 2

    def test_null_effects_all_dropped(self, rng):
        design = synthetic_ring_design(rng, active=(), noise=1.0)
        retained, fit = backward_buffer_selection(design, alpha=0.001)
        assert retained["ttv"] == []
        assert fit.names == ["intercept"]


class TestStepFunction:
    def test_heights_match_coefficients(self, rng):
        design = synthetic_ring_design(rng)
        fit = fit_ols(design.X, design.y, design.names)
        sf = dispersion_step_function(fit)
        assert sf.ring_labels == ["0-0.5km", "0.5-1km", "1-2km", "2-3km"]
        np.testing.assert_allclose(sf.heights, fit.beta[1:])

    def test_no_ttv_columns(self):
        fit = fit_ols(hand_design(), HAND_Y, ["intercept", "x"])
        with pytest.raises(DataError):
            dispersion_step_function(fit)

    def test_quadrant_step_functions(self, mini_dataset):
        from scarr.covariates import build_covariates

        ds, _ = mini_dataset
        rows, _ = build_covariates(ds)
        d = assemble_design(ds, rows, Step1Config(use_quadrants=True))
        out = quadrant_step_functions(d)
        assert set(out) == {"NE", "NW", "SW", "SE"}
        for sf in out.values():
            # rings with no traffic in a quadrant are unidentifiable and omitted
            assert 1 <= len(sf.heights) <= 7
            assert len(sf.se) == len(sf.heights)


class TestBiasExports:
    def test_additive_bias_skips_cmaq(self):
        fit = fit_ols(
            np.column_stack([np.ones(4), HAND_X, HAND_X**2]),
            HAND_Y, ["intercept", "z", "cmaq"],
        )
        vals = {"intercept": 1.0, "z": 2.0}
        expected = fit.coef("intercept") + 2.0 * fit.coef("z")
        assert additive_bias_c_tilde(fit, vals) == pytest.approx(expected, rel=1e-12)

    def test_additive_bias_missing_covariate(self):
        fit = fit_ols(hand_design(), HAND_Y, ["intercept", "z"])
        with pytest.raises(DataError, match="missing retained covariate"):
            additive_bias_c_tilde(fit, {"intercept": 1.0})

    def test_gamma_hat(self):
        fit = fit_ols(hand_design(), HAND_Y, ["intercept", "cmaq"])
        assert gamma_hat(fit) == pytest.approx(0.6, rel=1e-12)


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path, rng):
        X = np.column_stack([np.ones(20), rng.normal(size=(20, 2))])
        y = X @ np.array([1.0, 2.0, 3.0]) + rng.normal(size=20)
        fit = fit_ols(X, y, ["intercept", "a", "cmaq"])
        fit.press, fit.rmspe = loocv_press(fit, X, y)
        path = tmp_path / "fit.txt"
        write_step1_fit(fit, str(path), header_lines=["written by test"])
        back = read_step1_fit(str(path))
        assert back.names == fit.names
        np.testing.assert_array_equal(back.beta, fit.beta)
        np.testing.assert_array_equal(back.cov, fit.cov)
        assert back.rss == fit.rss
        assert back.loglik == fit.loglik
        assert back.press == fit.press
        assert back.error_model.kind == "independent"
