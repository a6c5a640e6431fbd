import dataclasses
import hashlib
import math
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.linalg import solve_triangular

from scarr import step1
from scarr.covariates import LANDUSE_CATEGORIES, BufferSpec, build_covariates, covariate_header
from scarr.data_model import parse_config
from scarr.errors import ConfigError, DataError
from scarr.step1 import (
    IID_SHARE,
    LANDUSE_SCALE,
    Design,
    ErrorModel,
    Step1Config,
    additive_bias_c_tilde,
    assemble_design,
    backward_buffer_selection,
    collinearity_report,
    cov_matrix,
    design_columns,
    dispersion_step_function,
    f_test,
    fit_design,
    fit_gls,
    fit_ols,
    gamma_hat,
    loocv_press,
    quadrant_step_functions,
    read_step1_fit,
    write_step1_fit,
)
from scarr.step1 import (
    MATERN_NU_MAX,
    _cov_kernel,
    _GlsProfile,
    _pair_cov,
    _pairs,
    _theta_model,
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

    def test_rank_deficiency_names_all_zero_columns(self):
        X = np.column_stack([np.ones(10), np.zeros(10), np.arange(10.0), np.zeros(10)])
        with pytest.raises(DataError) as err:
            fit_ols(X, np.arange(10.0), ["intercept", "ttv_0-0.5km", "x", "ttv_0.5-1km"])
        assert str(err.value) == ("fit_ols: design is rank deficient (rank 2 < 4); "
                                  "all-zero columns: ttv_0-0.5km ttv_0.5-1km")

    def test_underdetermined_raises(self):
        with pytest.raises(DataError, match="n=2 <= p=2"):
            fit_ols(np.eye(2), np.ones(2), ["a", "b"])

    def test_conf_int_contains_estimate(self):
        """Demo 02's interval, beta-hat +- t se with the t quantile on the
        fit's residual degrees of freedom: on the hand example, 0.6 +-
        4.303 sqrt(0.1 / 5)."""
        fit = fit_ols(hand_design(), HAND_Y, ["intercept", "x"])
        i = fit.names.index("x")
        half = stats.t.ppf(0.975, fit.dof) * fit.se[i]
        lo, hi = fit.beta[i] - half, fit.beta[i] + half
        assert lo < 0.6 < hi
        assert (lo, hi) == pytest.approx((0.6 - 0.60849, 0.6 + 0.60849), abs=1e-5)


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

    def test_leverage_one_row_excluded(self, rng, caplog):
        # an indicator column makes its row's leverage exactly 1
        X = np.column_stack([np.ones(10), rng.normal(size=10), np.eye(10)[:, 0]])
        y = rng.normal(size=10)
        fit = fit_ols(X, y, ["b0", "b1", "ind"])
        p_hat, _ = loocv_press(fit, X, y, method="hat")
        p_ref, _ = loocv_press(fit, X, y, method="refit")
        assert caplog.messages == [
            "warning: loocv_press: 1 row(s) with leverage 1 excluded",
            "warning: loocv_press: row 0 not predictable (leverage 1)",
        ]
        assert p_hat == pytest.approx(p_ref, rel=1e-9)

    def test_unknown_method(self):
        fit = fit_ols(hand_design(), HAND_Y, ["a", "b"])
        with pytest.raises(ConfigError):
            loocv_press(fit, hand_design(), HAND_Y, method="jackknife")


_coord = st.one_of(st.integers(-3, 3).map(lambda k: 1000.0 * k), st.floats(-2e4, 2e4))


@st.composite
def _row_coords(draw):
    """1-10 interval rows at 1-5 site locations, so that rows often share a
    location, as a passive sampler's intervals at one site do."""
    sites = draw(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(sites), min_size=1, max_size=10))
    return np.array(rows, dtype=float)


def _all_pairs_cov(m, coords):
    """The covariance with the kernel run over every upper-triangle row pair:
    the reference for the build from distinct separations."""
    n = len(coords)
    i, j = np.triu_indices(n, 1)
    d = np.hypot(coords[i, 0] - coords[j, 0], coords[i, 1] - coords[j, 1])
    v = np.zeros(len(d))
    if m.kind != "independent":
        same = d == 0.0
        v[same] = m.sill
        v[~same] = _cov_kernel(m, d[~same])
    out = np.empty((n, n))
    out[i, j] = v
    out[j, i] = v
    np.fill_diagonal(out, m.sill + m.nugget)
    return out


def _closed_form(m, d, libm=False):
    """Covariance at a separation d > 0, one value at a time: numpy's ufuncs
    on a one-element array, as the kernel runs them, or, with ``libm``,
    Python floats, whose exp and ``**`` are libm's."""
    if m.range_ == 0:
        return 0.0
    h = d / m.range_ if libm else np.array([d / m.range_])
    if m.kind == "exponential" or (m.kind == "matern" and m.nu == 0.5):
        value = m.sill * (math.exp if libm else np.exp)(-h)
    elif m.kind == "spherical":
        value = 0.0 if h >= 1.0 else m.sill * (1.0 - 1.5 * h + 0.5 * h**3)
    else:
        arg = math.sqrt(2.0 * m.nu) * h
        if arg > 700.0:
            return 0.0
        bessel = special.kv(m.nu, arg)
        if np.isinf(bessel):
            return m.sill  # arg -> 0: the correlation is 1 to double precision
        value = m.sill * (2.0 ** (1.0 - m.nu) / special.gamma(m.nu) * arg**m.nu * bessel)
    return np.asarray(value).item()


def _cov_at(m, d):
    """The covariance at separation d, read from ``cov_matrix``: the entry of
    two observations d apart, or the diagonal at d = 0."""
    V = cov_matrix(m, np.array([[0.0, 0.0], [d, 0.0]]))
    return V[0, 0] if d == 0 else V[0, 1]


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
                assert _cov_at(m, d) == want
                # numpy's exp and power are within 1 ulp of libm's; the bound
                # is absolute, as the spherical polynomial cancels near h = 1
                assert abs(want - _closed_form(m, d, libm=True)) <= 4 * 2.0**-52 * m.sill
            assert V[i, j] == want and V[j, i] == want


class TestCovarianceFunctions:
    def test_nugget_only_at_zero(self):
        m = ErrorModel("exponential", sill=2.0, range_=1000.0, nugget=0.5)
        assert _cov_at(m, 0.0) == pytest.approx(2.5)
        assert _cov_at(m, 1e-9) < 2.0

    def test_exponential_closed_form(self):
        m = ErrorModel("exponential", sill=3.0, range_=500.0)
        assert _cov_at(m, 500.0) == pytest.approx(3.0 * math.exp(-1.0), rel=1e-12)

    def test_spherical_closed_form(self):
        m = ErrorModel("spherical", sill=2.0, range_=1000.0)
        # h = 0.5: 1 - 1.5*0.5 + 0.5*0.125 = 0.3125
        assert _cov_at(m, 500.0) == pytest.approx(2.0 * 0.3125, rel=1e-12)
        assert _cov_at(m, 1000.0) == 0.0
        assert _cov_at(m, 2000.0) == 0.0

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
            assert _cov_at(me, d) == pytest.approx(_cov_at(ex, d), rel=1e-10)

    def test_matern_three_halves_closed_form(self):
        m = ErrorModel("matern", sill=2.0, range_=1000.0, nu=1.5)
        for d in (10.0, 500.0, 1500.0):
            a = math.sqrt(3.0) * d / 1000.0
            assert _cov_at(m, d) == pytest.approx(
                2.0 * (1 + a) * math.exp(-a), rel=1e-9
            )

    @pytest.mark.parametrize("nu", [1.5, 2.5])
    @pytest.mark.parametrize("h", [1e-300, 1e-206])
    def test_matern_sill_at_vanishing_separation(self, nu, h):
        # K_nu(x) overflows to inf while x**nu underflows to 0 or, at h = 1e-206
        # and nu = 1.5, to a subnormal; the limit there is the sill
        m = ErrorModel("matern", sill=2.5, range_=1000.0, nugget=0.4, nu=nu)
        assert _cov_at(m, h * m.range_) == m.sill
        V = cov_matrix(m, np.array([[0.0, 0.0], [h * m.range_, 0.0]]))
        assert V[0, 1] == V[1, 0] == m.sill

    @pytest.mark.parametrize("kind", ["spherical", "exponential", "matern"])
    def test_subnormal_range_is_uncorrelated_without_warning(self, kind):
        # d / range overflows to inf (and, at d = 0.01, sqrt(3) d / range
        # does): the limit there is correlation 0
        m = ErrorModel(kind, sill=2.5, range_=1e-310, nugget=0.4, nu=1.5)
        coords = np.array([[0.0, 0.0], [1000.0, 0.0], [0.01, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            V = cov_matrix(m, coords)
        np.testing.assert_array_equal(V, np.eye(3) * (m.sill + m.nugget))

    def test_matern_smoothness_up_to_the_kernel_limit(self):
        """The kernel evaluates x**nu out to its x = 700 cut-off, which
        overflows a double above nu = 108.3: up to ``MATERN_NU_MAX`` every
        separation gives a finite value, and a larger smoothness is
        rejected."""
        for nu in (1.5, 100.0, MATERN_NU_MAX):
            m = ErrorModel("matern", sill=2.0, range_=1.0, nu=nu)
            d = np.array([1e-3, 1.0, 10.0, 699.0, 700.0]) / math.sqrt(2.0 * nu)
            v = _cov_kernel(m, d)
            assert np.isfinite(v).all() and (v >= 0).all() and v[0] > v[-1]
        for nu in (math.nextafter(MATERN_NU_MAX, math.inf), 120.0):
            with pytest.raises(ConfigError, match="<= 100"):
                ErrorModel("matern", nu=nu)

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

    @pytest.mark.parametrize("field, value, valid", [
        ("sill", math.nan, False), ("sill", math.inf, False), ("sill", 0.0, False),
        ("nugget", math.nan, False), ("nugget", math.inf, False), ("nugget", -1.0, False),
        ("range_", math.nan, False), ("range_", -1.0, False), ("range_", math.inf, True),
    ])
    def test_fields_are_checked(self, field, value, valid):
        """A finite sill > 0, a finite nugget >= 0 and a range >= 0, which
        may be infinite: the fully correlated limit."""
        if valid:
            assert getattr(ErrorModel("exponential", **{field: value}), field) == value
        else:
            with pytest.raises(ConfigError, match="error model requires"):
                ErrorModel("exponential", **{field: value})

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
        """Every entry equals, bit for bit, the closed form on a one-element
        array, and the closed form in libm floats to within 4 2^-52 sill."""
        _assert_closed_form(ErrorModel(kind, sill=sill, range_=range_, nugget=nugget, nu=nu),
                            coords)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["independent", "spherical", "exponential", "matern"]),
        _row_coords(),
        st.floats(1e-3, 1e3),
        st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, math.inf]), st.floats(1.0, 1e5)),
        st.floats(0.0, 10.0),
        st.sampled_from([0.5, 0.7, 1.5, 2.5]),
    )
    @example("exponential", np.array([[0.0, 0.0]]), 1.0, 1000.0, 0.5, 0.5)
    @example("matern", np.array([[5.0, 5.0], [5.0, 5.0]]), 2.0, math.inf, 0.0, 1.5)
    @example("matern", np.array([[0.0, 0.0], [0.01, 0.0]]), 2.0, 5e-324, 0.1, 2.5)
    @example("spherical", np.array([[0.0, 0.0], [700.0, 0.0], [0.0, 0.0]]), 1.5, 0.0, 0.2,
             0.5)
    def test_distinct_separations_build_the_all_pairs_matrix(self, kind, coords, sill,
                                                             range_, nugget, nu):
        """The covariance built from the distinct separations equals, byte for
        byte, the kernel run over every row pair; the kernel sees each distinct
        nonzero separation exactly once."""
        m = ErrorModel(kind, sill=sill, range_=range_, nugget=nugget, nu=nu)
        want = _all_pairs_cov(m, coords)
        seen = []

        def recording(model, d):
            seen.append(d.copy())
            return _cov_kernel(model, d)

        with mock.patch.object(step1, "_cov_kernel", recording):
            got = _pair_cov(m, _pairs(coords))
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous
        if kind == "independent":
            assert seen == []
            return
        i, j = np.triu_indices(len(coords), 1)
        d = np.hypot(coords[i, 0] - coords[j, 0], coords[i, 1] - coords[j, 1])
        assert len(seen) == 1
        assert sorted(seen[0].tolist()) == sorted(set(d[d != 0].tolist()))

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([("spherical", 0.5), ("exponential", 0.5), ("matern", 0.5),
                         ("matern", 1.5), ("matern", 2.5), ("matern", 0.7)]),
        st.lists(st.tuples(st.floats(1e-3, 1e3),
                           st.one_of(st.sampled_from([0.0, 5e-324, math.inf]),
                                     st.floats(1.0, 1e5))),
                 min_size=1, max_size=8),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.integers(1, 3),
        st.integers(0, 7),
    )
    def test_kernel_rows_equal_models_alone(self, kind_nu, models, size, seed, tiny, stride,
                                            offset):
        """The last model, placed at every position among the others, and
        each of the others get, over a strided view of the separations, the
        bytes that each gets alone over a contiguous copy: numpy's exp and
        power give a value the same bits wherever it lies in the array.  A
        tiny separation is one where K_nu overflows."""
        kind, nu = kind_nu
        d = np.random.default_rng(seed).uniform(1e-3, 5e4, size=size)
        if tiny:
            d[0] = 1e-300
        view = np.full(offset + stride * size, np.nan)[offset::stride]
        view[:] = d
        *others, last = models
        for position in range(len(models)):
            batch = others[:position] + [last] + others[position:]
            model = ErrorModel(kind, nu=nu)
            model.sill, model.range_ = np.hsplit(np.array(batch), 2)
            got = _cov_kernel(model, view)
            for row, (sill, range_) in zip(got, batch):
                alone = _cov_kernel(ErrorModel(kind, sill=sill, range_=range_, nu=nu), d)
                assert row.tobytes() == alone.tobytes()

    def test_pairs_index_the_row_pair_separations(self):
        """Two intervals at each of three sites: 15 row pairs, 4 distinct
        separations (0 and the three site pairs)."""
        sites = np.array([[0.0, 0.0], [3000.0, 0.0], [0.0, 4000.0]])
        coords = np.repeat(sites, 2, axis=0)
        pairs = _pairs(coords)
        assert pairs.d.tolist() == [0.0, 3000.0, 4000.0, 5000.0]
        assert pairs.index.shape == (6, 6)
        np.testing.assert_array_equal(pairs.index, pairs.index.T)
        assert set(np.diag(pairs.index).tolist()) == {len(pairs.d)}
        assert pairs.index[0, 1] == 0 and pairs.index[0, 5] == 2 and pairs.index[3, 4] == 3

    @pytest.mark.parametrize("kind, nu", [
        ("spherical", 0.5), ("exponential", 0.5), ("matern", 0.5), ("matern", 1.5),
        ("matern", 0.7),
    ])
    def test_dense_entries_equal_closed_form(self, rng, kind, nu):
        # 1,770 separations, nearly all inside the range, so that numpy's exp
        # or power differs from libm's at some of them
        coords = rng.uniform(0, 10_000, size=(60, 2)).tolist()
        _assert_closed_form(ErrorModel(kind, sill=2.5, range_=15_000.0, nugget=0.4, nu=nu),
                            coords)


def _dense_nll(model, X, y, coords):
    """-loglik of GLS at ``model`` from the dense covariance, beta at its GLS
    estimate: the reference for the profiled likelihood."""
    V = cov_matrix(model, coords)
    ViX, Viy = np.linalg.solve(V, X), np.linalg.solve(V, y)
    beta = np.linalg.solve(X.T @ ViX, X.T @ Viy)
    r = y - X @ beta
    _, logdet = np.linalg.slogdet(V)
    return 0.5 * (len(y) * math.log(2 * math.pi) + logdet + r @ np.linalg.solve(V, r))


_GLS_COORDS = np.random.default_rng(3).uniform(0, 10_000, size=(25, 2))
_GLS_X = np.column_stack([np.ones(25), np.random.default_rng(4).normal(size=25)])
_GLS_Y = _GLS_X @ np.array([2.0, -1.0]) + np.random.default_rng(5).normal(size=25)


def _profile_by_solve_triangular(theta, Xy, coords, kind, nu):
    """(-loglik, sigma2-hat) as ``_GlsProfile`` defines them, whitened by
    ``solve_triangular``: the reference for its direct LAPACK call."""
    n = len(Xy)
    try:
        L = np.linalg.cholesky(cov_matrix(_theta_model(theta, kind, nu), coords))
    except np.linalg.LinAlgError:
        return 1e12, math.nan
    rss = float(np.linalg.qr(solve_triangular(L, Xy, lower=True), mode="r")[-1, -1]) ** 2
    s2 = max(rss / n, 1e-300)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return 0.5 * (n * (math.log(2 * math.pi) + math.log(s2) + 1.0) + logdet), s2


def _outcome(fn, *args):
    """The bytes of what ``fn(*args)`` returns, or the type and text of what
    it raises."""
    try:
        return np.array(fn(*args), dtype=float).tobytes()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def _whiten_case(n, k):
    """Coordinates with two interval rows at each of n / 2 sites, as a passive
    sampler's are, and an n x k [X | y] whose X has an intercept."""
    coords = np.repeat(np.random.default_rng(6).uniform(0, 10_000, size=(n // 2, 2)), 2, axis=0)
    return coords, np.column_stack([np.ones(n), np.random.default_rng(7).normal(size=(n, k - 1))])


_WHITEN_COORDS, _WHITEN_XY = _whiten_case(24, 3)


#: Seed s of a basin-gate design of one kind draws from default_rng(offset + s).
BASIN_SEED_OFFSET = {"exponential": 0, "matern": 100, "spherical": 200}
#: Basin-gate designs per kind that tier-1 fits: all 48 that basin_gate.csv records.
BASIN_SEEDS = 48


def _gate_design(kind, seed):
    """(X, y, coords) of a basin-gate design: 40 sites in a 20 km square, an
    intercept and two normal covariates, and errors of sill 2, range 6 km
    and nugget 0.5 in the ``kind`` family (Matern nu = 1.5).  The truth's
    covariance is built here, not by ``cov_matrix``, so that a change to
    the kernel's last bits leaves the design as it was."""
    rng = np.random.default_rng(BASIN_SEED_OFFSET[kind] + seed)
    n = 40
    coords = rng.uniform(0, 20_000, size=(n, 2))
    h = np.hypot(*(coords[:, None, :] - coords[None, :, :]).transpose(2, 0, 1)) / 6000.0
    if kind == "exponential":
        corr = np.exp(-h)
    elif kind == "spherical":
        corr = np.where(h < 1.0, 1.0 - 1.5 * h + 0.5 * h**3, 0.0)
    else:
        a = math.sqrt(3.0) * h
        corr = (1.0 + a) * np.exp(-a)
    V = 2.0 * corr + 0.5 * np.eye(n)
    X = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    y = X @ np.array([1.0, 0.5, -1.0]) + np.linalg.cholesky(V) @ rng.normal(size=n)
    return X, y, coords


def _gate_fit(kind, seed):
    X, y, coords = _gate_design(kind, seed)
    return fit_gls(X, y, coords, ["b0", "b1", "b2"], kind=kind, nu=1.5)


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
        n = 20
        coords = rng.uniform(0, 10000, size=(n, 2))
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, -2.0]) + rng.normal(size=n)
        ols = fit_ols(X, y, ["b0", "b1"])
        # a range of 1e-6 m leaves distinct sites uncorrelated: R = I
        nll, s2 = _GlsProfile(np.column_stack([X, y]), _pairs(coords), "exponential",
                              0.5)(np.array([math.log(1e-6), math.log(1e12)]))
        assert -nll == pytest.approx(ols.loglik, abs=1e-6)
        assert s2 == pytest.approx(ols.rss / n, rel=1e-9)

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
        bfgs = step1._bfgs

        def failing(*args, **kwargs):
            res = yield from bfgs(*args, **kwargs)
            return res._replace(success=False, message="stopped by the test")

        n = 20
        coords = rng.uniform(0, 10000, size=(n, 2))
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, 0.5]) + rng.normal(size=n)
        assert fit_gls(X, y, coords, ["b0", "b1"]).converged is True
        monkeypatch.setattr(step1, "_bfgs", failing)
        fit = fit_gls(X, y, coords, ["b0", "b1"])
        assert fit.converged is False
        assert fit.optimizer_message == "stopped by the test"
        assert math.isfinite(fit.loglik)

    def test_nll_finite_at_infinite_range(self, rng):
        """exp(800) overflows to an infinite range: the fully correlated
        limit, whose likelihood is finite and computed without a warning."""
        n = 20
        coords = rng.uniform(0, 10000, size=(n, 2))
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([1.0, 0.5]) + rng.normal(size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nll, s2 = _GlsProfile(np.column_stack([X, y]), _pairs(coords), "exponential",
                                  0.5)(np.array([800.0, 1.0]))
        assert math.isfinite(nll) and nll < 1e12 and s2 > 0

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(math.log(10.0), math.log(1e5)),
        st.floats(1e-6, 0.999),
        st.floats(1e-3, 1e3),
        st.sampled_from([("spherical", 0.5), ("exponential", 0.5), ("matern", 1.5),
                         ("matern", 2.5)]),
    )
    def test_profile_is_dense_loglik_maximised_over_scale(self, log_range, share, sigma2,
                                                          kind_nu):
        """The profiled -loglik equals the dense one at sigma2-hat and is at
        most the dense one at any other scale."""
        kind, nu = kind_nu
        X, y, coords = _GLS_X, _GLS_Y, _GLS_COORDS
        theta = np.array([log_range, math.log(share / (1.0 - share))])
        nll, s2 = _GlsProfile(np.column_stack([X, y]), _pairs(coords), kind, nu)(theta)
        rng_ = math.exp(log_range)

        def dense(scale):
            return _dense_nll(ErrorModel(kind, sill=scale * share, range_=rng_,
                                         nugget=scale * (1.0 - share), nu=nu), X, y, coords)

        assert nll == pytest.approx(dense(s2), rel=1e-9)
        assert nll <= dense(sigma2) + 1e-9 * abs(nll)

    def test_start_ranges_come_from_every_row_pair(self, monkeypatch, rng):
        """The start ranges scale with the median and least positive
        separation over every row pair, not over the distinct separations.
        With five rows at one site, the row-pair median (5 km) is not the
        distinct one (6.7 km)."""
        bfgs, x0 = step1._bfgs, []

        def recording(theta0, **kwargs):
            x0.append(theta0[0])
            return bfgs(theta0, **kwargs)

        sites = np.array([[0.0, 0.0], [1000.0, 0.0], [0.0, 5000.0], [8000.0, 8000.0]])
        coords = sites[[0, 0, 0, 0, 0, 1, 2, 3]]
        X = np.column_stack([np.ones(8), rng.normal(size=8)])
        y = X @ np.array([1.0, 0.5]) + rng.normal(size=8)
        monkeypatch.setattr(step1, "_bfgs", recording)
        fit_gls(X, y, coords, ["b0", "b1"])
        assert x0 == [math.log(1000.0 * 1e-6), math.log(0.25 * 5000.0), math.log(5000.0),
                      math.log(2.0 * 5000.0), math.log(0.5 * 5000.0), math.log(5000.0)]

    @pytest.mark.parametrize("kind, nu, n, k", [
        pytest.param(kind, nu, n, k, id=f"{kind}-{nu}{shape}")
        for n, k, shape in ((24, 3, ""), (6, 6, "-square"), (40, 16, "-40x16"))
        for kind, nu in (("spherical", 0.5), ("exponential", 0.5), ("matern", 1.5),
                         ("matern", 2.5))
    ])
    def test_whitening_equals_solve_triangular(self, kind, nu, n, k):
        """The same (-loglik, sigma2-hat) bits as whitening by
        ``solve_triangular`` and factoring by ``np.linalg.qr``, over ranges
        from 0 to infinite and shares from the pure nugget to a singular,
        nugget-free covariance (the penalty).  [X | y] is tall, square (the
        smallest design ``fit_ols`` accepts) or the size of a 20-site,
        15-column design."""
        coords, Xy = _whiten_case(n, k)
        profile = _GlsProfile(Xy, _pairs(coords), kind, nu)
        for log_range in (-800.0, math.log(1e-6), math.log(500.0), math.log(3000.0),
                          math.log(1e5), 800.0):
            for logit_share in (-20.0, -2.0, 0.0, 2.0, 20.0, 800.0):
                theta = np.array([log_range, logit_share])
                want = _outcome(_profile_by_solve_triangular, theta, Xy, coords, kind, nu)
                assert _outcome(profile, theta) == want
        assert profile(np.array([0.0, 800.0]))[0] == 1e12

    @pytest.mark.parametrize("theta, xy, kernel", [
        ((math.nan, 0.0), None, None), ((0.0, math.nan), None, None),
        (None, math.nan, None), (None, math.inf, None), (None, None, math.inf),
    ])
    def test_non_finite_input_fails_as_solve_triangular(self, monkeypatch, theta, xy, kernel):
        """The inputs on which ``solve_triangular``'s finiteness check raises.
        A NaN parameter (a NaN covariance), or a kernel that returns inf (a
        covariance that Cholesky rejects or factors into non-finite
        entries), does not factor: (1e12, NaN).  A non-finite response
        never reaches the profile: ``fit_gls`` raises ``DataError``."""
        if kernel is not None:
            monkeypatch.setattr(step1, "_cov_kernel", lambda model, d: np.full(len(d), kernel))
        theta = np.array(theta or (math.log(3000.0), 0.0))
        Xy = _WHITEN_XY.copy()
        if xy is not None:
            Xy[5, -1] = xy
            with pytest.raises(DataError, match="non-finite"):
                fit_gls(Xy[:, :-1], Xy[:, -1], _WHITEN_COORDS, ["b0", "b1"])
            return
        got = _GlsProfile(Xy, _pairs(_WHITEN_COORDS), "exponential", 0.5)(theta)
        assert np.array(got).tobytes() == np.array([1e12, math.nan]).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([("independent", 0.5), ("spherical", 0.5), ("exponential", 0.5),
                         ("matern", 1.5), ("matern", 2.5), ("matern", 0.7)]),
        st.integers(4, 12),  # at least k rows, as ``fit_ols`` requires
        st.booleans(),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.floats(-800.0, 800.0), st.floats(-800.0, 800.0)),
                 min_size=1, max_size=4),
    )
    def test_per_fit_profile_equals_solve_triangular(self, kind_nu, sites, repeated, k, seed,
                                                     thetas):
        """One profile, set up once for a design and evaluated at several
        random theta in turn, gives at each the bytes, or the exception, of
        the reference that builds the covariance from the coordinates and
        whitens by ``solve_triangular``.  The design has two rows at each
        site (a zero separation) or one row per site (none)."""
        kind, nu = kind_nu
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, 10_000, size=(sites, 2))
        if repeated:
            coords = np.repeat(coords, 2, axis=0)
        n = len(coords)
        Xy = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        profile = _GlsProfile(Xy, _pairs(coords), kind, nu)
        for theta in thetas:
            theta = np.array(theta)
            want = _outcome(_profile_by_solve_triangular, theta, Xy, coords, kind, nu)
            assert _outcome(profile, theta) == want

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([("independent", 0.5), ("spherical", 0.5), ("exponential", 0.5),
                         ("matern", 1.5), ("matern", 2.5), ("matern", 0.7)]),
        st.integers(4, 12),
        st.booleans(),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
        st.lists(st.one_of(st.tuples(st.floats(-800.0, 800.0), st.floats(-800.0, 800.0)),
                           st.just((0.0, 800.0)),
                           st.tuples(st.just(math.nan), st.floats(-800.0, 800.0)),
                           st.tuples(st.floats(-800.0, 800.0), st.just(math.nan))),
                 min_size=1, max_size=8),
    )
    @example(("exponential", 0.5), 6, True, 3, 0, [(0.0, 0.0), (math.nan, 0.0), (1.0, math.nan)])
    def test_batch_equals_one_at_a_time(self, kind_nu, sites, repeated, k, seed, thetas):
        """A batch gives each member the bytes that the reference gives it
        alone.  A sill share of 1 (logit 800) with two rows at a site is a
        covariance that does not factor; a NaN in either coordinate of theta
        (a NaN covariance, which the reference cannot build) gives
        (1e12, NaN).  The range does not enter an independent covariance, so
        for that kind the reference takes log range 0 in place of a NaN."""
        kind, nu = kind_nu
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0, 10_000, size=(sites, 2))
        if repeated:
            coords = np.repeat(coords, 2, axis=0)
        n = len(coords)
        Xy = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        thetas = [np.array(theta) for theta in thetas]
        want = []
        for theta in thetas:
            if kind == "independent":
                theta = np.array([0.0, theta[1]])
            want.append(np.array([1e12, math.nan]).tobytes() if np.isnan(theta).any()
                        else _outcome(_profile_by_solve_triangular, theta, Xy, coords, kind, nu))
        got = _outcome(_GlsProfile(Xy, _pairs(coords), kind, nu).batch, thetas)
        assert got == b"".join(want)

    @pytest.mark.parametrize("kind, nu", [("spherical", 0.5), ("exponential", 0.5),
                                          ("matern", 1.5), ("matern", 2.5), ("matern", 0.7)])
    def test_batch_with_a_member_that_does_not_factor(self, kind, nu):
        """One singular, nugget-free covariance in the batch (two rows at
        each site, sill share 1) gets the penalty alone; the stack is then
        factored member by member, and the others keep their bytes."""
        profile = _GlsProfile(_WHITEN_XY, _pairs(_WHITEN_COORDS), kind, nu)
        thetas = [np.array([math.log(3000.0), 0.0]), np.array([0.0, 800.0]),
                  np.array([math.log(500.0), -2.0]), np.array([math.log(1e5), 2.0])]
        got = profile.batch(thetas)
        assert got[1][0] == 1e12 and math.isnan(got[1][1])
        for theta, value in zip(thetas, got):
            want = _profile_by_solve_triangular(theta, _WHITEN_XY, _WHITEN_COORDS, kind, nu)
            assert np.array(value).tobytes() == np.array(want).tobytes()
            assert np.array(profile(theta)).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("repeated", [True, False], ids=["two-rows-per-site", "one-row"])
    @pytest.mark.parametrize("kind, nu", [("spherical", 0.5), ("exponential", 0.5),
                                          ("matern", 0.7), ("matern", 1.5), ("matern", 2.5),
                                          ("independent", 0.5)])
    def test_score_equals_central_differences(self, kind, nu, repeated):
        """The score of ``batch(thetas, score=True)`` equals central
        differences of -loglik (step 1e-5) in both coordinates, over short
        and long ranges and low and high shares, on a design with two rows
        at each site (a zero separation) and on one with one row per site.
        The spherical kernel's curvature jumps at h = 1, so no separation
        lies within 1e-3 of a range.  The value and sigma2-hat keep the bits
        of ``batch(thetas)``, and a member that does not factor has no
        score."""
        rng = np.random.default_rng(11)
        coords = rng.uniform(0, 10_000, size=(9, 2))
        if repeated:
            coords = np.repeat(coords, 2, axis=0)
        n = len(coords)
        Xy = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        profile = _GlsProfile(Xy, _pairs(coords), kind, nu)
        thetas = [[math.log(r), logit] for r in (700.0, 3100.0, 23_000.0)
                  for logit in (-3.0, 0.4, 2.5)]
        got = profile.batch(thetas, score=True)
        assert [value[:2] for value in got] == profile.batch(thetas)
        step = 1e-5
        for theta, (_, _, score) in zip(thetas, got):
            if kind == "spherical":
                assert np.min(np.abs(_pairs(coords).positive / math.exp(theta[0]) - 1.0)) > 1e-3
            want = []
            for j in range(2):
                up, down = list(theta), list(theta)
                up[j] += step
                down[j] -= step
                want.append((profile(up)[0] - profile(down)[0]) / (2.0 * step))
            np.testing.assert_allclose(score, want, rtol=1e-6, atol=1e-7)
        if repeated and kind != "independent":  # sill share 1: R does not factor
            nll, _, score = profile.batch([[0.0, 800.0]], score=True)[0]
            assert nll == 1e12 and score is None

    def test_loglik_is_dense_loglik_at_fitted_model(self, rng):
        """The fitted -loglik is the dense likelihood of the fitted model,
        off the pure-nugget boundary.  The spherical and Matern optima are
        interior; the exponential one has a vanishing nugget, as
        ``test_nugget_free_optimum_is_reached``'s does."""
        n = 40
        coords = rng.uniform(0, 8000, size=(n, 2))
        truth = ErrorModel("exponential", sill=4.0, range_=3000.0, nugget=0.5)
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = X @ np.array([10.0, 2.0]) + np.linalg.cholesky(cov_matrix(truth, coords)) @ \
            rng.normal(size=n)
        for kind, nu in (("exponential", 0.5), ("spherical", 0.5), ("matern", 1.5)):
            gls = fit_gls(X, y, coords, ["b0", "b1"], kind=kind, nu=nu)
            em = gls.error_model
            share = em.sill / (em.sill + em.nugget)
            assert IID_SHARE < share
            assert (em.nugget < 1e-9 * em.sill) if kind == "exponential" else (share < 1.0)
            assert -gls.loglik == pytest.approx(_dense_nll(gls.error_model, X, y, coords),
                                                rel=1e-9)

    def test_pure_nugget_fit_keeps_sill_positive(self, mini_dataset, caplog):
        """A simulated design that fits at the pure-nugget boundary, as the
        bundled data/mini does: the sill share is tiny but positive, and the
        log says the range is not identified."""
        ds, _ = mini_dataset
        cfg = Step1Config(error_model="exponential", run_selection=False)
        design = assemble_design(ds, build_covariates(ds, cfg.buffer_spec), cfg)
        with caplog.at_level("INFO", logger="scarr.step1"):
            gls = fit_gls(design.X, design.y, design.coords, design.names)
        em = gls.error_model
        assert 0.0 < em.sill < IID_SHARE * (em.sill + em.nugget)
        assert ErrorModel(**dataclasses.asdict(em)) == em
        assert gls.loglik >= fit_ols(design.X, design.y, design.names).loglik - 1e-9
        (line,) = [r.getMessage() for r in caplog.records if "GLS:" in r.getMessage()]
        assert line.endswith("range not identified"), line
        assert _theta_model(np.array([0.0, -1e6]), "exponential", 0.5).sill > 0.0

    @pytest.mark.parametrize("logit", [-40.0, 40.0, -1e6, 1e6])
    def test_shares_keep_their_digits_in_both_tails(self, logit):
        """Sill and nugget shares are each computed from the logit, so the
        smaller one is e^-|logit| to full precision, and never exactly 0."""
        em = _theta_model(np.array([0.0, logit]), "exponential", 0.5)
        small, large = sorted((em.sill, em.nugget))
        assert large == 1.0
        assert small > 0.0
        if abs(logit) < 700:
            assert small == pytest.approx(math.exp(-abs(logit)), rel=1e-15)

    def test_nugget_free_optimum_is_reached(self):
        """Matern gate design 8, whose ML fit has a vanishing nugget (range
        about 1 km, -loglik 56.3594).  The four interior starts all end in
        another basin (range 4.4 km, sill share 0.39, -loglik 56.9020) and
        the iid-equivalent one at the boundary (-loglik 58.5781); the
        nugget-free start reaches the optimum."""
        gls = _gate_fit("matern", 8)
        em = gls.error_model
        assert gls.loglik > -56.36
        assert em.nugget < 1e-9 * em.sill
        assert em.range_ == pytest.approx(1018.0, rel=1e-3)

    def test_requires_three_distinct_locations(self):
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DataError, match="3 distinct"):
            fit_gls(hand_design(), HAND_Y, coords, ["a", "b"])

    @pytest.mark.parametrize("part, index, value", [
        ("X", (5, 1), math.nan), ("y", 5, math.nan), ("y", 5, math.inf),
        ("coords", (5, 0), math.nan),
    ])
    def test_non_finite_number_raises_where_it_enters(self, part, index, value):
        """A non-finite entry of the design, the response or a site
        coordinate raises ``DataError`` in ``fit_ols``, which takes no
        coordinates, and in ``fit_gls``."""
        arrays = {"X": _WHITEN_XY[:, :-1].copy(), "y": _WHITEN_XY[:, -1].copy(),
                  "coords": _WHITEN_COORDS.copy()}
        arrays[part][index] = value
        X, y, coords = arrays["X"], arrays["y"], arrays["coords"]
        if part != "coords":
            with pytest.raises(DataError, match="non-finite"):
                fit_ols(X, y, ["b0", "b1"])
        with pytest.raises(DataError, match="non-finite"):
            fit_gls(X, y, coords, ["b0", "b1"])


@pytest.mark.parametrize("kind", sorted(BASIN_SEED_OFFSET))
def test_basin_gate(kind):
    """No GLS fit of a gate design ends with a loglik more than 1e-9 below
    the one recorded in basin_gate.csv, where -loglik is kept by repr as
    the fit gave it while the kernel's exp and pow were libm's: a change to
    the search or to the likelihood's arithmetic may move the last digits,
    never the basin.  All 144 designs run."""
    with open(os.path.join(os.path.dirname(__file__), "basin_gate.csv")) as fh:
        recorded = {(row[0], int(row[1])): float(row[2])
                    for row in (line.strip().split(",") for line in fh.readlines()[1:])}
    worse = []
    for seed in range(BASIN_SEEDS):
        nll = -_gate_fit(kind, seed).loglik
        if nll > recorded[kind, seed] + 1e-9:
            worse.append((seed, nll, recorded[kind, seed]))
    assert worse == []


#: SHA-256 of beta, cov(beta), -loglik, sill, range and nugget, as float64
#: bytes, of the GLS fit of exponential gate design 10: sill share 0.79 and
#: range 4.8 km, off the pure-nugget boundary, so that the kernel's last bits
#: reach the fitted digits.
INTERIOR_FIT_DIGEST = "f490bee2a4987a6f330af28563f210590d1efaa97df0e0e48d4a383ede39b4bf"


def test_interior_gls_fit_is_pinned():
    fit = _gate_fit("exponential", 10)
    em = fit.error_model
    assert 0.7 < em.sill / (em.sill + em.nugget) < 0.9
    body = np.concatenate([fit.beta, fit.cov.ravel(), [-fit.loglik, em.sill, em.range_,
                                                       em.nugget]])
    assert hashlib.sha256(body.tobytes()).hexdigest() == INTERIOR_FIT_DIGEST


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

    def test_per_ring_landuse_keeps_apart_from_the_total(self, mini_dataset):
        # a first ring of 0-2 km is named as in covariates.csv; the total
        # over the land-use rings is named from the third radius
        cfg = parse_config(
            Step1Config, {"buffer_radii_km": "2 4 6", "landuse_combined": "false"}
        )
        spec = cfg.buffer_spec
        ds, _ = mini_dataset
        table = build_covariates(ds, spec)
        cols = design_columns(table, table["season"].T, spec)
        forest = table["lu_area"]["forest"]
        assert (forest[:, 1:] > 0).any()
        assert spec.landuse_total("forest") == "lu_forest_0-6km"
        assert "lu_forest_0-2km" in covariate_header(spec)
        np.testing.assert_array_equal(cols["lu_forest_0-2km"], forest[:, 0] / LANDUSE_SCALE)
        np.testing.assert_array_equal(cols["lu_forest_0-6km"],
                                      forest.sum(axis=1) / LANDUSE_SCALE)
        design = assemble_design(ds, table, cfg)
        assert design.groups["lu_forest"] == ["lu_forest_0-2km", "lu_forest_2-4km",
                                              "lu_forest_4-6km"]

    def test_matern_needs_finite_smoothness(self):
        with pytest.raises(ConfigError, match="finite"):
            ErrorModel("matern", nu=math.inf)
        with pytest.raises(ConfigError, match="finite"):
            parse_config(Step1Config, {"error_model": "matern", "matern_nu": "inf"})

    def test_unknown_landuse_category(self):
        with pytest.raises(ConfigError):
            parse_config(Step1Config, {"landuse_categories": "wetland"})


@pytest.fixture(scope="module")
def design(mini_dataset):
    from scarr.covariates import build_covariates

    ds, _ = mini_dataset
    table = build_covariates(ds)
    return assemble_design(ds, table)


@pytest.mark.parametrize("radii", [(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0), (2.0, 4.0, 6.0),
                                   (0.25, 1.0, 2.0, 3.0)])
def test_ring_columns_are_the_buffer_spec_groups(radii):
    spec = BufferSpec(radii)
    n, r = 2, len(radii)
    static = {
        "pop_density": np.zeros(n), "elevation": np.zeros(n), "ttv": np.zeros((n, r)),
        "ttv_quadrant": np.zeros((n, 4, r)),
        "lu_area": {cat: np.zeros((n, 3)) for cat in LANDUSE_CATEGORIES},
    }
    cols = set(design_columns(static, np.zeros(4), spec))
    rings = cols - {"intercept", "pop_density_10k", "elevation_m", "sin_2pi_dyr",
                    "cos_2pi_dyr", "sin_4pi_dyr", "cos_4pi_dyr"}
    grouped = [name for names in spec.groups().values() for name in names]
    totals = [spec.landuse_total(cat) for cat in LANDUSE_CATEGORIES]
    assert len(set(grouped + totals)) == len(grouped + totals)
    assert rings == set(grouped + totals)


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

    def test_groups(self, design):
        assert set(design.groups) == {"ttv", "lu_forest"}
        assert design.groups["ttv"][0] == "ttv_0-0.5km"
        assert design.groups["lu_forest"] == ["lu_forest_0-2km"]

    def test_quadrant_design(self, mini_dataset):
        from scarr.covariates import build_covariates

        ds, _ = mini_dataset
        table = build_covariates(ds)
        d = assemble_design(ds, table, Step1Config(use_quadrants=True))
        assert "ttv_NE" in d.groups and len(d.groups["ttv_NE"]) == 7
        assert "ttv_NE_0-0.5km" in d.names

    def test_missing_row_dropped_with_warning(self, mini_dataset, caplog):
        from scarr.covariates import build_covariates

        ds, _ = mini_dataset
        table = build_covariates(ds)
        table["cmaq_mean"][0] = math.nan
        d = assemble_design(ds, table)
        assert len(d.y) == len(table["response"]) - 1
        assert any("dropped" in w for w in caplog.messages)

    def test_rows_equal_one_site_at_a_time(self, mini_dataset):
        """Each row of the array-built design has the bits of the per-row
        reference: one site's ``site_static_covariates``, one interval's
        seasonal basis and gridded-model mean, through ``design_columns``."""
        from scarr import covariates as cov
        from scarr.data_model import interval_mean
        from scarr.step1 import design_columns

        ds, _ = mini_dataset
        cfg = Step1Config(use_elevation=True, use_quadrants=True, landuse_combined=False,
                          landuse_categories=("forest", "developed"),
                          buffer_radii_km=(0.4, 0.9, 1.7, 2.6, 3.5))
        spec = cfg.buffer_spec
        d = assemble_design(ds, build_covariates(ds, spec), cfg)
        assert len(d.y) == len(ds.interval_obs)
        segments = cov.segmentize([(p.vertices, p.adt) for p in ds.traffic])
        for j, obs in enumerate(ds.interval_obs):
            static = cov.site_static_covariates(ds, ds.sites[obs.site_id], segments, spec)
            season = cov.seasonal_basis(ds.manifest.dyr(0.5 * (obs.t_start + obs.t_end)))
            values = design_columns(static, season, spec)
            series = ds.cmaq.series[int(ds.cmaq.pixel_ids[static["cmaq_index"]])]
            values["cmaq"], _ = interval_mean(series, obs.t_start, obs.t_end)
            row = np.array([values[nm] for nm in d.names], dtype=float)
            assert d.X[j].tobytes() == row.tobytes(), j
            assert d.y[j] == obs.value

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
        table = build_covariates(ds2)
        d = assemble_design(ds2, table)
        assert d.X.shape[0] == 2
        np.testing.assert_array_equal(d.X[0], d.X[1])
        assert list(d.y) == [first.value, first.value + 5.0]

    def test_collinearity_report(self, rng, design):
        """Each input's pairs in (i, j) order, each r equal to the pairwise
        ``np.corrcoef`` of its two columns; a constant column is in no pair,
        and one column gives none."""
        x, z = rng.normal(size=50), rng.normal(size=50)
        near = x + 1e-6 * rng.normal(size=50)
        cases = [
            (np.column_stack([x, near, z]), "abc", [("a", "b")]),
            (np.column_stack([x, z, -z + 1e-6 * x, near]), "abcd", [("a", "d"), ("b", "c")]),
            (np.column_stack([np.ones(50), x, np.full(50, 3.0), near]), "abcd", [("b", "d")]),
            (x[:, None], "a", []),
            (design.X, design.names, [
                ("sin_2pi_dyr", "cos_2pi_dyr"), ("sin_2pi_dyr", "cos_4pi_dyr"),
                ("cos_2pi_dyr", "cos_4pi_dyr"), ("ttv_1-2km", "ttv_2-3km"),
                ("ttv_4-5km", "ttv_5-6km"),
            ]),
        ]
        for X, names, want in cases:
            pairs = collinearity_report(X, list(names), threshold=0.85)
            assert [(a, b) for a, b, _ in pairs] == want
            for a, b, r in pairs:
                i, j = list(names).index(a), list(names).index(b)
                assert r == pytest.approx(np.corrcoef(X[:, i], X[:, j])[0, 1], abs=1e-12)

    def test_collinearity_report_on_empty_design(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert collinearity_report(np.empty((0, 3)), ["a", "b", "c"]) == []


def synthetic_ring_design(rng, n=300, active=(1.0, 0.6), n_rings=4, noise=0.5):
    """Design whose TTV effect is confined to the innermost len(active) rings."""
    labels = BufferSpec((0.5, 1.0, 2.0, 3.0)).ring_labels()[:n_rings]
    names = ["intercept"] + [f"ttv_{lab}" for lab in labels]
    X = np.column_stack([np.ones(n), rng.uniform(0, 5, size=(n, n_rings))])
    beta = np.concatenate([[5.0], active, np.zeros(n_rings - len(active))])
    y = X @ beta + noise * rng.normal(size=n)
    return Design(
        X=X, y=y, names=names, coords=np.zeros((n, 2)),
        groups={"ttv": names[1:]},
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


def correlated_ring_design(rng, n=40):
    """``synthetic_ring_design`` at scattered sites, with exponentially
    correlated errors in place of the iid noise."""
    design = synthetic_ring_design(rng, n=n, active=(1.0,), noise=0.0)
    coords = rng.uniform(0, 20_000, size=(n, 2))
    truth = ErrorModel("exponential", sill=1.0, range_=5000.0, nugget=0.3)
    L = np.linalg.cholesky(cov_matrix(truth, coords))
    return dataclasses.replace(design, y=design.y + L @ rng.normal(size=n), coords=coords)


class TestFitDesign:
    def test_gls_selection_is_ols_selection_on_whitened_data(self, rng, monkeypatch):
        from scarr import step1

        design = correlated_ring_design(rng)
        cfg = Step1Config(error_model="exponential")
        rss_pairs = []

        def recording_f_test(reduced, full):
            rss_pairs.append((reduced.rss, full.rss))
            return f_test(reduced, full)

        monkeypatch.setattr(step1, "f_test", recording_f_test)
        retained, fit = fit_design(design, cfg)
        tested, rss_pairs[:] = list(rss_pairs), []
        assert tested
        # nested OLS fits on the same whitened data: the F-statistic is >= 0
        # without the clip in f_test
        assert all(reduced >= full for reduced, full in tested)

        full = fit_gls(design.X, design.y, design.coords, design.names, kind="exponential")
        L = np.linalg.cholesky(cov_matrix(full.error_model, design.coords))
        whitened = dataclasses.replace(
            design, X=solve_triangular(L, design.X, lower=True),
            y=solve_triangular(L, design.y, lower=True),
        )
        want, selected = backward_buffer_selection(whitened, cfg.alpha)
        assert retained == want
        assert tested == rss_pairs  # every F-test, not only the outcome
        assert fit.names == selected.names
        assert len(fit.names) < len(design.names)  # a ring was dropped, so refitted
        idx = [design.names.index(nm) for nm in fit.names]
        refit = fit_gls(design.X[:, idx], design.y, design.coords, fit.names,
                        kind="exponential")
        np.testing.assert_array_equal(fit.beta, refit.beta)
        assert fit.error_model == refit.error_model
        assert math.isnan(fit.press) and fit.spec == cfg.buffer_spec

    def test_ols_selection_unwhitened_with_press(self, rng):
        design = synthetic_ring_design(rng)
        retained, fit = fit_design(design, Step1Config(buffer_radii_km=(0.5, 1.0, 2.0, 3.0)))
        want, selected = backward_buffer_selection(design, 0.05)
        assert retained == want
        assert fit.names == selected.names
        np.testing.assert_array_equal(fit.beta, selected.beta)
        idx = [design.names.index(nm) for nm in fit.names]
        assert (fit.press, fit.rmspe) == loocv_press(selected, design.X[:, idx], design.y)
        assert fit.spec == BufferSpec((0.5, 1.0, 2.0, 3.0))

    def test_without_selection_every_column_is_kept(self, rng):
        design = synthetic_ring_design(rng, active=())
        retained, fit = fit_design(design, Step1Config(run_selection=False))
        assert retained == design.groups
        np.testing.assert_array_equal(
            fit.beta, fit_ols(design.X, design.y, design.names).beta
        )


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
        table = build_covariates(ds)
        d = assemble_design(ds, table, Step1Config(use_quadrants=True))
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
