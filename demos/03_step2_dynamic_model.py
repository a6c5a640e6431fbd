"""Step II: the pooled AR(1) state-space model and its exact verifier.

Run from the repository root:  python3 demos/03_step2_dynamic_model.py
"""

import numpy as np

from scarr.oracle import DenseGaussianOracle, simulate_step2_series
from scarr.step2 import DlmParams, fit_mle, kalman_smoother, log_likelihood

# Ground truth for a two-year record at six daily monitors.  The shared
# state A(t) is the day's additive calibration bias common to every site.
truth = DlmParams(sigma_z=3.0, sigma_a=4.0, psi_a=0.6,
                  mu_a=0.0, beta_c=0.7, gamma_hat=0.5)
inputs, a_true = simulate_step2_series(T=730, n=6, params=truth, seed=42,
                                       missing_rate=0.05)
frac_missing = float(np.mean(~np.isfinite(inputs.y)))
print(f"simulated {inputs.n_days} days x {inputs.n_sites} sites "
      f"({frac_missing:.1%} missing)")

# Maximum likelihood over (q, psi_a), with the other parameters in closed
# form: the AR(1) precision is tridiagonal, so each evaluation is one
# tridiagonal factorization and the full likelihood costs O(T).
fit = fit_mle(inputs, gamma_hat=truth.gamma_hat)
print("\nestimates (truth in parentheses):")
for nm, true_val in (("sigma_z", 3.0), ("sigma_a", 4.0),
                     ("psi_a", 0.6), ("beta_c", 0.7)):
    se = fit.se.get(nm, float("nan"))
    print(f"  {nm:>7} = {getattr(fit, nm):6.3f} +/- {se:.3f}  ({true_val})")
print(f"  state mean dropped as non-significant: {fit.mu_a_dropped}")

# Smoothed state path vs the simulated truth.
est = kalman_smoother(fit, inputs)
rmse = float(np.sqrt(np.mean((est.smoothed_mean - a_true) ** 2)))
corr = float(np.corrcoef(est.smoothed_mean, a_true)[0, 1])
print(f"\nsmoothed state: RMSE vs truth {rmse:.3f}, correlation {corr:.3f}")
print(f"filtered variance on day 1 {est.filtered_var[0]:.3f} "
      f"vs smoothed {est.smoothed_var[0]:.3f} (smoothing always tightens)")

# The likelihood the fit maximises is checked against a from-scratch dense
# Gaussian calculation that shares no code with it.
small_inputs, _ = simulate_step2_series(T=8, n=3, params=truth, seed=1)
oracle = DenseGaussianOracle(truth, small_inputs)
ll_kernel = log_likelihood(truth, small_inputs)
ll_oracle = oracle.log_density()
print(f"\ntiny instance: kernel loglik {ll_kernel:.10f}")
print(f"               oracle loglik {ll_oracle:.10f}")
print(f"               difference    {abs(ll_kernel - ll_oracle):.2e}")
