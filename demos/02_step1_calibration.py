"""Step I: calibrate interval-averaged observations against the coarse grid.

Run from the repository root:  python3 demos/02_step1_calibration.py
"""

import numpy as np

from scarr import covariates as cov, step1
from scarr.data_model import load_dataset

dataset = load_dataset("data/mini")
table = cov.build_covariates(dataset)
design = step1.assemble_design(dataset, table)
print(f"design: {design.X.shape[0]} observations x {len(design.names)} columns")
print("columns:", ", ".join(design.names))

# Strongly correlated columns are worth knowing about before interpreting
# coefficients; seasonal terms often move together over short records.
for a, b, r in step1.collinearity_report(design.X, design.names, 0.9):
    print(f"  note: |r|={abs(r):.3f} between {a} and {b}")

# Plain OLS fit with every ring retained.
full = step1.fit_ols(design.X, design.y, design.names)
print(f"\nfull model: R^2={full.r2:.3f} adj R^2={full.adj_r2:.3f} "
      f"RMSE={full.rmse:.3f}")

# Backward elimination drops the outermost non-significant ring at a time,
# so whatever survives is always a contiguous inner set of rings.
retained, fit = step1.backward_buffer_selection(design, alpha=0.05)
print(f"after selection: {sum(len(v) for v in retained.values())} ring "
      f"columns kept {dict((g, len(v)) for g, v in retained.items())}")
print(f"selected model: R^2={fit.r2:.3f} with {fit.p} coefficients")

# Leave-one-out PRESS via the hat-matrix shortcut (no refitting needed).
idx = [design.names.index(nm) for nm in fit.names]
press, rmspe = step1.loocv_press(fit, design.X[:, idx], design.y)
print(f"LOOCV: PRESS={press:.2f} RMSPE={rmspe:.3f}")

# The coefficient on the gridded-model column is the multiplicative
# calibration bias passed on to Step II.
print(f"\nmultiplicative bias gamma-hat = {step1.gamma_hat(fit):.4f}")
ci = fit.conf_int("cmaq")
print(f"95% CI for the gridded-model coefficient: [{ci[0]:.3f}, {ci[1]:.3f}]")

# A spatially correlated error model is one config switch away.  The first
# multistart is the iid point, so the GLS likelihood can only improve.
gls = step1.fit_gls(design.X[:, idx], design.y, design.coords, fit.names,
                    kind="exponential")
em = gls.error_model
print(f"\nGLS (exponential errors): loglik {gls.loglik:.2f} vs OLS {fit.loglik:.2f}")
print(f"  sill={em.sill:.3f} range={em.range_:.0f} m nugget={em.nugget:.3f}")
print("  largest coefficient shift vs OLS: "
      f"{np.max(np.abs(gls.beta - fit.beta)):.4f}")
