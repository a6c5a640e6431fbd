"""SCARR: spatiotemporal calibration and resolution refinement for gridded
air-quality model output.

Step I calibrates and spatially refines coarse gridded concentrations against
interval-averaged point observations using dispersion buffer covariates.
Step II calibrates the daily temporal evolution with a pooled-state dynamic
linear model, fit by maximum likelihood on tridiagonal factorizations; the
Kalman filter and smoother give its state path.  Predictions are then
produced at new sites and on a fine raster grid.
"""

__version__ = "0.1.0"

from scarr.errors import ConfigError, ConvergenceError, DataError

__all__ = ["ConfigError", "ConvergenceError", "DataError", "__version__"]
