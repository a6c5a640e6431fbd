"""Walk through the spatial covariates: traffic rings, land use, population.

Run from the repository root:  python3 demos/01_covariates.py
"""

import numpy as np

from scarr import covariates as cov
from scarr.data_model import load_dataset

dataset = load_dataset("data/mini")
print(f"loaded {len(dataset.sites)} sites, {len(dataset.traffic)} road polylines")

# Roads are cut into ~50 m pieces, one table row each: midpoint x, y (m),
# length_km and ADT.  A piece carries length_km * ADT vehicle-kilometres per
# day of traffic volume.
segments = cov.segmentize([(p.vertices, p.adt) for p in dataset.traffic])
total_vkm = segments[:, 2] @ segments[:, 3]
print(f"{len(segments)} road segments, {total_vkm / 1e4:,.1f} x 10^4 v-km/day total")

# Ring totals around one monitoring site (units of 10,000 v-km/day).
spec = cov.BufferSpec()
site = dataset.sites["C000"]
ttv = cov.ring_ttv(site, segments, spec)
print(f"\ntraffic volume around {site.id} by ring:")
for label, v in zip(spec.ring_labels(), ttv):
    bar = "#" * int(round(4 * v))
    print(f"  {label:>9}  {v:8.3f}  {bar}")

# The same totals split by compass quadrant; columns sum to the ring totals.
quad = cov.quadrant_ttv(site, segments, spec)
print("\nby quadrant (rows NE/NW/SW/SE):")
for q, row in zip(cov.QUADRANTS, quad):
    print(f"  {q}: " + " ".join(f"{v:7.3f}" for v in row))
assert np.allclose(quad.sum(axis=0), ttv)

# Land-use ring areas come from the classified raster (hectares per ring).
areas = cov.ring_landuse_area(site, dataset.landuse, dataset.landuse_reclass, spec)
print("\nland-use area (ha) in the first three rings:")
for cat, vals in sorted(areas.items()):
    print(f"  {cat:>10}: " + " ".join(f"{v:8.1f}" for v in vals))

# Population density is read off the census tract containing the site.
dens = cov.population_density(site, dataset.tracts)
print(f"\npopulation density at {site.id}: {dens:,.0f} persons/mi^2")

# Seasonality enters through four trigonometric basis functions of the
# day-of-year ratio; here at the spring equinox (day 80 of 365).
basis = cov.seasonal_basis(80 / 365)
print("seasonal basis at DYR=80/365:",
      " ".join(f"{nm}={v:+.3f}" for nm, v in zip(cov.SEASON_NAMES, basis)))

# One covariate row per interval observation feeds the Step I regression.
rows, warnings = cov.build_covariates(dataset, spec)
print(f"\nbuilt {len(rows)} covariate rows ({len(warnings)} warnings)")
r = rows[0]
print(f"first row: site={r.site_id} days [{r.t_start},{r.t_end}] "
      f"gridded-model mean={r.cmaq_mean:.2f} over {r.cmaq_days_used} days")
