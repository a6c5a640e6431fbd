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

# The geometry kernels take N points at once, as an (N, 2) array, and give
# arrays with a leading N axis.  Here: the monitoring sites.
spec = cov.BufferSpec()
sites = sorted(dataset.sites.values(), key=lambda s: s.id)
xy = np.array([(s.x, s.y) for s in sites])
ttv, quad = cov.ring_ttv(xy, segments, spec)
print(f"\nring totals (10^4 v-km/day) at {len(sites)} sites: array {ttv.shape}")

# Ring totals around one site (row 0).
site = sites[0]
print(f"traffic volume around {site.id} by ring:")
for label, v in zip(spec.ring_labels(), ttv[0]):
    bar = "#" * int(round(4 * v))
    print(f"  {label:>9}  {v:8.3f}  {bar}")

# The same pass splits the totals by compass quadrant; columns sum to the
# ring totals.
print("\nby quadrant (rows NE/NW/SW/SE):")
for q, row in zip(cov.QUADRANTS, quad[0]):
    print(f"  {q}: " + " ".join(f"{v:7.3f}" for v in row))
assert np.allclose(quad.sum(axis=1), ttv)

# Land-use ring areas come from the classified raster (hectares per ring).
areas = cov.ring_landuse_area(xy, dataset.landuse, dataset.landuse_reclass, spec)
print("\nland-use area (ha) in the first three rings:")
for cat, vals in sorted(areas.items()):
    print(f"  {cat:>10}: " + " ".join(f"{v:8.1f}" for v in vals[0]))

# Population density is read off the census tract containing each point
# (NaN outside every tract).
dens = cov.population_density(xy, dataset.tracts)
print(f"\npopulation density at {site.id}: {dens[0]:,.0f} persons/mi^2; "
      f"range over the sites {np.nanmin(dens):,.0f}-{np.nanmax(dens):,.0f}")

# ``static_covariates`` runs all of the above (and the nearest coarse-grid
# pixel) in one chunked pass; sites and raster pixels both go through it.
static = cov.static_covariates(dataset, xy, segments, spec)
assert static["ttv"].tobytes() == ttv.tobytes()
pids = dataset.cmaq.pixel_ids[static["cmaq_index"]]
print(f"nearest coarse pixel of {site.id}: {pids[0]}")

# Seasonality enters through four trigonometric basis functions of the
# day-of-year ratio; here at the spring equinox (day 80 of 365).
basis = cov.seasonal_basis(80 / 365)
print("seasonal basis at DYR=80/365:",
      " ".join(f"{nm}={v:+.3f}" for nm, v in zip(cov.SEASON_NAMES, basis)))

# The Step I regression takes one column table with a row per interval
# observation: the same static covariates, taken at each observation's site,
# plus its days, seasonal basis, gridded-model mean and observed value.  An
# observation it must skip (a site outside every census tract, say) is
# logged as a warning on the ``scarr`` logger, not returned.
table = cov.build_covariates(dataset, spec)
print(f"\nbuilt {len(table['response'])} covariate rows "
      f"for {len(dataset.interval_obs)} interval observations")
print(f"first row: site={table['site_id'][0]} "
      f"days [{table['t_start'][0]},{table['t_end'][0]}] "
      f"gridded-model mean={table['cmaq_mean'][0]:.2f} "
      f"over {table['cmaq_days_used'][0]} days")
