"""Daily predictions at new sites and on a fine raster, end to end.

Runs the whole pipeline on the bundled dataset in a scratch copy, then
pulls the products apart.  Run from the repository root:

    python3 demos/04_prediction_maps.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from scarr.cli import main
from scarr.data_model import read_raster

work = Path(tempfile.mkdtemp(prefix="demo-")) / "mini"
shutil.copytree("data/mini", work)
ds = str(work)

# Ask the predict stage for two raster maps on a 3 km grid.
(work / "predict_config.txt").write_text(
    "grid_days=15 75\n"
    "grid_ncols=16\ngrid_nrows=16\ngrid_cell_size=3000\n"
    "grid_xll=0\ngrid_yll=0\n"
)

for argv in (["features", ds], ["fit-step1", ds], ["fit-step2", ds],
             ["predict", ds], ["validate", ds]):
    assert main(argv) == 0, argv

out = work / "out"
print("\nproducts:", ", ".join(sorted(p.name for p in out.iterdir())))

# Site predictions carry a 95% interval per day.
lines = (out / "site_predictions.csv").read_text().splitlines()
data = [l for l in lines if not l.startswith("#")]
print(f"\n{len(data) - 1} site-day predictions; first three:")
for line in data[1:4]:
    sid, day, pred, lo, hi = line.split(",")
    print(f"  {sid} day {day}: {float(pred):6.2f}  [{float(lo):.2f}, {float(hi):.2f}]")

# The raster maps downscale the 12 km grid to 3 km pixels.
for day in (15, 75):
    r = read_raster(str(out / "rasters" / f"no2_day{day:04d}.asc"))
    vals = r.values[r.values != r.nodata_value]
    print(f"day {day:3}: {vals.size} predicted pixels, "
          f"range {vals.min():.1f}..{vals.max():.1f} ppb")

# Validation compares the calibrated predictions and the raw coarse grid
# against the dense monitors' daily series (in-sample: those series also fed
# the filter) and against the interval observations.
print("\nmetrics.csv:")
for line in (out / "metrics.csv").read_text().splitlines():
    if not line.startswith("#"):
        print(" ", line)
print("\n(the calibrated MSPE should beat the raw-grid MSPE on this dataset)")
