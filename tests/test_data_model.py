import datetime
import math
import shutil

import numpy as np
import pytest

from scarr.data_model import (
    CmaqGrid,
    DailySeries,
    DataError,
    IntervalObservation,
    Manifest,
    RasterGrid,
    SiteRecord,
    interval_mean,
    load_dataset,
    nearest_cmaq_centroid,
    read_raster,
    write_dataset,
    write_raster,
)


def make_grid(nx=4, ny=4, cell=12000.0):
    ids, xs, ys = [], [], []
    for j in range(ny):
        for i in range(nx):
            ids.append(j * nx + i + 1)
            xs.append((i + 0.5) * cell)
            ys.append((j + 0.5) * cell)
    return CmaqGrid(np.array(ids), np.array(xs), np.array(ys), cell, {})


class TestLoadDataset:
    def test_mini_dataset_contents(self, mini_dataset_dir):
        ds = load_dataset(str(mini_dataset_dir))
        assert len(ds.sites_with_role("calibration")) == 20
        assert len(ds.sites_with_role("dense_time")) == 4
        assert ds.cmaq.pixel_ids.size == 16

    def test_empty_directory(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_dataset(str(tmp_path))

    def test_missing_sites_file(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("epoch=1994-01-01\n")
        with pytest.raises(DataError, match="missing sites file"):
            load_dataset(str(tmp_path))

    def test_dangling_site_id(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("epoch=1994-01-01\n")
        (tmp_path / "sites.csv").write_text("id,x,y,role\nA,0,0,calibration\n")
        (tmp_path / "interval_obs.csv").write_text(
            "site_id,t_start,t_end,value_ppb\nGHOST,1,10,5.0\n"
        )
        with pytest.raises(DataError, match="GHOST"):
            load_dataset(str(tmp_path))

    def test_non_monotone_days(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("epoch=1994-01-01\n")
        (tmp_path / "sites.csv").write_text("id,x,y,role\nA,0,0,dense_time\n")
        (tmp_path / "daily_series.csv").write_text(
            "site_id,day,value_ppb\nA,2,5.0\nA,1,6.0\n"
        )
        with pytest.raises(DataError, match="non-monotone"):
            load_dataset(str(tmp_path))

    def test_duplicate_pixel_id_names_file_and_line(self, mini_dataset_dir, tmp_path):
        d = tmp_path / "ds"
        shutil.copytree(mini_dataset_dir, d)
        path = d / "cmaq_centroids.csv"
        lines = path.read_text().splitlines()
        lines.append(lines[1])  # the first pixel again
        path.write_text("\n".join(lines) + "\n")
        pixel = lines[1].split(",")[0]
        with pytest.raises(DataError) as err:
            load_dataset(str(d))
        assert str(err.value) == f"{path}:{len(lines)}: duplicate pixel_id {pixel}"

    def test_roundtrip_byte_identical(self, mini_dataset_dir, tmp_path):
        ds = load_dataset(str(mini_dataset_dir))
        write_dataset(ds, str(tmp_path))
        for name in sorted(p.name for p in mini_dataset_dir.iterdir()):
            if name in ("truth.txt", "out"):
                continue
            assert (tmp_path / name).read_bytes() == (
                mini_dataset_dir / name
            ).read_bytes(), name

    def test_roundtrip_keeps_renamed_file(self, mini_dataset_dir, tmp_path):
        src = tmp_path / "src"
        shutil.copytree(mini_dataset_dir, src)
        (src / "sites.csv").rename(src / "stations.csv")
        with open(src / "manifest.txt", "a") as fh:
            fh.write("sites=stations.csv\n")
        ds = load_dataset(str(src))
        assert ds.manifest.files["sites"] == "stations.csv"
        write_dataset(ds, str(tmp_path / "dst"))
        again = load_dataset(str(tmp_path / "dst"))
        assert again.sites == ds.sites
        for name in sorted(p.name for p in src.iterdir()):
            if name in ("truth.txt", "out"):
                continue
            assert (tmp_path / "dst" / name).read_bytes() == (src / name).read_bytes(), name
        assert not (tmp_path / "dst" / "sites.csv").exists()


def nearest_id(grid, x, y):
    """Pixel id of the nearest centroid to one point, by the array kernel."""
    (k,) = nearest_cmaq_centroid(np.array([[x, y]]), grid)
    return int(grid.pixel_ids[k])


class TestNearestCentroid:
    def test_site_at_centroid(self):
        grid = make_grid()
        assert nearest_id(grid, float(grid.xs[6]), float(grid.ys[6])) == 7

    def test_tie_smallest_pixel_id(self):
        grid = make_grid()
        # midpoint between adjacent pixels 1 and 2 is an exact tie
        x = 0.5 * (grid.xs[0] + grid.xs[1])
        y = float(grid.ys[0])
        assert nearest_id(grid, float(x), y) == 1
        # the same tie with the ids listed in the other order
        flipped = CmaqGrid(grid.pixel_ids[::-1], grid.xs[::-1], grid.ys[::-1],
                           grid.cell_size, {})
        assert nearest_id(flipped, float(x), y) == 1

    def test_matches_brute_force(self, rng):
        grid = make_grid()
        pts = rng.uniform(0, 48000, size=(50, 2))
        got = grid.pixel_ids[nearest_cmaq_centroid(pts, grid)]
        for (x, y), pid in zip(pts, got):
            d2 = (grid.xs - x) ** 2 + (grid.ys - y) ** 2
            expected = int(grid.pixel_ids[np.lexsort((grid.pixel_ids, d2))[0]])
            assert pid == expected

    def test_translation_invariance(self, rng):
        grid = make_grid()
        base = nearest_id(grid, 11000.0, 23000.0)
        dx, dy = 1234.5, -987.6
        moved = CmaqGrid(
            grid.pixel_ids, grid.xs + dx, grid.ys + dy, grid.cell_size, {}
        )
        assert nearest_id(moved, 11000.0 + dx, 23000.0 + dy) == base

    def test_empty_grid(self):
        grid = CmaqGrid(np.array([], dtype=int), np.array([]), np.array([]), 1.0, {})
        with pytest.raises(DataError):
            nearest_cmaq_centroid(np.zeros((1, 2)), grid)


class TestIntervalMean:
    def test_plain_mean(self):
        ser = DailySeries("a", [1, 2, 3], [2.0, 4.0, 6.0])
        assert interval_mean(ser, 1, 3) == (4.0, 3)

    def test_skips_missing(self):
        ser = DailySeries("a", [1, 2, 3], [2.0, math.nan, 6.0])
        assert interval_mean(ser, 1, 3) == (4.0, 2)

    def test_single_day(self):
        ser = DailySeries("a", [1, 2, 3], [2.0, 4.0, 6.0])
        assert interval_mean(ser, 2, 2) == (4.0, 1)

    def test_all_missing(self):
        ser = DailySeries("a", [1, 2], [math.nan, math.nan])
        mean, n = interval_mean(ser, 1, 2)
        assert math.isnan(mean) and n == 0

    def test_outside_domain(self):
        ser = DailySeries("a", [5, 6], [1.0, 2.0])
        with pytest.raises(DataError):
            interval_mean(ser, 10, 12)

    def test_13_day_interval_vs_direct_sum(self, rng):
        days = np.arange(1, 31)
        vals = rng.uniform(1, 30, size=30)
        ser = DailySeries("a", days, vals)
        expected = sum(vals[4:17]) / 13.0
        mean, n = interval_mean(ser, 5, 17)
        assert n == 13
        assert mean == pytest.approx(expected, rel=1e-12)


class TestRaster:
    def test_roundtrip_bytes(self, tmp_path, rng):
        values = np.round(rng.uniform(0, 40, size=(5, 7)), 3)
        values[0, 0] = -9999.0
        r = RasterGrid(7, 5, 1000.0, 2000.0, 300.0, -9999.0, values)
        p1 = tmp_path / "a.asc"
        p2 = tmp_path / "b.asc"
        write_raster(r, str(p1))
        write_raster(read_raster(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_shape_errors(self, tmp_path):
        p = tmp_path / "bad.asc"
        p.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9\n1 2 3\n")
        with pytest.raises(DataError, match="expected 4 values"):
            read_raster(str(p))

    def test_centroids(self):
        r = RasterGrid(2, 2, 0.0, 0.0, 10.0, -9, np.zeros((2, 2)))
        pts = r.centroids()
        assert pts.tolist() == [[5, 15], [15, 15], [5, 5], [15, 5]]


class TestSchemas:
    def test_interval_requires_positive_value(self):
        with pytest.raises(DataError):
            IntervalObservation("a", 1, 5, 0.0)

    def test_interval_requires_ordering(self):
        with pytest.raises(DataError):
            IntervalObservation("a", 5, 1, 1.0)

    def test_site_role_checked(self):
        with pytest.raises(DataError):
            SiteRecord("a", 0.0, 0.0, "unknown_role")

    def test_manifest_dyr(self, mini_dataset):
        ds, _ = mini_dataset
        assert ds.manifest.dyr(1) == pytest.approx(1 / 365)
        assert ds.manifest.dyr(365) == pytest.approx(1.0)

    def test_manifest_day_of_year_wraps_at_the_year_boundary(self):
        m = Manifest(epoch=datetime.date(1994, 1, 1), crs="planar")
        assert m.day_of_year(365) == 365.0
        assert m.day_of_year(365.5) == 0.5  # the midpoint of days 365 and 366
        assert m.day_of_year(366) == 1.0
        assert 0.0 < m.dyr(365.5) <= 1.0
