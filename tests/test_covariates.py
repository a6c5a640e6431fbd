import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarr import covariates as cov
from scarr.covariates import (
    BufferSpec,
    DataError,
    TrafficSegment,
    _point_in_polygon,
    build_covariates,
    covariate_header,
    population_density,
    quadrant_ttv,
    ring_landuse_area,
    ring_ttv,
    seasonal_basis,
    segmentize,
)
from scarr.data_model import RasterGrid, SiteRecord, TractPolygon

SITE = SiteRecord("s", 0.0, 0.0, "calibration")


class TestBufferSpec:
    def test_labels(self):
        spec = BufferSpec()
        assert spec.ring_labels() == [
            "0-0.5km", "0.5-1km", "1-2km", "2-3km", "3-4km", "4-5km", "5-6km",
        ]

    def test_ring_index_boundary_goes_inward(self):
        spec = BufferSpec()
        assert spec.ring_index(0.5) == 0
        assert spec.ring_index(0.5000001) == 1
        assert spec.ring_index(6.0) == 6
        assert spec.ring_index(6.1) == -1

    def test_rejects_non_increasing(self):
        with pytest.raises(DataError):
            BufferSpec(radii_km=(1.0, 1.0, 2.0))


class TestSegmentize:
    def test_100m_line_two_halves(self):
        segs = segmentize([(np.array([[0.0, 0.0], [100.0, 0.0]]), 1000.0)])
        assert len(segs) == 2
        assert segs[:, 2].tolist() == [0.05, 0.05]
        assert segs[:, :2].tolist() == [[25.0, 0.0], [75.0, 0.0]]

    def test_120m_line_residual(self):
        segs = segmentize([(np.array([[0.0, 0.0], [120.0, 0.0]]), 1.0)])
        assert [pytest.approx(v) for v in segs[:, 2]] == [0.05, 0.05, 0.02]
        assert segs[-1, 0] == pytest.approx(110.0)

    def test_lengths_sum_to_polyline_length(self, rng):
        verts = rng.uniform(0, 2000, size=(8, 2))
        total = float(np.hypot(*np.diff(verts, axis=0).T).sum())
        segs = segmentize([(verts, 5.0)])
        assert sum(segs[:, 2]) * 1000 == pytest.approx(total)
        assert all(segs[:, 2] <= 0.05 + 1e-12)

    def test_vertex_spanning_midpoint_on_polyline(self):
        # 90-degree corner at (40, 0): the first 50 m piece spans the corner
        verts = np.array([[0.0, 0.0], [40.0, 0.0], [40.0, 60.0]])
        segs = segmentize([(verts, 1.0)])
        assert segs[0, :2].tolist() == [25.0, 0.0]
        assert segs[1, :2].tolist() == [40.0, 35.0]


class TestRingTtv:
    def test_hand_example(self):
        # 50 m piece at 20,000 ADT = 1000 v-km/day = 0.1 in report units;
        # 700 m away lands in the 0.5-1 km ring
        seg = TrafficSegment(700.0, 0.0, 0.05, 20_000.0)
        out = ring_ttv(SITE, [seg])
        assert out[1] == pytest.approx(0.1)
        assert out[[0, 2, 3, 4, 5, 6]].sum() == 0.0

    def test_boundary_distance_inner_ring(self):
        seg = TrafficSegment(500.0, 0.0, 0.05, 10_000.0)
        out = ring_ttv(SITE, [seg])
        assert out[0] > 0 and out[1] == 0.0

    def test_beyond_last_ring_ignored(self):
        seg = TrafficSegment(6500.0, 0.0, 0.05, 10_000.0)
        assert ring_ttv(SITE, [seg]).sum() == 0.0

    def test_matches_brute_force(self, rng):
        spec = BufferSpec()
        segs = [
            TrafficSegment(
                float(rng.uniform(-7000, 7000)), float(rng.uniform(-7000, 7000)),
                0.05, float(rng.uniform(1000, 50000)),
            )
            for _ in range(200)
        ]
        out = ring_ttv(SITE, segs, spec)
        radii = (0.0,) + spec.radii_km
        for k in range(spec.n_rings):
            expected = sum(
                s.length_km * s.adt for s in segs
                if radii[k] < math.hypot(s.x, s.y) / 1000 <= radii[k + 1]
            ) / 10_000.0
            assert out[k] == pytest.approx(expected, rel=1e-12)

    def test_adt_linearity(self, rng):
        segs = [
            TrafficSegment(
                float(rng.uniform(-5000, 5000)), float(rng.uniform(-5000, 5000)),
                0.05, float(rng.uniform(1000, 50000)),
            )
            for _ in range(40)
        ]
        doubled = [TrafficSegment(s.x, s.y, s.length_km, 2 * s.adt) for s in segs]
        np.testing.assert_allclose(
            ring_ttv(SITE, doubled), 2 * ring_ttv(SITE, segs), rtol=1e-12
        )


class TestQuadrantTtv:
    def test_cardinal_conventions(self):
        ne = TrafficSegment(300.0, 300.0, 0.05, 10_000.0)
        due_east = TrafficSegment(300.0, 0.0, 0.05, 10_000.0)
        due_north = TrafficSegment(0.0, 300.0, 0.05, 10_000.0)
        coincident = TrafficSegment(0.0, 0.0, 0.05, 10_000.0)
        out = quadrant_ttv(SITE, [ne, due_east, coincident])
        assert out[0, 0] == pytest.approx(3 * 0.05)  # all three are NE
        out2 = quadrant_ttv(SITE, [due_north])
        assert out2[1, 0] == pytest.approx(0.05)  # due north starts NW

    def test_quadrants_sum_to_rings(self, rng):
        segs = [
            TrafficSegment(
                float(rng.uniform(-7000, 7000)), float(rng.uniform(-7000, 7000)),
                0.05, float(rng.uniform(1000, 50000)),
            )
            for _ in range(150)
        ]
        np.testing.assert_allclose(
            quadrant_ttv(SITE, segs).sum(axis=0), ring_ttv(SITE, segs), rtol=1e-12
        )

    def test_rotation_permutes_quadrants(self, rng):
        segs = [
            TrafficSegment(
                float(rng.uniform(100, 4000)), float(rng.uniform(100, 4000)),
                0.05, float(rng.uniform(1000, 50000)),
            )
            for _ in range(30)
        ]
        base = quadrant_ttv(SITE, segs)
        rotated = [TrafficSegment(-s.y, s.x, s.length_km, s.adt) for s in segs]
        rot = quadrant_ttv(SITE, rotated)
        # 90-degree CCW rotation moves NE->NW->SW->SE->NE
        np.testing.assert_allclose(rot, base[[3, 0, 1, 2]], rtol=1e-12)

    def test_bearing_just_below_east_is_se(self):
        # the bearing of this source, taken modulo 360 degrees, rounds to 360
        site = SiteRecord("s", 0.0, 10_000.0, "calibration")
        seg = TrafficSegment(5000.0, math.nextafter(10_000.0, 0.0), 0.05, 1000.0)
        out = quadrant_ttv(site, [seg])
        assert BufferSpec().ring_labels()[5] == "4-5km"
        assert out[3, 5] == pytest.approx(0.005)
        assert out.sum() == pytest.approx(0.005)


# Integer coordinates keep every (dx, dy) exact, so translations are exact too.
_coord = st.integers(-8000, 8000)
_segments = st.lists(
    st.tuples(_coord, _coord, st.sampled_from([0.02, 0.05]),
              st.floats(1.0, 50_000.0)),
    max_size=60,
)


class TestTrafficProperties:
    @settings(max_examples=60, deadline=None)
    @given(_coord, _coord, _segments)
    def test_quadrants_sum_to_rings(self, sx, sy, rows):
        site = SiteRecord("s", float(sx), float(sy), "calibration")
        segs = [TrafficSegment(*map(float, row)) for row in rows]
        np.testing.assert_allclose(
            quadrant_ttv(site, segs).sum(axis=0), ring_ttv(site, segs),
            rtol=1e-12, atol=1e-12,
        )

    @settings(max_examples=60, deadline=None)
    @given(_coord, _coord, _segments, _coord, _coord)
    def test_translation_invariant(self, sx, sy, rows, ox, oy):
        site = SiteRecord("s", float(sx), float(sy), "calibration")
        moved = SiteRecord("s", float(sx + ox), float(sy + oy), "calibration")
        segs = [TrafficSegment(float(x), float(y), ln, adt) for x, y, ln, adt in rows]
        shifted = [TrafficSegment(float(x + ox), float(y + oy), ln, adt)
                   for x, y, ln, adt in rows]
        assert ring_ttv(moved, shifted).tobytes() == ring_ttv(site, segs).tobytes()
        assert (quadrant_ttv(moved, shifted).tobytes()
                == quadrant_ttv(site, segs).tobytes())

    @settings(max_examples=60, deadline=None)
    @given(_coord, _coord, _segments)
    def test_ring_total_is_volume_within_outer_radius(self, sx, sy, rows):
        site = SiteRecord("s", float(sx), float(sy), "calibration")
        segs = [TrafficSegment(*map(float, row)) for row in rows]
        inside = sum(ln * adt for x, y, ln, adt in rows
                     if math.hypot(x - sx, y - sy) <= 6000.0)
        assert ring_ttv(site, segs).sum() == pytest.approx(inside / 10_000.0,
                                                           rel=1e-12, abs=1e-12)


def uniform_raster(code=2, n=80, cell=100.0, center=4000.0):
    vals = np.full((n, n), float(code))
    return RasterGrid(n, n, center - n * cell / 2, center - n * cell / 2, cell,
                      -9999.0, vals)


class TestLanduse:
    def test_disc_area_close_to_analytic(self):
        raster = uniform_raster()
        site = SiteRecord("s", 4000.0, 4000.0, "calibration")
        areas = ring_landuse_area(site, raster, {2: "forest"})
        cell_ha = raster.cell_size**2 / 10_000.0
        spec = BufferSpec()
        for k, (r_in, r_out) in enumerate(
            zip((0.0,) + spec.radii_km[:2], spec.radii_km[:3])
        ):
            analytic_ha = math.pi * (r_out**2 - r_in**2) * 100.0
            # pixel-centroid membership error bounded by the ring perimeter band
            tol = 2 * math.pi * (r_in + r_out) * 10 * raster.cell_size / 100.0
            assert abs(areas["forest"][k] - analytic_ha) < max(tol, 2 * cell_ha)

    def test_category_split_sums(self, rng):
        n = 60
        vals = rng.integers(1, 4, size=(n, n)).astype(float)
        raster = RasterGrid(n, n, 0.0, 0.0, 100.0, -9999.0, vals)
        site = SiteRecord("s", 3000.0, 3000.0, "calibration")
        reclass = {1: "developed", 2: "forest", 3: "other"}
        split = ring_landuse_area(site, raster, reclass)
        merged = ring_landuse_area(site, raster, {1: "all", 2: "all", 3: "all"})
        total = sum(v for v in split.values())
        np.testing.assert_allclose(total, merged["all"], rtol=1e-12)

    def test_nodata_cells_excluded(self):
        raster = uniform_raster()
        raster.values[:, :] = raster.nodata_value
        site = SiteRecord("s", 4000.0, 4000.0, "calibration")
        areas = ring_landuse_area(site, raster, {2: "forest"})
        assert areas["forest"].sum() == 0.0

    def test_unknown_code_raises(self):
        raster = uniform_raster(code=9)
        site = SiteRecord("s", 4000.0, 4000.0, "calibration")
        with pytest.raises(DataError, match="code 9"):
            ring_landuse_area(site, raster, {2: "forest"})

    def test_first_unknown_code_in_row_major_order(self):
        raster = uniform_raster()
        raster.values[30, 45] = 8.0
        raster.values[31, 35] = 9.0
        site = SiteRecord("s", 4000.0, 4000.0, "calibration")
        with pytest.raises(DataError, match="code 8"):
            ring_landuse_area(site, raster, {2: "forest"})

    @pytest.mark.parametrize("x, y", [
        (150.0, 5900.0),  # near the top-left corner
        (5990.0, 10.0),  # near the bottom-right corner
        (-1500.0, 3000.0),  # beyond the left edge, within the outer ring
        (3000.0, 7700.0),  # beyond the top edge, within the outer ring
        (-5000.0, -5000.0),  # out of reach
    ])
    def test_window_matches_full_raster(self, rng, x, y):
        """The windowed areas equal, bit for bit, a sum over every cell."""
        n, cell = 60, 100.0
        vals = rng.integers(1, 4, size=(n, n)).astype(float)
        vals[rng.random((n, n)) < 0.1] = -9999.0
        raster = RasterGrid(n, n, 0.0, 0.0, cell, -9999.0, vals)
        reclass = {1: "developed", 2: "forest", 3: "other"}
        site = SiteRecord("s", x, y, "calibration")
        spec = BufferSpec()
        cell_ha = cell**2 / 10_000.0
        want = {c: np.zeros(3) for c in reclass.values()}
        pts = raster.centroids()
        ring = spec.ring_index(np.hypot(pts[:, 0] - x, pts[:, 1] - y) / 1000.0)
        for k, v in zip(ring, vals.ravel()):
            if 0 <= k < 3 and v != -9999.0:
                want[reclass[int(v)]][k] += cell_ha
        got = ring_landuse_area(site, raster, reclass, spec)
        assert sorted(got) == sorted(want)
        for c in want:
            assert got[c].tobytes() == want[c].tobytes(), c


SQUARE = TractPolygon(
    "t1", np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]), 5000.0, 2.0
)


class TestPopulationDensity:
    def test_density_value(self):
        site = SiteRecord("s", 5.0, 5.0, "calibration")
        assert population_density(site, [SQUARE]) == pytest.approx(2500.0)

    def test_outside_all_tracts(self):
        site = SiteRecord("s", 50.0, 50.0, "calibration")
        with pytest.raises(DataError, match="outside all census tracts"):
            population_density(site, [SQUARE])

    def test_boundary_lowest_index(self):
        other = TractPolygon(
            "t2", np.array([[10.0, 0.0], [20.0, 0.0], [20.0, 10.0], [10.0, 10.0]]),
            100.0, 1.0,
        )
        site = SiteRecord("s", 10.0, 5.0, "calibration")
        assert population_density(site, [SQUARE, other]) == pytest.approx(2500.0)
        assert population_density(site, [other, SQUARE]) == pytest.approx(100.0)

    def test_point_in_polygon_matches_matplotlib_free_oracle(self, rng):
        # independent winding-free oracle: count crossings of a vertical ray
        verts = np.array(
            [[0.0, 0.0], [8.0, 2.0], [10.0, 10.0], [5.0, 6.0], [1.0, 9.0]]
        )

        def oracle(x, y):
            crossings = 0
            n = len(verts)
            for i in range(n):
                (x1, y1), (x2, y2) = verts[i], verts[(i + 1) % n]
                if (x1 > x) != (x2 > x):
                    yint = y1 + (x - x1) * (y2 - y1) / (x2 - x1)
                    if y < yint:
                        crossings += 1
            return crossings % 2 == 1

        for _ in range(300):
            x = float(rng.uniform(-2, 12))
            y = float(rng.uniform(-2, 12))
            assert _point_in_polygon(x, y, verts) == oracle(x, y)


class TestSeasonalBasis:
    def test_analytic_points(self):
        assert seasonal_basis(1.0) == pytest.approx((0.0, 1.0, 0.0, 1.0), abs=1e-12)
        assert seasonal_basis(0.25) == pytest.approx((1.0, 0.0, 0.0, -1.0), abs=1e-12)
        assert seasonal_basis(0.5) == pytest.approx((0.0, -1.0, 0.0, 1.0), abs=1e-12)

    def test_unit_norm_identity(self, rng):
        for _ in range(25):
            s1, c1, s2, c2 = seasonal_basis(float(rng.uniform(1e-6, 1.0)))
            assert s1 * s1 + c1 * c1 == pytest.approx(1.0, abs=1e-12)
            assert s2 * s2 + c2 * c2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            seasonal_basis(0.0)
        with pytest.raises(DataError):
            seasonal_basis(1.5)


class TestBuildCovariates:
    def test_one_row_per_interval_obs(self, mini_dataset):
        ds, _ = mini_dataset
        rows, warnings = build_covariates(ds)
        assert len(rows) == len(ds.interval_obs)
        assert warnings == []
        for row in rows:
            assert 0.0 < row.dyr <= 1.0
            assert math.isfinite(row.cmaq_mean)
            assert row.cmaq_days_used > 0
            assert row.pop_density > 0

    def test_header_matches_row_width(self, mini_dataset, tmp_path):
        from scarr.covariates import write_covariates

        ds, _ = mini_dataset
        rows, _ = build_covariates(ds)
        path = tmp_path / "cov.csv"
        write_covariates(rows, str(path))
        lines = path.read_text().splitlines()
        width = len(covariate_header())
        assert all(len(line.split(",")) == width for line in lines)

    def test_static_covariates_once_per_site(self, mini_dataset, monkeypatch):
        ds, _ = mini_dataset
        calls = []
        original = cov.site_static_covariates

        def counted(dataset, site, *args):
            calls.append(site.id)
            return original(dataset, site, *args)

        monkeypatch.setattr(cov, "site_static_covariates", counted)
        rows, _ = build_covariates(ds)
        assert len(rows) > len(set(calls))
        assert sorted(calls) == sorted({obs.site_id for obs in ds.interval_obs})
