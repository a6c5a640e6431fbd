import dataclasses
import datetime
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarr import covariates as cov
from scarr.covariates import (
    BufferSpec,
    DataError,
    TrafficSegment,
    build_covariates,
    covariate_header,
    population_density,
    quadrant_ttv,
    ring_landuse_area,
    ring_ttv,
    seasonal_basis,
    segmentize,
    site_static_covariates,
    static_covariates,
)
from scarr.data_model import IntervalObservation, RasterGrid, SiteRecord, TractPolygon

#: One point at the origin, in the (N, 2) form the geometry kernels take.
SITE = np.zeros((1, 2))


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

    @pytest.mark.parametrize("radii", [(0.5, 1.0), (0.5, 1.0, math.nan), (0.5, 1.0, 2.0, math.inf),
                                       (1.0, 1.0000001, 1.0000002)])
    def test_rejects_radii_it_cannot_use(self, radii):
        # fewer rings than the land-use rings, a ring without an edge, or
        # two rings of one name
        with pytest.raises(DataError):
            BufferSpec(radii)

    def test_groups_and_landuse_total(self):
        spec = BufferSpec((2.0, 4.0, 6.0, 8.0))
        groups = spec.groups()
        assert list(groups) == ["ttv", "ttv_NE", "ttv_NW", "ttv_SW", "ttv_SE",
                                "lu_developed", "lu_forest", "lu_other"]
        assert groups["ttv_SW"] == ["ttv_SW_0-2km", "ttv_SW_2-4km", "ttv_SW_4-6km",
                                    "ttv_SW_6-8km"]
        assert groups["lu_forest"] == ["lu_forest_0-2km", "lu_forest_2-4km", "lu_forest_4-6km"]
        assert spec.landuse_total("forest") == "lu_forest_0-6km"
        assert BufferSpec().landuse_total("developed") == "lu_developed_0-2km"


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
        out = ring_ttv(SITE, [seg])[0][0]
        assert out[1] == pytest.approx(0.1)
        assert out[[0, 2, 3, 4, 5, 6]].sum() == 0.0

    def test_boundary_distance_inner_ring(self):
        seg = TrafficSegment(500.0, 0.0, 0.05, 10_000.0)
        out = ring_ttv(SITE, [seg])[0][0]
        assert out[0] > 0 and out[1] == 0.0

    def test_beyond_last_ring_ignored(self):
        seg = TrafficSegment(6500.0, 0.0, 0.05, 10_000.0)
        assert ring_ttv(SITE, [seg])[0][0].sum() == 0.0

    def test_matches_brute_force(self, rng):
        spec = BufferSpec()
        segs = [
            TrafficSegment(
                float(rng.uniform(-7000, 7000)), float(rng.uniform(-7000, 7000)),
                0.05, float(rng.uniform(1000, 50000)),
            )
            for _ in range(200)
        ]
        out = ring_ttv(SITE, segs, spec)[0][0]
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
            ring_ttv(SITE, doubled)[0][0], 2 * ring_ttv(SITE, segs)[0][0], rtol=1e-12
        )


class TestQuadrantTtv:
    def test_cardinal_conventions(self):
        ne = TrafficSegment(300.0, 300.0, 0.05, 10_000.0)
        due_east = TrafficSegment(300.0, 0.0, 0.05, 10_000.0)
        due_north = TrafficSegment(0.0, 300.0, 0.05, 10_000.0)
        coincident = TrafficSegment(0.0, 0.0, 0.05, 10_000.0)
        out = quadrant_ttv(SITE, [ne, due_east, coincident])[0]
        assert out[0, 0] == pytest.approx(3 * 0.05)  # all three are NE
        out2 = quadrant_ttv(SITE, [due_north])[0]
        assert out2[1, 0] == pytest.approx(0.05)  # due north starts NW

    def test_quadrants_sum_to_rings(self, rng):
        segs = [
            TrafficSegment(
                float(rng.uniform(-7000, 7000)), float(rng.uniform(-7000, 7000)),
                0.05, float(rng.uniform(1000, 50000)),
            )
            for _ in range(150)
        ]
        ttv, quad = ring_ttv(SITE, segs)
        np.testing.assert_allclose(quad[0].sum(axis=0), ttv[0], rtol=1e-12)

    def test_rotation_permutes_quadrants(self, rng):
        segs = [
            TrafficSegment(
                float(rng.uniform(100, 4000)), float(rng.uniform(100, 4000)),
                0.05, float(rng.uniform(1000, 50000)),
            )
            for _ in range(30)
        ]
        base = quadrant_ttv(SITE, segs)[0]
        rotated = [TrafficSegment(-s.y, s.x, s.length_km, s.adt) for s in segs]
        rot = quadrant_ttv(SITE, rotated)[0]
        # 90-degree CCW rotation moves NE->NW->SW->SE->NE
        np.testing.assert_allclose(rot, base[[3, 0, 1, 2]], rtol=1e-12)

    def test_bearing_just_below_east_is_se(self):
        # the bearing of this source, taken modulo 360 degrees, rounds to 360
        site = np.array([[0.0, 10_000.0]])
        seg = TrafficSegment(5000.0, math.nextafter(10_000.0, 0.0), 0.05, 1000.0)
        out = quadrant_ttv(site, [seg])[0]
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
        site = np.array([[float(sx), float(sy)]])
        segs = [TrafficSegment(*map(float, row)) for row in rows]
        ttv, quad = ring_ttv(site, segs)
        np.testing.assert_allclose(quad[0].sum(axis=0), ttv[0], rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(_coord, _coord, _segments, _coord, _coord)
    def test_translation_invariant(self, sx, sy, rows, ox, oy):
        site = np.array([[float(sx), float(sy)]])
        moved = np.array([[float(sx + ox), float(sy + oy)]])
        segs = [TrafficSegment(float(x), float(y), ln, adt) for x, y, ln, adt in rows]
        shifted = [TrafficSegment(float(x + ox), float(y + oy), ln, adt)
                   for x, y, ln, adt in rows]
        assert ring_ttv(moved, shifted)[0].tobytes() == ring_ttv(site, segs)[0].tobytes()
        assert (quadrant_ttv(moved, shifted).tobytes()
                == quadrant_ttv(site, segs).tobytes())

    @settings(max_examples=60, deadline=None)
    @given(_coord, _coord, _segments)
    def test_ring_total_is_volume_within_outer_radius(self, sx, sy, rows):
        site = np.array([[float(sx), float(sy)]])
        segs = [TrafficSegment(*map(float, row)) for row in rows]
        inside = sum(ln * adt for x, y, ln, adt in rows
                     if math.hypot(x - sx, y - sy) <= 6000.0)
        assert ring_ttv(site, segs)[0][0].sum() == pytest.approx(inside / 10_000.0,
                                                              rel=1e-12, abs=1e-12)


def uniform_raster(code=2, n=80, cell=100.0, center=4000.0):
    vals = np.full((n, n), float(code))
    return RasterGrid(n, n, center - n * cell / 2, center - n * cell / 2, cell,
                      -9999.0, vals)


class TestLanduse:
    def test_disc_area_close_to_analytic(self):
        raster = uniform_raster()
        site = np.array([[4000.0, 4000.0]])
        areas = ring_landuse_area(site, raster, {2: "forest"})
        assert areas["forest"].shape == (1, 3)
        cell_ha = raster.cell_size**2 / 10_000.0
        spec = BufferSpec()
        for k, (r_in, r_out) in enumerate(
            zip((0.0,) + spec.radii_km[:2], spec.radii_km[:3])
        ):
            analytic_ha = math.pi * (r_out**2 - r_in**2) * 100.0
            # pixel-centroid membership error bounded by the ring perimeter band
            tol = 2 * math.pi * (r_in + r_out) * 10 * raster.cell_size / 100.0
            assert abs(areas["forest"][0, k] - analytic_ha) < max(tol, 2 * cell_ha)

    def test_category_split_sums(self, rng):
        n = 60
        vals = rng.integers(1, 4, size=(n, n)).astype(float)
        raster = RasterGrid(n, n, 0.0, 0.0, 100.0, -9999.0, vals)
        site = np.array([[3000.0, 3000.0]])
        reclass = {1: "developed", 2: "forest", 3: "other"}
        split = ring_landuse_area(site, raster, reclass)
        merged = ring_landuse_area(site, raster, {1: "all", 2: "all", 3: "all"})
        total = sum(v for v in split.values())
        np.testing.assert_allclose(total, merged["all"], rtol=1e-12)

    def test_nodata_cells_excluded(self):
        raster = uniform_raster()
        raster.values[:, :] = raster.nodata_value
        site = np.array([[4000.0, 4000.0]])
        areas = ring_landuse_area(site, raster, {2: "forest"})
        assert areas["forest"].sum() == 0.0

    def test_unknown_code_raises(self):
        raster = uniform_raster(code=9)
        site = np.array([[4000.0, 4000.0]])
        with pytest.raises(DataError, match="code 9"):
            ring_landuse_area(site, raster, {2: "forest"})

    def test_first_unknown_code_in_row_major_order(self):
        raster = uniform_raster()
        raster.values[30, 45] = 8.0
        raster.values[31, 35] = 9.0
        site = np.array([[4000.0, 4000.0]])
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
        site = np.array([[x, y]])
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
            assert got[c][0].tobytes() == want[c].tobytes(), c

    def test_first_unknown_code_by_point_then_row_major(self):
        raster = uniform_raster()
        raster.values[70, 5] = 8.0  # near the second point only
        raster.values[10, 75] = 9.0  # near the first point only
        pts = np.array([[7500.0, 6500.0], [500.0, 1500.0]])
        with pytest.raises(DataError, match="code 9"):
            ring_landuse_area(pts, raster, {2: "forest"})
        with pytest.raises(DataError, match="code 8"):
            ring_landuse_area(pts[::-1], raster, {2: "forest"})


SQUARE = TractPolygon(
    "t1", np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]), 5000.0, 2.0
)


class TestPopulationDensity:
    def test_density_value(self):
        site = np.array([[5.0, 5.0]])
        assert population_density(site, [SQUARE]) == pytest.approx([2500.0])

    def test_outside_all_tracts(self, mini_dataset):
        site = np.array([[50.0, 50.0]])
        assert np.isnan(population_density(site, [SQUARE])).all()
        ds, _ = mini_dataset
        far = SiteRecord("far", -1e6, -1e6, "prediction")
        with pytest.raises(DataError, match="site far: outside all census tracts"):
            site_static_covariates(ds, far, np.empty((0, 4)))

    def test_boundary_lowest_index(self):
        other = TractPolygon(
            "t2", np.array([[10.0, 0.0], [20.0, 0.0], [20.0, 10.0], [10.0, 10.0]]),
            100.0, 1.0,
        )
        site = np.array([[10.0, 5.0]])
        assert population_density(site, [SQUARE, other]) == pytest.approx([2500.0])
        assert population_density(site, [other, SQUARE]) == pytest.approx([100.0])

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

        pts = rng.uniform(-2, 12, size=(300, 2))
        inside = np.isfinite(population_density(pts, [TractPolygon("t", verts, 1.0, 1.0)]))
        for (x, y), got in zip(pts.tolist(), inside):
            assert got == oracle(x, y)

    def test_on_edge_and_vertex_count_inside(self):
        pts = np.array([[10.0, 5.0], [0.0, 0.0], [10.0, 10.0], [5.0, 0.0],
                        [10.0 + 1e-13, 5.0], [10.1, 5.0]])
        got = population_density(pts, [SQUARE])
        assert got[:5] == pytest.approx([2500.0] * 5)
        assert np.isnan(got[5])


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
        table, warnings = build_covariates(ds)
        assert len(table["response"]) == len(ds.interval_obs)
        assert warnings == []
        for j in range(len(table["response"])):
            assert 0.0 < table["dyr"][j] <= 1.0
            assert math.isfinite(table["cmaq_mean"][j])
            assert table["cmaq_days_used"][j] > 0
            assert table["pop_density"][j] > 0

    def test_header_matches_row_width(self, mini_dataset, tmp_path):
        from scarr.covariates import write_covariates

        ds, _ = mini_dataset
        table, _ = build_covariates(ds)
        path = tmp_path / "cov.csv"
        write_covariates(table, str(path))
        lines = path.read_text().splitlines()
        width = len(covariate_header())
        assert all(len(line.split(",")) == width for line in lines)

    def test_static_covariates_once_per_site(self, mini_dataset, monkeypatch):
        ds, _ = mini_dataset
        calls = []
        original = cov.static_covariates

        def counted(dataset, xy, *args):
            calls.append(np.asarray(xy).tolist())
            return original(dataset, xy, *args)

        monkeypatch.setattr(cov, "static_covariates", counted)
        table, _ = build_covariates(ds)
        ids = list(dict.fromkeys(obs.site_id for obs in ds.interval_obs))
        assert len(table["response"]) > len(ids)
        assert calls == [[[ds.sites[sid].x, ds.sites[sid].y] for sid in ids]]

    def test_interval_across_the_year_boundary(self, mini_dataset):
        """Days 1-14 from an epoch of 25 December are centred on day-of-year
        365.5, which maps to 0.5: the row is kept."""
        ds, _ = mini_dataset
        sid = ds.interval_obs[0].site_id
        shifted = dataclasses.replace(
            ds, manifest=dataclasses.replace(ds.manifest, epoch=datetime.date(1993, 12, 25)),
            interval_obs=[IntervalObservation(sid, 1, 14, 10.0)],
        )
        table, warnings = build_covariates(shifted)
        assert warnings == []
        (dyr,) = table["dyr"]
        assert 0.0 < dyr <= 1.0
        assert dyr == 0.5 / 365.0

    def test_unknown_landuse_code_is_an_error(self, mini_dataset):
        ds, _ = mini_dataset
        reclass = {c: cat for c, cat in ds.landuse_reclass.items() if c != 3}
        with pytest.raises(DataError, match="land-use code 3 absent from reclass map"):
            build_covariates(dataclasses.replace(ds, landuse_reclass=reclass))


def _static_points(ds):
    """Points on a tract edge and vertex, at road-segment midpoints, beyond
    the land-use raster and outside every tract, and anywhere in between."""
    segments = segmentize([(p.vertices, p.adt) for p in ds.traffic])
    special = [(12_000.0, 5_000.5), (12_000.0, 12_000.0), (0.0, 0.0), (48_000.0, 30_000.0),
               (-2_000.0, 20_000.0), (50_000.0, -1_500.0), (90_000.0, 90_000.0)]
    special += [tuple(xy) for xy in segments[:40, :2].tolist()]
    anywhere = st.tuples(st.floats(-8_000.0, 56_000.0), st.floats(-8_000.0, 56_000.0))
    return segments, st.lists(st.one_of(st.sampled_from(special), anywhere),
                              min_size=1, max_size=70)


class TestStaticCovariates:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_n_points_equal_one_at_a_time(self, mini_dataset, data):
        ds, _ = mini_dataset
        segments, points = _static_points(ds)
        xy = np.array(data.draw(points))
        bound = data.draw(st.sampled_from([1, 20_000, cov.CHUNK_ELEMENTS]))
        with mock.patch.object(cov, "CHUNK_ELEMENTS", bound):
            whole = static_covariates(ds, xy, segments)
        assert sorted(whole) == ["cmaq_index", "elevation", "lu_area", "pop_density",
                                 "ttv", "ttv_quadrant"]
        assert whole["ttv"].shape == (len(xy), 7)
        for j in range(len(xy)):
            alone = static_covariates(ds, xy[j:j + 1], segments)
            for key in ("ttv", "ttv_quadrant", "pop_density", "elevation", "cmaq_index"):
                assert whole[key][j].tobytes() == alone[key][0].tobytes(), key
            for cat, areas in alone["lu_area"].items():
                assert whole["lu_area"][cat][j].tobytes() == areas[0].tobytes(), cat

    def test_edge_vertex_and_outside_points(self, mini_dataset):
        ds, _ = mini_dataset
        segments, _ = _static_points(ds)
        xy = [(12_000.0, 5_000.5), (12_000.0, 12_000.0), (90_000.0, 90_000.0)]
        static = static_covariates(ds, xy, segments)
        # tract 0 spans (0, 0)-(12 km, 12 km); the edge point and the corner
        # are shared with higher-index tracts
        assert ds.tracts[0].vertices.max(axis=0).tolist() == [12_000.0, 12_000.0]
        want = ds.tracts[0].population / ds.tracts[0].area_mi2
        assert static["pop_density"][:2].tolist() == [want, want]
        assert np.isnan(static["pop_density"][2])
        assert np.isnan(static["elevation"]).all()

    def test_site_view_is_one_row(self, mini_dataset):
        ds, _ = mini_dataset
        segments, _ = _static_points(ds)
        site = ds.sites[ds.interval_obs[0].site_id]
        row = site_static_covariates(ds, site, segments)
        static = static_covariates(ds, [(site.x, site.y)], segments)
        assert row["ttv"].tobytes() == static["ttv"][0].tobytes()
        assert row["pop_density"] == static["pop_density"][0]
        assert row["elevation"] == ds.site_attrs[site.id]["elevation_m"]
        assert row["cmaq_index"] == static["cmaq_index"][0]
