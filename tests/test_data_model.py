import datetime
import math
import os
import re
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarr.data_model import (
    CmaqGrid,
    DailySeries,
    DataError,
    IntervalObservation,
    Manifest,
    RasterGrid,
    SiteRecord,
    _fmt_column,
    fmt_num,
    interval_mean,
    load_dataset,
    na_float,
    nearest_cmaq_centroid,
    parse_text,
    read_raster,
    read_table,
    write_dataset,
    write_raster,
    write_table,
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

    @pytest.mark.parametrize("rows, line, message", [
        (["A,2,1", "B,2,1", "B,1,1", "A,1,1"], 4, "non-monotone day for site_id 'B'"),
        (["A,2,1", "B,2,1", "GHOST,1,1", "A,1,1"], 4, "unknown site_id 'GHOST'"),
        (["B,1,1", "A,2,1", "A,2,1", "GHOST,1,1"], 4, "non-monotone day for site_id 'A'"),
        (["A,2,1", "B,0,1", "A,1,1", "GHOST,1,1"], 3, "day below 1 for site_id 'B'"),
        (["A,2,1", "B,1,1", "A,0,1"], 4, "day below 1 for site_id 'A'"),
    ])
    def test_first_fault_in_file_order(self, tmp_path, rows, line, message):
        """The row named is the first bad one in the file, not in id order."""
        (tmp_path / "manifest.txt").write_text("epoch=1994-01-01\n")
        (tmp_path / "sites.csv").write_text("id,x,y,role\nA,0,0,dense_time\nB,1,0,dense_time\n")
        path = tmp_path / "daily_series.csv"
        path.write_text("site_id,day,value_ppb\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError) as err:
            load_dataset(str(tmp_path))
        assert str(err.value) == f"{path}:{line}: {message}"

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


# The column-wise reader against a per-row reference reader: the same arrays
# from clean tables, and the same DataError text from faulty ones.

_SERIES = {"day": int, "value_ppb": na_float}


def _ref_rows(path, columns, add):
    """Per-row reference reader: every line is checked for its field count,
    then every field is parsed, then ``add`` sees each row in file order; a
    failure raises DataError naming ``path:line``."""
    names = list(columns)
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",") != names:
            raise DataError(f"{path}:1: expected header {','.join(names)!r}, got {header!r}")
        rows = []
        for ln, raw in enumerate(fh, start=2):
            line = raw.strip()
            if line:
                if line.count(",") != len(names) - 1:
                    raise DataError(f"{path}:{ln}: expected {len(names)} fields")
                rows.append((ln, line))
    parsed = [
        (ln, [parse_text(kind, text, f"{path}:{ln}", name)
              for (name, kind), text in zip(columns.items(), line.split(","))])
        for ln, line in rows
    ]
    for ln, values in parsed:
        try:
            add(*values)
        except DataError as exc:
            raise DataError(f"{path}:{ln}: {exc}") from None


def _ref_series(path, columns, known):
    """``id -> (days, values)`` arrays, ids in order of first appearance."""
    what, second = list(columns)[:2]
    groups = {}

    def add(key, day, value):
        if key not in groups:
            if key not in known:
                raise DataError(f"unknown {what} {key!r}")
            groups[key] = ([], [])
        days, values = groups[key]
        if day < 1:
            raise DataError(f"{second} below 1 for {what} {key!r}")
        if days and day <= days[-1]:
            raise DataError(f"non-monotone {second} for {what} {key!r}")
        days.append(day)
        values.append(value)

    _ref_rows(path, columns, add)
    return {key: (np.array(d, dtype=int), np.array(v, dtype=float)) for key, (d, v) in groups.items()}


def _ref_load(root):
    """The tables ``_write_tables`` writes, read by the reference reader."""
    def path(name):
        return os.path.join(root, name)

    sites = {}

    def add_site(site_id, *fields):
        if site_id in sites:
            raise DataError(f"duplicate site id {site_id!r}")
        sites[site_id] = SiteRecord(site_id, *fields)

    _ref_rows(path("sites.csv"), {"id": str, "x": float, "y": float, "role": str}, add_site)
    daily = _ref_series(path("daily_series.csv"), {"site_id": str, **_SERIES}, sites)
    pixels = []

    def add_pixel(pixel_id, x, y):
        if pixel_id in pixels:
            raise DataError(f"duplicate pixel_id {pixel_id}")
        pixels.append(pixel_id)

    _ref_rows(path("cmaq_centroids.csv"), {"pixel_id": int, "x": float, "y": float}, add_pixel)
    cmaq = _ref_series(path("cmaq_daily.csv"), {"pixel_id": int, **_SERIES}, set(pixels))
    return list(sites), daily, np.array(pixels, dtype=int), cmaq


def _loaded(root):
    """What ``load_dataset`` read of the same tables, in ``_ref_load``'s form."""
    ds = load_dataset(root)
    return (
        list(ds.sites),
        {key: (s.days, s.values) for key, s in ds.daily_series.items()},
        ds.cmaq.pixel_ids,
        {key: (s.days, s.values) for key, s in ds.cmaq.series.items()},
    )


def _bits(found):
    """Arrays as (dtype, bytes), so NaN payloads and -0.0 compare too."""
    if isinstance(found, np.ndarray):
        return found.dtype.str, found.tobytes()
    if isinstance(found, dict):
        return [(key, _bits(value)) for key, value in found.items()]
    if isinstance(found, (list, tuple)):
        return [_bits(value) for value in found]
    return found


def _outcome(load, root):
    try:
        return _bits(load(root))
    except DataError as exc:
        return f"DataError: {exc}"


_VALUE_TEXT = st.one_of(st.just("NA"), st.floats().map(repr))


@st.composite
def _grouped_rows(draw, keys):
    """[key, day, value] rows: a series of strictly increasing days for each
    key, the series interleaved at random, each in its own order."""
    days = {k: sorted(draw(st.sets(st.integers(1, 400), min_size=1, max_size=6))) for k in keys}
    order = draw(st.permutations([k for k in keys for _ in days[k]]))
    left = {k: iter(d) for k, d in days.items()}
    return [[str(k), str(next(left[k])), draw(_VALUE_TEXT)] for k in order]


def _inject(draw, tables):
    """Put one fault into one of ``tables`` (name -> [header, rows])."""
    kind = draw(st.sampled_from(["unknown", "day", "fields", "parse", "duplicate"]))
    if kind == "duplicate":
        rows = tables["cmaq_centroids.csv"][1]
        rows.insert(draw(st.integers(1, len(rows))), list(draw(st.sampled_from(rows))))
        return
    name = draw(st.sampled_from(["daily_series.csv", "cmaq_daily.csv"]))
    rows = tables[name][1]
    i = draw(st.integers(0, len(rows) - 1))
    # earlier rows of this key whose day is still an integer; a "parse" fault may have replaced it
    earlier = [j for j in range(i)
               if rows[j][0] == rows[i][0] and re.fullmatch(r"-?\d+", rows[j][1])]
    if kind == "day" and earlier:  # repeated or decreasing
        rows[i][1] = str(int(rows[earlier[-1]][1]) - draw(st.integers(0, 3)))
    elif kind == "day":  # below 1
        rows[i][1] = str(draw(st.integers(-3, 0)))
    elif kind == "unknown":
        rows[i][0] = "GHOST" if name == "daily_series.csv" else "999"
    elif kind == "fields":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    else:
        # a "fields" fault may have cut the row short
        rows[i][draw(st.integers(1, len(rows[i]) - 1))] = draw(
            st.sampled_from(["x", "1.5.2", "--1", "N A"]))


def _write_tables(draw, root, tables):
    """Each table with trailing whitespace on some lines and blank lines
    between some rows."""
    with open(os.path.join(root, "manifest.txt"), "w") as fh:
        fh.write("epoch=1994-01-01\n")
    for name, (header, rows) in tables.items():
        lines = [header]
        for row in rows:
            lines += [""] * draw(st.integers(0, 1))
            lines.append(",".join(row) + draw(st.sampled_from(["", " ", "\t", "  "])))
        with open(os.path.join(root, name), "w") as fh:
            fh.write("\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\n \n"])))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(0, 2))
def test_reader_matches_per_row_reference(data, n_faults):
    draw = data.draw
    site_ids = [f"S{i}" for i in range(draw(st.integers(1, 4)))]
    pixel_ids = draw(st.lists(st.integers(1, 50), min_size=1, max_size=4, unique=True))
    series_sites = draw(st.lists(st.sampled_from(site_ids), min_size=1, unique=True))
    series_pixels = draw(st.lists(st.sampled_from(pixel_ids), min_size=1, unique=True))
    tables = {
        "sites.csv": ["id,x,y,role", [[s, str(i), "0", "dense_time"] for i, s in enumerate(site_ids)]],
        "daily_series.csv": ["site_id,day,value_ppb", draw(_grouped_rows(series_sites))],
        "cmaq_centroids.csv": ["pixel_id,x,y", [[str(p), str(p), "0.5"] for p in pixel_ids]],
        "cmaq_daily.csv": ["pixel_id,day,value_ppb", draw(_grouped_rows(series_pixels))],
    }
    for _ in range(n_faults):
        _inject(draw, tables)
    with tempfile.TemporaryDirectory() as root:
        _write_tables(draw, root, tables)
        want = _outcome(_ref_load, root)
        got = _outcome(_loaded, root)
    assert got == want
    if isinstance(want, str):
        assert want.startswith(f"DataError: {root}{os.sep}") and ".csv:" in want
    else:
        assert [key for key, _ in want[1]] == list(dict.fromkeys(r[0] for r in tables["daily_series.csv"][1]))


# The column formatter against fmt_num, value by value.

_EDGE_FLOATS = [-0.0, 0.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15, 1e16, 5e-324, -5e-324,
                math.nan, math.inf, -math.inf, 0.1, 2.5, -3.0, 2.0**53, 2.0**63, 1.7976931348623157e308]


def test_fmt_num_infinity_reads_back():
    assert [fmt_num(math.inf), fmt_num(-math.inf)] == ["inf", "-inf"]
    assert _fmt_column(np.array([math.inf, -math.inf])) == ["inf", "-inf"]
    assert [na_float("inf"), na_float("-inf")] == [math.inf, -math.inf]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_column_formatter_equals_scalar_rules(values):
    values = values + _EDGE_FLOATS
    want = [fmt_num(v) for v in values]
    assert _fmt_column(np.array(values)) == want
    assert _fmt_column(values) == want
    with np.errstate(over="ignore"):  # beyond float32's range is inf
        single = np.array(values, dtype=np.float32)
    assert _fmt_column(single) == [fmt_num(v) for v in single]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40), st.lists(st.booleans(), max_size=10))
def test_column_formatter_on_integers_and_bools(ints, bools):
    for values in (np.array(ints, dtype=np.int64), np.array(ints, dtype=np.int64).astype(np.int32),
                   np.array(bools, dtype=bool), np.array(bools, dtype=np.uint8)):
        assert _fmt_column(values) == [fmt_num(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_write_then_read_keeps_every_float(values):
    values = np.array(values + _EDGE_FLOATS)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "t.csv")
        write_table(path, ["k", "v"], [np.arange(values.size), values])
        (keys, back), lines = read_table(path, {"k": int, "v": na_float})
    assert keys == list(range(values.size))
    assert lines.tolist() == list(range(2, values.size + 2))
    back = np.array(back)
    assert np.array_equal(np.isnan(back), np.isnan(values))
    kept = ~np.isnan(values) & (values != 0)  # -0.0 is written as 0
    assert back[kept].tobytes() == values[kept].tobytes()
    assert np.all(back[values == 0] == 0)


def test_write_table_matches_row_writer_across_chunks(tmp_path, rng):
    n = 20_000  # more than one chunk of rows
    ids = [f"S{i % 7}" for i in range(n)]
    days = rng.integers(-5, 10**6, n)
    scale = 10.0 ** rng.integers(0, 6, n)
    values = np.round(rng.normal(0, 50, n) * scale) / scale
    values[rng.random(n) < 0.1] = math.nan
    values[::997] = -0.0
    path = tmp_path / "t.csv"
    write_table(str(path), ["id", "day", "v"], [ids, days, values], ["scarr test", "x=1"])
    rows = zip(ids, days, values)
    want = "# scarr test\n# x=1\nid,day,v\n" + "".join(
        ",".join(v if isinstance(v, str) else fmt_num(v) for v in row) + "\n" for row in rows
    )
    assert path.read_text() == want


def test_write_raster_matches_per_cell_format(tmp_path, rng):
    values = rng.lognormal(2.0, 3.0, size=(64, 64)) * rng.choice([-1, 1], size=(64, 64))
    values[rng.random((64, 64)) < 0.2] = -9999.0
    r = RasterGrid(64, 64, 0.0, 1500.5, 750.0, -9999.0, values)
    path = tmp_path / "r.asc"
    write_raster(r, str(path))
    body = path.read_text().split("\n")[6:-1]
    assert body == [" ".join("%.6g" % float(v) for v in row) for row in values]
