"""Persistent data types, file formats and spatial lookups shared by the pipeline.

All coordinates are planar metric (pre-projected); the toolkit does no geodesy.
Day indices are 1-based from the dataset epoch declared in ``manifest.txt``.
Missing daily values are represented as NaN in memory and as the literal ``NA``
in CSV files.
"""

from __future__ import annotations

import datetime
import math
import os
from dataclasses import dataclass, field

import numpy as np

from scarr.errors import DataError

SITE_ROLES = ("calibration", "dense_time", "prediction")


def fmt_num(v) -> str:
    """Canonical text form of a number for CSV round-trips."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return "NA"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


@dataclass(frozen=True)
class SiteRecord:
    id: str
    x: float
    y: float
    role: str

    def __post_init__(self):
        if self.role not in SITE_ROLES:
            raise DataError(f"site {self.id}: unknown role {self.role!r}")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DataError(f"site {self.id}: non-finite coordinates")


@dataclass(frozen=True)
class IntervalObservation:
    site_id: str
    t_start: int
    t_end: int
    value: float

    def __post_init__(self):
        if self.t_start > self.t_end:
            raise DataError(
                f"observation at {self.site_id}: t_start {self.t_start} > t_end {self.t_end}"
            )
        if not (math.isfinite(self.value) and self.value > 0):
            raise DataError(f"observation at {self.site_id}: value must be finite and > 0")

    @property
    def length(self) -> int:
        return self.t_end - self.t_start + 1


@dataclass
class DailySeries:
    """Daily values at one site/pixel; NaN marks a missing day."""

    site_id: str
    days: np.ndarray  # int, strictly increasing
    values: np.ndarray  # float, NaN = missing

    def __post_init__(self):
        self.days = np.asarray(self.days, dtype=int)
        self.values = np.asarray(self.values, dtype=float)
        if self.days.shape != self.values.shape:
            raise DataError(f"series {self.site_id}: days/values length mismatch")
        if self.days.size and np.any(np.diff(self.days) <= 0):
            raise DataError(f"series {self.site_id}: day indices not strictly increasing")


def interval_mean(series: DailySeries, t_start: int, t_end: int):
    """Mean of the non-missing values on days t_start..t_end (inclusive).

    Returns ``(mean, n_used)``; mean is NaN when every day in the interval is
    missing or absent from the series.
    """
    if t_start > t_end:
        raise DataError("interval_mean: t_start > t_end")
    if series.days.size == 0 or t_end < series.days[0] or t_start > series.days[-1]:
        raise DataError(
            f"interval [{t_start},{t_end}] outside series domain for {series.site_id}"
        )
    sel = (series.days >= t_start) & (series.days <= t_end)
    vals = series.values[sel]
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return math.nan, 0
    return float(vals.mean()), int(vals.size)


@dataclass
class CmaqGrid:
    """Coarse model grid: centroid lattice plus one daily series per pixel."""

    pixel_ids: np.ndarray  # int
    xs: np.ndarray
    ys: np.ndarray
    cell_size: float
    series: dict  # pixel_id -> DailySeries

    def __post_init__(self):
        self.pixel_ids = np.asarray(self.pixel_ids, dtype=int)
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if len(set(self.pixel_ids.tolist())) != self.pixel_ids.size:
            raise DataError("cmaq grid: duplicate pixel ids")


def nearest_cmaq_centroid(site: SiteRecord, grid: CmaqGrid) -> int:
    """Pixel id of the centroid nearest the site (ties -> smallest pixel_id)."""
    if grid.pixel_ids.size == 0:
        raise DataError("nearest_cmaq_centroid: empty grid")
    d2 = (grid.xs - site.x) ** 2 + (grid.ys - site.y) ** 2
    return int(grid.pixel_ids[d2 == d2.min()].min())


@dataclass
class RasterGrid:
    """ESRI-ASCII-style raster; values row-major with row 0 the top row."""

    n_cols: int
    n_rows: int
    x_ll: float
    y_ll: float
    cell_size: float
    nodata_value: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n_rows, self.n_cols):
            raise DataError(
                f"raster values shape {self.values.shape} != ({self.n_rows}, {self.n_cols})"
            )

    def cell_centroid(self, row: int, col: int):
        x = self.x_ll + (col + 0.5) * self.cell_size
        y = self.y_ll + (self.n_rows - row - 0.5) * self.cell_size
        return x, y

    def centroids(self):
        """(n_rows*n_cols, 2) array of cell centroids, row-major from the top row."""
        cols = np.arange(self.n_cols)
        rows = np.arange(self.n_rows)
        x = self.x_ll + (cols + 0.5) * self.cell_size
        y = self.y_ll + (self.n_rows - rows - 0.5) * self.cell_size
        xx, yy = np.meshgrid(x, y)
        return np.column_stack([xx.ravel(), yy.ravel()])


def write_raster(raster: RasterGrid, path: str) -> None:
    """Write the ESRI-ASCII text format (6 significant digits)."""
    with open(path, "w") as fh:
        fh.write(f"ncols {raster.n_cols}\n")
        fh.write(f"nrows {raster.n_rows}\n")
        fh.write(f"xllcorner {_g6(raster.x_ll)}\n")
        fh.write(f"yllcorner {_g6(raster.y_ll)}\n")
        fh.write(f"cellsize {_g6(raster.cell_size)}\n")
        fh.write(f"NODATA_value {_g6(raster.nodata_value)}\n")
        for row in raster.values:
            fh.write(" ".join(_g6(v) for v in row) + "\n")


def _g6(v) -> str:
    return "%.6g" % float(v)


def read_raster(path: str) -> RasterGrid:
    with open(path) as fh:
        header = {}
        for _ in range(6):
            line = fh.readline()
            if not line:
                raise DataError(f"{path}: truncated raster header")
            key, val = line.split()
            header[key.lower()] = val
        try:
            n_cols = int(header["ncols"])
            n_rows = int(header["nrows"])
            x_ll = float(header["xllcorner"])
            y_ll = float(header["yllcorner"])
            cell = float(header["cellsize"])
            nodata = float(header["nodata_value"])
        except KeyError as exc:
            raise DataError(f"{path}: missing raster header field {exc}") from exc
        body = fh.read().split()
    if len(body) != n_rows * n_cols:
        raise DataError(f"{path}: expected {n_rows * n_cols} values, got {len(body)}")
    values = np.array(body, dtype=float).reshape(n_rows, n_cols)
    bad = ~(np.isfinite(values) | (values == nodata))
    if bad.any():
        raise DataError(f"{path}: non-finite value not equal to NODATA")
    return RasterGrid(n_cols, n_rows, x_ll, y_ll, cell, nodata, values)


@dataclass
class TrafficPolyline:
    line_id: str
    vertices: np.ndarray  # (k, 2)
    adt: float


@dataclass
class TractPolygon:
    tract_id: str
    vertices: np.ndarray  # closed ring implied; (k, 2), first vertex not repeated
    population: float
    area_mi2: float

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        if self.area_mi2 <= 0:
            raise DataError(f"tract {self.tract_id}: area must be > 0")


@dataclass
class Manifest:
    epoch: datetime.date
    crs: str
    files: dict = field(default_factory=dict)

    def day_of_year(self, day) -> float:
        """Calendar day-of-year (1..365 cycle) for a possibly fractional day index."""
        base = self.epoch.timetuple().tm_yday  # day index 1 maps here
        return (base - 1 + float(day) - 1) % 365 + 1

    def dyr(self, day) -> float:
        """Day-of-year ratio in (0, 1] for a (possibly fractional) day index."""
        return self.day_of_year(day) / 365.0


@dataclass
class Dataset:
    manifest: Manifest
    sites: dict  # id -> SiteRecord
    interval_obs: list  # of IntervalObservation
    daily_series: dict  # site_id -> DailySeries
    cmaq: CmaqGrid
    traffic: list  # of TrafficPolyline
    tracts: list  # of TractPolygon
    site_attrs: dict  # site_id -> {"elevation_m": float}
    landuse: RasterGrid | None = None
    landuse_reclass: dict | None = None  # raster code -> category name

    def sites_with_role(self, role: str):
        return [s for s in self.sites.values() if s.role == role]


_DEFAULT_FILES = {
    "sites": "sites.csv",
    "interval_obs": "interval_obs.csv",
    "daily_series": "daily_series.csv",
    "cmaq_centroids": "cmaq_centroids.csv",
    "cmaq_daily": "cmaq_daily.csv",
    "traffic": "traffic_polylines.csv",
    "tracts": "tracts.csv",
    "tract_attrs": "tract_attrs.csv",
    "site_attrs": "site_attrs.csv",
    "landuse": "landuse.asc",
    "landuse_reclass": "landuse_reclass.csv",
}

_MANIFEST_KEYS = {"epoch", "crs", "cmaq_cell_size"} | set(_DEFAULT_FILES)


def read_keyvalue(path: str) -> dict:
    """Parse a ``key=value`` plain-text file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{ln}: expected key=value")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _read_csv(path: str, columns):
    """Minimal CSV reader with header check; yields (lineno, row-dict)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",") != list(columns):
            raise DataError(f"{path}:1: expected header {','.join(columns)!r}, got {header!r}")
        for ln, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(columns):
                raise DataError(f"{path}:{ln}: expected {len(columns)} fields")
            yield ln, dict(zip(columns, parts))


def _parse_value(path, ln, text, allow_na=False):
    if text == "NA":
        if allow_na:
            return math.nan
        raise DataError(f"{path}:{ln}: NA not allowed here")
    try:
        return float(text)
    except ValueError as exc:
        raise DataError(f"{path}:{ln}: bad number {text!r}") from exc


def load_dataset(path: str) -> Dataset:
    """Load a dataset directory, resolving and checking all cross-references."""
    manifest_path = os.path.join(path, "manifest.txt")
    if not os.path.exists(manifest_path):
        raise DataError(f"missing manifest file: {manifest_path}")
    raw = read_keyvalue(manifest_path)
    unknown = set(raw) - _MANIFEST_KEYS
    if unknown:
        raise DataError(f"{manifest_path}: unknown keys {sorted(unknown)}")
    if "epoch" not in raw:
        raise DataError(f"{manifest_path}: missing 'epoch'")
    epoch = datetime.date.fromisoformat(raw["epoch"])
    files = dict(_DEFAULT_FILES)
    for key in _DEFAULT_FILES:
        if key in raw:
            files[key] = raw[key]
    manifest = Manifest(epoch=epoch, crs=raw.get("crs", "unspecified"), files=files)

    fpath = {key: os.path.join(path, name) for key, name in files.items()}

    if not os.path.exists(fpath["sites"]):
        raise DataError(f"missing sites file: {fpath['sites']}")
    sites = {}
    for ln, row in _read_csv(fpath["sites"], ("id", "x", "y", "role")):
        if row["id"] in sites:
            raise DataError(f"{fpath['sites']}:{ln}: duplicate site id {row['id']!r}")
        sites[row["id"]] = SiteRecord(
            row["id"], float(row["x"]), float(row["y"]), row["role"]
        )

    interval_obs = []
    if os.path.exists(fpath["interval_obs"]):
        cols = ("site_id", "t_start", "t_end", "value_ppb")
        for ln, row in _read_csv(fpath["interval_obs"], cols):
            if row["site_id"] not in sites:
                raise DataError(
                    f"{fpath['interval_obs']}:{ln}: unknown site_id {row['site_id']!r}"
                )
            interval_obs.append(
                IntervalObservation(
                    row["site_id"], int(row["t_start"]), int(row["t_end"]),
                    float(row["value_ppb"]),
                )
            )

    daily_series = {}
    if os.path.exists(fpath["daily_series"]):
        acc = {}
        for ln, row in _read_csv(fpath["daily_series"], ("site_id", "day", "value_ppb")):
            sid = row["site_id"]
            if sid not in sites:
                raise DataError(f"{fpath['daily_series']}:{ln}: unknown site_id {sid!r}")
            day = int(row["day"])
            val = _parse_value(fpath["daily_series"], ln, row["value_ppb"], allow_na=True)
            days, vals = acc.setdefault(sid, ([], []))
            if days and day <= days[-1]:
                raise DataError(
                    f"{fpath['daily_series']}:{ln}: non-monotone day index for {sid!r}"
                )
            days.append(day)
            vals.append(val)
        for sid, (days, vals) in acc.items():
            daily_series[sid] = DailySeries(sid, np.array(days), np.array(vals))

    cmaq = None
    if os.path.exists(fpath["cmaq_centroids"]):
        pid, xs, ys = [], [], []
        for ln, row in _read_csv(fpath["cmaq_centroids"], ("pixel_id", "x", "y")):
            pid.append(int(row["pixel_id"]))
            xs.append(float(row["x"]))
            ys.append(float(row["y"]))
        cell = float(raw.get("cmaq_cell_size", 12000.0))
        series = {}
        if os.path.exists(fpath["cmaq_daily"]):
            acc = {}
            known = set(pid)
            for ln, row in _read_csv(fpath["cmaq_daily"], ("pixel_id", "day", "value_ppb")):
                p = int(row["pixel_id"])
                if p not in known:
                    raise DataError(f"{fpath['cmaq_daily']}:{ln}: unknown pixel_id {p}")
                days, vals = acc.setdefault(p, ([], []))
                day = int(row["day"])
                if days and day <= days[-1]:
                    raise DataError(
                        f"{fpath['cmaq_daily']}:{ln}: non-monotone day index for pixel {p}"
                    )
                days.append(day)
                vals.append(_parse_value(fpath["cmaq_daily"], ln, row["value_ppb"], True))
            for p, (days, vals) in acc.items():
                series[p] = DailySeries(str(p), np.array(days), np.array(vals))
        cmaq = CmaqGrid(np.array(pid), np.array(xs), np.array(ys), cell, series)
    else:
        cmaq = CmaqGrid(np.array([], dtype=int), np.array([]), np.array([]), 12000.0, {})

    traffic = []
    if os.path.exists(fpath["traffic"]):
        acc = {}
        order = []
        cols = ("line_id", "vertex_index", "x", "y", "adt")
        for ln, row in _read_csv(fpath["traffic"], cols):
            lid = row["line_id"]
            if lid not in acc:
                acc[lid] = {"verts": [], "adt": float(row["adt"])}
                order.append(lid)
            acc[lid]["verts"].append(
                (int(row["vertex_index"]), float(row["x"]), float(row["y"]))
            )
        for lid in order:
            verts = sorted(acc[lid]["verts"])
            arr = np.array([(x, y) for _, x, y in verts])
            traffic.append(TrafficPolyline(lid, arr, acc[lid]["adt"]))

    tracts = []
    if os.path.exists(fpath["tracts"]) and os.path.exists(fpath["tract_attrs"]):
        attrs = {}
        for ln, row in _read_csv(fpath["tract_attrs"], ("tract_id", "population", "area_mi2")):
            attrs[row["tract_id"]] = (float(row["population"]), float(row["area_mi2"]))
        acc = {}
        order = []
        for ln, row in _read_csv(fpath["tracts"], ("tract_id", "vertex_index", "x", "y")):
            tid = row["tract_id"]
            if tid not in acc:
                acc[tid] = []
                order.append(tid)
            acc[tid].append((int(row["vertex_index"]), float(row["x"]), float(row["y"])))
        for tid in order:
            if tid not in attrs:
                raise DataError(f"{fpath['tracts']}: tract {tid!r} missing attributes")
            verts = np.array([(x, y) for _, x, y in sorted(acc[tid])])
            pop, area = attrs[tid]
            tracts.append(TractPolygon(tid, verts, pop, area))

    site_attrs = {}
    if os.path.exists(fpath["site_attrs"]):
        for ln, row in _read_csv(fpath["site_attrs"], ("site_id", "elevation_m")):
            if row["site_id"] not in sites:
                raise DataError(
                    f"{fpath['site_attrs']}:{ln}: unknown site_id {row['site_id']!r}"
                )
            site_attrs[row["site_id"]] = {"elevation_m": float(row["elevation_m"])}

    landuse = None
    reclass = None
    if os.path.exists(fpath["landuse"]):
        landuse = read_raster(fpath["landuse"])
        if os.path.exists(fpath["landuse_reclass"]):
            reclass = {}
            for ln, row in _read_csv(fpath["landuse_reclass"], ("code", "category")):
                reclass[int(row["code"])] = row["category"]

    return Dataset(
        manifest=manifest,
        sites=sites,
        interval_obs=interval_obs,
        daily_series=daily_series,
        cmaq=cmaq,
        traffic=traffic,
        tracts=tracts,
        site_attrs=site_attrs,
        landuse=landuse,
        landuse_reclass=reclass,
    )


def write_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset directory in canonical field order (round-trip stable)."""
    os.makedirs(path, exist_ok=True)
    files = dataset.manifest.files or dict(_DEFAULT_FILES)

    def fpath(key):
        return os.path.join(path, files.get(key, _DEFAULT_FILES[key]))

    with open(os.path.join(path, "manifest.txt"), "w") as fh:
        fh.write(f"epoch={dataset.manifest.epoch.isoformat()}\n")
        fh.write(f"crs={dataset.manifest.crs}\n")
        fh.write(f"cmaq_cell_size={fmt_num(dataset.cmaq.cell_size)}\n")

    with open(fpath("sites"), "w") as fh:
        fh.write("id,x,y,role\n")
        for s in dataset.sites.values():
            fh.write(f"{s.id},{fmt_num(s.x)},{fmt_num(s.y)},{s.role}\n")

    with open(fpath("interval_obs"), "w") as fh:
        fh.write("site_id,t_start,t_end,value_ppb\n")
        for o in dataset.interval_obs:
            fh.write(f"{o.site_id},{o.t_start},{o.t_end},{fmt_num(o.value)}\n")

    with open(fpath("daily_series"), "w") as fh:
        fh.write("site_id,day,value_ppb\n")
        for sid, ser in dataset.daily_series.items():
            for d, v in zip(ser.days, ser.values):
                fh.write(f"{sid},{int(d)},{fmt_num(v)}\n")

    with open(fpath("cmaq_centroids"), "w") as fh:
        fh.write("pixel_id,x,y\n")
        for p, x, y in zip(dataset.cmaq.pixel_ids, dataset.cmaq.xs, dataset.cmaq.ys):
            fh.write(f"{int(p)},{fmt_num(x)},{fmt_num(y)}\n")

    with open(fpath("cmaq_daily"), "w") as fh:
        fh.write("pixel_id,day,value_ppb\n")
        for p in dataset.cmaq.pixel_ids:
            ser = dataset.cmaq.series.get(int(p))
            if ser is None:
                continue
            for d, v in zip(ser.days, ser.values):
                fh.write(f"{int(p)},{int(d)},{fmt_num(v)}\n")

    with open(fpath("traffic"), "w") as fh:
        fh.write("line_id,vertex_index,x,y,adt\n")
        for line in dataset.traffic:
            for i, (x, y) in enumerate(line.vertices):
                fh.write(f"{line.line_id},{i},{fmt_num(x)},{fmt_num(y)},{fmt_num(line.adt)}\n")

    with open(fpath("tracts"), "w") as fh:
        fh.write("tract_id,vertex_index,x,y\n")
        for tr in dataset.tracts:
            for i, (x, y) in enumerate(tr.vertices):
                fh.write(f"{tr.tract_id},{i},{fmt_num(x)},{fmt_num(y)}\n")

    with open(fpath("tract_attrs"), "w") as fh:
        fh.write("tract_id,population,area_mi2\n")
        for tr in dataset.tracts:
            fh.write(f"{tr.tract_id},{fmt_num(tr.population)},{fmt_num(tr.area_mi2)}\n")

    with open(fpath("site_attrs"), "w") as fh:
        fh.write("site_id,elevation_m\n")
        for sid, attrs in dataset.site_attrs.items():
            fh.write(f"{sid},{fmt_num(attrs['elevation_m'])}\n")

    if dataset.landuse is not None:
        write_raster(dataset.landuse, fpath("landuse"))
        if dataset.landuse_reclass is not None:
            with open(fpath("landuse_reclass"), "w") as fh:
                fh.write("code,category\n")
                for code in sorted(dataset.landuse_reclass):
                    fh.write(f"{code},{dataset.landuse_reclass[code]}\n")
