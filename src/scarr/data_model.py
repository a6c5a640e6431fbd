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
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from scarr.errors import ConfigError, DataError

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
        lines = fh.read().split("\n")
    header = {}
    for ln, line in enumerate(lines[:6], start=1):
        name, *text = line.split() or [""]
        header[name.lower()] = (" ".join(text), f"{path}:{ln}")
    n_cols, n_rows, x_ll, y_ll, cell, nodata = (  # a missing field reads as ''
        parse_text(kind, *header.get(name, ("", path)), name)
        for name, kind in (("ncols", int), ("nrows", int), ("xllcorner", float),
                           ("yllcorner", float), ("cellsize", float), ("nodata_value", float))
    )
    body = " ".join(lines[6:]).split()
    if len(body) != n_rows * n_cols:
        raise DataError(f"{path}: expected {n_rows * n_cols} values, got {len(body)}")
    try:
        values = np.array(body, dtype=float).reshape(n_rows, n_cols)
    except ValueError:  # name the first value that does not parse
        for ln, line in enumerate(lines[6:], start=7):
            for text in line.split():
                parse_text(float, text, f"{path}:{ln}", "value")
        raise
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

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def na_float(text: str) -> float:
    """A number, or NaN for the literal ``NA``."""
    return math.nan if text == "NA" else float(text)


#: Parser and its description in messages, per type of config field, table
#: column or header value.
_PARSERS = {
    bool: (lambda text: _BOOL[text.lower()], "true/false/yes/no/1/0"),
    int: (int, "an integer"),
    float: (float, "a number"),
    na_float: (na_float, "a number or NA"),
    str: (str, "text"),
    datetime.date: (datetime.date.fromisoformat, "a YYYY-MM-DD date"),
    tuple[float, ...]: (lambda text: tuple(map(float, text.split())), "numbers"),
    tuple[int, ...]: (lambda text: tuple(map(int, text.split())), "integers"),
    tuple[str, ...]: (lambda text: tuple(text.split()), "words"),
}

#: Column names and types of each dataset table, keyed as in ``_DEFAULT_FILES``.
_COLUMNS = {
    "sites": {"id": str, "x": float, "y": float, "role": str},
    "interval_obs": {"site_id": str, "t_start": int, "t_end": int, "value_ppb": float},
    "daily_series": {"site_id": str, "day": int, "value_ppb": na_float},
    "cmaq_centroids": {"pixel_id": int, "x": float, "y": float},
    "cmaq_daily": {"pixel_id": int, "day": int, "value_ppb": na_float},
    "traffic": {"line_id": str, "vertex_index": int, "x": float, "y": float, "adt": float},
    "tracts": {"tract_id": str, "vertex_index": int, "x": float, "y": float},
    "tract_attrs": {"tract_id": str, "population": float, "area_mi2": float},
    "site_attrs": {"site_id": str, "elevation_m": float},
    "landuse_reclass": {"code": int, "category": str},
}


def parse_text(kind, text: str, where: str, name: str, error=DataError):
    """``text`` parsed as ``kind`` (a key of ``_PARSERS``); when it does not
    parse, ``error`` names ``where`` (a ``path:line``) and ``name``."""
    parse, expected = _PARSERS[kind]
    try:
        return parse(text)
    except (KeyError, ValueError):
        raise error(f"{where}: {name}: expected {expected}, got {text!r}") from None


class KeyValues(dict):
    """``key -> value`` text, with ``where[key]`` the ``path:line`` that set it."""

    def __init__(self):
        super().__init__()
        self.where = {}


def read_keyvalue(path: str, error=DataError) -> KeyValues:
    """Parse a ``key=value`` plain-text file; '#' starts a comment.  A line
    without '=' raises ``error`` naming ``path:line``."""
    out = KeyValues()
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise error(f"{path}:{ln}: expected key=value, got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
            out.where[key] = f"{path}:{ln}"
    return out


def parse_config(cls, kv: dict):
    """The config dataclass ``cls`` with each key's text parsed as the type
    of the field of that name.  An unknown key, a value that does not parse,
    or a ``ConfigError`` from ``cls`` itself raises ``ConfigError`` naming
    where the key was set (``kv.where``, for text read from a file)."""
    where = getattr(kv, "where", {})
    types = typing.get_type_hints(cls)
    values = {}
    for key, text in kv.items():
        at = where.get(key, cls.__name__)
        if key not in types:
            raise ConfigError(f"{at}: unknown key {key!r}")
        values[key] = parse_text(types[key], text, at, key, ConfigError)
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{where.get(exc.key, cls.__name__)}: {exc}") from None


def read_table(path: str, columns: dict, add=None) -> list:
    """One typed list per column of a CSV file whose header is exactly
    ``columns`` (name -> a key of ``_PARSERS``); ``add``, if given, is called
    with each row's values in file order.  A field that does not parse, or a
    ``DataError`` raised by ``add``, raises ``DataError`` naming ``path:line``.
    """
    names = list(columns)
    lines, texts = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",") != names:
            raise DataError(f"{path}:1: expected header {','.join(names)!r}, got {header!r}")
        for ln, raw in enumerate(fh, start=2):
            line = raw.strip()
            if line:
                if line.count(",") != len(names) - 1:
                    raise DataError(f"{path}:{ln}: expected {len(names)} fields")
                lines.append(ln)
                texts.append(line)
    # one flat list of fields, parsed column by column: no container per row,
    # so a large table does not set off the cyclic garbage collector
    fields = ",".join(texts).split(",") if texts else []
    try:
        values = [
            list(map(_PARSERS[kind][0], fields[i::len(names)]))
            for i, kind in enumerate(columns.values())
        ]
    except ValueError:  # name the first field that does not parse
        for ln, line in zip(lines, texts):
            for (name, kind), text in zip(columns.items(), line.split(",")):
                parse_text(kind, text, f"{path}:{ln}", name)
        raise
    if add is not None:
        for ln, row in zip(lines, zip(*values)):
            try:
                add(*row)
            except DataError as exc:
                raise DataError(f"{path}:{ln}: {exc}") from None
    return values


def _read_groups(path: str, columns: dict, known=None, increasing=False) -> dict:
    """``id -> [one list per further column]`` from a table whose first column
    is an id, in order of first appearance.  Each id must be in ``known``, if
    given; with ``increasing``, the second column must increase within an id."""
    what, second = list(columns)[:2]
    groups = {}

    def add(key, *rest):
        if key not in groups:
            if known is not None and key not in known:
                raise DataError(f"unknown {what} {key!r}")
            groups[key] = [[] for _ in rest]
        cols = groups[key]
        if increasing and cols[0] and rest[0] <= cols[0][-1]:
            raise DataError(f"non-monotone {second} for {what} {key!r}")
        for col, value in zip(cols, rest):
            col.append(value)

    read_table(path, columns, add)
    return groups


def _series(groups: dict) -> dict:
    """``id -> DailySeries`` from ``_read_groups`` of ``day, value`` columns."""
    return {
        key: DailySeries(str(key), np.array(days), np.array(values))
        for key, (days, values) in groups.items()
    }


def _vertices(cols) -> np.ndarray:
    """(k, 2) vertices from ``vertex_index, x, y, ...`` columns, by vertex_index."""
    return np.array([row[1:3] for row in sorted(zip(*cols))])


def load_dataset(path: str) -> Dataset:
    """Load a dataset directory, resolving and checking all cross-references."""
    manifest_path = os.path.join(path, "manifest.txt")
    if not os.path.exists(manifest_path):
        raise DataError(f"missing manifest file: {manifest_path}")
    raw = read_keyvalue(manifest_path)
    for key in raw:
        if key not in _MANIFEST_KEYS:
            raise DataError(f"{raw.where[key]}: unknown key {key!r}")
    if "epoch" not in raw:
        raise DataError(f"{manifest_path}: missing 'epoch'")

    def value(key, kind, default=None):
        return parse_text(kind, raw[key], raw.where[key], key) if key in raw else default

    files = {key: raw.get(key, name) for key, name in _DEFAULT_FILES.items()}
    manifest = Manifest(value("epoch", datetime.date), raw.get("crs", "unspecified"), files)
    cell = value("cmaq_cell_size", float, 12000.0)
    fpath = {key: os.path.join(path, name) for key, name in files.items()}

    def exists(*keys):
        return all(os.path.exists(fpath[key]) for key in keys)

    def table(key, *args, reader=read_table, **kwargs):
        return reader(fpath[key], _COLUMNS[key], *args, **kwargs)

    if not exists("sites"):
        raise DataError(f"missing sites file: {fpath['sites']}")
    sites, interval_obs = {}, []

    def add_site(site_id, *fields):
        if site_id in sites:
            raise DataError(f"duplicate site id {site_id!r}")
        sites[site_id] = SiteRecord(site_id, *fields)

    def add_obs(site_id, *fields):
        if site_id not in sites:
            raise DataError(f"unknown site_id {site_id!r}")
        interval_obs.append(IntervalObservation(site_id, *fields))

    table("sites", add_site)
    if exists("interval_obs"):
        table("interval_obs", add_obs)
    site_attrs, daily_series = {}, {}
    if exists("site_attrs"):
        groups = table("site_attrs", sites, reader=_read_groups)
        site_attrs = {sid: {"elevation_m": elev[-1]} for sid, (elev,) in groups.items()}
    if exists("daily_series"):
        daily_series = _series(table("daily_series", sites, reader=_read_groups, increasing=True))

    pid, xs, ys = table("cmaq_centroids") if exists("cmaq_centroids") else ([], [], [])
    series = {}
    if exists("cmaq_centroids", "cmaq_daily"):
        series = _series(table("cmaq_daily", set(pid), reader=_read_groups, increasing=True))
    cmaq = CmaqGrid(np.array(pid, dtype=int), np.array(xs), np.array(ys), cell, series)

    traffic = []
    if exists("traffic"):
        traffic = [
            TrafficPolyline(line_id, _vertices(cols), cols[3][0])
            for line_id, cols in table("traffic", reader=_read_groups).items()
        ]

    tracts = []
    if exists("tracts", "tract_attrs"):
        attrs = {}

        def add_attrs(tract_id, population, area):
            attrs[tract_id] = TractPolygon(tract_id, np.empty((0, 2)), population, area)

        table("tract_attrs", add_attrs)
        polygons = table("tracts", attrs, reader=_read_groups)
        tracts = [replace(attrs[tid], vertices=_vertices(cols)) for tid, cols in polygons.items()]

    landuse = reclass = None
    if exists("landuse"):
        landuse = read_raster(fpath["landuse"])
        if exists("landuse_reclass"):
            reclass = dict(zip(*table("landuse_reclass")))

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


def write_table(path: str, columns, rows, header_lines=()) -> None:
    """Write a CSV file: ``# `` comment lines, the column names, then one
    line per row, with text as is and numbers as ``fmt_num`` writes them."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else fmt_num(v) for v in row) + "\n")


def write_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset directory in canonical field order (round-trip stable)."""
    os.makedirs(path, exist_ok=True)
    files = {**_DEFAULT_FILES, **dataset.manifest.files}

    with open(os.path.join(path, "manifest.txt"), "w") as fh:
        fh.write(f"epoch={dataset.manifest.epoch.isoformat()}\n")
        fh.write(f"crs={dataset.manifest.crs}\n")
        fh.write(f"cmaq_cell_size={fmt_num(dataset.cmaq.cell_size)}\n")
        for key, name in files.items():
            if name != _DEFAULT_FILES[key]:
                fh.write(f"{key}={name}\n")

    def write(key, rows):
        write_table(os.path.join(path, files[key]), _COLUMNS[key], rows)

    cmaq = dataset.cmaq
    write("sites", ((s.id, s.x, s.y, s.role) for s in dataset.sites.values()))
    write("interval_obs", (
        (o.site_id, o.t_start, o.t_end, o.value) for o in dataset.interval_obs
    ))
    write("daily_series", (
        (sid, int(d), v) for sid, ser in dataset.daily_series.items()
        for d, v in zip(ser.days, ser.values)
    ))
    write("cmaq_centroids", (
        (int(p), x, y) for p, x, y in zip(cmaq.pixel_ids, cmaq.xs, cmaq.ys)
    ))
    write("cmaq_daily", (
        (int(p), int(d), v) for p in cmaq.pixel_ids if int(p) in cmaq.series
        for d, v in zip(cmaq.series[int(p)].days, cmaq.series[int(p)].values)
    ))
    write("traffic", (
        (line.line_id, i, x, y, line.adt)
        for line in dataset.traffic for i, (x, y) in enumerate(line.vertices)
    ))
    write("tracts", (
        (tr.tract_id, i, x, y) for tr in dataset.tracts for i, (x, y) in enumerate(tr.vertices)
    ))
    write("tract_attrs", ((tr.tract_id, tr.population, tr.area_mi2) for tr in dataset.tracts))
    write("site_attrs", (
        (sid, attrs["elevation_m"]) for sid, attrs in dataset.site_attrs.items()
    ))
    if dataset.landuse is not None:
        write_raster(dataset.landuse, os.path.join(path, files["landuse"]))
        if dataset.landuse_reclass is not None:
            write("landuse_reclass", (
                (code, dataset.landuse_reclass[code]) for code in sorted(dataset.landuse_reclass)
            ))
