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
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import chain, repeat

import numpy as np

from scarr.errors import ConfigError, DataError

SITE_ROLES = ("calibration", "dense_time", "prediction")


def fmt_num(v) -> str:
    """Canonical text form of a number for CSV round-trips: integers and
    integral floats below 1e15 as ``str(int)`` (so -0.0 is ``0``), NaN as
    ``NA``, any other float as ``repr`` (so ±inf is ``inf``/``-inf``)."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return "NA"
    if abs(f) < 1e15 and f == int(f):
        return str(int(f))
    return repr(f)


def _fmt_column(values) -> list:
    """``fmt_num`` of each value: numeric arrays by one pass per rule, any
    other sequence value by value, with text kept as it is."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "biuf"):
        return [v if isinstance(v, str) else fmt_num(v) for v in values]
    if values.dtype.kind != "f":
        return list(map(str, map(int, values.tolist())))  # int(): bools as 0/1
    a = values.astype(float, copy=False)
    text = np.array(list(map(repr, a.tolist())), dtype=object)
    whole = (np.abs(a) < 1e15) & (a == np.trunc(a))
    text[whole] = list(map(str, a[whole].astype(np.int64).tolist()))
    text[np.isnan(a)] = "NA"
    return text.tolist()


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
        if self.t_start < 1:
            raise DataError(f"observation at {self.site_id}: t_start {self.t_start} below 1")
        if not (math.isfinite(self.value) and self.value > 0):
            raise DataError(f"observation at {self.site_id}: value must be finite and > 0")


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


def nearest_cmaq_centroid(xy, grid: CmaqGrid) -> np.ndarray:
    """Index into the grid's arrays of the centroid nearest each of the N
    points ``xy`` (N, 2); ties go to the smallest pixel_id."""
    if grid.pixel_ids.size == 0:
        raise DataError("nearest_cmaq_centroid: empty grid")
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    d2 = (grid.xs - xy[:, :1]) ** 2 + (grid.ys - xy[:, 1:]) ** 2
    tied = d2 == d2.min(axis=1, keepdims=True)
    return np.where(tied, grid.pixel_ids, np.iinfo(grid.pixel_ids.dtype).max).argmin(axis=1)


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
            fh.write(" ".join(map("%.6g".__mod__, row.tolist())) + "\n")


def _g6(v) -> str:
    return "%.6g" % float(v)


def read_raster(path: str) -> RasterGrid:
    lines = read_text(path).split("\n")
    header = {}
    for ln, line in enumerate(lines[:6], start=1):
        name, *text = line.split() or [""]
        header[name.lower()] = (" ".join(text), f"{path}:{ln}")
    n_cols, n_rows, x_ll, y_ll, cell, nodata = (  # a missing field reads as ''
        parse_text(kind, *header.get(name, ("", path)), name)
        for name, kind in (("ncols", int), ("nrows", int), ("xllcorner", float),
                           ("yllcorner", float), ("cellsize", float), ("nodata_value", float))
    )
    try:  # one C-level parse when the body is n_rows lines of n_cols numbers
        with warnings.catch_warnings():  # an empty body warns
            warnings.simplefilter("error")
            values = np.loadtxt(lines[6:], float, comments=None, ndmin=2)
    except (ValueError, Warning):
        values = None
    if values is None or values.shape != (n_rows, n_cols):  # wrapped otherwise, or bad
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
    bad = ~(np.isfinite(values) | (values == nodata)).ravel()
    if bad.any():  # name the line of the first such value, counting tokens
        ends = np.cumsum([len(line.split()) for line in lines[6:]])
        ln = 7 + int(np.searchsorted(ends, np.argmax(bad), side="right"))
        raise DataError(f"{path}:{ln}: non-finite value not equal to NODATA")
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
        if not self.area_mi2 > 0:  # NaN too
            raise DataError(f"tract {self.tract_id}: area must be > 0")
        if not (math.isfinite(self.population) and self.population >= 0):
            raise DataError(f"tract {self.tract_id}: population must be finite and >= 0")


@dataclass
class Manifest:
    epoch: datetime.date
    crs: str
    files: dict = field(default_factory=dict)

    @cached_property
    def _epoch_yday(self) -> int:
        return self.epoch.timetuple().tm_yday  # day index 1 maps here

    def day_of_year(self, day) -> float:
        """Calendar day-of-year in (0, 365] (a 365-day cycle; 365.5 wraps to
        0.5) for a possibly fractional day index."""
        doy = (self._epoch_yday - 1 + float(day) - 1) % 365 + 1
        return doy - 365 if doy > 365 else doy

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


#: Test of a number that must be finite, or also within a bound, keyed as in
#: ``_PARSERS``; each takes a float or an array of them.
_FINITE = {
    "finite": np.isfinite,
    "finite >= 0": lambda value: np.isfinite(value) & (value >= 0.0),
    "finite > 0": lambda value: np.isfinite(value) & (value > 0.0),
}


def _finite(text: str, kind: str) -> float:
    """A number for which ``_FINITE[kind]`` holds; ValueError otherwise."""
    value = float(text)
    if not _FINITE[kind](value):
        raise ValueError(text)
    return value


#: Parser and its description in messages, per type of config field, table
#: column or header value; a number that must be finite, or also within a
#: bound, is keyed by text.
_PARSERS = {
    bool: (lambda text: _BOOL[text.lower()], "true/false/yes/no/1/0"),
    int: (int, "an integer"),
    float: (float, "a number"),
    na_float: (na_float, "a number or NA"),
    "finite": (partial(_finite, kind="finite"), "a finite number"),
    "finite >= 0": (partial(_finite, kind="finite >= 0"), "a finite number >= 0"),
    "finite > 0": (partial(_finite, kind="finite > 0"), "a finite number > 0"),
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
    "cmaq_centroids": {"pixel_id": int, "x": "finite", "y": "finite"},
    "cmaq_daily": {"pixel_id": int, "day": int, "value_ppb": na_float},
    "traffic": {"line_id": str, "vertex_index": int, "x": "finite", "y": "finite",
                "adt": "finite >= 0"},
    "tracts": {"tract_id": str, "vertex_index": int, "x": "finite", "y": "finite"},
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


_REQUIRED = object()


class KeyValues(dict):
    """``key -> value`` text read from ``path``, with ``where[key]`` the
    ``path:line`` that set it."""

    def __init__(self, path: str = ""):
        super().__init__()
        self.path = path
        self.where = {}

    def parse(self, key: str, kind, default=_REQUIRED):
        """``key``'s text parsed as ``kind`` (a key of ``_PARSERS``), or
        ``default`` when the key is absent.  Text that does not parse, or a
        missing key without a default, raises ``DataError`` naming the file."""
        if key not in self:
            if default is _REQUIRED:
                raise DataError(f"{self.path}: missing key {key}")
            return default
        return parse_text(kind, self[key], self.where[key], key)


def read_text(path: str, error=DataError) -> str:
    """The text of the file ``path``; a file that cannot be opened or read
    as text raises ``error`` naming ``path``."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: cannot read as text: {exc}") from None


def read_keyvalue(path: str, error=DataError) -> KeyValues:
    """Parse a ``key=value`` plain-text file; '#' starts a comment.  A line
    without '=', or a file that cannot be read, raises ``error`` naming
    ``path:line`` or ``path``."""
    out = KeyValues(path)
    for ln, raw in enumerate(read_text(path, error).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{path}:{ln}: expected key=value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
        out.where[key] = f"{path}:{ln}"
    return out


def _keyvalue_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a numpy float64's own repr names its type
    return str(value)  # an int, or text as given


def write_keyvalue(path: str, items: dict, header_lines=()) -> None:
    """Write the ``key=value`` file that ``read_keyvalue`` reads: ``# ``
    comment lines, then one line per item in order.  A bool is written as
    ``true``/``false``, a float as its ``repr`` (an exact round-trip), an int
    or a string as is."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for key, value in items.items():
            fh.write(f"{key}={_keyvalue_text(value)}\n")


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


def _read_columns(path: str, columns: dict):
    """``(arrays, lines)`` of a CSV file whose header is exactly ``columns``
    (name -> a key of ``_PARSERS``): one array per column, and the line
    number of each row.

    The file is read at once and split into lines once; each line is stripped
    and blank lines are skipped.  numpy's C reader parses the rows in one pass
    (text as wide as the longest line, so none is cut; ``NA`` in a last
    ``na_float`` column as ``nan``), and each ``"finite..."`` column is checked
    as a whole.  Rows that it rejects, or that hold a NUL (numpy text drops a
    trailing one), are parsed field by field in Python, text into arrays of
    ``str``.  A file that cannot be read raises ``DataError`` naming ``path``;
    a row with the wrong number of fields, and then a field that does not
    parse or an integer beyond 64 bits, raises it naming the first such
    ``path:line`` in file order.
    """
    names, kinds = list(columns), list(columns.values())
    text = read_text(path)
    header, *body = text.split("\n")
    header = header.strip()
    if header.split(",") != names:
        raise DataError(f"{path}:1: expected header {','.join(names)!r}, got {header!r}")
    body = list(map(str.strip, body))
    texts = list(filter(None, body))
    if all(body[:len(texts)]):  # blank lines at the end only
        lines = np.arange(2, len(texts) + 2)
    else:
        lines = np.flatnonzero(list(map(bool, body))) + 2
    width = max(map(len, texts), default=1) if str in kinds else 1
    dtype = [(name, np.int64 if kind is int else f"U{width}" if kind is str else np.float64)
             for name, kind in columns.items()]
    c_rows = texts
    if kinds[-1] is na_float and "NA" in text:
        c_rows = ("\n".join(texts) + "\n").replace(",NA\n", ",nan\n").split("\n")[:-1]
    if "\0" not in text:
        try:
            with warnings.catch_warnings():  # no rows, or an int read by way of float
                warnings.simplefilter("error")
                table = np.loadtxt(c_rows, dtype, comments=None, delimiter=",", ndmin=1)
            if all(_FINITE[kind](table[name]).all() for name, kind in columns.items()
                   if kind in _FINITE):
                return [table[name] for name in names], lines
        except (ValueError, Warning):
            pass
    rows = [line.split(",") for line in texts]
    for ln, row in zip(lines, rows):
        if len(row) != len(names):
            raise DataError(f"{path}:{ln}: expected {len(names)} fields")
    for ln, row in zip(lines, rows):
        for i, (name, kind) in enumerate(columns.items()):
            field, row[i] = row[i], parse_text(kind, row[i], f"{path}:{ln}", name)
            if kind is int and not -(1 << 63) <= row[i] < 1 << 63:
                raise DataError(f"{path}:{ln}: {name}: expected a 64-bit integer, got {field!r}")
    fields = zip(*rows) if rows else [()] * len(names)
    return [np.array(col, dtype=object if kind is str else numpy_type)
            for col, kind, (_, numpy_type) in zip(fields, kinds, dtype)], lines


def read_table(path: str, columns: dict):
    """``(values, lines)``: ``_read_columns`` with each column a list of
    ``int``, ``float`` or ``str``."""
    arrays, lines = _read_columns(path, columns)
    return [a.tolist() for a in arrays], lines


def _number(keys):
    """``(distinct, codes)`` of ``keys`` (an array, or a list of Python
    values): the distinct keys in order of first appearance, as a list of
    Python values, and the index into ``distinct`` of each key."""
    keys = keys if isinstance(keys, np.ndarray) else np.array(keys, dtype=object)
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    codes = np.empty_like(order)
    codes[order] = np.arange(order.size)
    return distinct[order].tolist(), codes[inverse]


def _first_repeat(keys, message: str):
    """``(row, message)`` of the first row whose key an earlier row has, with
    the key put into ``message`` by ``str.format``; None if every key is new."""
    distinct, codes = _number(keys)
    if len(distinct) == len(keys):
        return None
    seen = np.maximum.accumulate(np.concatenate(([-1], codes[:-1])))
    row = int(np.flatnonzero(codes <= seen)[0])
    return row, message.format(keys[row])


def _first_unknown(distinct, codes, known, what: str):
    """``(row, message)`` of the first row whose key (numbered by ``_number``)
    is not in ``known``; None if every key is known."""
    for code, key in enumerate(distinct):
        if key not in known:
            return int(np.argmax(codes == code)), f"unknown {what} {key!r}"
    return None


def _records(make, *columns):
    """``(records, failed)``: ``make(*row)`` of each row of ``columns`` up to
    the first that raises ``DataError``, and ``(row, message)`` of that row,
    or None."""
    records = []
    for row, values in enumerate(zip(*columns)):
        try:
            records.append(make(*values))
        except DataError as exc:
            return records, (row, str(exc))
    return records, None


def _check(path: str, lines, *found) -> None:
    """Raise ``DataError`` naming ``path:line`` of the first row in file order
    among ``found``, each a ``(row, message)`` of one check or None; of two
    checks that reject the same row, the one given first."""
    found = [f for f in found if f is not None]
    if found:
        row, message = min(found, key=lambda f: f[0])
        raise DataError(f"{path}:{lines[row]}: {message}")


def _read_groups(path: str, columns: dict, known=None, increasing=False) -> dict:
    """``id -> [one array per further column]`` from a table whose first
    column is an id, with the ids in order of first appearance and each
    group's rows in file order.

    The ids are numbered in order of first appearance, and one stable
    ``argsort`` of those numbers groups the rows, each group a slice.  Each
    id must be in ``known``, if given; with ``increasing``, the second column
    (a day) must be at least 1 and increase within an id.  These are array
    checks, and the first row in file order that fails one raises
    ``DataError`` naming its ``path:line``."""
    what, second = list(columns)[:2]
    (ids, *rest), lines = _read_columns(path, columns)
    distinct, codes = _number(ids)
    order = np.argsort(codes, kind="stable")
    rest = [col[order] for col in rest]
    unknown = None if known is None else _first_unknown(distinct, codes, known, what)
    low = down = None
    if increasing:
        below = order[rest[0] < 1]
        if below.size:
            row = int(below.min())
            low = row, f"{second} below 1 for {what} {distinct[codes[row]]!r}"
        same = codes[order][1:] == codes[order][:-1]
        bad = order[1:][same & (rest[0][1:] <= rest[0][:-1])]
        if bad.size:
            row = int(bad.min())
            down = row, f"non-monotone {second} for {what} {distinct[codes[row]]!r}"
    _check(path, lines, unknown, low, down)
    counts = np.bincount(codes, minlength=len(distinct))
    ends = np.cumsum(counts)
    starts = ends - counts
    return {
        key: [col[lo:hi] for col in rest]
        for key, lo, hi in zip(distinct, starts.tolist(), ends.tolist())
    }


def _series(groups: dict) -> dict:
    """``id -> DailySeries`` from ``_read_groups`` of ``day, value`` columns."""
    return {key: DailySeries(str(key), days, values) for key, (days, values) in groups.items()}


def _vertices(cols) -> np.ndarray:
    """(k, 2) vertices from ``vertex_index, x, y, ...`` columns, by vertex_index."""
    return np.array([row[1:3] for row in sorted(zip(*cols))])


def load_dataset(path: str, *, daily_series: bool = True) -> Dataset:
    """Load a dataset directory, resolving and checking all cross-references.

    With ``daily_series`` false, ``daily_series.csv`` is neither opened nor
    checked, and ``Dataset.daily_series`` is ``{}``: for a caller that uses
    only Step I's tables."""
    manifest_path = os.path.join(path, "manifest.txt")
    if not os.path.exists(manifest_path):
        raise DataError(f"missing manifest file: {manifest_path}")
    raw = read_keyvalue(manifest_path)
    for key in raw:
        if key not in _MANIFEST_KEYS:
            raise DataError(f"{raw.where[key]}: unknown key {key!r}")
    files = {key: raw.get(key, name) for key, name in _DEFAULT_FILES.items()}
    manifest = Manifest(raw.parse("epoch", datetime.date), raw.get("crs", "unspecified"), files)
    cell = raw.parse("cmaq_cell_size", "finite > 0", 12000.0)
    fpath = {key: os.path.join(path, name) for key, name in files.items()}

    def exists(*keys):
        return all(os.path.exists(fpath[key]) for key in keys)

    def table(key, *args, reader=read_table, **kwargs):
        return reader(fpath[key], _COLUMNS[key], *args, **kwargs)

    if not exists("sites"):
        raise DataError(f"missing sites file: {fpath['sites']}")
    columns, lines = table("sites")
    records, failed = _records(SiteRecord, *columns)
    _check(fpath["sites"], lines, _first_repeat(columns[0], "duplicate site id {!r}"), failed)
    sites = dict(zip(columns[0], records))
    interval_obs = []
    if exists("interval_obs"):
        columns, lines = table("interval_obs")
        interval_obs, failed = _records(IntervalObservation, *columns)
        unknown = _first_unknown(*_number(columns[0]), sites, "site_id")
        _check(fpath["interval_obs"], lines, unknown, failed)
    site_attrs, dense = {}, {}
    if exists("site_attrs"):
        (ids, elevation), lines = table("site_attrs")
        _check(fpath["site_attrs"], lines, _first_unknown(*_number(ids), sites, "site_id"),
               _first_repeat(ids, "duplicate site_id {!r}"))
        site_attrs = {sid: {"elevation_m": elev} for sid, elev in zip(ids, elevation)}
    if daily_series and exists("daily_series"):
        dense = _series(table("daily_series", sites, reader=_read_groups, increasing=True))

    pid, xs, ys = [], [], []
    if exists("cmaq_centroids"):
        (pid, xs, ys), lines = table("cmaq_centroids")
        _check(fpath["cmaq_centroids"], lines, _first_repeat(pid, "duplicate pixel_id {}"))
    series = {}
    if exists("cmaq_centroids", "cmaq_daily"):
        series = _series(table("cmaq_daily", set(pid), reader=_read_groups, increasing=True))
    cmaq = CmaqGrid(np.array(pid, dtype=int), np.array(xs), np.array(ys), cell, series)

    traffic = []
    if exists("traffic"):
        traffic = [
            TrafficPolyline(line_id, _vertices(cols), float(cols[3][0]))
            for line_id, cols in table("traffic", reader=_read_groups).items()
        ]

    tracts = []
    if exists("tracts", "tract_attrs"):
        (ids, population, area), lines = table("tract_attrs")
        records, failed = _records(TractPolygon, ids, repeat(np.empty((0, 2))), population, area)
        _check(fpath["tract_attrs"], lines, failed, _first_repeat(ids, "duplicate tract_id {!r}"))
        attrs = dict(zip(ids, records))
        polygons = table("tracts", attrs, reader=_read_groups)
        tracts = [replace(attrs[tid], vertices=_vertices(cols)) for tid, cols in polygons.items()]

    landuse = reclass = None
    if exists("landuse"):
        landuse = read_raster(fpath["landuse"])
        if exists("landuse_reclass"):
            reclass = dict(zip(*table("landuse_reclass")[0]))

    return Dataset(
        manifest=manifest,
        sites=sites,
        interval_obs=interval_obs,
        daily_series=dense,
        cmaq=cmaq,
        traffic=traffic,
        tracts=tracts,
        site_attrs=site_attrs,
        landuse=landuse,
        landuse_reclass=reclass,
    )


#: Rows that ``write_table`` formats and writes at a time, which bounds the
#: text it holds for a long table.
_WRITE_ROWS = 8192


def write_table(path: str, names, columns, header_lines=()) -> None:
    """Write a CSV file: ``# `` comment lines, the column ``names``, then one
    line per row of ``columns`` (sequences of one length; none for no rows),
    with text as is and numbers as ``fmt_num`` writes them.  The rows are
    formatted and written ``_WRITE_ROWS`` at a time, each column of a chunk
    by one ``_fmt_column`` call: one pass per rule for a numeric array."""
    columns = list(columns)
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError(f"write_table {path}: columns of unequal length")
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for lo in range(0, n, _WRITE_ROWS):
            texts = [_fmt_column(col[lo:lo + _WRITE_ROWS]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def group_columns(groups) -> list:
    """Table columns of ``(key, arrays)`` groups, one group's rows after
    another: the key repeated on each row of its group, then each array
    concatenated over the groups.  No groups give no columns."""
    groups = list(groups)
    if not groups:
        return []
    keys, arrays = zip(*groups)
    counts = [len(group[0]) for group in arrays]
    ids = list(chain.from_iterable(map(repeat, _fmt_column(keys), counts)))
    return [ids, *map(np.concatenate, zip(*arrays))]


def write_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset directory in canonical field order (round-trip stable)."""
    os.makedirs(path, exist_ok=True)
    files = {**_DEFAULT_FILES, **dataset.manifest.files}

    write_keyvalue(os.path.join(path, "manifest.txt"), {
        "epoch": dataset.manifest.epoch.isoformat(),
        "crs": dataset.manifest.crs,
        "cmaq_cell_size": fmt_num(dataset.cmaq.cell_size),
        **{key: name for key, name in files.items() if name != _DEFAULT_FILES[key]},
    })

    def write(key, columns):
        write_table(os.path.join(path, files[key]), _COLUMNS[key], columns)

    cmaq = dataset.cmaq
    write("sites", zip(*((s.id, s.x, s.y, s.role) for s in dataset.sites.values())))
    write("interval_obs", zip(*(
        (o.site_id, o.t_start, o.t_end, o.value) for o in dataset.interval_obs
    )))
    write("daily_series", group_columns(
        (sid, (ser.days, ser.values)) for sid, ser in dataset.daily_series.items()
    ))
    write("cmaq_centroids", (cmaq.pixel_ids, cmaq.xs, cmaq.ys))
    write("cmaq_daily", group_columns(
        (p, (cmaq.series[p].days, cmaq.series[p].values))
        for p in cmaq.pixel_ids.tolist() if p in cmaq.series
    ))
    write("traffic", zip(*(
        (line.line_id, i, x, y, line.adt)
        for line in dataset.traffic for i, (x, y) in enumerate(line.vertices)
    )))
    write("tracts", zip(*(
        (tr.tract_id, i, x, y) for tr in dataset.tracts for i, (x, y) in enumerate(tr.vertices)
    )))
    write("tract_attrs", zip(*((tr.tract_id, tr.population, tr.area_mi2) for tr in dataset.tracts)))
    write("site_attrs", zip(*(
        (sid, attrs["elevation_m"]) for sid, attrs in dataset.site_attrs.items()
    )))
    if dataset.landuse is not None:
        write_raster(dataset.landuse, os.path.join(path, files["landuse"]))
        if dataset.landuse_reclass is not None:
            write("landuse_reclass", zip(*(
                (code, dataset.landuse_reclass[code]) for code in sorted(dataset.landuse_reclass)
            )))
