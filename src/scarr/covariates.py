"""Step I covariate construction.

Ring-buffer traffic volumes (in total and by quadrant), land-use ring
areas from a classified raster, census-tract population density, per-site
elevation and the trigonometric seasonal basis.

The geometry kernels take N points at once, as an (N, 2) array: sites and
raster pixels share ``static_covariates``, one chunked array pass.  The
interval observations' covariates are one column table of its rows
(``build_covariates``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from scarr.data_model import (
    Dataset,
    RasterGrid,
    SiteRecord,
    interval_mean,
    nearest_cmaq_centroid,
    write_table,
)
from scarr.errors import DataError

QUADRANTS = ("NE", "NW", "SW", "SE")
LANDUSE_CATEGORIES = ("developed", "forest", "other")

#: Rings used for land-use areas (first three buffer radii).
N_LANDUSE_RINGS = 3

#: Length (m) of the pieces ``segmentize`` cuts a traffic polyline into.
SEGMENT_LENGTH_M = 50.0


class TrafficSegment(NamedTuple):
    """One row of the ``segmentize`` table."""

    x: float
    y: float
    length_km: float
    adt: float


@dataclass(frozen=True)
class BufferSpec:
    radii_km: tuple = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def __post_init__(self):
        r = tuple(self.radii_km)
        if (len(r) < N_LANDUSE_RINGS or not all(map(math.isfinite, r))
                or any(b <= a for a, b in zip((0.0,) + r, r))):
            raise DataError(f"buffer radii must be {N_LANDUSE_RINGS} or more finite numbers, "
                            "strictly increasing and > 0")
        if len(set(self.ring_labels())) < len(r):
            raise DataError("buffer radii too close to name their rings apart")

    @property
    def n_rings(self) -> int:
        return len(self.radii_km)

    def ring_labels(self):
        inner = (0.0,) + tuple(self.radii_km[:-1])
        return [f"{a:g}-{b:g}km" for a, b in zip(inner, self.radii_km)]

    def groups(self) -> dict:
        """Column names of each ring group, inner ring first: ``ttv``, then
        ``ttv_<q>`` in ``QUADRANTS`` order, then ``lu_<cat>`` over the land-use
        rings for each of ``LANDUSE_CATEGORIES``."""
        labels = self.ring_labels()
        out = {"ttv": [f"ttv_{lab}" for lab in labels]}
        out.update({f"ttv_{q}": [f"ttv_{q}_{lab}" for lab in labels] for q in QUADRANTS})
        out.update({f"lu_{cat}": [f"lu_{cat}_{lab}" for lab in labels[:N_LANDUSE_RINGS]]
                    for cat in LANDUSE_CATEGORIES})
        return out

    def landuse_total(self, cat: str) -> str:
        """Name of the column of ``cat``'s area over all the land-use rings."""
        return f"lu_{cat}_0-{self.radii_km[N_LANDUSE_RINGS - 1]:g}km"

    def ring_index(self, d_km):
        """Ring of each distance (boundary to the inner ring); -1 if beyond."""
        k = np.searchsorted(self.radii_km, d_km, side="left")
        return np.where(k < self.n_rings, k, -1)


def segmentize(polylines) -> np.ndarray:
    """Split (vertices, adt) polylines into consecutive ~SEGMENT_LENGTH_M segments.

    Each polyline yields pieces of length SEGMENT_LENGTH_M plus one residual piece;
    segment midpoints lie on the polyline and lengths sum to the polyline length.
    Returns an (S, 4) table with the columns of ``TrafficSegment``: midpoint
    x and y (m), length_km and adt.
    """
    tables = [np.empty((0, 4))]
    for vertices, adt in polylines:
        verts = np.asarray(vertices, dtype=float)
        if verts.shape[0] < 2:
            raise DataError("segmentize: polyline needs at least 2 vertices")
        seg_vec = np.diff(verts, axis=0)
        seg_len = np.hypot(seg_vec[:, 0], seg_vec[:, 1])
        total = float(seg_len.sum())
        if total <= 0:
            raise DataError("segmentize: zero-length polyline")
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])

        breaks = np.arange(int(total // SEGMENT_LENGTH_M) + 1) * SEGMENT_LENGTH_M
        if total - breaks[-1] > 1e-9:
            breaks = np.append(breaks, total)
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        i = np.minimum(np.searchsorted(cum, mids, side="right") - 1, len(seg_len) - 1)
        frac = np.divide(mids - cum[i], seg_len[i], out=np.zeros(len(mids)),
                         where=seg_len[i] > 0)
        xy = verts[i] + frac[:, None] * seg_vec[i]
        tables.append(np.column_stack(
            [xy, np.diff(breaks) / 1000.0, np.full(len(mids), adt)]
        ))
    return np.concatenate(tables)


def _points(xy) -> np.ndarray:
    return np.asarray(xy, dtype=float).reshape(-1, 2)


def _ring_sources(xy, sources, spec: BufferSpec):
    """(point, ring, quadrant, volume) of each (point, source) pair inside the
    last ring, by point and then in source order.

    ``sources`` is a ``segmentize`` table or a list of ``TrafficSegment``.
    Quadrants follow the signs of (dx, dy) from the point: NE dx>0, dy>=0 (and
    a source at the point itself), NW dx<=0, dy>0, SW dx<0, dy<=0, SE the rest.
    Volume is vehicle-km/day.
    """
    xy, seg = _points(xy), np.asarray(sources, dtype=float).reshape(-1, 4)
    # a source farther than the last ring (+1 m) along x or y cannot count:
    # drop it for all points, then for each pair, before the exact distance
    reach = spec.radii_km[-1] * 1000.0 + 1.0
    if len(xy):
        near = (seg[:, :2] >= xy.min(axis=0) - reach) & (seg[:, :2] <= xy.max(axis=0) + reach)
        seg = seg[near.all(axis=1)]
    dx, dy = seg[:, 0] - xy[:, :1], seg[:, 1] - xy[:, 1:]
    point, source = np.nonzero((np.abs(dx) <= reach) & (np.abs(dy) <= reach))
    dx, dy = dx[point, source], dy[point, source]
    ring = spec.ring_index(np.hypot(dx, dy) / 1000.0)
    inside = ring >= 0
    point, source, ring, dx, dy = (a[inside] for a in (point, source, ring, dx, dy))
    quadrant = np.select(
        [((dx > 0) & (dy >= 0)) | ((dx == 0) & (dy == 0)),
         (dx <= 0) & (dy > 0),
         (dx < 0) & (dy <= 0)],
        [0, 1, 2], default=3,
    )
    return point, ring, quadrant, seg[source, 2] * seg[source, 3]


def ring_ttv(xy, sources, spec: BufferSpec = BufferSpec()):
    """(ttv (N, n_rings), ttv_quadrant (N, 4, n_rings)): total traffic volume
    per buffer ring around the N points ``xy``, and the same split by quadrant
    (NE, NW, SW, SE order), in 10,000 vehicle-km/day units, from one pass over
    the (point, source) pairs.  ``np.bincount`` adds each bin in input order,
    so each point's sums have the bits of that point alone."""
    point, ring, quadrant, volume = _ring_sources(xy, sources, spec)
    n, r = len(_points(xy)), spec.n_rings
    ttv = np.bincount(point * r + ring, volume, n * r).reshape(n, r)
    by_quadrant = np.bincount((point * 4 + quadrant) * r + ring, volume, n * 4 * r)
    return ttv / 10_000.0, by_quadrant.reshape(n, 4, r) / 10_000.0


def quadrant_ttv(xy, sources, spec: BufferSpec = BufferSpec()) -> np.ndarray:
    """(N, 4, n_rings) TTV tables by quadrant: ``ring_ttv``'s second table."""
    return ring_ttv(xy, sources, spec)[1]


def _landuse_window(raster: RasterGrid, spec: BufferSpec):
    """(reach, side): cells from a point to the outer land-use radius plus
    one, and the side of a window of cells that holds every cell in reach."""
    reach = spec.radii_km[N_LANDUSE_RINGS - 1] * 1000.0 / raster.cell_size + 1.0
    return reach, int(2.0 * reach) + 3


def ring_landuse_area(xy, raster: RasterGrid, reclass: dict,
                      spec: BufferSpec = BufferSpec()) -> dict:
    """Hectares of each reclassified category per ring (pixel-centroid
    membership) around the N points ``xy``: {category: (N, N_LANDUSE_RINGS) array}.

    Every non-nodata raster code in reach of a point must appear in the
    reclass map; the error names the first missing one by point, then in
    row-major order.
    """
    xy = _points(xy)
    n = len(xy)
    cats = sorted(set(reclass.values()))
    codes = sorted(reclass)
    cat_of_code = np.array([cats.index(reclass[c]) for c in codes], dtype=np.intp)
    cell_ha = raster.cell_size**2 / 10_000.0

    # each point reads a window from the cell of its outer reach on; the
    # centroid formula of ``RasterGrid.centroids`` there keeps the distances,
    # and row-major order, of the whole raster.  Window cells off the raster
    # are masked, and the others beyond reach fall outside every ring.
    reach, side = _landuse_window(raster, spec)
    fx = (xy[:, 0] - raster.x_ll) / raster.cell_size
    fy = raster.n_rows - (xy[:, 1] - raster.y_ll) / raster.cell_size
    cols, rows = (np.clip(np.trunc(f - reach), 0, size).astype(np.intp)[:, None] + np.arange(side)
                  for f, size in ((fx, raster.n_cols), (fy, raster.n_rows)))
    x = raster.x_ll + (cols + 0.5) * raster.cell_size
    y = raster.y_ll + (raster.n_rows - rows - 0.5) * raster.cell_size
    ring = spec.ring_index(np.hypot(x[:, None, :] - xy[:, :1, None],
                                    y[:, :, None] - xy[:, 1:, None]) / 1000.0)
    vals = raster.values[np.minimum(rows, raster.n_rows - 1)[:, :, None],
                         np.minimum(cols, raster.n_cols - 1)[:, None, :]]
    keep = ((rows < raster.n_rows)[:, :, None] & (cols < raster.n_cols)[:, None, :]
            & (ring >= 0) & (ring < N_LANDUSE_RINGS) & (vals != raster.nodata_value))
    point = np.nonzero(keep)[0]
    ring, cell_codes = ring[keep], vals[keep].astype(np.int64)
    unknown = ~np.isin(cell_codes, codes)
    if unknown.any():
        raise DataError(f"land-use code {cell_codes[unknown][0]} absent from reclass map")
    cat = cat_of_code[np.searchsorted(codes, cell_codes)]
    out = np.bincount((point * len(cats) + cat) * N_LANDUSE_RINGS + ring,
                      np.full(len(ring), cell_ha), n * len(cats) * N_LANDUSE_RINGS)
    return dict(zip(cats, np.moveaxis(out.reshape(n, len(cats), N_LANDUSE_RINGS), 1, 0)))


def population_density(xy, tracts) -> np.ndarray:
    """Population density (persons/mi^2) of the tract containing each of the
    N points ``xy``, NaN outside every tract; a point on a shared boundary
    takes the lowest-index containing tract.

    Membership is the even-odd rule, as array code over (points, edges of
    all tracts); a point on an edge counts as inside.
    """
    xy = _points(xy)
    x, y = xy[:, :1], xy[:, 1:]
    x1, y1 = np.concatenate([t.vertices for t in tracts]).T
    x2, y2 = np.concatenate([np.roll(t.vertices, -1, axis=0) for t in tracts]).T
    on_edge = (
        (np.minimum(x1, x2) - 1e-12 <= x) & (x <= np.maximum(x1, x2) + 1e-12)
        & (np.minimum(y1, y2) - 1e-12 <= y) & (y <= np.maximum(y1, y2) + 1e-12)
        & (np.abs((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1))
           < 1e-9 * np.maximum(1.0, np.abs(x2 - x1) + np.abs(y2 - y1)))
    )
    with np.errstate(divide="ignore", invalid="ignore"):  # edges that y does not cross
        crossing = ((y1 > y) != (y2 > y)) & (x < x1 + (y - y1) * (x2 - x1) / (y2 - y1))
    first_edge = np.cumsum([0] + [len(t.vertices) for t in tracts[:-1]])
    inside = (np.logical_or.reduceat(on_edge, first_edge, axis=1)
              | np.logical_xor.reduceat(crossing, first_edge, axis=1))
    density = np.array([t.population / t.area_mi2 for t in tracts])
    return np.where(inside.any(axis=1), density[inside.argmax(axis=1)], np.nan)


def outside_tracts(target_id: str) -> DataError:
    return DataError(f"site {target_id}: outside all census tracts")


def seasonal_basis(dyr: float):
    """(sin 2*pi*DYR, cos 2*pi*DYR, sin 4*pi*DYR, cos 4*pi*DYR)."""
    if not (0.0 < dyr <= 1.0):
        raise DataError(f"DYR {dyr} outside (0, 1]")
    a = 2.0 * math.pi * dyr
    return (math.sin(a), math.cos(a), math.sin(2 * a), math.cos(2 * a))


SEASON_NAMES = ("sin_2pi_dyr", "cos_2pi_dyr", "sin_4pi_dyr", "cos_4pi_dyr")


def interval_sites(dataset: Dataset) -> list:
    """The sites with interval observations, in order of first observation."""
    return [dataset.sites[sid]
            for sid in dict.fromkeys(obs.site_id for obs in dataset.interval_obs)]


def build_covariates(dataset: Dataset, spec: BufferSpec = BufferSpec()):
    """Step I covariates of the interval observations as one column table
    (warns and skips an observation that fails).

    The table holds the ``site_covariates`` keys, taken row by row from one
    call over the interval sites, and ``site_id``, ``t_start``, ``t_end``,
    ``dyr``, ``season`` (n, 4), ``cmaq_mean``, ``cmaq_days_used`` and
    ``response``, the observed value: each with a leading row axis.

    Returns (table, warnings); warnings are human-readable strings naming the
    offending site.
    """
    segments = segmentize([(p.vertices, p.adt) for p in dataset.traffic])
    sites = interval_sites(dataset)
    static = site_covariates(dataset, sites, segments, spec)
    index = {s.id: j for j, s in enumerate(sites)}
    site_of_row, columns, warnings = [], [], []
    for obs in dataset.interval_obs:
        j = index[obs.site_id]
        if math.isnan(static["pop_density"][j]):
            warnings.append(str(outside_tracts(obs.site_id)))
            continue
        try:
            dyr = dataset.manifest.dyr(0.5 * (obs.t_start + obs.t_end))
            cmaq_mean, n_used, k = math.nan, 0, static["cmaq_index"][j]
            ser = dataset.cmaq.series.get(int(dataset.cmaq.pixel_ids[k])) if k >= 0 else None
            if ser is not None:
                cmaq_mean, n_used = interval_mean(ser, obs.t_start, obs.t_end)
            season = seasonal_basis(dyr)
        except DataError as exc:
            warnings.append(f"site {obs.site_id}: {exc}")
            continue
        site_of_row.append(j)
        columns.append((obs.site_id, obs.t_start, obs.t_end, dyr, season, cmaq_mean, n_used,
                        obs.value))

    rows = np.array(site_of_row, dtype=np.intp)
    table = {key: {c: a[rows] for c, a in values.items()} if key == "lu_area" else values[rows]
             for key, values in static.items()}
    site_id, t_start, t_end, dyr, season, cmaq_mean, n_used, response = (
        zip(*columns) if columns else [()] * 8)
    table.update(
        site_id=np.array(site_id, dtype=str),
        t_start=np.array(t_start, dtype=int),
        t_end=np.array(t_end, dtype=int),
        dyr=np.array(dyr, dtype=float),
        season=np.array(season, dtype=float).reshape(-1, len(SEASON_NAMES)),
        cmaq_mean=np.array(cmaq_mean, dtype=float),
        cmaq_days_used=np.array(n_used, dtype=int),
        response=np.array(response, dtype=float),
    )
    return table, warnings


#: Bound on the (points x sources) pairs of a ``static_covariates`` chunk; the
#: sources are road segments, coarse-grid centroids, tract edges or land-use
#: cells.  1 MB per float array.
CHUNK_ELEMENTS = 1 << 17


def static_covariates(dataset: Dataset, xy, segments, spec: BufferSpec = BufferSpec()) -> dict:
    """Time-constant covariates at the N points ``xy`` (N, 2), each with a
    leading N axis: ``ttv``, ``ttv_quadrant``, ``lu_area`` {category: (N, 3)},
    ``pop_density`` (NaN outside every tract), ``elevation`` (NaN: only sites
    have one) and ``cmaq_index``, of the nearest coarse-grid centroid (-1
    without a grid).  Each chunk of points has at most ``CHUNK_ELEMENTS``
    (points x sources) pairs, and one ``ring_ttv`` traffic pass gives both
    traffic tables; each row has the bits of its point alone.
    """
    xy, segments = _points(xy), np.asarray(segments, dtype=float).reshape(-1, 4)
    landuse = dataset.landuse is not None and dataset.landuse_reclass is not None
    window = _landuse_window(dataset.landuse, spec)[1] ** 2 if landuse else 0
    edges = sum(len(t.vertices) for t in dataset.tracts)
    widest = max(len(segments), dataset.cmaq.pixel_ids.size, window, edges, 1)
    step = max(1, CHUNK_ELEMENTS // widest)

    def chunk(pts):
        n = len(pts)
        ttv, ttv_quadrant = ring_ttv(pts, segments, spec)
        return {
            "ttv": ttv,
            "ttv_quadrant": ttv_quadrant,
            "lu_area": (ring_landuse_area(pts, dataset.landuse, dataset.landuse_reclass, spec)
                        if landuse else
                        {c: np.zeros((n, N_LANDUSE_RINGS)) for c in LANDUSE_CATEGORIES}),
            "pop_density": (population_density(pts, dataset.tracts)
                            if dataset.tracts else np.zeros(n)),
            "elevation": np.full(n, math.nan),
            "cmaq_index": (nearest_cmaq_centroid(pts, dataset.cmaq)
                           if dataset.cmaq.pixel_ids.size else np.full(n, -1)),
        }

    def stack(parts):
        if isinstance(parts[0], dict):
            return {key: stack([p[key] for p in parts]) for key in parts[0]}
        return np.concatenate(parts)

    return stack([chunk(xy[i:i + step]) for i in range(0, len(xy), step) or [0]])


def site_covariates(dataset: Dataset, sites, segments, spec: BufferSpec = BufferSpec()) -> dict:
    """``static_covariates`` at the site records ``sites``, with each site's
    elevation (NaN where ``site_attrs`` has none)."""
    static = static_covariates(dataset, [(s.x, s.y) for s in sites], segments, spec)
    static["elevation"] = np.array(
        [dataset.site_attrs.get(s.id, {}).get("elevation_m", math.nan) for s in sites],
        dtype=float)
    return static


def site_static_covariates(
    dataset: Dataset,
    site: SiteRecord,
    segments,
    spec: BufferSpec = BufferSpec(),
) -> dict:
    """Time-constant covariates for one site: the one-row view of
    ``site_covariates``."""
    static = site_covariates(dataset, [site], segments, spec)
    if math.isnan(static["pop_density"][0]):
        raise outside_tracts(site.id)
    row = {key: values[0] for key, values in static.items() if key != "lu_area"}
    return {**row, "lu_area": {c: areas[0] for c, areas in static["lu_area"].items()}}


def covariate_header(spec: BufferSpec = BufferSpec()):
    """Fixed column order of covariates.csv."""
    cols = ["site_id", "t_start", "t_end", "dyr"]
    cols += [name for names in spec.groups().values() for name in names]
    cols += ["pop_density", "elevation_m"] + list(SEASON_NAMES)
    cols += ["cmaq_mean", "cmaq_days_used"]
    return cols


def write_covariates(table, path: str, spec: BufferSpec = BufferSpec(),
                     header_lines=()) -> None:
    """``build_covariates`` table as covariates.csv, columns in ``covariate_header`` order."""
    n = len(table["response"])
    lu = [table["lu_area"].get(cat, np.zeros((n, N_LANDUSE_RINGS))).T for cat in LANDUSE_CATEGORIES]
    columns = [table["site_id"], table["t_start"], table["t_end"], table["dyr"], *table["ttv"].T,
               *np.concatenate(np.moveaxis(table["ttv_quadrant"], 0, -1)), *np.concatenate(lu),
               table["pop_density"], table["elevation"], *table["season"].T,
               table["cmaq_mean"], table["cmaq_days_used"]]
    write_table(path, covariate_header(spec), columns, header_lines)
