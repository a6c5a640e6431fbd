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

import logging
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

_LOG = logging.getLogger(__name__)


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
        d_km = np.asarray(d_km)
        ring = np.zeros(d_km.shape, dtype=np.intp)
        for r in self.radii_km[:-1]:  # a few comparisons beat a binary search
            ring += d_km > r
        return np.where(d_km <= self.radii_km[-1], ring, -1)


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


def _traffic_reach(spec: BufferSpec) -> float:
    """Distance (m) along x or y beyond which a source is outside every ring
    of a point: the outer radius + 1 m."""
    return spec.radii_km[-1] * 1000.0 + 1.0


def _ring_sources(xy, sources, spec: BufferSpec):
    """(point, ring, quadrant, volume) of each (point, source) pair inside the
    last ring, by source; so each point's pairs are in source order.

    ``sources`` is a ``segmentize`` table or a list of ``TrafficSegment``.
    Quadrants follow the signs of (dx, dy) from the point: NE dx>0, dy>=0 (and
    a source at the point itself), NW dx<=0, dy>0, SW dx<0, dy<=0, SE the rest.
    Volume is vehicle-km/day.  A point's pairs depend only on the sources
    within ``_traffic_reach`` of it and their order, so any subset of the
    sources that keeps those, in the same order, gives it the same pairs.
    """
    xy, seg = _points(xy), np.asarray(sources, dtype=float).reshape(-1, 4)
    # each source meets the run of the points, sorted by x, within the reach
    # of it along x; a pair farther along x or y is outside every ring
    reach = _traffic_reach(spec)
    (px, py), (sx, sy) = xy.T, seg[:, :2].T
    by_x = np.argsort(px)
    first = np.searchsorted(px[by_x], sx - reach)
    count = np.searchsorted(px[by_x], sx + reach, side="right") - first
    source = np.repeat(np.arange(len(seg)), count)
    point = by_x[np.arange(len(source)) + np.repeat(first - np.cumsum(count) + count, count)]
    near = np.flatnonzero(np.abs(sy[source] - py[point]) <= reach)
    point, source = point[near], source[near]
    dx, dy = sx[source] - px[point], sy[source] - py[point]
    ring = spec.ring_index(np.hypot(dx, dy) / 1000.0)
    inside = np.flatnonzero(ring >= 0)
    point, source, ring, dx, dy = (a[inside] for a in (point, source, ring, dx, dy))
    quadrant = np.select(
        [((dx > 0) & (dy >= 0)) | ((dx == 0) & (dy == 0)),
         (dx <= 0) & (dy > 0),
         (dx < 0) & (dy <= 0)],
        [0, 1, 2], default=3,
    )
    return point, ring, quadrant, (seg[:, 2] * seg[:, 3])[source]


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
    """(reach, rows, cols): cells from a point to the outer land-use radius
    plus one, and the rows and columns of a window of cells that holds every
    cell in reach.  The window is never larger than the raster: one that
    starts on the raster and is as large holds every raster cell from its
    start on."""
    reach = spec.radii_km[N_LANDUSE_RINGS - 1] * 1000.0 / raster.cell_size + 1.0
    side = 2.0 * reach  # inf for a reach beyond the largest float
    return reach, *(min(int(min(side, size)) + 3, size) for size in (raster.n_rows, raster.n_cols))


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
    reach, n_rows, n_cols = _landuse_window(raster, spec)
    fx = (xy[:, 0] - raster.x_ll) / raster.cell_size
    fy = raster.n_rows - (xy[:, 1] - raster.y_ll) / raster.cell_size
    cols, rows = (np.clip(np.trunc(f - reach), 0, size).astype(np.intp)[:, None] + np.arange(side)
                  for f, size, side in ((fx, raster.n_cols, n_cols), (fy, raster.n_rows, n_rows)))
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


def seasonal_table(manifest, T: int) -> np.ndarray:
    """(T, 4): ``seasonal_basis`` of days 1..T.  A whole day's day of year
    repeats every 365 days, so each calendar day is computed once."""
    year = np.array([seasonal_basis(manifest.dyr(d)) for d in range(1, min(T, 365) + 1)])
    return year[np.arange(T) % 365]


SEASON_NAMES = ("sin_2pi_dyr", "cos_2pi_dyr", "sin_4pi_dyr", "cos_4pi_dyr")


def interval_sites(dataset: Dataset) -> list:
    """The sites with interval observations, in order of first observation."""
    return [dataset.sites[sid]
            for sid in dict.fromkeys(obs.site_id for obs in dataset.interval_obs)]


def build_covariates(dataset: Dataset, spec: BufferSpec = BufferSpec()):
    """Step I covariates of the interval observations as one column table;
    an observation that fails is skipped, with a warning naming its site.

    The table holds the ``site_covariates`` keys, taken row by row from one
    call over the interval sites, and ``site_id``, ``t_start``, ``t_end``,
    ``dyr``, ``season`` (n, 4), ``cmaq_mean``, ``cmaq_days_used`` and
    ``response``, the observed value: each with a leading row axis.
    """
    segments = segmentize([(p.vertices, p.adt) for p in dataset.traffic])
    sites = interval_sites(dataset)
    static = site_covariates(dataset, sites, segments, spec)
    index = {s.id: j for j, s in enumerate(sites)}
    site_of_row, columns = [], []
    for obs in dataset.interval_obs:
        j = index[obs.site_id]
        if math.isnan(static["pop_density"][j]):
            _LOG.warning("warning: %s", outside_tracts(obs.site_id))
            continue
        try:
            dyr = dataset.manifest.dyr(0.5 * (obs.t_start + obs.t_end))
            cmaq_mean, n_used, k = math.nan, 0, static["cmaq_index"][j]
            ser = dataset.cmaq.series.get(int(dataset.cmaq.pixel_ids[k])) if k >= 0 else None
            if ser is not None:
                cmaq_mean, n_used = interval_mean(ser, obs.t_start, obs.t_end)
            season = seasonal_basis(dyr)
        except DataError as exc:
            _LOG.warning("warning: site %s: %s", obs.site_id, exc)
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
    return table


#: Bound on the (points x sources) pairs of a ``static_covariates`` chunk: a
#: traffic chunk pairs its points with the road segments around them, and
#: the land-use, tract and coarse-pixel chunks pair theirs with that table's
#: land-use window cells, tract edges or centroids.  1 MB per float array.
CHUNK_ELEMENTS = 1 << 17


def _traffic_chunks(xy, segments, reach: float) -> list:
    """(point indices, segment indices) of each traffic chunk of the points.

    The segments are binned on a square grid of side ``reach``, so every
    segment within ``reach`` of a point along x and y lies in the 3 x 3
    cells around the point's cell.  The points, ordered by cell, are cut into
    chunks of whole cells with at most ``CHUNK_ELEMENTS`` (points x
    candidates) pairs; a chunk's candidates are the segments of the 3 x 3
    cells around its cells, in ascending index.  A cell whose points alone
    exceed the bound is cut into pieces of at least one point.
    """
    n, none = len(xy), np.empty(0, dtype=np.intp)
    if not (n and len(segments)):
        return [(np.arange(n), none)]
    low, high = (np.array([f(segments[:, 0]), f(segments[:, 1])]) for f in (np.min, np.max))
    top = np.floor((high - low) / reach) + 1.0
    width = int(top[0]) + 4

    def cell(p):
        # row-major key of the cell, with two empty cells of margin on every
        # side: a point beyond them is moved onto them, and NaN onto the first
        f = np.fmin(np.fmax(np.floor((p - low) / reach), -2.0), top + 1.0).astype(np.intp) + 2
        return f[:, 1] * width + f[:, 0]

    segment_cell = cell(segments[:, :2])
    by_cell = np.argsort(segment_cell)
    keys, first, count = np.unique(segment_cell[by_cell], return_index=True, return_counts=True)
    span = {k: (a, a + m) for k, a, m in zip(keys.tolist(), first.tolist(), count.tolist())}
    around = [dy * width + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)]

    point_cell = cell(xy)
    order = np.argsort(point_cell)
    cells, bounds = np.unique(point_cell[order], return_index=True)
    bounds = np.append(bounds, n).tolist()

    def size(keys):
        return sum(span[k][1] - span[k][0] for k in keys)

    # each group: its first and end cell, and the segment cells near them
    groups, start, near, found = [], 0, set(), 0
    for c, key in enumerate(cells.tolist()):
        block = {key + d for d in around} & span.keys()
        pairs = (bounds[c + 1] - bounds[start]) * (found + size(block - near))
        if c > start and pairs > CHUNK_ELEMENTS:
            groups.append((start, c, near))
            start, near, found = c, set(), 0
        found += size(block - near)
        near |= block
    groups.append((start, len(cells), near))

    chunks = []
    for start, stop, near in groups:
        points = order[bounds[start]:bounds[stop]]
        candidates = np.sort(np.concatenate([by_cell[slice(*span[k])] for k in near] + [none]))
        step = max(1, CHUNK_ELEMENTS // max(len(candidates), 1))
        chunks += [(points[i:i + step], candidates) for i in range(0, len(points), step)]
    return chunks


def static_covariates(dataset: Dataset, xy, segments, spec: BufferSpec = BufferSpec()) -> dict:
    """Time-constant covariates at the N points ``xy`` (N, 2), each with a
    leading N axis: ``ttv``, ``ttv_quadrant``, ``lu_area`` {category: (N, 3)},
    ``pop_density`` (NaN outside every tract), ``elevation`` (NaN: only sites
    have one) and ``cmaq_index``, of the nearest coarse-grid centroid (-1
    without a grid).

    Each table takes the points in its own chunks of at most
    ``CHUNK_ELEMENTS`` (points x sources) pairs.  Traffic chunks hold whole
    cells of a grid of road segments (``_traffic_chunks``), and one
    ``ring_ttv`` pass per chunk gives both traffic tables: each point meets
    the segments within reach of it in ascending segment order, whichever
    chunk it falls in.  The other tables take the points in input order.
    Each row has the bits of its point alone.
    """
    xy, segments = _points(xy), np.asarray(segments, dtype=float).reshape(-1, 4)
    n = len(xy)
    ttv, ttv_quadrant = np.zeros((n, spec.n_rings)), np.zeros((n, 4, spec.n_rings))
    for points, near in _traffic_chunks(xy, segments, _traffic_reach(spec)):
        ttv[points], ttv_quadrant[points] = ring_ttv(xy[points], segments[near], spec)

    def stack(parts):
        if isinstance(parts[0], dict):
            return {key: stack([p[key] for p in parts]) for key in parts[0]}
        return np.concatenate(parts)

    def chunked(kernel, width, *args):
        step = max(1, CHUNK_ELEMENTS // width)
        return stack([kernel(xy[i:i + step], *args) for i in range(0, n, step) or [0]])

    if dataset.landuse is not None and dataset.landuse_reclass is not None:
        lu_area = chunked(ring_landuse_area, math.prod(_landuse_window(dataset.landuse, spec)[1:]),
                          dataset.landuse, dataset.landuse_reclass, spec)
    else:
        lu_area = {c: np.zeros((n, N_LANDUSE_RINGS)) for c in LANDUSE_CATEGORIES}
    cmaq = dataset.cmaq
    return {
        "ttv": ttv,
        "ttv_quadrant": ttv_quadrant,
        "lu_area": lu_area,
        "pop_density": (chunked(population_density, sum(len(t.vertices) for t in dataset.tracts),
                                dataset.tracts)
                        if dataset.tracts else np.zeros(n)),
        "elevation": np.full(n, math.nan),
        "cmaq_index": (chunked(nearest_cmaq_centroid, cmaq.pixel_ids.size, cmaq)
                       if cmaq.pixel_ids.size else np.full(n, -1)),
    }


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
