"""Step I covariate construction.

Ring-buffer traffic volumes (optionally split by quadrant), land-use ring
areas from a classified raster, census-tract population density, per-site
elevation and the trigonometric seasonal basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from scarr.data_model import (
    Dataset,
    RasterGrid,
    SiteRecord,
    TractPolygon,
    interval_mean,
    nearest_cmaq_centroid,
    write_table,
)
from scarr.errors import DataError

QUADRANTS = ("NE", "NW", "SW", "SE")
LANDUSE_CATEGORIES = ("developed", "forest", "other")

#: Rings used for land-use areas (first three buffer radii).
N_LANDUSE_RINGS = 3


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
        r = self.radii_km
        if not r or any(b <= a for a, b in zip((0.0,) + tuple(r), r)):
            raise DataError("buffer radii must be strictly increasing and > 0")

    @property
    def n_rings(self) -> int:
        return len(self.radii_km)

    def ring_labels(self):
        inner = (0.0,) + tuple(self.radii_km[:-1])
        return [f"{a:g}-{b:g}km" for a, b in zip(inner, self.radii_km)]

    def ring_index(self, d_km):
        """Ring of each distance (boundary to the inner ring); -1 if beyond."""
        k = np.searchsorted(self.radii_km, d_km, side="left")
        return np.where(k < self.n_rings, k, -1)


def segmentize(polylines, target_len: float = 50.0) -> np.ndarray:
    """Split (vertices, adt) polylines into consecutive ~target_len m segments.

    Each polyline yields pieces of length target_len plus one residual piece;
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

        breaks = np.arange(int(total // target_len) + 1) * target_len
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


def _ring_sources(site: SiteRecord, sources, spec: BufferSpec):
    """(ring, quadrant, volume) of the sources inside the last ring.

    ``sources`` is a ``segmentize`` table or a list of ``TrafficSegment``.
    Quadrants follow the signs of (dx, dy) from the site: NE dx>0, dy>=0 (and
    a source at the site itself), NW dx<=0, dy>0, SW dx<0, dy<=0, SE the rest.
    Volume is vehicle-km/day.
    """
    seg = np.asarray(sources, dtype=float).reshape(-1, 4)
    dx, dy = seg[:, 0] - site.x, seg[:, 1] - site.y
    ring = spec.ring_index(np.hypot(dx, dy) / 1000.0)
    inside = ring >= 0
    dx, dy, seg = dx[inside], dy[inside], seg[inside]
    quadrant = np.select(
        [((dx > 0) & (dy >= 0)) | ((dx == 0) & (dy == 0)),
         (dx <= 0) & (dy > 0),
         (dx < 0) & (dy <= 0)],
        [0, 1, 2], default=3,
    )
    return ring[inside], quadrant, seg[:, 2] * seg[:, 3]


def ring_ttv(site: SiteRecord, sources, spec: BufferSpec = BufferSpec()) -> np.ndarray:
    """Total traffic volume per buffer ring, in 10,000 vehicle-km/day units."""
    ring, _, volume = _ring_sources(site, sources, spec)
    return np.bincount(ring, weights=volume, minlength=spec.n_rings) / 10_000.0


def quadrant_ttv(site: SiteRecord, sources, spec: BufferSpec = BufferSpec()) -> np.ndarray:
    """(4, n_rings) TTV table by quadrant (NE, NW, SW, SE order)."""
    ring, quadrant, volume = _ring_sources(site, sources, spec)
    n = spec.n_rings
    out = np.bincount(quadrant * n + ring, weights=volume, minlength=4 * n)
    return out.reshape(4, n) / 10_000.0


def ring_landuse_area(
    site: SiteRecord,
    raster: RasterGrid,
    reclass: dict,
    spec: BufferSpec = BufferSpec(),
    n_rings: int = N_LANDUSE_RINGS,
) -> dict:
    """Hectares of each reclassified category per ring (pixel-centroid membership).

    Returns {category: array of n_rings ring areas}.  Every non-nodata raster
    code must appear in the reclass map.
    """
    cats = sorted(set(reclass.values()))
    codes = sorted(reclass)
    cat_of_code = np.array([cats.index(reclass[c]) for c in codes], dtype=np.intp)
    cell_ha = raster.cell_size**2 / 10_000.0

    # only the cells within the outer land-use radius (plus one cell) can
    # count; the centroid formula of ``RasterGrid.centroids`` over that window
    # keeps the distances, and row-major order, of the whole raster
    reach = spec.radii_km[n_rings - 1] * 1000.0 / raster.cell_size + 1.0
    fx = (site.x - raster.x_ll) / raster.cell_size
    fy = raster.n_rows - (site.y - raster.y_ll) / raster.cell_size
    c0, c1 = (min(max(int(f), 0), raster.n_cols) for f in (fx - reach, fx + reach + 1.0))
    r0, r1 = (min(max(int(f), 0), raster.n_rows) for f in (fy - reach, fy + reach + 1.0))
    x = raster.x_ll + (np.arange(c0, c1) + 0.5) * raster.cell_size
    y = raster.y_ll + (raster.n_rows - np.arange(r0, r1) - 0.5) * raster.cell_size
    xx, yy = np.meshgrid(x, y)
    ring = spec.ring_index(np.hypot(xx.ravel() - site.x, yy.ravel() - site.y) / 1000.0)
    vals = raster.values[r0:r1, c0:c1].ravel()
    keep = (ring >= 0) & (ring < n_rings) & (vals != raster.nodata_value)
    ring, cell_codes = ring[keep], vals[keep].astype(np.int64)
    unknown = ~np.isin(cell_codes, codes)
    if unknown.any():
        raise DataError(f"land-use code {cell_codes[unknown][0]} absent from reclass map")
    cat = cat_of_code[np.searchsorted(codes, cell_codes)]
    out = np.bincount(cat * n_rings + ring, weights=np.full(len(ring), cell_ha),
                      minlength=len(cats) * n_rings)
    return dict(zip(cats, out.reshape(len(cats), n_rings)))


def _point_in_polygon(x: float, y: float, verts: np.ndarray) -> bool:
    """Even-odd rule ray casting; points on an edge count as inside."""
    inside = False
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        # on-edge check
        if (
            min(x1, x2) - 1e-12 <= x <= max(x1, x2) + 1e-12
            and min(y1, y2) - 1e-12 <= y <= max(y1, y2) + 1e-12
        ):
            cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if abs(cross) < 1e-9 * max(1.0, abs(x2 - x1) + abs(y2 - y1)):
                return True
        if (y1 > y) != (y2 > y):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xint:
                inside = not inside
    return inside


def population_density(site: SiteRecord, tracts) -> float:
    """Population density (persons/mi^2) of the tract containing the site.

    A site on a shared boundary is assigned the lowest-index containing tract.
    """
    for tract in tracts:
        if _point_in_polygon(site.x, site.y, tract.vertices):
            return tract.population / tract.area_mi2
    raise DataError(f"site {site.id}: outside all census tracts")


def seasonal_basis(dyr: float):
    """(sin 2*pi*DYR, cos 2*pi*DYR, sin 4*pi*DYR, cos 4*pi*DYR)."""
    if not (0.0 < dyr <= 1.0):
        raise DataError(f"DYR {dyr} outside (0, 1]")
    a = 2.0 * math.pi * dyr
    return (math.sin(a), math.cos(a), math.sin(2 * a), math.cos(2 * a))


SEASON_NAMES = ("sin_2pi_dyr", "cos_2pi_dyr", "sin_4pi_dyr", "cos_4pi_dyr")


@dataclass
class CovariateRow:
    site_id: str
    t_start: int
    t_end: int
    dyr: float
    ttv: np.ndarray  # per ring, 10,000 v-km/day
    ttv_quadrant: np.ndarray  # (4, n_rings)
    lu_area: dict  # category -> per-ring hectares
    pop_density: float  # persons/mi^2
    elevation: float
    season: tuple = field(default=None)
    cmaq_mean: float = math.nan
    cmaq_days_used: int = 0
    response: float = math.nan  # the observed interval value

    def __post_init__(self):
        if self.season is None:
            self.season = seasonal_basis(self.dyr)


def build_covariates(dataset: Dataset, spec: BufferSpec = BufferSpec()):
    """One CovariateRow per interval observation, carrying the observed value
    as its response (warns and skips on failure).

    Returns (rows, warnings); warnings are human-readable strings naming the
    offending site.
    """
    segments = segmentize([(p.vertices, p.adt) for p in dataset.traffic])
    rows, warnings, static = [], [], {}
    for obs in dataset.interval_obs:
        site = dataset.sites[obs.site_id]
        try:
            if site.id not in static:
                static[site.id] = site_static_covariates(dataset, site, segments, spec)
            row = covariate_row_for_site(
                dataset, site, obs.t_start, obs.t_end, static[site.id]
            )
        except DataError as exc:
            warnings.append(f"site {site.id}: {exc}")
            continue
        row.response = obs.value
        rows.append(row)
    return rows, warnings


def site_static_covariates(
    dataset: Dataset,
    site: SiteRecord,
    segments,
    spec: BufferSpec = BufferSpec(),
) -> dict:
    """Time-constant covariates for one site (reusable across days/intervals)."""
    if dataset.landuse is not None and dataset.landuse_reclass is not None:
        lu = ring_landuse_area(site, dataset.landuse, dataset.landuse_reclass, spec)
    else:
        lu = {c: np.zeros(N_LANDUSE_RINGS) for c in LANDUSE_CATEGORIES}
    pid = None
    if dataset.cmaq.pixel_ids.size:
        pid = nearest_cmaq_centroid(site, dataset.cmaq)
    return {
        "ttv": ring_ttv(site, segments, spec),
        "ttv_quadrant": quadrant_ttv(site, segments, spec),
        "lu_area": lu,
        "pop_density": population_density(site, dataset.tracts) if dataset.tracts else 0.0,
        "elevation": dataset.site_attrs.get(site.id, {}).get("elevation_m", math.nan),
        "cmaq_pixel": pid,
    }


def covariate_row_for_site(
    dataset: Dataset,
    site: SiteRecord,
    t_start: int,
    t_end: int,
    static: dict,
) -> CovariateRow:
    """Covariates of one observation interval at a site, from the site's
    ``site_static_covariates``."""
    dyr = dataset.manifest.dyr(0.5 * (t_start + t_end))
    cmaq_mean, n_used = math.nan, 0
    ser = dataset.cmaq.series.get(static["cmaq_pixel"])
    if ser is not None:
        cmaq_mean, n_used = interval_mean(ser, t_start, t_end)

    return CovariateRow(
        site_id=site.id,
        t_start=t_start,
        t_end=t_end,
        dyr=dyr,
        ttv=static["ttv"],
        ttv_quadrant=static["ttv_quadrant"],
        lu_area=static["lu_area"],
        pop_density=static["pop_density"],
        elevation=static["elevation"],
        cmaq_mean=cmaq_mean,
        cmaq_days_used=n_used,
    )


def covariate_header(spec: BufferSpec = BufferSpec()):
    """Fixed column order of covariates.csv."""
    cols = ["site_id", "t_start", "t_end", "dyr"]
    cols += [f"ttv_{lab}" for lab in spec.ring_labels()]
    for q in QUADRANTS:
        cols += [f"ttv_{q}_{lab}" for lab in spec.ring_labels()]
    for cat in LANDUSE_CATEGORIES:
        cols += [f"lu_{cat}_{lab}" for lab in spec.ring_labels()[:N_LANDUSE_RINGS]]
    cols += ["pop_density", "elevation_m"] + list(SEASON_NAMES)
    cols += ["cmaq_mean", "cmaq_days_used"]
    return cols


def write_covariates(rows, path: str, spec: BufferSpec = BufferSpec(),
                     header_lines=()) -> None:
    def values(r):
        yield from (r.site_id, r.t_start, r.t_end, r.dyr, *r.ttv)
        for quadrant in r.ttv_quadrant:
            yield from quadrant
        for cat in LANDUSE_CATEGORIES:
            yield from r.lu_area.get(cat, np.zeros(N_LANDUSE_RINGS))
        yield from (r.pop_density, r.elevation, *r.season, r.cmaq_mean, r.cmaq_days_used)

    write_table(path, covariate_header(spec), map(values, rows), header_lines)
