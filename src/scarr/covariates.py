"""Step I covariate construction.

Ring-buffer traffic volumes (optionally split by quadrant), land-use ring
areas from a classified raster, census-tract population density, per-site
elevation and the trigonometric seasonal basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from scarr.data_model import (
    Dataset,
    RasterGrid,
    SiteRecord,
    TractPolygon,
    interval_mean,
    nearest_cmaq_centroid,
)
from scarr.errors import DataError

QUADRANTS = ("NE", "NW", "SW", "SE")
LANDUSE_CATEGORIES = ("developed", "forest", "other")

#: Rings used for land-use areas (first three buffer radii).
N_LANDUSE_RINGS = 3


@dataclass(frozen=True)
class TrafficSegment:
    x: float
    y: float
    length_km: float
    adt: float

    @property
    def tv(self) -> float:
        """Traffic volume: vehicle-kilometers per day."""
        return self.length_km * self.adt


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

    def ring_index(self, d_km: float) -> int:
        """Ring containing distance d (boundary assigned to the inner ring); -1 if beyond."""
        for k, r in enumerate(self.radii_km):
            if d_km <= r:
                return k
        return -1


def segmentize(polylines, target_len: float = 50.0):
    """Split (vertices, adt) polylines into consecutive ~target_len m segments.

    Each polyline yields pieces of length target_len plus one residual piece;
    segment midpoints lie on the polyline and lengths sum to the polyline length.
    """
    segments = []
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

        def point_at(s):
            i = int(np.searchsorted(cum, s, side="right") - 1)
            i = min(i, len(seg_len) - 1)
            frac = (s - cum[i]) / seg_len[i] if seg_len[i] > 0 else 0.0
            return verts[i] + frac * seg_vec[i]

        n_full = int(total // target_len)
        breaks = [k * target_len for k in range(n_full + 1)]
        if total - breaks[-1] > 1e-9:
            breaks.append(total)
        for a, b in zip(breaks[:-1], breaks[1:]):
            mid = point_at(0.5 * (a + b))
            segments.append(
                TrafficSegment(float(mid[0]), float(mid[1]), (b - a) / 1000.0, adt)
            )
    return segments


def ring_ttv(site: SiteRecord, sources, spec: BufferSpec = BufferSpec()) -> np.ndarray:
    """Total traffic volume per buffer ring, in 10,000 vehicle-km/day units."""
    out = np.zeros(spec.n_rings)
    for seg in sources:
        d_km = math.hypot(seg.x - site.x, seg.y - site.y) / 1000.0
        k = spec.ring_index(d_km)
        if k >= 0:
            out[k] += seg.tv
    return out / 10_000.0


def _quadrant_index(dx: float, dy: float) -> int:
    """Quadrant by bearing from east, counter-clockwise: [0,90)=NE, [90,180)=NW,
    [180,270)=SW, [270,360)=SE.  A source coincident with the site is NE."""
    if dx == 0.0 and dy == 0.0:
        return 0
    ang = math.degrees(math.atan2(dy, dx)) % 360.0
    return int(ang // 90.0)


def quadrant_ttv(site: SiteRecord, sources, spec: BufferSpec = BufferSpec()) -> np.ndarray:
    """(4, n_rings) TTV table by quadrant (NE, NW, SW, SE order)."""
    out = np.zeros((4, spec.n_rings))
    for seg in sources:
        dx, dy = seg.x - site.x, seg.y - site.y
        d_km = math.hypot(dx, dy) / 1000.0
        k = spec.ring_index(d_km)
        if k >= 0:
            out[_quadrant_index(dx, dy), k] += seg.tv
    return out / 10_000.0


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
    radii_m = [r * 1000.0 for r in spec.radii_km[:n_rings]]
    cats = sorted(set(reclass.values()))
    out = {c: np.zeros(n_rings) for c in cats}
    cell_ha = raster.cell_size**2 / 10_000.0

    pts = raster.centroids()
    d = np.hypot(pts[:, 0] - site.x, pts[:, 1] - site.y)
    vals = raster.values.ravel()
    within = d <= radii_m[-1]
    bounds = np.array([0.0] + radii_m)
    for dist, code in zip(d[within], vals[within]):
        if code == raster.nodata_value:
            continue
        icode = int(code)
        if icode not in reclass:
            raise DataError(f"land-use code {icode} absent from reclass map")
        # boundary belongs to the inner ring
        k = int(np.searchsorted(bounds[1:], dist, side="left"))
        out[reclass[icode]][k] += cell_ha
    return out


def combined_landuse(areas: dict) -> dict:
    """Combined 0-2 km value per category: sum of its rings."""
    return {c: float(np.sum(v)) for c, v in areas.items()}


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
    rows, warnings = [], []
    for obs in dataset.interval_obs:
        site = dataset.sites[obs.site_id]
        try:
            row = covariate_row_for_site(
                dataset, site, obs.t_start, obs.t_end, segments, spec
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
    segments,
    spec: BufferSpec = BufferSpec(),
    static: dict | None = None,
) -> CovariateRow:
    if static is None:
        static = site_static_covariates(dataset, site, segments, spec)
    midpoint = 0.5 * (t_start + t_end)
    dyr = dataset.manifest.dyr(midpoint)
    ttv = static["ttv"]
    quad = static["ttv_quadrant"]
    lu = static["lu_area"]
    pop = static["pop_density"]
    elev = static["elevation"]

    cmaq_mean, n_used = math.nan, 0
    if static["cmaq_pixel"] is not None:
        ser = dataset.cmaq.series.get(static["cmaq_pixel"])
        if ser is not None:
            cmaq_mean, n_used = interval_mean(ser, t_start, t_end)

    return CovariateRow(
        site_id=site.id,
        t_start=t_start,
        t_end=t_end,
        dyr=dyr,
        ttv=ttv,
        ttv_quadrant=quad,
        lu_area=lu,
        pop_density=pop,
        elevation=elev,
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
    from scarr.data_model import fmt_num

    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(covariate_header(spec)) + "\n")
        for r in rows:
            vals = [r.site_id, str(r.t_start), str(r.t_end), fmt_num(r.dyr)]
            vals += [fmt_num(v) for v in r.ttv]
            for q in range(4):
                vals += [fmt_num(v) for v in r.ttv_quadrant[q]]
            for cat in LANDUSE_CATEGORIES:
                ring_vals = r.lu_area.get(cat, np.zeros(N_LANDUSE_RINGS))
                vals += [fmt_num(v) for v in ring_vals]
            vals += [fmt_num(r.pop_density), fmt_num(r.elevation)]
            vals += [fmt_num(v) for v in r.season]
            vals += [fmt_num(r.cmaq_mean), str(r.cmaq_days_used)]
            fh.write(",".join(vals) + "\n")
