"""Synthetic network generation: hexagonal sites, sector antennas, urban propagation.

The generator builds a classic macro deployment: sites on a hexagonal grid,
three sectors per site, users clustered in per-cell hotspots plus a uniform
remainder, empirical urban path loss with lognormal shadow fading, and an
optional toroidal wrap-around so edge cells see the same interference field
as central ones.  Every random draw comes from one seeded generator, so a
spec maps to exactly one instance.

Angles follow the mathematical convention: degrees counterclockwise from
the +x axis.  Distances are in meters, powers in watt, frequencies as noted
per field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .netmodel import Cell, NetworkInstance, Pixel, SchemaError, _typed

BS_HEIGHT_M = 30.0
UE_HEIGHT_M = 1.5
MIN_DISTANCE_M = 10.0
THERMAL_NOISE_DBM_PER_HZ = -174.0
UE_NOISE_FIGURE_DB = 9.0
RESOURCE_UNIT_BANDWIDTH_HZ = 180e3
RESOURCE_UNIT_TIME_S = 1e-3
RESOURCE_BLOCKS_PER_MHZ = 5.0
PATTERN_BEAMWIDTH_DEG = 70.0
PATTERN_FLOOR_DB = 20.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one synthetic deployment."""

    num_sites: int = 3
    sectors_per_site: int = 3
    inter_site_distance_m: float = 500.0
    carrier_ghz: float = 2.0
    bandwidth_mhz: float = 10.0
    tx_power_dbm: float = 46.0
    antenna_gain_dbi: float = 14.0
    ue_gain_dbi: float = 0.0
    shadow_sigma_db: float = 8.0
    users_per_cell_area: int = 30
    hotspot_fraction: float = 2.0 / 3.0
    hotspot_radius_m: float = 40.0
    demand_bits_per_user: float = 400_000.0
    duration_s: float = 1.0
    wraparound: bool = True
    rng_seed: int = 1


def scenario_from_dict(doc: dict) -> ScenarioSpec:
    """Build a spec from a parsed JSON object, rejecting unknown or bad fields."""
    known = {f.name: f.type for f in fields(ScenarioSpec)}
    values = {}
    for key, value in doc.items():
        if key not in known:
            raise SchemaError(f"unknown scenario field '{key}'")
        values[key] = _typed(value, known[key], f"scenario field '{key}'")
    spec = ScenarioSpec(**values)
    _check_spec(spec)
    return spec


def load_scenario_spec(path) -> ScenarioSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return scenario_from_dict(doc)


def _check_spec(spec: ScenarioSpec) -> None:
    positive = (
        "num_sites", "sectors_per_site", "inter_site_distance_m", "carrier_ghz",
        "bandwidth_mhz", "users_per_cell_area", "demand_bits_per_user", "duration_s",
    )
    for name in positive:
        if getattr(spec, name) <= 0:
            raise SchemaError(f"scenario field '{name}' must be positive")
    for name in ("shadow_sigma_db", "hotspot_radius_m"):
        if getattr(spec, name) < 0:
            raise SchemaError(f"scenario field '{name}' must be >= 0")
    if not 0.0 <= spec.hotspot_fraction <= 1.0:
        raise SchemaError("scenario field 'hotspot_fraction' must be in [0, 1]")


def _site_layout(num_sites: int, isd: float):
    """Site positions plus the two replication vectors of the periodic grid.

    Sites live on the standard hexagonal lattice spanned by (isd, 0) and
    (isd/2, isd*sqrt(3)/2).  Three sites form the compact triangular cluster
    whose replication vectors keep every site six neighbours at exactly one
    isd; other counts are laid out as the most square rhombus of lattice
    rows that factors the site count.
    """
    u1 = np.array([isd, 0.0])
    u2 = np.array([isd / 2.0, isd * math.sqrt(3.0) / 2.0])
    if num_sites == 3:
        sites = np.array([[0.0, 0.0], u1, u2])
        periods = np.array([u1 + u2, [0.0, isd * math.sqrt(3.0)]])
        return sites, periods
    rows = max(k for k in range(1, int(math.isqrt(num_sites)) + 1) if num_sites % k == 0)
    cols = num_sites // rows
    sites = np.array([a * u1 + b * u2 for b in range(rows) for a in range(cols)])
    periods = np.array([cols * u1, rows * u2])
    return sites, periods


def _link_geometry(cell_xy, pixel_xy, wrap_periods):
    """Distance and bearing from one cell to every pixel.

    With wrap periods the pixel is replaced by its nearest periodic image,
    so border cells measure geometry as if the grid continued forever.
    """
    pixel_xy = np.asarray(pixel_xy, dtype=np.float64)
    if wrap_periods is None:
        diff = pixel_xy - cell_xy
    else:
        steps = np.array([[m1, m2] for m1 in (-1, 0, 1) for m2 in (-1, 0, 1)], dtype=np.float64)
        images = pixel_xy[None, :, :] + (steps @ wrap_periods)[:, None, :] - cell_xy
        dist_sq = np.sum(images * images, axis=2)
        best = np.argmin(dist_sq, axis=0)
        diff = images[best, np.arange(pixel_xy.shape[0]), :]
    dist = np.hypot(diff[:, 0], diff[:, 1])
    bearing = np.degrees(np.arctan2(diff[:, 1], diff[:, 0]))
    return dist, bearing


def okumura_hata_db(distance_m, freq_mhz: float) -> np.ndarray:
    """Urban (large city) empirical path loss in dB.

    Heights are fixed at BS_HEIGHT_M and UE_HEIGHT_M; distances shorter
    than MIN_DISTANCE_M are clamped so the log term stays bounded.
    """
    d_km = np.maximum(np.asarray(distance_m, dtype=np.float64), MIN_DISTANCE_M) / 1000.0
    mobile_corr = 3.2 * math.log10(11.75 * UE_HEIGHT_M) ** 2 - 4.97
    return (
        69.55
        + 26.16 * math.log10(freq_mhz)
        - 13.82 * math.log10(BS_HEIGHT_M)
        - mobile_corr
        + (44.9 - 6.55 * math.log10(BS_HEIGHT_M)) * np.log10(d_km)
    )


def sector_pattern_db(offset_deg) -> np.ndarray:
    """Parabolic horizontal antenna pattern: 70 degree beamwidth, 20 dB floor."""
    off = np.asarray(offset_deg, dtype=np.float64)
    return -np.minimum(12.0 * (off / PATTERN_BEAMWIDTH_DEG) ** 2, PATTERN_FLOOR_DB)


def _wrap_angle(deg):
    """Fold angles into [-180, 180)."""
    return (np.asarray(deg, dtype=np.float64) + 180.0) % 360.0 - 180.0


def _dbm_to_w(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def generate(spec: ScenarioSpec) -> NetworkInstance:
    """Materialize a spec into a network instance, deterministically in the seed.

    Users are drawn per cell: a hotspot disk placed uniformly inside the
    cell's nominal wedge holds ``hotspot_fraction`` of them, the rest spread
    uniformly over the wedge.  Every user becomes one pixel demanding
    ``demand_bits_per_user`` bits over the interval.
    """
    _check_spec(spec)
    rng = np.random.default_rng(spec.rng_seed)
    sites, periods = _site_layout(spec.num_sites, spec.inter_site_distance_m)
    wrap = periods if spec.wraparound else None
    sector_width = 360.0 / spec.sectors_per_site
    azimuths = [k * sector_width for k in range(spec.sectors_per_site)]

    num_rb = round(RESOURCE_BLOCKS_PER_MHZ * spec.bandwidth_mhz)
    power_per_ru = _dbm_to_w(spec.tx_power_dbm) / num_rb
    cells = []
    for s, site in enumerate(sites):
        for az in azimuths:
            cells.append(
                Cell(
                    id=len(cells) + 1,
                    power_per_ru=power_per_ru,
                    x=float(site[0]),
                    y=float(site[1]),
                    azimuth_deg=az,
                )
            )

    # nominal wedge: disk sector of the hex circumradius around the boresight
    cell_radius = spec.inter_site_distance_m / math.sqrt(3.0)
    n_hot = round(spec.users_per_cell_area * spec.hotspot_fraction)
    n_uniform = spec.users_per_cell_area - n_hot
    positions = []
    for cell in cells:
        center_r = max(cell_radius - spec.hotspot_radius_m, 0.0) * math.sqrt(rng.uniform())
        center_t = math.radians(cell.azimuth_deg + (rng.uniform() - 0.5) * sector_width)
        center = (cell.x + center_r * math.cos(center_t), cell.y + center_r * math.sin(center_t))
        for _ in range(n_hot):
            r = spec.hotspot_radius_m * math.sqrt(rng.uniform())
            t = rng.uniform(0.0, 2.0 * math.pi)
            positions.append((center[0] + r * math.cos(t), center[1] + r * math.sin(t)))
        for _ in range(n_uniform):
            r = cell_radius * math.sqrt(rng.uniform())
            t = math.radians(cell.azimuth_deg + (rng.uniform() - 0.5) * sector_width)
            positions.append((cell.x + r * math.cos(t), cell.y + r * math.sin(t)))
    pixels = tuple(
        Pixel(id=j + 1, demand_bits=spec.demand_bits_per_user, x=x, y=y)
        for j, (x, y) in enumerate(positions)
    )

    pixel_xy = np.array(positions)
    shadow = rng.normal(0.0, spec.shadow_sigma_db, size=(len(cells), len(pixels)))
    gains_db = np.empty((len(cells), len(pixels)))
    freq_mhz = spec.carrier_ghz * 1000.0
    for i, cell in enumerate(cells):
        dist, bearing = _link_geometry(np.array([cell.x, cell.y]), pixel_xy, wrap)
        gains_db[i] = (
            -okumura_hata_db(dist, freq_mhz)
            + spec.antenna_gain_dbi
            + spec.ue_gain_dbi
            + sector_pattern_db(_wrap_angle(bearing - cell.azimuth_deg))
            + shadow[i]
        )

    noise_dbm = (
        THERMAL_NOISE_DBM_PER_HZ
        + 10.0 * math.log10(RESOURCE_UNIT_BANDWIDTH_HZ)
        + UE_NOISE_FIGURE_DB
    )
    return NetworkInstance(
        cells=tuple(cells),
        pixels=pixels,
        gains=np.power(10.0, gains_db / 10.0),
        noise_power=_dbm_to_w(noise_dbm),
        num_resource_units=num_rb * round(spec.duration_s * 1000.0),
        rate_scale=RESOURCE_UNIT_BANDWIDTH_HZ * RESOURCE_UNIT_TIME_S,
        wrap_periods=wrap,
    )


def rotate_sector(instance: NetworkInstance, cell_id: int, new_azimuth_deg: float) -> NetworkInstance:
    """New instance with one sector turned to a new azimuth.

    Only the rotated cell's gain row changes: path loss and shadow fading do
    not depend on azimuth, so the row is updated by the antenna pattern
    delta at each pixel's bearing, then serving is reassigned by best
    server.  A rotation to the cell's current azimuth (mod 360) returns the
    instance unchanged.
    """
    if not 1 <= cell_id <= instance.num_cells:
        raise ValueError(f"cell_id {cell_id} out of range 1..{instance.num_cells}")
    idx = cell_id - 1
    old = instance.cells[idx]
    new_az = float(new_azimuth_deg) % 360.0
    old_az = old.azimuth_deg % 360.0
    if new_az == old_az:
        return instance
    pixel_xy = np.array([[p.x, p.y] for p in instance.pixels])
    _, bearing = _link_geometry(
        np.array([old.x, old.y]), pixel_xy, instance.wrap_periods
    )
    delta_db = sector_pattern_db(_wrap_angle(bearing - new_az)) - sector_pattern_db(
        _wrap_angle(bearing - old.azimuth_deg)
    )
    gains = instance.gains.copy()
    gains[idx] *= np.power(10.0, delta_db / 10.0)
    cells = list(instance.cells)
    cells[idx] = replace(old, azimuth_deg=new_az)
    return replace(instance, cells=tuple(cells), gains=gains, serving=None)
