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

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .netmodel import NetworkInstance, SchemaError, _Handover, _pairs_to_object, _Repeated, _stdlib_loads, _typed

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
    """Declarative description of one synthetic deployment, valid by construction.

    The constructor checks each field's type against its annotation, as
    ``netmodel._typed`` checks a file's, storing an integral float given for
    an int as the int, then each range; SchemaError names a field that fails.
    """

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

    def __post_init__(self):
        for field in fields(self):
            value = _typed(getattr(self, field.name), field.type, f"scenario field '{field.name}'")
            object.__setattr__(self, field.name, value)
        _check_spec(self)


def load_scenario_spec(path) -> ScenarioSpec:
    """Read a spec file: a JSON object holding any subset of the :class:`ScenarioSpec` fields.

    Invalid JSON, a top level that is not an object, a field given twice or
    unknown, and a value the spec rejects raise SchemaError naming the file.
    """
    with open(path, "rb") as fh:
        doc = _stdlib_loads(fh.read(), path, object_pairs_hook=_pairs_to_object)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    if isinstance(doc, _Repeated):
        raise SchemaError(f"{path}: scenario field '{doc.key}' given more than once")
    known = {f.name for f in fields(ScenarioSpec)}
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise SchemaError(f"{path}: unknown scenario field '{unknown[0]}'")
    try:
        return ScenarioSpec(**doc)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _check_spec(spec: ScenarioSpec) -> None:
    positive = (
        "num_sites", "sectors_per_site", "inter_site_distance_m", "carrier_ghz",
        "bandwidth_mhz", "users_per_cell_area", "demand_bits_per_user", "duration_s",
    )
    for name in positive:
        if getattr(spec, name) <= 0:
            raise SchemaError(f"scenario field '{name}' must be positive")
    for name in ("shadow_sigma_db", "hotspot_radius_m", "rng_seed"):
        if getattr(spec, name) < 0:
            raise SchemaError(f"scenario field '{name}' must be >= 0")
    if not 0.0 <= spec.hotspot_fraction <= 1.0:
        raise SchemaError("scenario field 'hotspot_fraction' must be in [0, 1]")
    # generate rounds these to whole numbers of resource blocks and of milliseconds
    for name, unit, count in (("bandwidth_mhz", "resource blocks", RESOURCE_BLOCKS_PER_MHZ * spec.bandwidth_mhz),
                              ("duration_s", "milliseconds", spec.duration_s * 1000.0)):
        if not 0.5 < count < math.inf:
            raise SchemaError(f"scenario field '{name}' gives {count} {unit}, not a finite count of at least 1")


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


# the images m1 * period_1 + m2 * period_2 searched for the nearest; the first wins a tie
_IMAGE_STEPS = np.array([[m1, m2] for m1 in (-1, 0, 1) for m2 in (-1, 0, 1)], dtype=np.float64)


def _periodic_images(pixel_xy, wrap_periods):
    """The (x, y) tables of each pixel's images, one row per pixel, in ``_IMAGE_STEPS`` order.

    Without wrap periods the one image is the pixel itself, with no 0.0
    offset added, which would turn a -0.0 coordinate into +0.0.
    """
    pixel_xy = np.asarray(pixel_xy, dtype=np.float64)
    if wrap_periods is None:
        return pixel_xy[:, :1], pixel_xy[:, 1:]
    offsets = _IMAGE_STEPS @ wrap_periods
    return pixel_xy[:, :1] + offsets[:, 0], pixel_xy[:, 1:] + offsets[:, 1]


def _link_geometry(cell_xy, images):
    """Distance and bearing from one cell to every pixel's nearest image.

    ``images`` are the tables of :func:`_periodic_images`, so with wrap
    periods border cells measure geometry as if the grid continued forever.
    """
    image_x, image_y = images
    dx, dy = image_x - cell_xy[0], image_y - cell_xy[1]
    # the flat index of each row's first nearest image
    pick = (dx * dx + dy * dy).argmin(axis=1) + np.arange(0, dx.size, dx.shape[1])
    dx, dy = dx.ravel().take(pick), dy.ravel().take(pick)
    return np.hypot(dx, dy), np.degrees(np.arctan2(dy, dx))


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
    """Fold angles into [-180, 180) as ``(deg + 180) % 360 - 180`` does, bit for bit.

    ``%`` is fmod plus 360 where negative, after a floor division not needed here.
    """
    folded = np.fmod(np.asarray(deg, dtype=np.float64) + 180.0, 360.0)
    folded += np.where(folded < 0.0, 360.0, 0.0)
    folded -= 180.0
    return folded


def _dbm_to_w(dbm: float) -> float:
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:  # the instance's validation rejects the infinite power
        return math.inf


@np.errstate(over="ignore", invalid="ignore")  # what overflows or turns NaN, the instance's validation rejects
def generate(spec: ScenarioSpec) -> NetworkInstance:
    """Materialize a spec into a network instance, deterministically in the seed.

    Users are drawn per cell: a hotspot disk placed uniformly inside the
    cell's nominal wedge holds ``hotspot_fraction`` of them, the rest spread
    uniformly over the wedge.  Every user becomes one pixel demanding
    ``demand_bits_per_user`` bits over the interval.  A spec whose numbers
    give an invalid instance, such as gains or powers beyond the float
    range, raises SchemaError, as building any instance does.
    """
    rng = np.random.default_rng(spec.rng_seed)
    sites, periods = _site_layout(spec.num_sites, spec.inter_site_distance_m)
    wrap = periods if spec.wraparound else None
    sector_width = 360.0 / spec.sectors_per_site
    azimuths = np.arange(spec.sectors_per_site) * sector_width
    # cells site by site, the sectors of a site in azimuth order
    cell_xy = np.repeat(sites, spec.sectors_per_site, axis=0)
    cell_azimuth = np.tile(azimuths, len(sites))
    num_cells = len(cell_xy)
    num_rb = round(RESOURCE_BLOCKS_PER_MHZ * spec.bandwidth_mhz)

    # nominal wedge: disk sector of the hex circumradius around the boresight
    cell_radius = spec.inter_site_distance_m / math.sqrt(3.0)
    n_hot = round(spec.users_per_cell_area * spec.hotspot_fraction)
    # per cell, in stream order: a (radius, angle) pair for the hotspot
    # centre, then one per hotspot user, then one per uniform user
    draws = rng.uniform(size=(num_cells, 1 + spec.users_per_cell_area, 2))
    origin = cell_xy[:, None, :]
    boresight = cell_azimuth[:, None]

    def polar(r, t):
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def wedge_angle(u):
        return np.radians(boresight + (u - 0.5) * sector_width)

    center_r = max(cell_radius - spec.hotspot_radius_m, 0.0) * np.sqrt(draws[:, :1, 0])
    center = origin + polar(center_r, wedge_angle(draws[:, :1, 1]))
    hot, uniform = draws[:, 1:1 + n_hot], draws[:, 1 + n_hot:]
    hot_xy = center + polar(spec.hotspot_radius_m * np.sqrt(hot[..., 0]), 2.0 * math.pi * hot[..., 1])
    uniform_xy = origin + polar(cell_radius * np.sqrt(uniform[..., 0]), wedge_angle(uniform[..., 1]))
    pixel_xy = np.concatenate([hot_xy, uniform_xy], axis=1).reshape(-1, 2)

    shadow = rng.normal(0.0, spec.shadow_sigma_db, size=(num_cells, len(pixel_xy)))
    gains_db = np.empty_like(shadow)
    freq_mhz = spec.carrier_ghz * 1000.0
    per_site = len(azimuths)
    boresights = azimuths[:, None]
    images = _periodic_images(pixel_xy, wrap)
    for s, site in enumerate(sites):
        # the sectors of a site share its position, hence its link geometry
        dist, bearing = _link_geometry(site, images)
        rows = slice(s * per_site, (s + 1) * per_site)
        gains_db[rows] = (
            -okumura_hata_db(dist, freq_mhz)
            + spec.antenna_gain_dbi
            + spec.ue_gain_dbi
            + sector_pattern_db(_wrap_angle(bearing - boresights))
            + shadow[rows]
        )

    # linear in place: the instance takes the array over uncopied
    gains_db /= 10.0
    gains = np.power(10.0, gains_db, out=gains_db)
    noise_dbm = (
        THERMAL_NOISE_DBM_PER_HZ
        + 10.0 * math.log10(RESOURCE_UNIT_BANDWIDTH_HZ)
        + UE_NOISE_FIGURE_DB
    )
    return NetworkInstance(
        power_per_ru=np.full(num_cells, _dbm_to_w(spec.tx_power_dbm) / num_rb),
        demand_bits=np.full(len(pixel_xy), spec.demand_bits_per_user, dtype=np.float64),
        gains=_Handover(gains),
        noise_power=_dbm_to_w(noise_dbm),
        num_resource_units=num_rb * round(spec.duration_s * 1000.0),
        rate_scale=RESOURCE_UNIT_BANDWIDTH_HZ * RESOURCE_UNIT_TIME_S,
        cell_xy=cell_xy,
        azimuth_deg=cell_azimuth,
        pixel_xy=pixel_xy,
        wrap_periods=wrap,
    )


@np.errstate(over="ignore", invalid="ignore")  # bearings near the float range overflow; validation judges the gains
def rotate_sector(instance: NetworkInstance, cell_id: int, new_azimuth_deg: float) -> NetworkInstance:
    """New instance with one sector turned to a new azimuth.

    Only the rotated cell's gain row changes: path loss and shadow fading do
    not depend on azimuth, so the row is updated by the antenna pattern
    delta at each pixel's bearing, then serving is reassigned by best
    server.  A rotation to the cell's current azimuth (mod 360) returns the
    instance unchanged.  ``cell_id`` is an integer, not a bool, in 1..num_cells.
    """
    if isinstance(cell_id, bool) or not hasattr(cell_id, "__index__") or not 1 <= cell_id <= instance.num_cells:
        raise ValueError(f"cell_id must be an integer in 1..{instance.num_cells}, got {cell_id!r}")
    idx = cell_id - 1
    old_az = float(instance.azimuth_deg[idx])
    new_az = float(new_azimuth_deg) % 360.0
    if new_az == old_az % 360.0:
        return instance
    images = _periodic_images(instance.pixel_xy, instance.wrap_periods)
    _, bearing = _link_geometry(instance.cell_xy[idx], images)
    delta_db = sector_pattern_db(_wrap_angle(bearing - new_az)) - sector_pattern_db(
        _wrap_angle(bearing - old_az)
    )
    gains = instance.gains.copy()
    gains[idx] *= np.power(10.0, delta_db / 10.0)
    azimuth = instance.azimuth_deg.copy()
    azimuth[idx] = new_az
    return replace(instance, azimuth_deg=azimuth, gains=_Handover(gains), server_of=None)
