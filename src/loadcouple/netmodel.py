"""Network data model: per-cell and per-pixel columns, gains, serving map and file I/O.

Everything downstream (coupling coefficients, solvers, sweeps) works on the
immutable :class:`NetworkInstance` defined here, a set of read-only arrays
and scalars.  Gains are kept linear-scale in memory.  The interchange file,
compact one-line JSON, stores them in dB, each value chosen so that the
load-time conversion gives the linear gain back bit for bit wherever a
float dB value can.  Files are read and written with orjson.  The stdlib
``json`` module reads only what orjson rejects: NaN, Infinity, numbers
beyond the float range, and invalid JSON, whose error it locates.  A cell
or pixel is identified by its position: 1-based in files and in reports,
0-based for array indexing internally.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np
import orjson

SCHEMA_VERSION = 1
# int64's largest: orjson cannot write an int of 2**64 or more and reads one back as a float
_MAX_RESOURCE_UNITS = 2**63 - 1


class SchemaError(ValueError):
    """Instance or scenario file does not match the documented schema."""


class SchemaVersionError(SchemaError):
    """File declares a schema version this code does not read."""


@dataclass(frozen=True, eq=False)
class NetworkInstance:
    """Immutable snapshot of one network: per-cell and per-pixel columns, gains, serving map.

    At 0-based positions i and j, cell i transmits ``power_per_ru[i]`` watt
    per resource unit from site position ``cell_xy[i]`` towards
    ``azimuth_deg[i]``, and pixel j demands ``demand_bits[j]`` bits in the
    interval at ``pixel_xy[j]``.  ``gains[i, j]`` is the linear power gain
    from cell i to pixel j, strictly positive.  ``noise_power`` is the receiver noise
    power in watt over one resource unit, ``num_resource_units`` the number
    of resource units in the considered interval and ``rate_scale`` the bits
    one resource unit carries per unit of spectral efficiency.
    ``server_of[j]`` is the 0-based index of the cell serving pixel j, or -1
    when the pixel is unassigned (allowed only for zero-demand pixels).

    Positions and azimuths default to zeros.  An instance built without
    ``server_of`` gets the best-server assignment of its own powers and
    gains.  Copies with some fields changed are made with
    ``dataclasses.replace``; pass ``server_of=None`` there to reassign by
    best server.  The geometry columns must match the cell and pixel counts
    and be finite, or the constructor raises ValueError; everything else is
    checked by :func:`validate`.
    """

    power_per_ru: np.ndarray
    demand_bits: np.ndarray
    gains: np.ndarray
    noise_power: float
    num_resource_units: int
    rate_scale: float
    cell_xy: Optional[np.ndarray] = None
    azimuth_deg: Optional[np.ndarray] = None
    pixel_xy: Optional[np.ndarray] = None
    # Periodic replication vectors of the site grid, carried only so that
    # sector rotation can reproduce the wrap-around bearings; None for
    # instances without wrap-around geometry.
    wrap_periods: Optional[np.ndarray] = None
    server_of: Optional[np.ndarray] = None

    def __post_init__(self):
        n, m = len(self.power_per_ru), len(self.demand_bits)
        geometry = {"cell_xy": (n, 2), "azimuth_deg": (n,), "pixel_xy": (m, 2), "wrap_periods": (2, 2)}
        for name in ("power_per_ru", "demand_bits", "gains", *geometry, "server_of"):
            value = getattr(self, name)
            if value is None and name == "wrap_periods":
                continue
            if value is None:  # the columns above it are set by now
                value = assign_best_server(self) if name == "server_of" else np.zeros(geometry[name])
            value = np.array(value, dtype=np.int64 if name == "server_of" else np.float64, order="C")
            if name in geometry and not (value.shape == geometry[name] and np.all(np.isfinite(value))):
                raise ValueError(f"{name} must be finite of shape {geometry[name]}, got {value.shape}")
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def num_cells(self) -> int:
        return len(self.power_per_ru)

    @property
    def num_pixels(self) -> int:
        return len(self.demand_bits)

    def with_demand_scale(self, scale: float) -> "NetworkInstance":
        """Copy of the instance with every pixel demand multiplied by ``scale``.

        The copy shares the other columns, which are read-only, instead of
        copying them as ``dataclasses.replace`` would.
        """
        if not (math.isfinite(scale) and scale >= 0):
            raise ValueError(f"demand scale must be finite and >= 0, got {scale}")
        with np.errstate(over="ignore"):  # an infinite demand is validate's to reject
            demand = self.demand_bits * scale
        demand.setflags(write=False)
        scaled = copy.copy(self)
        object.__setattr__(scaled, "demand_bits", demand)
        return scaled


@dataclass(frozen=True)
class Violation:
    """One validation finding: a stable machine-readable code plus a message."""

    code: str
    message: str


def validate(instance: NetworkInstance) -> list[Violation]:
    """Check every structural invariant; return all violations, empty list if clean."""
    out: list[Violation] = []
    n, m = instance.num_cells, instance.num_pixels

    if n == 0:
        out.append(Violation("no_cells", "instance has no cells"))
    if instance.noise_power <= 0 or not math.isfinite(instance.noise_power):
        out.append(
            Violation("noise_power_nonpositive",
                      f"noise_power must be positive and finite, got {instance.noise_power}")
        )
    units = instance.num_resource_units
    if not 1 <= units <= _MAX_RESOURCE_UNITS or units != int(units):
        out.append(
            Violation("resource_units_nonpositive",
                      f"num_resource_units must be an integer in 1..2**63-1, got {units}")
        )
    if instance.rate_scale <= 0 or not math.isfinite(instance.rate_scale):
        out.append(
            Violation("rate_scale_nonpositive",
                      f"rate_scale must be positive and finite, got {instance.rate_scale}")
        )
    power, demand = instance.power_per_ru, instance.demand_bits
    for i in np.flatnonzero(~(np.isfinite(power) & (power > 0))).tolist():
        out.append(
            Violation("cell_power_nonpositive",
                      f"cell {i + 1}: power_per_ru must be positive and finite, got {power[i]}")
        )
    for j in np.flatnonzero(~(np.isfinite(demand) & (demand >= 0))).tolist():
        out.append(
            Violation("pixel_demand_negative",
                      f"pixel {j + 1}: demand_bits must be finite and >= 0, got {demand[j]}")
        )

    if instance.gains.shape != (n, m):
        out.append(
            Violation("gain_shape_mismatch",
                      f"gains shape {instance.gains.shape} does not match ({n}, {m})")
        )
        return out  # index checks below assume matching shapes

    if m and not (np.all(np.isfinite(instance.gains)) and np.all(instance.gains > 0)):
        out.append(Violation("gain_nonpositive", "every gain must be strictly positive and finite"))

    server_of = instance.server_of
    if server_of.shape != (m,):
        out.append(
            Violation("serving_shape_mismatch",
                      f"server_of length {server_of.shape} does not match pixel count {m}")
        )
        return out
    if np.any((server_of < -1) | (server_of >= n)):
        out.append(Violation("serving_out_of_range",
                             "server_of references a cell index outside -1..num_cells-1"))
        return out
    for j in np.flatnonzero((demand > 0) & (server_of < 0)).tolist():
        out.append(
            Violation("unserved_demand_pixel",
                      f"pixel {j + 1} has positive demand but no serving cell")
        )
    return out


@np.errstate(over="ignore", invalid="ignore")  # validate rejects what overflows here
def assign_best_server(instance: NetworkInstance) -> np.ndarray:
    """``server_of``: every pixel goes to the cell with the strongest received power.

    The winner maximizes power_per_ru * gain; ties go to the lowest cell
    index, which argmax delivers by scanning order.
    """
    return np.argmax(instance.power_per_ru[:, None] * instance.gains, axis=0)


@np.errstate(over="ignore")  # a candidate that overflows converts back to inf and loses
def _gains_to_db(linear: np.ndarray) -> np.ndarray:
    """dB image of a linear gain matrix, adjusted so the load-time conversion inverts it.

    np.power(10, 10*log10(g)/10) can land a few ulps off g.  Where it does,
    the dB value becomes the one, of itself and its neighbours up to 4 ulps
    away on either side, that converts back closest to g; ties go to the
    first in the order itself, +1..+4, -1..-4.  So g comes back exactly
    whenever one of them converts to it.
    """
    db = 10.0 * np.log10(linear)
    miss = np.flatnonzero(np.power(10.0, db / 10.0) != linear)
    target, start = linear.flat[miss], db.flat[miss]
    candidates = [start]
    for direction in (np.inf, -np.inf):
        cand = start
        for _ in range(4):
            cand = np.nextafter(cand, direction)
            candidates.append(cand)
    candidates = np.array(candidates)
    # argmin keeps the first candidate among equal errors: the scan order above
    best = np.argmin(np.abs(np.power(10.0, candidates / 10.0) - target), axis=0)
    db.flat[miss] = candidates[best, np.arange(miss.size)]
    return db


def save_instance(instance: NetworkInstance, path) -> None:
    """Write the instance to ``path`` in the versioned JSON interchange format."""
    doc = {
        "version": SCHEMA_VERSION,
        "noise_power_w": instance.noise_power,
        "num_resource_units": int(instance.num_resource_units),
        "rate_scale": instance.rate_scale,
        "cells": [
            {"id": i, "power_per_ru_w": power, "x_m": x, "y_m": y, "azimuth_deg": azimuth}
            for i, power, x, y, azimuth in zip(
                range(1, instance.num_cells + 1), instance.power_per_ru.tolist(),
                *instance.cell_xy.T.tolist(), instance.azimuth_deg.tolist())
        ],
        "pixels": [
            {"id": j, "demand_bits": demand, "x_m": x, "y_m": y}
            for j, demand, x, y in zip(
                range(1, instance.num_pixels + 1), instance.demand_bits.tolist(),
                *instance.pixel_xy.T.tolist())
        ],
        "gains_db": _gains_to_db(instance.gains),
        "serving": [[j + 1, i + 1] for j, i in enumerate(instance.server_of.tolist()) if i >= 0],
    }
    if instance.wrap_periods is not None:
        doc["wrap_periods_m"] = instance.wrap_periods
    try:
        data = orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError as exc:  # num_resource_units beyond 64 bits
        raise SchemaError(f"{path}: cannot write the instance: {exc}") from exc
    with open(path, "wb") as fh:
        fh.write(data)


def _typed(value, kind: str, what: str):
    """``value`` if it is a JSON ``kind`` ("int", "float" or "bool"), else SchemaError.

    Booleans are not numbers, floats must be finite, and an int may be
    written as an integral float, which is returned as int.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int":
        valid = number and (isinstance(value, int) or value.is_integer())
    elif kind == "float":
        # false for nan, inf and ints too large for a float
        valid = number and abs(value) <= sys.float_info.max
    else:
        valid = isinstance(value, bool)
    if not valid:
        raise SchemaError(f"{what} must be of type {kind}, got {value!r}")
    return int(value) if kind == "int" else value


def _float(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number, else SchemaError."""
    return float(_typed(value, "float", what))


def _float_matrix(rows, what: str) -> np.ndarray:
    """``rows`` as a float64 array if it is a list of equal-length lists of finite JSON numbers."""
    try:
        if all(set(map(type, row)) <= {int, float} for row in rows):
            values = np.asarray(rows, dtype=np.float64)
            if np.all(np.abs(values) <= sys.float_info.max):  # false for nan and inf
                return values
    except (TypeError, ValueError, OverflowError):
        pass
    raise SchemaError(f"{what} must be of type float, in rows of equal length")


def _require(doc: dict, key: str, where: str, kind: type = object):
    if key not in doc:
        raise SchemaError(f"{where}: missing required field '{key}'")
    if not isinstance(doc[key], kind):
        raise SchemaError(f"{where}: field '{key}' must be a {kind.__name__}, got {type(doc[key]).__name__}")
    return doc[key]


def _columns(items: list, fields: tuple, where: str) -> tuple[list, np.ndarray]:
    """The ``id`` list and the float ``fields`` of a list of JSON objects, one row per field.

    ``fields`` pairs each key with its default, None for a required key.
    Ids must be ints and the fields finite numbers, as :func:`_typed`
    checks them; a list that fails is walked object by object, so the error
    names the first bad object and field in file order.
    """
    try:
        ids = [item["id"] for item in items]
        columns = [[item[key] if default is None else item.get(key, default) for item in items]
                   for key, default in fields]
        if set(map(type, ids)) <= {int} and all(set(map(type, col)) <= {int, float} for col in columns):
            values = np.array(columns, dtype=np.float64)
            if np.all(np.abs(values) < sys.float_info.max):  # false for nan and inf
                return ids, values
    except (KeyError, TypeError, OverflowError):
        pass
    ids, rows = [], []
    for k, item in enumerate(items):
        try:
            ids.append(_typed(item["id"], "int", "id"))
            rows.append([_float(item[key] if default is None else item.get(key, default), key)
                         for key, default in fields])
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{where}[{k}]: {exc!r}") from exc
    return ids, np.array(rows, dtype=np.float64).reshape(len(items), len(fields)).T


def _serving(pairs: list, n: int, m: int, where: str) -> np.ndarray:
    """``server_of`` from the file's 1-based [pixel_id, cell_id] pairs, -1 for unlisted pixels.

    A list of int pairs in range, each pixel listed at most once, is checked
    and converted as one array; a list that fails is walked pair by pair, so
    the error names the first bad pair in file order.
    """
    server_of = np.full(m, -1, dtype=np.int64)
    try:
        if (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
                and set(map(type, chain.from_iterable(pairs))) <= {int}):
            pixel_id, cell_id = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            if (np.all((1 <= pixel_id) & (pixel_id <= m) & (1 <= cell_id) & (cell_id <= n))
                    and np.unique(pixel_id).size == pixel_id.size):
                server_of[pixel_id - 1] = cell_id - 1
                return server_of
    except OverflowError:  # an int beyond int64
        pass
    for k, pair in enumerate(pairs):
        try:
            pixel_id, cell_id = pair
            pixel_id, cell_id = _typed(pixel_id, "int", "pixel id"), _typed(cell_id, "int", "cell id")
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: serving[{k}] must be a [pixel_id, cell_id] pair: {exc}") from exc
        if not (1 <= pixel_id <= m) or not (1 <= cell_id <= n):
            raise SchemaError(f"{where}: serving[{k}] references unknown pixel or cell id")
        if server_of[pixel_id - 1] >= 0:
            raise SchemaError(f"{where}: pixel {pixel_id} assigned more than once")
        server_of[pixel_id - 1] = cell_id - 1
    return server_of


def load_instance(path) -> NetworkInstance:
    """Read an instance file, converting gains from dB and rebuilding the serving map.

    The file's ids must be 1..n and 1..m in order; they are positions and
    are not kept.  Files without a ``serving`` block get a best-server
    assignment.  A wrong or missing schema version is rejected outright.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError:
        # the stdlib reads NaN, Infinity and numbers beyond the float range,
        # which orjson rejects, and locates the error in invalid JSON
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"{path}: not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")

    version = _require(doc, "version", str(path))
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # True == 1 in Python
        raise SchemaVersionError(f"{path}: schema version {version!r} not supported (expected {SCHEMA_VERSION})")

    cells_doc = _require(doc, "cells", str(path), list)
    pixels_doc = _require(doc, "pixels", str(path), list)
    gains_db = _require(doc, "gains_db", str(path), list)

    cell_ids, (power, cell_x, cell_y, azimuth) = _columns(
        cells_doc, (("power_per_ru_w", None), ("x_m", 0.0), ("y_m", 0.0), ("azimuth_deg", 0.0)),
        f"{path}: cells")
    pixel_ids, (demand, pixel_x, pixel_y) = _columns(
        pixels_doc, (("demand_bits", None), ("x_m", 0.0), ("y_m", 0.0)), f"{path}: pixels")
    n, m = len(cell_ids), len(pixel_ids)
    for name, ids in (("cells", cell_ids), ("pixels", pixel_ids)):
        if ids != list(range(1, len(ids) + 1)):
            raise SchemaError(f"{path}: {name} ids must be 1..{len(ids)} in order")

    with np.errstate(over="ignore"):  # an infinite gain is validate's to reject
        gains = np.power(10.0, _float_matrix(gains_db, f"{path}: gains_db") / 10.0)
    if gains.shape != (n, m):
        raise SchemaError(f"{path}: gains_db has shape {gains.shape}, expected ({n}, {m})")

    wrap = doc.get("wrap_periods_m")
    if wrap is not None:
        wrap = _float_matrix(wrap, f"{path}: wrap_periods_m")
        if wrap.shape != (2, 2):
            raise SchemaError(f"{path}: wrap_periods_m must be two finite 2-vectors")

    server_of = None
    if "serving" in doc:
        server_of = _serving(_require(doc, "serving", str(path), list), n, m, str(path))
    return NetworkInstance(
        power_per_ru=power,
        demand_bits=demand,
        gains=gains,
        noise_power=_float(_require(doc, "noise_power_w", str(path)), f"{path}: noise_power_w"),
        num_resource_units=_typed(_require(doc, "num_resource_units", str(path)), "int",
                                  f"{path}: num_resource_units"),
        rate_scale=_float(_require(doc, "rate_scale", str(path)), f"{path}: rate_scale"),
        cell_xy=np.stack([cell_x, cell_y], axis=1),
        azimuth_deg=azimuth,
        pixel_xy=np.stack([pixel_x, pixel_y], axis=1),
        wrap_periods=wrap,
        server_of=server_of,
    )
