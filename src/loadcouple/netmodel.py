"""Network data model: cells, demand pixels, gains, serving areas and file I/O.

Everything downstream (coupling coefficients, solvers, sweeps) works on the
immutable :class:`NetworkInstance` defined here.  Gains are kept linear-scale
in memory.  The interchange file, compact one-line JSON, stores them in dB,
each value chosen so that the load-time conversion gives the linear gain
back bit for bit wherever a float dB value can.  Identifiers are 1-based
in files and in reports, 0-based positions are used for array indexing
internally.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Instance or scenario file does not match the documented schema."""


class SchemaVersionError(SchemaError):
    """File declares a schema version this code does not read."""


@dataclass(frozen=True)
class Cell:
    """One base station sector: identity, per-resource-unit transmit power, site geometry."""

    id: int
    power_per_ru: float
    x: float = 0.0
    y: float = 0.0
    azimuth_deg: float = 0.0


@dataclass(frozen=True)
class Pixel:
    """One demand point: identity, bits to deliver in the interval, position."""

    id: int
    demand_bits: float
    x: float = 0.0
    y: float = 0.0


@dataclass(frozen=True, eq=False)
class ServingAssignment:
    """Pixel-to-cell map of an instance with ``num_cells`` cells.

    ``server_of[j]`` is the 0-based index of the cell serving pixel j, or -1
    when the pixel is unassigned (allowed only for zero-demand pixels).
    ``areas[i]`` lists the served pixel indices of cell i in ascending order;
    it is derived from ``server_of`` on first use, so the two always agree.
    """

    server_of: np.ndarray
    num_cells: int

    def __post_init__(self):
        server_of = np.array(self.server_of, dtype=np.int64)
        server_of.setflags(write=False)
        object.__setattr__(self, "server_of", server_of)

    @cached_property
    def areas(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(np.flatnonzero(self.server_of == i).tolist()) for i in range(self.num_cells)
        )


@dataclass(frozen=True, eq=False)
class NetworkInstance:
    """Immutable snapshot of one network: geometry, demand, gains and serving map.

    ``gains[i, j]`` is the linear power gain from cell i to pixel j, strictly
    positive.  ``noise_power`` is the receiver noise power in watt over one
    resource unit, ``num_resource_units`` the number of resource units in the
    considered interval and ``rate_scale`` the bits one resource unit carries
    per unit of spectral efficiency.  An instance built without ``serving``
    gets the best-server assignment of its own cells and gains.  Copies with
    some fields changed are made with ``dataclasses.replace``; pass
    ``serving=None`` there to reassign by best server.
    """

    cells: tuple[Cell, ...]
    pixels: tuple[Pixel, ...]
    gains: np.ndarray
    noise_power: float
    num_resource_units: int
    rate_scale: float
    # Periodic replication vectors of the site grid, carried only so that
    # sector rotation can reproduce the wrap-around bearings; None for
    # instances without wrap-around geometry.
    wrap_periods: Optional[np.ndarray] = None
    serving: Optional[ServingAssignment] = None

    def __post_init__(self):
        gains = np.array(self.gains, dtype=np.float64, order="C")
        gains.setflags(write=False)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "pixels", tuple(self.pixels))
        if self.wrap_periods is not None:
            wrap = np.array(self.wrap_periods, dtype=np.float64)
            wrap.setflags(write=False)
            object.__setattr__(self, "wrap_periods", wrap)
        if self.serving is None:
            object.__setattr__(self, "serving", assign_best_server(self))

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_pixels(self) -> int:
        return len(self.pixels)

    def powers(self) -> np.ndarray:
        return np.array([c.power_per_ru for c in self.cells])

    def demands(self) -> np.ndarray:
        return np.array([p.demand_bits for p in self.pixels])

    def with_demand_scale(self, scale: float) -> "NetworkInstance":
        """Copy of the instance with every pixel demand multiplied by ``scale``."""
        if not (math.isfinite(scale) and scale >= 0):
            raise ValueError(f"demand scale must be finite and >= 0, got {scale}")
        pixels = tuple(
            Pixel(id=p.id, demand_bits=p.demand_bits * scale, x=p.x, y=p.y)
            for p in self.pixels
        )
        return replace(self, pixels=pixels)


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
    if instance.num_resource_units < 1 or instance.num_resource_units != int(instance.num_resource_units):
        out.append(
            Violation("resource_units_nonpositive",
                      f"num_resource_units must be a positive integer, got {instance.num_resource_units}")
        )
    if instance.rate_scale <= 0 or not math.isfinite(instance.rate_scale):
        out.append(
            Violation("rate_scale_nonpositive",
                      f"rate_scale must be positive and finite, got {instance.rate_scale}")
        )
    for idx, cell in enumerate(instance.cells):
        if cell.power_per_ru <= 0 or not math.isfinite(cell.power_per_ru):
            out.append(
                Violation("cell_power_nonpositive",
                          f"cell {cell.id}: power_per_ru must be positive and finite, got {cell.power_per_ru}")
            )
    for pixel in instance.pixels:
        if pixel.demand_bits < 0 or not math.isfinite(pixel.demand_bits):
            out.append(
                Violation("pixel_demand_negative",
                          f"pixel {pixel.id}: demand_bits must be finite and >= 0, got {pixel.demand_bits}")
            )

    if instance.gains.shape != (n, m):
        out.append(
            Violation("gain_shape_mismatch",
                      f"gains shape {instance.gains.shape} does not match ({n}, {m})")
        )
        return out  # index checks below assume matching shapes

    if m and not (np.all(np.isfinite(instance.gains)) and np.all(instance.gains > 0)):
        out.append(Violation("gain_nonpositive", "every gain must be strictly positive and finite"))

    server_of = instance.serving.server_of
    if server_of.shape != (m,):
        out.append(
            Violation("serving_shape_mismatch",
                      f"server_of length {server_of.shape} does not match pixel count {m}")
        )
        return out
    assigned = server_of >= 0
    if np.any(server_of[assigned] >= n):
        out.append(Violation("serving_out_of_range", "server_of references a cell index >= num_cells"))
        return out
    for j, pixel in enumerate(instance.pixels):
        if pixel.demand_bits > 0 and server_of[j] < 0:
            out.append(
                Violation("unserved_demand_pixel",
                          f"pixel {pixel.id} has positive demand but no serving cell")
            )
    if instance.serving.num_cells != n:
        out.append(
            Violation("serving_inconsistent",
                      f"serving map is for {instance.serving.num_cells} cells, instance has {n}")
        )
    return out


def assign_best_server(instance: NetworkInstance) -> ServingAssignment:
    """Assign every pixel to the cell with the strongest received power.

    The winner maximizes power_per_ru * gain; ties go to the lowest cell
    index, which argmax delivers by scanning order.
    """
    received = instance.powers()[:, None] * instance.gains
    return ServingAssignment(np.argmax(received, axis=0), instance.num_cells)


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
            {
                "id": c.id,
                "power_per_ru_w": c.power_per_ru,
                "x_m": c.x,
                "y_m": c.y,
                "azimuth_deg": c.azimuth_deg,
            }
            for c in instance.cells
        ],
        "pixels": [
            {"id": p.id, "demand_bits": p.demand_bits, "x_m": p.x, "y_m": p.y}
            for p in instance.pixels
        ],
        "gains_db": _gains_to_db(instance.gains).tolist(),
    }
    doc["serving"] = [
        [pixel.id, instance.cells[k].id]
        for pixel, k in zip(instance.pixels, instance.serving.server_of.tolist())
        if k >= 0
    ]
    if instance.wrap_periods is not None:
        doc["wrap_periods_m"] = instance.wrap_periods.tolist()
    # one C-encoder pass: json.dump, and any indent, take the pure-Python encoder
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")))
        fh.write("\n")


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
    # exact-type fast path for the per-pixel fields: json gives plain int and float
    if type(value) in (float, int) and abs(value) <= sys.float_info.max:
        return float(value)
    return float(_typed(value, "float", what))


def _float_matrix(rows, what: str) -> np.ndarray:
    """``rows`` as a float64 array if it is a list of equal-length lists of JSON numbers."""
    try:
        if all(set(map(type, row)) <= {int, float} for row in rows):
            return np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        pass
    raise SchemaError(f"{what} must be of type float, in rows of equal length")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing required field '{key}'")
    return doc[key]


def load_instance(path) -> NetworkInstance:
    """Read an instance file, converting gains from dB and rebuilding the serving map.

    Files without a ``serving`` block get a best-server assignment.  A wrong
    or missing schema version is rejected outright.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")

    version = _require(doc, "version", str(path))
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(f"{path}: schema version {version!r} not supported (expected {SCHEMA_VERSION})")

    cells_doc = _require(doc, "cells", str(path))
    pixels_doc = _require(doc, "pixels", str(path))
    gains_db = _require(doc, "gains_db", str(path))

    cells = []
    for k, c in enumerate(cells_doc):
        try:
            cells.append(
                Cell(
                    id=_typed(c["id"], "int", "id"),
                    power_per_ru=_float(c["power_per_ru_w"], "power_per_ru_w"),
                    x=_float(c.get("x_m", 0.0), "x_m"),
                    y=_float(c.get("y_m", 0.0), "y_m"),
                    azimuth_deg=_float(c.get("azimuth_deg", 0.0), "azimuth_deg"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: cells[{k}]: {exc!r}") from exc
    pixels = []
    for k, p in enumerate(pixels_doc):
        try:
            pixels.append(
                Pixel(
                    id=_typed(p["id"], "int", "id"),
                    demand_bits=_float(p["demand_bits"], "demand_bits"),
                    x=_float(p.get("x_m", 0.0), "x_m"),
                    y=_float(p.get("y_m", 0.0), "y_m"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: pixels[{k}]: {exc!r}") from exc

    for name, items in (("cells", cells), ("pixels", pixels)):
        ids = [item.id for item in items]
        if ids != list(range(1, len(ids) + 1)):
            raise SchemaError(f"{path}: {name} ids must be 1..{len(ids)} in order")

    gains = np.power(10.0, _float_matrix(gains_db, f"{path}: gains_db") / 10.0)
    if gains.shape != (len(cells), len(pixels)):
        raise SchemaError(
            f"{path}: gains_db has shape {gains.shape}, expected ({len(cells)}, {len(pixels)})"
        )

    wrap = doc.get("wrap_periods_m")
    if wrap is not None:
        wrap = _float_matrix(wrap, f"{path}: wrap_periods_m")
        if wrap.shape != (2, 2):
            raise SchemaError(f"{path}: wrap_periods_m must be two 2-vectors")

    serving = None
    if "serving" in doc:
        server_of = np.full(len(pixels), -1, dtype=np.int64)
        for k, pair in enumerate(doc["serving"]):
            try:
                pixel_id, cell_id = pair
                pixel_id, cell_id = _typed(pixel_id, "int", "pixel id"), _typed(cell_id, "int", "cell id")
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{path}: serving[{k}] must be a [pixel_id, cell_id] pair: {exc}") from exc
            if not (1 <= pixel_id <= len(pixels)) or not (1 <= cell_id <= len(cells)):
                raise SchemaError(f"{path}: serving[{k}] references unknown pixel or cell id")
            if server_of[pixel_id - 1] >= 0:
                raise SchemaError(f"{path}: pixel {pixel_id} assigned more than once")
            server_of[pixel_id - 1] = cell_id - 1
        serving = ServingAssignment(server_of, len(cells))
    return NetworkInstance(
        cells=tuple(cells),
        pixels=tuple(pixels),
        gains=gains,
        noise_power=_float(_require(doc, "noise_power_w", str(path)), f"{path}: noise_power_w"),
        num_resource_units=_typed(_require(doc, "num_resource_units", str(path)), "int",
                                  f"{path}: num_resource_units"),
        rate_scale=_float(_require(doc, "rate_scale", str(path)), f"{path}: rate_scale"),
        wrap_periods=wrap,
        serving=serving,
    )
