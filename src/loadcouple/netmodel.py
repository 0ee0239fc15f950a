"""Network data model: per-cell and per-pixel columns, gains, serving map and file I/O.

Everything downstream (coupling coefficients, solvers, sweeps) works on the
immutable :class:`NetworkInstance` defined here, a set of read-only arrays
and scalars, valid by construction: its constructor runs :func:`validate`,
which raises :class:`SchemaError` naming each broken rule.  Gains are kept
linear-scale in memory.  The interchange file, compact one-line JSON,
stores them in dB, each value chosen so that the load-time conversion gives
the linear gain back bit for bit wherever a float dB value can.  Files are
read and written with orjson.  The stdlib ``json`` module reads only what
orjson rejects: NaN, Infinity, numbers beyond the float range, and invalid
JSON, whose error it locates; it also reads a file again to name a key
written twice in one object, which the count of its ``"`` bytes gives
away.  A load of bytes this process parsed lately returns the instance
they gave without a parse, found by their SHA-256 or by the open file's
stat signature (see :func:`load_instance`).  The cyclic garbage collector
is paused from the parse until the instance is built.  Each row of a
matrix of numbers is checked and converted by one typed pack in C, which
decides the matrix.  Each other block of numbers is converted as one
numpy array; a block that fails goes through a typed walk over its
cells, pixels or serving pairs, which names the first bad entry.  Shapes
are left to :func:`validate`, and a key the format does not define, or
written twice in one object, is rejected at any level.  A cell or pixel
is identified by its position: 1-based in files and in reports, 0-based
for array indexing internally.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import reprlib
import struct
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from stat import S_ISREG
from typing import Optional

import numpy as np
import orjson

SCHEMA_VERSION = 1
# int64's largest: orjson cannot write an int of 2**64 or more and reads one back as a float
_MAX_RESOURCE_UNITS = 2**63 - 1


class SchemaError(ValueError):
    """A file does not match its documented schema, or :func:`validate` finds an instance invalid."""


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
    best server.  The constructor ends by running :func:`validate`, which
    raises SchemaError naming the code of each broken rule, so every
    instance and every copy is valid.  Every column is copied into a
    read-only array, even a read-only one, which a writable view taken
    before could still change; only the loader, the generator and the
    sector rotation hand their new gains over uncopied.
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
        geometry = _geometry_shapes(n, m)
        for name in ("power_per_ru", "demand_bits", "gains", *geometry, "server_of"):
            value = getattr(self, name)
            if value is None and name == "wrap_periods":
                continue
            if value is None and name == "server_of":  # the columns above it are set by now
                # gains of the wrong shape have no best server; validate stops at their shape
                value = assign_best_server(self) if self.gains.shape == (n, m) else np.full(m, -1)
            elif value is None:
                value = np.zeros(geometry[name])
            if isinstance(value, _Handover):
                value = value.array
            else:
                value = np.array(value, dtype=np.int64 if name == "server_of" else np.float64, order="C")
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        validate(self)  # the module global, which a tracer may wrap

    @property
    def num_cells(self) -> int:
        return len(self.power_per_ru)

    @property
    def num_pixels(self) -> int:
        return len(self.demand_bits)

    def with_demand_scale(self, scale: float) -> "NetworkInstance":
        """Copy of the instance with every pixel demand multiplied by ``scale``."""
        _check_scale(scale)
        with np.errstate(over="ignore"):  # an infinite demand is validate's to reject
            return replace(self, demand_bits=self.demand_bits * scale)


def _check_scale(scale: float) -> None:
    if not (math.isfinite(scale) and scale >= 0):
        raise ValueError(f"demand scale must be finite and >= 0, got {scale}")


def _geometry_shapes(n: int, m: int) -> dict:
    """The shape of each geometry column of an instance with n cells and m pixels."""
    return {"cell_xy": (n, 2), "azimuth_deg": (n,), "pixel_xy": (m, 2), "wrap_periods": (2, 2)}


@dataclass(frozen=True)
class _Handover:
    """A C-contiguous float64 array handed over by its maker, who keeps no view of it: kept uncopied."""

    array: np.ndarray


def validate(instance: NetworkInstance) -> None:
    """Check every structural invariant; raise SchemaError naming each broken one.

    Every :class:`NetworkInstance` runs it when built, so what the paper's
    load map and feasibility condition need holds for every instance:
    positive finite gains, powers, noise and rate scale, an integer number
    of resource units in 1..2**63-1, finite non-negative demand with a
    serving cell for every demanded pixel, and finite geometry of the right
    shapes, with wrap periods that span the plane.  The error reads
    ``"invalid instance: code: message; ..."`` with one entry per broken
    rule; a rule broken at several cells or pixels names the first and
    counts the rest, ``" (and K more)"``.
    """
    found: list[str] = []
    n, m = instance.num_cells, instance.num_pixels

    if n == 0:
        found.append("no_cells: instance has no cells")
    if instance.noise_power <= 0 or not math.isfinite(instance.noise_power):
        found.append(f"noise_power_nonpositive: noise_power must be positive and finite, got {instance.noise_power}")
    units = instance.num_resource_units
    if not 1 <= units <= _MAX_RESOURCE_UNITS or units != int(units):
        found.append(f"resource_units_nonpositive: num_resource_units must be an integer in 1..2**63-1, got {units}")
    if instance.rate_scale <= 0 or not math.isfinite(instance.rate_scale):
        found.append(f"rate_scale_nonpositive: rate_scale must be positive and finite, got {instance.rate_scale}")
    power, demand = instance.power_per_ru, instance.demand_bits
    found += _first_of("cell_power_nonpositive", ~(np.isfinite(power) & (power > 0)),
                       lambda i: f"cell {i + 1}: power_per_ru must be positive and finite, got {power[i]}")
    found += _first_of("pixel_demand_negative", ~(np.isfinite(demand) & (demand >= 0)),
                       lambda j: f"pixel {j + 1}: demand_bits must be finite and >= 0, got {demand[j]}")

    for name, shape in _geometry_shapes(n, m).items():
        value = getattr(instance, name)
        if value is None:  # no wrap periods
            continue
        if value.shape != shape:
            found.append(f"geometry_shape_mismatch: {name} must be of shape {shape}, got {value.shape}")
        elif not np.all(np.isfinite(value)):
            found.append(f"geometry_not_finite: {name} must be finite, got non-finite values")
        elif name == "wrap_periods":
            a, b, c, d = map(Fraction, value.ravel().tolist())
            if a * d == b * c:  # in exact arithmetic: rounded products could cancel or underflow
                found.append(f"wrap_periods_singular: wrap_periods must span the plane, got {value.tolist()}")

    if instance.gains.shape != (n, m):  # the checks below index by the shapes
        found.append(f"gain_shape_mismatch: gains shape {instance.gains.shape} does not match ({n}, {m})")
    else:
        server_of = instance.server_of
        if m and not (np.all(np.isfinite(instance.gains)) and np.all(instance.gains > 0)):
            found.append("gain_nonpositive: every gain must be strictly positive and finite")
        if server_of.shape != (m,):
            found.append(f"serving_shape_mismatch: server_of length {server_of.shape} does not match pixel count {m}")
        elif np.any((server_of < -1) | (server_of >= n)):
            found.append("serving_out_of_range: server_of references a cell index outside -1..num_cells-1")
        else:
            found += _first_of("unserved_demand_pixel", (demand > 0) & (server_of < 0),
                               lambda j: f"pixel {j + 1} has positive demand but no serving cell")
    if found:
        raise SchemaError("invalid instance: " + "; ".join(found))


def _first_of(code: str, bad: np.ndarray, message) -> list[str]:
    """The entry of a rule broken where ``bad`` holds: the first position's message and a count of the rest."""
    where = np.flatnonzero(bad)
    if where.size == 0:
        return []
    more = f" (and {where.size - 1} more)" if where.size > 1 else ""
    return [f"{code}: {message(int(where[0]))}{more}"]


@np.errstate(over="ignore", invalid="ignore")  # validate rejects what overflows here
def assign_best_server(instance: NetworkInstance) -> np.ndarray:
    """``server_of``: every pixel goes to the cell with the strongest received power.

    The winner maximizes power_per_ru * gain; ties go to the lowest cell
    index, which argmax delivers by scanning order, as it gives a NaN
    product's pixel to its first NaN; one contiguous row of products per pixel.
    """
    return np.multiply(instance.gains.T, instance.power_per_ru, order="C").argmax(axis=1)


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
    served = np.flatnonzero(instance.server_of >= 0)
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
        # the 1-based [pixel_id, cell_id] pairs, as an int64 (k, 2) array
        "serving": np.stack([served + 1, instance.server_of[served] + 1], axis=1),
    }
    if instance.wrap_periods is not None:
        doc["wrap_periods_m"] = instance.wrap_periods
    data = orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)
    with open(path, "wb") as fh:
        fh.write(data)


def _typed(value, kind: str, what: str):
    """``value`` if it is a JSON ``kind`` ("int", "float" or "bool"), else SchemaError.

    Booleans are not numbers, floats must be finite, and an int may be
    written as an integral float, which is returned as int.  The error
    shows the value as ``reprlib.repr`` abbreviates it, so a long string or
    a deep list gives a short line; an int too long for CPython to convert
    to a string is shown by its bit length.
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
        raise SchemaError(f"{what} must be of type {kind}, got {_shown(value)}")
    return int(value) if kind == "int" else value


def _shown(value) -> str:
    """``reprlib.repr(value)``, or a description where an int in it is too long for CPython to print."""
    try:
        return reprlib.repr(value)
    except ValueError:  # CPython's digit limit on int-to-str, met by the int or one inside the value
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        return f"a {type(value).__name__} holding an int too long to show"


def _float(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number, else SchemaError."""
    return float(_typed(value, "float", what))


def _float_matrix(rows, what: str) -> np.ndarray:
    """``rows`` as a float64 array if it is a list of equal-length lists of finite JSON numbers.

    Each row takes one typed pack in C, ``struct.Struct(f"{m}d").pack_into``,
    straight into its row of the float64 array: a string, null, list or
    object, and an int beyond the float range, raise ``struct.error``.  The
    one non-number it takes is a bool, as exactly 0 or 1, so only the
    entries that came out 0 or 1 have their type looked at.  No rows give an
    array of shape (0,), as ``np.asarray([])`` does.  Anything else raises
    SchemaError.
    """
    if type(rows) is list and set(map(type, rows)) <= {list} and len(set(map(len, rows))) <= 1:
        values = np.empty((len(rows), *map(len, rows[:1])))
        m = values.shape[-1]
        row_format = struct.Struct(f"{m}d")
        try:
            for k, row in enumerate(rows):
                row_format.pack_into(values, k * row_format.size, *row)
        except struct.error:
            pass
        else:
            exact = np.flatnonzero((values == 0) | (values == 1)).tolist()
            if np.all(np.isfinite(values)) and not any(type(rows[p // m][p % m]) is bool for p in exact):
                return values
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
        except KeyError as exc:
            raise SchemaError(f"{where}[{k}]: missing required field '{exc.args[0]}'") from exc
        except TypeError as exc:
            raise SchemaError(f"{where}[{k}]: must be an object, got {type(item).__name__}") from exc
        except SchemaError as exc:
            raise SchemaError(f"{where}[{k}]: {exc}") from exc
    return ids, np.array(rows, dtype=np.float64).reshape(len(items), len(fields)).T


def _reject_unknown_fields(objects: list, allowed: set, where: str) -> None:
    """SchemaError naming the first key outside ``allowed`` in a list of JSON objects, in file order.

    A list whose keys are all allowed takes one set test.
    """
    if not set(chain.from_iterable(objects)) <= allowed:
        k, key = next((k, key) for k, obj in enumerate(objects) for key in obj if key not in allowed)
        raise SchemaError(f"{where}[{k}]: unknown field {key!r}")


class _Repeated(dict):
    """A JSON object read with a key written twice in it, the first such key its ``key``."""

    key: str


def _pairs_to_object(pairs: list) -> dict:
    """``json.loads``'s object hook: the object, a :class:`_Repeated` if a key is written twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        obj = _Repeated(obj)
        obj.key = next(key for key, _ in pairs if key in seen or seen.add(key))
    return obj


def _stdlib_loads(data: bytes, path, **hooks):
    """``json.loads`` raising SchemaError: on invalid JSON or text, located, and on what it cannot read.

    That is nesting deeper than it recurses and an integer longer than
    Python converts from a string (``sys.get_int_max_str_digits``).
    """
    try:
        return json.loads(data, **hooks)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:  # in the encoding json.loads detected: UTF-8, -16 or -32
        raise SchemaError(f"{path}: not valid {exc.encoding.upper()} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: JSON nested too deeply to read") from exc
    except ValueError as exc:  # the one other: an integer longer than Python converts from a string
        raise SchemaError(f"{path}: JSON integer has more than {sys.get_int_max_str_digits()} digits") from exc


def _reject_repeated_keys(data: bytes, path) -> None:
    """SchemaError naming a key written twice in one object: at the top level, else in a cell, else in a pixel.

    The file is parsed again with the stdlib, whose hook sees every pair; a
    file with no such key in those objects returns, to fail a later check.
    """
    doc = _stdlib_loads(data, path, object_pairs_hook=_pairs_to_object)
    objects = chain([(str(path), doc)], ((f"{path}: {name}[{k}]", obj)
                                         for name in ("cells", "pixels") for k, obj in enumerate(doc[name])))
    for where, obj in objects:
        if isinstance(obj, _Repeated):
            raise SchemaError(f"{where}: duplicate field {obj.key!r}")


def _serving(pairs: list, n: int, m: int, where: str) -> np.ndarray:
    """``server_of`` from the file's 1-based [pixel_id, cell_id] pairs, -1 for unlisted pixels.

    A list of int pairs in range, each pixel listed at most once, is checked
    and converted as one array; a list that fails is walked pair by pair, so
    the error names the first bad pair in file order.
    """
    server_of = np.full(m, -1, dtype=np.int64)
    try:
        if set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}:
            ids = list(chain.from_iterable(pairs))  # converts faster flat than as pairs
            # np.array takes a bool as an int, so the element types are checked first
            if set(map(type, ids)) <= {int}:
                pixel_id, cell_id = np.array(ids, dtype=np.int64).reshape(-1, 2).T
                if (np.all((1 <= pixel_id) & (pixel_id <= m) & (1 <= cell_id) & (cell_id <= n))
                        and np.bincount(pixel_id, minlength=m + 1).max() <= 1):
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


# The keys of a version-1 file: at the top level, and in a cell or pixel
# besides its id, with the field's default, None for a required one
_INSTANCE_FIELDS = frozenset({"version", "noise_power_w", "num_resource_units", "rate_scale", "cells", "pixels",
                              "gains_db", "serving", "wrap_periods_m"})
_CELL_FIELDS = (("power_per_ru_w", None), ("x_m", 0.0), ("y_m", 0.0), ("azimuth_deg", 0.0))
_PIXEL_FIELDS = (("demand_bits", None), ("x_m", 0.0), ("y_m", 0.0))

# Instances parsed by load_instance, by the SHA-256 of their file's bytes, least
# recently loaded first.  Eight holds every file of a planning session that
# alternates between a few networks and their variants.
_LOADED_MAX = 8
_LOADED: OrderedDict[bytes, NetworkInstance] = OrderedDict()
# The digest of each trusted file read lately, by its stat signature
# (st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns), least recently used
# first; a few paths per kept content.  Both tables share the one lock.
_SIGNED_MAX = 4 * _LOADED_MAX
_SIGNED: OrderedDict[tuple, bytes] = OrderedDict()
_LOADED_LOCK = threading.Lock()
# Signatures are trusted only on Linux, where the clock that stamps the ctime
# of a local file can be read: CLOCK_REALTIME_COARSE, which the time module
# does not name.  Every change to a local file made after a reading of it
# stamps a ctime no earlier than that reading, so an older ctime cannot recur.
_TRUSTS_SIGNATURES = sys.platform == "linux"
_CTIME_CLOCK = 5
# How much older than that reading a trusted ctime must be: a margin for a
# step back of the clock
_CTIME_SLACK_NS = 20_000_000


def load_instance(path) -> NetworkInstance:
    """Read an instance file, converting gains from dB and rebuilding the serving map.

    The file's ids must be 1..n and 1..m in order; they are positions and
    are not kept.  Files without a ``serving`` block get a best-server
    assignment.  A wrong or missing schema version is rejected outright,
    and so is a key the format does not define, or one written twice in
    one object, at the top level, in a cell or in a pixel.  An instance
    that breaks :func:`validate`, a misshaped ``gains_db`` or
    ``wrap_periods_m`` included, raises SchemaError
    ``"{path}: invalid instance: ..."``.

    The instances parsed from the last :data:`_LOADED_MAX` distinct
    contents are kept in this process under two keys.  The content key is
    the SHA-256 of the file's bytes: a file with the same bytes as one of
    them, under any path, gets that same instance back, immutable with
    read-only columns, without a parse (about 4 ms at n=81, 4.1 MB, most
    of it the hash).  The signature key is the open file's
    ``(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)``, taken before
    the read: a file whose signature is unchanged since a trusted read
    gets its instance back without a read or a hash (about 10 us).  A
    read is trusted only on Linux, from a regular file with a nonzero
    inode whose bytes read equal its size, and whose ctime has a nonzero
    sub-millisecond part (a fine-grained stamp) and is more than
    :data:`_CTIME_SLACK_NS` older than a reading, taken before the fstat,
    of the clock that stamps ctimes.  This is git's "racy-git" rule: any
    later write, truncate, ``utime``, rename-over or recreate gives the
    path a new ctime or inode, so its signature misses and its bytes are
    read and hashed again.  The one known limit: on a network mount whose
    server clock runs behind this machine's by more than the slack, a
    same-size rewrite within one server clock tick of a load can go unseen.

    Only a successful parse is kept, so every error is the parse's.  The
    cyclic garbage collector is paused from the parse until the instance
    is built: the parsed document holds no cycles, so a collection could
    only walk its rows of numbers again and again.
    """
    with open(path, "rb") as fh:
        now = time.clock_gettime_ns(_CTIME_CLOCK) if _TRUSTS_SIGNATURES else 0
        stat = os.fstat(fh.fileno())
        signature = (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns)
        with _LOADED_LOCK:
            digest = _SIGNED.get(signature)
            instance = _LOADED.get(digest)
            if instance is not None:
                _SIGNED.move_to_end(signature)
                _LOADED.move_to_end(digest)
                return instance
        data = fh.read()
    digest = hashlib.sha256(data).digest()
    trusted = (_TRUSTS_SIGNATURES and S_ISREG(stat.st_mode) and stat.st_ino != 0 and len(data) == stat.st_size
               and stat.st_ctime_ns % 1_000_000 != 0 and stat.st_ctime_ns < now - _CTIME_SLACK_NS)
    with _LOADED_LOCK:
        if trusted:
            _SIGNED[signature] = digest
            if len(_SIGNED) > _SIGNED_MAX:
                _SIGNED.popitem(last=False)
        instance = _LOADED.get(digest)
        if instance is not None:
            _LOADED.move_to_end(digest)
            return instance
    collecting = gc.isenabled()
    gc.disable()
    try:
        instance = _parse_instance(data, path)
    finally:
        if collecting:
            gc.enable()
    with _LOADED_LOCK:
        _LOADED[digest] = instance
        if len(_LOADED) > _LOADED_MAX:
            _LOADED.popitem(last=False)
    return instance


def _parse_instance(data: bytes, path) -> NetworkInstance:
    """:func:`load_instance` on the file's bytes."""
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError:
        # the stdlib reads NaN, Infinity and numbers beyond the float range,
        # which orjson rejects, and locates the error in invalid JSON
        doc = _stdlib_loads(data, path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")

    version = _require(doc, "version", str(path))
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # True == 1 in Python
        raise SchemaVersionError(f"{path}: schema version {version!r} not supported (expected {SCHEMA_VERSION})")
    unknown = [key for key in doc if key not in _INSTANCE_FIELDS]
    if unknown:
        raise SchemaError(f"{path}: unknown field {unknown[0]!r}")

    cells_doc = _require(doc, "cells", str(path), list)
    pixels_doc = _require(doc, "pixels", str(path), list)
    gains_db = _require(doc, "gains_db", str(path), list)

    cell_ids, (power, cell_x, cell_y, azimuth) = _columns(cells_doc, _CELL_FIELDS, f"{path}: cells")
    pixel_ids, (demand, pixel_x, pixel_y) = _columns(pixels_doc, _PIXEL_FIELDS, f"{path}: pixels")
    n, m = len(cell_ids), len(pixel_ids)
    for name, ids, items, fields in (("cells", cell_ids, cells_doc, _CELL_FIELDS),
                                     ("pixels", pixel_ids, pixels_doc, _PIXEL_FIELDS)):
        if ids != list(range(1, len(ids) + 1)):
            raise SchemaError(f"{path}: {name} ids must be 1..{len(ids)} in order")
        _reject_unknown_fields(items, {"id", *dict(fields)}, f"{path}: {name}")
    # every string of a valid file is a key, so a file with as many '"' bytes
    # as twice its keys has no key written twice in one object; counted by
    # blocks, whose masks stay in cache: 0.6 ms at n=81, against 1.3 ms in
    # one mask and 2 ms for bytes.count
    raw = np.frombuffer(data, np.uint8)
    quotes = sum(np.count_nonzero(raw[k:k + 2**18] == ord('"')) for k in range(0, raw.size, 2**18))
    if quotes != 2 * (len(doc) + sum(map(len, cells_doc)) + sum(map(len, pixels_doc))):
        _reject_repeated_keys(data, path)

    gains = _float_matrix(gains_db, f"{path}: gains_db")
    gains /= 10.0
    with np.errstate(over="ignore"):  # an infinite gain is validate's to reject
        np.power(10.0, gains, out=gains)

    wrap = doc.get("wrap_periods_m")
    if wrap is not None:
        wrap = _float_matrix(wrap, f"{path}: wrap_periods_m")

    server_of = None
    if "serving" in doc:
        server_of = _serving(_require(doc, "serving", str(path), list), n, m, str(path))
    noise = _float(_require(doc, "noise_power_w", str(path)), f"{path}: noise_power_w")
    units = _typed(_require(doc, "num_resource_units", str(path)), "int", f"{path}: num_resource_units")
    rate_scale = _float(_require(doc, "rate_scale", str(path)), f"{path}: rate_scale")
    try:
        return NetworkInstance(
            power_per_ru=power,
            demand_bits=demand,
            gains=_Handover(gains),
            noise_power=noise,
            num_resource_units=units,
            rate_scale=rate_scale,
            cell_xy=np.stack([cell_x, cell_y], axis=1),
            azimuth_deg=azimuth,
            pixel_xy=np.stack([pixel_x, pixel_y], axis=1),
            wrap_periods=wrap,
            server_of=server_of,
        )
    except SchemaError as exc:  # the constructor's validation
        raise SchemaError(f"{path}: {exc}") from exc
