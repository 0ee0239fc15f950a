import copy
import dataclasses
import gc
import itertools
import json
import os
import re
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    areas,
    best_server_reference,
    build_instance,
    columns_reference,
    float_matrix_reference,
    random_instance,
    serving_reference,
)
from loadcouple import (
    NetworkInstance,
    ScenarioSpec,
    SchemaError,
    SchemaVersionError,
    assign_best_server,
    generate,
    load_instance,
    netmodel,
    rotate_sector,
    save_instance,
    validate,
)
from loadcouple.netmodel import _columns, _float_matrix, _gains_to_db, _serving

SEED = 20260814


def test_validate_clean_instance():
    rng = np.random.default_rng(SEED)
    instance = random_instance(rng, 4, 6)
    assert validate(instance) is None


def _small_instance(**overrides):
    kwargs = dict(
        gains=np.array([[1e-7, 2e-8], [3e-8, 9e-8]]),
        demands=[10.0, 20.0],
        powers=[1.0, 2.0],
        noise=1e-9,
    )
    kwargs.update(overrides)
    return build_instance(**kwargs)


@pytest.mark.parametrize(
    "overrides, code",
    [
        (dict(noise=0.0), "noise_power_nonpositive"),
        (dict(noise=-1e-9), "noise_power_nonpositive"),
        (dict(powers=[1.0, 0.0]), "cell_power_nonpositive"),
        (dict(demands=[10.0, -1.0]), "pixel_demand_negative"),
        (dict(gains=np.array([[1e-7, 0.0], [3e-8, 9e-8]])), "gain_nonpositive"),
        (dict(num_resource_units=0), "resource_units_nonpositive"),
        (dict(rate_scale=0.0), "rate_scale_nonpositive"),
        (dict(num_resource_units=2**63), "resource_units_nonpositive"),
    ],
)
def test_validate_flags_bad_values(overrides, code):
    with pytest.raises(SchemaError, match=f"^invalid instance: (.*; )?{code}: "):
        _small_instance(**overrides)


def test_validate_names_the_first_offender_of_each_rule_and_counts_the_rest():
    with pytest.raises(SchemaError) as info:
        build_instance(np.full((3, 2), 1e-8), demands=[10.0, -2.0], powers=[0.0, -1.0, np.nan], noise=1e-9)
    assert str(info.value) == (
        "invalid instance: cell_power_nonpositive: cell 1: power_per_ru must be positive and finite, got 0.0 "
        "(and 2 more); pixel_demand_negative: pixel 2: demand_bits must be finite and >= 0, got -2.0")


def test_validate_unserved_demand_pixel():
    instance = _small_instance()
    with pytest.raises(SchemaError, match="^invalid instance: unserved_demand_pixel: pixel 2 "):
        dataclasses.replace(instance, server_of=[0, -1])


def test_validate_unserved_zero_demand_pixel_is_fine():
    instance = _small_instance(demands=[10.0, 0.0])
    assert validate(dataclasses.replace(instance, server_of=[0, -1])) is None


def test_validate_gain_shape_mismatch():
    instance = _small_instance()
    # without a serving map too: gains of the wrong shape have no best server
    for shape, server_of in itertools.product([(2, 3), (3, 2)], [[0, 1], None]):
        with pytest.raises(SchemaError, match=f"^invalid instance: gain_shape_mismatch: gains shape {re.escape(str(shape))} "):
            NetworkInstance(
                power_per_ru=instance.power_per_ru,
                demand_bits=instance.demand_bits,
                gains=np.ones(shape) * 1e-8,
                server_of=server_of,
                noise_power=instance.noise_power,
                num_resource_units=instance.num_resource_units,
                rate_scale=instance.rate_scale,
            )


def test_instance_arrays_are_immutable():
    instance = _small_instance()
    with pytest.raises(ValueError):
        instance.gains[0, 0] = 1.0
    with pytest.raises(ValueError):
        instance.server_of[0] = 1


def test_best_server_matches_bruteforce():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        instance = random_instance(rng, int(rng.integers(2, 7)), int(rng.integers(2, 9)))
        server_of = assign_best_server(instance)
        powers = instance.power_per_ru
        for j in range(instance.num_pixels):
            received = [powers[i] * instance.gains[i, j] for i in range(instance.num_cells)]
            best = max(range(instance.num_cells), key=lambda i: (received[i], -i))
            assert server_of[j] == best


def test_best_server_tie_breaks_lowest_cell():
    gains = np.array([[1e-7, 4e-8], [1e-7, 4e-8], [5e-8, 4e-8]])
    instance = build_instance(gains, demands=[1.0, 1.0], powers=[1.0, 1.0, 1.0], noise=1e-9)
    assert list(instance.server_of) == [0, 0]


# equal, infinite and NaN products: 0 * inf and nan are NaN, 1e300 * 1e10 overflows to inf
_GAINS = st.sampled_from([0.0, 1e-8, 2e-8, 1e300, np.inf, np.nan]) | st.floats(0.0, 1.0)
_POWERS = st.sampled_from([0.0, 1.0, 2.0, 0.5, 1e10, np.inf, np.nan])


@st.composite
def _powers_and_gains(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(0, 8))
    return draw(arrays(np.float64, n, elements=_POWERS)), draw(arrays(np.float64, (n, m), elements=_GAINS))


@settings(max_examples=300)
@given(case=_powers_and_gains())
@example(case=(np.ones(1), np.empty((1, 0))))
@example(case=(np.array([np.nan]), np.array([[1.0, np.inf]])))
@example(case=(np.array([1.0, np.inf, 2.0]), np.array([[1e-8, 0.0, np.nan], [1e-8, 1.0, 1.0], [5e-9, 1e300, 1.0]])))
def test_best_server_matches_the_column_argmax_property(case):
    powers, gains = case
    # zero, NaN and infinite gains and powers make no instance, so a stand-in
    # holds the only two fields assign_best_server reads
    got = assign_best_server(SimpleNamespace(power_per_ru=powers, gains=gains))
    want = best_server_reference(powers, gains)
    assert got.shape == want.shape == (gains.shape[1],)
    assert got.tobytes() == want.tobytes()
    if np.all(np.isfinite(powers) & (powers > 0)) and np.all(np.isfinite(gains) & (gains > 0)):
        instance = build_instance(gains, np.zeros(gains.shape[1]), powers, noise=1.0)
        assert instance.server_of.tobytes() == want.tobytes()


@settings(max_examples=100)
@given(server_of=arrays(np.int64, st.integers(0, 12), elements=st.integers(-1, 4)))
def test_save_writes_the_serving_pairs_as_the_pair_list_property(server_of):
    m = len(server_of)
    instance = build_instance(np.ones((5, m)), np.zeros(m), np.ones(5), noise=1.0, server_of=server_of)
    pairs = [[j + 1, i + 1] for j, i in enumerate(server_of.tolist()) if i >= 0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        save_instance(instance, path)
        data = path.read_bytes()
    # the serving block is written last but for the wrap periods, which this instance lacks
    assert data.endswith(b'"serving":' + orjson.dumps(pairs) + b"}\n")


def test_areas_sorted_and_consistent():
    rng = np.random.default_rng(SEED + 2)
    instance = random_instance(rng, 5, 7)
    # unassigned pixels, and empty first, middle and last cells
    sparse = np.array([3, -1, 1, 3, -1, 1, 1])
    assert areas(sparse, 5) == ((), (2, 5, 6), (), (0, 3), ())
    for server_of in (instance.server_of, sparse):
        cell_areas = areas(server_of, 5)
        assert len(cell_areas) == 5
        for i, area in enumerate(cell_areas):
            assert list(area) == sorted(area)
            assert all(type(j) is int and server_of[j] == i for j in area)
        served = sorted(j for area in cell_areas for j in area)
        assert served == np.flatnonzero(server_of >= 0).tolist()


def _changed_fields(before, after) -> set:
    """Names of the instance fields whose values differ between two instances."""
    def same(a, b):
        if isinstance(a, np.ndarray):
            return np.array_equal(a, b)
        return a == b
    return {f.name for f in dataclasses.fields(NetworkInstance)
            if not same(getattr(before, f.name), getattr(after, f.name))}


def test_copies_change_only_the_named_field():
    instance = generate(ScenarioSpec(users_per_cell_area=6, rng_seed=3))
    assert np.array_equal(instance.server_of, assign_best_server(instance))

    reassigned = dataclasses.replace(instance, server_of=np.zeros(instance.num_pixels))
    assert _changed_fields(instance, reassigned) == {"server_of"}
    assert not reassigned.server_of.any()

    scaled = instance.with_demand_scale(2.0)
    assert _changed_fields(instance, scaled) == {"demand_bits"}
    assert np.array_equal(scaled.demand_bits, 2.0 * instance.demand_bits)
    assert np.array_equal(scaled.server_of, instance.server_of)

    turned = rotate_sector(reassigned, 1, 180.0)
    assert _changed_fields(reassigned, turned) == {"azimuth_deg", "gains", "server_of"}
    assert np.array_equal(turned.server_of, assign_best_server(turned))

    # built without a serving map: best server of its own powers and gains
    fresh = NetworkInstance(
        power_per_ru=reassigned.power_per_ru,
        demand_bits=reassigned.demand_bits,
        gains=reassigned.gains,
        noise_power=reassigned.noise_power,
        num_resource_units=reassigned.num_resource_units,
        rate_scale=reassigned.rate_scale,
        cell_xy=reassigned.cell_xy,
        azimuth_deg=reassigned.azimuth_deg,
        pixel_xy=reassigned.pixel_xy,
        wrap_periods=reassigned.wrap_periods,
    )
    assert _changed_fields(instance, fresh) == set()
    assert np.array_equal(fresh.server_of, assign_best_server(fresh))


def test_resource_units_range_is_int64():
    """A file cannot carry 2**64 or more exactly, so validate stops at int64's largest."""
    assert validate(_small_instance(num_resource_units=2**63 - 1)) is None
    message = "invalid instance: resource_units_nonpositive: num_resource_units must be an integer in 1..2**63-1"
    with pytest.raises(SchemaError) as err:
        _small_instance(num_resource_units=2**63)
    assert str(err.value) == f"{message}, got {2**63}"


def test_geometry_of_the_wrong_shape_names_both_shapes():
    with pytest.raises(ValueError, match=r"cell_xy must be of shape \(2, 2\), got \(3, 2\)"):
        NetworkInstance(power_per_ru=[1.0, 2.0], demand_bits=[10.0, 20.0], gains=np.ones((2, 2)),
                        noise_power=1e-9, num_resource_units=100, rate_scale=1.0, cell_xy=np.zeros((3, 2)))


def test_with_demand_scale():
    instance = _small_instance()
    scaled = instance.with_demand_scale(2.5)
    assert np.array_equal(scaled.demand_bits, instance.demand_bits * 2.5)
    assert np.array_equal(scaled.gains, instance.gains)
    with pytest.raises(ValueError):
        instance.with_demand_scale(-1.0)


def test_demand_scaled_copy_shares_the_other_columns():
    instance = generate(ScenarioSpec(users_per_cell_area=6, rng_seed=3))
    scaled = instance.with_demand_scale(2.0)
    for name in ("gains", "power_per_ru", "server_of", "pixel_xy"):
        column = getattr(scaled, name)
        assert not column.flags.writeable, name
        with pytest.raises(ValueError):
            column[0] = 0
    assert not scaled.demand_bits.flags.writeable
    assert np.array_equal(scaled.demand_bits, 2.0 * instance.demand_bits)


def test_instance_does_not_follow_a_writable_source_array():
    gains = np.array([[1e-7, 2e-8], [3e-8, 9e-8]])
    demands = np.array([10.0, 20.0])
    instance = _small_instance(gains=gains, demands=demands)
    gains[0, 0], demands[1] = 5.0, -1.0
    assert instance.gains[0, 0] == 1e-7 and instance.demand_bits[1] == 20.0
    assert not np.shares_memory(instance.gains, gains)
    # a read-only array is copied too: a writable view taken before could change it
    owner = np.array([10.0, 20.0])
    writable = owner.view()
    owner.setflags(write=False)
    instance = _small_instance(demands=owner)
    writable[0] = 5.0
    assert instance.demand_bits[0] == 10.0
    assert not np.shares_memory(instance.demand_bits, owner)
    # and so is a read-only view of a writable array
    gains = np.array([[1e-7, 2e-8], [3e-8, 9e-8]])
    view = gains.view()
    view.setflags(write=False)
    instance = _small_instance(gains=view)
    gains[0, 0] = 5.0
    assert instance.gains[0, 0] == 1e-7
    assert not np.shares_memory(instance.gains, gains)


def test_loaded_instance_keeps_the_loaders_gains(tmp_path, monkeypatch):
    path = tmp_path / "n9.json"
    save_instance(generate(ScenarioSpec(num_sites=3, rng_seed=7)), path)
    converted = []
    convert = netmodel._float_matrix

    def recorded(rows, what):
        converted.append(convert(rows, what))
        return converted[-1]

    monkeypatch.setattr(netmodel, "_float_matrix", recorded)
    monkeypatch.setattr(netmodel, "_LOADED", OrderedDict())
    instance = load_instance(path)
    assert instance.gains is converted[0]  # converted to linear scale in place, then kept
    assert not instance.gains.flags.writeable and instance.gains.flags.c_contiguous
    # the second load of the same bytes is a hit: nothing is parsed, and the
    # same instance comes back, whose gains own their memory and are read-only
    parsed = len(converted)
    hit = load_instance(path)
    assert len(converted) == parsed and hit is instance
    assert hit.gains.dtype == np.float64 and hit.gains.flags.c_contiguous
    assert not hit.gains.flags.writeable and hit.gains.base is None


def test_save_load_roundtrip_values(tmp_path):
    rng = np.random.default_rng(SEED + 3)
    instance = random_instance(rng, 4, 5)
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    loaded = load_instance(path)
    assert loaded.num_cells == instance.num_cells
    assert loaded.num_pixels == instance.num_pixels
    assert np.array_equal(loaded.server_of, instance.server_of)
    assert loaded.noise_power == instance.noise_power
    assert loaded.num_resource_units == instance.num_resource_units
    assert loaded.rate_scale == instance.rate_scale
    assert np.array_equal(loaded.demand_bits, instance.demand_bits)
    assert np.array_equal(loaded.power_per_ru, instance.power_per_ru)
    # gains pass through a decibel encoding; one trip may round by < 1e-15
    np.testing.assert_allclose(loaded.gains, instance.gains, rtol=1e-13)


def test_save_load_bit_exact_after_first_trip(tmp_path):
    """Decibel-born gains survive save/load untouched, so later trips are exact.

    The first save may have to pick a dB value whose image is one ulp off the
    raw linear gain; from then on the stored gains are exactly representable
    and every further save/load cycle reproduces the same bytes.
    """
    rng = np.random.default_rng(SEED + 4)
    instance = random_instance(rng, 3, 4)
    paths = [tmp_path / f"trip{k}.json" for k in range(3)]
    save_instance(instance, paths[0])
    once = load_instance(paths[0])
    save_instance(once, paths[1])
    twice = load_instance(paths[1])
    save_instance(twice, paths[2])
    assert np.array_equal(once.gains, twice.gains)
    assert np.array_equal(twice.gains, load_instance(paths[2]).gains)
    assert paths[1].read_bytes() == paths[2].read_bytes()


def _assert_same_instance(a, b):
    assert np.array_equal(a.gains, b.gains)
    for name in ("server_of", "demand_bits", "power_per_ru", "cell_xy", "azimuth_deg", "pixel_xy",
                 "wrap_periods"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    for name in ("noise_power", "num_resource_units", "rate_scale"):
        assert getattr(a, name) == getattr(b, name)


def test_indented_file_loads_like_the_compact_one(tmp_path):
    """Files written with ``json.dump(doc, fh, indent=1)``, the earlier layout, still load."""
    instance = rotate_sector(generate(ScenarioSpec(rng_seed=5, users_per_cell_area=6)), 2, 75.0)
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    save_instance(instance, compact)
    assert compact.read_text().count("\n") == 1
    with open(indented, "w") as fh:
        json.dump(json.loads(compact.read_text()), fh, indent=1)
        fh.write("\n")
    _assert_same_instance(load_instance(indented), load_instance(compact))


def test_rotated_instance_round_trip_is_exact_after_first_save(tmp_path):
    """Generated gains come back bit-exact; rotated ones after the first save, which nudges dB values."""
    generated = generate(ScenarioSpec(num_sites=12, rng_seed=9))
    save_instance(generated, tmp_path / "generated.json")
    assert np.array_equal(load_instance(tmp_path / "generated.json").gains, generated.gains)
    instance = rotate_sector(generated, 7, 200.0)
    assert instance.num_cells >= 36
    db = 10.0 * np.log10(instance.gains)
    assert np.count_nonzero(np.power(10.0, db / 10.0) != instance.gains) > 100
    paths = [tmp_path / f"trip{k}.json" for k in range(2)]
    save_instance(instance, paths[0])
    once = load_instance(paths[0])
    save_instance(once, paths[1])
    _assert_same_instance(load_instance(paths[1]), once)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _gains_to_db_scan(linear):
    """Entry by entry: of +1..+4 ulps, then -1..-4, each one converting back strictly closer wins."""
    db = 10.0 * np.log10(linear)
    out = db.copy()
    for idx in zip(*np.nonzero(np.power(10.0, db / 10.0) != linear)):
        best_err = abs(np.power(10.0, db[idx] / 10.0) - linear[idx])
        for direction in (np.inf, -np.inf):
            cand = db[idx]
            for _ in range(4):
                cand = np.nextafter(cand, direction)
                err = abs(np.power(10.0, cand / 10.0) - linear[idx])
                if err < best_err:
                    out[idx], best_err = cand, err
    return out


def test_gains_to_db_matches_the_entrywise_scan():
    generated = generate(ScenarioSpec(rng_seed=4))
    rotated = rotate_sector(rotate_sector(generated, 1, 45.0), 5, 300.0)
    assert np.count_nonzero(np.power(10.0, 10.0 * np.log10(rotated.gains) / 10.0) != rotated.gains) > 50
    for gains in (generated.gains, rotated.gains):
        assert np.array_equal(_gains_to_db(gains), _gains_to_db_scan(gains))


def test_save_load_preserves_unassigned_pixel(tmp_path):
    instance = _small_instance(demands=[10.0, 0.0])
    instance = dataclasses.replace(instance, server_of=[0, -1])
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    loaded = load_instance(path)
    assert list(loaded.server_of) == [0, -1]


def test_load_without_serving_uses_best_server(tmp_path):
    instance = _small_instance()
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    raw = json.loads(path.read_text())
    del raw["serving"]
    path.write_text(json.dumps(raw))
    loaded = load_instance(path)
    assert np.array_equal(loaded.server_of, assign_best_server(loaded))


def test_load_rejects_bad_version(tmp_path):
    instance = _small_instance()
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    raw = json.loads(path.read_text())
    raw["version"] = 99
    path.write_text(json.dumps(raw))
    with pytest.raises(SchemaVersionError):
        load_instance(path)


def test_load_rejects_missing_field(tmp_path):
    instance = _small_instance()
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    raw = json.loads(path.read_text())
    del raw["gains_db"]
    path.write_text(json.dumps(raw))
    with pytest.raises(SchemaError):
        load_instance(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"version": 1,,}')
    with pytest.raises(SchemaError) as err:
        load_instance(path)
    assert "line" in str(err.value)


def test_truncated_file_names_line_and_column(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(_small_instance(), path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(SchemaError, match=r"not valid JSON at line 1, column \d+: "):
        load_instance(path)


def test_a_byte_not_valid_in_utf8_is_rejected_naming_the_file(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(_small_instance(), path)
    data = path.read_bytes()
    at = data.index(b'"noise_power_w"') + 1
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: not valid UTF-8 at byte {at}$"):
        load_instance(path)


def test_an_integer_longer_than_python_converts_is_rejected_naming_the_file(tmp_path):
    """orjson reads 5000 digits as inf and rejects it, and the stdlib meets CPython's digit limit."""
    path = tmp_path / "inst.json"
    save_instance(_small_instance(), path)
    data = re.sub(rb'"demand_bits":[^,}]+', b'"demand_bits":' + b"7" * 5000, path.read_bytes(), count=1)
    path.write_bytes(data)
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: JSON integer has more than "
                                          f"{sys.get_int_max_str_digits()} digits$"):
        load_instance(path)


# a block written twice, the first time nested 1000 deep: orjson reads up to
# 1024 levels and keeps the last, and the stdlib, which then reads the file
# to name the key (or, with a NaN, to read it at all), recurses per level
_TOO_DEEP = b'"serving":' + b"[" * 1000 + b"]" * 1000 + b","


@pytest.mark.parametrize("nan", [False, True])
def test_a_file_nested_deeper_than_the_stdlib_reads_is_rejected(tmp_path, nan):
    path = tmp_path / "inst.json"
    save_instance(_small_instance(), path)
    data = b"{" + _TOO_DEEP + path.read_bytes()[1:]
    path.write_bytes(data.replace(b'"noise_power_w":', b'"noise_power_w":NaN,"x":', 1) if nan else data)
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: JSON nested too deeply to read$"):
        load_instance(path)


def test_saved_file_reads_the_same_with_the_stdlib(tmp_path):
    """Another reader of the file, such as the stdlib ``json``, gets the saved values bit for bit."""
    instance = NetworkInstance(
        power_per_ru=[1e16, 1e-5],
        demand_bits=[5e-324, 1.5e300, 0.0],
        gains=np.array([[1e-7, 2e-8, 0.1], [3e-8, 9e-8, 1e-300]]),
        noise_power=1e-9,
        num_resource_units=2**63 - 1,
        rate_scale=180.0,
        cell_xy=[[-0.0, 1.2345678901234567e-5], [1e22, -123456789012345680.0]],
        pixel_xy=[[0.1, 0.2], [1e-7, 3.0], [2.5e-310, -1e16]],
        wrap_periods=((750.0, 433.0), (0.0, 866.0)),
    )
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    text = path.read_text()
    assert "1e16" in text and "1e+16" not in text  # only the spelling differs from json.dumps
    doc = json.loads(text)

    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.uint64)

    cells, pixels = doc["cells"], doc["pixels"]
    for got, want in (
        ([c["power_per_ru_w"] for c in cells], instance.power_per_ru),
        ([[c["x_m"], c["y_m"]] for c in cells], instance.cell_xy),
        ([c["azimuth_deg"] for c in cells], instance.azimuth_deg),
        ([p["demand_bits"] for p in pixels], instance.demand_bits),
        ([[p["x_m"], p["y_m"]] for p in pixels], instance.pixel_xy),
        (doc["gains_db"], _gains_to_db(instance.gains)),
        (doc["wrap_periods_m"], instance.wrap_periods),
        ([doc["noise_power_w"], doc["rate_scale"]], [instance.noise_power, instance.rate_scale]),
    ):
        assert np.array_equal(bits(got), bits(want))
    assert doc["num_resource_units"] == 2**63 - 1
    assert doc["serving"] == [[j + 1, i + 1] for j, i in enumerate(instance.server_of.tolist())]
    _assert_same_columns(load_instance(path), instance)


def test_load_rejects_noncontiguous_ids(tmp_path):
    instance = _small_instance()
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    raw = json.loads(path.read_text())
    raw["cells"][1]["id"] = 7
    path.write_text(json.dumps(raw))
    with pytest.raises(SchemaError):
        load_instance(path)


def test_load_rejects_duplicate_serving(tmp_path):
    instance = _small_instance()
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    raw = json.loads(path.read_text())
    raw["serving"] = [[1, 1], [1, 2], [2, 2]]
    path.write_text(json.dumps(raw))
    with pytest.raises(SchemaError):
        load_instance(path)


def test_load_rejects_unknown_serving_ids(tmp_path):
    instance = _small_instance()
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    raw = json.loads(path.read_text())
    raw["serving"] = [[1, 1], [2, 9]]
    path.write_text(json.dumps(raw))
    with pytest.raises(SchemaError):
        load_instance(path)


@pytest.mark.parametrize("serving, message", [
    ([[1, 9], [2, "x"]], "serving[0] references unknown pixel or cell id"),
    ([[1, 1], [2, True]], "serving[1] must be a [pixel_id, cell_id] pair"),
    ([[1, 1], [2, 1, 1]], "serving[1] must be a [pixel_id, cell_id] pair"),
    ([[1, 1], [2, 2**64]], "serving[1] references unknown pixel or cell id"),
    ([[2, 1], [0, 2]], "serving[1] references unknown pixel or cell id"),
    ([[2, 1], [2, 2], [1, 7]], "pixel 2 assigned more than once"),
])
def test_bad_serving_error_names_the_first_bad_pair(tmp_path, serving, message):
    path = tmp_path / "inst.json"
    save_instance(_small_instance(), path)
    raw = json.loads(path.read_text())
    raw["serving"] = serving
    path.write_text(json.dumps(raw))
    with pytest.raises(SchemaError) as err:
        load_instance(path)
    assert message in str(err.value)


def test_serving_pairs_may_be_integral_floats_and_partial(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(_small_instance(demands=[10.0, 0.0]), path)
    raw = json.loads(path.read_text())
    for serving, server_of in (([[1, 2.0]], [1, -1]), ([[2, 1], [1, 2]], [1, 0]), ([[1, 1]], [0, -1])):
        raw["serving"] = serving
        path.write_text(json.dumps(raw))
        assert load_instance(path).server_of.tolist() == server_of
    # pixel 1 demands 10 bits, so a file must name its server
    raw["serving"] = []
    path.write_text(json.dumps(raw))
    with pytest.raises(SchemaError, match=": invalid instance: unserved_demand_pixel: pixel 1 "):
        load_instance(path)


# what a JSON document can hold where a gain belongs: floats of every kind
# (nan, inf, subnormals, exact 0, -0 and 1, +-1e308), ints up to, between and
# beyond int64 and the float range, and non-numbers
_GAIN_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.integers(-3, 3),
    st.integers(2**53, 2**63 - 1) | st.integers(-(2**63), -(2**53)),
    st.integers(2**63, 2**65),
    st.integers(2**1024, 2**1030),
)
_NON_NUMBERS = st.sampled_from([True, False, None, "1", "x", {}, {"a": 1.5}]) | st.lists(st.floats(2, 3), max_size=2)


@st.composite
def _gain_rows(draw):
    """A rows-by-columns list of one kind of number, with up to two entries or rows spoiled."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_NON_NUMBERS | _GAIN_NUMBERS)  # not a list of rows at all
    numbers = draw(st.sampled_from([st.floats(-300, 300), st.floats(2, 3) | st.integers(2, 10**6),
                                    st.integers(2, 2**70), _GAIN_NUMBERS]))
    num_rows, num_cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = [[draw(numbers) for _ in range(num_cols)] for _ in range(num_rows)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        k = draw(st.integers(0, num_rows - 1))
        row = rows[k]
        spoil = draw(st.sampled_from(["bool", "entry", "number", "append", "drop", "row"]))
        if spoil == "row" or not isinstance(row, list):
            rows[k] = draw(_NON_NUMBERS | _GAIN_NUMBERS)
        elif spoil == "drop" and row:
            row.pop()
        elif spoil == "append":
            row.append(draw(_GAIN_NUMBERS))
        elif row:
            entries = {"bool": st.sampled_from([True, False]), "entry": _NON_NUMBERS, "number": _GAIN_NUMBERS}[spoil]
            row[draw(st.integers(0, len(row) - 1))] = draw(entries)
    return rows


def _outcome(convert, *args):
    """The array ``convert`` returns, or the message of the SchemaError it raises."""
    try:
        return convert(*args)
    except SchemaError as exc:
        return str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@settings(max_examples=300, deadline=None)
@given(rows=_gain_rows())
@example(rows=[[2.5, True], [3.5, 4.5]])
@example(rows=[[2, False]])
@example(rows=[[0.0, 1], [1.0, -0.0]])
@example(rows=[[2.5, float("nan")]])
@example(rows=[[-float("inf"), 2]])
@example(rows=[[2**63, 3, -0.0]])
@example(rows=[])
@example(rows=[[]])
@example(rows=[[], []])
@example(rows=[[2.5], 3.5])
@example(rows=[[2.5, "3"]])
@example(rows=[[2.5, None]])
@example(rows=[[10**400]])
@example(rows=[[2**70, 2.5]])
def test_float_matrix_matches_the_typed_walk_property(rows):
    _assert_same_outcome(_outcome(_float_matrix, rows, "gains_db"),
                         _outcome(float_matrix_reference, rows, "gains_db"))


_SERVING_IDS = st.integers(-1, 5) | st.sampled_from([True, False, 1.0, 2.0, 1.5, None, "1", 2**63, -(2**64)])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 4), data=st.data())
def test_serving_matches_the_typed_walk_property(n, m, data):
    ids = st.integers(1, 4) if data.draw(st.booleans()) else _SERVING_IDS
    pair = st.lists(ids, min_size=2, max_size=2)
    odd = st.lists(ids, max_size=3) | _NON_NUMBERS
    pairs = data.draw(st.lists(pair | odd if data.draw(st.booleans()) else pair, max_size=5))
    _assert_same_outcome(_outcome(_serving, pairs, n, m, "f"), _outcome(serving_reference, pairs, n, m, "f"))


_CELL_FIELDS = (("power_per_ru_w", None), ("x_m", 0.0), ("y_m", 0.0), ("azimuth_deg", 0.0))
_PIXEL_FIELDS = (("demand_bits", None), ("x_m", 0.0), ("y_m", 0.0))
# ids that are not 1..n in order: other ints, integral and fractional floats, bools, strings, None
_ODD_IDS = st.integers(-1, 8) | st.sampled_from([1.0, 2.0, 2.5, True, False, None, "1", 2**63, 2**70])


@st.composite
def _objects(draw, fields):
    """Cell or pixel objects with ids 1..n, optional fields sometimes left out, up to two spoiled."""
    numbers = draw(st.sampled_from([st.floats(-1e6, 1e6) | st.integers(-10**6, 10**6), _GAIN_NUMBERS]))
    items = [{"id": k, **{key: draw(numbers) for key, default in fields
                          if default is None or draw(st.booleans())}}
             for k in range(1, draw(st.integers(0, 5)) + 1)]
    for _ in range(draw(st.integers(0, 2)) if items else 0):
        k = draw(st.integers(0, len(items) - 1))
        spoil = draw(st.sampled_from(["value", "id", "missing", "object"]))
        if spoil == "object" or not isinstance(items[k], dict):
            items[k] = draw(_NON_NUMBERS)
        elif spoil == "value":
            items[k][draw(st.sampled_from([key for key, _ in fields]))] = draw(
                _NON_NUMBERS | st.sampled_from(["2.5", "1e3", "nan"]))
        elif spoil == "id":
            items[k]["id"] = draw(_ODD_IDS)
        else:  # a required or optional key, or the id
            items[k].pop(draw(st.sampled_from(["id", *(key for key, _ in fields)])), None)
    return items


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from([_CELL_FIELDS, _PIXEL_FIELDS]).flatmap(lambda f: st.tuples(st.just(f), _objects(f))))
@example(case=(_CELL_FIELDS, [{"id": 1, "power_per_ru_w": 2**1024}]))
@example(case=(_CELL_FIELDS, [{"id": 1, "power_per_ru_w": 2**70, "x_m": -0.0}]))
@example(case=(_CELL_FIELDS, [{"id": 1.0, "power_per_ru_w": 1.5}, {"id": 2, "power_per_ru_w": 2}]))
@example(case=(_CELL_FIELDS, [{"id": 2, "power_per_ru_w": 1.5}, {"id": 1, "power_per_ru_w": 2.5}]))
@example(case=(_PIXEL_FIELDS, [{"id": 1, "demand_bits": True}]))
@example(case=(_PIXEL_FIELDS, [{"id": 1, "demand_bits": "5"}]))
@example(case=(_PIXEL_FIELDS, [{"id": 1, "demand_bits": None}]))
@example(case=(_PIXEL_FIELDS, [{"id": 1, "x_m": 1.0}]))
@example(case=(_PIXEL_FIELDS, [{"demand_bits": 1.0}]))
@example(case=(_PIXEL_FIELDS, [{"id": 1, "demand_bits": 1.0, "y_m": 1.7976931348623157e308}]))
@example(case=(_PIXEL_FIELDS, []))
def test_columns_match_the_object_walk_property(case):
    fields, items = case
    got, want = (_outcome(convert, items, fields, "f: cells") for convert in (_columns, columns_reference))
    if isinstance(want, str):
        assert got == want
    else:
        assert [(type(i), i) for i in got[0]] == [(type(i), i) for i in want[0]]
        _assert_same_outcome(got[1], want[1])


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_instance(build_instance([[1e-7, 1e-8], [2e-8, 1e-7]], [5.0, 5.0], [1.0, 1.0], 1e-9), good)
    bad.write_text('{"version": 1, "cells": [], "pixels": []}')
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert load_instance(good).num_cells == 2
        assert gc.isenabled() == enabled
        with pytest.raises(SchemaError, match="gains_db"):
            load_instance(bad)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_loading_a_generated_file_starts_no_collection_and_walks_no_gains(tmp_path):
    """Counts, not times: the n=36 load starts no collection.

    Parsing the same bytes with the collector on starts collections, so the
    count can see them.
    """
    path = tmp_path / "n36.json"
    save_instance(generate(ScenarioSpec(num_sites=12, rng_seed=7)), path)
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(on_gc)
    try:
        orjson.loads(path.read_bytes())
        assert started
        started.clear()
        assert load_instance(path).num_cells == 36
    finally:
        gc.callbacks.remove(on_gc)
        (gc.enable if was_enabled else gc.disable)()
    assert started == []


def test_cell_and_pixel_metadata_roundtrip(tmp_path):
    instance = NetworkInstance(
        power_per_ru=[0.5, 0.25],
        demand_bits=[5.0],
        gains=np.array([[1e-7], [2e-8]]),
        server_of=[0],
        noise_power=1e-9,
        num_resource_units=100,
        rate_scale=180.0,
        cell_xy=[[10.0, -3.5], [0.0, 4.0]],
        azimuth_deg=[120.0, 240.0],
        pixel_xy=[[1.5, 2.5]],
        wrap_periods=((750.0, 433.0), (0.0, 866.0)),
    )
    path = tmp_path / "meta.json"
    save_instance(instance, path)
    loaded = load_instance(path)
    for name in ("power_per_ru", "cell_xy", "azimuth_deg", "demand_bits", "pixel_xy",
                 "wrap_periods"):
        assert np.array_equal(getattr(loaded, name), getattr(instance, name))


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _spans_the_plane(periods) -> bool:
    (a, b), (c, d) = (map(Fraction, row) for row in periods.tolist())
    return a * d != b * c


@st.composite
def _valid_instances(draw):
    """Any instance that validates, with some unserved zero-demand pixels."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    unserved = draw(arrays(bool, m))
    demand = draw(arrays(np.float64, m, elements=st.floats(0.0, 1e300)))
    server_of = draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    demand[unserved], server_of[unserved] = 0.0, -1
    instance = NetworkInstance(
        power_per_ru=draw(arrays(np.float64, n, elements=_POSITIVE)),
        demand_bits=demand,
        gains=draw(arrays(np.float64, (n, m), elements=_POSITIVE)),
        noise_power=draw(_POSITIVE),
        num_resource_units=draw(st.integers(1, 2**63 - 1)),
        rate_scale=draw(_POSITIVE),
        cell_xy=draw(arrays(np.float64, (n, 2), elements=_FINITE)),
        azimuth_deg=draw(arrays(np.float64, n, elements=_FINITE)),
        pixel_xy=draw(arrays(np.float64, (m, 2), elements=_FINITE)),
        wrap_periods=draw(st.none() | arrays(np.float64, (2, 2), elements=_FINITE).filter(_spans_the_plane)),
        server_of=server_of,
    )
    assert validate(instance) is None
    return instance


def _assert_same_columns(a, b):
    for name in ("power_per_ru", "demand_bits", "cell_xy", "azimuth_deg", "pixel_xy", "server_of"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.wrap_periods is None) == (b.wrap_periods is None)
    assert a.wrap_periods is None or np.array_equal(a.wrap_periods, b.wrap_periods)
    for name in ("noise_power", "num_resource_units", "rate_scale"):
        assert getattr(a, name) == getattr(b, name), name


@st.composite
def _corruptions(draw, instance):
    """Field changes that make ``instance`` invalid, and the violation code they must raise."""
    n, m = instance.num_cells, instance.num_pixels
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    kind = draw(st.sampled_from(["demand", "gain", "power", "units", "unserved", "periods", "geometry"]))
    if kind == "demand":
        demand = instance.demand_bits.copy()
        demand[j] = draw(st.sampled_from([-1.0, -1e308, -5e-324, np.nan, np.inf, -np.inf]))
        return {"demand_bits": demand}, "pixel_demand_negative"
    if kind == "gain":
        gains = instance.gains.copy()
        gains[i, j] = draw(st.sampled_from([0.0, -0.0, -1e-300, np.nan, np.inf]))
        return {"gains": gains}, "gain_nonpositive"
    if kind == "power":
        power = instance.power_per_ru.copy()
        power[i] = draw(st.sampled_from([0.0, -1.0, np.nan, np.inf]))
        return {"power_per_ru": power}, "cell_power_nonpositive"
    if kind == "units":
        return {"num_resource_units": draw(st.sampled_from([0, -1, 2**63, 2**64]))}, "resource_units_nonpositive"
    if kind == "unserved":
        demand, server_of = instance.demand_bits.copy(), instance.server_of.copy()
        demand[j], server_of[j] = draw(st.sampled_from([5e-324, 1.0, 1e300])), -1
        return {"demand_bits": demand, "server_of": server_of}, "unserved_demand_pixel"
    if kind == "periods":
        period = draw(arrays(np.float64, 2, elements=st.floats(-1e300, 1e300)))
        # zero or collinear: the first period zero, or the second an exact multiple of the first
        factor = draw(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0]))
        rows = [period, period * factor] if draw(st.booleans()) else [np.zeros(2), period]
        return {"wrap_periods": np.array(rows)}, "wrap_periods_singular"
    name, shape = draw(st.sampled_from([("cell_xy", (n + 1, 2)), ("cell_xy", (n, 3)), ("azimuth_deg", (n - 1,)),
                                        ("pixel_xy", (m, 1)), ("pixel_xy", (m + 2, 2)), ("wrap_periods", (2, 3)),
                                        ("wrap_periods", (4,))]))
    return {name: np.ones(shape)}, "geometry_shape_mismatch"


def _behind_the_constructor(instance, changes) -> NetworkInstance:
    """A copy of ``instance`` with ``changes`` set without the constructor: no package code makes one."""
    corrupt = copy.copy(instance)
    for name, value in changes.items():
        object.__setattr__(corrupt, name, value)
    return corrupt


@settings(max_examples=100)
@given(instance=_valid_instances(), data=st.data())
@example(instance=_small_instance(), data=None)
def test_every_way_to_an_instance_runs_the_gate_property(instance, data):
    """One field of a valid instance corrupted: every way to build an instance raises the field's code."""
    if data is None:  # the example: zero periods on an instance without wrap-around
        changes, code = {"wrap_periods": np.zeros((2, 2))}, "wrap_periods_singular"
    else:
        changes, code = data.draw(_corruptions(instance))
    match = f"invalid instance: (.*; )?{code}: "
    fields = {f.name: getattr(instance, f.name) for f in dataclasses.fields(NetworkInstance)}
    with pytest.raises(SchemaError, match=match):
        NetworkInstance(**{**fields, **changes})
    with pytest.raises(SchemaError, match=match):
        dataclasses.replace(instance, **changes)
    corrupt = _behind_the_constructor(instance, changes)
    for scale in (1.0, 1e308):
        with pytest.raises(SchemaError, match=match):
            corrupt.with_demand_scale(scale)
    # a rotation reads the geometry before it builds, and reassigns every pixel's server
    if code not in ("geometry_shape_mismatch", "unserved_demand_pixel"):
        with pytest.raises(SchemaError, match=match):
            rotate_sector(corrupt, 1, float(instance.azimuth_deg[0]) % 360.0 + 90.0)
    # a file carries only finite numbers, of the right shapes and below 2**64; a zero gain is a dB value of -inf
    writable = all(np.all(np.isfinite(np.asarray(value, dtype=np.float64))) for value in changes.values())
    if writable and changes.get("num_resource_units", 0) < 2**64 and code not in (
            "geometry_shape_mismatch", "gain_nonpositive"):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corrupt.json"
            save_instance(corrupt, path)
            with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: {match}"):
                _parsed(path)


@settings(max_examples=60)
@given(instance=_valid_instances())
def test_valid_instance_saves_and_loads_back_equal(instance):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"trip{k}.json" for k in range(2)]
        save_instance(instance, paths[0])
        once = load_instance(paths[0])
        _assert_same_columns(once, instance)
        assert validate(once) is None
        # the first trip may move a gain by up to one step of its dB value, at
        # most ln(10) / 10 * 2**-41 ~ 1.05e-13 relative for |dB| < 4096; later
        # trips by none
        np.testing.assert_allclose(once.gains, instance.gains, rtol=2e-13)
        save_instance(once, paths[1])
        twice = load_instance(paths[1])
        _assert_same_columns(twice, instance)
        assert np.array_equal(twice.gains, once.gains)


_FLAGS = ("c_contiguous", "f_contiguous", "owndata", "writeable", "aligned", "writebackifcopy")


def _assert_same_bits(a, b):
    """Every array of equal dtype, shape, flags and bits; equal scalars of the loader's types."""
    for field in dataclasses.fields(NetworkInstance):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "wrap_periods" and x is None:
            assert y is None
        elif isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray), field.name
            assert (x.dtype, x.shape) == (y.dtype, y.shape), field.name
            assert [getattr(x.flags, f) for f in _FLAGS] == [getattr(y.flags, f) for f in _FLAGS], field.name
            assert np.array_equal(x, y) and x.tobytes() == y.tobytes(), field.name
        else:
            assert type(x) is type(y), field.name
            assert x == y, field.name


def _no_parse(data, path):
    raise AssertionError(f"{path} was parsed, not found among the loaded instances")


# in place of netmodel's hashlib: a load that hashes the bytes fails
_NO_HASH = SimpleNamespace(sha256=lambda data: pytest.fail("the bytes were read and hashed"))


def _parsed(path):
    """A load by a parse, as in a process that has loaded nothing."""
    with mock.patch.object(netmodel, "_LOADED", OrderedDict()):
        return load_instance(path)


def _ctime_clock_ns():
    """The loader's reading of the clock that stamps ctimes, 0 where it trusts no signature."""
    return time.clock_gettime_ns(netmodel._CTIME_CLOCK) if netmodel._TRUSTS_SIGNATURES else 0


def _past_the_slack():
    """Wait until the files written so far are old enough for a load to trust their stat signatures."""
    since = time.time_ns()  # no ctime is later than the real-time clock
    while netmodel._TRUSTS_SIGNATURES and _ctime_clock_ns() <= since + netmodel._CTIME_SLACK_NS:
        time.sleep(0.002)


@settings(max_examples=40)
@given(instance=_valid_instances())
@example(instance=NetworkInstance(
    power_per_ru=[1.0, 2.0], demand_bits=[0.0, 5.0, 0.0], gains=[[1e-7, 2e-8, 3e-9], [4e-8, 5e-9, 6e-7]],
    noise_power=1e-9, num_resource_units=2**63 - 1, rate_scale=180.0,
    cell_xy=[[-0.0, 0.0], [1.5, -0.0]], azimuth_deg=[-0.0, 90.0], pixel_xy=[[-0.0, -0.0], [2.0, 3.0], [0.0, -0.0]],
    server_of=[-1, 0, -1]))
def test_a_miss_and_a_hit_load_like_a_parse_property(instance):
    """The first load of a file parses it; later loads return that instance, which equals any parse.

    Loads within the slack of the file's write record no stat signature, so
    they hash the bytes.  Past the slack, a load records it, and the next
    load neither parses nor hashes.
    """
    with (tempfile.TemporaryDirectory() as tmp, mock.patch.object(netmodel, "_LOADED", OrderedDict()),
          mock.patch.object(netmodel, "_SIGNED", OrderedDict())):
        path = Path(tmp) / "inst.json"
        save_instance(instance, path)
        miss = load_instance(path)
        with mock.patch.object(netmodel, "_parse_instance", _no_parse):
            hit = load_instance(path)
            # the loads read the clock no later than this
            if _ctime_clock_ns() - path.stat().st_ctime_ns <= netmodel._CTIME_SLACK_NS:
                assert not netmodel._SIGNED
            _past_the_slack()
            assert load_instance(path) is hit
            if netmodel._TRUSTS_SIGNATURES:
                with mock.patch.object(netmodel, "hashlib", _NO_HASH):
                    assert load_instance(path) is hit
        assert hit is miss
        parsed = _parsed(path)
        assert parsed is not miss
        _assert_same_bits(miss, parsed)
        assert type(miss.num_resource_units) is int and type(miss.noise_power) is type(miss.rate_scale) is float


def _bump_a_gain(data: bytes) -> bytes:
    """The file with the last digit of its first dB value changed."""
    end = data.index(b",", data.index(b'"gains_db":'))
    return data[:end - 1] + str((int(data[end - 1:end]) + 1) % 10).encode() + data[end:]


def _rewrite(change):
    """The edit that rewrites a file with ``change`` of its bytes."""
    return lambda path: path.write_bytes(change(path.read_bytes()))


def _bump_keeping_mtime(path):
    """A same-size rewrite that puts the old mtime back, as ``touch -r`` does."""
    old = path.stat()
    _rewrite(_bump_a_gain)(path)
    os.utime(path, ns=(old.st_atime_ns, old.st_mtime_ns))


def _replace_by_same_size(path):
    """``os.replace`` by another file of as many bytes, with the old mtime."""
    old, other = path.stat(), path.with_name("other.json")
    other.write_bytes(_bump_a_gain(path.read_bytes()))
    os.utime(other, ns=(old.st_atime_ns, old.st_mtime_ns))
    os.replace(other, path)


# each changes a file after a load that trusted its stat signature; all but two keep its
# size, and the last two its mtime too
_EDITS = {
    "a_gains_digit_changed": _rewrite(_bump_a_gain),
    "whitespace_added": _rewrite(lambda data: data.replace(b'"gains_db":', b'"gains_db": ', 1)),
    "json_cut_short": _rewrite(lambda data: data[:-200]),
    "mtime_put_back": _bump_keeping_mtime,
    "replaced_by_same_size": _replace_by_same_size,
}


@pytest.mark.parametrize("edit", list(_EDITS))
def test_a_file_edited_after_its_load_is_parsed_again(tmp_path, monkeypatch, edit):
    """The load returns what a parse returns, or raises what a parse raises; a parsed file then hits."""
    monkeypatch.setattr(netmodel, "_LOADED", OrderedDict())
    monkeypatch.setattr(netmodel, "_SIGNED", OrderedDict())
    path = tmp_path / "n9_rot.json"
    save_instance(rotate_sector(generate(ScenarioSpec(num_sites=3, rng_seed=7)), 2, 45.0), path)
    _past_the_slack()
    before = load_instance(path)
    assert len(netmodel._SIGNED) == int(netmodel._TRUSTS_SIGNATURES)
    _EDITS[edit](path)
    parsed, parse = [], netmodel._parse_instance
    with monkeypatch.context() as patched:
        patched.setattr(netmodel, "_parse_instance", lambda data, path: parsed.append(path) or parse(data, path))
        got = _outcome(load_instance, path)
    assert parsed == [path]
    want = _outcome(_parsed, path)
    if isinstance(want, NetworkInstance):
        assert got is not before
        _assert_same_bits(got, want)
        monkeypatch.setattr(netmodel, "_parse_instance", _no_parse)
        assert load_instance(path) is got
    else:
        assert got == want and "not valid JSON" in want
        assert list(netmodel._LOADED.values()) == [before]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_a_fifo_loaded_twice_gives_each_content_its_instance(tmp_path, monkeypatch):
    """A FIFO's stat signature is never trusted: its size reads 0 whatever it holds."""
    monkeypatch.setattr(netmodel, "_LOADED", OrderedDict())
    monkeypatch.setattr(netmodel, "_SIGNED", OrderedDict())
    contents = []
    for units in (1, 2):
        save_instance(dataclasses.replace(_small_instance(), num_resource_units=units), tmp_path / "file.json")
        contents.append((tmp_path / "file.json").read_bytes())
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    _past_the_slack()
    loaded = []
    for data in contents:
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        loaded.append(load_instance(fifo))
        writer.join(timeout=30)
    assert [instance.num_resource_units for instance in loaded] == [1, 2]
    assert not netmodel._SIGNED


def test_files_with_the_same_bytes_share_one_instance(tmp_path, monkeypatch):
    monkeypatch.setattr(netmodel, "_LOADED", OrderedDict())
    monkeypatch.chdir(tmp_path)
    save_instance(_small_instance(), "small.json")
    Path("copy.json").write_bytes(Path("small.json").read_bytes())
    first = load_instance("small.json")
    with monkeypatch.context() as patched:
        patched.setattr(netmodel, "_parse_instance", _no_parse)
        assert load_instance(tmp_path / "copy.json") is first
    # an error still names the path it was given
    Path("copy.json").write_bytes(b"{")
    with pytest.raises(SchemaError, match="^copy.json: "):
        load_instance("copy.json")


def test_the_least_recently_loaded_instance_is_dropped_first(tmp_path, monkeypatch):
    """So is the least recently recorded stat signature: its file is read and hashed again, and hits by content."""
    monkeypatch.setattr(netmodel, "_LOADED", OrderedDict())
    monkeypatch.setattr(netmodel, "_SIGNED", OrderedDict())
    monkeypatch.setattr(netmodel, "_SIGNED_MAX", 2)
    paths = [tmp_path / f"units{k}.json" for k in range(netmodel._LOADED_MAX + 1)]
    for units, path in enumerate(paths, start=1):
        save_instance(dataclasses.replace(_small_instance(), num_resource_units=units), path)
    _past_the_slack()
    first = [load_instance(path) for path in paths[:-1]]
    assert len(netmodel._SIGNED) == 2 * netmodel._TRUSTS_SIGNATURES  # the first files' signatures dropped
    hashed, sha256 = [], netmodel.hashlib.sha256
    with monkeypatch.context() as patched:
        patched.setattr(netmodel, "_parse_instance", _no_parse)
        patched.setattr(netmodel, "hashlib", SimpleNamespace(sha256=lambda data: hashed.append(1) or sha256(data)))
        assert load_instance(paths[0]) is first[0]  # now the most recently loaded
        assert hashed == [1]
        if netmodel._TRUSTS_SIGNATURES:  # its signature recorded again, so the next load reads nothing
            patched.setattr(netmodel, "hashlib", _NO_HASH)
            assert load_instance(paths[0]) is first[0]
    load_instance(paths[-1])
    assert len(netmodel._LOADED) == netmodel._LOADED_MAX
    assert load_instance(paths[0]) is first[0]
    again = load_instance(paths[1])  # dropped for the last file, so parsed again
    assert again is not first[1]
    _assert_same_bits(again, first[1])


def test_threads_loading_one_cold_file_agree_and_leave_a_hit(tmp_path, monkeypatch):
    monkeypatch.setattr(netmodel, "_LOADED", OrderedDict())
    path = tmp_path / "n36.json"
    save_instance(generate(ScenarioSpec(num_sites=12, rng_seed=7)), path)
    results = [None] * 4
    start = threading.Barrier(len(results))

    def load(k):
        start.wait(timeout=30)
        results[k] = load_instance(path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=load, args=(k,)) for k in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for result in results[1:]:
        _assert_same_bits(result, results[0])
    assert len(netmodel._LOADED) == 1
    monkeypatch.setattr(netmodel, "_parse_instance", _no_parse)
    assert load_instance(path) in results


class _YieldingDict(OrderedDict):
    """Yields to the other threads inside each lookup, so that a load that does not hold
    its lock from the lookup to the reordering finds its entry dropped under it."""

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(1e-4)
        return value


def test_threads_loading_more_files_than_are_kept_agree(tmp_path, monkeypatch):
    """Loads, hits and drops from several threads at once: each load gives its own file's instance."""
    monkeypatch.setattr(netmodel, "_LOADED", _YieldingDict())
    paths = [tmp_path / f"units{k}.json" for k in range(netmodel._LOADED_MAX + 3)]
    for units, path in enumerate(paths, start=1):
        save_instance(dataclasses.replace(_small_instance(), num_resource_units=units), path)
    failures, start = [], threading.Barrier(4)

    def load(k):
        start.wait(timeout=30)
        order = np.random.default_rng(k).permutation(len(paths) * 5) % len(paths)
        try:
            for i in order:
                assert load_instance(paths[i]).num_resource_units == i + 1
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=load, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(netmodel._LOADED) == netmodel._LOADED_MAX
