import dataclasses
import json

import numpy as np
import pytest

from helpers import build_instance, random_instance
from loadcouple import (
    Cell,
    NetworkInstance,
    Pixel,
    ScenarioSpec,
    SchemaError,
    SchemaVersionError,
    ServingAssignment,
    assign_best_server,
    generate,
    load_instance,
    rotate_sector,
    save_instance,
    validate,
    with_serving,
)

SEED = 20260814


def test_validate_clean_instance():
    rng = np.random.default_rng(SEED)
    instance = random_instance(rng, 4, 6)
    assert validate(instance) == []


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
    ],
)
def test_validate_flags_bad_values(overrides, code):
    instance = _small_instance(**overrides)
    assert code in [v.code for v in validate(instance)]


def test_validate_unserved_demand_pixel():
    instance = _small_instance()
    serving = ServingAssignment(np.array([0, -1], dtype=np.int64), 2)
    bad = with_serving(instance, serving)
    assert "unserved_demand_pixel" in [v.code for v in validate(bad)]


def test_validate_unserved_zero_demand_pixel_is_fine():
    instance = _small_instance(demands=[10.0, 0.0])
    serving = ServingAssignment(np.array([0, -1], dtype=np.int64), 2)
    assert validate(with_serving(instance, serving)) == []


def test_validate_inconsistent_serving_areas():
    instance = _small_instance()
    # a serving map built for three cells on a two-cell instance
    bad = with_serving(instance, ServingAssignment(np.array([0, 1]), 3))
    assert "serving_inconsistent" in [v.code for v in validate(bad)]


def test_validate_gain_shape_mismatch():
    instance = _small_instance()
    wrong = NetworkInstance(
        cells=instance.cells,
        pixels=instance.pixels,
        gains=np.ones((2, 3)) * 1e-8,
        serving=ServingAssignment(np.array([0, 1, 1], dtype=np.int64), 2),
        noise_power=instance.noise_power,
        num_resource_units=instance.num_resource_units,
        rate_scale=instance.rate_scale,
    )
    assert "gain_shape_mismatch" in [v.code for v in validate(wrong)]


def test_instance_arrays_are_immutable():
    instance = _small_instance()
    with pytest.raises(ValueError):
        instance.gains[0, 0] = 1.0
    with pytest.raises(ValueError):
        instance.serving.server_of[0] = 1


def test_best_server_matches_bruteforce():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        instance = random_instance(rng, int(rng.integers(2, 7)), int(rng.integers(2, 9)))
        serving = assign_best_server(instance)
        powers = instance.powers()
        for j in range(instance.num_pixels):
            received = [powers[i] * instance.gains[i, j] for i in range(instance.num_cells)]
            best = max(range(instance.num_cells), key=lambda i: (received[i], -i))
            assert serving.server_of[j] == best


def test_best_server_tie_breaks_lowest_cell():
    gains = np.array([[1e-7, 4e-8], [1e-7, 4e-8], [5e-8, 4e-8]])
    instance = build_instance(gains, demands=[1.0, 1.0], powers=[1.0, 1.0, 1.0], noise=1e-9)
    assert list(instance.serving.server_of) == [0, 0]


def test_areas_sorted_and_consistent():
    rng = np.random.default_rng(SEED + 2)
    instance = random_instance(rng, 5, 7)
    # unassigned pixels, and empty first, middle and last cells
    sparse = ServingAssignment(np.array([3, -1, 1, 3, -1, 1, 1]), 5)
    assert sparse.areas == ((), (2, 5, 6), (), (0, 3), ())
    for serving in (instance.serving, sparse):
        assert len(serving.areas) == serving.num_cells
        for i, area in enumerate(serving.areas):
            assert list(area) == sorted(area)
            assert all(type(j) is int and serving.server_of[j] == i for j in area)
        served = sorted(j for area in serving.areas for j in area)
        assert served == np.flatnonzero(serving.server_of >= 0).tolist()


def _changed_fields(before, after) -> set:
    """Names of the instance fields whose values differ between two instances."""
    def same(a, b):
        if isinstance(a, ServingAssignment):
            return a.num_cells == b.num_cells and np.array_equal(a.server_of, b.server_of)
        if isinstance(a, np.ndarray):
            return np.array_equal(a, b)
        return a == b
    return {f.name for f in dataclasses.fields(NetworkInstance)
            if not same(getattr(before, f.name), getattr(after, f.name))}


def test_copies_change_only_the_named_field():
    instance = generate(ScenarioSpec(users_per_cell_area=6, rng_seed=3))
    assert np.array_equal(instance.serving.server_of, assign_best_server(instance).server_of)

    all_to_first = ServingAssignment(np.zeros(instance.num_pixels), instance.num_cells)
    reassigned = with_serving(instance, all_to_first)
    assert _changed_fields(instance, reassigned) == {"serving"}
    assert reassigned.serving is all_to_first

    scaled = instance.with_demand_scale(2.0)
    assert _changed_fields(instance, scaled) == {"pixels"}
    assert np.array_equal(scaled.demands(), 2.0 * instance.demands())
    assert scaled.serving is instance.serving

    turned = rotate_sector(reassigned, 1, 180.0)
    assert _changed_fields(reassigned, turned) == {"cells", "gains", "serving"}
    assert np.array_equal(turned.serving.server_of, assign_best_server(turned).server_of)

    # built without a serving map: best server of its own cells and gains
    fresh = NetworkInstance(
        cells=reassigned.cells,
        pixels=reassigned.pixels,
        gains=reassigned.gains,
        noise_power=reassigned.noise_power,
        num_resource_units=reassigned.num_resource_units,
        rate_scale=reassigned.rate_scale,
        wrap_periods=reassigned.wrap_periods,
    )
    assert _changed_fields(instance, fresh) == set()
    assert np.array_equal(fresh.serving.server_of, assign_best_server(fresh).server_of)


def test_with_demand_scale():
    instance = _small_instance()
    scaled = instance.with_demand_scale(2.5)
    assert np.array_equal(scaled.demands(), instance.demands() * 2.5)
    assert np.array_equal(scaled.gains, instance.gains)
    with pytest.raises(ValueError):
        instance.with_demand_scale(-1.0)


def test_save_load_roundtrip_values(tmp_path):
    rng = np.random.default_rng(SEED + 3)
    instance = random_instance(rng, 4, 5)
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    loaded = load_instance(path)
    assert loaded.num_cells == instance.num_cells
    assert loaded.num_pixels == instance.num_pixels
    assert np.array_equal(loaded.serving.server_of, instance.serving.server_of)
    assert loaded.noise_power == instance.noise_power
    assert loaded.num_resource_units == instance.num_resource_units
    assert loaded.rate_scale == instance.rate_scale
    assert np.array_equal(loaded.demands(), instance.demands())
    assert np.array_equal(loaded.powers(), instance.powers())
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


def test_save_load_preserves_unassigned_pixel(tmp_path):
    instance = _small_instance(demands=[10.0, 0.0])
    serving = ServingAssignment(np.array([0, -1], dtype=np.int64), 2)
    instance = with_serving(instance, serving)
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    loaded = load_instance(path)
    assert list(loaded.serving.server_of) == [0, -1]


def test_load_without_serving_uses_best_server(tmp_path):
    instance = _small_instance()
    path = tmp_path / "inst.json"
    save_instance(instance, path)
    raw = json.loads(path.read_text())
    del raw["serving"]
    path.write_text(json.dumps(raw))
    loaded = load_instance(path)
    expected = assign_best_server(loaded)
    assert np.array_equal(loaded.serving.server_of, expected.server_of)


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


def test_cell_and_pixel_metadata_roundtrip(tmp_path):
    cells = (
        Cell(id=1, power_per_ru=0.5, x=10.0, y=-3.5, azimuth_deg=120.0),
        Cell(id=2, power_per_ru=0.25, x=0.0, y=4.0, azimuth_deg=240.0),
    )
    pixels = (Pixel(id=1, demand_bits=5.0, x=1.5, y=2.5),)
    gains = np.array([[1e-7], [2e-8]])
    serving = ServingAssignment(np.array([0], dtype=np.int64), 2)
    instance = NetworkInstance(
        cells=cells,
        pixels=pixels,
        gains=gains,
        serving=serving,
        noise_power=1e-9,
        num_resource_units=100,
        rate_scale=180.0,
        wrap_periods=((750.0, 433.0), (0.0, 866.0)),
    )
    path = tmp_path / "meta.json"
    save_instance(instance, path)
    loaded = load_instance(path)
    assert loaded.cells == cells
    assert loaded.pixels == pixels
    assert np.array_equal(loaded.wrap_periods, instance.wrap_periods)
