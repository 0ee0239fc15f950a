"""What README.md names exists in the package: every `module.name` and `Class.attr`, and every violation code."""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import loadcouple
from helpers import build_instance

README = Path(__file__).resolve().parents[1] / "README.md"
# `module.name`, or a call `module.name(args)`, for a module of the package
REFERENCE = re.compile(r"`(netmodel|coupling|linfeas|solver|analysis|scenario|cli)\.([\w.]+)[^`]*`")
# `Class.attr`, or a call `Class.attr(args)`
CLASS_REFERENCE = re.compile(r"`([A-Z]\w*)\.(\w+)[^`]*`")


def _resolves(module: str, path: str) -> bool:
    obj = importlib.import_module(f"loadcouple.{module}")
    for attr in path.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _has_attribute(cls: type, attr: str) -> bool:
    """A class attribute, or a dataclass field, which need not have a default."""
    fields = dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()
    return hasattr(cls, attr) or attr in {f.name for f in fields}


def test_readme_references_resolve():
    references = sorted(set(REFERENCE.findall(README.read_text())))
    assert references
    assert [f"{module}.{path}" for module, path in references if not _resolves(module, path)] == []


def test_readme_class_attributes_resolve():
    exported = {name: getattr(loadcouple, name) for name in loadcouple.__all__
                if inspect.isclass(getattr(loadcouple, name))}
    references = sorted({(cls, attr) for cls, attr in CLASS_REFERENCE.findall(README.read_text())
                         if cls in exported})
    assert ("SolveReport", "fallbacks") in references
    assert ("CouplingCoefficients", "rates") in references
    assert [f"{cls}.{attr}" for cls, attr in references if not _has_attribute(exported[cls], attr)] == []


# one minimal corruption of the valid instance per rule of the gate
CORRUPTIONS = [
    dict(power_per_ru=[], gains=np.ones((0, 2)), cell_xy=None, azimuth_deg=None, demand_bits=[0.0, 0.0],
         server_of=[-1, -1]),
    dict(noise_power=0.0),
    dict(num_resource_units=0),
    dict(rate_scale=0.0),
    dict(power_per_ru=[1.0, 0.0]),
    dict(demand_bits=[10.0, -1.0]),
    dict(azimuth_deg=[0.0]),
    dict(pixel_xy=[[0.0, 0.0], [np.inf, 0.0]]),
    dict(wrap_periods=np.zeros((2, 2))),
    dict(gains=np.ones((2, 3))),
    dict(gains=[[1e-7, 0.0], [3e-8, 9e-8]]),
    dict(server_of=[0]),
    dict(server_of=[0, 2]),
    dict(server_of=[0, -1]),
]


def test_readme_lists_every_code_the_gate_raises():
    instance = build_instance(np.array([[1e-7, 2e-8], [3e-8, 9e-8]]), [10.0, 20.0], [1.0, 2.0], noise=1e-9)
    fields = {f.name: getattr(instance, f.name) for f in dataclasses.fields(instance)}
    codes = []
    for changes in CORRUPTIONS:
        with pytest.raises(loadcouple.SchemaError) as info:
            loadcouple.NetworkInstance(**{**fields, **changes})
        (code,) = re.findall(r"(?:^invalid instance: |; )(\w+): ", str(info.value))
        codes.append(code)
    listed = re.search(r"The codes are (.*?)\.\s", README.read_text(), re.S).group(1)
    assert sorted(codes) == sorted(re.findall(r"`(\w+)`", listed))
    assert len(set(codes)) == len(codes) == 14


def test_readme_lists_every_spec_field():
    listed = re.search(r"Scenario spec files carry any subset of the `ScenarioSpec` fields\s*\((.*?)\)",
                       README.read_text(), re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == [f.name for f in dataclasses.fields(loadcouple.ScenarioSpec)]
