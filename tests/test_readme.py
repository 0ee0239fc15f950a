"""Every `module.name` and `Class.attr` that README.md names resolves in the package."""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import loadcouple

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
    assert ("CouplingCoefficients", "scaled") in references
    assert [f"{cls}.{attr}" for cls, attr in references if not _has_attribute(exported[cls], attr)] == []
