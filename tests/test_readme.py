"""Every `module.name` that README.md names resolves in the package."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# `module.name`, or a call `module.name(args)`, for a module of the package
REFERENCE = re.compile(r"`(netmodel|coupling|linfeas|solver|analysis|scenario|cli)\.([\w.]+)[^`]*`")


def _resolves(module: str, path: str) -> bool:
    obj = importlib.import_module(f"loadcouple.{module}")
    for attr in path.split("."):
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_references_resolve():
    references = sorted(set(REFERENCE.findall(README.read_text())))
    assert references
    assert [f"{module}.{path}" for module, path in references if not _resolves(module, path)] == []
