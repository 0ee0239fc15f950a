import os
import sys

# make helpers.py importable no matter how pytest is invoked
sys.path.insert(0, os.path.dirname(__file__))

import loadcouple  # noqa: E402

# subprocesses started by the tests (python -m loadcouple.cli) must import
# the same package as the test process, also when it comes from pytest's
# pythonpath setting rather than an installed copy
_package_root = os.path.dirname(os.path.dirname(loadcouple.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_package_root, os.environ.get("PYTHONPATH")) if p
)
