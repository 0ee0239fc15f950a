import os
import sys

from hypothesis import settings

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

# no deadline: example run times vary with machine load; print_blob: a
# failing example prints its @reproduce_failure line, so a CI log alone
# reproduces it without the local example database
settings.register_profile("loadcouple", deadline=None, print_blob=True)
settings.load_profile("loadcouple")
