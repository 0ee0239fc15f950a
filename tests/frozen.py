"""The frozen CLI outputs: every command run on the seed-7 scenarios.

``tests/test_cli.py`` pins the sha256 of each output listed here.  Before a
digest is re-pinned, dump the outputs of both package versions and compare
them number by number:

    PYTHONPATH=OLD/src python tests/frozen.py dump old.json
    PYTHONPATH=src python tests/frozen.py dump new.json
    python tests/frozen.py diff old.json new.json

``dump`` runs whichever ``loadcouple`` is importable.  It runs each
command twice in a row: first cold, with no instance loaded before in the
process, so its files are parsed, then warm, on the instances the first
run loaded.  The files are older than the load memo's ctime slack when
the commands run, so the cold run records their stat signatures and the
warm run finds its instances by them.  It writes the cold outputs, and
the warm ones too when given a second file (``dump cold.json warm.json``);
``diff cold.json warm.json`` must show no change.  It prints how many
loads of each run took each path: a parse, a content hit (the bytes read
and hashed) or a signature hit (neither).

``diff`` prints, per output that changed, how many numbers moved, the
largest relative change, the labels of the moved numbers and any change in
the text around them (statuses, verdicts, exit codes, error messages,
generated-file digests), then one summary line.  A number's label is the
key of its ``key=value``, else its CSV header column, else the words before
it on its line.  ``diff`` exits 1 when any text changed.  With ``--max-rel X``
(``diff --max-rel 1e-10 old.json new.json``) it also exits 1 when any
number moved by more than X relative, so a re-pin can state the tolerance
it was made under.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

FROZEN_COMMANDS = [
    ("solve", []),
    ("feasibility", []),
    ("bounds", []),
    ("sweep", ["--scales", "1:16:8"]),
    ("boundary", ["--lo", "0.01", "--hi", "100"]),
]

# a number not glued to a word or another number: "rho_star_1" and "n36" hold none
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
KEY = re.compile(r"(\w+)=$")
PHRASE = re.compile(r"[A-Za-z_][A-Za-z_ ]*")


def run_cli(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI run."""
    from loadcouple.cli import main  # here, so that ``diff`` runs without the package

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


LOAD_PATHS = ("parse", "content", "signature")


@contextlib.contextmanager
def counting_loads(counts: Counter):
    """Add to ``counts`` the path each ``netmodel.load_instance`` call takes, named as in LOAD_PATHS.

    A parse calls ``_parse_instance``; a content hit hashes the bytes and
    parses nothing; a signature hit does neither.  Versions before the load
    memo parse every load.
    """
    from loadcouple import netmodel

    steps, load = Counter(), netmodel.load_instance
    memo = hasattr(netmodel, "_LOADED")

    def counted(step, function):
        return lambda *args: steps.update([step]) or function(*args)

    def counted_load(path):
        before = steps.copy()
        try:
            return load(path)
        finally:
            took = steps - before
            counts.update(["parse" if took["parse"] or not memo else "content" if took["hash"] else "signature"])

    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(netmodel, "load_instance", counted_load))
        if memo:
            patches.enter_context(mock.patch.object(netmodel, "_parse_instance",
                                                    counted("parse", netmodel._parse_instance)))
            patches.enter_context(mock.patch.object(netmodel, "hashlib",
                                                    SimpleNamespace(sha256=counted("hash", netmodel.hashlib.sha256))))
        yield


def run_cold_and_warm(argv, loads: tuple[Counter, Counter]) -> tuple[tuple[int, str, str], tuple[int, str, str]]:
    """:func:`run_cli` with the instances loaded so far forgotten, then again on the ones it loaded.

    The load paths each run takes are added to the Counter of ``loads`` at its position.
    """
    from loadcouple import netmodel

    getattr(netmodel, "_LOADED", {}).clear()  # versions before the load memo parse every load
    outputs = []
    for counts in loads:
        with counting_loads(counts):
            outputs.append(run_cli(argv))
    return tuple(outputs)


Outputs = dict[str, tuple[int, str, str]]


def frozen_outputs(root: Path) -> tuple[dict[str, bytes], Outputs, Outputs, tuple[Counter, Counter]]:
    """Generate the seed-7 files under ``root`` and run every frozen command on them.

    The scenarios have 9 and 36 cells (80 kbit per user), each unrotated and
    with cell 2 turned to 45 degrees, and 9 cells overloaded (1.6 Mbit per
    user, boundary scale 0.54), unrotated: infeasible at base demand and at
    every sweep scale.  A scenario's ``compare`` ranks its unrotated file
    against its rotated one; the overloaded one's ranks n9's against it.  Returns
    each generated file's bytes by name, and each output's exit code, stdout
    and stderr by ``"<file> <command>"`` twice: read cold, then warm (see
    :func:`run_cold_and_warm`); then the count of loads by path in the cold
    runs and in the warm ones.
    """
    from loadcouple import netmodel

    files, cold, warm, loads = {}, {}, {}, (Counter(), Counter())
    for name, sites, demand, rotated in (("n9", 3, 80_000.0, True), ("n36", 12, 80_000.0, True),
                                         ("n9_over", 3, 1.6e6, False)):
        spec = root / f"{name}_spec.json"
        spec.write_text(json.dumps({"num_sites": sites, "rng_seed": 7, "demand_bits_per_user": demand}))
        paths = [root / f"{name}.json", root / f"{name}_rot.json"][:1 + rotated]
        for path, rotate in zip(paths, ([], ["--rotate", "2:45"])):
            run_cli(["generate", "--spec", str(spec), "--out", str(path), *rotate])
            files[path.stem] = path.read_bytes()
        # past the slack, and two ticks of a 100 Hz clock that stamps ctimes:
        # a load from now on may trust the files' stat signatures
        time.sleep(getattr(netmodel, "_CTIME_SLACK_NS", 0) / 1e9 + 0.025)
        for path in paths:
            for command, extra in FROZEN_COMMANDS:
                key = f"{path.stem} {command}"
                cold[key], warm[key] = run_cold_and_warm([command, "--instance", str(path), *extra], loads)
        a, b = paths if rotated else (root / "n9.json", paths[0])
        key = f"{name} compare"
        cold[key], warm[key] = run_cold_and_warm(["compare", "--a", str(a), "--b", str(b)], loads)
    return files, cold, warm, loads


def dump() -> tuple[dict, dict]:
    """Every frozen output as JSON-ready data, generated files by sha256, with the count of loads by path.

    The first is read cold, the second warm.
    """
    with tempfile.TemporaryDirectory() as root:
        files, cold, warm, loads = frozen_outputs(Path(root))
    digests = {stem: hashlib.sha256(data).hexdigest() for stem, data in files.items()}
    return tuple({"files": digests,
                  "outputs": {key: {"code": code, "stdout": out, "stderr": err}
                              for key, (code, out, err) in outputs.items()},
                  "loads": {path: counts[path] for path in LOAD_PATHS}}
                 for outputs, counts in zip((cold, warm), loads))


@dataclass(frozen=True)
class Change:
    """How one output differs: numbers moved out of ``numbers``, and whether its text did.

    ``labels`` names each moved number, in output order.
    """

    moved: int
    numbers: int
    max_rel: float
    text: bool
    labels: tuple[str, ...] = ()


def _split(text: str) -> tuple[list[float], list[str]]:
    return [float(t) for t in NUMBER.findall(text)], NUMBER.split(text)


def labels(text: str) -> list[str]:
    """The label of every number in ``text``, in order (see the module docstring).

    A CSV header is a line of two or more fields without a number; a row
    below it with as many fields takes its labels from it.
    """
    out, header = [], None
    for line in text.splitlines():
        fields, numbers = line.split(","), list(NUMBER.finditer(line))
        if len(fields) > 1 and not numbers:
            header = fields
        for number in numbers:
            before = line[:number.start()]
            key = KEY.search(before)
            if key:
                out.append(key.group(1))
            elif header is not None and len(fields) == len(header):
                out.append(header[before.count(",")])
            else:
                out.append((PHRASE.findall(before) or ["?"])[-1].strip())
    return out


def compare(a: dict, b: dict) -> dict[str, Change]:
    """The outputs (and generated files) that differ between two dumps, by key."""
    changes = {}
    for stem in sorted(a["files"].keys() | b["files"].keys()):
        if a["files"].get(stem) != b["files"].get(stem):
            changes[f"{stem} file"] = Change(0, 0, 0.0, True)
    for key in sorted(a["outputs"].keys() | b["outputs"].keys()):
        old, new = a["outputs"].get(key), b["outputs"].get(key)
        if old == new:
            continue
        if old is None or new is None:
            changes[key] = Change(0, 0, 0.0, True)
            continue
        (x, text_x), (y, text_y) = _split(old["stdout"]), _split(new["stdout"])
        text = old["code"] != new["code"] or old["stderr"] != new["stderr"] or text_x != text_y
        pairs = list(zip(x, y)) if len(x) == len(y) else []
        moved = [abs(p - q) / max(abs(p), abs(q)) for p, q in pairs if p != q]
        names = tuple(name for name, (p, q) in zip(labels(old["stdout"]), pairs) if p != q)
        changes[key] = Change(len(moved), len(pairs), max(moved, default=0.0), text, names)
    return changes


def _count_numbers(d: dict) -> int:
    return sum(len(NUMBER.findall(o["stdout"])) for o in d["outputs"].values())


def main(argv) -> int:
    if len(argv) in (2, 3) and argv[0] == "dump":
        dumps = dump()
        for dumped, path in zip(dumps, argv[1:]):
            Path(path).write_text(json.dumps(dumped, indent=1, sort_keys=True) + "\n")
        for run, dumped in zip(("cold", "warm"), dumps):
            print(f"# {run} loads: " + ", ".join(f"{count} {path}" for path, count in dumped["loads"].items()))
        return 0
    max_rel = math.inf
    if len(argv) == 5 and argv[:2] == ["diff", "--max-rel"]:
        max_rel, argv = float(argv[2]), ["diff", *argv[3:]]
    if len(argv) == 3 and argv[0] == "diff":
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        changes = compare(a, b)
        for key, c in changes.items():
            text = "  TEXT CHANGED" if c.text else ""
            names = ", ".join(f"{name} x{count}" for name, count in Counter(c.labels).items())
            print(f"{key}: {c.moved} of {c.numbers} numbers moved, max rel {c.max_rel:.3g}"
                  f"{f' ({names})' if names else ''}{text}")
        moved = sum(c.moved for c in changes.values())
        largest = max((c.max_rel for c in changes.values()), default=0.0)
        texts = sum(c.text for c in changes.values())
        print(f"# {len(changes)} of {len(a['outputs']) + len(a['files'])} outputs differ: "
              f"{moved} of {_count_numbers(a)} numbers moved, max rel {largest:.3g}, "
              f"{texts} text changes")
        return 1 if texts or largest > max_rel else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
