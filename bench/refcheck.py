"""Independent reference for checking the outputs of the loadcouple CLI.

The load map and its asymptotic slope are rebuilt here with plain numpy,
straight from the fields of an instance file, without importing
``loadcouple``: a defect in the program's coupling code cannot hide in its
own check.  All pixels are handled at once (one matrix product and one
segmented sum), where the program loops over cells, so the two agree only
up to rounding.

Every ``check_*`` function returns ``(unconverged, problems)``.
``unconverged`` is true when the program honestly reported that it ran out
of iterations; ``problems`` lists every way the output disagrees with the
reference.  Both make the op count as failed; only problems make the run
incorrect.
"""

from __future__ import annotations

import math
import re

import numpy as np

LN2 = math.log(2.0)
# The reference sums in another order than the program; a residual may
# exceed the solver's tolerance by this share before it counts as wrong.
RESIDUAL_SLACK = 0.01
# Rounding allowance for orderings and inequalities, relative to 1 + max load.
ORDER_RTOL = 1e-12
# Power iteration stops at a 1e-10 bracket; a printed radius may be off by this much.
RADIUS_RTOL = 1e-8
SOLVE_TOL = 1e-10  # the CLI's default --tol


class Reference:
    """Load map, asymptotic slope and feasibility boundary of one instance file."""

    def __init__(self, doc: dict):
        cells, pixels = doc["cells"], doc["pixels"]
        self.n, self.m = len(cells), len(pixels)
        power = np.array([c["power_per_ru_w"] for c in cells], dtype=np.float64)
        demand = np.array([p["demand_bits"] for p in pixels], dtype=np.float64)
        received = power[:, None] * np.power(10.0, np.asarray(doc["gains_db"], dtype=np.float64) / 10.0)
        if "serving" in doc:
            server = np.full(self.m, -1, dtype=np.int64)
            for pixel_id, cell_id in doc["serving"]:
                server[pixel_id - 1] = cell_id - 1
        else:
            server = np.argmax(received, axis=0)
        cols = np.flatnonzero((demand > 0) & (server >= 0))
        self.server = server[cols]
        own = received[self.server, cols]
        # rel[k, j]: power of cell k at pixel j relative to its serving cell, own cell zeroed
        self.rel = received[:, cols] / own
        self.rel[self.server, np.arange(cols.size)] = 0.0
        self.rel_noise = doc["noise_power_w"] / own
        # resource units pixel j needs per unit of spectral efficiency
        self.weight = demand[cols] / (doc["num_resource_units"] * doc["rate_scale"])
        member = np.zeros((self.n, cols.size))
        member[self.server, np.arange(cols.size)] = 1.0
        # slope of the map as every load grows without bound: log2(1 + 1/u) ~ 1/(u ln 2)
        self.slope = (member * (LN2 * self.weight)) @ self.rel.T
        self.perron = float(np.max(np.abs(np.linalg.eigvals(self.slope))))
        self.boundary = 1.0 / self.perron if self.perron > 0 else math.inf

    def load_map(self, rho, scale: float = 1.0) -> np.ndarray:
        """Load each cell needs at loads ``rho`` with every demand times ``scale``."""
        u = self.rel.T @ np.asarray(rho, dtype=np.float64) + self.rel_noise
        per_pixel = scale * self.weight * LN2 / np.log1p(1.0 / u)
        return np.bincount(self.server, weights=per_pixel, minlength=self.n)

    def jacobian(self, rho, scale: float = 1.0) -> np.ndarray:
        """Derivative of ``load_map``; d/du of 1/log1p(1/u) is 1/(log1p(1/u)^2 (u^2 + u))."""
        u = self.rel.T @ np.asarray(rho, dtype=np.float64) + self.rel_noise
        lg = np.log1p(1.0 / u)
        per_pixel = scale * self.weight * LN2 / (lg * lg * (u * u + u))
        member = np.zeros((self.n, u.size))
        member[self.server, np.arange(u.size)] = per_pixel
        return member @ self.rel.T

    def stop_distance(self, rho, tol: float, scale: float = 1.0) -> float:
        """How far from the fixed point an iterate meeting the stop rule may lie.

        A residual r moves the point by about (I - J)^-1 r, so the bound is
        ||(I - J(rho))^-1||_inf * tol (1 + max rho).  Near the boundary I - J
        is nearly singular and this is many times the residual tolerance.
        """
        rho = np.asarray(rho, dtype=np.float64)
        inverse = np.linalg.inv(np.eye(self.n) - self.jacobian(rho, scale))
        return float(np.max(np.sum(np.abs(inverse), axis=1))) * tol * (1.0 + float(np.max(rho)))

    def residual_problems(self, rho, tol: float, scale: float = 1.0, where: str = "") -> list[str]:
        """The solver's stop rule max|rho - f(rho)| <= tol (1 + max rho), with RESIDUAL_SLACK."""
        rho = np.asarray(rho, dtype=np.float64)
        residual = float(np.max(np.abs(rho - self.load_map(rho, scale))))
        limit = (1.0 + RESIDUAL_SLACK) * tol * (1.0 + float(np.max(rho)))
        if not residual <= limit:
            return [f"{where}residual {residual:.3g} exceeds {limit:.3g}"]
        return []


def parse_csv(text: str) -> tuple[dict, list[str], np.ndarray]:
    """Comment fields, header and a float table (``n/a`` -> nan) from CLI CSV output."""
    lines = [line for line in text.splitlines() if line]
    comment = {}
    if lines and lines[0].startswith("#"):
        comment = dict(item.split("=", 1) for item in lines.pop(0)[1:].split() if "=" in item)
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(header):
            break  # trailing non-CSV text, such as compare's verdict line
        rows.append([math.nan if f == "n/a" else _number(f) for f in fields])
    return comment, header, np.array(rows, dtype=np.float64).reshape(len(rows), len(header))


def _number(field: str) -> float:
    try:
        return float(field)
    except ValueError:
        return math.nan  # a status word


def _columns(header, table, *names):
    return [table[:, header.index(name)] for name in names]


def _order_problems(lower, rho, upper, slack, where="") -> list[str]:
    out = []
    if np.any(lower > rho + slack):
        out.append(f"{where}lower bound above the fixed point")
    if np.any(rho > upper + slack):
        out.append(f"{where}fixed point above the upper bound")
    return out


def check_solve(exit_code, stdout: str, ref: Reference, width=None):
    """``solve``: stop rule (or interval certificate) and lower <= rho <= upper."""
    if exit_code not in (0, 4):
        return False, [f"exit code {exit_code}"]
    comment, header, table = parse_csv(stdout)
    if table.shape[0] != ref.n:
        return False, [f"{table.shape[0]} rows for {ref.n} cells"]
    rho, lower, upper = _columns(header, table, "rho_star", "rho_lower", "rho_upper")
    status = comment.get("status")
    unconverged = status == "max_iter_exceeded"
    if (exit_code == 4) != unconverged or status not in ("converged", "max_iter_exceeded"):
        return unconverged, [f"status {status} with exit code {exit_code}"]
    if unconverged:
        return True, _order_problems(lower, rho, upper, ORDER_RTOL * (1.0 + float(np.max(upper))))
    problems = _order_problems(lower, rho, upper, ref.stop_distance(rho, SOLVE_TOL))
    if width is None:
        problems += ref.residual_problems(rho, SOLVE_TOL)
        return False, problems
    # interval stop: the certified bracket [rho, upper] holds the fixed point and is narrow
    tiny = ORDER_RTOL * (1.0 + float(np.max(upper)))
    if np.any(ref.load_map(upper) > upper + tiny):
        problems.append("f(upper) > upper: upper is not an upper bound")
    if np.any(ref.load_map(rho) < rho - tiny):
        problems.append("f(rho) < rho: rho is not a lower bound")
    if float(np.max(upper - rho)) > width * (1.0 + RESIDUAL_SLACK):
        problems.append(f"interval {float(np.max(upper - rho)):.3g} wider than {width}")
    return False, problems


def check_bounds(exit_code, stdout: str, ref: Reference):
    """``bounds``: the fixed point meets the stop rule and sits between both bounds."""
    if exit_code != 0:
        return False, [f"exit code {exit_code}"]
    _, header, table = parse_csv(stdout)
    if table.shape[0] != ref.n:
        return False, [f"{table.shape[0]} rows for {ref.n} cells"]
    rho, lower, upper = _columns(header, table, "rho_star", "rho_lower", "rho_upper")
    slack = ref.stop_distance(rho, SOLVE_TOL)
    return False, ref.residual_problems(rho, SOLVE_TOL) + _order_problems(lower, rho, upper, slack)


_FEASIBILITY = re.compile(r"^(feasible|infeasible) \(linear status \S+, spectral radius ([^,)\s]+)")


def check_feasibility(exit_code, stdout: str, ref: Reference):
    """``feasibility``: verdict is ``boundary > 1`` and the radius is the Perron root."""
    match = _FEASIBILITY.match(stdout.strip())
    if match is None:
        return False, [f"unparsable output {stdout.strip()[:80]!r}"]
    feasible = ref.boundary > 1.0
    problems = []
    if (match.group(1) == "feasible") != feasible or exit_code != (0 if feasible else 3):
        problems.append(f"verdict {match.group(1)} (exit {exit_code}) but boundary {ref.boundary:.9g}")
    radius = float(match.group(2))
    if abs(radius - ref.perron) > RADIUS_RTOL * max(1.0, ref.perron):
        problems.append(f"spectral radius {radius!r}, reference {ref.perron!r}")
    return False, problems


def check_sweep(exit_code, stdout: str, ref: Reference):
    """``sweep``: feasible iff scale < boundary, feasible rows converged and at the fixed point."""
    if exit_code != 0:
        return False, [f"exit code {exit_code}"]
    _, header, table = parse_csv(stdout)
    rho_cols = [k for k, name in enumerate(header) if name.startswith("rho_star_")]
    status_col = header.index("status")
    text_rows = [line.split(",") for line in stdout.splitlines()[2:] if line]
    unconverged, problems = False, []
    for row, text in zip(table, text_rows):
        scale, feasible = row[0], bool(row[1])
        if feasible != (scale < ref.boundary):
            problems.append(f"scale {scale!r}: feasible={feasible}, boundary {ref.boundary!r}")
        if not feasible:
            continue
        if text[status_col] != "converged":
            unconverged = True
            continue
        problems += ref.residual_problems(row[rho_cols], SOLVE_TOL, scale, where=f"scale {scale!r}: ")
    return unconverged, problems


_BOUNDARY = re.compile(r"^boundary scale (\S+) \(last feasible (\S+), first infeasible (\S+)\)")


def check_boundary(exit_code, stdout: str, ref: Reference, tol: float):
    """``boundary``: the estimate is within ``tol`` (relative) of 1/rho(A) and bracketed."""
    match = _BOUNDARY.match(stdout.strip())
    if exit_code != 0 or match is None:
        return False, [f"exit code {exit_code}, output {stdout.strip()[:80]!r}"]
    scale, last, first = (float(g) for g in match.groups())
    problems = []
    if abs(scale - ref.boundary) > tol * ref.boundary:
        problems.append(f"boundary {scale!r}, reference {ref.boundary!r}")
    if not last <= scale <= first:
        problems.append("estimate outside its own bracket")
    return False, problems


def check_compare(exit_code, stdout: str, ref_a: Reference, ref_b: Reference, tol: float):
    """``compare``: both boundaries within ``tol`` of the reference, bounds ordered."""
    if exit_code != 0:
        return False, [f"exit code {exit_code}"]
    comment, header, table = parse_csv(stdout)
    problems = []
    for side, ref in (("a", ref_a), ("b", ref_b)):
        boundary = float(comment.get(f"boundary_{side}", "nan"))
        if not abs(boundary - ref.boundary) <= tol * ref.boundary:
            problems.append(f"boundary_{side} {boundary!r}, reference {ref.boundary!r}")
        rho, lower, upper = _columns(header, table, f"rho_star_{side}", f"rho_lower_{side}",
                                     f"rho_upper_{side}")
        if ref.boundary > 1.0:
            slack = ref.stop_distance(rho, SOLVE_TOL)
            problems += _order_problems(lower, rho, upper, slack, where=f"{side}: ")
    return False, problems


def check_generate(exit_code, counts, n: int, m: int):
    """``generate``: the written file parsed to ``counts`` = (cells, pixels), equal to (n, m)."""
    if exit_code != 0:
        return False, [f"exit code {exit_code}"]
    if counts is None:
        return False, ["output file does not parse as an instance"]
    if counts != (n, m):
        return False, [f"{counts[0]} cells, {counts[1]} pixels; expected {n} and {m}"]
    return False, []
