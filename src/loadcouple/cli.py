"""Command line front end.

Every command reads and writes plain files (JSON in, CSV out) and is
deterministic given its inputs: random scenarios carry their seed in the
spec file.  Exit codes: 0 success, 2 invalid input, 3 infeasible where the
command needs feasibility, 4 iteration limit hit.

CSV layout: an initial comment line ``# key=value ...`` with run-level
results, then a header row, then data rows.  Floats are written with 17
significant digits so they parse back to the same values.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import analysis, linfeas, netmodel, scenario, solver

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_MAX_ITER = 4

_METHODS = {"fp": solver.FIXED_POINT, "fixed_point": solver.FIXED_POINT, "newton": solver.NEWTON}


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, comment: str, header: list[str], rows: list[list]) -> None:
    lines = [f"# {comment}"] if comment else []
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_rotate(text: str) -> tuple[int, float]:
    try:
        cell, az = text.split(":")
        return int(cell), float(az)
    except ValueError as exc:
        raise netmodel.SchemaError(f"--rotate expects CELL:AZIMUTH, got {text!r}") from exc


def _parse_scales(text: str) -> list[float]:
    try:
        first, last, count = text.split(":")
        first, last, count = float(first), float(last), int(count)
    except ValueError as exc:
        raise netmodel.SchemaError(f"--scales expects FIRST:LAST:COUNT, got {text!r}") from exc
    if count < 1 or last < first or first <= 0:
        raise netmodel.SchemaError(f"--scales needs 0 < FIRST <= LAST and COUNT >= 1, got {text!r}")
    return list(np.linspace(first, last, count))


def _sweep_workers(num_scales: int) -> int:
    env = os.environ.get("LOADCOUPLE_THREADS")
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise netmodel.SchemaError(f"LOADCOUPLE_THREADS must be an integer, got {env!r}")
        if cap < 1:
            raise netmodel.SchemaError("LOADCOUPLE_THREADS must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return min(cap, num_scales)


def _load_validated(path) -> netmodel.NetworkInstance:
    instance = netmodel.load_instance(path)
    violations = netmodel.validate(instance)
    if violations:
        details = "; ".join(f"{v.code}: {v.message}" for v in violations)
        raise netmodel.SchemaError(f"{path}: invalid instance: {details}")
    return instance


def _cmd_generate(args) -> int:
    spec = scenario.load_scenario_spec(args.spec)
    instance = scenario.generate(spec)
    if args.rotate:
        cell_id, azimuth = _parse_rotate(args.rotate)
        try:
            instance = scenario.rotate_sector(instance, cell_id, azimuth)
        except ValueError as exc:
            raise netmodel.SchemaError(str(exc)) from exc
    netmodel.save_instance(instance, args.out)
    print(f"wrote {args.out}: {instance.num_cells} cells, {instance.num_pixels} pixels")
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = _load_validated(args.instance)
    config = solver.SolverConfig(method=_METHODS[args.method], tol_residual=args.tol,
                                 max_iter=args.max_iter)
    if args.interval_width is not None:
        report = solver.solve_with_interval_stop(instance, args.interval_width, config)
    else:
        report = solver.solve(instance, config)

    header = ["cell_id", "rho_star", "rho_lower", "rho_upper", "residual"]
    if report.status == solver.INFEASIBLE:
        comment = (
            f"status={report.status} iterations=0 "
            f"linear_status={report.linear.status} spectral_radius={_fmt(report.linear.spectral_radius)}"
        )
        rows = [[c.id, None, None, None, None] for c in instance.cells]
        _write_csv(args.out, comment, header, rows)
        return EXIT_INFEASIBLE
    comment = (
        f"status={report.status} iterations={report.iterations} "
        f"residual={_fmt(report.residual)} spectral_radius={_fmt(report.linear.spectral_radius)}"
    )
    rows = []
    for i, cell in enumerate(instance.cells):
        upper = float(report.upper[i]) if report.upper is not None else None
        rows.append([cell.id, float(report.fixed_point[i]), float(report.lower[i]),
                     upper, report.residual])
    _write_csv(args.out, comment, header, rows)
    return EXIT_OK if report.status == solver.CONVERGED else EXIT_MAX_ITER


def _cmd_feasibility(args) -> int:
    instance = _load_validated(args.instance)
    feasible, outcome = linfeas.feasibility_check(instance)
    flags = " reducible" if outcome.reducible else ""
    print(
        f"{'feasible' if feasible else 'infeasible'} "
        f"(linear status {outcome.status}, spectral radius {_fmt(outcome.spectral_radius)}{flags})"
    )
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def _cmd_sweep(args) -> int:
    instance = _load_validated(args.instance)
    scales = _parse_scales(args.scales)
    rows = analysis.demand_sweep(instance, scales, workers=_sweep_workers(len(scales)))
    ids = [c.id for c in instance.cells]
    header = (["scale", "feasible", "spectral_radius", "status"]
              + [f"rho_star_{i}" for i in ids] + [f"rho_lower_{i}" for i in ids])
    table = []
    for row in rows:
        record = [row.scale, int(row.feasible), row.spectral_radius, row.solve_status or "n/a"]
        record += list(map(float, row.rho_star)) if row.rho_star is not None else [None] * len(ids)
        record += list(map(float, row.rho_lower)) if row.rho_lower is not None else [None] * len(ids)
        table.append(record)
    _write_csv(args.out, f"scales={args.scales}", header, table)
    if any(row.solve_status == solver.MAX_ITER_EXCEEDED for row in rows):
        return EXIT_MAX_ITER
    return EXIT_OK


def _cmd_boundary(args) -> int:
    instance = _load_validated(args.instance)
    cert = analysis.feasibility_boundary(instance, args.lo, args.hi, args.tol)
    print(f"boundary scale {_fmt(cert.scale)} "
          f"(last feasible {_fmt(cert.last_feasible)}, first infeasible {_fmt(cert.first_infeasible)})")
    return EXIT_OK


def _cmd_compare(args) -> int:
    instance_a = _load_validated(args.a)
    instance_b = _load_validated(args.b)
    report = analysis.compare_configs(instance_a, instance_b)
    header = ["cell_id", "rho_star_a", "rho_star_b", "rho_lower_a", "rho_lower_b",
              "rho_upper_a", "rho_upper_b"]
    rows = []
    for i, cell in enumerate(instance_a.cells):
        def pick(bounds, attr):
            return getattr(bounds[i], attr) if bounds is not None else None
        rows.append([
            cell.id,
            pick(report.bounds_a, "rho_star"), pick(report.bounds_b, "rho_star"),
            pick(report.bounds_a, "rho_lower"), pick(report.bounds_b, "rho_lower"),
            pick(report.bounds_a, "rho_upper"), pick(report.bounds_b, "rho_upper"),
        ])
    comment = (f"verdict={report.verdict} boundary_a={_fmt(report.boundary_a)} "
               f"boundary_b={_fmt(report.boundary_b)}")
    _write_csv(args.out, comment, header, rows)
    print(f"{report.verdict} (boundary a {_fmt(report.boundary_a)}, b {_fmt(report.boundary_b)})")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    instance = _load_validated(args.instance)
    table = analysis.bound_quality(instance)
    header = ["cell_id", "rho_star", "rho_lower", "rho_upper", "lower_gap_pct", "upper_gap_pct"]
    rows = [[b.cell_id, b.rho_star, b.rho_lower, b.rho_upper, b.lower_gap_pct, b.upper_gap_pct]
            for b in table]
    _write_csv(args.out, "", header, rows)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loadcouple",
                                     description="Load coupling: solve, bound and survey cell load fixed points")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="materialize a scenario spec into an instance file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rotate", metavar="CELL:AZIMUTH", help="rotate one sector after generation")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="compute the load fixed point with certified bounds")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=sorted(_METHODS), default="fixed_point")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--interval-width", type=float, default=None,
                   help="stop once the certified interval is this narrow")
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("feasibility", help="exact feasibility verdict, no iteration")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_feasibility)

    p = sub.add_parser("sweep", help="solve across a grid of demand scales")
    p.add_argument("--instance", required=True)
    p.add_argument("--scales", required=True, metavar="FIRST:LAST:COUNT")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("boundary", help="bisect the feasibility boundary demand scale")
    p.add_argument("--instance", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("compare", help="rank two instance files of the same cell set")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("bounds", help="per-cell quality of both linear bounds")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except analysis.PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (netmodel.SchemaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
