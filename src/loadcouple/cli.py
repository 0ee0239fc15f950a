"""Command line front end.

Every command reads and writes plain files (JSON in, CSV out) and is
deterministic given its inputs: random scenarios carry their seed in the
spec file.  Exit codes: 0 success, 2 invalid input (one too large to
allocate included), 3 infeasible where the command needs feasibility, 4
iteration limit hit.

CSV layout: an initial comment line ``# key=value ...`` with run-level
results (all but ``bounds``), then a header row, then data rows; a per-cell
table has one row per cell, ``cell_id`` first.  Floats are written with 17
significant digits so they parse back to the same values.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import analysis, linfeas, netmodel, scenario, solver

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_MAX_ITER = 4


_CONVERSION = {int: "%d", float: "%.17g", np.float64: "%.17g", str: "%s"}  # by the type of a table field


def _csv_row(row: list) -> str:
    """One table row by one ``%``: n/a for None and NaN, each other field by its type's conversion."""
    values = ["n/a" if v is None or v != v else v for v in row]
    return ",".join(map(_CONVERSION.__getitem__, map(type, values))) % tuple(values)


def _fmt(value) -> str:
    """One field as a table row prints it, for the comment line and the one-line reports."""
    return _csv_row([value])


def _write_csv(path, comment: str, header: list[str], rows: list[list]) -> None:
    lines = [f"# {comment}"] if comment else []
    lines.append(",".join(header))
    lines += map(_csv_row, rows)
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
    if text.split() != [text]:  # int() and float() strip whitespace, which the comment line would echo
        raise netmodel.SchemaError(f"--scales takes no whitespace, got {text!r}")
    try:
        first, last, count = text.split(":")
        first, last, count = float(first), float(last), int(count)
    except ValueError as exc:
        raise netmodel.SchemaError(f"--scales expects FIRST:LAST:COUNT, got {text!r}") from exc
    if not (count >= 1 and 0 < first <= last < math.inf and (count > 1 or first == last)):  # false for nan too
        raise netmodel.SchemaError(f"--scales needs finite 0 < FIRST <= LAST, COUNT >= 1 and FIRST = LAST "
                                   f"when COUNT is 1, got {text!r}")
    return np.linspace(first, last, count).tolist()


def _column(values, size: int) -> list:
    """An array's values as a table column, or any other value ``size`` times: None gives n/a fields."""
    return values.tolist() if isinstance(values, np.ndarray) else [values] * size


def _cell_table(path, comment: str, names: list[str], size: int, columns: list) -> None:
    """One row per cell through :func:`_write_csv`: its 1-based id, then each :func:`_column`'s value."""
    rows = zip(*(_column(values, size) for values in columns))
    _write_csv(path, comment, ["cell_id", *names], [[i, *values] for i, values in enumerate(rows, start=1)])


def _exit_for(reports) -> int:
    """Exit 4 when any solve behind a command's output stopped at its iteration limit."""
    return EXIT_MAX_ITER if any(report.status == solver.MAX_ITER_EXCEEDED for report in reports) else EXIT_OK


def _cmd_generate(args) -> int:
    spec = scenario.load_scenario_spec(args.spec)
    instance = scenario.generate(spec)
    if args.rotate:
        instance = scenario.rotate_sector(instance, *_parse_rotate(args.rotate))
    netmodel.save_instance(instance, args.out)
    print(f"wrote {args.out}: {instance.num_cells} cells, {instance.num_pixels} pixels")
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = netmodel.load_instance(args.instance)
    report = solver.solve(instance, solver.SolverConfig(
        tol_residual=args.tol, max_iter=args.max_iter, interval_width=args.interval_width))
    infeasible = report.status == solver.INFEASIBLE
    residual = _fmt(report.residual)  # n/a for an infeasible report's NaN
    detail = f"linear_status={report.linear.status}" if infeasible else f"residual={residual}"
    comment = (f"status={report.status} iterations={report.iterations} {detail} "
               f"spectral_radius={_fmt(linfeas.model(instance).spectral_radius)}")
    # the residual formatted once, its text in every row
    _cell_table(args.out, comment, ["rho_star", "rho_lower", "rho_upper", "residual"], instance.num_cells,
                [report.fixed_point, report.lower, report.upper, residual])
    return EXIT_INFEASIBLE if infeasible else _exit_for([report])


def _cmd_feasibility(args) -> int:
    instance = netmodel.load_instance(args.instance)
    feasible, outcome = linfeas.feasibility_check(instance)
    model = linfeas.model(instance)
    flags = " reducible" if model.reducible else ""
    print(f"{'feasible' if feasible else 'infeasible'} "
          f"(linear status {outcome.status}, spectral radius {_fmt(model.spectral_radius)}{flags})")
    return EXIT_OK if feasible else EXIT_INFEASIBLE


def _cmd_sweep(args) -> int:
    instance = netmodel.load_instance(args.instance)
    scales = _parse_scales(args.scales)
    rows = analysis.demand_sweep(instance, scales)
    ids = range(1, instance.num_cells + 1)
    header = (["scale", "feasible", "spectral_radius", "status"]
              + [f"rho_star_{i}" for i in ids] + [f"rho_lower_{i}" for i in ids])
    n = instance.num_cells
    table = [[row.scale, int(row.feasible), row.spectral_radius, row.report.status if row.feasible else None,
              *_column(row.report.fixed_point, n), *_column(row.report.lower, n)] for row in rows]
    _write_csv(args.out, f"scales={args.scales}", header, table)
    return _exit_for(row.report for row in rows)


def _cmd_boundary(args) -> int:
    instance = netmodel.load_instance(args.instance)
    cert = analysis.feasibility_boundary(instance, args.lo, args.hi, args.tol)
    print(f"boundary scale {_fmt(cert.scale)} "
          f"(last feasible {_fmt(cert.last_feasible)}, first infeasible {_fmt(cert.first_infeasible)})")
    return EXIT_OK


def _cmd_compare(args) -> int:
    instance_a = netmodel.load_instance(args.a)
    instance_b = netmodel.load_instance(args.b)
    report = analysis.compare_configs(instance_a, instance_b)
    reports = (report.report_a, report.report_b)
    comment = (f"verdict={report.verdict} boundary_a={_fmt(report.boundary_a)} "
               f"boundary_b={_fmt(report.boundary_b)}")
    # a side infeasible at base demand has no report, and getattr's default gives it n/a columns
    _cell_table(args.out, comment, ["rho_star_a", "rho_star_b", "rho_lower_a", "rho_lower_b",
                                    "rho_upper_a", "rho_upper_b"], instance_a.num_cells,
                [getattr(side, attr, None) for attr in ("fixed_point", "lower", "start_upper") for side in reports])
    print(f"{report.verdict} (boundary a {_fmt(report.boundary_a)}, b {_fmt(report.boundary_b)})")
    return _exit_for(side for side in reports if side is not None)


def _cmd_bounds(args) -> int:
    instance = netmodel.load_instance(args.instance)
    table = analysis.bound_quality(instance)
    _cell_table(args.out, "", ["rho_star", "rho_lower", "rho_upper", "lower_gap_pct", "upper_gap_pct"],
                instance.num_cells, [table.report.fixed_point, table.report.lower, table.rho_upper,
                                     table.lower_gap_pct, table.upper_gap_pct])
    return _exit_for([table.report])


@functools.cache  # built on the first main() call, then reused: parse_args keeps no state
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
    p.add_argument("--method", choices=("newton",), default="newton",
                   help="Newton from above, the only method")
    p.add_argument("--tol", type=float, default=solver.SolverConfig.tol_residual)
    p.add_argument("--max-iter", type=int, default=solver.SolverConfig.max_iter)
    p.add_argument("--interval-width", type=float, default=None,
                   help="stop once the certified interval is this narrow (positive)")
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

    p = sub.add_parser("boundary", help="certified feasibility boundary demand scale")
    p.add_argument("--instance", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=analysis.BOUNDARY_TOL,
                   help="relative width of the certified bracket (positive); "
                        "too narrow to certify in double precision exits 2")
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
    except (netmodel.SchemaError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
