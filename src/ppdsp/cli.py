"""Command-line front end.

`solve` and `bench` run an external solver from a command template; it
writes `name value` lines and an optional `# status <word>` line, and a
solver with another answer format needs a wrapper script.

Exit codes: 0 success, 2 input error (an unwritable output or a bad solver
template among them), 3 verification failure (census mismatch, or a decoded
solution with validator violations or an objective that differs from its
recomputed value), 4 solver failure (crash, timeout, which stops the
solver's whole process group, no solution file, an empty, unreadable or
undecodable answer, or a declared Error or unknown status).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import stat
import sys

from . import harness, instgen
from .core import (DeliveryRoutingSolution, StructuralError, TruckPlan,
                   validate_solution, xi)
from .instgen import ParseError, json_int
from .mipir import ModelError, emit_lp

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_SOLVER = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}")


def _check_writable(path: str) -> None:
    """Refuse, before any work and without creating anything, a path that
    _write could not write: its directory is missing, not a directory or
    not writable, or the path is itself a directory."""
    directory = os.path.dirname(path) or os.curdir
    try:
        code = (errno.ENOTDIR if not stat.S_ISDIR(os.stat(directory).st_mode)
                else errno.EISDIR if os.path.isdir(path)
                else errno.EACCES if not os.access(directory, os.W_OK | os.X_OK)
                else None)
    except OSError as exc:
        code = exc.errno
    if code is not None:
        raise CliError(f"cannot write {path}: {os.strerror(code)}")


def _read_sample(path: str) -> instgen.TsplibSample:
    text = _read_text(path)
    try:
        name = os.path.splitext(os.path.basename(path))[0]
        return instgen.parse_tsplib(text, name=name)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}")


def _read_instance(path: str):
    text = _read_text(path)
    try:
        return instgen.parse_instance(text)
    except ParseError as exc:
        raise CliError(f"{path}: {exc}")


def _adapter_from(template: str | None) -> harness.SolverAdapter | None:
    template = template or os.environ.get("PPDSP_SOLVER_CMD")
    if not template or template == "none":
        return None
    try:
        return harness.SolverAdapter(command_template=template)
    except ValueError as exc:
        raise CliError(str(exc))


def _time_limit(text: str) -> float:
    """argparse type of --time-limit: a finite number of seconds > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return value


def _parse_list(text: str, item, what: str) -> list:
    try:
        return [item(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise CliError(f"bad {what} list {text!r}")


def solution_to_json(solution: DeliveryRoutingSolution) -> str:
    doc = {"plans": [{"truck": p.truck_id,
                      "delivery": sorted(p.delivery),
                      "route": list(p.route)} for p in solution.plans]}
    return json.dumps(doc, indent=2) + "\n"


def solution_from_json(text: str) -> DeliveryRoutingSolution:
    try:
        doc = json.loads(text)
        plans = tuple(TruckPlan(truck_id=json_int(p["truck"], "truck"),
                                delivery=frozenset(json_int(r, "delivery")
                                                   for r in p["delivery"]),
                                route=tuple(json_int(v, "route") for v in p["route"]))
                      for p in doc["plans"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad solution file: {exc}")
    return DeliveryRoutingSolution(plans=plans)


def cmd_gen(args) -> int:
    sample = _read_sample(args.tsplib)
    # the instance files are named after the sample, inside --out
    if sample.name in (".", "..") or os.path.basename(sample.name) != sample.name:
        raise CliError(f"{args.tsplib}: sample name {sample.name!r} is not a file name")
    k_list = _parse_list(args.k, float, "k")
    try:
        family = instgen.generate_family(sample, k_list, args.m, args.seed)
    except (ValueError, instgen.PairingStalled) as exc:
        raise CliError(str(exc))
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc.strerror}")
    for k in sorted(k_list):
        instance = family[k]
        name = f"{sample.name}_k{k:g}_m{args.m}_s{args.seed}.instance"
        path = os.path.join(args.out, name)
        _write(path, instgen.serialize_instance(instance))
        print(f"k={k:g} n={instance.meta.n} -> {os.path.abspath(path)}")
    return EXIT_OK


def cmd_build(args) -> int:
    instance = _read_instance(args.instance)
    encoding, counts = harness.encode_checked(
        instance, harness.formulation(args.formulation))
    _write(args.lp, emit_lp(encoding.model))
    print(f"vars={counts[0]} rows={counts[1]}")
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.out:
        _check_writable(args.out)
    instance = _read_instance(args.instance)
    adapter = _adapter_from(args.solver)
    if adapter is None:
        raise CliError("no solver command (use --solver or PPDSP_SOLVER_CMD)")
    outcome = harness.solve(instance, args.formulation, adapter, args.time_limit)
    print(f"status={outcome.status} objective="
          f"{'' if outcome.objective is None else f'{outcome.objective:.6f}'} "
          f"wall_time_s={outcome.wall_time_s:.3f}")
    if outcome.status == "Error":
        print(f"solve failed: {outcome.error}", file=sys.stderr)
        for violation in outcome.violations:
            print(f"  {violation}", file=sys.stderr)
        # a decoded solution failed a check; otherwise there was no usable answer
        return EXIT_VERIFY if outcome.solution is not None else EXIT_SOLVER
    if outcome.solution is not None and args.out:
        _write(args.out, solution_to_json(outcome.solution))
        print(f"solution -> {os.path.abspath(args.out)}")
    return EXIT_OK


def cmd_validate(args) -> int:
    instance = _read_instance(args.instance)
    solution = solution_from_json(_read_text(args.solution))
    try:
        report = validate_solution(solution, instance)
        value = xi(solution, instance)
    except StructuralError as exc:  # an unknown id, or a truck with two plans
        raise CliError(f"bad solution file: {exc}")
    print(f"xi={value:g}")
    if report.ok:
        print("valid")
        return EXIT_OK
    for violation in report.violations:
        print(str(violation))
    return EXIT_VERIFY


def cmd_oracle(args) -> int:
    instance = _read_instance(args.instance)
    try:
        value, solution = harness.oracle(instance, args.semantics,
                                         capacity_rule=args.capacity_rule)
    except harness.OracleRefused as exc:
        raise CliError(str(exc))
    print(f"optimal value: {value:g}")
    for plan in solution.plans:
        delivery = ",".join(f"r{r}" for r in sorted(plan.delivery)) or "-"
        route = "->".join(str(v) for v in plan.route) or "-"
        print(f"truck {plan.truck_id}: delivery={{{delivery}}} route={route}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.csv:
        _check_writable(args.csv)
    samples = [_read_sample(p) for p in args.tsplib]
    k_list = _parse_list(args.k, float, "k")
    m_list = _parse_list(args.m, int, "m")
    adapter = _adapter_from(args.solver)
    try:
        records = harness.bench(samples, k_list, m_list, args.formulations.split(","),
                                adapter, args.time_limit, args.seed)
    except ModelError:
        raise  # an encoder fault, not bad input
    except (ValueError, instgen.PairingStalled) as exc:
        raise CliError(str(exc))
    csv_text = harness.records_to_csv(records)
    if args.csv:
        _write(args.csv, csv_text)
        print(f"csv -> {os.path.abspath(args.csv)}")
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        records = harness.records_from_csv(_read_text(args.csv))
        text = harness.render_markdown(records, solver_label=args.solver_label,
                                       time_limit_s=args.time_limit)
    except ValueError as exc:
        raise CliError(f"{args.csv}: {exc}")
    if args.out:
        _write(args.out, text)
        print(f"report -> {os.path.abspath(args.out)}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ppdsp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate seeded instances from a TSPLIB sample")
    p.add_argument("--tsplib", required=True)
    p.add_argument("--k", required=True, help="comma-separated repetition rates")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="encode an instance to an LP file")
    p.add_argument("--instance", required=True)
    p.add_argument("--formulation", required=True, choices=sorted(harness.FORMULATIONS))
    p.add_argument("--lp", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="solve an instance via an external solver")
    p.add_argument("--instance", required=True)
    p.add_argument("--formulation", required=True, choices=sorted(harness.FORMULATIONS))
    p.add_argument("--solver", help="command template; default $PPDSP_SOLVER_CMD")
    p.add_argument("--time-limit", type=_time_limit, default=600.0)
    p.add_argument("--out", help="write the decoded solution as JSON")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="validate a solution file")
    p.add_argument("--instance", required=True)
    p.add_argument("--solution", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oracle", help="exact enumeration optimum (small instances)")
    p.add_argument("--instance", required=True)
    p.add_argument("--semantics", default="location", choices=harness.SEMANTICS)
    p.add_argument("--capacity-rule", default="strict", choices=harness.CAPACITY_RULES)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run the benchmark grid")
    p.add_argument("--tsplib", nargs="+", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--formulations", default="location,request")
    p.add_argument("--solver", help="command template or 'none' for encode-only")
    p.add_argument("--time-limit", type=_time_limit, default=600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="render a bench CSV as a markdown table")
    p.add_argument("--csv", required=True)
    p.add_argument("--solver-label", default="none")
    p.add_argument("--time-limit", type=_time_limit)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, harness.CensusMismatch) as exc:  # the latter from any encode
        print(str(exc), file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
