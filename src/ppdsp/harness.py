"""Solver harness: subprocess solver adapter, exhaustive exact oracle for
both route semantics, golden-value enumeration, and the benchmark grid.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import math
import os
import shlex
import signal
import string
import subprocess
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, fields
from typing import Callable, Optional

from . import enc_location, enc_request
from .core import (DeliveryRoutingSolution, Instance, Truck, TruckPlan,
                   validate_solution, xi)
from .instgen import TsplibSample, first_repeat, generate_family
from .mipir import (SolutionParseError, census, emit_lp, objective_value,
                    parse_solution)

OBJECTIVE_TOL = 1e-6
SOLVER_GRACE_S = 120  # past the time limit, before the solver's processes are killed


class OracleRefused(ValueError):
    pass


class SolverProcessError(RuntimeError):
    pass


class ObjectiveMismatch(RuntimeError):
    """Raised and caught inside solve(); it ends as an Error outcome."""


class CensusMismatch(AssertionError):
    """An encoded model's variable and row counts differ from its
    formulation's closed form."""


# the largest instance the exhaustive oracle enumerates
ORACLE_MAX_REQUESTS = 5
ORACLE_MAX_TRUCKS = 3
ORACLE_MAX_NODES = 8


# run_adapter's template fields, with values of the types it passes
_STAND_INS = {"model_path": "model.lp", "solution_path": "solution.sol",
              "time_limit_s": 600.0}


@dataclass(frozen=True)
class SolverAdapter:
    """Subprocess solver boundary.

    command_template placeholders: {model_path}, {solution_path},
    {time_limit_s}; a literal brace is written {{ or }}. A conversion or
    format spec must suit the value: each path is a str, the time limit a
    float. The solver writes
    `name value` lines and an optional `# status <word>` line; a solver with
    another format needs a wrapper script that rewrites its answer.
    """

    command_template: str
    workdir: Optional[str] = None

    def __post_init__(self):
        # an unbalanced brace is a ValueError, and so is a conversion or
        # format spec that str.format refuses for run_adapter's values, here
        # tried once with stand-ins of their types (a spec nesting an unknown
        # field raises a LookupError)
        try:
            fields = {field for _, field, _, _ in
                      string.Formatter().parse(self.command_template) if field is not None}
            unknown = sorted(fields - set(_STAND_INS))
            if not unknown:
                self.command_template.format(**_STAND_INS)
        except (ValueError, LookupError) as exc:
            raise ValueError(f"command template {self.command_template!r}: {exc}") from None
        if unknown:
            raise ValueError(f"command template field {{{unknown[0]}}} is not one of "
                             "{model_path}, {solution_path}, {time_limit_s} "
                             "(a literal brace is written {{ or }})")
        if "model_path" not in fields:
            raise ValueError("command template must contain {model_path}")


@dataclass(frozen=True)
class SolveOutcome:
    """How a solve ended, whatever the solver did.

    Optimal or Feasible (values without a status line): the values decode to
    a `solution` that passes the audit, with `objective` equal to its xi.
    Infeasible or TimeLimit: declared.
    Error, with `error` saying why: the solver crashed, timed out, wrote no
    file or wrote neither a status nor values; a line is malformed or names
    an unknown variable; the status is Error or unknown; the values do not
    decode; or the decoded `solution` fails the audit (`violations`, from
    core.validate_solution, over the request graph for the request model)
    or its xi differs from `objective`.
    `objective` is the solver's whenever its values were read.
    """

    status: str  # Optimal | Feasible | Infeasible | TimeLimit | Error
    objective: Optional[float]
    solution: Optional[DeliveryRoutingSolution]
    wall_time_s: float
    violations: tuple = ()
    error: str = ""


@dataclass(frozen=True)
class BenchRecord:
    sample: str
    k: float
    m: int
    n: int
    formulation: str
    num_vars: int
    num_rows: int
    status: str
    objective: Optional[float]
    wall_time_s: Optional[float]
    seed: int


# --- exhaustive oracle ----------------------------------------------------
#
# A route is an order of stops that puts each request's pickup stop before
# its dropoff stop. Two capacity readings exist for a stop that both loads
# and unloads: "strict" loads all pickups before anything is unloaded and
# bounds the peak (the reading under which the worked golden data's
# exhaustive listing is complete); "netted" only bounds the per-stop net
# load, which is exactly the feasible set of the location-based MIP's
# load-propagation rows.

SEMANTICS = ("location", "request")
CAPACITY_RULES = ("strict", "netted")


def _orderings(stops: list, before: dict, up: dict, down: dict, capacity: int,
               capacity_rule: str):
    """Every order of `stops` that places each stop after the stops in
    before[stop], by backtracking. A stop adds up[stop] to the load and then
    removes down[stop]; a prefix is cut once its load leaves [0, capacity],
    and under the "strict" rule once the peak after `up` exceeds capacity."""
    order: list = []

    def extend(load):
        if len(order) == len(stops):
            yield tuple(order)
        for stop in stops:
            peak = load + up[stop]
            after = peak - down[stop]
            if (stop not in order and before[stop].issubset(order)
                    and 0 <= after <= capacity
                    and (capacity_rule == "netted" or peak <= capacity)):
                order.append(stop)
                yield from extend(after)
                order.pop()

    return extend(0)


def _stop_orders(instance: Instance, truck: Truck, delivery: tuple[int, ...],
                 semantics: str, capacity_rule: str):
    """The feasible orders of one truck's stops, each stop a tuple whose last
    item is its location: a visited (location,) under location semantics, a
    (request id, is_dropoff, location) event under request semantics."""
    before, up, down = defaultdict(set), defaultdict(int), defaultdict(int)
    for rid in delivery:
        request = instance.requests[rid]
        pickup, dropoff = (((request.pickup,), (request.dropoff,)) if semantics == "location"
                           else ((rid, 0, request.pickup), (rid, 1, request.dropoff)))
        before[dropoff].add(pickup)
        up[pickup] += request.q
        down[dropoff] += request.q
    return _orderings(sorted(up.keys() | down.keys()), before, up, down,
                      truck.capacity, capacity_rule)


def _check_limits(instance: Instance) -> None:
    n = len(instance.requests)
    m = len(instance.trucks)
    nv = instance.graph.num_nodes
    if n > ORACLE_MAX_REQUESTS or m > ORACLE_MAX_TRUCKS or nv > ORACLE_MAX_NODES:
        size = (len(instance.trucks) + 1) ** len(instance.requests)
        raise OracleRefused(
            f"instance too large for enumeration (n={n}, m={m}, |V|={nv}; "
            f"~{size} assignments)")


def _search(instance: Instance, semantics: str, capacity_rule: str):
    """Every assignment of requests to a truck or to none under which each
    truck has a route, the request -> truck-or-none vectors in lexicographic
    order, none sorting first. Each is yielded as one (delivery, pairs) per
    truck: the request ids it delivers and the (cost, route) of each feasible
    stop order, in the order _orderings gives them (route order under
    location semantics). A truck with nothing to deliver has the one pair
    (0.0, ()).

    The cost runs over every stop's location, from the depot and back; in
    the route, consecutive stops at one location are one physical stop."""
    _check_limits(instance)

    def scored(truck, order):
        locations = [stop[-1] for stop in order]
        cost = instance.arc_cost(truck, 0, locations[0])
        for o, d in itertools.pairwise((*locations, 0)):
            cost += instance.arc_cost(truck, o, d)
        return cost, (0, *(v for v, _ in itertools.groupby(locations)), 0)

    for assignment in itertools.product([None, *range(len(instance.trucks))],
                                        repeat=len(instance.requests)):
        per_truck = []
        for t in instance.trucks:
            delivery = tuple(rid for rid, tid in enumerate(assignment) if tid == t.id)
            pairs = [scored(t, order) for order in _stop_orders(
                instance, t, delivery, semantics, capacity_rule)] if delivery else [(0.0, ())]
            if not pairs:
                break
            per_truck.append((delivery, pairs))
        else:  # every truck has a route
            yield per_truck


def oracle(instance: Instance, semantics: str = "location",
           capacity_rule: str = "strict"
           ) -> tuple[float, DeliveryRoutingSolution]:
    """Exhaustive optimum over all request assignments and routes, from the
    search that enumerate_xi lists: each truck's least (cost, route).

    semantics "location": each visited location appears once on a cycle;
    semantics "request": per-request pickup/dropoff events may revisit a
    location. Ties break toward the lexicographically smallest assignment
    vector, then route.

    capacity_rule "strict" bounds the peak load while a stop's pickups are
    on board (the definitional reading); "netted" bounds only the per-stop
    net load, which is the exact feasible set of the location-based MIP.
    Request semantics has one pickup or dropoff event per stop, so the rules
    coincide there.
    """
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    if capacity_rule not in CAPACITY_RULES:
        raise ValueError(f"unknown capacity rule {capacity_rule!r}")
    best_value = 0.0
    best_plans: Optional[tuple[TruckPlan, ...]] = None
    for per_truck in _search(instance, semantics, capacity_rule):
        value = 0.0
        plans: list[TruckPlan] = []
        for t, (delivery, pairs) in zip(instance.trucks, per_truck):
            cost, route = min(pairs)
            value += sum(instance.requests[rid].w for rid in delivery) - cost
            plans.append(TruckPlan(t.id, frozenset(delivery), route))
        if best_plans is None or value > best_value + 1e-12:
            best_value = value
            best_plans = tuple(plans)
    return best_value, DeliveryRoutingSolution(plans=best_plans)


def enumerate_xi(instance: Instance) -> list[tuple[DeliveryRoutingSolution, float]]:
    """Every feasible (assignment, routes) combination of the oracle's search
    under location semantics and the strict rule, each scored; routes cover
    exactly the visited node set."""
    out: list[tuple[DeliveryRoutingSolution, float]] = []
    for per_truck in _search(instance, "location", "strict"):
        for routes in itertools.product(*([route for _, route in pairs]
                                          for _, pairs in per_truck)):
            solution = DeliveryRoutingSolution(plans=tuple(
                TruckPlan(t.id, frozenset(delivery), route)
                for t, (delivery, _), route in zip(instance.trucks, per_truck, routes)))
            out.append((solution, xi(solution, instance)))
    return out


# --- external solving -----------------------------------------------------

def _solver_environment() -> dict[str, str]:
    """The caller's environment, with every relative PYTHONPATH entry made
    absolute against the caller's working directory.

    The solver runs in its own temporary directory, where a relative entry
    would name another place. An empty entry, which Python reads as the
    working directory, becomes the caller's working directory too.
    """
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(entry) for entry in env["PYTHONPATH"].split(os.pathsep))
    return env


def run_adapter(adapter: SolverAdapter, lp_text: str, time_limit_s: float) -> str:
    """Write the model, invoke the solver process, read the solution text.

    The solver runs with its working directory in a temporary directory, so
    any files it writes there are removed with it; a Python solver still
    imports what the caller's PYTHONPATH names (see _solver_environment).

    Returns the solution text; parse_solution reads it. Raises
    SolverProcessError on a non-zero exit, no solution file or a timeout.
    """
    with tempfile.TemporaryDirectory(dir=adapter.workdir) as tmp:
        model_path = os.path.join(tmp, "model.lp")
        solution_path = os.path.join(tmp, "solution.sol")
        with open(model_path, "w") as fh:
            fh.write(lp_text)
        command = adapter.command_template.format(
            model_path=shlex.quote(model_path),
            solution_path=shlex.quote(solution_path),
            time_limit_s=time_limit_s)
        # a session of its own, so that a timeout kills the solver's children too
        proc = subprocess.Popen(command, shell=True, cwd=tmp,
                                env=_solver_environment(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, errors="replace",
                                start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=time_limit_s + SOLVER_GRACE_S)
        except BaseException as exc:  # also Ctrl-C, which the session does not get
            with contextlib.suppress(ProcessLookupError):  # the group has exited
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise SolverProcessError(f"solver still running {SOLVER_GRACE_S:g} s "
                                         f"past its {time_limit_s:g} s limit") from None
            raise
        if proc.returncode != 0:
            # the tail: a traceback or error message ends with its reason
            raise SolverProcessError(
                f"solver exited with {proc.returncode}: {stderr.strip()[-500:]}")
        if not os.path.exists(solution_path):
            raise SolverProcessError("solver produced no solution file")
        with open(solution_path, errors="replace") as fh:  # bad bytes fail to parse
            return fh.read()


def request_raw_checks(encoding, graph_solution: DeliveryRoutingSolution) -> list[str]:
    """core.validate_solution's violations of decode_request's solution over
    the request graph, encoding.graph. The name stays because perfbench's
    tracer times it as a layer of its own."""
    return [str(v) for v in validate_solution(graph_solution, encoding.graph).violations]


# --- formulations ---------------------------------------------------------
#
# Each step reaches the encoder's functions, validate_solution and
# request_raw_checks through their modules when it runs, so a wrapper set on
# one of those module attributes sees every call.

@dataclass(frozen=True)
class Formulation:
    """One MIP formulation: encode(instance) -> encoding; predicted_counts(
    instance), the closed-form census; decode(encoding, values) -> (solution,
    the solution the audit reads, or None); audit(encoding, solution,
    audited) -> problems."""

    name: str
    aliases: tuple[str, ...]
    encode: Callable
    predicted_counts: Callable
    decode: Callable
    audit: Callable


# every formulation, under its name and under each alias
FORMULATIONS = {alias: form for form in (
    Formulation(
        "location", ("loc",),
        encode=lambda instance: enc_location.encode_location(instance),
        predicted_counts=lambda instance: enc_location.predicted_counts_location(
            instance.graph.num_nodes, len(instance.requests), len(instance.trucks)),
        decode=lambda encoding, values: (
            enc_location.decode_location(encoding, values), None),
        audit=lambda encoding, solution, _: [
            str(v) for v in validate_solution(solution, encoding.instance).violations]),
    Formulation(
        "request", ("req",),
        encode=lambda instance: enc_request.encode_request(instance),
        predicted_counts=lambda instance: enc_request.predicted_counts_request(
            len(instance.requests), len(instance.trucks)),
        decode=lambda encoding, values: enc_request.decode_request(encoding, values),
        audit=lambda encoding, solution, graph_solution: request_raw_checks(
            encoding, graph_solution)),
) for alias in (form.name, *form.aliases)}


def formulation(name: str) -> Formulation:
    """The formulation with this name or alias."""
    try:
        return FORMULATIONS[name]
    except KeyError:
        raise ValueError(f"unknown formulation {name!r}; choose from "
                         f"{', '.join(sorted(FORMULATIONS))}") from None


_formulation = formulation  # for solve(), whose parameter has that name


def encode_checked(instance: Instance, form: Formulation):
    """Encode with `form` and check the census against its closed form;
    returns (encoding, (variables, rows))."""
    encoding = form.encode(instance)
    counts = census(encoding.model)
    predicted = form.predicted_counts(instance)
    if counts != predicted:
        raise CensusMismatch(
            f"census {counts} disagrees with predicted {predicted} ({form.name}, "
            f"|V|={instance.graph.num_nodes}, n={len(instance.requests)}, "
            f"m={len(instance.trucks)})")
    return encoding, counts


def solve(instance: Instance, formulation: str, adapter: SolverAdapter,
          time_limit_s: float = 600.0) -> SolveOutcome:
    """Encode and check the census (CensusMismatch), emit, run the external
    solver, decode, validate, and cross-check the objective against the
    recomputed profit-cost value."""
    start = time.monotonic()
    form = _formulation(formulation)
    encoding, _ = encode_checked(instance, form)
    return _solve_encoding(form, encoding, adapter, time_limit_s, start)


def _solve_encoding(form: Formulation, encoding, adapter: SolverAdapter,
                    time_limit_s: float, start: float) -> SolveOutcome:
    """solve() after encoding; the outcome's wall time runs from `start`.
    Every failure the solver's answer can cause ends as an Error outcome."""
    status, objective, decoded, problems, error = "Error", None, None, [], ""
    try:
        status, assignment = parse_solution(
            run_adapter(adapter, emit_lp(encoding.model), time_limit_s), encoding.model)
        if assignment is not None:
            objective = objective_value(encoding.model, assignment)
            decoded, audited = form.decode(encoding, assignment)
            problems = form.audit(encoding, decoded, audited)
            value = xi(decoded, encoding.instance)
            if abs(objective - value) > OBJECTIVE_TOL * max(1.0, abs(value)):
                raise ObjectiveMismatch(
                    f"solver objective {objective} != recomputed value {value}")
            if problems:
                error = "claimed-feasible solution fails validation"
    except (SolverProcessError, SolutionParseError, enc_location.DecodeError,
            ObjectiveMismatch) as exc:
        error = str(exc)
    return SolveOutcome(status="Error" if error else status, objective=objective,
                        solution=decoded, wall_time_s=time.monotonic() - start,
                        violations=tuple(problems), error=error)


# --- benchmark grid -------------------------------------------------------

CSV_HEADER = [field.name for field in fields(BenchRecord)]


def _bench_cell(instance: Instance, form: Formulation,
                adapter: Optional[SolverAdapter], time_limit_s: float) -> BenchRecord:
    meta = instance.meta
    start = time.monotonic()
    encoding, (num_vars, num_rows) = encode_checked(instance, form)
    record = functools.partial(BenchRecord, meta.sample, meta.k, meta.m, meta.n,
                               form.name, num_vars, num_rows, seed=meta.seed)
    if adapter is None:
        return record("EncodeOnly", None, None)
    outcome = _solve_encoding(form, encoding, adapter, time_limit_s, start)
    answered = outcome.status in ("Optimal", "Feasible")
    return record(outcome.status, outcome.objective if answered else None,
                  outcome.wall_time_s)


def bench(samples: list[TsplibSample], k_list: list[float], m_list: list[int],
          formulations: list[str], adapter: Optional[SolverAdapter],
          time_limit_s: float, seed: int) -> list[BenchRecord]:
    """One record per (sample, m, k, formulation) cell, in that order. Every
    family is drawn first; then the cells run one at a time, so a time limit
    means the same in each. A failed cell is recorded and the run goes on.
    An unknown formulation, or an axis naming one value twice (a sample by
    its NAME, a k, an m, or a formulation under any alias), is refused with
    a ValueError before any cell runs, as is an empty m list."""
    if not m_list:
        raise ValueError("m_list is empty")
    forms = [formulation(name) for name in formulations]
    for axis, values in (("sample", [sample.name for sample in samples]),
                         ("m", m_list), ("formulation", [f.name for f in forms])):
        if (repeated := first_repeat(values)) is not None:
            raise ValueError(f"{axis}={repeated} is given twice")
    cells: list[tuple[Instance, Formulation]] = []
    for sample in samples:
        for m in m_list:
            family = generate_family(sample, k_list, m, seed)
            for k in sorted(k_list):
                for form in forms:
                    cells.append((family[k], form))
    return [_bench_cell(inst, form, adapter, time_limit_s) for inst, form in cells]


def records_to_csv(records: list[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([
            r.sample, f"{r.k:g}", r.m, r.n, r.formulation, r.num_vars, r.num_rows,
            r.status,
            "" if r.objective is None else f"{r.objective:.6f}",
            "" if r.wall_time_s is None else f"{r.wall_time_s:.3f}",
            r.seed,
        ])
    return buf.getvalue()


def records_from_csv(text: str) -> list[BenchRecord]:
    """The records of a bench CSV as records_to_csv writes it; raises
    ValueError naming a missing column, or the line of a row with more or
    fewer fields than the header or with a bad value: one that does not
    parse, a k, objective or wall time that is not finite, a negative wall
    time, or a formulation other than location or request."""
    reader = csv.DictReader(io.StringIO(text))
    for name in CSV_HEADER:
        if name not in (reader.fieldnames or ()):
            raise ValueError(f"no column {name!r}")
    records = []
    for row in reader:
        try:
            # DictReader files a long row's extra fields under None and fills
            # a short row's missing ones with None
            if None in row or None in row.values():
                raise ValueError(f"{'more' if None in row else 'fewer'} fields "
                                 "than the header")
            record = BenchRecord(
                sample=row["sample"], k=float(row["k"]), m=int(row["m"]), n=int(row["n"]),
                formulation=row["formulation"], num_vars=int(row["num_vars"]),
                num_rows=int(row["num_rows"]), status=row["status"],
                objective=float(row["objective"]) if row["objective"] else None,
                wall_time_s=float(row["wall_time_s"]) if row["wall_time_s"] else None,
                seed=int(row["seed"]))
            # a NaN k would also slip past the report's repeated-cell refusal
            for name in ("k", "objective", "wall_time_s"):
                value = getattr(record, name)
                if value is not None and not math.isfinite(value):
                    raise ValueError(f"{name} {row[name]!r} is not finite")
            if (record.wall_time_s or 0.0) < 0:
                raise ValueError(f"wall_time_s {row['wall_time_s']!r} is negative")
            if record.formulation not in ("location", "request"):
                raise ValueError(f"formulation {record.formulation!r} is not location "
                                 "or request")
            records.append(record)
        except ValueError as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return records


def render_markdown(records: list[BenchRecord], solver_label: str = "none",
                    time_limit_s: Optional[float] = None) -> str:
    """Tables-style markdown: one table per (sample, m), request vs location
    columns per k, with the smaller count and the larger objective in bold.

    Objective columns carry the solver name and time limit so the numbers
    cannot be mistaken for published figures obtained under other settings.
    A cell that appears twice is refused with a ValueError.
    """
    by_table: dict[tuple[str, int], dict[tuple[float, str], BenchRecord]] = {}
    for r in records:
        first = by_table.setdefault((r.sample, r.m), {}).setdefault(
            (r.k, r.formulation), r)
        if first is not r:
            raise ValueError(f"cell {r.sample} m={r.m} k={r.k:g} {r.formulation} "
                             f"appears twice (seeds {first.seed} and {r.seed})")
    obj_label = f"Obj. [{solver_label}"
    if time_limit_s is not None:
        obj_label += f", {time_limit_s:g}s limit"
    obj_label += "]"
    lines: list[str] = []
    for (sample, m), cells in sorted(by_table.items()):
        ks = sorted({k for k, _ in cells})
        lines.append(f"### {sample}, m={m}")
        header = ["item"] + [f"k={k:g} (req / loc)" for k in ks]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for item, attr, smaller_wins in (("#Var.", "num_vars", True),
                                         ("#Con.", "num_rows", True),
                                         (obj_label, "objective", False)):
            row = [item]
            for k in ks:
                req = cells.get((k, "request"))
                loc = cells.get((k, "location"))
                row.append(_versus(getattr(req, attr, None) if req else None,
                                   getattr(loc, attr, None) if loc else None,
                                   smaller_wins))
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    return "\n".join(lines)


def _versus(left, right, smaller_wins: bool) -> str:
    def fmt(v):
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:g}"
        return str(v)

    if left is None or right is None or left == right or fmt(left) == fmt(right):
        return f"{fmt(left)} / {fmt(right)}"
    left_wins = (left < right) if smaller_wins else (left > right)
    if left_wins:
        return f"**{fmt(left)}** / {fmt(right)}"
    return f"{fmt(left)} / **{fmt(right)}**"
