#!/usr/bin/env python3
"""Demonstrate the two capacity readings on the bundled three-request
fixture: the brute-force oracle under the strict peak-load rule, the oracle
under the netted per-stop rule, and both MIP formulations solved with the
bundled HiGHS backend. The location MIP tracks only the net load after each
stop, so it lands on the netted value; the request MIP orders pickup and
dropoff events individually and agrees with its own oracle. Exits 1 when a
MIP is not solved to optimality or differs from the oracle it should equal."""

import os
import sys

from ppdsp.harness import OBJECTIVE_TOL, SolverAdapter, oracle, solve
from ppdsp.instgen import parse_instance

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                    "threereq.instance")


def main() -> int:
    with open(DATA) as fh:
        instance = parse_instance(fh.read())
    adapter = SolverAdapter(
        command_template=(f"{sys.executable} -m ppdsp.highs_solver "
                          "{model_path} {solution_path} {time_limit_s}"))

    values = {}
    for semantics, rule in (("location", "strict"), ("location", "netted"),
                            ("request", "strict")):
        value, solution = oracle(instance, semantics, capacity_rule=rule)
        values[semantics, rule] = value
        print(f"oracle[{semantics}, {rule}] = {value:g}")
        for plan in solution.plans:
            route = "->".join(map(str, plan.route)) or "idle"
            served = ",".join(f"r{r}" for r in sorted(plan.delivery)) or "-"
            print(f"  truck {plan.truck_id}: {served} via {route}")

    failed = False
    # the oracle each MIP must equal
    for formulation, matched in (("location", ("location", "netted")),
                                 ("request", ("request", "strict"))):
        outcome = solve(instance, formulation, adapter, time_limit_s=60)
        if outcome.status != "Optimal":
            print(f"mip[{formulation}]: {outcome.status} {outcome.error}")
            failed = True
            continue
        print(f"mip[{formulation}] = {outcome.objective:g} ({outcome.status})")
        expected = values[matched]
        if abs(outcome.objective - expected) > OBJECTIVE_TOL * max(1.0, abs(expected)):
            print(f"mip[{formulation}] disagrees with oracle{list(matched)} = {expected:g}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
