#!/usr/bin/env python3
"""Demonstrate the two capacity readings on the bundled three-request
fixture: the brute-force oracle under the strict peak-load rule, the oracle
under the netted per-stop rule, and both MIP formulations solved with the
bundled HiGHS backend. The location MIP tracks only the net load after each
stop, so it lands on the netted value; the request MIP orders pickup and
dropoff events individually and agrees with its own oracle."""

import os
import sys

from ppdsp.harness import SolverAdapter, oracle, solve
from ppdsp.instgen import parse_instance

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                    "threereq.instance")


def main() -> int:
    with open(DATA) as fh:
        instance = parse_instance(fh.read())
    adapter = SolverAdapter(
        command_template=(f"{sys.executable} -m ppdsp.highs_solver "
                          "{model_path} {solution_path} {time_limit_s}"))

    for semantics, rule in (("location", "strict"), ("location", "netted"),
                            ("request", "strict")):
        value, solution = oracle(instance, semantics, capacity_rule=rule)
        print(f"oracle[{semantics}, {rule}] = {value:g}")
        for plan in solution.plans:
            route = "->".join(map(str, plan.route)) or "idle"
            served = ",".join(f"r{r}" for r in sorted(plan.delivery)) or "-"
            print(f"  truck {plan.truck_id}: {served} via {route}")

    for formulation in ("location", "request"):
        outcome = solve(instance, formulation, adapter, time_limit_s=60)
        if outcome.status in ("Optimal", "Feasible"):
            print(f"mip[{formulation}] = {outcome.objective:g} ({outcome.status})")
        else:
            print(f"mip[{formulation}]: {outcome.status} {outcome.error}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
