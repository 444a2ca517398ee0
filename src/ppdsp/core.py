"""Domain model: locations, requests, trucks, delivery-routing solutions.

All types are frozen dataclasses; all operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional


class StructuralError(ValueError):
    """A solution or instance references ids that do not exist."""


@dataclass(frozen=True)
class LocationGraph:
    """Physical locations with a depot at id 0 and Euclidean arc lengths."""

    coords: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.coords) < 2:
            raise ValueError("graph needs a depot and at least one other node")

    @property
    def num_nodes(self) -> int:
        return len(self.coords)

    def distance(self, o: int, d: int) -> float:
        if o == d:
            return 0.0
        xo, yo = self.coords[o]
        xd, yd = self.coords[d]
        return math.hypot(xo - xd, yo - yd)

    @cached_property
    def distances(self) -> tuple[tuple[float, ...], ...]:
        """distance(o, d) for every origin o (rows) and destination d."""
        nodes = range(self.num_nodes)
        return tuple(tuple(self.distance(o, d) for d in nodes) for o in nodes)


@dataclass(frozen=True)
class Request:
    id: int
    w: float
    q: int
    pickup: int
    dropoff: int

    def __post_init__(self):
        if self.w < 0:
            raise ValueError(f"request {self.id}: payment must be >= 0")
        if self.q < 1:
            raise ValueError(f"request {self.id}: volume must be >= 1")
        if self.pickup == self.dropoff:
            raise ValueError(f"request {self.id}: pickup equals dropoff")
        if self.pickup == 0 or self.dropoff == 0:
            raise ValueError(f"request {self.id}: endpoint at depot")


@dataclass(frozen=True)
class Truck:
    """A vehicle; arc cost is cost_coefficient * distance unless an explicit
    cost matrix is attached (needed for hand-built golden fixtures whose
    costs are not Euclidean)."""

    id: int
    capacity: int
    cost_coefficient: float
    cost_matrix: Optional[tuple[tuple[float, ...], ...]] = None

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError(f"truck {self.id}: capacity must be > 0")
        if self.cost_coefficient <= 0:
            raise ValueError(f"truck {self.id}: cost coefficient must be > 0")


@dataclass(frozen=True)
class InstanceMeta:
    sample: str = ""
    k: float = 0.0
    m: int = 0
    n: int = 0
    seed: int = 0


@dataclass(frozen=True)
class Instance:
    graph: LocationGraph
    requests: tuple[Request, ...]
    trucks: tuple[Truck, ...]
    meta: InstanceMeta = field(default_factory=InstanceMeta)

    def __post_init__(self):
        """Request and truck ids are 0..n-1 and 0..m-1 in order, endpoints
        lie in the graph, and every cost matrix is |V|x|V|."""
        nv = self.graph.num_nodes
        if [r.id for r in self.requests] != list(range(len(self.requests))):
            raise StructuralError("request ids must be 0..n-1 in order")
        if [t.id for t in self.trucks] != list(range(len(self.trucks))):
            raise StructuralError("truck ids must be 0..m-1 in order")
        for r in self.requests:
            if not (0 < r.pickup < nv and 0 < r.dropoff < nv):
                raise StructuralError(f"request {r.id}: endpoint outside graph")
        for t in self.trucks:
            if t.cost_matrix is not None and (len(t.cost_matrix) != nv or any(
                    len(row) != nv for row in t.cost_matrix)):
                raise StructuralError(f"truck {t.id}: cost matrix is not {nv}x{nv}")

    def arc_cost(self, truck: Truck, o: int, d: int) -> float:
        if truck.cost_matrix is not None:
            return truck.cost_matrix[o][d]
        return truck.cost_coefficient * self.graph.distance(o, d)

    def arc_costs(self, truck: Truck) -> list[list[float]]:
        """arc_cost(truck, o, d) for every origin o (rows) and destination d."""
        if truck.cost_matrix is not None:
            return [list(row) for row in truck.cost_matrix]
        coefficient = truck.cost_coefficient
        return [[coefficient * dist for dist in row] for row in self.graph.distances]

    def request_by_id(self, rid: int) -> Request:
        if not (0 <= rid < len(self.requests)):
            raise StructuralError(f"unknown request id {rid}")
        return self.requests[rid]

    def truck_by_id(self, tid: int) -> Truck:
        if not (0 <= tid < len(self.trucks)):
            raise StructuralError(f"unknown truck id {tid}")
        return self.trucks[tid]


@dataclass(frozen=True)
class TruckPlan:
    """One truck's share of a solution: its request set and depot-rooted route.

    The route is the ordered cycle of node ids including the leading and
    trailing depot (e.g. (0, 2, 5, 0)); empty tuple when nothing is served.
    """

    truck_id: int
    delivery: frozenset[int]
    route: tuple[int, ...]


@dataclass(frozen=True)
class DeliveryRoutingSolution:
    plans: tuple[TruckPlan, ...]

    def plan_for(self, truck_id: int) -> Optional[TruckPlan]:
        for p in self.plans:
            if p.truck_id == truck_id:
                return p
        return None


class ViolationKind(Enum):
    NOT_CYCLE = "NotCycle"
    REPEATED_NODE = "RepeatedNode"
    MISSING_NODE = "MissingNode"
    PRECEDENCE_VIOLATED = "PrecedenceViolated"
    CAPACITY_EXCEEDED = "CapacityExceeded"
    NEGATIVE_LOAD = "NegativeLoad"
    DUPLICATE_ASSIGNMENT = "DuplicateAssignment"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    witness: int  # offending node or request id
    detail: str = ""

    def __str__(self):
        return f"{self.kind.value}({self.witness}){': ' + self.detail if self.detail else ''}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[ViolationKind]:
        return {v.kind for v in self.violations}


def xi(solution: DeliveryRoutingSolution, instance: Instance) -> float:
    """Total payments of served requests minus total arc costs; a route node
    outside the graph is a StructuralError. Does not check feasibility."""
    total = 0.0
    for plan in solution.plans:
        truck = instance.truck_by_id(plan.truck_id)
        for rid in plan.delivery:
            total += instance.request_by_id(rid).w
        for v in plan.route:
            if not (0 <= v < instance.graph.num_nodes):
                raise StructuralError(f"unknown node id {v}")
        for o, d in zip(plan.route, plan.route[1:]):
            total -= instance.arc_cost(truck, o, d)
    return total


def _route_violations(delivery_nodes: set[int], route: tuple[int, ...]) -> list[Violation]:
    if len(route) < 3 or route[0] != 0 or route[-1] != 0:
        return [Violation(ViolationKind.NOT_CYCLE, route[0] if route else 0,
                          "route must start and end at the depot")]
    out: list[Violation] = []
    interior = route[1:-1]
    if 0 in interior:
        out.append(Violation(ViolationKind.REPEATED_NODE, 0, "depot revisited mid-route"))
    seen: set[int] = set()
    for v in interior:
        if v in seen:
            out.append(Violation(ViolationKind.REPEATED_NODE, v))
        seen.add(v)
    for v in delivery_nodes:
        if v != 0 and v not in seen:
            out.append(Violation(ViolationKind.MISSING_NODE, v))
    return out


def validate_route(truck: Truck, delivery: frozenset[int] | set[int],
                   route: tuple[int, ...], instance: Instance) -> ValidationReport:
    """Check one truck's plan: single depot cycle covering all pickup/dropoff
    nodes (extra transit nodes allowed, each at most once), pickup before
    dropoff per request, and running net load within [0, capacity].

    Loading and unloading at the same stop are netted, which is exactly as
    permissive as the encoders' load-tracking constraints.
    """
    if not delivery and not route:
        return ValidationReport(())
    requests = [instance.request_by_id(rid) for rid in sorted(delivery)]
    needed = {0}
    for r in requests:
        needed.add(r.pickup)
        needed.add(r.dropoff)
    violations = _route_violations(needed, route)
    if violations:
        return ValidationReport(tuple(violations))
    interior = route[1:-1]
    position = {v: i for i, v in enumerate(interior)}
    net = [0] * len(interior)  # the load each stop adds
    for r in requests:
        pickup, dropoff = position[r.pickup], position[r.dropoff]
        if pickup >= dropoff:
            violations.append(Violation(ViolationKind.PRECEDENCE_VIOLATED, r.id,
                                        f"dropoff {r.dropoff} before pickup {r.pickup}"))
        net[pickup] += r.q
        net[dropoff] -= r.q
    load = 0
    for v, change in zip(interior, net):
        load += change
        if load > truck.capacity:
            violations.append(Violation(ViolationKind.CAPACITY_EXCEEDED, v,
                                        f"load {load} > capacity {truck.capacity}"))
        if load < 0:
            violations.append(Violation(ViolationKind.NEGATIVE_LOAD, v, f"load {load}"))
    return ValidationReport(tuple(violations))


def validate_solution(solution: DeliveryRoutingSolution, instance: Instance) -> ValidationReport:
    """Aggregate per-truck checks plus the disjoint-partition check; a truck
    given two plans is a StructuralError."""
    violations: list[Violation] = []
    assigned: set[int] = set()
    planned: set[int] = set()
    for plan in solution.plans:
        truck = instance.truck_by_id(plan.truck_id)
        if plan.truck_id in planned:
            raise StructuralError(f"truck {plan.truck_id} has two plans")
        planned.add(plan.truck_id)
        for rid in sorted(plan.delivery):
            instance.request_by_id(rid)
            if rid in assigned:
                violations.append(Violation(ViolationKind.DUPLICATE_ASSIGNMENT, rid))
            assigned.add(rid)
        report = validate_route(truck, plan.delivery, plan.route, instance)
        violations.extend(report.violations)
    return ValidationReport(tuple(violations))
