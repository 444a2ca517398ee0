import dataclasses
import functools
import math

import pytest

from conftest import small_random_instance
from ppdsp.core import (DeliveryRoutingSolution, Instance, LocationGraph,
                        Request, StructuralError, Truck, TruckPlan,
                        Violation, ViolationKind, validate_route,
                        validate_solution, xi)
from ppdsp.harness import oracle


def plan(truck_id, delivery, route):
    return TruckPlan(truck_id=truck_id, delivery=frozenset(delivery),
                     route=tuple(route))


class TestTypes:
    def test_distance_is_euclidean(self):
        g = LocationGraph(coords=((0.0, 0.0), (3.0, 4.0)))
        assert g.distance(0, 1) == pytest.approx(5.0)
        assert g.distance(1, 1) == 0.0

    def test_graph_needs_two_nodes(self):
        with pytest.raises(ValueError):
            LocationGraph(coords=((0.0, 0.0),))

    def test_request_invariants(self):
        with pytest.raises(ValueError):
            Request(id=0, w=-1.0, q=1, pickup=1, dropoff=2)
        with pytest.raises(ValueError):
            Request(id=0, w=1.0, q=0, pickup=1, dropoff=2)
        with pytest.raises(ValueError):
            Request(id=0, w=1.0, q=1, pickup=2, dropoff=2)
        with pytest.raises(ValueError):
            Request(id=0, w=1.0, q=1, pickup=0, dropoff=2)

    def test_truck_invariants(self):
        with pytest.raises(ValueError):
            Truck(id=0, capacity=0, cost_coefficient=1.0)
        with pytest.raises(ValueError):
            Truck(id=0, capacity=5, cost_coefficient=0.0)

    def test_instance_rejects_out_of_graph_endpoints(self):
        g = LocationGraph(coords=((0.0, 0.0), (1.0, 0.0)))
        r = Request(id=0, w=1.0, q=1, pickup=1, dropoff=2)
        with pytest.raises(StructuralError):
            Instance(graph=LocationGraph(coords=((0.0, 0.0), (1.0, 0.0))),
                     requests=(r,), trucks=(Truck(0, 5, 1.0),))
        del g

    def test_arc_cost_prefers_matrix(self, golden_instance):
        t0 = golden_instance.trucks[0]
        assert golden_instance.arc_cost(t0, 1, 3) == 7.0
        plain = Truck(id=9, capacity=5, cost_coefficient=2.0)
        assert golden_instance.arc_cost(plain, 0, 1) == pytest.approx(
            2.0 * golden_instance.graph.distance(0, 1))

    def test_lookup_errors(self, golden_instance):
        with pytest.raises(StructuralError):
            golden_instance.request_by_id(99)
        with pytest.raises(StructuralError):
            golden_instance.truck_by_id(-1)


class TestXi:
    def test_golden_optimum_value(self, golden_instance):
        solution = DeliveryRoutingSolution(plans=(
            plan(0, {0, 1}, (0, 1, 2, 3, 0)),
            plan(1, {2}, (0, 2, 3, 0))))
        assert xi(solution, golden_instance) == 11.0

    def test_empty_solution_is_zero(self, golden_instance):
        solution = DeliveryRoutingSolution(plans=(plan(0, (), ()), plan(1, (), ())))
        assert xi(solution, golden_instance) == 0.0

    def test_unknown_node_raises(self, golden_instance):
        solution = DeliveryRoutingSolution(plans=(plan(0, (), (0, 9, 0)),))
        with pytest.raises(StructuralError):
            xi(solution, golden_instance)

    @pytest.mark.parametrize("node", [99, -1])
    def test_one_node_route_outside_the_graph_raises(self, golden_instance, node):
        solution = DeliveryRoutingSolution(plans=(plan(0, (), (node,)),))
        with pytest.raises(StructuralError, match=f"unknown node id {node}"):
            xi(solution, golden_instance)


class TestValidateRoute:
    def test_clean_route(self, golden_instance):
        report = validate_route(golden_instance.trucks[0], {0, 1},
                                (0, 1, 2, 3, 0), golden_instance)
        assert report.ok

    def test_not_a_cycle(self, golden_instance):
        report = validate_route(golden_instance.trucks[0], {2}, (0, 2, 3),
                                golden_instance)
        assert ViolationKind.NOT_CYCLE in report.kinds()

    def test_repeated_node(self, golden_instance):
        report = validate_route(golden_instance.trucks[0], {2}, (0, 2, 3, 2, 0),
                                golden_instance)
        assert ViolationKind.REPEATED_NODE in report.kinds()

    def test_depot_revisited_mid_route(self, golden_instance):
        report = validate_route(golden_instance.trucks[0], set(), (0, 1, 0, 2, 0),
                                golden_instance)
        assert report.violations == (Violation(ViolationKind.REPEATED_NODE, 0,
                                               "depot revisited mid-route"),)

    def test_missing_node(self, golden_instance):
        report = validate_route(golden_instance.trucks[0], {0}, (0, 1, 2, 0),
                                golden_instance)
        assert ViolationKind.MISSING_NODE in report.kinds()

    def test_precedence(self, golden_instance):
        report = validate_route(golden_instance.trucks[0], {2}, (0, 3, 2, 0),
                                golden_instance)
        assert ViolationKind.PRECEDENCE_VIOLATED in report.kinds()

    def test_capacity_is_netted_per_stop(self, golden_instance):
        # truck 0 (capacity 6) carrying all three requests peaks at 7 while
        # loading at b, but the per-stop net load stays at 5
        report = validate_route(golden_instance.trucks[0], {0, 1, 2},
                                (0, 1, 2, 3, 0), golden_instance)
        assert report.ok

    def test_capacity_exceeded(self, golden_instance):
        # truck 1 has capacity 3; request 0 alone has volume 4
        report = validate_route(golden_instance.trucks[1], {0}, (0, 1, 3, 0),
                                golden_instance)
        assert ViolationKind.CAPACITY_EXCEEDED in report.kinds()

    def test_transit_node_is_allowed(self, golden_instance):
        report = validate_route(golden_instance.trucks[0], {2}, (0, 1, 2, 3, 0),
                                golden_instance)
        assert report.ok

    def test_empty_delivery_empty_route_ok(self, golden_instance):
        assert validate_route(golden_instance.trucks[0], set(), (),
                              golden_instance).ok

    @pytest.mark.parametrize("capacity, shown", [
        (3, ["CapacityExceeded(1): load 6 > capacity 3",
             "CapacityExceeded(2): load 4 > capacity 3"]),
        (6, []),
    ], ids=["capacity-3", "capacity-6"])
    def test_running_net_loads(self, golden_instance, capacity, shown):
        # +q0+q1 at a, -q1 at b, -q0 at c: the running loads are 6, 4 and 0
        report = validate_route(Truck(0, capacity, 1.0), {0, 1}, (0, 1, 2, 3, 0),
                                golden_instance)
        assert [str(v) for v in report.violations] == shown


class TestValidateSolution:
    def test_duplicate_assignment(self, golden_instance):
        solution = DeliveryRoutingSolution(plans=(
            plan(0, {2}, (0, 2, 3, 0)),
            plan(1, {2}, (0, 2, 3, 0))))
        report = validate_solution(solution, golden_instance)
        assert ViolationKind.DUPLICATE_ASSIGNMENT in report.kinds()

    def test_clean_solution(self, golden_instance):
        solution = DeliveryRoutingSolution(plans=(
            plan(0, {0, 1}, (0, 1, 2, 3, 0)),
            plan(1, {2}, (0, 2, 3, 0))))
        assert validate_solution(solution, golden_instance).ok

    def test_one_truck_given_two_plans(self, golden_instance):
        # each plan alone is clean, so only the repeated truck id can refuse it
        solution = DeliveryRoutingSolution(plans=(
            plan(0, {0}, (0, 1, 3, 0)),
            plan(0, {2}, (0, 2, 3, 0))))
        with pytest.raises(StructuralError, match="truck 0 has two plans"):
            validate_solution(solution, golden_instance)


def test_xi_is_finite_float(golden_instance):
    solution = DeliveryRoutingSolution(plans=(plan(1, {2}, (0, 2, 3, 0)),))
    value = xi(solution, golden_instance)
    assert isinstance(value, float) and math.isfinite(value)


# criterion 4's oracle-sized instances
CRITERION_4_SEEDS = range(20)


@functools.cache
def netted_optimum(seed):
    """(instance, value, plan) of the netted-rule oracle on the instance of
    `seed`: the exact optimum of the location-based MIP."""
    instance = small_random_instance(seed)
    return (instance, *oracle(instance, "location", capacity_rule="netted"))


def with_route(plans, i, route):
    return plans[:i] + (dataclasses.replace(plans[i], route=route),) + plans[i + 1:]


# one edit to the plan of truck `i`, which serves `request`, and the kind of
# violation it must cause: (kind, edit(plans, i, request) -> plans)
PLAN_EDITS = {
    "swap its pickup and dropoff stops": (
        ViolationKind.PRECEDENCE_VIOLATED,
        lambda plans, i, request: with_route(plans, i, tuple(
            request.dropoff if v == request.pickup
            else request.pickup if v == request.dropoff else v
            for v in plans[i].route))),
    "drop its pickup stop": (
        ViolationKind.MISSING_NODE,
        lambda plans, i, request: with_route(
            plans, i, tuple(v for v in plans[i].route if v != request.pickup))),
    "repeat an interior stop": (
        ViolationKind.REPEATED_NODE,
        lambda plans, i, request: with_route(
            plans, i, plans[i].route[:2] + plans[i].route[1:])),
    "drop the closing depot": (
        ViolationKind.NOT_CYCLE,
        lambda plans, i, request: with_route(plans, i, plans[i].route[:-1])),
    "give it to a second truck too": (
        ViolationKind.DUPLICATE_ASSIGNMENT,
        lambda plans, i, request: tuple(
            dataclasses.replace(p, delivery=p.delivery | {request.id})
            if j == (i + 1) % len(plans) else p for j, p in enumerate(plans))),
}


class TestOracleProperties:
    @pytest.mark.parametrize("seed", CRITERION_4_SEEDS)
    def test_netted_optimum_is_valid_and_scores_its_value(self, seed):
        instance, value, solution = netted_optimum(seed)
        assert validate_solution(solution, instance).ok
        assert xi(solution, instance) == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("kind, edit", PLAN_EDITS.values(), ids=PLAN_EDITS)
    def test_single_edit_gives_its_violation(self, kind, edit):
        edited = 0
        for seed in CRITERION_4_SEEDS:
            instance, _, solution = netted_optimum(seed)
            for i, served in enumerate(solution.plans):
                for rid in sorted(served.delivery):
                    plans = edit(solution.plans, i, instance.requests[rid])
                    report = validate_solution(DeliveryRoutingSolution(plans), instance)
                    assert kind in report.kinds(), (seed, i, rid, report)
                    edited += 1
        assert edited >= 20  # most of the 20 optima serve a request
