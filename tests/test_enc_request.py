import dataclasses
import hashlib

import pytest

from conftest import columns_of
from ppdsp.core import TruckPlan, validate_solution, xi
from ppdsp.enc_location import DecodeError, encode_location, x_name
from ppdsp.enc_request import (decode_request, encode_request, predicted_counts_request,
                               request_graph)
from ppdsp.instgen import generate_family, grid_instance
from ppdsp.mipir import census, emit_lp


class TestRequestGraphLayout:
    def test_layout(self, golden_instance):
        graph, location_of = request_graph(golden_instance)
        assert graph.graph.num_nodes == 8
        assert location_of == (0, 1, 1, 2, 3, 2, 3, 0)
        # request r runs from pickup node r+1 to dropoff node r+n+1
        assert [(r.pickup, r.dropoff) for r in graph.requests] == [(1, 4), (2, 5), (3, 6)]
        assert [(r.w, r.q) for r in graph.requests] == \
            [(r.w, r.q) for r in golden_instance.requests]
        # pickups 1..3 load +q (h from q up), dropoffs 4..6 unload (h up to
        # capacity 6 - q), depots carry 0
        model = encode_request(golden_instance).model
        boxes = [(h.lower, h.upper) for h in (columns_of(model, f"h_t0_v{v}")
                                              for v in range(8))]
        assert boxes == [(0, 6), (4, 6), (2, 6), (1, 6), (0, 2), (0, 4), (0, 5), (0, 6)]

    @pytest.mark.parametrize("name", ["golden", "burma14-k3-m2"])
    def test_arc_costs_read_at_the_locations(self, name, request):
        instance = TestLpBytes.INSTANCES[name](request)
        graph, location_of = request_graph(instance)
        nodes = range(graph.graph.num_nodes)
        for t, graph_truck in zip(instance.trucks, graph.trucks):
            assert [[graph.arc_cost(graph_truck, o, d) for d in nodes] for o in nodes] == \
                [[instance.arc_cost(t, location_of[o], location_of[d]) for d in nodes]
                 for o in nodes]

    @pytest.mark.parametrize("name, paths", [
        ("golden", {0: (0, 1, 2, 5, 4, 7), 1: (0, 3, 6, 7)}),
        ("golden", {0: (0, 2, 5, 7), 1: (0, 7)}),
        ("burma14-k3-m2", {0: (0, 1, 2, 21, 22, 41), 1: (0, 3, 23, 41)}),
    ])
    def test_xi_over_the_graph_is_xi_over_the_instance(self, name, paths, request):
        instance = TestLpBytes.INSTANCES[name](request)
        encoding = encode_request(instance)
        solution, graph_solution = decode_request(encoding,
                                                  assignment_for_paths(encoding, paths))
        assert xi(graph_solution, encoding.graph) == pytest.approx(xi(solution, instance))


class TestCensus:
    @pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (5, 3), (8, 2), (12, 4)])
    def test_census_matches_formula(self, n, m):
        inst = grid_instance(6, n, m)
        assert census(encode_request(inst).model) == predicted_counts_request(n, m)

    def test_census_independent_of_graph_size(self):
        counts = {census(encode_request(grid_instance(nv, 4, 2)).model)
                  for nv in (5, 9, 14)}
        assert counts == {predicted_counts_request(4, 2)}

    @pytest.mark.parametrize("n,m,expected", [
        (7, 2, (576, 1027)),
        (8, 2, (720, 1300)),
        (11, 2, (1248, 2311)),
        (11, 10, (6240, 11511)),
    ])
    def test_published_shapes(self, n, m, expected):
        assert predicted_counts_request(n, m) == expected
        inst = grid_instance(14, n, m)
        assert census(encode_request(inst).model) == expected


class TestModelShape:
    def test_speedup_fixings(self, golden_instance):
        model = encode_request(golden_instance).model
        upper = lambda name: columns_of(model, name).upper
        assert upper(x_name(0, 0, 4)) == 0.0  # depot straight to a dropoff
        assert upper(x_name(0, 1, 7)) == 0.0  # pickup straight to end
        assert upper(x_name(0, 4, 0)) == 0.0  # return to start depot
        assert upper(x_name(0, 7, 1)) == 0.0  # departure from end depot
        assert upper(x_name(0, 0, 7)) == 1.0  # idle drive stays open

    def test_oversized_request_is_barred_not_infeasible(self, golden_instance):
        # request 0 (q=4) exceeds truck 1's capacity 3: every truck-1 arc
        # touching its nodes is fixed to 0 and the load box is relaxed
        model = encode_request(golden_instance).model
        assert columns_of(model, x_name(1, 0, 1)).upper == 0.0
        assert columns_of(model, x_name(1, 4, 7)).upper == 0.0
        h = columns_of(model, "h_t1_v1")
        assert (h.lower, h.upper) == (0.0, 3.0)
        # reachable pickup keeps the verbatim box
        h = columns_of(model, "h_t1_v2")
        assert (h.lower, h.upper) == (2.0, 3.0)

    def test_barred_load_rows_stay_satisfiable(self, golden_instance):
        model = encode_request(golden_instance).model
        # both directions between two barred-for-t1 nodes must admit h in [0,3]
        assert columns_of(model, "ca9_t1_o1_d4").rhs <= 0.0
        assert columns_of(model, "ca9_t1_o4_d1").rhs <= 0.0

    def test_objective_merges_payment_into_departure_arcs(self, golden_instance):
        model = encode_request(golden_instance).model
        inst = golden_instance
        # leaving pickup node 1 (request 0, at location a) toward node 3
        # (pickup of request 2 at location b) pays w0 minus cost(a,b)
        expected = inst.requests[0].w - inst.arc_cost(inst.trucks[0], 1, 2)
        assert columns_of(model, x_name(0, 1, 3)).objective == pytest.approx(expected)

    def test_emit_is_deterministic(self, golden_instance):
        a = emit_lp(encode_request(golden_instance).model)
        b = emit_lp(encode_request(golden_instance).model)
        assert a == b


class TestLpBytes:
    """Both encoders' LP text, pinned by digest: m = 2 and 3, and the u and h
    families with and without a depot copy."""

    INSTANCES = {
        "golden": lambda request: request.getfixturevalue("golden_instance"),
        "grid-6-5-3": lambda request: grid_instance(6, 5, 3),
        "burma14-k3-m2": lambda request: generate_family(
            request.getfixturevalue("burma14"), [3], 2, 0)[3],
    }

    @pytest.mark.parametrize("name, encode, digest", [
        ("golden", encode_location,
         "8e22f6e0c6a6259006df346d74ac6e54d86fbda35934495ab0c23b41f03a8334"),
        ("golden", encode_request,
         "aab0bd453984e73802b43613a772596136edf05f02884de4e451f2bd3dc4d122"),
        ("grid-6-5-3", encode_location,
         "ff5c6f30a07c85c1b0ffd8c767533521e71db8697a540f097d034c223647f354"),
        ("grid-6-5-3", encode_request,
         "665625a60ce8ba9521ec919f80e7ce9bed24ab476e0bae4b7cb8eaf9f7cb715d"),
        ("burma14-k3-m2", encode_location,
         "3c183477641ec52ff9ff4bb87da6099bc86e0fb2b3af163d93695de1d9ac33b7"),
        ("burma14-k3-m2", encode_request,
         "a07fdf895f2444addba2f03031c8f3615fc3eedbdbc36807dcc7be2607337b31"),
    ], ids=[f"{name}-{form}" for name in INSTANCES for form in ("loc", "req")])
    def test_lp_digest(self, request, name, encode, digest):
        text = emit_lp(encode(self.INSTANCES[name](request)).model)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def assignment_for_paths(encoding, paths):
    values = dict.fromkeys(encoding.model.names, 0.0)
    for t, path in paths.items():
        for o, d in zip(path, path[1:]):
            values[x_name(t, o, d)] = 1.0
    return values


class TestDecode:
    def test_round_trip_with_collapse(self, golden_instance):
        encoding = encode_request(golden_instance)
        # t0 serves r0,r1 (pickup nodes 1,2 co-located at a), t1 serves r2
        values = assignment_for_paths(encoding, {0: (0, 1, 2, 5, 4, 7),
                                                 1: (0, 3, 6, 7)})
        solution, graph_solution = decode_request(encoding, values)
        p0 = solution.plan_for(0)
        assert p0.delivery == frozenset({0, 1})
        assert p0.route == (0, 1, 2, 3, 0)  # nodes 1,2 collapse to location a
        assert graph_solution.plan_for(0).route == (0, 1, 2, 5, 4, 0)
        p1 = solution.plan_for(1)
        assert p1.delivery == frozenset({2}) and p1.route == (0, 2, 3, 0)

    def test_idle_truck_direct_drive(self, golden_instance):
        encoding = encode_request(golden_instance)
        values = assignment_for_paths(encoding, {0: (0, 7), 1: (0, 7)})
        solution, graph_solution = decode_request(encoding, values)
        assert solution.plan_for(0).route == ()
        assert graph_solution.plan_for(0).route == ()

    def test_missing_departure_rejected(self, golden_instance):
        encoding = encode_request(golden_instance)
        values = assignment_for_paths(encoding, {0: (0, 7)})
        with pytest.raises(DecodeError):
            decode_request(encoding, values)  # truck 1 never leaves the depot

    def test_dead_end_rejected(self, golden_instance):
        encoding = encode_request(golden_instance)
        values = assignment_for_paths(encoding, {0: (0, 1), 1: (0, 7)})
        with pytest.raises(DecodeError):
            decode_request(encoding, values)

    def test_stray_cycle_rejected(self, golden_instance):
        encoding = encode_request(golden_instance)
        values = assignment_for_paths(encoding, {0: (0, 7), 1: (0, 7)})
        values[x_name(0, 1, 2)] = 1.0
        values[x_name(0, 2, 1)] = 1.0
        with pytest.raises(DecodeError):
            decode_request(encoding, values)


class TestRequestGraph:
    def test_raw_paths_over_the_request_graph(self, golden_instance):
        encoding = encode_request(golden_instance)
        _, solution = decode_request(encoding, assignment_for_paths(
            encoding, {0: (0, 1, 2, 5, 4, 7), 1: (0, 7)}))
        graph = encoding.graph
        coords = golden_instance.graph.coords
        assert graph.graph.coords == tuple(coords[v] for v in (0, 1, 1, 2, 3, 2, 3, 0))
        assert [t.capacity for t in graph.trucks] == [6, 3]
        # the end depot 7 becomes depot 0; an idle truck has no route
        assert solution.plans == (TruckPlan(0, frozenset({0, 1}), (0, 1, 2, 5, 4, 0)),
                                  TruckPlan(1, frozenset(), ()))
        assert validate_solution(solution, graph).ok

    def test_a_dropoff_alone_misses_its_pickup(self, golden_instance):
        encoding = encode_request(golden_instance)
        _, solution = decode_request(encoding, assignment_for_paths(
            encoding, {0: (0, 4, 7), 1: (0, 7)}))
        assert solution.plans[0].delivery == frozenset({0})
        assert [str(v) for v in validate_solution(solution, encoding.graph).violations] == \
            ["MissingNode(1)"]

    def test_an_instance_without_requests_audits(self, golden_instance):
        encoding = encode_request(dataclasses.replace(golden_instance, requests=()))
        _, solution = decode_request(encoding, assignment_for_paths(
            encoding, {0: (0, 1), 1: (0, 1)}))
        assert encoding.graph.graph.num_nodes == 2
        assert validate_solution(solution, encoding.graph).ok
