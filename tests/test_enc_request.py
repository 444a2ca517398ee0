import hashlib

import pytest

from conftest import columns_of
from ppdsp.enc_location import DecodeError, encode_location, x_name
from ppdsp.enc_request import (build_graph_map, decode_request, encode_request,
                               predicted_counts_request)
from ppdsp.instgen import generate_family, grid_instance
from ppdsp.mipir import census, emit_lp


class TestGraphMap:
    def test_layout(self, golden_instance):
        gmap = build_graph_map(golden_instance)
        assert gmap.num_nodes == 8
        # pickups 1..3 carry +q, dropoffs 4..6 carry -q, depots carry 0
        assert gmap.location_of == (0, 1, 1, 2, 3, 2, 3, 0)
        assert gmap.volume_of == (0, 4, 2, 1, -4, -2, -1, 0)
        assert gmap.is_pickup(2) and gmap.is_dropoff(5)
        assert gmap.request_of(2) == 1 and gmap.request_of(5) == 1
        with pytest.raises(ValueError):
            gmap.request_of(0)


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
        solution, raw = decode_request(encoding, values)
        p0 = solution.plan_for(0)
        assert p0.delivery == frozenset({0, 1})
        assert p0.route == (0, 1, 2, 3, 0)  # nodes 1,2 collapse to location a
        assert raw[0] == (0, 1, 2, 5, 4, 7)
        p1 = solution.plan_for(1)
        assert p1.delivery == frozenset({2}) and p1.route == (0, 2, 3, 0)

    def test_idle_truck_direct_drive(self, golden_instance):
        encoding = encode_request(golden_instance)
        values = assignment_for_paths(encoding, {0: (0, 7), 1: (0, 7)})
        solution, raw = decode_request(encoding, values)
        assert solution.plan_for(0).route == ()
        assert raw[0] == (0, 7)

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
