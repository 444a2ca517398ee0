import pytest

from conftest import columns_of
from ppdsp.enc_location import (DecodeError, decode_location, encode_location,
                                predicted_counts_location, x_name, y_name)
from ppdsp.instgen import grid_instance
from ppdsp.mipir import VarKind, census, emit_lp


class TestCensus:
    @pytest.mark.parametrize("nv,n,m", [
        (4, 3, 2), (5, 2, 1), (6, 4, 3), (8, 5, 2), (10, 8, 4), (14, 7, 2),
    ])
    def test_census_matches_formula(self, nv, n, m):
        inst = grid_instance(nv, n, m)
        assert census(encode_location(inst).model) == predicted_counts_location(nv, n, m)

    def test_golden_counts(self, golden_instance):
        encoding = encode_location(golden_instance)
        assert census(encoding.model) == predicted_counts_location(4, 3, 2) == (50, 73)

    @pytest.mark.parametrize("nv,n,m,expected", [
        (14, 7, 2, (458, 1041)),
        (16, 8, 2, (588, 1380)),
        (22, 11, 2, (1074, 2685)),
        (14, 20, 10, (2420, 5580)),
    ])
    def test_published_shapes(self, nv, n, m, expected):
        assert predicted_counts_location(nv, n, m) == expected
        inst = grid_instance(nv, n, m)
        assert census(encode_location(inst).model) == expected


class TestModelShape:
    def test_diagonal_arcs_fixed_to_zero(self, golden_instance):
        model = encode_location(golden_instance).model
        for t in (0, 1):
            for v in range(4):
                assert columns_of(model, x_name(t, v, v)).upper == 0.0

    def test_objective_signs(self, golden_instance):
        model = encode_location(golden_instance).model
        assert columns_of(model, y_name(0, 0)).objective == 13.0
        assert columns_of(model, x_name(0, 1, 3)).objective == -7.0

    def test_u_and_h_bounds(self, golden_instance):
        model = encode_location(golden_instance).model
        u = columns_of(model, "u_t0_v1")
        assert u.kind is VarKind.INTEGER and (u.lower, u.upper) == (0.0, 2.0)
        h = columns_of(model, "h_t1_v2")
        assert h.kind is VarKind.CONTINUOUS and (h.lower, h.upper) == (0.0, 3.0)

    def test_emit_is_deterministic(self, golden_instance):
        a = emit_lp(encode_location(golden_instance).model)
        b = emit_lp(encode_location(golden_instance).model)
        assert a == b


def golden_assignment(encoding):
    """x/y assignment for the plan t0:{r0,r1} 0-1-2-3-0, t1:{r2} 0-2-3-0."""
    values = dict.fromkeys(encoding.model.names, 0.0)
    for t, route in ((0, (0, 1, 2, 3, 0)), (1, (0, 2, 3, 0))):
        for o, d in zip(route, route[1:]):
            values[x_name(t, o, d)] = 1.0
    values[y_name(0, 0)] = 1.0
    values[y_name(0, 1)] = 1.0
    values[y_name(1, 2)] = 1.0
    return values


class TestDecode:
    def test_round_trip(self, golden_instance):
        encoding = encode_location(golden_instance)
        solution = decode_location(encoding, golden_assignment(encoding))
        p0 = solution.plan_for(0)
        p1 = solution.plan_for(1)
        assert p0.delivery == frozenset({0, 1}) and p0.route == (0, 1, 2, 3, 0)
        assert p1.delivery == frozenset({2}) and p1.route == (0, 2, 3, 0)

    def test_idle_truck(self, golden_instance):
        encoding = encode_location(golden_instance)
        values = golden_assignment(encoding)
        for name in list(values):
            if name.startswith("x_t1") or name.startswith("y_t1"):
                values[name] = 0.0
        solution = decode_location(encoding, values)
        assert solution.plan_for(1).route == ()
        assert solution.plan_for(1).delivery == frozenset()

    def test_fractional_value_rejected(self, golden_instance):
        encoding = encode_location(golden_instance)
        values = golden_assignment(encoding)
        values[x_name(0, 0, 1)] = 0.4
        with pytest.raises(DecodeError):
            decode_location(encoding, values)

    def test_dead_end_rejected(self, golden_instance):
        encoding = encode_location(golden_instance)
        values = golden_assignment(encoding)
        values[x_name(0, 2, 3)] = 0.0  # break the cycle mid-way
        with pytest.raises(DecodeError):
            decode_location(encoding, values)

    def test_two_departures_rejected(self, golden_instance):
        encoding = encode_location(golden_instance)
        values = golden_assignment(encoding)
        values[x_name(0, 1, 3)] = 1.0  # node 1 already departs to node 2
        with pytest.raises(DecodeError, match="truck 0: two departures from node 1"):
            decode_location(encoding, values)

    def test_assignment_without_arcs_rejected(self, golden_instance):
        encoding = encode_location(golden_instance)
        values = dict.fromkeys(encoding.model.names, 0.0)
        values[y_name(0, 0)] = 1.0
        with pytest.raises(DecodeError):
            decode_location(encoding, values)
