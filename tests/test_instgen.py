import hashlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import data_path
from ppdsp.core import LocationGraph
from ppdsp.instgen import (GenRng, InfeasibleRepetition, PairingStalled,
                           ParseError, TsplibSample, average_distance,
                           generate_family, make_fleet, num_requests, pair_nodes,
                           parse_instance, parse_tsplib, repetition_counts,
                           round_half_up, serialize_instance, sort_pairs)


def feasible_pairing(counts, n, rng):
    """Draw a pairing, discarding hypothesis examples whose random count
    vector admits no valid pairing (e.g. one node holding most counts)."""
    try:
        return pair_nodes(counts, n, rng, reshuffle_cap=20000)
    except PairingStalled:
        assume(False)

TSPLIB_MINI = """NAME: mini
TYPE: TSP
DIMENSION: 4
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 3.0 0.0
3 0.0 4.0
4 3.0 4.0
EOF
"""


class TestRounding:
    def test_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.49) == 1
        assert round_half_up(2.5) == 3
        assert round_half_up(-0.5) == 0

    @pytest.mark.parametrize("nv,k,n", [
        (14, 1, 7), (14, 1.5, 10), (14, 2, 13), (14, 2.5, 16), (14, 3, 20),
        (16, 1, 8), (22, 1, 11), (4, 1, 2),
    ])
    def test_num_requests(self, nv, k, n):
        assert num_requests(nv, k) == n


class TestParseTsplib:
    def test_mini(self):
        sample = parse_tsplib(TSPLIB_MINI)
        assert sample.name == "mini"
        assert len(sample.coords) == 4
        assert sample.coords[1] == (3.0, 0.0)

    def test_fixtures(self, burma14, ulysses16, ulysses22):
        assert len(burma14.coords) == 14
        assert len(ulysses16.coords) == 16
        assert len(ulysses22.coords) == 22

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError):
            parse_tsplib(TSPLIB_MINI.replace("DIMENSION: 4", "DIMENSION: 5"))

    def test_duplicate_index(self):
        with pytest.raises(ParseError):
            parse_tsplib(TSPLIB_MINI.replace("2 3.0 0.0", "1 3.0 0.0"))

    def test_missing_section(self):
        with pytest.raises(ParseError):
            parse_tsplib("NAME: x\nDIMENSION: 3\nEOF\n")

    def test_bad_row(self):
        with pytest.raises(ParseError):
            parse_tsplib(TSPLIB_MINI.replace("2 3.0 0.0", "2 3.0"))

    def test_sample_of_two_rows_refused(self):
        # the one place the at-least-3-rows rule lives; parse_tsplib reaches it too
        with pytest.raises(ParseError,
                           match="^TooFewNodes: need at least 3 coordinate rows$"):
            TsplibSample(name="two", coords=((0.0, 0.0), (1.0, 0.0)))


class TestRepetitionCounts:
    @given(nv=st.integers(3, 21), extra=st.integers(0, 30),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sum_and_floor(self, nv, extra, seed):
        n = -(-nv // 2) + extra  # ceil(nv/2) guarantees 2n >= nv
        counts = repetition_counts(nv, n, GenRng(seed))
        assert sum(counts) == 2 * n
        assert min(counts) >= 1

    def test_too_few_requests(self):
        with pytest.raises(InfeasibleRepetition):
            repetition_counts(10, 4, GenRng(0))


class TestPairNodes:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pairs_match_counts(self, seed):
        rng = GenRng(seed)
        counts = repetition_counts(5, 6, rng)
        pairs = feasible_pairing(counts, 6, rng)
        assert len(pairs) == 6
        assert len(set(pairs)) == 6
        used = [0] * 5
        for a, b in pairs:
            assert a != b
            used[a] += 1
            used[b] += 1
        assert used == counts

    def test_count_sum_checked(self):
        with pytest.raises(ValueError):
            pair_nodes([1, 1, 1], 4, GenRng(0))


class TestSortPairs:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_and_coverage(self, seed):
        rng = GenRng(seed)
        counts = repetition_counts(6, 8, rng)
        pairs = feasible_pairing(counts, 8, rng)
        sorted_pairs = sort_pairs(counts, pairs)
        assert sorted(sorted_pairs) == sorted(pairs)
        # last-occurrence pairs all land in the ordering, and every node
        # appears somewhere in the full list
        covered = {v for p in sorted_pairs for v in p}
        assert covered == set(range(6))


class TestGeneration:
    def test_fleet_classes_cycle(self):
        fleet = make_fleet(5)
        assert [(t.capacity, t.cost_coefficient) for t in fleet] == [
            (25, 1.2), (20, 1.0), (15, 0.8), (25, 1.2), (20, 1.0)]

    def test_average_distance_mini(self):
        g = LocationGraph(coords=((0.0, 0.0), (3.0, 0.0), (0.0, 4.0), (3.0, 4.0)))
        # pairs: 3,4,5 each twice per direction over 12 ordered pairs
        assert average_distance(g) == pytest.approx((3 + 4 + 5) / 3)

    def test_generate_sizes(self, burma14):
        inst = generate_family(burma14, [1], 2, seed=7)[1]
        assert len(inst.requests) == 7
        assert len(inst.trucks) == 2
        assert inst.meta.sample == "burma14"
        for r in inst.requests:
            assert 1 <= r.pickup < 14 and 1 <= r.dropoff < 14
            assert r.pickup != r.dropoff
            assert r.q >= 1 and r.w >= 0

    def test_family_nests_by_prefix(self, burma14):
        family = generate_family(burma14, [1, 2, 3], 2, seed=11)
        small, mid, big = family[1], family[2], family[3]
        assert [len(i.requests) for i in (small, mid, big)] == [7, 13, 20]
        for a, b in ((small, mid), (mid, big)):
            for ra, rb in zip(a.requests, b.requests):
                assert (ra.pickup, ra.dropoff) == (rb.pickup, rb.dropoff)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_determinism(self, seed, burma14):
        a = generate_family(burma14, [1.5], 3, seed)[1.5]
        b = generate_family(burma14, [1.5], 3, seed)[1.5]
        assert serialize_instance(a) == serialize_instance(b)

    def test_repeated_k_refused(self, burma14):
        # a second draw for k=1 would shift the requests of every later k
        with pytest.raises(ValueError, match="k=1 is given twice"):
            generate_family(burma14, [1, 2, 1.0], 2, seed=0)

    def test_different_seeds_differ(self, burma14):
        a = generate_family(burma14, [1], 2, seed=1)[1]
        b = generate_family(burma14, [1], 2, seed=2)[1]
        assert serialize_instance(a) != serialize_instance(b)


class TestSerialization:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip(self, seed, burma14):
        inst = generate_family(burma14, [2], 4, seed)[2]
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text

    def test_golden_round_trip(self, golden_instance):
        text = serialize_instance(golden_instance)
        assert parse_instance(text) == golden_instance

    @pytest.mark.parametrize("k, digest", [
        (1, "a4d7aca0dcac6bdb64fbb6c3cf1159ae45fa40b16305c6154dc688a50196e5b2"),
        (3, "ad9730ddd4a53352423bd6e3cdfd755a87fc86cc6ee644142dfa470b1a4494de"),
    ])
    def test_canonical_bytes_pinned(self, burma14, k, digest):
        text = serialize_instance(generate_family(burma14, [1, 3], 2, 7)[k])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_fixture_file_is_its_own_serialization(self):
        with open(data_path("threereq.instance")) as fh:
            text = fh.read()
        assert serialize_instance(parse_instance(text)) == text

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_instance('{"meta": {"sample": "x"}}')

    def test_not_json(self):
        with pytest.raises(ParseError):
            parse_instance("not json at all")
