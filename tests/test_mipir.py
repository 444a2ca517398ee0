import dataclasses
import math
import os
import pkgutil
import subprocess
import sys
from array import array
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppdsp
from ppdsp.mipir import (NEG_INF, POS_INF, MipModel, ModelBuilder, ModelError, Sense,
                         SolutionParseError, VarKind, census, emit_lp,
                         objective_value, parse_solution, place)


def tiny_model() -> MipModel:
    b = ModelBuilder()
    b.add_variables(["x1", "x2"], VarKind.BINARY, [0.0, 0.0], [1.0, 1.0],
                    [3.0, -2.5])
    b.add_variables(["u"], VarKind.INTEGER, [0.0], [4.0], [0.0])
    b.add_variables(["h"], VarKind.CONTINUOUS, [1.0], [6.0], [0.0])
    # columns: x1 0, x2 1, u 2, h 3
    b.add_rows(["r1", "r2", "r3"], [Sense.LE, Sense.GE, Sense.EQ],
               [1.0, -4.0, 1.0], [2, 2, 2], [0, 1, 2, 0, 3, 2],
               [1.0, 1.0, 1.0, -5.0, 1.0, -1.0])
    return b.build()


def columns_model(names, kind, lowers, uppers, rows=(), row_names=None
                  ) -> MipModel:
    """A MipModel made straight from its columns: variables of one kind,
    objective 0, and rows given as column-index lists, all `<= 0` with unit
    coefficients, named r0, r1, ... unless row_names is given."""
    cols = [j for terms in rows for j in terms]
    return MipModel(
        names=list(names), kinds=[kind] * len(names), lowers=list(lowers),
        uppers=list(uppers), objective=[0.0] * len(names),
        row_names=list(row_names or (f"r{i}" for i in range(len(rows)))),
        senses=[Sense.LE] * len(rows), rhs=[0.0] * len(rows),
        row_start=list(accumulate(map(len, rows), initial=0)),
        cols=cols, coefs=[1.0] * len(cols))


def add_free(b: ModelBuilder, *names: str) -> int:
    """Continuous variables on [0, inf) with objective 0; their first column."""
    return b.add_variables(names, VarKind.CONTINUOUS, [0.0] * len(names),
                           [POS_INF] * len(names), [0.0] * len(names))


def add_unit_rows(b: ModelBuilder, names, lengths, cols) -> None:
    """Rows `... <= 1` with unit coefficients."""
    b.add_rows(names, [Sense.LE] * len(names), [1.0] * len(names), lengths,
               cols, [1.0] * len(cols))


class TestInvariants:
    """One variable or one row per model, made straight from columns."""

    def test_bad_variable_name(self):
        with pytest.raises(ModelError, match="illegal variable name '1bad'"):
            columns_model(["1bad"], VarKind.BINARY, [0.0], [1.0])

    @pytest.mark.parametrize("name", ["nan", "Inf", "INFINITY"])
    def test_number_word_is_not_a_name(self, name):
        with pytest.raises(ModelError, match=f"illegal variable name '{name}'"):
            columns_model([name], VarKind.BINARY, [0.0], [1.0])

    @pytest.mark.parametrize("name", ["inflow", "info", "nan_x"])
    def test_name_starting_with_a_number_word(self, name):
        assert columns_model([name], VarKind.BINARY, [0.0], [1.0]).names == [name]

    def test_binary_bounds(self):
        with pytest.raises(ModelError, match="binary variable x has bounds"):
            columns_model(["x"], VarKind.BINARY, [0.0], [2.0])

    def test_crossed_bounds(self):
        with pytest.raises(ModelError, match="variable x: lower bound above upper"):
            columns_model(["x"], VarKind.CONTINUOUS, [3.0], [1.0])

    def test_row_needs_terms(self):
        with pytest.raises(ModelError, match="row r0 has no terms"):
            columns_model(["x"], VarKind.BINARY, [0.0], [1.0], rows=[[]])

    def test_row_rejects_duplicate_variable(self):
        with pytest.raises(ModelError, match="row r0: repeated variable x"):
            columns_model(["x"], VarKind.BINARY, [0.0], [1.0], rows=[[0, 0]])

    def test_model_rejects_undeclared_variable(self):
        b = ModelBuilder()
        add_free(b, "x")
        add_unit_rows(b, ["r"], [1], [1])
        with pytest.raises(ModelError, match="row r references undeclared variable 1"):
            b.build()

    def test_model_rejects_duplicate_variable_names(self):
        b = ModelBuilder()
        add_free(b, "x", "x")
        with pytest.raises(ModelError, match="duplicate variable names"):
            b.build()


# (a refused construction, its message): column lists of unequal length,
# given to the builder or straight to the model
UNEQUAL_COLUMNS = {
    "add_variables": (lambda: ModelBuilder().add_variables(
        ["x", "y"], VarKind.BINARY, [0.0, 0.0], [1.0], [0.0, 0.0]),
        "variable columns differ in length"),
    "add_rows": (lambda: ModelBuilder().add_rows(
        ["r1", "r2"], [Sense.LE], [1.0, 1.0], [1, 1], [0, 0], [1.0, 1.0]),
        "row columns differ in length"),
    "model kinds": (lambda: dataclasses.replace(tiny_model(), kinds=[VarKind.BINARY]),
                    "variable columns differ in length"),
    "model objective": (lambda: dataclasses.replace(tiny_model(), objective=[]),
                        "variable columns differ in length"),
    "model rhs": (lambda: dataclasses.replace(tiny_model(), rhs=[1.0]),
                  "row columns differ in length"),
    "model row_start": (lambda: dataclasses.replace(tiny_model(), row_start=[0, 2, 4]),
                        "row columns differ in length"),
    "model coefs": (lambda: dataclasses.replace(tiny_model(), coefs=[1.0]),
                    "row columns differ in length"),
}


@pytest.mark.parametrize("construct, message", UNEQUAL_COLUMNS.values(),
                         ids=UNEQUAL_COLUMNS)
def test_unequal_column_lists_refused(construct, message):
    with pytest.raises(ModelError, match=message):
        construct()


class TestBuildValidation:
    """The whole-model checks build() runs, one per rule of TestInvariants."""

    @staticmethod
    def builder() -> ModelBuilder:
        b = ModelBuilder()
        b.add_variables(["x", "y"], VarKind.BINARY, [0.0, 0.0], [1.0, 1.0],
                        [0.0, 0.0])
        return b

    def test_illegal_row_name(self):
        b = self.builder()
        add_unit_rows(b, ["1bad"], [1], [0])
        with pytest.raises(ModelError, match="illegal row name '1bad'"):
            b.build()

    def test_illegal_variable_name(self):
        b = self.builder()
        add_free(b, "has space")
        with pytest.raises(ModelError, match="illegal variable name"):
            b.build()

    @pytest.mark.parametrize("name", ["nan", "Inf", "INFINITY"])
    def test_number_word_is_not_a_name(self, name):
        b = self.builder()
        add_free(b, name)
        with pytest.raises(ModelError, match=f"illegal variable name '{name}'"):
            b.build()
        b = self.builder()
        add_unit_rows(b, [name], [1], [0])
        with pytest.raises(ModelError, match=f"illegal row name '{name}'"):
            b.build()

    def test_names_starting_with_a_number_word(self):
        b = self.builder()
        first = add_free(b, "inflow", "info", "nan_x")
        add_unit_rows(b, ["inflow", "info", "nan_x"], [1, 1, 1],
                      [first, first + 1, first + 2])
        model = b.build()
        assert model.names[2:] == ["inflow", "info", "nan_x"]
        assert model.row_names == ["inflow", "info", "nan_x"]

    def test_repeated_variable_in_a_row(self):
        b = self.builder()
        add_unit_rows(b, ["r"], [3], [0, 1, 0])
        with pytest.raises(ModelError, match="row r: repeated variable x"):
            b.build()

    def test_binary_bounds_outside_unit_interval(self):
        b = self.builder()
        b.add_variables(["z"], VarKind.BINARY, [0.0], [2.0], [0.0])
        with pytest.raises(ModelError, match="binary variable z"):
            b.build()

    def test_crossed_bounds(self):
        b = self.builder()
        b.add_variables(["h"], VarKind.CONTINUOUS, [3.0], [1.0], [0.0])
        with pytest.raises(ModelError, match="variable h: lower bound above upper"):
            b.build()

    def test_row_needs_terms(self):
        b = self.builder()
        add_unit_rows(b, ["r"], [0], [])
        with pytest.raises(ModelError, match="row r has no terms"):
            b.build()

    @pytest.mark.parametrize("rhs, coef", [(POS_INF, 1.0), (math.nan, 1.0),
                                           (1.0, NEG_INF), (1.0, math.nan)])
    def test_non_finite_row_number(self, rhs, coef):
        b = self.builder()
        b.add_rows(["r0", "r1"], [Sense.LE] * 2, [1.0, rhs], [1, 2], [0, 0, 1],
                   [1.0, 1.0, coef])
        with pytest.raises(ModelError, match="row r1: coefficient or rhs is not finite"):
            b.build()

    @pytest.mark.parametrize("value", [math.nan, POS_INF, NEG_INF])
    def test_non_finite_objective_coefficient(self, value):
        b = self.builder()
        b.add_variables(["z"], VarKind.CONTINUOUS, [0.0], [1.0], [value])
        with pytest.raises(ModelError,
                           match=f"variable z: objective coefficient {value!r} is not finite"):
            b.build()

    @pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (0.0, math.nan)])
    def test_nan_bound(self, lower, upper):
        b = self.builder()
        b.add_variables(["z"], VarKind.CONTINUOUS, [lower], [upper], [0.0])
        with pytest.raises(ModelError, match="variable z: bound is NaN"):
            b.build()

    def test_infinite_bounds_stay_legal(self):
        b = self.builder()
        add_free(b, "z")
        b.add_variables(["f"], VarKind.CONTINUOUS, [NEG_INF], [POS_INF], [1.0])
        assert "-inf <= f <= +inf" in emit_lp(b.build())

    @pytest.mark.parametrize("width", [2, 3, 4, 9])
    def test_repeat_found_in_a_run_of_bulk_rows(self, width):
        # every row is checked by a set of its terms, narrow or wide: the
        # repeat in the last of many rows of one width must be found
        b = ModelBuilder()
        first = b.add_variables([f"v{j}" for j in range(width)], VarKind.CONTINUOUS,
                                [0.0] * width, [1.0] * width, [0.0] * width)
        rows = 50
        cols = list(range(first, first + width)) * rows
        cols[-1] = cols[-2]
        b.add_rows([f"r{i}" for i in range(rows)], [Sense.LE] * rows,
                   [1.0] * rows, [width] * rows, cols, [1.0] * (width * rows))
        with pytest.raises(ModelError, match=f"row r{rows - 1}: repeated variable"):
            b.build()

    def test_bulk_row_column_out_of_range(self):
        b = self.builder()
        b.add_rows(["r"], [Sense.LE], [1.0], [2], [0, 2], [1.0, 1.0])
        with pytest.raises(ModelError, match="row r references undeclared"):
            b.build()

    def test_bulk_lengths_must_cover_the_terms(self):
        b = self.builder()
        with pytest.raises(ModelError):
            b.add_rows(["r"], [Sense.LE], [1.0], [1], [0, 1], [1.0, 1.0])

    def test_bulk_build_matches_row_by_row(self):
        # the same rows as tiny_model(), their columns laid out by place
        bulk = ModelBuilder()
        first = bulk.add_variables(["x1", "x2"], VarKind.BINARY, [0.0, 0.0],
                                   [1.0, 1.0], [3.0, -2.5])
        bulk.add_variables(["u"], VarKind.INTEGER, [0.0], [4.0], [0.0])
        bulk.add_variables(["h"], VarKind.CONTINUOUS, [1.0], [6.0], [0.0])
        bases = [first, first + 2]  # family 0: x1, x2; family 1: u, h
        cols = list(place([0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 1, 1], [bases]))
        assert cols == list(tiny_model().cols) == [0, 1, 2, 0, 3, 2]
        bulk.add_rows(["r1", "r2", "r3"], [Sense.LE, Sense.GE, Sense.EQ],
                      [1.0, -4.0, 1.0], [2, 2, 2], cols,
                      [1.0, 1.0, 1.0, -5.0, 1.0, -1.0])
        model = bulk.build()
        assert model == tiny_model()
        assert emit_lp(model) == emit_lp(tiny_model())


def reference_refusal(names, row_names, rows) -> str | None:
    """What MipModel refuses in a model's rows, one row at a time: the first
    empty row; else the first term naming an undeclared variable; else the
    first row naming a variable twice, with the first variable seen again."""
    for name, terms in zip(row_names, rows):
        if not terms:
            return f"row {name} has no terms"
    for name, terms in zip(row_names, rows):
        for j in terms:
            if not 0 <= j < len(names):
                return f"row {name} references undeclared variable {j}"
    for name, terms in zip(row_names, rows):
        seen = set()
        for j in terms:
            if j in seen:
                return f"row {name}: repeated variable {names[j]}"
            seen.add(j)
    return None


@st.composite
def row_runs(draw):
    """(variable count, rows): runs of rows of one width, 0-9 terms, each
    row of distinct columns; then one row may get a repeated column or a
    column out of range. A lone fault is the one a check that misses some
    term positions or rows would let through."""
    num_vars = draw(st.integers(9, 12))
    widths = st.sampled_from([0, *range(1, 10), *range(1, 10)])
    rows = [draw(st.lists(st.integers(0, num_vars - 1), unique=True,
                          min_size=width, max_size=width))
            for width, count in draw(st.lists(st.tuples(widths, st.integers(1, 4)),
                                              min_size=1, max_size=5))
            for _ in range(count)]
    fault = draw(st.sampled_from(["none", "repeat", "repeat", "range"]))
    terms = rows[draw(st.integers(0, len(rows) - 1))]
    if fault == "repeat" and len(terms) >= 2:
        a, b = sorted(draw(st.lists(st.integers(0, len(terms) - 1),
                                    unique=True, min_size=2, max_size=2)))
        terms[b] = terms[a]
    elif fault == "range" and terms:
        terms[draw(st.integers(0, len(terms) - 1))] = draw(
            st.sampled_from([-1, -7, num_vars, num_vars + 5]))
    return num_vars, rows


class TestRowChecks:
    @given(row_runs())
    @settings(max_examples=500, deadline=None)
    def test_same_refusal_as_the_per_row_reference(self, case):
        num_vars, rows = case
        names = [f"v{j}" for j in range(num_vars)]
        row_names = [f"r{i}" for i in range(len(rows))]
        expected = reference_refusal(names, row_names, rows)
        if expected is None:
            model = columns_model(names, VarKind.CONTINUOUS, [0.0] * num_vars,
                                  [1.0] * num_vars, rows, row_names)
            assert census(model) == (num_vars, len(rows))
        else:
            with pytest.raises(ModelError) as refused:
                columns_model(names, VarKind.CONTINUOUS, [0.0] * num_vars,
                              [1.0] * num_vars, rows, row_names)
            assert str(refused.value) == expected

    @given(row_runs())
    @settings(max_examples=200, deadline=None)
    def test_builder_passes_bad_columns_through_to_the_same_refusal(self, case):
        num_vars, rows = case
        names = [f"v{j}" for j in range(num_vars)]
        row_names = [f"r{i}" for i in range(len(rows))]
        b = ModelBuilder()
        add_free(b, *names)
        add_unit_rows(b, row_names, list(map(len, rows)),
                      [j for terms in rows for j in terms])
        expected = reference_refusal(names, row_names, rows)
        if expected is None:
            assert list(b.build().cols) == [j for terms in rows for j in terms]
        else:
            with pytest.raises(ModelError) as refused:
                b.build()
            assert str(refused.value) == expected


class TestRowsOverSeveralCalls:
    """build() checks the rows of several add_rows calls as one model's:
    every empty row first, then every undeclared variable, then repeats."""

    @pytest.mark.parametrize("first, second, message", [
        ([0, 0], [], "row r1 has no terms"),
        ([0, 99], [], "row r1 has no terms"),
        ([0, 0], [99], "row r1 references undeclared variable 99"),
    ], ids=["repeat-then-empty", "undeclared-then-empty", "repeat-then-undeclared"])
    def test_faults_in_two_add_rows_calls_refused_in_row_order(self, first, second,
                                                                 message):
        b = ModelBuilder()
        add_free(b, "v0", "v1")
        add_unit_rows(b, ["r0"], [len(first)], first)
        add_unit_rows(b, ["r1"], [len(second)], second)
        with pytest.raises(ModelError, match=f"^{message}$"):
            b.build()

    @given(row_runs(), row_runs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_from_several_calls_refused_as_one_model(self, first, second, data):
        # up to two faults, the rows cut into add_rows calls, a checked family among them
        num_vars, rows = first[0], first[1] + second[1]
        names = [f"v{j}" for j in range(num_vars)]
        row_names = [f"r{i}" for i in range(len(rows))]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
        b = ModelBuilder()
        add_free(b, *names)
        for i, (s, e) in enumerate(zip([0, *cuts], [*cuts, len(rows)])):
            add_unit_rows(b, row_names[s:e], list(map(len, rows[s:e])),
                          [j for terms in rows[s:e] for j in terms])
            if i == len(cuts) // 2:
                add_pairs_family(b, [[0, 3]])
        assert refusal(b.build) == reference_refusal(names, row_names, rows)


def refusal(construct) -> str | None:
    """The message of the ModelError that construct() raises, or None."""
    try:
        construct()
    except ModelError as exc:
        return str(exc)
    return None


def outcome(construct):
    """What construct() returns, or the message of the ModelError it raises."""
    try:
        return construct()
    except ModelError as exc:
        return str(exc)


class TestArrayColumns:
    """ModelBuilder keeps row_start and cols as array('i') and objective as
    array('d'); MipModel checks them as it checks lists."""

    def test_build_gives_typed_arrays(self):
        model = tiny_model()
        assert (model.row_start.typecode, model.cols.typecode,
                model.objective.typecode) == ("i", "i", "d")
        assert list(model.row_start) == [0, 2, 4, 6]
        assert list(model.cols) == [0, 1, 2, 0, 3, 2]
        assert list(model.objective) == [3.0, -2.5, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [2 ** 31, -2 ** 31 - 1, 2 ** 70, 1.5],
                             ids=["above", "below", "far-above", "not-an-int"])
    def test_index_the_array_cannot_hold_is_refused_and_rolled_back(self, bad):
        b = ModelBuilder()
        add_free(b, "x", "y")
        add_unit_rows(b, ["r0"], [2], [0, 1])
        with pytest.raises(ModelError, match="column index out of range"):
            add_unit_rows(b, ["r1", "r2"], [1, 2], [1, 0, bad])
        add_unit_rows(b, ["r3"], [1], [1])
        model = b.build()
        assert model.row_names == ["r0", "r3"]
        assert list(model.row_start) == [0, 2, 3]
        assert list(model.cols) == [0, 1, 1]

    @given(row_runs(), st.sampled_from([0.0, math.nan, POS_INF, NEG_INF]),
           st.sampled_from([1.0, math.nan, POS_INF, NEG_INF]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_arrays_refused_exactly_as_lists(self, case, last_objective, last_term,
                                             in_rhs):
        num_vars, rows = case
        cols = [j for terms in rows for j in terms]
        objective = [1.0] * (num_vars - 1) + [last_objective]
        rhs, coefs = [0.0] * len(rows), [1.0] * len(cols)
        if coefs and not in_rhs:
            coefs[-1] = last_term
        else:
            rhs[-1] = last_term
        columns = dict(
            names=[f"v{j}" for j in range(num_vars)],
            kinds=[VarKind.CONTINUOUS] * num_vars, lowers=[0.0] * num_vars,
            uppers=[1.0] * num_vars, objective=objective,
            row_names=[f"r{i}" for i in range(len(rows))],
            senses=[Sense.LE] * len(rows), rhs=rhs,
            row_start=list(accumulate(map(len, rows), initial=0)),
            cols=cols, coefs=coefs)
        typed = dict(columns, row_start=array("i", columns["row_start"]),
                     cols=array("i", cols), objective=array("d", objective))
        expected = refusal(lambda: MipModel(**columns))
        for other in (typed, dict(typed, coefs=array("d", coefs)),
                      dict(columns, rhs=tuple(rhs), coefs=tuple(coefs))):
            assert refusal(lambda: MipModel(**other)) == expected


def fleet_builder(trucks: int, sizes=(4, 3)) -> tuple[ModelBuilder, list[list[int]]]:
    """A builder holding, for each variable family in turn, sizes[f] free
    variables f{f}_t{t}_{k} per truck; returns it and each truck's bases."""
    b = ModelBuilder()
    firsts = [add_free(b, *(f"f{f}_t{t}_{k}" for t in range(trucks) for k in range(size)))
              for f, size in enumerate(sizes)]
    return b, [[first + t * size for first, size in zip(firsts, sizes)]
               for t in range(trucks)]


def add_pairs_family(b: ModelBuilder, fleet, name="p", offsets=(0, 1, 1, 2),
                     families=(0, 1), prefixes=None, suffixes=("_a", "_b")) -> None:
    """Two rows a truck, x - u <= 1 each, over families 0 (x) and 1 (u)."""
    b.add_family(name, prefixes or [[f"{name}_t{t}"] for t in range(len(fleet))],
                 list(suffixes), [Sense.LE], [1.0], [2], list(offsets), list(families),
                 fleet, [1.0, -1.0])


class TestAddFamily:
    """add_family refuses a bad layout or name part when it is called, with
    build()'s message, and leaves the builder as it was; otherwise it gives
    the model that add_rows over place gives."""

    def refusal(self, **bad) -> str:
        """The message add_family refuses bad with, once checked that the
        builder then builds what it would have without the call."""
        b, fleet = fleet_builder(2)
        with pytest.raises(ModelError) as refused:
            add_pairs_family(b, fleet, name="bad", **bad)
        add_pairs_family(b, fleet)
        model = b.build()
        clean, fleet = fleet_builder(2)
        add_pairs_family(clean, fleet)
        expected = clean.build()
        assert model == expected and model.row_families == expected.row_families
        return str(refused.value)

    def test_repeated_family_offset_pair(self):
        # row _b holds (family 0, offset 2) twice
        message = self.refusal(offsets=(0, 1, 2, 2), families=(0, 1, 0, 0))
        assert message == "row bad_t0_b: repeated variable f0_t0_2"

    @pytest.mark.parametrize("offsets, message", [
        # u offset 3 is truck 1's first u for truck 0, past every column for truck 1
        ((0, 1, 1, 3), "row bad_t1_b references undeclared variable 14"),
        # x offset -1 is truck 0's last x for truck 1, before column 0 for truck 0
        ((0, 1, -1, 2), "row bad_t0_b references undeclared variable -1"),
    ], ids=["last-truck", "first-truck"])
    def test_offset_outside_its_family_for_one_truck(self, offsets, message):
        assert self.refusal(offsets=offsets) == message

    @pytest.mark.parametrize("prefixes, suffixes, bad", [
        ([["1bad"], ["ok_t1"]], ("_a", "_b"), "1bad_a"),
        ([["ok_t0"], ["ok_t1"]], ("_a", "-b"), "ok_t0-b"),
        ([["ok_t0"], ["ok_t1"]], ("_a", "_b\nx"), "ok_t0_b\nx"),
        ([["in"], ["ok_t1"]], ("f", "_b"), "inf"),
    ], ids=["prefix", "suffix", "newline", "number-word"])
    def test_illegal_name_part(self, prefixes, suffixes, bad):
        message = self.refusal(prefixes=prefixes, suffixes=suffixes)
        assert message == f"illegal row name {bad!r}"

    def test_families_meeting_in_one_truck(self):
        # x and u share truck 1's base, so row _a's x_0 and u_0 are one column there
        b, _ = fleet_builder(2)
        with pytest.raises(ModelError, match="^row p_t1_a: repeated variable f0_t1_0$"):
            add_pairs_family(b, [[0, 8], [4, 4]], offsets=(0, 0, 1, 2))
        assert b.build().row_names == []

    def test_parts_legal_only_together(self):
        # neither "c" nor "x" passes the part checks; "cx" is a legal name
        b, fleet = fleet_builder(2)
        add_pairs_family(b, fleet, prefixes=[["c"], ["d"]], suffixes=("x", "y"))
        assert b.build().row_names == ["cx", "cy", "dx", "dy"]

    def test_refused_before_earlier_add_rows_faults(self):
        b, fleet = fleet_builder(2)
        add_unit_rows(b, ["r0"], [2], [0, 0])
        with pytest.raises(ModelError, match="^row bad_t1_b references undeclared variable 14$"):
            add_pairs_family(b, fleet, name="bad", offsets=(0, 1, 1, 3))
        with pytest.raises(ModelError, match="^row r0: repeated variable f0_t0_0$"):
            b.build()

    def test_only_add_rows_may_name_a_variable_added_after_it(self):
        # build() checks add_rows's terms against every variable; add_family
        # checks its own when it is called, against the variables so far
        b, fleet = fleet_builder(2)
        add_unit_rows(b, ["r0"], [1], [14])
        with pytest.raises(ModelError, match="^row bad_t1_b references undeclared variable 14$"):
            add_pairs_family(b, fleet, name="bad", offsets=(0, 1, 1, 3))
        add_free(b, "late")
        assert list(b.build().cols) == [14]

    def test_row_families_recorded(self):
        b, fleet = fleet_builder(2)
        add_unit_rows(b, ["one"], [1], [0])
        add_pairs_family(b, fleet)
        assert b.build().row_families == [("", range(0, 1), False), ("p", range(1, 5), True)]

    def test_constructor_checks_every_row(self):
        model = tiny_model()
        with pytest.raises(TypeError):
            MipModel(**{f.name: getattr(model, f.name) for f in dataclasses.fields(model)})
        assert dataclasses.replace(model).row_families == ()

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_model_or_refusal_as_add_rows_over_place(self, data):
        draw = data.draw
        sizes = draw(st.lists(st.integers(3, 5), min_size=1, max_size=3))
        trucks = draw(st.integers(1, 3))
        b_family, fleet = fleet_builder(trucks, sizes)
        b_rows, _ = fleet_builder(trucks, sizes)
        if draw(st.booleans()):  # later trucks' families may meet, or start at -1
            fleet[1:] = [[draw(st.integers(-1, 5)) for _ in sizes] for _ in fleet[1:]]
        suffixes = draw(st.lists(st.sampled_from(["_a", "_b", "0", "", "_c1", "f"]),
                                 min_size=1, max_size=4))
        lengths = [draw(st.integers(1, 3)) for _ in suffixes]
        offsets = [k for length in lengths  # distinct within each row
                   for k in draw(st.permutations(range(3)))[:length]]
        families = draw(st.lists(st.integers(0, len(sizes) - 1), min_size=1, max_size=3))
        prefixes = [draw(st.lists(st.sampled_from(["r_t0", "r_t1", "q1", "s"]),
                                  min_size=1, max_size=2)) for _ in range(trucks)]
        # then at most one fault: an empty last row, a term repeated within a
        # row, an offset out of its family, or an illegal name part
        fault = draw(st.sampled_from(["none", "empty", "repeat", "offset", "prefix",
                                      "suffix"]))
        if fault == "empty":
            del offsets[len(offsets) - lengths[-1]:]
            lengths[-1] = 0
        elif fault == "repeat" and max(lengths) > 1:
            i = lengths.index(max(lengths))
            offsets[sum(lengths[:i]) + 1] = offsets[sum(lengths[:i])]
        elif fault == "offset":
            offsets[draw(st.integers(0, len(offsets) - 1))] = draw(st.sampled_from([-1, 5]))
        elif fault == "prefix":
            prefixes[-1][-1] = draw(st.sampled_from(["in", "1r", "na"]))
        elif fault == "suffix":
            suffixes[-1] = draw(st.sampled_from(["-", "n", "_\n"]))
        senses = [Sense.LE, Sense.GE] if len(suffixes) * trucks % 2 == 0 else [Sense.LE]
        coefs = [float(k + 1) for k in range(len(offsets))]

        def via_family():
            b_family.add_family("fam", prefixes, suffixes, senses, [2.0], lengths, offsets,
                                families, fleet, coefs)
            return b_family.build()

        def via_rows():
            names = [p[i % len(p)] + suffix for p in prefixes
                     for i, suffix in enumerate(suffixes)]
            b_rows.add_rows(names, senses * (len(names) // len(senses)), [2.0] * len(names),
                            lengths * trucks, place(offsets, families, fleet),
                            coefs * trucks, "fam")
            return b_rows.build()

        got, expected = outcome(via_family), outcome(via_rows)
        assert got == expected
        if isinstance(got, MipModel):
            assert [f[:2] for f in got.row_families] == [f[:2] for f in expected.row_families]


# each as a first and as a later term, in the objective and in rows
EDGE_COEFS = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-7, -1e20]


def lp_number(x: float) -> str:
    return str(int(x)) if x == int(x) and abs(x) < 1e15 else repr(x)


def reference_terms(pairs) -> str:
    """An LP expression written one term at a time: a first term has no
    '+ ', a later one is signed, and a coefficient of magnitude 1 is left
    out."""
    texts = []
    for coef, name in pairs:
        sign = "-" if coef < 0 else "+"
        mag = "" if abs(coef) == 1 else lp_number(abs(coef)) + " "
        texts.append(f"{sign} {mag}{name}" if texts or sign == "-" else mag + name)
    return " ".join(texts)


def reference_head(objective, rows) -> list[str]:
    """The LP lines from Maximize to Subject To's last row: the objective's
    nonzero terms, or its first variable times 0, and each row's terms."""
    terms = [(coef, f"v{j}") for j, coef in enumerate(objective) if coef != 0]
    obj = reference_terms(terms) if terms else "0 v0" if objective else ""
    return ["Maximize", f" obj: {obj}".rstrip(), "Subject To",
            *(f" r{i}: {reference_terms((c, f'v{j}') for j, c in terms)} "
              f"{sense.value} {lp_number(rhs)}"
              for i, (sense, rhs, terms) in enumerate(rows))]


@st.composite
def term_models(draw):
    """(objective, rows): 0-8 variables whose objective coefficients are
    edge values or any finite float, and rows (sense, rhs, terms) of
    distinct columns with such coefficients."""
    coef = st.one_of(st.sampled_from(EDGE_COEFS),
                     st.floats(allow_nan=False, allow_infinity=False))
    num_vars = draw(st.integers(0, 8))
    objective = draw(st.lists(coef, min_size=num_vars, max_size=num_vars))
    if not num_vars:
        return objective, []
    terms = st.lists(st.tuples(st.integers(0, num_vars - 1), coef), min_size=1,
                     max_size=num_vars, unique_by=lambda term: term[0])
    return objective, draw(st.lists(st.tuples(st.sampled_from(Sense), coef, terms),
                                    max_size=5))


class TestEmitLp:
    def test_golden_text(self):
        text = emit_lp(tiny_model())
        assert text == (
            "Maximize\n"
            " obj: 3 x1 - 2.5 x2\n"
            "Subject To\n"
            " r1: x1 + x2 <= 1\n"
            " r2: u - 5 x1 >= -4\n"
            " r3: h - u = 1\n"
            "Bounds\n"
            " 0 <= u <= 4\n"
            " 1 <= h <= 6\n"
            "Generals\n"
            " u\n"
            "Binaries\n"
            " x1\n"
            " x2\n"
            "End\n")

    def test_deterministic(self):
        assert emit_lp(tiny_model()) == emit_lp(tiny_model())

    def test_fixed_binary_bound_emitted(self):
        model = columns_model(["x"], VarKind.BINARY, [0.0], [0.0], rows=[[0]])
        assert " 0 <= x <= 0" in emit_lp(model)

    @pytest.mark.parametrize("coef, terms", [
        (0.0, "0 v0 + 0 v1"), (-0.0, "0 v0 + 0 v1"), (1.0, "v0 + v1"),
        (-1.0, "- v0 - v1"), (2.5, "2.5 v0 + 2.5 v1"), (-2.5, "- 2.5 v0 - 2.5 v1"),
        (1e-7, "1e-07 v0 + 1e-07 v1"), (-1e20, "- 1e+20 v0 - 1e+20 v1")])
    def test_coefficient_as_first_and_later_term(self, coef, terms):
        b = ModelBuilder()
        b.add_variables(["v0", "v1"], VarKind.CONTINUOUS, [0.0, 0.0], [1.0, 1.0],
                        [coef, coef])
        b.add_rows(["r"], [Sense.LE], [1.0], [2], [0, 1], [coef, coef])
        # an objective of zeros is written as its first variable times 0
        objective = terms if coef else "0 v0"
        assert emit_lp(b.build()) == (
            f"Maximize\n obj: {objective}\nSubject To\n r: {terms} <= 1\n"
            "Bounds\n 0 <= v0 <= 1\n 0 <= v1 <= 1\nEnd\n")

    def test_no_variables(self):
        assert emit_lp(ModelBuilder().build()) == (
            "Maximize\n obj:\nSubject To\nBounds\nEnd\n")

    def test_no_rows(self):
        b = ModelBuilder()
        b.add_variables(["x"], VarKind.BINARY, [0.0], [1.0], [-2.0])
        b.add_variables(["u"], VarKind.INTEGER, [0.0], [POS_INF], [1.0])
        assert emit_lp(b.build()) == (
            "Maximize\n obj: - 2 x + u\nSubject To\nBounds\n 0 <= u <= +inf\n"
            "Generals\n u\nBinaries\n x\nEnd\n")

    @given(term_models())
    @example(([], []))  # no variables
    @example(([0.0, -0.0, 0.0],  # an all-zero objective
              [(Sense.EQ, -0.0, [(2, -1.0), (0, 2.5)])]))
    @example((EDGE_COEFS, []))  # no rows
    @example((EDGE_COEFS, [  # each edge coefficient first, then the rest later
        (Sense.LE, 1.0, [((i + k) % 8, EDGE_COEFS[(i + k) % 8]) for k in range(8)])
        for i in range(8)]))
    @settings(max_examples=300, deadline=None)
    def test_same_text_as_the_per_term_reference(self, case):
        objective, rows = case
        b = ModelBuilder()
        b.add_variables([f"v{j}" for j in range(len(objective))], VarKind.CONTINUOUS,
                        [0.0] * len(objective), [1.0] * len(objective), objective)
        b.add_rows([f"r{i}" for i in range(len(rows))], [sense for sense, _, _ in rows],
                   [rhs for _, rhs, _ in rows], [len(terms) for _, _, terms in rows],
                   [j for _, _, terms in rows for j, _ in terms],
                   [coef for _, _, terms in rows for _, coef in terms])
        head, _, _ = emit_lp(b.build()).partition("\nBounds\n")
        assert head == "\n".join(reference_head(objective, rows))


class TestParseSolution:
    def test_reads_pairs_and_defaults(self):
        model = tiny_model()
        status, values = parse_solution("# status Optimal\nx1 1\nh 2.5\n", model)
        assert status == "Optimal"
        assert values["x1"] == 1.0
        assert values["h"] == 2.5
        assert values["x2"] == 0.0 and values["u"] == 0.0

    def test_unknown_name_refused(self):
        # a solver that renames variables must not read as an all-zero answer
        with pytest.raises(SolutionParseError, match="line 2: unknown variable X1"):
            parse_solution("x1 1\nX1 1\n", tiny_model())

    def test_variable_given_twice_refused(self):
        # the last value would win, whatever the first one said
        with pytest.raises(SolutionParseError, match="line 3: variable x1 given twice"):
            parse_solution("# status Optimal\nx1 1\nx1 0\n", tiny_model())

    def test_malformed_line(self):
        with pytest.raises(SolutionParseError):
            parse_solution("x1 1 2\n", tiny_model())
        for value in ("abc", "nan", "-inf"):
            with pytest.raises(SolutionParseError, match=f"line 1: bad value '{value}'"):
                parse_solution(f"x1 {value}\n", tiny_model())


class TestEvaluation:
    def test_census(self):
        assert census(tiny_model()) == (4, 3)

    def test_objective_value(self):
        assert objective_value(tiny_model(), {"x1": 1.0, "x2": 1.0}) == 0.5


def modules_loaded_by(statement: str, modules: list[str]) -> list[str]:
    """The names among `modules` that a fresh interpreter holds in
    sys.modules after running `statement`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ppdsp.__file__)))
    report = f"import sys; print(*(m for m in {modules!r} if m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}; {report}"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_numpy():
    # numpy costs about 0.1 s to import and 11 MB of resident memory; no
    # part of the package loads it (the solver reaches HiGHS through scipy's
    # binding alone)
    submodules = [f"ppdsp.{module.name}" for module in pkgutil.iter_modules(ppdsp.__path__)]
    assert "ppdsp.harness" in submodules
    assert modules_loaded_by(f"import {', '.join(submodules)}", ["numpy"]) == []


def test_harness_import_loads_no_thread_pool_or_logging():
    # `bench` runs its cells one at a time and only the CLI logs, so a
    # process that imports the harness (each benchmark run) loads neither
    assert modules_loaded_by("import ppdsp.harness",
                             ["concurrent.futures", "logging"]) == []
