import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppdsp.mipir import (LinearRow, MipModel, ModelBuilder, ModelError, Sense,
                         SolutionParseError, Variable, VarKind, census,
                         emit_lp, merge_terms, objective_value,
                         parse_solution, place, row_residual)


def tiny_model() -> MipModel:
    b = ModelBuilder()
    b.add_variable("x1", VarKind.BINARY, 0.0, 1.0, objective=3.0)
    b.add_variable("x2", VarKind.BINARY, 0.0, 1.0, objective=-2.5)
    b.add_variable("u", VarKind.INTEGER, 0.0, 4.0)
    b.add_variable("h", VarKind.CONTINUOUS, 1.0, 6.0)
    b.add_row("r1", [("x1", 1.0), ("x2", 1.0)], Sense.LE, 1.0)
    b.add_row("r2", [("u", 1.0), ("x1", -5.0)], Sense.GE, -4.0)
    b.add_row("r3", [("h", 1.0), ("u", -1.0)], Sense.EQ, 1.0)
    return b.build()


class TestInvariants:
    def test_bad_variable_name(self):
        with pytest.raises(ModelError):
            Variable("1bad", VarKind.BINARY, 0.0, 1.0)

    @pytest.mark.parametrize("name", ["nan", "Inf", "INFINITY"])
    def test_number_word_is_not_a_name(self, name):
        with pytest.raises(ModelError):
            Variable(name, VarKind.BINARY, 0.0, 1.0)

    @pytest.mark.parametrize("name", ["inflow", "info", "nan_x"])
    def test_name_starting_with_a_number_word(self, name):
        assert Variable(name, VarKind.BINARY, 0.0, 1.0).name == name

    def test_binary_bounds(self):
        with pytest.raises(ModelError):
            Variable("x", VarKind.BINARY, 0.0, 2.0)

    def test_crossed_bounds(self):
        with pytest.raises(ModelError):
            Variable("x", VarKind.CONTINUOUS, 3.0, 1.0)

    def test_row_needs_terms(self):
        with pytest.raises(ModelError):
            LinearRow("r", (), Sense.LE, 0.0)

    def test_row_rejects_duplicate_variable(self):
        with pytest.raises(ModelError):
            LinearRow("r", (("x", 1.0), ("x", 2.0)), Sense.LE, 0.0)

    def test_model_rejects_undeclared_variable(self):
        b = ModelBuilder()
        b.add_variable("x", VarKind.BINARY, 0.0, 1.0)
        b.add_row("r", [("ghost", 1.0)], Sense.LE, 1.0)
        with pytest.raises(ModelError):
            b.build()

    def test_model_rejects_duplicate_variable_names(self):
        b = ModelBuilder()
        b.add_variable("x", VarKind.BINARY, 0.0, 1.0)
        b.add_variable("x", VarKind.BINARY, 0.0, 1.0)
        with pytest.raises(ModelError):
            b.build()


class TestBuildValidation:
    """The whole-model checks build() runs, one per rule of TestInvariants."""

    @staticmethod
    def builder() -> ModelBuilder:
        b = ModelBuilder()
        b.add_variable("x", VarKind.BINARY, 0.0, 1.0)
        b.add_variable("y", VarKind.BINARY, 0.0, 1.0)
        return b

    def test_illegal_row_name(self):
        b = self.builder()
        b.add_row("1bad", [("x", 1.0)], Sense.LE, 1.0)
        with pytest.raises(ModelError, match="illegal row name '1bad'"):
            b.build()

    def test_illegal_variable_name(self):
        b = self.builder()
        b.add_variable("has space", VarKind.CONTINUOUS)
        with pytest.raises(ModelError, match="illegal variable name"):
            b.build()

    @pytest.mark.parametrize("name", ["nan", "Inf", "INFINITY"])
    def test_number_word_is_not_a_name(self, name):
        b = self.builder()
        b.add_variable(name, VarKind.CONTINUOUS)
        with pytest.raises(ModelError, match=f"illegal variable name '{name}'"):
            b.build()
        b = self.builder()
        b.add_row(name, [("x", 1.0)], Sense.LE, 1.0)
        with pytest.raises(ModelError, match=f"illegal row name '{name}'"):
            b.build()

    def test_names_starting_with_a_number_word(self):
        b = self.builder()
        for name in ("inflow", "info", "nan_x"):
            b.add_variable(name, VarKind.CONTINUOUS)
            b.add_row(name, [(name, 1.0)], Sense.LE, 1.0)
        model = b.build()
        assert model.names[2:] == ["inflow", "info", "nan_x"]
        assert model.row_names == ["inflow", "info", "nan_x"]

    def test_repeated_variable_in_merged_row(self):
        b = self.builder()
        b.add_row("r", [("x", 1.0), ("y", 1.0), ("x", 2.0)], Sense.LE, 1.0,
                  merged=True)
        with pytest.raises(ModelError, match="row r: repeated variable x"):
            b.build()

    def test_binary_bounds_outside_unit_interval(self):
        b = self.builder()
        b.add_variable("z", VarKind.BINARY, 0.0, 2.0)
        with pytest.raises(ModelError, match="binary variable z"):
            b.build()

    def test_crossed_bounds(self):
        b = self.builder()
        b.add_variable("h", VarKind.CONTINUOUS, 3.0, 1.0)
        with pytest.raises(ModelError, match="variable h: lower bound above upper"):
            b.build()

    def test_row_needs_terms(self):
        b = self.builder()
        b.add_row("r", [("x", 1.0), ("x", -1.0)], Sense.LE, 0.0)  # merges to nothing
        with pytest.raises(ModelError, match="row r has no terms"):
            b.build()

    @pytest.mark.parametrize("width", [2, 3, 4, 9])
    def test_repeat_found_in_a_run_of_bulk_rows(self, width):
        # rows of up to three terms are compared position by position across
        # their run, longer rows with a set each: the repeat in the last row
        # of a run must be found either way
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
        bulk = ModelBuilder()
        first = bulk.add_variables(["x1", "x2"], VarKind.BINARY, [0.0, 0.0],
                                   [1.0, 1.0], [3.0, -2.5])
        bulk.add_variable("u", VarKind.INTEGER, 0.0, 4.0)
        bulk.add_variable("h", VarKind.CONTINUOUS, 1.0, 6.0)
        bases = [first, first + 2]  # family 0: x1, x2; family 1: u, h
        bulk.add_rows(["r1", "r2", "r3"], [Sense.LE, Sense.GE, Sense.EQ],
                      [1.0, -4.0, 1.0], [2, 2, 2],
                      place([0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 1, 1], bases),
                      [1.0, 1.0, 1.0, -5.0, 1.0, -1.0])
        model = bulk.build()
        assert model == tiny_model()
        assert emit_lp(model) == emit_lp(tiny_model())


class TestMergeTerms:
    def test_merges_and_drops_zero(self):
        assert merge_terms([("a", 1.0), ("b", 2.0), ("a", -1.0)]) == (("b", 2.0),)

    def test_preserves_first_appearance_order(self):
        assert merge_terms([("b", 1.0), ("a", 1.0), ("b", 1.0)]) == (
            ("b", 2.0), ("a", 1.0))

    @given(st.lists(st.tuples(st.sampled_from("abc"),
                              st.integers(-3, 3).map(float)), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_sums_per_variable(self, terms):
        merged = dict(merge_terms(terms))
        for var in "abc":
            total = sum(c for v, c in terms if v == var)
            assert merged.get(var, 0.0) == total

    def test_merged_flag_is_equivalent_for_clean_terms(self):
        terms = (("a", 1.0), ("b", -2.0))
        b1 = ModelBuilder()
        b1.add_variable("a", VarKind.CONTINUOUS)
        b1.add_variable("b", VarKind.CONTINUOUS)
        b1.add_row("r", terms, Sense.LE, 0.0)
        b2 = ModelBuilder()
        b2.add_variable("a", VarKind.CONTINUOUS)
        b2.add_variable("b", VarKind.CONTINUOUS)
        b2.add_row("r", terms, Sense.LE, 0.0, merged=True)
        assert b1.build().rows == b2.build().rows


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
        b = ModelBuilder()
        b.add_variable("x", VarKind.BINARY, 0.0, 0.0)
        b.add_row("r", [("x", 1.0)], Sense.LE, 1.0)
        assert " 0 <= x <= 0" in emit_lp(b.build())


class TestParseSolution:
    def test_reads_pairs_and_defaults(self):
        model = tiny_model()
        values, warnings = parse_solution("# status Optimal\nx1 1\nh 2.5\n", model)
        assert values["x1"] == 1.0
        assert values["h"] == 2.5
        assert values["x2"] == 0.0 and values["u"] == 0.0
        assert warnings == []

    def test_unknown_name_warns(self):
        values, warnings = parse_solution("zz 3\n", tiny_model())
        assert "zz" not in values
        assert len(warnings) == 1

    def test_malformed_line(self):
        with pytest.raises(SolutionParseError):
            parse_solution("x1 1 2\n", tiny_model())
        with pytest.raises(SolutionParseError):
            parse_solution("x1 abc\n", tiny_model())


class TestEvaluation:
    def test_census(self):
        assert census(tiny_model()) == (4, 3)

    def test_objective_value(self):
        assert objective_value(tiny_model(), {"x1": 1.0, "x2": 1.0}) == 0.5

    def test_row_residuals(self):
        model = tiny_model()
        rows = {r.name: r for r in model.rows}
        sat = {"x1": 1.0, "x2": 0.0, "u": 1.0, "h": 2.0}
        assert row_residual(rows["r1"], sat) == 0.0
        assert row_residual(rows["r3"], sat) == 0.0
        assert row_residual(rows["r1"], {"x1": 1.0, "x2": 1.0}) == 1.0
        assert row_residual(rows["r2"], {"x1": 1.0, "u": 0.0}) == 1.0
