import contextlib
import gc
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppdsp
from conftest import small_random_instance
from ppdsp.enc_location import encode_location
from ppdsp.enc_request import encode_request
from ppdsp.highs_solver import (_SEEDS, LpParseError, _highs, _solve_seed, main,
                                 parse_lp, solve_lp_text)
from ppdsp.instgen import generate_family
from ppdsp.mipir import ModelBuilder, Sense, VarKind, emit_lp, parse_solution
from test_mipir import tiny_model

NEG_INF, POS_INF = float("-inf"), float("inf")


def expected_parse(model):
    """What parse_lp must read back from emit_lp(model)."""
    names, kinds = model.names, model.kinds
    objective = [(name, coef) for name, coef in zip(names, model.objective)
                 if coef != 0.0]
    rows = [(name, [(names[j], coef) for j, coef in zip(model.cols[s:e],
                                                         model.coefs[s:e])],
             sense.value, rhs)
            for name, s, e, sense, rhs in zip(model.row_names, model.row_start,
                                              model.row_start[1:], model.senses,
                                              model.rhs)]
    bounds = {name: (lower, upper)
              for name, kind, lower, upper in zip(names, kinds, model.lowers,
                                                  model.uppers)
              if not (kind is VarKind.BINARY and (lower, upper) == (0.0, 1.0))}
    integers = [name for name, kind in zip(names, kinds) if kind is VarKind.INTEGER]
    binaries = [name for name, kind in zip(names, kinds) if kind is VarKind.BINARY]
    objective = objective or [(names[0], 0.0)]  # emit_lp's "obj: 0 x"
    return "max", objective, rows, bounds, integers, binaries


def reference_terms(tokens):
    """The exception-driven expression reader the parser had before it
    classified tokens by their first character: float() decides. A number
    that a sign follows multiplies no name, and is refused."""
    terms = []
    sign = 1.0
    coef = None
    for tok in tokens:
        if tok in ("+", "-"):
            if coef is not None:
                raise LpParseError(f"a number without a name before {tok!r}")
            sign = 1.0 if tok == "+" else -1.0
        else:
            try:
                value = float(tok)
            except ValueError:
                terms.append((tok, sign * (1.0 if coef is None else coef)))
                sign, coef = 1.0, None
            else:
                if coef is not None:
                    raise LpParseError(f"two consecutive numbers near {tok!r}")
                coef = value
    if coef is not None:
        raise LpParseError("dangling coefficient at end of expression")
    return terms


def objective_lp(expression: str) -> str:
    return f"Maximize\n obj: {expression}\nSubject To\nEnd\n"


class TestRoundTrip:
    def test_tiny_model(self):
        model = tiny_model()
        assert parse_lp(emit_lp(model)) == expected_parse(model)

    @pytest.mark.parametrize("encode", [encode_location, encode_request])
    def test_golden_encodings(self, golden_instance, encode):
        model = encode(golden_instance).model
        assert parse_lp(emit_lp(model)) == expected_parse(model)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_models(self, data):
        # names that float() would read as numbers are not variable names
        names = data.draw(st.lists(
            st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True).filter(
                lambda s: s.lower() not in ("inf", "infinity", "nan")),
            min_size=2, max_size=8, unique=True))
        num_vars = data.draw(st.integers(1, len(names) - 1))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        builder = ModelBuilder()
        for name in names[:num_vars]:
            kind = data.draw(st.sampled_from(list(VarKind)))
            if kind is VarKind.BINARY:
                lower, upper = data.draw(st.sampled_from(
                    [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0)]))
            else:
                lower, upper = sorted(data.draw(st.lists(
                    finite, min_size=2, max_size=2)))
                lower = data.draw(st.sampled_from([lower, NEG_INF]))
                upper = data.draw(st.sampled_from([upper, POS_INF]))
            builder.add_variables([name], kind, [lower], [upper],
                                  [data.draw(finite)])
        for row_name in names[num_vars:]:
            cols = data.draw(st.lists(st.integers(0, num_vars - 1), min_size=1,
                                      unique=True))
            coefs = data.draw(st.lists(finite, min_size=len(cols),
                                       max_size=len(cols)))
            builder.add_rows([row_name], [data.draw(st.sampled_from(list(Sense)))],
                             [data.draw(finite)], [len(cols)], cols, coefs)
        model = builder.build()
        assert parse_lp(emit_lp(model)) == expected_parse(model)


class TestTokens:
    @pytest.mark.parametrize("expression,terms", [
        (".5 x", [("x", 0.5)]),
        ("1e-3 x", [("x", 0.001)]),
        ("+2 x", [("x", 2.0)]),
        ("- -inf x", [("x", POS_INF)]),
        ("infinity x + Inf y", [("x", POS_INF), ("y", POS_INF)]),
        ("inflow + 2 nodes - e1", [("inflow", 1.0), ("nodes", 2.0), ("e1", -1.0)]),
        ("Infinite - NaNa + E5", [("Infinite", 1.0), ("NaNa", -1.0), ("E5", 1.0)]),
        ("-x + .y", [("-x", 1.0), (".y", 1.0)]),
    ])
    def test_numbers_and_names(self, expression, terms):
        assert parse_lp(objective_lp(expression))[1] == terms
        assert reference_terms(expression.split()) == terms

    @pytest.mark.parametrize("rhs,value", [
        ("-inf", NEG_INF), ("infinity", POS_INF), (".5", 0.5), ("1e-3", 0.001),
        ("+2", 2.0)])
    def test_rhs(self, rhs, value):
        rows = parse_lp(objective_lp("x").replace("End", f" c1: x <= {rhs}\nEnd"))[2]
        assert rows == [("c1", [("x", 1.0)], "<=", value)]

    @given(st.lists(st.one_of(
        st.sampled_from(["+", "-", "2", "-3", ".5", "1e-3", "1_0", "inf", "-Inf",
                         "NAN", "infinity", "inflow", "nodes", "e1", "x", "-x",
                         "١٢"]),
        st.text(st.characters(blacklist_categories=("Cs",)), min_size=1).filter(
            lambda tok: tok.split() == [tok]))))
    @settings(max_examples=300, deadline=None)
    def test_same_reading_as_float(self, tokens):
        """Every token reads as float() reads it: a number where float()
        accepts it, otherwise a variable name."""
        try:
            want = reference_terms(tokens)
        except LpParseError:
            with pytest.raises(LpParseError):
                parse_lp(objective_lp(" ".join(tokens)))
            return
        got = parse_lp(objective_lp(" ".join(tokens)))[1]
        assert [(n, repr(c)) for n, c in got] == [(n, repr(c)) for n, c in want]


class TestSharedTokens:
    LP = ("Maximize\n obj: 2 x1 + y1\nSubject To\n c1: x1 + y1 <= 1\n"
          " c2: 3 x1 - y1 >= 0\n c3: y1 = 1\n c4: x1 + y1 <= 2\nBounds\n"
          " 0 <= x1 <= 1\n 0 <= y1 <= 5\nGenerals\n y1\nBinaries\n x1\nEnd\n")

    def test_one_object_per_name_comparator_and_number(self):
        # split() makes a new str for every occurrence of a token of two or
        # more characters; the parse keeps the first
        _, objective, rows, bounds, integers, binaries = parse_lp(self.LP)
        x, y = bounds
        assert (x, y) == ("x1", "y1")
        for first, occurrences in [
                (x, [objective[0][0], rows[0][1][0][0], rows[1][1][0][0], binaries[0]]),
                (y, [objective[1][0], rows[0][1][1][0], rows[2][1][0][0], integers[0]])]:
            assert all(name is first for name in occurrences)
        # each comparator is one object, in every row of every parse
        ops = [op for _, _, op, _ in rows]
        assert ops == ["<=", ">=", "=", "<="]
        assert ops[0] is ops[3]
        again = [op for _, _, op, _ in parse_lp(self.LP)[2]]
        assert all(a is b for a, b in zip(ops, again))
        # '<= 1', '= 1' and '0 <= x1 <= 1' read the token '1' once
        assert rows[0][3] is rows[2][3] is bounds[x][1]

    def test_one_object_per_unit_term_and_negated_coefficient(self):
        lp = ("Maximize\n obj: x1 - 3 y1\nSubject To\n c1: x1 - y1 <= 1\n"
              " c2: y1 - x1 - 3 y2 >= 0\n c3: x1 - 3 y2 - y1 <= 2\nEnd\n")
        _, objective, rows, _, _, _ = parse_lp(lp)
        (_, c1, _, _), (_, c2, _, _), (_, c3, _, _) = rows
        assert objective == [("x1", 1.0), ("y1", -3.0)]
        assert c1 == [("x1", 1.0), ("y1", -1.0)]
        assert c2 == [("y1", 1.0), ("x1", -1.0), ("y2", -3.0)]
        assert c3 == [("x1", 1.0), ("y2", -3.0), ("y1", -1.0)]
        # x1's unit term is one tuple wherever x1 appears with one sign
        assert objective[0] is c1[0] is c3[0]
        assert c2[1] == ("x1", -1.0) and c2[1] is not c1[0]
        assert c1[1] is c3[2]
        # each '- 3' reads as one negated float
        assert objective[1][1] is c2[2][1] is c3[1][1]

    def test_name_lists_read_from_the_text(self):
        # Generals and Binaries over several lines, a comment and a blank
        # line inside them, and Binaries given twice
        lp = ("Maximize\n obj: x1 + y1\nSubject To\n c1: x1 + y1 + z1 + w1 <= 2\n"
              "Generals\n y1\n\\ z0 is a comment\n\n z1  w1\n"
              "Binaries\n x1\n  \\ x0 too\r\n\n v1\n"
              "Bounds\n 0 <= z1 <= 3\nBinaries\n\n u1 x2\nEnd\n")
        _, objective, rows, bounds, integers, binaries = parse_lp(lp)
        assert integers == ["y1", "z1", "w1"]
        assert binaries == ["x1", "v1", "u1", "x2"]
        x, y, z, w = (name for name, _ in rows[0][1])
        assert integers[0] is y and integers[1] is z and integers[2] is w
        assert binaries[0] is x and objective[0][0] is x
        assert next(iter(bounds)) is z


class TestMalformedRows:
    @pytest.mark.parametrize("row", [
        "c1: x + y <= 3 z",      # text after the rhs
        "c1: x + y <= 3 >= 4",   # a second comparator after the rhs
        "c1: x < y <= 3",        # a comparator inside the expression
        "c1: x + y <=",          # no rhs
        "c1: x <= abc",          # a rhs that is not a number
    ], ids=["trailing-term", "two-comparators", "inner-comparator", "no-rhs",
            "non-numeric-rhs"])
    def test_refused_naming_the_line(self, row):
        with pytest.raises(LpParseError) as info:
            parse_lp(f"Maximize\n obj: x\nSubject To\n {row}\nEnd\n")
        assert row in str(info.value)


class TestBounds:
    @pytest.mark.parametrize("line", ["0 <= x <= abc", "abc <= x <= 1", "x = abc"])
    def test_value_not_a_number_refused_naming_the_line(self, line):
        with pytest.raises(LpParseError) as info:
            parse_lp(f"Maximize\n obj: x\nSubject To\n c1: x <= 3\nBounds\n {line}\nEnd\n")
        assert line in str(info.value)

    def test_infinite_values(self):
        lp = ("Maximize\n obj: x + y + z\nSubject To\n c1: x <= 3\nBounds\n"
              " -inf <= x <= +Infinity\n -INFINITY <= y <= inf\n z = 2\nEnd\n")
        assert parse_lp(lp)[3] == {"x": (NEG_INF, POS_INF), "y": (NEG_INF, POS_INF),
                                   "z": (2.0, 2.0)}


class TestCollector:
    LP = "Maximize\n obj: x\nSubject To\n c1: x + y <= 3\nEnd\n"

    def test_restored_after_parse_and_refusal(self):
        assert gc.isenabled()
        parse_lp(self.LP)
        assert gc.isenabled()
        with pytest.raises(LpParseError):
            parse_lp(self.LP.replace("<= 3", "<= 3 z"))
        assert gc.isenabled()

    def test_left_disabled_when_the_caller_disabled_it(self):
        gc.disable()
        try:
            parse_lp(self.LP)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestFirstFault:
    """A file with two faults reports the first one in file order."""

    def test_bad_row_before_bad_bound_reports_the_row(self):
        with pytest.raises(LpParseError) as info:
            parse_lp("Maximize\n obj: x\nSubject To\n c1: x <= 1\n c2: x + y <=\n"
                     "Bounds\n 0 <= x <= abc\nEnd\n")
        assert "c2: x + y <=" in str(info.value)
        assert "abc" not in str(info.value)

    def test_two_bad_rows_report_the_first(self):
        with pytest.raises(LpParseError) as info:
            parse_lp("Maximize\n obj: x\nSubject To\n c1: x <= 1\n c2: x <= abc\n"
                     " c3: x + y <= 3 z\nEnd\n")
        assert "c2: x <= abc" in str(info.value)
        assert "c3" not in str(info.value)


class TestMemory:
    """parse_lp lets go of each line once it is read, so what it holds
    beyond its result stays near one copy of the LP text."""

    @pytest.mark.parametrize("k, formulation", [(1, "location"), (3, "request")])
    def test_transient_peak_under_one_and_a_half_texts(self, burma14, k, formulation):
        instance = generate_family(burma14, [k], 2, 0)[k]
        encode = encode_location if formulation == "location" else encode_request
        text = emit_lp(encode(instance).model)
        tracemalloc.start()
        try:
            parsed = parse_lp(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed[2]
        assert peak - retained <= 1.5 * len(text)


class TestMain:
    def test_malformed_lp_exits_2_with_one_reason_line(self, tmp_path):
        model = tmp_path / "model.lp"
        model.write_text("Maximize\n obj: x\nSubject To\n c1: x + y <=\nEnd\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(ppdsp.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "ppdsp.highs_solver", str(model),
             str(tmp_path / "solution.sol")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ppdsp-highs: ")
        assert "c1: x + y <=" in lines[0]
        assert not (tmp_path / "solution.sol").exists()

    def test_missing_model_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.lp"
        assert main([str(missing), str(tmp_path / "solution.sol")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ppdsp-highs: ") and str(missing) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("content, limit, reason", [
        (b"\xff\xfe", "10", "codec"),
        (b"Maximize\n obj: x\nSubject To\n c1: x <= 1\nEnd\n", "abc",
         "time limit 'abc' is not a number"),
        (b"Maximize\n obj: x\nSubject To\n c1: x <= 1\nBounds\n 0 <= x <= abc\nEnd\n",
         "10", "0 <= x <= abc"),
        (b"Maximize\n obj: x\nSubject To\n c1: x <= 1\nEnd\n", "-1",
         "time limit '-1' is not a positive number"),
        (b"Maximize\n obj: x\nSubject To\n c1: x <= 1\nEnd\n", "0",
         "time limit '0' is not a positive number"),
        (b"Maximize\n obj: x\nSubject To\n c1: x <= 1\nEnd\n", "nan",
         "time limit 'nan' is not a positive number"),
        (b"Maximize\n obj: x\nSubject To\n c1: nan x <= 1\nBounds\n 0 <= x <= 5\nEnd\n",
         "10", "constraint 'c1'"),
        (b"x1\nMaximize\n obj: x1\nSubject To\n c1: x1 <= 1\nEnd\n", "10",
         "content before first section: 'x1'"),
        (b"Subject To\n c1: x <= 1\nEnd\n", "10", "no objective section"),
        (b"Maximize\n obj: x\nSubject To\n x <= 1\nEnd\n", "10",
         "constraint without name: 'x <= 1'"),
        (b"Maximize\n obj: x\nSubject To\n c1: 2 3 x <= 1\nEnd\n", "10",
         "two consecutive numbers near '3' in constraint 'c1: 2 3 x <= 1'"),
        (b"Maximize\n obj: x\nSubject To\n c1: x <= 1\nBounds\n x >= 1\nEnd\n",
         "10", "unsupported bound line: 'x >= 1'"),
    ], ids=["not-utf8", "time-limit", "bound", "negative-limit", "zero-limit",
            "nan-limit", "nan-coefficient", "before-first-section", "no-objective",
            "unnamed-row", "two-numbers", "one-sided-bound"])
    def test_bad_input_exits_2_with_one_reason_line(self, tmp_path, capsys,
                                                     content, limit, reason):
        model = tmp_path / "model.lp"
        model.write_bytes(content)
        assert main([str(model), str(tmp_path / "solution.sol"), limit]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ppdsp-highs: ") and reason in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "solution.sol").exists()


    def test_infinite_time_limit_means_no_limit(self, tmp_path):
        model = tmp_path / "model.lp"
        model.write_text("Maximize\n obj: x\nSubject To\n c1: x <= 1\nEnd\n")
        assert main([str(model), str(tmp_path / "solution.sol"), "inf"]) == 0
        assert (tmp_path / "solution.sol").read_text() == (
            "# status Optimal\n# objective 1.0\nx 1.0\n")


class TestNan:
    """HiGHS reads a NaN as a number; the solve refuses it first."""

    @pytest.mark.parametrize("lp, where", [
        ("Maximize\n obj: x\nSubject To\n c1: nan x <= 1\nBounds\n 0 <= x <= 5\nEnd\n",
         "constraint 'c1'"),
        ("Maximize\n obj: x\nSubject To\n c1: x <= 1\n c2: x + y <= NaN\nEnd\n",
         "constraint 'c2'"),
        ("Maximize\n obj: x + nan y\nSubject To\n c1: x <= 1\nEnd\n", "objective"),
        ("Maximize\n obj: x\nSubject To\n c1: x <= 1\nBounds\n 0 <= x <= nan\nEnd\n",
         "bound of 'x'"),
        ("Maximize\n obj: x\nSubject To\n c1: x <= 1\nBounds\n y = nan\nBinaries\n y\nEnd\n",
         "bound of 'y'"),
    ], ids=["coefficient", "rhs", "objective", "bound", "clamped-binary-bound"])
    def test_refused_naming_where(self, lp, where):
        with pytest.raises(LpParseError, match="NaN") as info:
            solve_lp_text(lp)
        assert where in str(info.value)


class TestStatusWords:
    """Each HiGHS model status ends as one status word."""

    @pytest.mark.parametrize("lp, limit, status", [
        ("Maximize\n obj: x\nSubject To\n c1: x >= 3\n c2: x <= 1\nEnd\n",
         None, "Infeasible"),
        ("Maximize\n obj: x\nSubject To\n c1: x >= 3\nEnd\n", None, "Error"),
        # a model HiGHS refuses to load (kModelError) is not an infeasible one
        ("Maximize\n obj: x\nSubject To\n c1: inf x <= 3\nEnd\n", None, "Error"),
        # a column bound HiGHS refuses, on a column that is not the last
        ("Maximize\n obj: x + 2 z\nSubject To\n c1: x <= 1\nBounds\n x = inf\n"
         " 0 <= z <= 5\nEnd\n", None, "Error"),
        ("Maximize\n obj: x + 2 z\nSubject To\n c1: x <= 1\nBounds\n"
         " 1e30 <= x <= 1e30\n 0 <= z <= 5\nEnd\n", None, "Error"),
        # stopped before any incumbent: x = y = 0 breaks c1
        ("Maximize\n obj: x + y\nSubject To\n c1: x + y >= 1\n c2: x - y <= 0\n"
         "Binaries\n x y\nEnd\n", 1e-9, "TimeLimit"),
        ("Minimize\n obj: x + 2 y\nSubject To\n c1: x + y >= 1.5\nGenerals\n x\n"
         "End\n", None, "Optimal"),
    ], ids=["infeasible", "unbounded", "model-error", "fixed-at-inf",
            "fixed-at-1e30", "no-incumbent", "optimal"])
    def test_table(self, lp, limit, status):
        got_status, objective, values = solve_lp_text(lp, limit)
        assert got_status == status
        if status == "Optimal":
            assert (objective, values) == (2.0, {"x": 2.0, "y": 0.0})
        else:
            assert (objective, values) == (None, {})

    def test_duplicate_terms_are_summed(self):
        lp = "Maximize\n obj: x\nSubject To\n c1: x + x <= 3\nEnd\n"
        assert solve_lp_text(lp) == ("Optimal", 1.5, {"x": 1.5})

    def test_columns_in_order_of_first_appearance(self):
        # each section brings in one new name, later than the names before it
        # in no sorted order, and repeats names that came before
        lp = ("Maximize\n obj: z\nSubject To\n c1: y + z <= 1\nBounds\n"
              " 0 <= z <= 1\n 0 <= x <= 1\nGenerals\n y w\nBinaries\n x v\nEnd\n")
        status, _, values = solve_lp_text(lp)
        assert status == "Optimal"
        assert list(values) == ["z", "y", "x", "w", "v"]


class TestTelemetry:
    @pytest.mark.parametrize("encode", [encode_location, encode_request])
    def test_golden_solution_header(self, tmp_path, golden_instance, encode):
        model = encode(golden_instance).model
        (tmp_path / "model.lp").write_text(emit_lp(model))
        solution = tmp_path / "solution.sol"
        assert main([str(tmp_path / "model.lp"), str(solution), "60"]) == 0
        text = solution.read_text()
        header = dict(line[2:].split(" ", 1) for line in text.splitlines()
                      if line.startswith("#"))
        assert list(header) == ["status", "objective", "gap", "dual_bound", "nodes"]
        assert header["status"] == "Optimal"
        objective = float(header["objective"])
        # a maximization's bound, in its own sense: no lower than the optimum,
        # and within HiGHS's default relative gap of 1e-4
        dual_bound, gap = float(header["dual_bound"]), float(header["gap"])
        assert objective <= dual_bound <= objective + 1e-4 * abs(objective)
        assert 0.0 <= gap <= 1e-4
        assert int(header["nodes"]) >= 0
        # the reader skips the header; the values still decode
        status, values = parse_solution(text, model)
        assert status == "Optimal" and values

    @pytest.mark.parametrize("sense", ["Maximize", "Minimize"])
    def test_no_incumbent_has_an_infinite_gap(self, tmp_path, sense):
        (tmp_path / "model.lp").write_text(
            f"{sense}\n obj: x\nSubject To\n c1: x >= 5\n c2: x <= 1\n"
            "Generals\n x\nEnd\n")
        solution = tmp_path / "solution.sol"
        assert main([str(tmp_path / "model.lp"), str(solution)]) == 0
        lines = solution.read_text().splitlines()
        assert lines[0] == "# status Infeasible" and "# gap inf" in lines, lines

    @staticmethod
    def zero_maximum_header(tmp_path, generals):
        (tmp_path / "model.lp").write_text(
            "Maximize\n obj: - x\nSubject To\n c1: x <= 1\nBounds\n"
            f" 0 <= x <= 1\n{generals}End\n")
        solution = tmp_path / "solution.sol"
        assert main([str(tmp_path / "model.lp"), str(solution)]) == 0
        return dict(line[2:].split(" ", 1)
                    for line in solution.read_text().splitlines()
                    if line.startswith("#"))

    def test_zero_optimum_of_a_maximization_is_written_as_positive_zero(self, tmp_path):
        # in maximize sense HiGHS gives the dual bound of a zero maximum as -0.0
        header = self.zero_maximum_header(tmp_path, "Generals\n x\n")
        assert header["status"] == "Optimal"
        for key in ("objective", "dual_bound"):
            value = float(header[key])
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, header

    def test_zero_optimum_of_a_continuous_maximization_is_positive_zero(self, tmp_path):
        header = self.zero_maximum_header(tmp_path, "")
        assert header["status"] == "Optimal" and "dual_bound" not in header
        value = float(header["objective"])
        assert value == 0.0 and math.copysign(1.0, value) == 1.0, header


def milp_reference(text: str):
    """(status, objective, values) from scipy.optimize.milp on the arrays of
    parse_lp(text): columns in order of first appearance, rows as a sparse
    matrix built from (row, column) pairs."""
    import numpy as np
    from scipy import optimize, sparse

    sense, objective, rows, bounds, integers, binaries = parse_lp(text)
    index: dict[str, int] = {}
    for name in [name for name, _ in objective] + [
            name for _, terms, _, _ in rows for name, _ in terms] + [
            *bounds, *integers, *binaries]:
        index.setdefault(name, len(index))
    c = np.zeros(len(index))
    for name, coef in objective:
        c[index[name]] += coef
    lower, upper = np.zeros(len(index)), np.full(len(index), np.inf)
    upper[[index[name] for name in binaries]] = 1.0
    for name, (lo, hi) in bounds.items():
        if name in binaries:
            lo, hi = max(0.0, lo), min(1.0, hi)
        lower[index[name]], upper[index[name]] = lo, hi
    integrality = np.zeros(len(index))
    integrality[[index[name] for name in integers + binaries]] = 1
    entries = [(i, index[name], coef) for i, (_, terms, _, _) in enumerate(rows)
               for name, coef in terms]
    row_idx, col_idx, data = zip(*entries)
    matrix = sparse.csr_matrix((data, (row_idx, col_idx)), shape=(len(rows), len(index)))
    lo_rhs = [-np.inf if op == "<=" else rhs for _, _, op, rhs in rows]
    hi_rhs = [np.inf if op == ">=" else rhs for _, _, op, rhs in rows]
    result = optimize.milp(-c if sense == "max" else c, integrality=integrality,
                           bounds=optimize.Bounds(lower, upper),
                           constraints=[optimize.LinearConstraint(matrix, lo_rhs, hi_rhs)])
    status = {0: "Optimal", 2: "Infeasible"}.get(result.status, "Error")
    if result.x is None:
        return status, None, {}
    objective_value = -result.fun if sense == "max" else result.fun
    return status, float(objective_value), dict(zip(index, map(float, result.x)))


class TestBinding:
    """The solver reaches scipy's HiGHS binding without scipy.optimize."""

    LP = "Maximize\n obj: 2 x + 3 y\nSubject To\n c1: x + y <= 1.5\nBinaries\n x y\nEnd\n"

    def test_solver_child_imports_neither_numpy_nor_scipy_optimize(self, tmp_path):
        model = tmp_path / "model.lp"
        model.write_text(self.LP)
        src = os.path.dirname(os.path.dirname(os.path.abspath(ppdsp.__file__)))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "ppdsp.highs_solver", str(model),
             str(tmp_path / "solution.sol")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "solution.sol").read_text().startswith(
            "# status Optimal\n# objective 3.0\n")
        imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "ppdsp" in imported  # the listing holds the package -m ran from
        assert not {name for name in imported
                    if name.split(".")[0] in ("numpy", "scipy")}

    def test_missing_binding_exits_2_with_one_reason_line(self, tmp_path):
        # a scipy package without the binding, found before the real one
        (tmp_path / "scipy").mkdir()
        (tmp_path / "scipy" / "__init__.py").write_text("")
        model = tmp_path / "model.lp"
        model.write_text(self.LP)
        src = os.path.dirname(os.path.dirname(os.path.abspath(ppdsp.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "ppdsp.highs_solver", str(model),
             str(tmp_path / "solution.sol")],
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), src])},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "ppdsp-highs: scipy's HiGHS binding scipy.optimize._highspy._core was "
            "not found; ppdsp-highs needs Python>=3.11 and scipy>=1.17"]
        assert not (tmp_path / "solution.sol").exists()

    @pytest.mark.parametrize("first", ["binding", "scipy.optimize"])
    def test_loads_before_and_after_scipy_optimize(self, first):
        """Either order, in one process: one binding module, which
        scipy.optimize's own wrapper uses too, and both the solver and
        scipy.optimize.milp work."""
        steps = {
            "binding": "from ppdsp import highs_solver; "
                       f"print(highs_solver.solve_lp_text({self.LP!r})); ",
            "scipy.optimize": "from scipy import optimize; "
                              "print(optimize.milp([-2, -3], integrality=[1, 1], "
                              "bounds=(0, 1), constraints=optimize.LinearConstraint("
                              "[[1, 1]], -float('inf'), 1.5)).x.tolist()); ",
        }
        second = "scipy.optimize" if first == "binding" else "binding"
        out = TestLazyPackage.fresh_python(
            steps[first] + steps[second] +
            "import sys; from ppdsp import highs_solver; "
            "from scipy.optimize._highspy import _highs_wrapper; "
            "print(highs_solver._highs() is sys.modules["
            "'scipy.optimize._highspy._core'] is _highs_wrapper._h)").splitlines()
        assert sorted(out[:2]) == ["('Optimal', 3.0, {'x': 0.0, 'y': 1.0})", "[0.0, 1.0]"]
        assert out[2] == "True"

    # criterion 4's seeds 0-8 but 2, 3 and 6, whose request models take 2-3 s
    # each to solve
    @pytest.mark.parametrize("seed", [None, 0, 1, 4, 5, 7, 8])
    def test_same_answer_as_milp(self, golden_instance, seed):
        instance = golden_instance if seed is None else small_random_instance(seed)
        for encode in (encode_location, encode_request):
            text = emit_lp(encode(instance).model)
            assert solve_lp_text(text) == milp_reference(text)


class TestLazyPackage:
    """The package loads no submodule of its own accord, so the solver
    child, spawned once per solve, imports no encoder, harness or generator."""

    @staticmethod
    def fresh_python(code: str) -> str:
        src = os.path.dirname(os.path.dirname(os.path.abspath(ppdsp.__file__)))
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_solver_child_imports_no_other_submodule(self):
        loaded, numpy_loaded = self.fresh_python(
            "import sys, ppdsp.highs_solver; "
            "print(sorted(m for m in sys.modules if m.startswith('ppdsp'))); "
            "print('numpy' in sys.modules)").splitlines()
        assert loaded == "['ppdsp', 'ppdsp.highs_solver']"
        assert numpy_loaded == "False"  # and no solve loads it either

    def test_package_import_loads_no_submodule(self):
        assert self.fresh_python(
            "import sys, ppdsp; "
            "print(sorted(m for m in sys.modules if m.startswith('ppdsp')))") == "['ppdsp']"

    def test_package_names_and_submodules_import(self):
        assert self.fresh_python(
            "import sys; from ppdsp import harness, mipir; "
            "print(harness is sys.modules['ppdsp.harness'], "
            "mipir is sys.modules['ppdsp.mipir'])") == "True True"

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            ppdsp.nonesuch


class TestHighsReader:
    """The model HiGHS's own LP reader builds from emit_lp's text is the
    model, its columns in order of first appearance in the text: a later
    HiGHS that read the text differently would show here."""

    @pytest.mark.parametrize("seed", [None, 0, 1])
    @pytest.mark.parametrize("encode", [encode_location, encode_request])
    def test_reads_emit_lp_as_the_model(self, tmp_path, golden_instance, seed, encode):
        instance = golden_instance if seed is None else small_random_instance(seed)
        model = encode(instance).model
        _, objective, rows, bounds, integers, binaries = expected_parse(model)
        order = list(dict.fromkeys(
            [name for name, _ in objective]
            + [name for _, terms, _, _ in rows for name, _ in terms]
            + [*bounds, *integers, *binaries]))
        assert sorted(order) == sorted(model.names)
        column = [model.names.index(name) for name in order]
        path = tmp_path / "model.lp"
        path.write_text(emit_lp(model))
        highs = _highs()
        solver = highs._Highs()
        options = highs.HighsOptions()
        options.log_to_console = False
        solver.passOptions(options)
        assert solver.readModel(str(path)) == highs.HighsStatus.kOk
        lp = solver.getLp()
        assert lp.sense_ == highs.ObjSense.kMaximize
        assert list(lp.col_names_) == order
        assert list(map(float, lp.col_cost_)) == [model.objective[j] for j in column]
        assert list(map(float, lp.col_lower_)) == [model.lowers[j] for j in column]
        assert list(map(float, lp.col_upper_)) == [model.uppers[j] for j in column]
        assert [kind.name for kind in lp.integrality_] == [
            "kContinuous" if model.kinds[j] is VarKind.CONTINUOUS else "kInteger"
            for j in column]
        assert list(lp.row_names_) == model.row_names
        assert list(map(float, lp.row_lower_)) == [
            NEG_INF if sense is Sense.LE else rhs
            for sense, rhs in zip(model.senses, model.rhs)]
        assert list(map(float, lp.row_upper_)) == [
            POS_INF if sense is Sense.GE else rhs
            for sense, rhs in zip(model.senses, model.rhs)]
        matrix = lp.a_matrix_
        assert matrix.format_ == highs.MatrixFormat.kColwise
        starts = list(matrix.start_)
        got = sorted((int(row), column[col], float(value))
                     for col, (start, end) in enumerate(zip(starts, starts[1:]))
                     for row, value in zip(matrix.index_[start:end],
                                           matrix.value_[start:end]))
        want = sorted((row, j, coef)
                      for row, (start, end) in enumerate(zip(model.row_start,
                                                             model.row_start[1:]))
                      for j, coef in zip(model.cols[start:end], model.coefs[start:end]))
        assert got == want


class TestLoadedByHighs:
    @pytest.mark.parametrize("sense, optimum", [("Maximize", 1.0), ("Minimize", 0.0)])
    def test_binary_bounds_are_clamped_to_0_1(self, sense, optimum):
        # HiGHS's reader alone makes x an integer on [-3, 4]
        lp = (f"{sense}\n obj: x\nSubject To\n c1: x <= 3\nBounds\n -3 <= x <= 4\n"
              "Binaries\n x\nEnd\n")
        assert solve_lp_text(lp) == ("Optimal", optimum, {"x": optimum})

    @pytest.mark.parametrize("name", ["m.txt", "model", "m.mps", "m.lp.gz"])
    def test_model_name_not_ending_in_lp_exits_2(self, tmp_path, capsys, name):
        model = tmp_path / name
        model.write_text("Maximize\n obj: x\nSubject To\n c1: x <= 1\nEnd\n")
        assert main([str(model), str(tmp_path / "solution.sol")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ppdsp-highs: ") and "does not end in '.lp'" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "solution.sol").exists()

    def test_lp_suffix_in_any_case(self, tmp_path):
        model = tmp_path / "m.LP"
        model.write_text("Maximize\n obj: x\nSubject To\n c1: x <= 1\nEnd\n")
        assert main([str(model), str(tmp_path / "solution.sol")]) == 0
        assert (tmp_path / "solution.sol").read_text().startswith("# status Optimal\n")

    @pytest.mark.parametrize("args", [[], ["model.lp"], ["a.lp", "b.sol", "10", "x"]],
                             ids=["none", "one", "four"])
    def test_wrong_usage_exits_2_with_one_usage_line(self, capsys, args):
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            "ppdsp-highs: usage: MODEL.lp SOLUTION.sol [TIME_LIMIT_S]"]

    @pytest.mark.parametrize("lp", [
        "Maximize\n obj: x\nSubject To\n c1: x <= 1\nEnd\n",
        "Maximize\n obj: nan x\nSubject To\n c1: x <= 1\nEnd\n",
    ], ids=["solved", "refused"])
    def test_solve_lp_text_leaves_nothing_behind(self, tmp_path, monkeypatch, lp):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        try:
            solve_lp_text(lp)
        except LpParseError:
            pass
        assert os.listdir(tmp_path) == []

    # inputs emit_lp never writes, whose outcome changed when HiGHS began
    # reading the file itself; each was different before
    @pytest.mark.parametrize("lp, outcome", [
        # was a StopIteration traceback: the summed coefficient is NaN
        ("Maximize\n obj: x\nSubject To\n c1: inf x - inf x <= 3\nEnd\n",
         ("Error", None, {})),
        # each was solved: HiGHS's reader wants End, and nothing after it
        ("Maximize\n obj: x\nSubject To\n c1: x <= 3\n", ("Error", None, {})),
        ("Maximize\n obj: x\nSubject To\n c1: x <= 3\nGenerals\n x",
         ("Error", None, {})),
        ("Maximize\n obj: x\nSubject To\n c1: x <= 3\nEnd\nx\n", ("Error", None, {})),
        # was an Error: parse_lp reads '-x' as a name, HiGHS's reader as - x
        ("Maximize\n obj: x\nSubject To\n c1: -x >= -3\nEnd\n",
         ("Optimal", 3.0, {"x": 3.0})),
        # was {'3x': 3.0}: likewise '3x' is 3 x to HiGHS's reader
        ("Maximize\n obj: 3x\nSubject To\n c1: 3x <= 3\nEnd\n",
         ("Optimal", 3.0, {"x": 1.0})),
        # was solved: HiGHS's reader refuses a name holding '['
        ("Maximize\n obj: x\nSubject To\n c1: x[1] + x <= 3\nEnd\n",
         ("Error", None, {})),
        # was 3.0: parse_lp keeps Maximize, HiGHS's reader the last sense
        ("Maximize\n obj: x\nSubject To\n c1: x <= 3\nMinimize\n obj: x\nEnd\n",
         ("Optimal", 0.0, {"x": 0.0})),
    ], ids=["row-inf-minus-inf", "no-end", "no-end-generals",
            "after-end", "signed-name", "number-glued-to-name", "bracket-name",
            "two-objectives"])
    def test_outcome_read_by_highs(self, lp, outcome):
        assert solve_lp_text(lp) == outcome

    @pytest.mark.parametrize("expression", ["x + x", "2 x + y + 3 x", "inf x - inf x"])
    def test_name_repeated_in_the_objective_refused(self, expression):
        # HiGHS's reader would keep only the name's last term
        with pytest.raises(LpParseError, match="repeated in the objective"):
            solve_lp_text(objective_lp(expression).replace("End", " c1: x <= 3\nEnd"))


class TestNumberBeforeASign:
    """A number that a sign follows multiplies no name. HiGHS's reader adds
    it as a constant, which the check's reading would drop, so the check
    refuses it."""

    @pytest.mark.parametrize("lp, reason", [
        ("Maximize\n obj: x + y\nSubject To\n c1: x + 2 - y <= 3\nEnd\n",
         "a number without a name before '-' in constraint 'c1: x + 2 - y <= 3'"),
        ("Maximize\n obj: x\nSubject To\n c1: 3 + x <= 3\nEnd\n",
         "a number without a name before '+' in constraint 'c1: 3 + x <= 3'"),
        ("Maximize\n obj: 3 + x\nSubject To\n c1: x <= 3\nEnd\n",
         "a number without a name before '+' in the objective"),
    ], ids=["number-between-names", "row-constant", "objective-constant"])
    def test_refused_naming_the_line(self, lp, reason):
        for read in (parse_lp, solve_lp_text):
            with pytest.raises(LpParseError) as info:
                read(lp)
            assert str(info.value) == reason

    def test_child_exits_2_with_one_reason_line(self, tmp_path, capsys):
        model = tmp_path / "model.lp"
        model.write_text("Maximize\n obj: 3 + x\nSubject To\n c1: x <= 3\nEnd\n")
        assert main([str(model), str(tmp_path / "solution.sol"), "10"]) == 2
        err = capsys.readouterr().err
        assert err == "ppdsp-highs: a number without a name before '+' in the objective\n"
        assert not (tmp_path / "solution.sol").exists()


class TestNameListsToTheEnd:
    @pytest.mark.parametrize("section, index", [("Generals", 4), ("Binaries", 5)])
    def test_section_without_end_still_read(self, section, index):
        lp = f"Maximize\n obj: x\nSubject To\n c1: x + y <= 3\n{section}\n x\n y"
        assert parse_lp(lp)[index] == ["x", "y"]


class TestRace:
    """The solver child races one HiGHS copy per CPU, up to two, only in a
    fresh process, so each test runs the child as a subprocess."""

    # the child's main, with its forks counted
    COUNTED = ("import os, sys; from ppdsp import highs_solver; forks = []; "
               "fork = os.fork; os.fork = lambda: forks.append(1) or fork(); "
               "code = highs_solver.main(sys.argv[1:]); print(len(forks)); sys.exit(code)")

    @staticmethod
    def child(argv, **popen):
        """(the finished child process, its stdout, its stderr)."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(ppdsp.__file__)))
        proc = subprocess.Popen([sys.executable, *argv], env={**os.environ, "PYTHONPATH": src},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                **popen)
        return proc, *proc.communicate(timeout=120)

    @staticmethod
    def copies(pid: int) -> list[int]:
        """The pids of a running child's own children, its raced copies."""
        with contextlib.suppress(FileNotFoundError):
            with open(f"/proc/{pid}/task/{pid}/children") as fh:
                return [int(tok) for tok in fh.read().split()]
        return []

    @staticmethod
    def header(solution) -> dict[str, str]:
        return dict(line[2:].split(" ", 1) for line in solution.read_text().splitlines()
                    if line.startswith("# "))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("encode", [encode_location, encode_request])
    def test_same_answer_on_two_cpus_and_on_one(self, tmp_path, seed, encode):
        model = tmp_path / "model.lp"
        model.write_text(emit_lp(encode(small_random_instance(seed)).model))
        cpus = os.sched_getaffinity(0)
        one_cpu = min(cpus)
        answers = []
        for pin, forks in [(None, 2 if len(cpus) >= 2 else 0), (one_cpu, 0)]:
            solution = tmp_path / f"solution-{pin}.sol"
            proc, out, err = self.child(
                ["-c", self.COUNTED, str(model), str(solution)],
                preexec_fn=None if pin is None else lambda: os.sched_setaffinity(0, {pin}))
            assert proc.returncode == 0, err
            assert out == f"{forks}\n"
            header = self.header(solution)
            answers.append((header["status"], float(header["objective"])))
        (status, objective), (pinned_status, pinned_objective) = answers
        assert status == pinned_status == "Optimal"
        assert objective == pytest.approx(pinned_objective, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("lp, limit, statuses, solution", [
        (None, "60", ["Optimal"], "solution.sol"),
        (None, "1e-3", ["TimeLimit", "Feasible"], "solution.sol"),
        ("Maximize\n obj: x\nSubject To\n c1: x <= 1\nBounds\n x = inf\nEnd\n", "60",
         ["Error"], "solution.sol"),
        ("Maximize\n obj: 3 + x\nSubject To\n c1: x <= 3\nEnd\n", "60", None,
         "solution.sol"),
        (None, "60", None, os.path.join("missing", "solution.sol")),
    ], ids=["answer", "time-limit", "refused-by-highs", "refused-by-the-check",
            "unwritable-solution"])
    def test_nothing_outlives_the_child(self, tmp_path, golden_instance, lp, limit, statuses,
                                        solution):
        model = tmp_path / "model.lp"
        model.write_text(lp or emit_lp(encode_request(golden_instance).model))
        out = tmp_path / "out"
        out.mkdir()
        proc, _, err = self.child(["-m", "ppdsp.highs_solver", str(model),
                                   str(out / solution), limit], start_new_session=True)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        if statuses is None:
            assert proc.returncode == 2 and err.count("\n") == 1
            assert os.listdir(out) == []
        else:
            assert proc.returncode == 0, err
            assert os.listdir(out) == ["solution.sol"]
            assert self.header(out / "solution.sol")["status"] in statuses

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU runs no race")
    @pytest.mark.parametrize("signum, kill", [(signal.SIGINT, os.killpg),
                                              (signal.SIGTERM, os.kill)],
                             ids=["ctrl-c-to-the-group", "sigterm-to-the-child"])
    def test_interrupted_race_leaves_nothing_behind(self, tmp_path, burma14, signum, kill):
        # a request model that takes seconds to solve, interrupted mid-race as
        # a terminal's Ctrl-C (the process group) or `timeout` (the child) would
        model = tmp_path / "model.lp"
        model.write_text(emit_lp(encode_request(generate_family(burma14, [1], 1, 0)[1]).model))
        out = tmp_path / "out"
        out.mkdir()
        src = os.path.dirname(os.path.dirname(os.path.abspath(ppdsp.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ppdsp.highs_solver", str(model), str(out / "solution.sol")],
            env={**os.environ, "PYTHONPATH": src}, stderr=subprocess.PIPE,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while len(self.copies(proc.pid)) < 2 and proc.poll() is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert proc.poll() is None, "the child ended before its race began"
            time.sleep(0.3)
            kill(proc.pid, signum)
            proc.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert proc.returncode != 0
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        assert os.listdir(out) == []

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU runs no race")
    @pytest.mark.skipif(sys.platform != "linux", reason="a parent-death signal is Linux's")
    def test_copies_die_with_a_killed_child(self, tmp_path, burma14):
        # a SIGKILL to the child alone skips its cleanup; the copies still end
        model = tmp_path / "model.lp"
        model.write_text(emit_lp(encode_request(generate_family(burma14, [1], 1, 0)[1]).model))
        out = tmp_path / "out"
        out.mkdir()
        src = os.path.dirname(os.path.dirname(os.path.abspath(ppdsp.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ppdsp.highs_solver", str(model), str(out / "solution.sol")],
            env={**os.environ, "PYTHONPATH": src}, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while len(self.copies(proc.pid)) < 2 and proc.poll() is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert proc.poll() is None, "the child ended before its race began"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        assert os.listdir(out) == []

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU runs no race")
    @pytest.mark.skipif(sys.platform != "linux", reason="a child's children are listed by Linux")
    def test_a_killed_copy_loses_without_sinking_the_solve(self, tmp_path, burma14):
        model = tmp_path / "model.lp"
        model.write_text(emit_lp(encode_request(generate_family(burma14, [1], 1, 0)[1]).model))
        out = tmp_path / "out"
        out.mkdir()
        src = os.path.dirname(os.path.dirname(os.path.abspath(ppdsp.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ppdsp.highs_solver", str(model), str(out / "solution.sol"),
             "2"],
            env={**os.environ, "PYTHONPATH": src}, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while len(pids := self.copies(proc.pid)) < 2 and proc.poll() is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert proc.poll() is None, "the child ended before its race began"
            time.sleep(0.3)
            os.kill(pids[0], signal.SIGKILL)
            _, err = proc.communicate(timeout=60)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        assert proc.returncode == 0, err
        assert os.listdir(out) == ["solution.sol"]
        assert self.header(out / "solution.sol")["status"] in ("Optimal", "Feasible", "TimeLimit")

    def test_the_seeds_give_the_copies_different_searches(self, tmp_path):
        model = tmp_path / "model.lp"
        model.write_text(emit_lp(encode_request(small_random_instance(2)).model))
        answers = [_solve_seed(str(model), [], None, seed) for seed in _SEEDS]
        assert [status for status, *_ in answers] == ["Optimal"] * len(_SEEDS)
        objectives = [objective for _, objective, _, _ in answers]
        assert max(objectives) == pytest.approx(min(objectives), rel=1e-9)
        assert len({telemetry["nodes"] for *_, telemetry in answers}) == len(_SEEDS)

    def test_a_very_short_limit_keeps_the_telemetry_headers(self, tmp_path):
        model = tmp_path / "model.lp"
        model.write_text(emit_lp(encode_request(small_random_instance(2)).model))
        solution = tmp_path / "solution.sol"
        proc, _, err = self.child(["-m", "ppdsp.highs_solver", str(model), str(solution), "1e-3"])
        assert proc.returncode == 0, err
        header = self.header(solution)
        assert header["status"] in ("Feasible", "TimeLimit")
        expected = ["status", "objective", "gap", "dual_bound", "nodes"]
        if header["status"] == "TimeLimit":  # no incumbent, so no objective
            expected.remove("objective")
        assert list(header) == expected
