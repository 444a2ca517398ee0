import contextlib
import copy
import io
import json
import os
import re
import sys

import pytest

from conftest import data_path
from ppdsp import enc_location, harness, instgen
from ppdsp.cli import main
from ppdsp.enc_request import predicted_counts_request
from ppdsp.instgen import serialize_instance
from ppdsp.mipir import ModelError

HIGHS_TEMPLATE = (f"{sys.executable} -m ppdsp.highs_solver "
                  "{model_path} {solution_path} {time_limit_s}")


@pytest.fixture()
def golden_path(tmp_path, golden_instance):
    path = tmp_path / "golden.instance"
    path.write_text(serialize_instance(golden_instance))
    return str(path)


def read_all(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestGen:
    def test_family_sizes_and_names(self, tmp_path, capsys):
        out = tmp_path / "instances"
        code = main(["gen", "--tsplib", data_path("burma14.tsp"),
                     "--k", "1,1.5,2,2.5,3", "--m", "2", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert [int(line.split("n=")[1].split()[0])
                for line in printed.strip().splitlines()] == [7, 10, 13, 16, 20]
        names = sorted(os.listdir(out))
        assert names == sorted(f"burma14_k{k}_m2_s7.instance"
                               for k in ("1", "1.5", "2", "2.5", "3"))

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["gen", "--tsplib", data_path("burma14.tsp"),
                         "--k", "1,2", "--m", "4", "--seed", "3",
                         "--out", str(out)]) == 0
        assert read_all(out_a) == read_all(out_b)

    def test_missing_tsplib_is_input_error(self, tmp_path, capsys):
        assert main(["gen", "--tsplib", str(tmp_path / "nope.tsp"),
                     "--k", "1", "--m", "2", "--seed", "0",
                     "--out", str(tmp_path)]) == 2

    def test_bad_k_list(self, tmp_path):
        assert main(["gen", "--tsplib", data_path("burma14.tsp"),
                     "--k", "one", "--m", "2", "--seed", "0",
                     "--out", str(tmp_path)]) == 2


class TestBuild:
    def test_location_counts_line(self, golden_path, tmp_path, capsys):
        lp = tmp_path / "m.lp"
        assert main(["build", "--instance", golden_path,
                     "--formulation", "loc", "--lp", str(lp)]) == 0
        assert capsys.readouterr().out.strip() == "vars=50 rows=73"
        assert lp.read_text().startswith("Maximize")

    def test_request_counts_line(self, golden_path, tmp_path, capsys):
        lp = tmp_path / "m.lp"
        assert main(["build", "--instance", golden_path,
                     "--formulation", "request", "--lp", str(lp)]) == 0
        v, r = predicted_counts_request(3, 2)
        assert capsys.readouterr().out.strip() == f"vars={v} rows={r}"

    def test_unreadable_instance(self, tmp_path):
        assert main(["build", "--instance", str(tmp_path / "x.instance"),
                     "--formulation", "loc", "--lp", str(tmp_path / "m.lp")]) == 2

    def test_census_mismatch_is_verify_error(self, golden_path, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr(enc_location, "predicted_counts_location",
                            lambda num_nodes, n, m: (0, 0))
        assert main(["build", "--instance", golden_path,
                     "--formulation", "loc", "--lp", str(tmp_path / "m.lp")]) == 3
        assert "disagrees with predicted (0, 0)" in capsys.readouterr().err


class TestSolveValidate:
    def test_solve_writes_solution(self, golden_path, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code = main(["solve", "--instance", golden_path, "--formulation", "loc",
                     "--solver", HIGHS_TEMPLATE, "--time-limit", "60",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        printed = captured.out
        assert "status=Optimal" in printed and "objective=14.000000" in printed
        doc = json.loads(out.read_text())
        assert {p["truck"] for p in doc["plans"]} == {0, 1}

    def test_validate_clean(self, golden_path, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"plans": [
            {"truck": 0, "delivery": [0, 1], "route": [0, 1, 2, 3, 0]},
            {"truck": 1, "delivery": [2], "route": [0, 2, 3, 0]}]}))
        assert main(["validate", "--instance", golden_path,
                     "--solution", str(sol)]) == 0
        printed = capsys.readouterr().out
        assert "xi=11" in printed and "valid" in printed

    def test_validate_duplicate_assignment(self, golden_path, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"plans": [
            {"truck": 0, "delivery": [2], "route": [0, 2, 3, 0]},
            {"truck": 1, "delivery": [2], "route": [0, 2, 3, 0]}]}))
        assert main(["validate", "--instance", golden_path,
                     "--solution", str(sol)]) == 3
        assert "DuplicateAssignment" in capsys.readouterr().out

    def test_solve_requires_solver(self, golden_path, monkeypatch):
        monkeypatch.delenv("PPDSP_SOLVER_CMD", raising=False)
        assert main(["solve", "--instance", golden_path,
                     "--formulation", "loc"]) == 2

    def test_solver_from_environment(self, golden_path, monkeypatch, capsys):
        monkeypatch.setenv("PPDSP_SOLVER_CMD", HIGHS_TEMPLATE)
        code = main(["solve", "--instance", golden_path,
                     "--formulation", "req", "--time-limit", "60"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "status=Optimal" in captured.out

    def test_failed_solver_reason_on_stderr(self, golden_path, capsys):
        failing = (f'{sys.executable} -c "import sys; sys.stderr.write(\'no licence\'); '
                   'sys.exit(3)" {model_path}')
        code = main(["solve", "--instance", golden_path, "--formulation", "loc",
                     "--solver", failing])
        captured = capsys.readouterr()
        assert code == 4
        assert "status=Error" in captured.out
        assert "solver exited with 3: no licence" in captured.err

    def test_solve_census_mismatch(self, golden_path, monkeypatch, capsys):
        # refused after encoding, before the solver runs
        monkeypatch.setattr(enc_location, "predicted_counts_location",
                            lambda num_nodes, n, m: (0, 0))
        assert main(["solve", "--instance", golden_path, "--formulation", "loc",
                     "--solver", "true {model_path}"]) == 3
        one_reason_line(capsys, "census (50, 73) disagrees with predicted (0, 0)")


class TestOracleCmd:
    def test_golden(self, golden_path, capsys):
        assert main(["oracle", "--instance", golden_path]) == 0
        printed = capsys.readouterr().out
        assert "optimal value: 11" in printed
        assert "truck 0: delivery={r0,r1} route=0->1->2->3->0" in printed

    def test_netted_rule(self, golden_path, capsys):
        assert main(["oracle", "--instance", golden_path,
                     "--capacity-rule", "netted"]) == 0
        assert "optimal value: 14" in capsys.readouterr().out


class TestBenchReport:
    def test_encode_only_csv_and_report(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        code = main(["bench", "--tsplib", data_path("burma14.tsp"),
                     "--k", "1", "--m", "2", "--solver", "none",
                     "--csv", str(csv_path)])
        assert code == 0
        text = csv_path.read_text()
        assert "burma14,1,2,7,location,458,1041,EncodeOnly" in text
        assert "burma14,1,2,7,request,576,1027,EncodeOnly" in text
        capsys.readouterr()
        report = tmp_path / "report.md"
        assert main(["report", "--csv", str(csv_path), "--solver-label", "none",
                     "--out", str(report)]) == 0
        assert "Obj. [none]" in report.read_text()

    def test_bench_rerun_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(["bench", "--tsplib", data_path("ulysses16.tsp"),
                         "--k", "1,2", "--m", "2,4", "--solver", "none",
                         "--csv", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


def one_reason_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert all(fragment in err for fragment in fragments), err


class TestInputErrors:
    """Bad input exits 2 with one reason line, never a traceback."""

    def bench_args(self, *extra):
        return ["bench", "--tsplib", data_path("burma14.tsp"), "--k", "1",
                "--solver", "none", *extra]

    def test_unknown_formulation(self, capsys):
        assert main(self.bench_args("--m", "2", "--formulations", "loc,foo")) == 2
        one_reason_line(capsys, "'foo'", "loc, location, req, request")

    def test_m_not_a_number(self, capsys):
        assert main(self.bench_args("--m", "two")) == 2
        one_reason_line(capsys, "bad m list 'two'")

    @pytest.mark.parametrize("m, reason", [("0", "m must be >= 1"),
                                           (",", "m_list is empty")],
                             ids=["zero", "empty"])
    def test_bench_bad_m_list(self, m, reason, capsys):
        assert main(self.bench_args("--m", m)) == 2
        one_reason_line(capsys, reason)

    @pytest.mark.parametrize("name", ["../escaped", "a/b"])
    def test_gen_refuses_a_sample_name_that_is_a_path(self, name, tmp_path, capsys):
        with open(data_path("burma14.tsp")) as fh:
            text = fh.read()
        path = tmp_path / "named.tsp"
        path.write_text(re.sub(r"(?m)^NAME.*$", f"NAME : {name}", text, count=1))
        assert main(["gen", "--tsplib", str(path), "--k", "1", "--m", "2", "--seed", "0",
                     "--out", str(tmp_path / "out")]) == 2
        one_reason_line(capsys, f"sample name {name!r} is not a file name")
        assert [p.name for p in tmp_path.rglob("*")] == ["named.tsp"]

    @pytest.mark.parametrize("k, m, reason", [
        ("1,1,2", "2", "k=1 is given twice"),
        ("2,1,2.0", "2", "k=2 is given twice"),
        ("1", "2,4,2", "m=2 is given twice"),
    ])
    def test_bench_repeated_k_or_m(self, k, m, reason, capsys):
        assert main(["bench", "--tsplib", data_path("burma14.tsp"), "--k", k,
                     "--m", m, "--solver", "none"]) == 2
        one_reason_line(capsys, reason)

    def test_gen_repeated_k(self, tmp_path, capsys):
        out = tmp_path / "instances"
        assert main(["gen", "--tsplib", data_path("burma14.tsp"), "--k", "1,1,2",
                     "--m", "2", "--seed", "0", "--out", str(out)]) == 2
        one_reason_line(capsys, "k=1 is given twice")
        assert not out.exists()

    def test_bench_formulation_given_twice_under_two_names(self, capsys):
        assert main(self.bench_args("--m", "2", "--formulations", "loc,location")) == 2
        one_reason_line(capsys, "formulation=location is given twice")

    def test_bench_sample_given_twice_under_two_paths(self, capsys):
        path = data_path("burma14.tsp")
        dotted = os.path.join(os.path.dirname(path), ".", os.path.basename(path))
        assert main(["bench", "--tsplib", path, dotted, "--k", "1", "--m", "2",
                     "--formulations", "req", "--solver", "none"]) == 2
        one_reason_line(capsys, "sample=burma14 is given twice")

    def test_bench_two_samples_with_one_name(self, tmp_path, capsys):
        paths = []
        for stem, rows in (("a", "1 0 0\n2 1 0\n3 0 1"), ("b", "1 0 0\n2 2 0\n3 0 2")):
            paths.append(tmp_path / f"{stem}.tsp")
            paths[-1].write_text(f"NAME: twin\nNODE_COORD_SECTION\n{rows}\nEOF\n")
        assert main(["bench", "--tsplib", *map(str, paths), "--k", "1", "--m", "2",
                     "--solver", "none"]) == 2
        one_reason_line(capsys, "sample=twin is given twice")

    @pytest.mark.parametrize("k, reason", [(",", "k_list is empty"),
                                           ("0.01", "n must be >= 1"),
                                           ("0,3", "n must be >= 1"),
                                           ("0.01,1", "n must be >= 1")])
    @pytest.mark.parametrize("command", ["gen", "bench"])
    def test_k_list_without_requests(self, command, k, reason, tmp_path, capsys):
        out = tmp_path / "instances"
        args = {"gen": ["gen", "--tsplib", data_path("burma14.tsp"), "--k", k,
                        "--m", "2", "--seed", "0", "--out", str(out)],
                "bench": ["bench", "--tsplib", data_path("burma14.tsp"), "--k", k,
                          "--m", "2", "--solver", "none"]}[command]
        assert main(args) == 2
        one_reason_line(capsys, reason)
        assert not out.exists()

    def test_report_refuses_a_repeated_cell(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text(
            "sample,k,m,n,formulation,num_vars,num_rows,status,objective,"
            "wall_time_s,seed\n"
            "burma14,1,2,7,location,458,1041,Optimal,5.000000,1.000,0\n"
            "burma14,1,2,7,location,458,1041,Optimal,9.000000,1.000,1\n")
        assert main(["report", "--csv", str(csv_path)]) == 2
        one_reason_line(capsys, f"{csv_path}: cell burma14 m=2 k=1 location "
                                "appears twice (seeds 0 and 1)")

    def test_bench_pairing_stalled(self, capsys, monkeypatch):
        def stalled(repetition, n, rng):
            raise instgen.PairingStalled("no valid pairing after 3 reshuffles")
        monkeypatch.setattr(instgen, "pair_nodes", stalled)
        assert main(self.bench_args("--m", "2")) == 2
        one_reason_line(capsys, "no valid pairing after 3 reshuffles")

    @pytest.mark.parametrize("command, k, reason", [
        ("gen", "inf", "k must be finite"),
        ("bench", "1,inf", "k must be finite"),
        ("gen", "nan", "k must be finite"),
        ("gen", "1e300", "distinct ordered pairs"),
        ("bench", "25", "n=163 exceeds the 156 distinct ordered pairs"),
    ])
    def test_impossible_k_refused_before_any_draw(self, command, k, reason, tmp_path,
                                                  capsys, monkeypatch):
        def drawn(*args):
            raise AssertionError("generator drew before refusing k")
        monkeypatch.setattr(instgen, "repetition_counts", drawn)
        args = {"gen": ["gen", "--tsplib", data_path("burma14.tsp"), "--k", k,
                        "--m", "2", "--seed", "0", "--out", str(tmp_path)],
                "bench": ["bench", "--tsplib", data_path("burma14.tsp"), "--k", k,
                          "--m", "2", "--solver", "none"]}[command]
        assert main(args) == 2
        one_reason_line(capsys, reason)

    @pytest.mark.parametrize("dimension, rows, reason", [
        ("x", "1 0 0\n2 1 0\n3 0 1", "line 2: bad DIMENSION value"),
        ("3", "1 0 0\n2 one 0\n3 0 1", "line 5: non-numeric coordinate row"),
        ("2", "1 0 0\n2 1 0", "TooFewNodes: need at least 3 coordinate rows"),
        ("3", "1 0 0\n2 1 0\n3 inf 1", "line 6: coordinate is not finite"),
        ("3", "1 0 0\n2 1 0\n3 nan 1", "line 6: coordinate is not finite"),
        ("3", "1 0 0\n2 1e308 0\n3 -1e308 1",
         "sample bad: average distance inf is not finite"),
    ], ids=["dimension-text", "coordinate-text", "two-rows", "inf", "nan",
            "distance-overflow"])
    @pytest.mark.parametrize("command", ["gen", "bench"])
    def test_bad_tsplib_file(self, command, dimension, rows, reason, tmp_path, capsys):
        path = tmp_path / "bad.tsp"
        path.write_text(f"NAME: bad\nDIMENSION: {dimension}\nNODE_COORD_SECTION\n"
                        f"{rows}\nEOF\n")
        args = {"gen": ["gen", "--tsplib", str(path), "--k", "1", "--m", "1",
                        "--seed", "0", "--out", str(tmp_path / "out")],
                "bench": ["bench", "--tsplib", str(path), "--k", "1", "--m", "1",
                          "--solver", "none"]}[command]
        assert main(args) == 2
        one_reason_line(capsys, reason)

    def test_oracle_refuses_a_large_instance(self, tmp_path, capsys):
        assert main(["gen", "--tsplib", data_path("burma14.tsp"), "--k", "1",
                     "--m", "1", "--seed", "0", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["oracle", "--instance",
                     str(tmp_path / "burma14_k1_m1_s0.instance")]) == 2
        one_reason_line(capsys, "instance too large for enumeration "
                                "(n=7, m=1, |V|=14; ~128 assignments)")

    @pytest.mark.parametrize("args", [
        ["solve", "--formulation", "loc", "--solver", "true {model_path}"],
        ["bench", "--tsplib", data_path("burma14.tsp"), "--k", "1", "--m", "2"],
        ["report", "--csv", "bench.csv"],
    ])
    @pytest.mark.parametrize("limit", ["nan", "inf", "0", "abc"])
    def test_time_limit_must_be_finite_and_positive(self, args, limit, golden_path,
                                                    capsys):
        if args[0] == "solve":
            args = [*args, "--instance", golden_path]
        with pytest.raises(SystemExit) as exit_info:
            main([*args, f"--time-limit={limit}"])
        assert exit_info.value.code == 2
        assert f"{limit!r} is not a finite number > 0" in capsys.readouterr().err

    def test_dialect_option_is_gone(self, golden_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--instance", golden_path, "--formulation", "loc",
                  "--solver", "true {model_path}", "--dialect", "xml"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --dialect xml" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", [ModelError])
    def test_bench_program_fault_propagates(self, monkeypatch, fault):
        # a ValueError too, but not bad input
        def broken(instance):
            raise fault("a fault of the program")
        monkeypatch.setattr(enc_location, "encode_location", broken)
        with pytest.raises(fault, match="a fault of the program"):
            main(self.bench_args("--m", "2", "--formulations", "location"))

    def test_bench_census_mismatch_is_verify_error(self, monkeypatch, capsys):
        monkeypatch.setattr(enc_location, "predicted_counts_location",
                            lambda num_nodes, n, m: (0, 0))
        assert main(self.bench_args("--m", "2", "--formulations", "location")) == 3
        one_reason_line(capsys, "disagrees with predicted (0, 0)")

    @pytest.mark.parametrize("spoil, reason", [
        (lambda doc: doc["locations"][1].update(x="abc"),
         "$.locations[1]: 'x' must be a finite number, not 'abc'"),
        (lambda doc: doc["locations"][1].pop("y"), "$.locations[1]: missing field 'y'"),
        (lambda doc: doc["meta"].update(k="abc"),
         "$.meta: 'k' must be a finite number, not 'abc'"),
        (lambda doc: doc.update(locations=doc["locations"][:1]),
         "$.locations: graph needs a depot"),
        (lambda doc: doc["locations"].__setitem__(1, 5), "$.locations[1]: 'int'"),
        (lambda doc: doc["trucks"][1]["costs"][2].__setitem__(0, "abc"),
         "$.trucks[1]: 'costs' must be a finite number, not 'abc'"),
        (lambda doc: doc.update(requests=3), "$: 'int' object is not iterable"),
        (lambda doc: doc["requests"][0].update(q=4.9),
         "$.requests[0]: 'q' must be an integer, not 4.9"),
        (lambda doc: doc["requests"][1].update(pickup=True),
         "$.requests[1]: 'pickup' must be an integer, not True"),
        (lambda doc: doc["trucks"][0].update(capacity="7"),
         "$.trucks[0]: 'capacity' must be an integer, not '7'"),
        (lambda doc: doc["trucks"][0].update(costs=[[0.0, 1.0], [1.0, 0.0]]),
         "$: truck 0: cost matrix is not 4x4"),
        (lambda doc: doc["trucks"][1]["costs"][2].pop(),
         "$: truck 1: cost matrix is not 4x4"),
        (lambda doc: doc["trucks"][0].update(id=5), "$: truck ids must be 0..m-1 in order"),
        (lambda doc: doc["requests"][0].update(id=7),
         "$: request ids must be 0..n-1 in order"),
    ], ids=["x-text", "no-y", "k-text", "one-location", "location-not-an-object",
            "costs-text", "requests-a-number", "q-fraction", "pickup-bool",
            "capacity-text", "costs-2x2", "costs-short-row", "truck-id-5",
            "request-id-7"])
    def test_malformed_instance(self, spoil, reason, golden_path, tmp_path, capsys):
        # validate, build and solve read the instance the same way
        with open(golden_path) as fh:
            doc = json.load(fh)
        spoil(doc)
        path = tmp_path / "spoiled.instance"
        path.write_text(json.dumps(doc))
        assert main(["oracle", "--instance", str(path)]) == 2
        one_reason_line(capsys, str(path), reason)

    @pytest.mark.parametrize("spoil, reason", [
        (lambda doc: doc["requests"][0].update(w=float("inf")),
         "$.requests[0]: 'w' must be a finite number, not inf"),
        (lambda doc: doc["locations"][2].update(x=float("-inf")),
         "$.locations[2]: 'x' must be a finite number, not -inf"),
        (lambda doc: doc["trucks"][0]["costs"][1].__setitem__(2, float("nan")),
         "$.trucks[0]: 'costs' must be a finite number, not nan"),
        (lambda doc: doc["trucks"][1].update(coefficient=True),
         "$.trucks[1]: 'coefficient' must be a finite number, not True"),
        (lambda doc: doc["meta"].update(k="3"),
         "$.meta: 'k' must be a finite number, not '3'"),
    ], ids=["w-Infinity", "x-minus-Infinity", "costs-NaN", "coefficient-true",
            "k-numeric-text"])
    @pytest.mark.parametrize("command", ["build", "validate", "oracle"])
    def test_instance_number_not_finite(self, spoil, reason, command, golden_path,
                                        tmp_path, capsys):
        # json.dumps writes inf and nan as JSON's Infinity and NaN
        with open(golden_path) as fh:
            doc = json.load(fh)
        spoil(doc)
        path = tmp_path / "spoiled.instance"
        path.write_text(json.dumps(doc))
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps(SOLUTION_DOC))
        args = {"build": ["--formulation", "loc", "--lp", str(tmp_path / "m.lp")],
                "validate": ["--solution", str(sol)], "oracle": []}[command]
        assert main([command, "--instance", str(path), *args]) == 2
        one_reason_line(capsys, str(path), reason)

    @pytest.mark.parametrize("plan, reason", [
        ({"truck": 7, "delivery": [2], "route": [0, 2, 3, 0]}, "unknown truck id 7"),
        ({"truck": 1, "delivery": [9], "route": [0, 2, 3, 0]}, "unknown request id 9"),
        ({"truck": 1, "delivery": [2], "route": [0, 2, 99, 3, 0]}, "unknown node id 99"),
        ({"truck": 0.9, "delivery": [2], "route": [0, 2, 3, 0]},
         "'truck' must be an integer, not 0.9"),
        ({"truck": True, "delivery": [2], "route": [0, 2, 3, 0]},
         "'truck' must be an integer, not True"),
        ({"truck": "1", "delivery": [2], "route": [0, 2, 3, 0]},
         "'truck' must be an integer, not '1'"),
        ({"truck": 1, "delivery": [2.0], "route": [0, 2, 3, 0]},
         "'delivery' must be an integer, not 2.0"),
        ({"truck": 1, "delivery": [True], "route": [0, 2, 3, 0]},
         "'delivery' must be an integer, not True"),
        ({"truck": 1, "delivery": ["2"], "route": [0, 2, 3, 0]},
         "'delivery' must be an integer, not '2'"),
        ({"truck": 1, "delivery": [2], "route": [0, 2.5, 3, 0]},
         "'route' must be an integer, not 2.5"),
        ({"truck": 1, "delivery": [2], "route": [0, 2, False, 0]},
         "'route' must be an integer, not False"),
        ({"truck": 1, "delivery": [2], "route": [0, "2", 3, 0]},
         "'route' must be an integer, not '2'"),
    ], ids=["truck-7", "request-9", "node-99", "truck-float", "truck-bool",
            "truck-text", "delivery-float", "delivery-bool", "delivery-text",
            "route-float", "route-bool", "route-text"])
    def test_solution_names_an_unknown_id(self, plan, reason, golden_path, tmp_path,
                                          capsys):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"plans": [plan]}))
        assert main(["validate", "--instance", golden_path, "--solution", str(sol)]) == 2
        one_reason_line(capsys, f"bad solution file: {reason}")

    @pytest.mark.parametrize("node", [99, -1])
    def test_one_node_route_outside_the_graph(self, node, golden_path, tmp_path, capsys):
        # such a route has no arc, yet its node is checked like any other
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"plans": [
            {"truck": 0, "delivery": [], "route": [node]}]}))
        assert main(["validate", "--instance", golden_path, "--solution", str(sol)]) == 2
        one_reason_line(capsys, f"bad solution file: unknown node id {node}")

    def test_solution_gives_one_truck_two_plans(self, golden_path, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"plans": [
            {"truck": 0, "delivery": [0], "route": [0, 1, 3, 0]},
            {"truck": 0, "delivery": [2], "route": [0, 2, 3, 0]}]}))
        assert main(["validate", "--instance", golden_path, "--solution", str(sol)]) == 2
        one_reason_line(capsys, "bad solution file: truck 0 has two plans")

    @pytest.mark.parametrize("template, reason", [
        ("mysolver", "command template must contain {model_path}"),
        ("echo {model_path} {oops}", "command template field {oops} is not one of"),
        ("awk '{print}' {model_path}", "command template field {print} is not one of"),
        ("true {model_path} {time_limit_s:d}", "Unknown format code 'd'"),
        ("true {model_path!x}", "Unknown conversion specifier x"),
    ], ids=["no-model-path", "unknown-field", "literal-braces", "format-spec",
            "conversion"])
    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_bad_solver_template(self, template, reason, command, golden_path, capsys):
        args = {"solve": ["--instance", golden_path, "--formulation", "loc"],
                "bench": ["--tsplib", data_path("burma14.tsp"), "--k", "1",
                          "--m", "2"]}[command]
        assert main([command, *args, "--solver", template]) == 2
        one_reason_line(capsys, reason)

    @pytest.mark.parametrize("command", ["gen", "build", "solve", "bench", "report"])
    def test_unwritable_output(self, command, golden_path, tmp_path, capsys, monkeypatch):
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", "--tsplib", data_path("burma14.tsp"), "--k", "1",
                     "--m", "2", "--solver", "none", "--csv", str(csv_path)]) == 0
        (tmp_path / "blocker").write_text("")  # a file, so nothing fits under it
        out = str(tmp_path / "blocker" / "out")
        args = {"gen": ["--tsplib", data_path("burma14.tsp"), "--k", "1", "--m", "2",
                        "--seed", "0", "--out", out],
                "build": ["--instance", golden_path, "--formulation", "loc",
                          "--lp", out],
                "solve": ["--instance", golden_path, "--formulation", "loc",
                          "--solver", HIGHS_TEMPLATE, "--time-limit", "60",
                          "--out", out],
                "bench": ["--tsplib", data_path("burma14.tsp"), "--k", "1",
                          "--m", "2", "--solver", "none", "--csv", out],
                "report": ["--csv", str(csv_path), "--out", out]}[command]
        capsys.readouterr()
        cells = []  # solve --out and bench --csv are refused before any work
        monkeypatch.setattr(harness, "_bench_cell", lambda *a: cells.append(a))
        assert main([command, *args]) == 2
        printed = capsys.readouterr()
        assert "status=" not in printed.out and cells == []
        assert printed.err == f"cannot write {out}: Not a directory\n"

    @pytest.mark.parametrize("where, reason", [
        ("dir", "Is a directory"), ("missing/bench.csv", "No such file or directory")])
    def test_bench_csv_path_checked_without_creating_it(self, where, reason, tmp_path,
                                                         capsys, monkeypatch):
        (tmp_path / "dir").mkdir()
        out = str(tmp_path / where)
        cells = []
        monkeypatch.setattr(harness, "_bench_cell", lambda *a: cells.append(a))
        assert main(self.bench_args("--m", "2", "--csv", out)) == 2
        one_reason_line(capsys, f"cannot write {out}: {reason}")
        assert cells == [] and sorted(os.listdir(tmp_path)) == ["dir"]

    def test_missing_solution_file(self, golden_path, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["validate", "--instance", golden_path,
                     "--solution", missing]) == 2
        one_reason_line(capsys, missing)

    def test_missing_report_csv(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["report", "--csv", missing]) == 2
        one_reason_line(capsys, missing)

    def test_report_csv_without_a_column(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text("sample,k,n\nburma14,1,7\n")
        assert main(["report", "--csv", str(csv_path)]) == 2
        one_reason_line(capsys, "no column 'm'")

    @pytest.mark.parametrize("bad_row, reason", [
        ("burma14,1,2,7,location,458,1041,EncodeOnly,,,0,extra", "more"),
        ("burma14,1,2,7,location,458,1041,EncodeOnly,,", "fewer"),  # no seed
    ], ids=["long", "short"])
    def test_report_csv_row_unlike_its_header(self, bad_row, reason, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text(",".join(harness.CSV_HEADER) + "\n"
                            "burma14,1,2,7,location,458,1041,EncodeOnly,,,0\n"
                            f"{bad_row}\n")
        assert main(["report", "--csv", str(csv_path)]) == 2
        one_reason_line(capsys, f"{csv_path}: line 3: {reason} fields than the header")

    @pytest.mark.parametrize("column, value, reason", [
        ("k", "nan", "is not finite"), ("k", "inf", "is not finite"),
        ("objective", "nan", "is not finite"), ("objective", "-inf", "is not finite"),
        ("wall_time_s", "nan", "is not finite"), ("wall_time_s", "-1", "is negative"),
        ("formulation", "loc", "is not location or request"),
    ])
    def test_report_csv_number_out_of_range(self, column, value, reason, tmp_path, capsys):
        fields = dict(zip(harness.CSV_HEADER, "burma14,1,2,7,location,458,1041,"
                                              "Optimal,12.5,0.5,0".split(",")))
        fields[column] = value
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text(",".join(harness.CSV_HEADER) + "\n"
                            + ",".join(fields.values()) + "\n")
        assert main(["report", "--csv", str(csv_path)]) == 2
        one_reason_line(capsys, f"{csv_path}: line 2: {column} '{value}' {reason}")


def json_paths(node, prefix=()):
    """The key path of every value inside a JSON document, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


DELETE = "delete"
# a string, null, a list, a float, -1, a huge int, Infinity and NaN, besides
# deleting the key or the list entry (a costs row or entry among them)
MUTATIONS = [DELETE, "x", None, [], [0], 0.5, -1, 10**30, float("inf"), float("nan")]

with open(data_path("threereq.instance")) as fh:
    INSTANCE_DOC = json.load(fh)
SOLUTION_DOC = {"plans": [{"truck": 0, "delivery": [0, 1], "route": [0, 1, 2, 3, 0]},
                          {"truck": 1, "delivery": [2], "route": [0, 2, 3, 0]}]}


def mutated(doc, path, mutation):
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if mutation == DELETE:
        del node[last]
    else:
        node[last] = mutation
    return doc


def run_in_process(*args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(list(args))


def mutation_cases(doc):
    """Every (path, mutation) pair of doc, with a readable test id."""
    return [pytest.param(path, mutation,
                         id="/".join(map(str, path)) + "=" + repr(mutation))
            for path in json_paths(doc) for mutation in MUTATIONS]


class TestMutatedInputs:
    """Each field of the golden instance or of a valid solution file, mutated
    each way: validate and oracle exit 0, 2 or 3, never with a traceback."""

    @pytest.mark.parametrize("path, mutation", mutation_cases(INSTANCE_DOC))
    def test_instance_mutation(self, tmp_path, path, mutation):
        instance, solution = tmp_path / "mutated.instance", tmp_path / "solution.json"
        instance.write_text(json.dumps(mutated(INSTANCE_DOC, path, mutation)))
        solution.write_text(json.dumps(SOLUTION_DOC))
        assert run_in_process("validate", "--instance", str(instance),
                              "--solution", str(solution)) in (0, 2, 3)
        assert run_in_process("oracle", "--instance", str(instance)) in (0, 2, 3)

    @pytest.mark.parametrize("path, mutation", mutation_cases(SOLUTION_DOC))
    def test_solution_mutation(self, tmp_path, path, mutation):
        solution = tmp_path / "mutated.json"
        solution.write_text(json.dumps(mutated(SOLUTION_DOC, path, mutation)))
        assert run_in_process("validate", "--instance", data_path("threereq.instance"),
                              "--solution", str(solution)) in (0, 2, 3)


class TestStdout:
    """Without a file to write, bench and report write the same bytes to
    stdout."""

    def test_bench_without_csv_writes_the_csv_to_stdout(self, tmp_path, capsys):
        args = ["bench", "--tsplib", data_path("burma14.tsp"), "--k", "1,2",
                "--m", "2", "--solver", "none"]
        assert main(args) == 0
        out = capsys.readouterr().out
        csv_path = tmp_path / "bench.csv"
        assert main([*args, "--csv", str(csv_path)]) == 0
        assert out.encode() == csv_path.read_bytes()

    def test_report_without_out_writes_the_report_to_stdout(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", "--tsplib", data_path("burma14.tsp"), "--k", "1",
                     "--m", "2", "--solver", "none", "--csv", str(csv_path)]) == 0
        args = ["report", "--csv", str(csv_path), "--solver-label", "none"]
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        report = tmp_path / "report.md"
        assert main([*args, "--out", str(report)]) == 0
        assert out.encode() == report.read_bytes()


class TestReportCsvHeader:
    @pytest.mark.parametrize("text, column", [("sample,k\n", "m"), ("", "sample")],
                             ids=["two-columns", "empty"])
    def test_csv_without_rows_refused_by_its_header(self, tmp_path, capsys, text, column):
        csv_path = tmp_path / "bench.csv"
        csv_path.write_text(text)
        assert main(["report", "--csv", str(csv_path)]) == 2
        one_reason_line(capsys, f"no column '{column}'")
