import dataclasses
import os
import signal
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import data_path, small_random_instance
from ppdsp import enc_location, enc_request, harness
from ppdsp.cli import main
from ppdsp.core import (DeliveryRoutingSolution, Instance, InstanceMeta,
                        LocationGraph, Request, Truck, ValidationReport,
                        Violation, ViolationKind, validate_solution, xi)
from ppdsp.harness import (BenchRecord, CensusMismatch, OracleRefused, SolveOutcome,
                           SolverAdapter, SolverProcessError, bench,
                           enumerate_xi, formulation, oracle, records_from_csv,
                           records_to_csv, render_markdown, run_adapter, solve)
from ppdsp.instgen import parse_tsplib, serialize_instance
from ppdsp.mipir import ModelBuilder, VarKind, parse_solution

GOLDEN_XI_VALUES = [-2, -1, 0, 0, 0, 1, 1, 2, 2, 2, 3, 4, 4, 5, 7, 7, 7, 8,
                    9, 10, 11]


def x1_model():
    """A model of one binary variable, x1, in no row."""
    builder = ModelBuilder()
    builder.add_variables(["x1"], VarKind.BINARY, [0.0], [1.0], [1.0])
    return builder.build()


def stub_adapter(tmp_path, body: str) -> SolverAdapter:
    """Adapter whose 'solver' is a tiny script writing a canned solution."""
    script = tmp_path / "stub_solver.py"
    script.write_text(
        "import sys\n"
        "with open(sys.argv[2], 'w') as fh:\n"
        f"    fh.write({body!r})\n")
    return SolverAdapter(
        command_template=f"{sys.executable} {script} {{model_path}} {{solution_path}}")


class TestOracle:
    def test_golden_value_and_plan(self, golden_instance):
        value, solution = oracle(golden_instance)
        assert value == 11.0
        p0, p1 = solution.plan_for(0), solution.plan_for(1)
        assert p0.delivery == frozenset({0, 1}) and p0.route == (0, 1, 2, 3, 0)
        assert p1.delivery == frozenset({2}) and p1.route == (0, 2, 3, 0)

    def test_netted_rule_relaxes_the_peak(self, golden_instance):
        value, solution = oracle(golden_instance, capacity_rule="netted")
        assert value == 14.0
        assert solution.plan_for(0).delivery == frozenset({0, 1, 2})

    def test_request_semantics_beats_location_here(self, golden_instance):
        value, _ = oracle(golden_instance, "request")
        assert value == 14.0

    def test_unprofitable_request_left_unserved(self):
        graph = LocationGraph(coords=((0.0, 0.0), (100.0, 0.0), (100.0, 1.0)))
        inst = Instance(graph=graph,
                        requests=(Request(id=0, w=1.0, q=1, pickup=1, dropoff=2),),
                        trucks=(Truck(id=0, capacity=5, cost_coefficient=1.0),),
                        meta=InstanceMeta())
        value, solution = oracle(inst)
        assert value == 0.0
        assert solution.plan_for(0).delivery == frozenset()
        assert solution.plan_for(0).route == ()

    def test_refuses_large_instances(self, golden_instance):
        too_many = harness.ORACLE_MAX_REQUESTS + 1
        requests = tuple(Request(id=i, w=1.0, q=1, pickup=1, dropoff=2)
                         for i in range(too_many))
        large = dataclasses.replace(golden_instance, requests=requests)
        with pytest.raises(OracleRefused, match=f"n={too_many}"):
            oracle(large)
        with pytest.raises(OracleRefused):
            enumerate_xi(large)

    def test_rejects_unknown_semantics(self, golden_instance):
        with pytest.raises(ValueError, match="unknown semantics 'telepathy'"):
            oracle(golden_instance, "telepathy")
        with pytest.raises(ValueError, match="unknown capacity rule 'bogus'"):
            oracle(golden_instance, capacity_rule="bogus")

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_request_dominates_location(self, seed):
        inst = small_random_instance(seed)
        v_loc, _ = oracle(inst, "location")
        v_req, _ = oracle(inst, "request")
        assert v_req >= v_loc - 1e-9

    def test_oracle_solution_is_validator_clean(self, golden_instance):
        _, solution = oracle(golden_instance)
        assert validate_solution(solution, golden_instance).ok


class TestEnumerateXi:
    def test_all_21_golden_values(self, golden_instance):
        entries = enumerate_xi(golden_instance)
        assert sorted(round(v) for _, v in entries) == GOLDEN_XI_VALUES

    def test_named_entries(self, golden_instance):
        entries = enumerate_xi(golden_instance)
        by_shape = {}
        for sol, value in entries:
            key = (tuple(sorted(sol.plans[0].delivery)), sol.plans[0].route,
                   tuple(sorted(sol.plans[1].delivery)))
            by_shape[key] = value
        assert by_shape[((0, 1), (0, 1, 2, 3, 0), ())] == 10.0
        assert by_shape[((1,), (0, 1, 2, 0), ())] == -1.0

    def test_entries_score_consistently(self, golden_instance):
        for sol, value in enumerate_xi(golden_instance):
            assert xi(sol, golden_instance) == pytest.approx(value)
            assert validate_solution(sol, golden_instance).ok

    def test_empty_request_set(self):
        graph = LocationGraph(coords=((0.0, 0.0), (1.0, 0.0)))
        inst = Instance(graph=graph, requests=(),
                        trucks=(Truck(id=0, capacity=5, cost_coefficient=1.0),),
                        meta=InstanceMeta())
        entries = enumerate_xi(inst)
        assert len(entries) == 1
        assert entries[0][1] == 0.0


class TestAdapters:
    def test_template_requires_model_path(self):
        with pytest.raises(ValueError):
            SolverAdapter(command_template="mysolver")

    @pytest.mark.parametrize("template", ["s {model_path:{oops}}", "s {model_path:{}}"])
    def test_template_refused_when_its_spec_cannot_format(self, template):
        # each nests a field in a format spec, which str.format resolves only
        # when it formats the template
        with pytest.raises(ValueError, match="command template 's "):
            SolverAdapter(command_template=template)

    def test_run_adapter_round_trip(self, tmp_path):
        adapter = stub_adapter(tmp_path, "# status Optimal\nx1 1\n")
        text = run_adapter(adapter, "Maximize\n obj: x1\nEnd\n", 10)
        assert parse_solution(text, x1_model())[0] == "Optimal"
        assert "x1 1" in text

    def test_missing_solution_file(self, tmp_path):
        adapter = SolverAdapter(command_template="true {model_path}")
        with pytest.raises(SolverProcessError):
            run_adapter(adapter, "Maximize\nEnd\n", 10)

    @pytest.mark.parametrize("pythonpath, module_dir", [
        ("stubs", "stubs"),
        (f"nowhere{os.pathsep}", "."),  # an empty entry is the working directory
    ])
    def test_relative_pythonpath_reaches_the_solver(self, tmp_path, monkeypatch,
                                                    pythonpath, module_dir):
        # the solver module is importable only through the relative entry,
        # read against the caller's directory, not the solver's temp directory
        (tmp_path / module_dir).mkdir(exist_ok=True)
        (tmp_path / module_dir / "relative_stub_solver.py").write_text(
            "import sys\n"
            "with open(sys.argv[2], 'w') as fh:\n"
            "    fh.write('# status Optimal\\nx1 1\\n')\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PYTHONPATH", pythonpath)
        adapter = SolverAdapter(
            command_template=f"{sys.executable} -m relative_stub_solver "
                             "{model_path} {solution_path}")
        text = run_adapter(adapter, "Maximize\n obj: x1\nEnd\n", 10)
        assert parse_solution(text, x1_model())[0] == "Optimal"
        assert "x1 1" in text

    def test_nonzero_exit(self, tmp_path):
        adapter = SolverAdapter(
            command_template=f'{sys.executable} -c "import sys; sys.exit(3)" '
                             "{model_path}")
        with pytest.raises(SolverProcessError):
            run_adapter(adapter, "Maximize\nEnd\n", 10)


def made_up_violation(solution, instance):
    return ValidationReport((Violation(ViolationKind.CAPACITY_EXCEEDED, 1, "made up"),))


# (solver, patched harness attribute, status, reason, `ppdsp solve` exit code).
# A solver with a {model_path} slot is a command template; any other is the
# text a stub solver writes as its solution file.
FAILURE_MODES = {
    "crash": ("exit 9 # {model_path}", None, "Error", "solver exited with 9", 4),
    "timeout": ("sleep 30 # {model_path}", None, "Error", "past its 0.1 s limit", 4),
    "missing file": ("true {model_path}", None, "Error", "no solution file", 4),
    "undecodable stderr": ("printf '\\377' >&2; exit 3 # {model_path}", None, "Error",
                           "solver exited with 3: \ufffd", 4),
    "undecodable file": ("printf '# status Optimal\\n\\377 1\\n' > {solution_path} "
                         "# {model_path}", None, "Error",
                         "line 2: unknown variable \ufffd", 4),
    "malformed line": ("# status Optimal\nx_t0_o0_d1 1 2\n", None, "Error",
                       "line 2: expected 'name value'", 4),
    "unknown name": ("# status Optimal\n# objective 14.0\nX_T0_O0_D1 1\n", None,
                     "Error", "line 3: unknown variable X_T0_O0_D1", 4),
    "fractional value": ("# status Optimal\nx_t0_o0_d1 0.5\n", None, "Error",
                         "not integral", 4),
    "non-finite value": ("# status Optimal\nu_t0_v1 nan\n", None, "Error",
                         "line 2: bad value 'nan'", 4),
    "variable given twice": ("# status Optimal\ny_t1_r2 1\nx_t1_o0_d2 1\nx_t1_o2_d3 1\n"
                             "x_t1_o3_d0 1\ny_t1_r2 0\n", None, "Error",
                             "line 6: variable y_t1_r2 given twice", 4),
    "no status line": ("y_t0_r0 0\n", None, "Feasible", "", 0),
    "empty answer": ("true > {solution_path} # {model_path}", None, "Error",
                     "solver wrote neither a status nor values", 4),
    "unknown status": ("# status Solved\n", None, "Error",
                       "solver declared status 'Solved'", 4),
    "declared error": ("# status error\n", None, "Error",
                       "solver declared status 'error'", 4),
    "objective mismatch": ("# status Optimal\n", ("xi", lambda solution, instance: 1.0),
                           "Error", "solver objective 0.0 != recomputed value 1.0", 3),
    "validation failure": ("# status Optimal\n",
                           ("validate_solution", made_up_violation), "Error",
                           "claimed-feasible solution fails validation", 3),
    # a header is a line whose stripped text starts with '#'; the status line
    # is the first header whose first two tokens are '#' and 'status'
    "status_code header first": ("# status_code 0\n# status Optimal\ny_t1_r2 1\n"
                                 "x_t1_o0_d2 1\nx_t1_o2_d3 1\nx_t1_o3_d0 1\n", None,
                                 "Optimal", "", 0),
    "indented status": ("  # status Infeasible\n", None, "Infeasible", "", 0),
    "indented header alone": ("  # note\n", None, "Error",
                              "solver wrote neither a status nor values", 4),
    "bare status": ("# status\n", None, "Error",
                    "line 1: malformed status line '# status'", 4),
    "two status words": ("# gap 0\n  # status Optimal now\n", None, "Error",
                         "line 2: malformed status line '# status Optimal now'", 4),
    # only an Optimal or Feasible answer's value lines are read
    "infeasible with a bad value line": ("# status Infeasible\nx_t0_o0_d1 1 2\n", None,
                                         "Infeasible", "", 0),
}


class TestSolve:
    def test_location_against_backend(self, golden_instance, highs_adapter):
        outcome = solve(golden_instance, "location", highs_adapter, 60)
        assert outcome.status == "Optimal", outcome.error
        assert outcome.objective == pytest.approx(14.0)
        assert validate_solution(outcome.solution, golden_instance).ok
        assert xi(outcome.solution, golden_instance) == pytest.approx(14.0)

    def test_request_against_backend(self, golden_instance, highs_adapter):
        outcome = solve(golden_instance, "request", highs_adapter, 60)
        assert outcome.status == "Optimal", outcome.error
        assert outcome.objective == pytest.approx(14.0)
        assert not outcome.violations

    def test_declared_infeasible(self, golden_instance, tmp_path):
        adapter = stub_adapter(tmp_path, "# status Infeasible\n")
        outcome = solve(golden_instance, "location", adapter, 10)
        assert outcome.status == "Infeasible"
        assert outcome.solution is None

    def test_all_zero_optimal_decodes_to_idle(self, golden_instance, tmp_path):
        adapter = stub_adapter(tmp_path, "# status Optimal\n# objective 0.0\n")
        outcome = solve(golden_instance, "location", adapter, 10)
        assert outcome.status == "Optimal"
        assert outcome.objective == 0.0
        assert all(p.route == () for p in outcome.solution.plans)

    def test_values_without_status_line_are_feasible(self, golden_instance, tmp_path):
        adapter = stub_adapter(tmp_path, "y_t0_r0 0\n")
        outcome = solve(golden_instance, "location", adapter, 10)
        assert outcome.status == "Feasible"
        assert outcome.objective == 0.0

    @pytest.mark.parametrize("values, violations, objective", [
        # truck 0 drives 0-4-1-7: the dropoff of request 0 comes before its pickup
        ("x_t0_o0_d4 1\nx_t0_o4_d1 1\nx_t0_o1_d7 1\nx_t1_o0_d7 1\n",
         ("PrecedenceViolated(0): dropoff 4 before pickup 1", "NegativeLoad(4): load -4"),
         2.0),
        # truck 0 drives 0-1-7: request 0 is picked up and never dropped off
        ("x_t0_o0_d1 1\nx_t0_o1_d7 1\nx_t1_o0_d7 1\n", ("MissingNode(4)",), 9.0),
        # both trucks drive 0-3-6-7: request 2 is served twice
        ("x_t0_o0_d3 1\nx_t0_o3_d6 1\nx_t0_o6_d7 1\n"
         "x_t1_o0_d3 1\nx_t1_o3_d6 1\nx_t1_o6_d7 1\n", ("DuplicateAssignment(2)",), -1.0),
    ], ids=["precedence", "pickup-only", "served-twice"])
    def test_request_answer_failing_the_audit(self, values, violations, objective,
                                              golden_instance, tmp_path):
        adapter = stub_adapter(tmp_path, "# status Optimal\n" + values)
        outcome = solve(golden_instance, "request", adapter, 10)
        assert outcome.status == "Error"
        assert outcome.error == "claimed-feasible solution fails validation"
        assert outcome.violations == violations
        assert outcome.objective == objective
        instance_path = tmp_path / "golden.instance"
        instance_path.write_text(serialize_instance(golden_instance))
        assert main(["solve", "--instance", str(instance_path), "--formulation", "req",
                     "--solver", adapter.command_template]) == 3

    def test_fractional_solution_is_an_error(self, golden_instance, tmp_path):
        adapter = stub_adapter(tmp_path,
                               "# status Optimal\nx_t0_o0_d1 0.5\n")
        outcome = solve(golden_instance, "location", adapter, 10)
        assert outcome.status == "Error"
        assert "not integral" in outcome.error

    def test_process_failure_is_an_error_outcome(self, golden_instance):
        adapter = SolverAdapter(command_template="exit 9 # {model_path}")
        outcome = solve(golden_instance, "location", adapter, 10)
        assert outcome.status == "Error"
        assert outcome.objective is None

    def test_error_keeps_the_end_of_long_stderr(self, golden_instance, tmp_path):
        script = tmp_path / "noisy_solver.py"
        script.write_text("import sys\n"
                          "sys.stderr.write('frame\\n' * 200 + 'reason: bad row\\n')\n"
                          "sys.exit(2)\n")
        adapter = SolverAdapter(
            command_template=f"{sys.executable} {script} {{model_path}}")
        outcome = solve(golden_instance, "location", adapter, 10)
        assert outcome.status == "Error"
        assert outcome.error.endswith("reason: bad row")

    @pytest.mark.parametrize("mode", FAILURE_MODES)
    def test_failure_mode_outcome_and_exit_code(self, mode, golden_instance, tmp_path,
                                                monkeypatch, capsys):
        solver, patch, status, reason, code = FAILURE_MODES[mode]
        if "{model_path}" not in solver:
            solver = stub_adapter(tmp_path, solver).command_template
        if patch:
            monkeypatch.setattr(harness, *patch)
        monkeypatch.setattr(harness, "SOLVER_GRACE_S", 0.5)
        outcome = solve(golden_instance, "location", SolverAdapter(solver), 0.1)
        assert outcome.status == status
        assert reason in outcome.error and bool(outcome.error) == bool(reason)
        instance_path = tmp_path / "golden.instance"
        instance_path.write_text(serialize_instance(golden_instance))
        assert main(["solve", "--instance", str(instance_path), "--formulation", "loc",
                     "--solver", solver, "--time-limit", "0.1"]) == code
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("solve failed:")]
        assert failed == ([f"solve failed: {outcome.error}"] if reason else [])

    def test_timeout_kills_the_solvers_children(self, golden_instance, tmp_path,
                                                monkeypatch):
        pid_file = tmp_path / "child.pid"
        script = tmp_path / "forking_solver.py"
        # the child holds none of the solver's pipes, so nothing waits for it
        script.write_text("import subprocess, time\n"
                          "child = subprocess.Popen(['sleep', '60'],\n"
                          "                         stdout=subprocess.DEVNULL,\n"
                          "                         stderr=subprocess.DEVNULL)\n"
                          f"open({str(pid_file)!r}, 'w').write(str(child.pid))\n"
                          "time.sleep(60)\n")
        monkeypatch.setattr(harness, "SOLVER_GRACE_S", 1.0)
        adapter = SolverAdapter(f"{sys.executable} {script} {{model_path}}")
        outcome = solve(golden_instance, "location", adapter, 0.1)
        pid = int(pid_file.read_text())
        try:
            assert outcome.status == "Error" and "past its" in outcome.error
            assert outcome.wall_time_s < 10  # nothing waited for the sleepers
            deadline = time.monotonic() + 5
            while process_state(pid) not in (None, "Z") and time.monotonic() < deadline:
                time.sleep(0.05)
            assert process_state(pid) in (None, "Z")
        finally:
            if process_state(pid) not in (None, "Z"):
                os.kill(pid, signal.SIGKILL)

    def test_ctrl_c_kills_the_solver_and_is_raised(self, tmp_path, monkeypatch):
        pid_file = tmp_path / "solver.pid"
        script = tmp_path / "sleeping_solver.py"
        # the pid goes in under a temporary name, so solver.pid, once it
        # exists, holds it
        script.write_text("import os, time\n"
                          f"with open({str(pid_file) + '.tmp'!r}, 'w') as f:\n"
                          "    f.write(str(os.getpid()))\n"
                          f"os.replace({str(pid_file) + '.tmp'!r}, {str(pid_file)!r})\n"
                          "time.sleep(60)\n")
        communicate = subprocess.Popen.communicate

        def interrupted(proc, *args, timeout=None, **kwargs):
            if timeout is None:  # the wait after the kill
                return communicate(proc, *args, **kwargs)
            deadline = time.monotonic() + 10
            while not pid_file.exists() and time.monotonic() < deadline:
                time.sleep(0.01)  # until the solver sleeps
            raise KeyboardInterrupt

        monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
        workdir = tmp_path / "work"
        workdir.mkdir()
        adapter = SolverAdapter(f"{sys.executable} {script} {{model_path}}",
                                workdir=str(workdir))
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_adapter(adapter, "Maximize\n obj: x\nSubject To\nEnd\n", 30.0)
        pid = int(pid_file.read_text())
        try:
            assert time.monotonic() - started < 10  # nothing waited for the sleeper
            with pytest.raises(ProcessLookupError):  # its session's group is gone
                os.killpg(pid, 0)
            assert os.listdir(workdir) == []
        finally:
            if process_state(pid) not in (None, "Z"):
                os.kill(pid, signal.SIGKILL)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_solve_never_raises_on_a_solver_answer(self, golden_instance, data):
        form = data.draw(st.sampled_from(sorted(ANSWERS)))
        status = data.draw(st.sampled_from([None, "Optimal", "Feasible", "Infeasible",
                                            "TimeLimit", "Error", "Solved"]))
        value_line = st.tuples(
            st.sampled_from([*ANSWERS[form]["optimal"], "u_t0_v1", "h_t1_v2", "zz",
                             "X_T0_O0_D1"]),
            st.sampled_from(["0", "1", "0.5", "abc", "1 2", "nan"])).map(" ".join)
        noise = data.draw(st.lists(st.one_of(
            value_line, st.sampled_from(["# objective 14.0", "# gap 0", ""])),
            max_size=6))
        base = data.draw(st.sampled_from([[], *ANSWERS[form].values()]))
        lines = data.draw(st.permutations([f"{name} 1" for name in base] + noise))
        if status is not None:
            lines.insert(0, f"# status {status}")
        answer = "\n".join(lines) + "\n"
        with mock.patch.object(harness, "run_adapter", lambda *args: answer):
            outcome = solve(golden_instance, form, SolverAdapter("{model_path}"), 10)
        assert isinstance(outcome, SolveOutcome)
        if outcome.status == "Error":
            assert outcome.error
        if outcome.status in ("Optimal", "Feasible"):
            assert validate_solution(outcome.solution, golden_instance).ok
            assert outcome.objective == pytest.approx(xi(outcome.solution,
                                                         golden_instance))


def arcs(t: int, path: tuple[int, ...]) -> list[str]:
    return [enc_location.x_name(t, o, d) for o, d in zip(path, path[1:])]


# the variables set to 1 in two answers for the golden instance. Optimal:
# truck 0 serves r0 and r1 on 0-1-2-3-0, truck 1 serves r2 on 0-2-3-0.
# Overloaded: truck 1 (capacity 3) carries r0 (volume 4). Request-model nodes
# are pickups 1-3, dropoffs 4-6 and the end depot 7.
ANSWERS = {
    "location": {"optimal": arcs(0, (0, 1, 2, 3, 0)) + arcs(1, (0, 2, 3, 0))
                 + ["y_t0_r0", "y_t0_r1", "y_t1_r2"],
                 "overloaded": arcs(1, (0, 1, 3, 0)) + ["y_t1_r0"]},
    "request": {"optimal": arcs(0, (0, 1, 2, 5, 4, 7)) + arcs(1, (0, 3, 6, 7)),
                "overloaded": arcs(0, (0, 7)) + arcs(1, (0, 1, 4, 7))},
}


def process_state(pid: int):
    """The state letter in /proc/<pid>/stat, or None once the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


class TestBench:
    def test_encode_only_counts(self, burma14):
        records = bench([burma14], [1], [2], ["location", "request"],
                        adapter=None, time_limit_s=1, seed=0)
        by_form = {r.formulation: r for r in records}
        assert (by_form["location"].num_vars, by_form["location"].num_rows) == (458, 1041)
        assert (by_form["request"].num_vars, by_form["request"].num_rows) == (576, 1027)
        assert all(r.status == "EncodeOnly" for r in records)

    def test_csv_shape_and_determinism(self, burma14):
        run = lambda: records_to_csv(bench([burma14], [1, 1.5], [2], ["location"],
                                           None, 1, seed=5))
        text = run()
        assert text.splitlines()[0] == ("sample,k,m,n,formulation,num_vars,"
                                        "num_rows,status,objective,wall_time_s,seed")
        assert text == run()

    def test_markdown_labels_and_bolding(self, burma14):
        records = bench([burma14], [1], [2], ["location", "request"],
                        None, 1, seed=0)
        text = render_markdown(records, solver_label="stub", time_limit_s=60)
        assert "Obj. [stub, 60s limit]" in text
        assert "**458**" in text   # smaller variable count wins
        assert "**1027**" in text  # smaller row count wins

    @pytest.mark.parametrize("req, loc, cell", [
        (39.514806, 39.514807, "39.5148 / 39.5148"),  # one printed text, no winner
        (-0.0, 0.0, "-0 / 0"),
        (39.5, 40.0, "39.5 / **40**"),  # the larger objective wins
        (41.0, 40.0, "**41** / 40"),
        (None, 40.0, "- / 40"),
    ])
    def test_markdown_objective_bolding(self, req, loc, cell):
        records = [BenchRecord("burma14", 1.0, 2, 7, form, 10, 10, "Optimal", value,
                               1.0, 0) for form, value in (("request", req),
                                                           ("location", loc))]
        assert f"| Obj. [none] | {cell} |" in render_markdown(records).splitlines()

    @pytest.mark.parametrize("second, formulations, reason", [
        (None, ["loc", "location"], "formulation=location is given twice"),
        ("burma14.tsp", ["req"], "sample=burma14 is given twice"),
        ("ulysses16.tsp", ["req"], "sample=burma14 is given twice"),
    ], ids=["formulation-alias", "sample-file-twice", "sample-name-twice"])
    def test_repeated_cell_refused_before_any_draw(self, burma14, second,
                                                   formulations, reason, monkeypatch):
        samples = [burma14]
        if second:  # read again; the second file renamed to burma14
            with open(data_path(second)) as fh:
                samples.append(dataclasses.replace(parse_tsplib(fh.read()),
                                                   name="burma14"))
        monkeypatch.setattr(harness, "generate_family", lambda *args: pytest.fail(
            "a family was drawn before the repeat was refused"))
        with pytest.raises(ValueError, match=reason):
            bench(samples, [1], [2], formulations, None, 1, seed=0)

    def test_census_mismatch_propagates(self, burma14, monkeypatch):
        # the registry looks the closed form up when it runs, so this reaches it
        monkeypatch.setattr(enc_location, "predicted_counts_location",
                            lambda num_nodes, n, m: (0, 0))
        with pytest.raises(CensusMismatch, match="location"):
            bench([burma14], [1], [2], ["location"], None, 1, seed=0)

    def test_one_encode_per_solved_cell(self, burma14, tmp_path, monkeypatch):
        encoded = []
        for module, name in ((enc_location, "encode_location"),
                             (enc_request, "encode_request")):
            encode = getattr(module, name)
            monkeypatch.setattr(module, name, lambda instance, encode=encode, name=name:
                                encoded.append(name) or encode(instance))
        adapter = stub_adapter(tmp_path, "# status Optimal\n# objective 0.0\n")
        bench([burma14], [1], [2], ["location", "request"], adapter, 10, seed=0)
        assert encoded == ["encode_location", "encode_request"]

    @pytest.mark.parametrize("answer, patch", [
        ("# status Optimal\n", ("xi", lambda solution, instance: 1.0)),  # mismatch
        ("# status Optimal\nx_t0_o0_d1 0.5\n", None),  # does not decode
    ])
    def test_failed_cell_has_no_objective(self, burma14, tmp_path, monkeypatch,
                                          answer, patch):
        if patch:
            monkeypatch.setattr(harness, *patch)
        adapter = stub_adapter(tmp_path, answer)
        [record] = bench([burma14], [1], [2], ["location"], adapter, 10, seed=0)
        assert record.status == "Error"
        assert record.objective is None and record.wall_time_s > 0
        row = records_to_csv([record]).splitlines()[1].split(",")
        assert row[7:10] == ["Error", "", f"{record.wall_time_s:.3f}"]

    def test_csv_reads_back_to_the_same_text(self, burma14, tmp_path):
        adapter = stub_adapter(tmp_path, "# status Optimal\n# objective 0.0\n")
        records = bench([burma14], [1, 1.5], [2], ["location", "request"], adapter,
                        10, seed=0)
        text = records_to_csv(records)
        assert ",Optimal,0.000000," in text
        assert records_to_csv(records_from_csv(text)) == text


class TestFormulation:
    @pytest.mark.parametrize("name, canonical", [
        ("loc", "location"), ("location", "location"),
        ("req", "request"), ("request", "request")])
    def test_names_and_aliases(self, name, canonical):
        assert formulation(name).name == canonical

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ValueError, match="'foo'; choose from loc, location, "
                                             "req, request"):
            formulation("foo")
