"""Acceptance gate: one test per shipping criterion, each ending in a single
printed PASS line. Criteria cover golden-instance exactness, published model
size reproduction, census/formula agreement, oracle-vs-solver equivalence,
formulation dominance, artifact determinism, and honest report labelling."""

import functools
import random
import sys
import time

from conftest import data_path, small_random_instance
from test_family_census import check_families, location_rows, request_rows
from ppdsp.cli import main
from ppdsp.core import validate_solution, xi
from ppdsp.enc_location import encode_location, predicted_counts_location
from ppdsp.enc_request import encode_request, predicted_counts_request
from ppdsp.harness import SolverAdapter, bench, enumerate_xi, oracle, solve
from ppdsp.instgen import grid_instance
from ppdsp.mipir import census

TOL = 1e-6
SEEDS = list(range(20))

GOLDEN_XI_VALUES = [-2, -1, 0, 0, 0, 1, 1, 2, 2, 2, 3, 4, 4, 5, 7, 7, 7, 8,
                    9, 10, 11]


def test_criterion_1_golden_instance_exactness(golden_instance):
    start = time.monotonic()
    value, solution = oracle(golden_instance)
    assert value == 11.0
    p0, p1 = solution.plan_for(0), solution.plan_for(1)
    assert p0.delivery == frozenset({0, 1}) and p0.route == (0, 1, 2, 3, 0)
    assert p1.delivery == frozenset({2}) and p1.route == (0, 2, 3, 0)
    entries = enumerate_xi(golden_instance)
    values = sorted(entries_value for _, entries_value in entries)
    assert [round(v) for v in values] == GOLDEN_XI_VALUES
    assert all(v == round(v) for v in values)  # integer arithmetic throughout
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"[criterion 1] PASS - golden optimum 11 and all 21 enumerated "
          f"values exact in {elapsed:.2f}s")


def test_criterion_2_published_model_sizes(burma14, ulysses16, ulysses22):
    start = time.monotonic()
    expected = {
        ("burma14", "location"): (458, 1041),
        ("burma14", "request"): (576, 1027),
        ("ulysses16", "location"): (588, 1380),
        ("ulysses16", "request"): (720, 1300),
        ("ulysses22", "location"): (1074, 2685),
        ("ulysses22", "request"): (1248, 2311),
    }
    records = bench([burma14, ulysses16, ulysses22], [1], [2],
                    ["location", "request"], adapter=None, time_limit_s=1,
                    seed=0)
    assert len(records) == 6
    for record in records:
        assert (record.num_vars, record.num_rows) == expected[
            (record.sample, record.formulation)]
    assert predicted_counts_location(14, 20, 10) == (2420, 5580)
    assert predicted_counts_request(11, 10) == (6240, 11511)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"[criterion 2] PASS - all published size cells reproduced with "
          f"zero tolerance in {elapsed:.2f}s")


def test_criterion_3_census_equals_formula():
    # Exhaustive coverage of each parameter pair, plus seeded random triples
    # across the whole |V| x n x m box. A dense sweep of all 6080 triples per
    # encoder runs far beyond this criterion's time budget on one core; the
    # complete sweep lives in scripts/census_sweep.py and checks the same
    # equality. The request model's census never reads |V|, which the
    # |V|-slice below verifies directly. Each row family's count is checked
    # against its own closed form too, so that a mismatch names its family.
    start = time.monotonic()
    checked = 0

    def check(nv, n, m, request=True):
        nonlocal checked
        inst = grid_instance(nv, n, m)
        model = encode_location(inst).model
        assert census(model) == predicted_counts_location(nv, n, m), (nv, n, m, "location")
        check_families(model, location_rows(nv, n, m), "c3", (nv, n, m))
        if request:
            model = encode_request(inst).model
            assert census(model) == predicted_counts_request(n, m), (nv, n, m, "request")
            check_families(model, request_rows(n, m), "ca4", (nv, n, m))
        checked += 1

    for nv in range(4, 23):        # all (|V|, m) at fixed n
        for m in range(1, 11):
            check(nv, 8, m)
    for n in range(1, 33):         # all (n, m) at fixed |V| -- the request
        for m in range(1, 11):     # formula's entire domain
            check(8, n, m)
    for nv in range(4, 23):        # all (|V|, n) at fixed m; the request
        for n in range(1, 33):     # model never reads |V|, so skip it here
            check(nv, n, 3, request=False)
    for nv in (4, 13, 22):         # spot-check that |V|-independence directly
        for n in (1, 8, 32):
            for m in (1, 5, 10):
                check(nv, n, m)
    rng = random.Random(42)        # random triples across the full box
    for _ in range(15):
        check(rng.randint(4, 22), rng.randint(1, 32), rng.randint(1, 10))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"[criterion 3] PASS - census == closed form on {checked} grid "
          f"points (both encoders) in {elapsed:.1f}s")


@functools.lru_cache(maxsize=1)
def _solver_suite():
    """Oracle values and external-solver outcomes for the 20 shared seeds."""
    adapter = SolverAdapter(
        command_template=(f"{sys.executable} -m ppdsp.highs_solver "
                          "{model_path} {solution_path} {time_limit_s}"))
    start = time.monotonic()
    rows = []
    for seed in SEEDS:
        inst = small_random_instance(seed)
        rows.append({
            "seed": seed,
            "instance": inst,
            "oracle_location_strict": oracle(inst, "location")[0],
            "oracle_location_netted": oracle(inst, "location",
                                             capacity_rule="netted")[0],
            "oracle_request": oracle(inst, "request")[0],
            "solve_location": solve(inst, "location", adapter, 120),
            "solve_request": solve(inst, "request", adapter, 120),
        })
    return rows, time.monotonic() - start


def test_criterion_4_oracle_solver_equivalence():
    rows, elapsed = _solver_suite()
    for row in rows:
        seed = row["seed"]
        inst = row["instance"]
        for outcome in (row["solve_location"], row["solve_request"]):
            assert outcome.status == "Optimal", (seed, outcome.status, outcome.error)
            assert not outcome.violations, (seed, outcome.violations)
            recomputed = xi(outcome.solution, inst)
            scale = max(1.0, abs(recomputed))
            assert abs(outcome.objective - recomputed) <= TOL * scale, seed
        # the location model nets same-stop loading against unloading, so its
        # exact optimum is the netted-rule oracle; the strict-rule value can
        # only be lower
        assert abs(row["solve_location"].objective
                   - row["oracle_location_netted"]) <= TOL, seed
        assert row["oracle_location_strict"] <= \
            row["solve_location"].objective + TOL, seed
        assert abs(row["solve_request"].objective
                   - row["oracle_request"]) <= TOL, seed
        loc_solution = row["solve_location"].solution
        assert validate_solution(loc_solution, inst).ok, seed
    assert elapsed < 600.0
    print(f"[criterion 4] PASS - 20/20 seeds: external MIP optimum equals "
          f"the enumeration oracle for both formulations (<= {TOL} rel), all "
          f"decodes validator-clean, in {elapsed:.0f}s")


def test_criterion_5_request_model_dominance():
    separations = []
    for seed in SEEDS:
        inst = small_random_instance(seed)
        v_loc = oracle(inst, "location")[0]
        v_req = oracle(inst, "request")[0]
        assert v_req >= v_loc - TOL, seed
        if v_req > v_loc + TOL:
            separations.append((seed, v_loc, v_req))
    if separations:
        seed, v_loc, v_req = separations[0]
        note = (f"{len(separations)}/20 strict separations, e.g. seed {seed}: "
                f"request {v_req:.3f} > location {v_loc:.3f}")
    else:
        note = "no separation witnessed"
    print(f"[criterion 5] PASS - oracle(request) >= oracle(location) on all "
          f"20 seeds; {note}")


def test_criterion_6_artifact_determinism(tmp_path):
    gen_dirs = [tmp_path / "gen_a", tmp_path / "gen_b"]
    for out in gen_dirs:
        assert main(["gen", "--tsplib", data_path("ulysses16.tsp"),
                     "--k", "1,1.5,2", "--m", "4", "--seed", "13",
                     "--out", str(out)]) == 0
    blobs = []
    for out in gen_dirs:
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert blobs[0] == blobs[1] and blobs[0]

    csv_paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in csv_paths:
        assert main(["bench", "--tsplib", data_path("burma14.tsp"),
                     "--k", "1,2", "--m", "2,4", "--solver", "none",
                     "--csv", str(path)]) == 0
    assert csv_paths[0].read_bytes() == csv_paths[1].read_bytes()
    print("[criterion 6] PASS - gen and encode-only bench reruns are "
          "byte-identical")


def test_criterion_7_report_labels_solver_and_time_limit(tmp_path, capsys):
    # published objective columns came from unpublished seeds and hour-long
    # commercial-solver runs, so they are out of scope here; any objective
    # column this tool renders must say which solver and limit produced it
    csv_path = tmp_path / "bench.csv"
    assert main(["bench", "--tsplib", data_path("burma14.tsp"), "--k", "1",
                 "--m", "2", "--solver", "none", "--csv", str(csv_path)]) == 0
    report_path = tmp_path / "report.md"
    assert main(["report", "--csv", str(csv_path), "--solver-label", "demo",
                 "--time-limit", "600", "--out", str(report_path)]) == 0
    capsys.readouterr()
    text = report_path.read_text()
    objective_rows = [line for line in text.splitlines()
                      if line.startswith("| Obj.")]
    assert objective_rows
    assert all(line.startswith("| Obj. [demo, 600s limit]")
               for line in objective_rows)
    print("[criterion 7] PASS - objective columns carry solver label and "
          "time limit")
