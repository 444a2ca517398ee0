#!/usr/bin/env python3
"""ppdsp benchmark: one workload per process, checked answers, metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: differential-small, build-tsplib, solve-tsplib (see
perfbench/README.md). Load is one closed-loop client. The workload's fixed
operation list runs in passes until the next pass would end after
--seconds (at least one pass). Every answer is checked; a wrong one exits
with code 1 and prints no result. The last stdout line is one JSON object:
with --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run, whose spans are also written to
.perfbench_out/trace-<workload>-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 15
TAIL_BEYOND = 10


def fail(message: str, code: int) -> None:
    print(message, file=sys.stderr)
    sys.exit(code)


def check_checkout() -> None:
    """The benchmark builds nothing; it needs the program's source and data."""
    needed = [ROOT / "src" / "ppdsp" / "__init__.py",
              ROOT / "data" / "burma14.tsp", ROOT / "data" / "ulysses22.tsp"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        fail(f"not a ppdsp checkout, missing: {', '.join(missing)}", 2)


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    of its own (a parent directory's repository does not count)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def version(dist: str) -> str:
    from importlib import metadata
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def provenance(args, solver_command: str) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "scipy": version("scipy"), "numpy": version("numpy"),
            "commit": git_commit(), "solver_command": solver_command}


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least
    TAIL_BEYOND samples above it, or None when that would not lie above
    the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def run_passes(workload, runner, seconds: float, spent: float = 0.0):
    """Closed loop over whole passes; stops when one more pass of the mean
    length would end after `seconds`, counting `spent` as already used.
    Returns the pass wall times and, when tracing, each pass's spans."""
    tracer = runner.tracer
    walls: list[float] = []
    pass_spans: list[list] = []
    start = time.perf_counter() - spent
    while True:
        first = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        workload.run_pass(runner)
        walls.append(time.perf_counter() - t0)
        if tracer:
            pass_spans.append(tracer.spans[first:])
        if time.perf_counter() - start + statistics.fmean(walls) > seconds:
            return walls, pass_spans


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that only import and set up the
    workload, from spawn to exit."""
    samples = []
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}", 1)
    return samples


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, runner, walls, setup_samples) -> dict:
    ops = [s for s in runner.samples if s.kind == workload.op_kind]
    latencies = [s.seconds for s in ops]
    # each distinct operation's median over passes; the pooled median of
    # differently sized operations would land between two of them
    by_label: dict[str, list[float]] = {}
    for s in ops:
        by_label.setdefault(s.label, []).append(s.seconds)
    op_medians = {label: statistics.median(v) for label, v in by_label.items()}
    slowest = max(op_medians, key=op_medians.get)
    found = tail(latencies)
    tail_text = (f"tail p{found[0]:.0f} {found[1]:.4f} s" if found
                 else f"no tail (needs > {2 * TAIL_BEYOND} samples)")
    print(f"# {workload.op_kind} latency: p50 {statistics.median(latencies):.4f} s, "
          f"{tail_text}, n={len(ops)} over {len(walls)} passes; median of "
          f"per-operation medians {statistics.median(op_medians.values()):.4f} s; "
          f"slowest {slowest} {op_medians[slowest]:.4f} s")
    print(f"# pass walls (s): {', '.join(f'{w:.3f}' for w in walls)}")
    solves = [s for s in runner.samples if s.kind == "solve"]
    print(f"# failed_ratio {runner.failed}/{runner.attempted}; "
          f"solves optimal {sum(s.proven for s in solves)}/{len(solves)}")
    print(f"# set-up probes (s): {', '.join(f'{t:.3f}' for t in setup_samples)}")
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        # the mean, not the median: this host's speed drifts over tens of
        # seconds, and the mean averages all of the run's passes
        "wall_s": metric(statistics.fmean(walls), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024.0, "MB"),
        "optimal_ratio": metric(sum(s.proven for s in ops) / len(ops), "ratio"),
    }


# per-layer time metrics are named "<span>_s"; set-up layers are totals of
# the set-up, the others means per traced pass
LAYERS = ("instgen.parse_tsplib", "instgen.generate_family",
          "enc_location.encode", "enc_request.encode", "mipir.emit_lp",
          "highs_solver.parse_lp", "harness.solve", "harness.run_adapter",
          "highs_solver.solve_lp_text", "mipir.parse_solution",
          "mipir.objective_value", "enc_location.decode", "enc_request.decode",
          "harness.request_raw_checks", "core.validate_solution", "core.xi",
          "harness.oracle")
# spans with wrapped children, whose self time ("<span>_self_s") differs
SELF_LAYERS = ("harness.solve", "highs_solver.solve_lp_text")
SETUP_LAYERS = {"instgen.parse_tsplib", "instgen.generate_family"}


def per_layer(runner, tracer, setup_spans, untraced_wall, traced_walls,
              pass_spans) -> dict:
    n = len(traced_walls)
    spans = [s for group in pass_spans for s in group]
    total, self_time = tracer.totals(spans)
    setup_total, _ = tracer.totals(setup_spans)
    out = {}
    for name in LAYERS:
        value = (setup_total.get(name, 0.0) if name in SETUP_LAYERS
                 else total.get(name, 0.0) / n)
        out[f"{name}_s"] = metric(value, "s")
    for name in SELF_LAYERS:
        out[f"{name}_self_s"] = metric(self_time.get(name, 0.0) / n, "s")
    out["harness.spawn_overhead_s"] = metric(
        out["harness.run_adapter_s"]["value"]
        - out["highs_solver.solve_lp_text_s"]["value"], "s")
    out["harness.spawns"] = metric(
        sum(1 for s in spans if s.name == "harness.run_adapter") / n, "count")
    counts = [sum(c[i] for c in runner.model_counts.values()) for i in range(4)]
    for i, (key, unit) in enumerate((("mipir.vars", "count"), ("mipir.rows", "count"),
                                     ("mipir.nonzeros", "count"),
                                     ("mipir.lp_bytes", "bytes"))):
        out[key] = metric(counts[i], unit)
    solves = [s for s in runner.samples if s.kind == "solve"]
    out["harness.solve_ok_ratio"] = metric(
        (len(solves) - runner.failed) / len(solves) if solves else 0.0, "ratio")
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out["harness.solver_peak_rss_mb"] = metric(children_rss if solves else 0.0, "MB")
    # traced pass wall without the benchmark's own bookkeeping spans
    bookkeeping = [sum(s.end - s.start for s in group
                       if s.name.startswith("bench.") and s.parent is None)
                   for group in pass_spans]
    traced = statistics.median(w - b for w, b in zip(traced_walls, bookkeeping))
    out["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    out["trace.traced_wall_s"] = metric(traced, "s")
    out["trace.overhead_s"] = metric(traced - untraced_wall, "s")
    out["trace.spans"] = metric(len(spans) / n, "count")
    # the difference of two pass walls is mostly machine noise; this is the
    # tracer's own cost per pass, from a calibrated per-span cost
    out["trace.span_cost_s"] = metric(len(spans) / n * tracer.span_cost(), "s")
    for layer in tracer.absent_layers():
        print(f"# absent: {layer} (its function is gone; reported as 0)")
    return out


def run(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    if args.setup_probe:
        workloads.make(args.workload, ROOT, args.seed)
        return 0

    reference = json.loads((HERE / "reference.json").read_text())
    solver_command = workloads.solver_command(ROOT)
    info = provenance(args, solver_command)
    print("# provenance " + json.dumps(info, sort_keys=True))

    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            workload = workloads.make(args.workload, ROOT, args.seed)
            runner = workloads.Runner(ROOT, reference)
            walls, _ = run_passes(workload, runner, args.seconds)
        else:
            # set-up spans, then one untraced pass, then traced passes
            tracer.install()
            workload = workloads.make(args.workload, ROOT, args.seed)
            setup_spans = list(tracer.spans)
            tracer.uninstall()
            untraced_wall = run_passes(workload, workloads.Runner(ROOT, reference),
                                       0.0)[0][0]
            runner = workloads.Runner(ROOT, reference, tracer)
            tracer.install()
            walls, pass_spans = run_passes(workload, runner, args.seconds,
                                           spent=untraced_wall)
            tracer.uninstall()
    except workloads.GateFailure as exc:
        fail(f"GATE FAILED ({args.workload}, seed {args.seed}): {exc}", 1)

    if tracer is None:
        metrics = end_to_end(workload, runner, walls, measure_setup(args))
    else:
        metrics = per_layer(runner, tracer, setup_spans, untraced_wall, walls,
                            pass_spans)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "provenance": info, "absent": tracer.absent,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": tracer.dump(), "metrics": metrics}))
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["differential-small", "build-tsplib", "solve-tsplib"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    check_checkout()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
