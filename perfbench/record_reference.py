#!/usr/bin/env python3
"""Record the answers the benchmark's gates compare against.

Writes perfbench/reference.json: the census of every build-tsplib cell, the
sha256 of every cell's LP text for generation seeds 0..19, and the proven
optimum of the solve-tsplib instance. Run it from the root of a checkout
only when the program's output is meant to change, and say so in the
change that commits the new file:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from ppdsp import enc_location, enc_request, highs_solver, mipir  # noqa: E402


def main() -> int:
    census: dict[str, list[int]] = {}
    digests: dict[str, dict[str, str]] = {}
    for gen_seed in range(workloads.BUILD_REFERENCE_SEEDS):
        build = workloads.BuildTsplib(ROOT, gen_seed)
        digests[str(gen_seed)] = {}
        for inst, formulation in build.cells:
            label = workloads.cell_label(inst, formulation)
            counts, text, _ = workloads.build_cell(inst, formulation)
            census[label] = list(counts)
            digests[str(gen_seed)][label] = hashlib.sha256(text.encode()).hexdigest()
        print(f"generation seed {gen_seed}: {len(build.cells)} cells", flush=True)

    inst = workloads.SolveTsplib(ROOT, 0).instance
    objectives = []
    for encode in (enc_location.encode_location, enc_request.encode_request):
        text = mipir.emit_lp(encode(inst).model)
        status, objective, _ = highs_solver.solve_lp_text(
            text, workloads.SOLVE_TIME_LIMIT_S)
        if status != "Optimal":
            print(f"{encode.__name__}: {status}, no proven optimum", file=sys.stderr)
            return 1
        objectives.append(objective)
    if abs(objectives[0] - objectives[1]) > workloads.TOL * max(1.0, abs(objectives[0])):
        print(f"formulations disagree: {objectives}", file=sys.stderr)
        return 1
    print(f"solve-tsplib optimum {objectives[0]!r}")

    reference = {
        "build-tsplib": {"census": census, "lp_sha256": digests},
        "solve-tsplib": {
            "instance": f"{workloads.SOLVE_SAMPLE} k={workloads.SOLVE_K} "
                        f"m={workloads.SOLVE_M} seed={workloads.SOLVE_GEN_SEED}",
            "optimum": objectives[0]},
    }
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
