#!/usr/bin/env python3
"""Dense census sweep: encode every (|V|, n, m) triple in the box and check
that the counted variables/rows match the closed-form predictions for both
formulations. For the first triple that mismatches, it also prints the rows
it counted in each row family of each mismatching model. The acceptance
suite covers exhaustive two-parameter slices of this box to stay inside its
time budget; this script runs the full product (12,160 encodings; 286 s on
one core of a 2-core x86-64 machine, Python 3.11).

Usage: python3 scripts/census_sweep.py [--nv 4:22] [--n 1:32] [--m 1:10]
"""

import argparse
import sys
import time

from ppdsp.harness import FORMULATIONS, CensusMismatch, encode_checked
from ppdsp.instgen import grid_instance


def span(text: str) -> range:
    lo, hi = (int(part) for part in text.split(":"))
    return range(lo, hi + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nv", type=span, default=span("4:22"))
    parser.add_argument("--n", type=span, default=span("1:32"))
    parser.add_argument("--m", type=span, default=span("1:10"))
    args = parser.parse_args(argv)

    start = time.monotonic()
    mismatches = 0
    checked = 0
    first = None  # the first (|V|, n, m) that mismatched
    for nv in args.nv:
        for n in args.n:
            for m in args.m:
                inst = grid_instance(nv, n, m)
                # the request model only sees the 2n+2 duplicated nodes, so
                # one |V| value per (n, m) would suffice; encode anyway to
                # keep the sweep a direct product; each formulation once,
                # not once per alias
                for form in dict.fromkeys(FORMULATIONS.values()):
                    try:
                        encode_checked(inst, form)
                    except CensusMismatch as exc:
                        mismatches += 1
                        print(f"MISMATCH {exc}")
                        if first in (None, (nv, n, m)):  # name its families' rows
                            first = (nv, n, m)
                            for name, rows, _ in form.encode(inst).model.row_families:
                                print(f"  {name}: {len(rows)} rows")
                    checked += 1
        print(f"|V|={nv} done ({checked} encodings, "
              f"{time.monotonic() - start:.0f}s)")
    if mismatches:
        print(f"{mismatches} mismatches out of {checked} encodings")
        return 1
    print(f"OK: {checked} encodings, census == closed form everywhere "
          f"({time.monotonic() - start:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
