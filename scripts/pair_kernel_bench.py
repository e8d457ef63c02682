#!/usr/bin/env python3
"""Time the pair kernel, layer by layer, at the block shapes its callers use.

    PYTHONPATH=src python scripts/pair_kernel_bench.py [--repeats 7] [--out FILE] [--tiny]

For each case (p, m, nx x ny) it times the encoder `_pair_codes` on the ny
side, `_pair_sum` on the encoded sides, and their composition `_pair_index`,
all with both multipliers inv2 (the midpoint search).  The cases:

    1 x 64 at 5^5     a density trial's probe
    4 x 4 at 3^6      a block small enough that the per-call cost dominates
    800 x 73 at 3^6   PetalGraph.right_degrees_into in mc_klr11: 200 trials
                      of |T| = 4 against the |S| = 73 support positions of
                      a density-0.1 localized row
    16 x 839 at 5^5   a density trial's third block at C = 30
    81 x 81 at 3^8    all pairs of a density trial at C = 2 (k = 81)
    1215^2 at 3^8     all pairs of a trial at C = 30 in one call, past a run

Each timing is per call: timeit picks the calls per repeat, and the median,
min and max are over the repeats.  One JSON record goes to stdout (or to
--out) with the numpy and BLAS versions and the thread variables.  --tiny
runs small cases with few calls, as a smoke test of the record.
"""

import os

# One BLAS thread, set before numpy loads, as bench/run.py does.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import statistics
import timeit

import numpy as np

from fpnreg.vectorspace import _pair_codes, _pair_index, _pair_sum

CASES = ((5, 5, 1, 64), (3, 6, 4, 4), (3, 6, 800, 73), (5, 5, 16, 839), (3, 8, 81, 81), (3, 8, 1215, 1215))
TINY_CASES = ((3, 0, 1, 2), (3, 2, 2, 3), (5, 1, 4, 4))


def time_call(call, repeats: int, number: int | None) -> dict:
    timer = timeit.Timer(call)
    if number is None:
        number, _ = timer.autorange()
    per_call = [t / number for t in timer.repeat(repeats, number)]
    return {
        "calls": number,
        "median_s": statistics.median(per_call),
        "min_s": min(per_call),
        "max_s": max(per_call),
    }


def run(cases, repeats: int, number: int | None) -> list:
    gen = np.random.default_rng(0)
    rows = []
    for p, m, nx, ny in cases:
        x = gen.integers(0, p**m, size=nx)
        y = gen.integers(0, p**m, size=ny)
        a = (p + 1) // 2
        u, v = _pair_codes(p, m, x, a), _pair_codes(p, m, y, a)
        calls = {
            "_pair_codes": lambda: _pair_codes(p, m, y, a),
            "_pair_sum": lambda: _pair_sum(p, m, u, v),
            "_pair_index": lambda: _pair_index(p, m, x, y, a, a),
        }
        for layer, call in calls.items():
            rows.append({"layer": layer, "p": p, "m": m, "shape": [nx, ny], **time_call(call, repeats, number)})
    return rows


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", help="write the record here instead of stdout")
    ap.add_argument("--tiny", action="store_true", help="small cases, 10 calls per repeat")
    args = ap.parse_args(argv)
    cases, number = (TINY_CASES, 10) if args.tiny else (CASES, None)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "repeats": args.repeats,
        "results": run(cases, args.repeats, number),
    }
    text = json.dumps(record, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
