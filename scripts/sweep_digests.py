#!/usr/bin/env python3
"""Byte-identity sweep: sha256 digests of fpnreg's outputs over a fixed,
seeded grid, so two checkouts can be compared bit for bit.

Each output gets two digests, each over the dtype, shape and raw bytes of
its arrays (a number is a 0-d array; an InputError or ContractError is
digested as its type and message):
- exact: the integer and boolean arrays and any error, that is the counts,
  the passed flags, classify_vectors' reps, counts, regular and
  witness_freqs, and dft's frequencies;
- float: the float and complex arrays, that is spectra, sups, float totals
  and thresholds.
A change that moves floats by design then still shows whether its counts,
flags and classifications held.  The outputs:
- full_spectrum and every _spectrum_plane, p in {3, 5, 7, 11, 13} with n up
  to 12/8/7/5/5, densities 0 to 1;
- count_3aps_fourier and edge_count, each with the float total it rounds,
  edge_count_fourier, sigma_certificate and fourier_sup_report on the same
  sets;
- classify_vectors' arrays, restricted_sup at 20 points and dft, at a random
  H of every dimension (n up to 6/4/3/2/2) on empty, one-point, full, random,
  coset-union and sparse sets, plus H = V at 3^12, 5^8, 7^6 and 13^5.

Run the script once per checkout and compare the two files.  The parent
comes from a clone of this repository:

    git clone -q . ../fpnreg-parent && git -C ../fpnreg-parent checkout -q HEAD~1
    PYTHONPATH=../fpnreg-parent/src python scripts/sweep_digests.py --out ../parent.json
    PYTHONPATH=src python scripts/sweep_digests.py --out ../change.json
    PYTHONPATH=src python scripts/sweep_digests.py --compare ../parent.json ../change.json

Both runs use this checkout's copy of the script, so both files hold the
same split.  --compare prints the exact and the float mismatch counts with
the first case of each, and exits 1 when an exact digest differs.
"""

import argparse
import hashlib
import json
import sys
from functools import partial

import numpy as np

from fpnreg import cayley, fourier, randmodel, regularity, threeap
from fpnreg.errors import ContractError, InputError
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor, SubspaceBasis

FULL = {
    "full_group": {3: 12, 5: 8, 7: 7, 11: 5, 13: 5},
    "scan": {3: 6, 5: 4, 7: 3, 11: 2, 13: 2},
    "whole_space": [(3, 12), (5, 8), (7, 6), (13, 5)],
    "densities": (0.0, 0.05, 0.3, 0.5, 0.9, 1.0),
}
# The small grid the test suite sweeps in-process.
TINY = {
    "full_group": {3: 3, 5: 2},
    "scan": {3: 3, 5: 2},
    "whole_space": [(3, 4)],
    "densities": (0.0, 0.3, 1.0),
}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        a = np.asarray(part)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def split_digests(parts) -> dict:
    """{"exact": digest of the non-float parts, "float": digest of the
    float and complex parts}, each in order."""
    arrays = [np.asarray(part) for part in parts]
    inexact = [a.dtype.kind in "fc" for a in arrays]
    return {
        "exact": digest(*(a for a, f in zip(arrays, inexact) if not f)),
        "float": digest(*(a for a, f in zip(arrays, inexact) if f)),
    }


def _outcome(call) -> tuple:
    """call()'s arrays, or an InputError's or ContractError's type and message."""
    try:
        out = call()
    except (InputError, ContractError) as e:
        return (f"{type(e).__name__}: {e}",)
    return out if isinstance(out, tuple) else (out,)


def _rounded(module, call, *args) -> tuple:
    """call(*args) and the float totals it hands module.rounded_count."""
    totals, exact = [], module.rounded_count
    module.rounded_count = lambda total, what: totals.append(total) or exact(total, what)
    try:
        return call(*args), np.array(totals, dtype=np.float64)
    finally:
        module.rounded_count = exact


def _count_3aps(A: DenseSubset) -> tuple:
    """count_3aps_fourier and its one rounded total; raises RuntimeError when
    the hook sees no total, so a count that stops rounding through
    threeap.rounded_count cannot leave two empty digests that agree."""
    count, totals = _rounded(threeap, threeap.count_3aps_fourier, A)
    if totals.shape != (1,):
        raise RuntimeError(f"count_3aps_fourier rounded {totals.size} totals through threeap.rounded_count, not 1")
    return count, totals


def _edge_count(A: DenseSubset, X: DenseSubset, Y: DenseSubset) -> tuple:
    """edge_count and the totals it rounds: one when it took the spectral
    branch (it called edge_count_fourier), none on the direct branch; raises
    RuntimeError otherwise, so a lost cayley.rounded_count hook cannot leave
    two empty digests that agree."""
    calls, spectral = [], cayley.edge_count_fourier
    cayley.edge_count_fourier = lambda *sets: calls.append(1) or spectral(*sets)
    try:
        count, totals = _rounded(cayley, cayley.edge_count, A, X, Y)
    finally:
        cayley.edge_count_fourier = spectral
    if totals.size != len(calls):
        raise RuntimeError(f"edge_count rounded {totals.size} totals through cayley.rounded_count over {len(calls)} spectral calls")
    return count, totals


def _certificate(A: DenseSubset) -> tuple:
    c = cayley.sigma_certificate(A, 0.5, 0.5)
    return c.fourier_sup, c.passed


def _sup_report(A: DenseSubset) -> tuple:
    r = randmodel.fourier_sup_report(A)
    return r.sup, r.bound, r.passed


def _classification(A: DenseSubset, H: SubspaceBasis) -> tuple:
    c = regularity.classify_vectors(A, H, 0.2)
    return c.reps, c.sup_values, c.counts, c.regular, c.witness_freqs, c.threshold, c.irregular_mass


def _restricted_sups(A: DenseSubset, H: SubspaceBasis, points) -> np.ndarray:
    return np.array([regularity.restricted_sup(A, H, int(v)) for v in points])


def _spectrum(f: fourier.DenseFunction, H: SubspaceBasis) -> tuple:
    s = fourier.dft(f, H)
    return s.freqs, s.values


def _subspace(space: SpaceDescriptor, dim: int, gen) -> SubspaceBasis:
    while True:
        H = SubspaceBasis.from_rows(space, gen.integers(0, space.p, size=(dim, space.n)))
        if H.dim == dim:
            return H


def _scan_sets(space: SpaceDescriptor, gen) -> dict:
    N = space.N
    K = _subspace(space, space.n // 2, gen)
    union = np.concatenate([space.add(K.elements(), int(v)) for v in gen.integers(0, N, size=2)])
    sets = {
        "empty": DenseSubset.empty(space),
        "point": DenseSubset.from_members(space, [int(gen.integers(0, N))]),
        "full": DenseSubset.full(space),
        "coset_union": DenseSubset.from_members(space, union),
        "sparse": DenseSubset.from_members(space, gen.choice(N, max(1, int(N**0.5)), replace=False)),
    }
    for d in (0.05, 0.3, 0.5, 0.9):
        sets[f"d={d}"] = DenseSubset(space, gen.random(N) < d)
    return sets


def _scan_cases(H: SubspaceBasis, sets: dict, gen):
    points = gen.integers(0, H.space.N, size=20)
    tag = f"p={H.space.p} n={H.space.n} H={H.rows.tolist()}"
    for name, A in sets.items():
        yield f"classify_vectors {tag} {name}", partial(_classification, A, H)
        yield f"restricted_sup {tag} {name}", partial(_restricted_sups, A, H, points)


def cases(grid: dict):
    """(name, call) per output, in a fixed order; call() returns what is digested."""
    for p, top in grid["full_group"].items():
        for n in range(1, top + 1):
            space = SpaceDescriptor(p, n)
            for i, d in enumerate(grid["densities"]):
                gen = np.random.default_rng([p, n, i])
                A, X, Y = (DenseSubset(space, gen.random(space.N) < e) for e in (d, 0.5, 0.3))
                tag = f"p={p} n={n} d={d}"
                yield f"full_spectrum {tag}", partial(fourier.full_spectrum, space, A.mask)
                for t in range((p + 1) // 2):
                    yield f"plane t={t} {tag}", partial(fourier._spectrum_plane, space, A.mask, t)
                yield f"count_3aps_fourier {tag}", partial(_count_3aps, A)
                yield f"edge_count {tag}", partial(_edge_count, A, X, Y)
                yield f"edge_count_fourier {tag}", partial(cayley.edge_count_fourier, A, X, Y)
                yield f"sigma_certificate {tag}", partial(_certificate, A)
                yield f"fourier_sup_report {tag}", partial(_sup_report, A)
    for p, top in grid["scan"].items():
        for n in range(1, top + 1):
            space = SpaceDescriptor(p, n)
            gen = np.random.default_rng([p, n, 100])
            sets = _scan_sets(space, gen)
            f_full = fourier.DenseFunction.from_subset(sets["d=0.3"])
            for dim in range(n + 1):
                H = _subspace(space, dim, gen)
                f_H = fourier.DenseFunction(space, gen.uniform(-1, 1, size=H.size), H)
                yield f"dft p={p} n={n} H={H.rows.tolist()} on_H", partial(_spectrum, f_H, H)
                yield f"dft p={p} n={n} H={H.rows.tolist()} full_space", partial(_spectrum, f_full, H)
                yield from _scan_cases(H, sets, gen)
    for p, n in grid["whole_space"]:
        space = SpaceDescriptor(p, n)
        gen = np.random.default_rng([p, n, 200])
        sets = {
            "point": DenseSubset.from_members(space, [int(gen.integers(0, space.N))]),
            "d=0.3": DenseSubset(space, gen.random(space.N) < 0.3),
        }
        yield from _scan_cases(SubspaceBasis.full(space), sets, gen)


def sweep(grid: dict) -> dict:
    """{case name: split_digests of its outcome} over the grid, in case order."""
    return {name: split_digests(_outcome(call)) for name, call in cases(grid)}


def compare(a: dict, b: dict) -> dict:
    """{"exact": [...], "float": [...]}: the cases whose exact (float)
    digests differ, in order; a case present on one side only is an exact
    mismatch."""
    bad = {kind: [k for k in a if k in b and a[k][kind] != b[k][kind]] for kind in ("exact", "float")}
    bad["exact"] += sorted(a.keys() ^ b.keys())
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write {case: digest} as JSON to this file")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = ap.parse_args(argv)
    if args.out:
        digests = sweep(FULL)
        with open(args.out, "w") as fh:
            json.dump({"numpy": np.__version__, "cases": len(digests), "digests": digests}, fh, indent=1)
        print(f"{len(digests)} cases -> {args.out}")
        return 0
    a, b = (json.load(open(path))["digests"] for path in args.compare)
    bad = compare(a, b)
    print(f"{len(a.keys() | b.keys())} cases")
    for kind, names in bad.items():
        print(f"{len(names)} {kind} mismatches" + (f"; first: {names[0]}" if names else ""))
    return 1 if bad["exact"] else 0


if __name__ == "__main__":
    sys.exit(main())
