"""Independent oracles used to cross-check the library's fast paths.

Everything here is deliberately naive: literal double sums for transforms,
O(|H|^2) convolution, and a from-scratch flower validator that only touches
vectorspace/fourier primitives, never the search code under test.  The
memory-budget harness at the end runs one call in a fresh interpreter.
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from fpnreg.fourier import DenseFunction, Spectrum, dft
from fpnreg.rng import sample_without_replacement, substream
from fpnreg.vectorspace import (
    DenseSubset,
    SpaceDescriptor,
    SubspaceBasis,
    localize,
)


def dft_naive(f: DenseFunction, H: SubspaceBasis) -> Spectrum:
    """Literal (1/|H|) sum_{x in H} f(x) e(-<x, xi>/p) per dual representative."""
    space = H.space
    elems = H.elements()
    if f.support is None or f.support.is_full():
        values_at = {int(x): f.values[int(x)] for x in elems}
    else:
        assert f.support == H
        values_at = {int(x): f.values[i] for i, x in enumerate(elems)}
    freqs = H.annihilator().coset_system().reps
    out = np.empty(len(freqs), dtype=complex)
    for k, xi in enumerate(freqs):
        acc = 0j
        for x in elems:
            phase = int(space.pair(int(x), int(xi)))
            acc += values_at[int(x)] * cmath.exp(-2j * cmath.pi * phase / space.p)
        out[k] = acc / H.size
    return Spectrum(H, freqs, out)


def convolve_direct(f: DenseFunction, g: DenseFunction, H: SubspaceBasis) -> np.ndarray:
    """O(|H|^2) normalized convolution, aligned with H.elements()."""
    space = H.space
    elems = H.elements()
    pos = {int(e): i for i, e in enumerate(elems)}
    fv = f.values if f.support == H else f.values[elems]
    gv = g.values if g.support == H else g.values[elems]
    out = np.zeros(H.size)
    for i, h in enumerate(elems):
        acc = 0.0
        for j, x in enumerate(elems):
            acc += fv[j] * gv[pos[int(space.sub(int(h), int(x)))]]
        out[i] = acc / H.size
    return out


PRIMES = (3, 5, 7, 11, 13)
# Largest n per p with p^n <= 729, so the naive oracles stay fast.
ORACLE_MAX_N = {3: 6, 5: 4, 7: 3, 11: 2, 13: 2}
SUBSET_KINDS = ("empty", "full", "random")


def subset_of_kind(space: SpaceDescriptor, kind: str, gen: np.random.Generator) -> DenseSubset:
    if kind == "empty":
        return DenseSubset.empty(space)
    if kind == "full":
        return DenseSubset.full(space)
    return random_subset(space, gen)


def random_subspace(space: SpaceDescriptor, gen: np.random.Generator, max_dim=None) -> SubspaceBasis:
    hi = space.n if max_dim is None else max_dim
    k = int(gen.integers(0, hi + 1))
    return SubspaceBasis.from_vectors(space, gen.integers(0, space.N, size=k).astype(np.int64))


def random_subset(space: SpaceDescriptor, gen: np.random.Generator, density=None) -> DenseSubset:
    d = float(gen.uniform(0.05, 0.95)) if density is None else density
    return DenseSubset(space, gen.random(space.N) < d)


def ap_free_core(extra: int) -> np.ndarray:
    """{0, 1, 3}^4 in F_7^4 plus `extra` random points, ascending.  {0, 1, 3}
    holds no 3AP in F_7, and a progression in a product set is one in every
    coordinate where it moves, so the core holds none."""
    digits = np.array([0, 1, 3])
    core = sum(np.ix_(*(digits * 7**i for i in range(4)))).ravel()
    return np.union1d(core, np.random.default_rng(7).choice(7**4, size=extra, replace=False))


def validate_flower(flower, A: DenseSubset | None = None) -> list:
    """Re-verify every flower invariant from scratch; returns violations."""
    problems = []
    H = flower.H
    space = H.space
    cs = H.coset_system()
    parts = flower.parts

    if len(parts) != flower.m:
        problems.append("part count disagrees with m")
    if A is not None:
        union = np.zeros(space.N, dtype=np.int64)
        for part in parts:
            union += part.mask
        if union.max(initial=0) > 1:
            problems.append("parts overlap")
        if not np.array_equal(union.astype(bool), A.mask):
            problems.append("parts do not partition A")
        sizes = [p.card for p in parts]
        if max(sizes) - min(sizes) > 1:
            problems.append("part sizes differ by more than 1")

    if len({flower.i0, flower.j0, flower.k0}) != 3:
        problems.append("part indices not pairwise distinct")
    if not flower.petals:
        problems.append("flower has no petals")

    def sup_and_count(part, v):
        loc = localize(part, H, int(v))
        spec = dft(DenseFunction.from_subset(loc, H), H)
        return spec.sup_nontrivial(), loc.card

    def is_canonical_rep(v):
        return int(cs.rep_of(int(v))) == int(v)

    # center: canonical rep, eps-regular for A_i0, localization >= (1/4)|A_i0||H|/N
    part_i = parts[flower.i0]
    if not is_canonical_rep(flower.center):
        problems.append("center is not a canonical representative")
    sup, cnt = sup_and_count(part_i, flower.center)
    if sup > flower.eps * part_i.card / space.N + 1e-12:
        problems.append(f"center not eps-regular: sup={sup}")
    if cnt < 0.25 * part_i.card * H.size / space.N:
        problems.append(f"center localization too small: {cnt}")

    # petals: midpoint progression in V/H plus the density conditions
    target = cs.rep_of(int(space.smul(2, flower.center)))
    part_j, part_k = parts[flower.j0], parts[flower.k0]
    for u, w in flower.petals:
        if not (is_canonical_rep(u) and is_canonical_rep(w)):
            problems.append(f"petal ({u},{w}) not canonical reps")
        if int(cs.rep_of(int(space.add(int(u), int(w))))) != int(target):
            problems.append(f"petal ({u},{w}) is not a progression with the center")
        if int(u) == int(flower.center):
            problems.append(f"petal ({u},{w}) degenerate (u = center)")
        cj = localize(part_j, H, int(u)).card
        ck = localize(part_k, H, int(w)).card
        if cj < 0.25 * part_j.card * H.size / space.N:
            problems.append(f"petal u={u} fails the density condition: {cj}")
        if ck < 0.25 * part_k.card * H.size / space.N:
            problems.append(f"petal w={w} fails the density condition: {ck}")
    return problems


# ---------------------------------------------------------------------------
# Coset geometry from the digit codec
# ---------------------------------------------------------------------------


def digit_table_oracle(p: int, M, weights, shift, base: int) -> np.ndarray:
    """sum_c weights[c] ((sum_i k_i M[i, c] + shift[c]) mod p) for every
    k < base^m: decode k into its m base-`base` digits, multiply by M, add
    the shift, reduce mod p and dot with the weights."""
    M = np.asarray(M, dtype=np.int64)
    m = M.shape[0]
    k = np.arange(base**m, dtype=np.int64)
    digits = (k[:, None] // base ** np.arange(m, dtype=np.int64)) % base
    return ((digits @ M + np.asarray(shift, dtype=np.int64)) % p) @ np.asarray(weights, dtype=np.int64)


def coset_labels_oracle(H: SubspaceBasis, index) -> np.ndarray:
    """Minimal flat index of index + H: decode, clear every pivot digit with
    its basis row, encode."""
    space = H.space
    d = space.digits(index)
    if H.dim:
        d = (d - d[..., list(H.pivots)] @ H.rows) % space.p
    return space.index(d)


def coset_system_oracle(H: SubspaceBasis):
    """(reps, coset_id): the distinct labels of all points, ascending, and
    each point's position among them."""
    labels = coset_labels_oracle(H, np.arange(H.space.N, dtype=np.int64))
    reps, ids = np.unique(labels, return_inverse=True)
    return reps, ids.reshape(-1)


def witness_map_oracle(H: SubspaceBasis) -> np.ndarray:
    """For every character eta < |H| of H, min(rep(xi), rep(-xi)) for the
    xi with <rows[j], xi> = eta_j: rep is the canonical representative of
    coset_system_oracle(H^perp), and every xi is decoded."""
    space = H.space
    reps, ids = coset_system_oracle(H.annihilator())
    xi = np.arange(space.N, dtype=np.int64)
    eta = (space.digits(xi) @ H.rows.T % space.p) @ space.p ** np.arange(H.dim, dtype=np.int64)
    out = np.empty(H.size, dtype=np.int64)
    out[eta] = np.minimum(reps[ids], reps[ids[space.neg(xi)]])
    return out


def coeff_elements_oracle(H: SubspaceBasis) -> np.ndarray:
    """h_c = (c_0, ..., c_{dim-1}) @ rows mod p for c = sum_j c_j p^j."""
    space = H.space
    c = np.arange(H.size, dtype=np.int64)
    coeffs = (c[:, None] // space.p ** np.arange(H.dim, dtype=np.int64)) % space.p
    return space.index(coeffs @ H.rows % space.p)


def localization_rows_oracle(H: SubspaceBasis, points) -> np.ndarray:
    """flat(h_c - v) for every v in points (rows) and coefficient index c."""
    space = H.space
    hd = space.digits(coeff_elements_oracle(H))
    vd = space.digits(np.asarray(points, dtype=np.int64))
    return space.index((hd[None, :, :] - vd[:, None, :]) % space.p)


def localized_counts_oracle(A: DenseSubset, H: SubspaceBasis, reps) -> np.ndarray:
    """|A_H^v| = #{x in H : x - v in A} for every v in reps, one at a time."""
    space = A.space
    elems = H.elements()
    return np.array([int(A.mask[space.sub(elems, int(v))].sum()) for v in reps], dtype=np.int64)


def classify_oracle(A: DenseSubset, H: SubspaceBasis, eps: float, margin: float):
    """(reps, counts, sups, witnesses) of the per-coset scan from character
    sums: fhat(xi) = (1/|H|) sum_{x in H} 1_A(x - v) e(-<x, xi>/p) for every
    coset rep v and one xi per character of H, the smallest xi with that
    character.  The witness of an irregular coset is the smallest xi whose
    magnitude is within margin of the sup and above the threshold."""
    space = A.space
    p = space.p
    reps, _ = coset_system_oracle(H)
    elems = H.elements()
    every = space.digits(np.arange(space.N, dtype=np.int64))
    character = (every @ H.rows.T % p) @ p ** np.arange(H.dim, dtype=np.int64)
    _, first = np.unique(character, return_index=True)
    xis = np.sort(first)
    phases = (space.digits(elems) @ space.digits(xis).T) % p
    chars = np.exp(-2j * np.pi * phases / p)
    local = np.array([A.mask[space.sub(elems, int(v))] for v in reps], dtype=np.float64)
    mags = np.abs(local @ chars) / H.size
    counts = local.sum(axis=1).astype(np.int64)
    sups = mags[:, 1:].max(axis=1) if H.size > 1 else np.zeros(len(reps))
    threshold = eps * A.card / space.N
    witnesses = np.full(len(reps), -1, dtype=np.int64)
    for k in np.flatnonzero(sups > threshold):
        ties = (mags[k, 1:] >= sups[k] - margin) & (mags[k, 1:] > threshold)
        witnesses[k] = xis[1:][ties].min()
    return reps, counts, sups, witnesses


def petal_graph_oracle(A: DenseSubset, H: SubspaceBasis, v1: int, v2: int):
    """(left, right, adjacency) of the midpoint graph on (H - v1, H - v2):
    the sorted elements of H shifted by -v1 and -v2, and for every pair the
    membership in A of (u1 + u2) / 2, each point decoded, added, halved and
    encoded."""
    space = H.space
    p = space.p
    hd = space.digits(H.elements())
    left = space.index((hd - space.digits(v1)) % p)
    right = space.index((hd - space.digits(v2)) % p)
    ld, rd = space.digits(left), space.digits(right)
    mid = space.index(space.inv2 * (ld[:, None, :] + rd[None, :, :]) % p)
    return left, right, A.mask[mid]


def klr11_oracle(adj: np.ndarray, t1: int, t2: int, adversary: str, trials: int, seed: int) -> float:
    """no_edge_freq of the (t1, t2)-subgraph experiment on the u x u
    adjacency adj, one trial at a time from substream(seed, t): the
    adversary blocks S1, T1 is drawn from the open positions, the adversary
    blocks S2 seeing T1, T2 is drawn from the open positions, and the trial
    fails when adj[T1, T2] holds no edge.  "trivial" blocks nothing;
    "greedy" blocks the floor(u/2) positions ranked last by a stable
    argsort of the left degrees, then of the right degrees into T1."""
    u = len(adj)
    every = np.arange(u)

    def blocked(degrees):
        if adversary == "trivial":
            return []
        return np.argsort(degrees, kind="stable")[u - u // 2 :]

    failures = 0
    for t in range(trials):
        gen = substream(seed, t)
        T1 = sample_without_replacement(gen, np.setdiff1d(every, blocked(adj.sum(axis=1))), t1)
        T2 = sample_without_replacement(gen, np.setdiff1d(every, blocked(adj[T1].sum(axis=0))), t2)
        failures += not adj[np.ix_(T1, T2)].any()
    return failures / trials


def petal_search_oracle(report, alpha: float):
    """The flower stages after the joint regularization, redone literally.

    Candidates per part (regular, dense, truncated to the lowest
    ceil(alpha/(4m) K) reps), the triple-overlap set B and the case branch,
    the eligible pools, then every (i0, j0, k0, center) in loop order,
    keeping the first one with the most petals.  Returns (case, |B|,
    eligible sizes, best, ties): best is (count, i0, j0, k0, center, petals)
    or None, ties the number of (i0, j0, k0, center) reaching that count.
    """
    mrep = report.multi_report
    H = mrep.H_final
    space = H.space
    classes = mrep.classifications
    m = len(classes)
    reps, ids = coset_system_oracle(H)
    K = len(reps)
    cands = []
    for part_size, cls in zip(report.part_sizes, classes):
        dens = 0.25 * part_size * H.size / space.N
        chosen = [int(v) for v, reg, cnt in zip(cls.reps, cls.regular, cls.counts) if reg and cnt >= dens]
        cands.append(set(chosen[: math.ceil(alpha / (4 * m) * K)]))
    mult = {}
    for s in cands:
        for v in s:
            mult[v] = mult.get(v, 0) + 1
    b_set = {v for v, c in mult.items() if c >= 3}
    if not any(cands):
        return None, len(b_set), (), None, 0
    if len(b_set) >= alpha / (8 * m) * K:
        case = "triple_overlap"
        eligible = [sorted(b_set & s) for s in cands]
    else:
        case = "disjoint_parts"
        eligible = [[] for _ in range(m)]
        for v in sorted(set().union(*cands) - b_set):
            owner = next(i for i in range(m) if v in cands[i])
            eligible[owner].append(v)

    found = []
    for i0 in range(m):
        for j0 in range(m):
            for k0 in range(m):
                if len({i0, j0, k0}) != 3:
                    continue
                for c in eligible[i0]:
                    petals = []
                    for u in eligible[j0]:
                        w = int(reps[ids[int(space.sub(int(space.smul(2, c)), u))]])
                        if u != c and w in eligible[k0]:
                            petals.append((u, w))
                    if petals:
                        found.append((len(petals), i0, j0, k0, c, tuple(petals)))
    if not found:
        return case, len(b_set), tuple(len(e) for e in eligible), None, 0
    top = max(f[0] for f in found)
    best = next(f for f in found if f[0] == top)
    ties = sum(1 for f in found if f[0] == top)
    return case, len(b_set), tuple(len(e) for e in eligible), best, ties


# ---------------------------------------------------------------------------
# Memory budgets
# ---------------------------------------------------------------------------


# Prepended to every memory-budget script.  measure(call) reads one call's
# peak two ways: the growth of ru_maxrss, which reads 0 for a peak below the
# process's earlier high-water mark, and tracemalloc's peak, which sees every
# numpy buffer but no memory outside Python's allocators.  A budget holds
# against the larger of the two (peak_bytes).
PEAK_PRELUDE = """
import json, resource, sys, tracemalloc


def measure(call):
    tracemalloc.start()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = call()
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    traced = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return result, {"rss_bytes": 1024 * (after - before), "traced_bytes": traced}
"""


def run_peak_script(script: str, *args) -> dict:
    """The JSON object on the last stdout line of PEAK_PRELUDE + script, run
    with args as sys.argv[1:] in a fresh interpreter that imports this
    checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_PRELUDE + script, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_bytes(reading: dict) -> int:
    """The larger of a measure() reading's ru_maxrss growth and traced peak."""
    return max(reading["rss_bytes"], reading["traced_bytes"])
