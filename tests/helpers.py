"""Independent oracles used to cross-check the library's fast paths.

Everything here is deliberately naive: literal double sums for transforms,
O(|H|^2) convolution, and a from-scratch flower validator that only touches
vectorspace/fourier primitives, never the search code under test.
"""

import cmath

import numpy as np

from fpnreg.fourier import DenseFunction, Spectrum, dft
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
