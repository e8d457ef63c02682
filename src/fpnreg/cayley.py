"""Cayley graphs on (V, V) generated by difference sets, and their edge
statistics.

G_A has an edge (v1, v2) whenever v2 - v1 lies in A, making it |A|-regular.
Edge counts come either from a direct pair scan or from the spectral identity
e(X, Y) = N^2 sum_xi Ahat(xi) Xhat(xi) conj(Yhat(xi)); certificates bound the
worst-case edge discrepancy through sup |Ahat| over nontrivial frequencies.

The direct scan and the midpoint petal graph each look a mask up at a*x + b*y
for every pair (x, y): vectorspace._pair_codes encodes each side once and
_pair_sum adds the codes, in runs of about _PAIR_BLOCK pairs (the flower
search in threeap uses them too).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
# full_spectrum is not called here; it stays bound for bench/tracing.py, which wraps every binding
from .fourier import _nontrivial_sup, _Planes, full_spectrum, rounded_count
from .regularity import restricted_sup
from .rng import sample_without_replacement, substreams
from .vectorspace import (
    DenseSubset,
    SpaceDescriptor,
    SubspaceBasis,
    _check_index,
    _digit_reversal,
    _pair_codes,
    _pair_index,
    _pair_runs,
    _pair_sum,
    localized_count,
    same_space,
)


# ---------------------------------------------------------------------------
# Edge counting
# ---------------------------------------------------------------------------


def _scan(mask: np.ndarray, space: SpaceDescriptor, outer: np.ndarray, inner: np.ndarray, sign: int) -> int:
    """sum over o in outer, i in inner of mask[sign*o + i], in runs of outer."""
    p, n = space.p, space.n
    rows, partners = _pair_codes(p, n, outer, sign), _pair_codes(p, n, inner, 1)
    return sum(
        int(np.count_nonzero(mask[_pair_sum(p, n, rows[:, run], partners)]))
        for run in _pair_runs(len(outer), len(inner))
    )


def edge_count_direct(A: DenseSubset, X: DenseSubset, Y: DenseSubset) -> int:
    """Exact number of pairs (x, y) in X x Y with y - x in A."""
    same_space(A, X, Y)
    space = A.space
    costs = {
        "xy": X.card * Y.card,
        "ax": A.card * X.card,
        "ay": A.card * Y.card,
    }
    if min(costs.values()) == 0:
        return 0
    best = min(costs, key=costs.get)
    if best == "xy":
        # pairs with y - x in A: scan x, look up A at (y - x)
        return _scan(A.mask, space, X.members(), Y.members(), -1)
    if best == "ax":
        # y = x + a ranges over Y
        return _scan(Y.mask, space, A.members(), X.members(), +1)
    # x = y - a ranges over X
    return _scan(X.mask, space, A.members(), Y.members(), -1)


def edge_count_fourier(A: DenseSubset, X: DenseSubset, Y: DenseSubset) -> float:
    """Spectral edge count N^2 sum_xi Ahat(xi) Xhat(xi) conj(Yhat(xi)); equals
    the direct count up to round-off.  All three sets are real, so the term
    of -xi is the conjugate of the term of xi: the sum is the top-digit-0
    plane of the stored halves plus 2 Re of the rest.  The sum runs one
    stored plane at a time in one plan of three N/p-entry complex slots:
    the plane of products, the next transform's plane and its spare
    (48 N/p bytes, plus 6 N/p bytes of row codes; budget 16 N bytes at 5^10
    and 13^6)."""
    space = same_space(A, X, Y)
    work = _Planes(space, [Y.mask, A.mask, X.mask], 3)
    total = 0.0
    for t in range((space.p + 1) // 2):
        terms = work.plane(0, t, 0, 2)
        np.conjugate(terms, out=terms)
        terms *= work.plane(1, t, 1, 2)
        terms *= work.plane(2, t, 1, 2)
        total += (1 if t == 0 else 2) * terms.sum().real
    return float(total) * space.N**2


def edge_count(A: DenseSubset, X: DenseSubset, Y: DenseSubset) -> int:
    """Exact count, auto-selecting pair scan vs rounded spectral evaluation.

    The spectral branch raises ContractError when its total is not within
    ROUNDING_MARGIN of an integer.
    """
    space = same_space(A, X, Y)
    direct_cost = min(X.card * Y.card, A.card * X.card, A.card * Y.card)
    spectral_cost = 4 * space.N * space.n
    if direct_cost <= spectral_cost:
        return edge_count_direct(A, X, Y)
    return rounded_count(edge_count_fourier(A, X, Y), "edge count")


# ---------------------------------------------------------------------------
# Sigma-regularity certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityCertificate:
    """Certifies |e(X,Y) - |R||X||Y|/N| <= delta |R||X||Y|/N for all
    |X|, |Y| >= sigma N, via fourier_sup <= delta sigma |R| / N."""

    sigma: float
    delta: float
    fourier_sup: float
    passed: bool
    set_card: int
    space_size: int


def sigma_certificate(R: DenseSubset, sigma: float, delta: float) -> RegularityCertificate:
    """The certificate of R's Fourier sup over nontrivial frequencies, read
    one stored plane of the half spectrum at a time in one plan of two
    N/p-entry complex slots, the plane and its spare, whose float view then
    holds the magnitudes (32 N/p bytes, plus 2 N/p bytes of row codes;
    budget 12 N bytes at 5^10 and 13^6)."""
    if not 0 < sigma < 1 or not 0 < delta < 1:
        raise InputError("sigma and delta must lie in (0, 1)")
    space = R.space
    sup = _nontrivial_sup(space, R.mask)
    passed = sup <= delta * sigma * R.card / space.N
    return RegularityCertificate(sigma, delta, sup, passed, R.card, space.N)


# ---------------------------------------------------------------------------
# Sparseness probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SparseCheckReport:
    passed: bool
    trials: int
    max_ratio: float
    witness: tuple | None  # (X members, Y members, density, bound) on violation


def sparse_check(A: DenseSubset, b: float, sigma: float, samples: int, seed: int) -> SparseCheckReport:
    """Probe d(X, Y) <= b d(G_A) over seeded random pairs with |X|, |Y| >= sigma N.

    Every other trial reuses X as Y: diagonal pairs are the classic violators
    (a perfect matching concentrates edges on them), so a sampler that never
    correlates the sides would miss exactly the interesting cases.
    """
    if b <= 0 or not 0 < sigma <= 1 or samples < 1:
        raise InputError("need b > 0, sigma in (0, 1], samples >= 1")
    space = A.space
    min_size = math.ceil(sigma * space.N)
    d_graph = A.card / space.N
    everything = np.arange(space.N, dtype=np.int64)

    max_ratio = 0.0
    witness = None
    for gen in substreams(seed, samples):
        nx = int(gen.integers(min_size, space.N + 1))
        X = DenseSubset.from_members(space, sample_without_replacement(gen, everything, nx))
        if gen.integers(2):
            Y = X
        else:
            ny = int(gen.integers(min_size, space.N + 1))
            Y = DenseSubset.from_members(space, sample_without_replacement(gen, everything, ny))
        e = edge_count(A, X, Y)
        d_xy = e / (X.card * Y.card)
        ratio = d_xy / (b * d_graph) if d_graph > 0 else (math.inf if d_xy > 0 else 0.0)
        if ratio > max_ratio:
            max_ratio = ratio
        if d_xy > b * d_graph * (1 + 1e-12) and witness is None:
            witness = (
                tuple(int(i) for i in X.members()),
                tuple(int(i) for i in Y.members()),
                d_xy,
                b * d_graph,
            )
    return SparseCheckReport(witness is None, samples, max_ratio, witness)


# ---------------------------------------------------------------------------
# Relative-regularity pair check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairDensityReport:
    applicable: bool
    sup: float
    threshold: float
    expected_density: float | None
    trials: int
    max_ratio: float | None
    passed: bool | None


def pair_density_check(
    A: DenseSubset,
    H: SubspaceBasis,
    vi: int,
    vj: int,
    eps: float,
    samples: int,
    seed: int,
) -> PairDensityReport:
    """Sampled check of the relative-regularity deviation bound between the
    affine translates vi + H and vj + H.

    Requires the translate difference to be an eps-regular vector for A
    w.r.t. H; otherwise the report is marked inapplicable.  Sampled X, Y have
    size at least eps^(1/3) |H|; each pair must satisfy
    |d(X,Y) - d(H_i,H_j)| <= eps |A_H^diff| |H|^2 / (|X||Y| N).

    With the localization convention A_H^v = (A+v) ^ H, the exact identity is
    e(H_i, H_j) = |H| |A_H^(vi-vj)|, so diff = vi - vj throughout.
    """
    space = same_space(A, H)
    if not 0 < eps < 1 or samples < 1:
        raise InputError("need eps in (0, 1) and samples >= 1")
    vi = int(_check_index(space, vi))
    vj = int(_check_index(space, vj))
    diff = int(space.sub(vi, vj))
    sup = restricted_sup(A, H, diff)
    threshold = eps * A.card / space.N
    if sup > threshold:
        return PairDensityReport(False, sup, threshold, None, 0, None, None)

    cnt = localized_count(A, H, diff)
    expected = cnt / H.size
    min_size = math.ceil(eps ** (1 / 3) * H.size)
    # vi + h_c = h_c - (-vi): the localization gather, read in H.elements() order
    rev = _digit_reversal(space.p, H.dim)
    hi_elems = H._localization(int(space.neg(vi)))[rev, 0]
    hj_elems = H._localization(int(space.neg(vj)))[rev, 0]

    max_ratio = 0.0
    for gen in substreams(seed, samples):
        nx = int(gen.integers(min_size, H.size + 1))
        ny = int(gen.integers(min_size, H.size + 1))
        X = DenseSubset.from_members(space, sample_without_replacement(gen, hi_elems, nx))
        Y = DenseSubset.from_members(space, sample_without_replacement(gen, hj_elems, ny))
        e = edge_count(A, X, Y)
        dev = abs(e / (X.card * Y.card) - expected)
        bound = eps * cnt * H.size**2 / (X.card * Y.card * space.N)
        if bound == 0:
            ratio = 0.0 if dev == 0 else math.inf
        else:
            ratio = dev / bound
        max_ratio = max(max_ratio, ratio)
    return PairDensityReport(True, sup, threshold, expected, samples, max_ratio, max_ratio <= 1 + 1e-9)


# ---------------------------------------------------------------------------
# Midpoint petal graph
# ---------------------------------------------------------------------------


class PetalGraph:
    """Bipartite midpoint graph on (H - v1, H - v2): u1 ~ u2 whenever
    (u1 + u2) / 2 lies in A.  Odd p makes the halving well defined.

    Position i on either side is the i-th element h_i of H.elements().  With
    w = (v1 + v2) / 2 the pair (i, j) meets at (h_i + h_j) / 2 - w, which runs
    over all of H - w as either end runs over its side.  So the graph is a
    Cayley graph of H and every vertex on either side has degree
    |A_H^w| = |(A + w) ^ H|; it has u |A_H^w| edges.  One localized row
    row[k] = [h_k - w in A], in position order, decides every edge: h_i has
    the coefficient index _digit_reversal(p, dim)[i], and a digit reversal
    commutes with digit-wise sums, so the midpoint of (i, j) is position
    inv2 (i + j), digit-wise mod p.  The graph keeps only that row; the two
    sides' points are built when asked.  The first edge query encodes inv2 i
    for every position (16 u bytes) for all later ones.

    any_edge and right_degrees_into take a batch of trials, one position
    set per row, as mc_klr11 decides all its trials at once.
    """

    def __init__(self, generator: DenseSubset, H: SubspaceBasis, v1: int, v2: int):
        space = same_space(generator, H)
        self.generator = generator
        self.H = H
        self.v1 = int(_check_index(space, v1))
        self.v2 = int(_check_index(space, v2))
        self.space = space
        self.u = H.size
        w = int(space.smul(space.inv2, space.add(self.v1, self.v2)))
        self._row = generator.mask[self._points(w)]
        self._degree = int(self._row.sum())

    def _points(self, v: int) -> np.ndarray:
        """h_i - v for every position i: the localization gather of v, read in
        H.elements() order."""
        return self.H._localization(v)[_digit_reversal(self.space.p, self.H.dim), 0]

    def left_points(self) -> np.ndarray:
        return self._points(self.v1)

    def right_points(self) -> np.ndarray:
        return self._points(self.v2)

    @functools.cached_property
    def _codes(self) -> np.ndarray:
        return _pair_codes(self.space.p, self.H.dim, np.arange(self.u), self.space.inv2)

    @functools.cached_property
    def _support(self) -> np.ndarray:
        return np.flatnonzero(self._row)

    def _edge_block(self, lpos, rpos) -> np.ndarray:
        """Boolean adjacency block for positions lpos x rpos."""
        codes = self._codes
        rows, partners = np.take(codes, lpos, axis=1), np.take(codes, rpos, axis=1)
        return self._row[_pair_sum(self.space.p, self.H.dim, rows, partners)]

    def edges_between(self, lpos, rpos) -> int:
        """Edges between the positions lpos and rpos, lpos cut into _pair_runs."""
        lpos = np.asarray(lpos, dtype=np.int64)
        rpos = np.asarray(rpos, dtype=np.int64)
        runs = _pair_runs(len(lpos), len(rpos))
        return sum(int(self._edge_block(lpos[run], rpos).sum()) for run in runs)

    def any_edge(self, lpos, rpos) -> np.ndarray:
        """For each trial k, whether lpos[k] x rpos[k] spans an edge; lpos
        is a (trials, t1) and rpos a (trials, t2) batch of positions.

        Every row of lpos is paired with its own trial's row of rpos, the
        (trial, row) rows cut into _pair_runs; a run whose trials have all
        hit already is skipped.
        """
        lpos = np.asarray(lpos, dtype=np.int64)
        rpos = np.asarray(rpos, dtype=np.int64)
        trials, t1 = lpos.shape
        codes = self._codes
        rows = np.take(codes, lpos.reshape(-1), axis=1)
        owner = np.repeat(np.arange(trials), t1)
        hit = np.zeros(trials, dtype=bool)
        for run in _pair_runs(trials * t1, rpos.shape[1]):
            k = owner[run]
            if hit[k].all():
                continue
            partners = np.take(codes, rpos[k], axis=1)
            found = self._row[_pair_sum(self.space.p, self.H.dim, rows[:, run], partners)].any(axis=1)
            hit[k[found]] = True
        return hit

    def edge_count(self) -> int:
        return self.u * self._degree

    def density(self) -> float:
        return self._degree / self.u

    def left_degrees(self) -> np.ndarray:
        return np.full(self.u, self._degree, dtype=np.int64)

    def right_degrees_into(self, lpos) -> np.ndarray:
        """Degree of every right position into each trial's left positions:
        lpos is a (trials, t) batch, the result (trials, u).

        i ~ j exactly when inv2 (i + j) lies in the support S of the
        localized row, that is when j = 2s - i for an s in S, and s
        determines j for each i.  So the degrees into T are the histogram
        of {2s - i : s in S, i in T}: |T| |S| pairs through the pair
        kernel, whatever u is, counted by one np.bincount per run.
        """
        lpos = np.asarray(lpos, dtype=np.int64)
        trials, t = lpos.shape
        p, u, support = self.space.p, self.u, self._support
        rows = lpos.reshape(-1)
        offset = np.repeat(np.arange(trials) * u, t)  # row r counts into trial r // t
        deg = np.zeros(trials * u, dtype=np.int64)
        for run in _pair_runs(len(rows), len(support)):
            idx = _pair_index(p, self.H.dim, rows[run], support, p - 1, 2)
            o = offset[run]
            idx += (o - o[0])[:, None]
            deg[o[0] : o[-1] + u] += np.bincount(idx.reshape(-1), minlength=o[-1] + u - o[0])
        return deg.reshape(trials, u)


def petal_graph(A: DenseSubset, H: SubspaceBasis, v1: int, v2: int) -> PetalGraph:
    return PetalGraph(A, H, v1, v2)
