"""Three-term arithmetic progressions in F_p^n.

Counting follows the ordered-(a, d) convention: the pair (a, d) contributes
when a, a+d, a+2d all lie in the set, and d = 0 gives the |A| trivial pairs.
The exhaustive count and the decision both run one midpoint search over
member pairs: a pair x != z whose midpoint is a member is the nontrivial
progression x, (x + z)/2, z.  The count runs it over all |A|^2 pairs,
holding 16 |A| bytes of halved member codes and one pair run; deciding
stops at the first hit.  The spectral count N^2 sum_xi conj(Ahat(xi))^2
Ahat(2xi) reproduces the exhaustive count exactly after rounding.  The
flower search splits A into parts, regularizes them jointly, collects
dense regular coset representatives per part, and extracts the
midpoint-centered progression family the quotient supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
# full_spectrum is not called here; it stays bound for bench/tracing.py, which wraps every binding
from .fourier import _spectrum_plane, full_spectrum, rounded_count
from .regularity import RegularityReport, VectorClassification, classify_vectors, regularize_multi
from .rng import substreams
from .vectorspace import (
    DenseSubset,
    SpaceDescriptor,
    SubspaceBasis,
    _dilate,
    _pair_codes,
    _pair_index,
    _pair_runs,
    _pair_step,
    _pair_sum,
    basis_from_dict,
    same_space,
)

# Partners of a density trial's first pick in its probe, tried before the
# full pair search; the picks are distinct, so x = z cannot occur in it.
_PROBE = 64

# Most parts canonical_split makes: each part holds an N-byte mask, and
# flower_find's part-triple loop takes about m^3 steps, 0.16 s at m = 32 and
# 12 s at m = 128 for a 4-point set of F_3^2 on a 2-core VM.
MAX_PARTS = 32


@dataclass(frozen=True)
class APTriple:
    """The progression a, a+d, a+2d; nontrivial iff d != 0."""

    a: int
    d: int

    def terms(self, space: SpaceDescriptor) -> tuple[int, int, int]:
        return (
            self.a,
            int(space.add(self.a, self.d)),
            int(space.add(self.a, space.smul(2, self.d))),
        )

    @property
    def nontrivial(self) -> bool:
        return self.d != 0


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def count_3aps_fourier(A: DenseSubset) -> int:
    """Spectral count N^2 sum_xi conj(Ahat(xi))^2 Ahat(2xi) (trivial pairs
    included), rounded to the nearest integer.

    A is real, so Ahat(-xi) = conj(Ahat(xi)) and the term of -xi is the
    conjugate of the term of xi: the sum is the top-digit-0 plane of the
    stored half plus 2 Re of its other planes.  Plane t pairs with plane
    2t mod p for Ahat(2xi), read as the conj of the stored plane p - 2t when
    2t mod p is not stored.  The planes are built one at a time along the
    cycles of t -> +-2t mod p, each once; a cycle holds its first plane, the
    current one and the next, so the call peaks at about five N/p-entry
    complex buffers (80 N/p bytes; budget 18 N bytes at 5^10, 10 N at 13^6).
    The per-plane terms are added in t order.  Raises ContractError when
    the total is not within ROUNDING_MARGIN of an integer.
    """
    space = A.space
    p, n = space.p, space.n
    half = (p + 1) // 2
    terms = [None] * half
    for start in range(half):
        if terms[start] is not None:
            continue
        t = start
        first = plane = _spectrum_plane(space, A.mask, start)
        while terms[t] is None:
            s = 2 * t % p
            u = s if s < half else p - s
            nxt = first if u == start else _spectrum_plane(space, A.mask, u)
            dbl = _dilate(nxt, p, n - 1, 2) if s < half else _dilate(nxt, p, n - 1, -2).conj()
            terms[t] = float((plane.conj() ** 2 * dbl).sum().real)
            del dbl  # not held while the next plane builds
            t, plane = u, nxt
        del first, plane, nxt  # nor this cycle's planes while the next one starts
    total = 0.0
    for t, term in enumerate(terms):
        total += term if t == 0 else 2 * term
    return rounded_count(total * float(space.N) ** 2, "3AP count")


def _midpoint_hits(mask: np.ndarray, p: int, n: int, half: np.ndarray):
    """(lo, hits) per block of rows over the members x_0, ..., x_{k-1} of
    the set with bit mask `mask`, in the order half holds them: hits[i, j] =
    [x_{lo+i} != x_j and (x_{lo+i} + x_j)/2 lies in the set].  half holds
    the codes of inv2*x_j (from _pair_codes), so the midpoint is their
    digit-wise sum.  Whether a pass hits does not depend on that order.

    Blocks of 1, 4, 16, ... rows run against all k members, each capped at
    _pair_step rows, so a caller that stops at the first hit pays little
    for a set full of progressions and the k^2 pairs for one without.  A
    pair x != z with midpoint y in the set is the nontrivial progression x,
    y, z, so a pass with no hit proves the set progression-free."""
    k = half.shape[1]
    lo, size, cap = 0, 1, _pair_step(k)
    while lo < k:
        hi = min(lo + min(size, cap), k)
        hits = mask[_pair_sum(p, n, half[:, lo:hi], half)]
        hits[np.arange(hi - lo), np.arange(lo, hi)] = False  # x = z is trivial
        yield lo, hits
        lo, size = hi, 4 * size


def _member_hits(A: DenseSubset):
    """A's members, ascending, and the (lo, hits) blocks of _midpoint_hits
    over their halved codes."""
    space = A.space
    members = A.members()
    half = _pair_codes(space.p, space.n, members, space.inv2)
    return members, _midpoint_hits(A.mask, space.p, space.n, half)


def count_3aps_naive(A: DenseSubset, include_trivial: bool = True) -> int:
    """Exhaustive count of (a, d) pairs with a, a+d, a+2d in A.

    2 is invertible, so (a, d) -> (x, z) = (a, a + 2d) is a bijection and
    the nontrivial pairs are the ordered member pairs x != z whose midpoint
    lies in A: the full pair search counts them over all |A|^2 pairs.  It
    holds the halved member codes, 16 |A| bytes, and one pair run of about
    _PAIR_BLOCK pairs, whatever N is.
    """
    _, runs = _member_hits(A)
    total = sum(int(np.count_nonzero(hits)) for _, hits in runs)
    return total + A.card if include_trivial else total


def find_nontrivial_3ap(A: DenseSubset) -> APTriple | None:
    """First nontrivial triple in (a, d)-lexicographic order, or None.

    The triples from a are a, (a + z)/2, z for the members z != a whose
    midpoint with a lies in A, with d = (z - a)/2.  The first a in ascending
    order with such a z gives the triple, with the smallest of its d.  The
    pair search costs at most |A|^2 pairs and holds 16 |A| bytes of member
    codes and one run of about _PAIR_BLOCK pairs, whatever N is.
    """
    p, n, inv2 = A.space.p, A.space.n, A.space.inv2
    members, runs = _member_hits(A)
    for lo, hits in runs:
        rows = np.flatnonzero(hits.any(axis=1))
        if rows.size:
            i = lo + int(rows[0])
            ds = _pair_index(p, n, members[i : i + 1], members[hits[rows[0]]], -inv2, inv2)
            return APTriple(int(members[i]), int(ds.min()))
    return None


# ---------------------------------------------------------------------------
# Cap-set oracle
# ---------------------------------------------------------------------------


def capset_max_exhaustive(p: int, n: int) -> tuple[int, DenseSubset]:
    """Maximum size of a 3AP-free subset of F_3^n with one witness.

    Depth-first search in ascending index order, pruned by the size bound;
    the first set of each larger size is kept.  Adding w after s, t is
    blocked when s + t + w = 0 (in F_3 every permutation of an AP is an AP).
    """
    if p != 3:
        raise InputError("the cap-set oracle is defined over F_3 only")
    if n not in (1, 2, 3):
        raise InputError(f"cap-set search caps at n = 3, got n = {n}")
    space = SpaceDescriptor(3, n)
    N = space.N
    everything = np.arange(N, dtype=np.int64)
    neg_sum = _pair_index(3, n, everything, everything, -1, -1)
    best: list = [0, []]
    blocked = np.zeros(N, dtype=np.int64)
    chosen: list = []

    def dfs(start: int):
        if len(chosen) + (N - start) <= best[0]:
            return
        for w in range(start, N):
            if blocked[w]:
                continue
            newly = neg_sum[w, chosen] if chosen else np.empty(0, dtype=np.int64)
            blocked[newly] += 1
            chosen.append(w)
            if len(chosen) > best[0]:
                best[0], best[1] = len(chosen), list(chosen)
            dfs(w + 1)
            chosen.pop()
            blocked[newly] -= 1

    dfs(0)
    return best[0], DenseSubset.from_members(space, best[1])


# ---------------------------------------------------------------------------
# Density testing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityTestReport:
    alpha: float
    subset_size: int
    trials: int
    failures: int
    failure_freq: float
    witnesses: tuple  # up to 10 member tuples of 3AP-free subsets
    outcomes: tuple  # per-trial flag: 1 when the sampled subset was 3AP-free


def density_test(R: DenseSubset, alpha: float, trials: int, seed: int) -> DensityTestReport:
    """Randomized refutation search for (alpha, 3AP)-density of R.

    Samples uniform ceil(alpha |R|)-subsets of R and reports the fraction
    lacking a nontrivial progression, with up to 10 witness subsets.  Trial
    t draws its subset from substream(seed, t), read through one re-keyed
    stream (rng.substreams).

    A pair search decides each trial: it looks for members x != z of the
    subset whose midpoint (x + z)/2 is also a member, and stops at the first
    hit.  R's members are halved and encoded into pair-kernel codes once
    per call, 16 |R| bytes; a trial gathers the code columns of its picks,
    in the order they were drawn, and scatters them into one N-sized mask
    that the call reuses and clears after each trial.  When k > _PROBE + 1
    a short probe first pairs the first pick with the next _PROBE, which
    decides most trials of a set full of progressions; a miss falls through
    to the full search.  A full pass over the k^2 pairs with no hit is an
    exact certificate that the subset is AP-free.  Only such a trial builds
    a DenseSubset: the spectral count cross-checks the certificate, and a
    disagreement raises AssertionError.  A trial's pair runs hold about
    _PAIR_BLOCK pairs, the reused mask N bytes, and a trial that hits
    builds no transform, so at the cap (r = 10 sqrt(N), alpha = 1/2) a hit
    trial peaks below 4 N bytes above R.
    """
    if not 0 < alpha <= 1:
        raise InputError(f"alpha must lie in (0, 1], got {alpha}")
    if trials < 1:
        raise InputError("trials must be >= 1")
    k = math.ceil(alpha * R.card)
    if k > R.card:
        raise InputError(f"subset size {k} exceeds |R| = {R.card}")
    space = R.space
    p, n = space.p, space.n
    members = R.members()
    half = _pair_codes(p, n, members, space.inv2)
    mask = np.zeros(space.N, dtype=bool)

    failures = 0
    witnesses = []
    outcomes = []
    for gen in substreams(seed, trials):
        pick = gen.choice(R.card, size=k, replace=False)
        points = members[pick]
        cols = np.take(half, pick, axis=1)  # faster than half[:, pick]
        mask[points] = True
        partners = cols[:, 1 : _PROBE + 1]
        probe_hit = k > _PROBE + 1 and mask[_pair_sum(p, n, cols[:, :1], partners)].any()
        ap_free = not probe_hit and not any(hits.any() for _, hits in _midpoint_hits(mask, p, n, cols))
        outcomes.append(1 if ap_free else 0)
        if ap_free:
            sub = DenseSubset(space, mask)
            if count_3aps_fourier(sub) != sub.card:
                raise AssertionError("pair search and spectral count disagree on an AP-free trial")
            failures += 1
            if len(witnesses) < 10:
                witnesses.append(tuple(int(x) for x in sub.members()))
        mask[points] = False
    return DensityTestReport(
        alpha, k, trials, failures, failures / trials, tuple(witnesses), tuple(outcomes)
    )


# ---------------------------------------------------------------------------
# Petal candidates and flowers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PetalCandidates:
    """Coset representatives where one part is both regular and dense."""

    H: SubspaceBasis
    reps: np.ndarray = field(compare=False)  # selected reps, ascending
    target: int
    pre_truncation: int
    shortfall: bool


def build_petal_candidates(
    A_i: DenseSubset,
    H: SubspaceBasis,
    eps: float,
    alpha: float,
    m: int,
    classification: VectorClassification | None = None,
) -> PetalCandidates:
    """Representatives v with v eps-regular for A_i w.r.t. H and
    |(A_i)_H^v| >= (1/4)|A_i||H|/N, truncated to ceil((alpha/4m) K) lowest."""
    space = same_space(A_i, H)
    if m < 1:
        raise InputError("m must be >= 1")
    cls = classification if classification is not None else classify_vectors(A_i, H, eps)
    if cls.H != H:
        raise InputError("classification was computed for a different subspace")
    K = len(cls.reps)
    dens = 0.25 * A_i.card * H.size / space.N
    qualify = cls.regular & (cls.counts >= dens)
    selected = cls.reps[qualify]
    target = math.ceil(alpha / (4 * m) * K)
    pre = len(selected)
    if pre > target:
        selected = selected[:target]
    sel = np.array(selected, dtype=np.int64)
    sel.flags.writeable = False
    return PetalCandidates(H, sel, target, pre, pre < target)


@dataclass(frozen=True)
class Flower:
    """A subspace H, a center coset where one part of A is regular and dense,
    and petal coset pairs forming midpoint progressions with the center in V/H."""

    H: SubspaceBasis
    parts: tuple  # the m DenseSubsets, canonical split of A
    i0: int
    j0: int
    k0: int
    center: int
    petals: tuple  # ordered (u, w) rep pairs with u + w = 2 center mod H
    eps: float
    alpha: float
    m: int
    case: str  # triple_overlap | disjoint_parts

    @property
    def petal_count(self) -> int:
        return len(self.petals)


@dataclass(frozen=True)
class FlowerSearchReport:
    found: bool
    flower: Flower | None
    failure_stage: str | None  # no_regular_subspace | empty_petal_candidates | no_cross_part_3aps
    case: str | None
    part_sizes: tuple
    bi_sizes: tuple
    bi_shortfalls: tuple
    b_size: int
    case1_threshold: float
    multi_report: RegularityReport | None
    eligible_sizes: tuple = ()
    discard_bound: float | None = None


def canonical_split(A: DenseSubset, m: int) -> list[DenseSubset]:
    """Partition A into 1 <= m <= MAX_PARTS near-equal parts by ascending index blocks."""
    if not 1 <= m <= MAX_PARTS:
        raise InputError(f"splits need 1 to {MAX_PARTS} parts, got m = {m}")
    # the first len(A) % m blocks hold one member more than the others
    return [DenseSubset.from_members(A.space, block) for block in np.array_split(A.members(), m)]


def flower_find(
    A: DenseSubset,
    m: int,
    eps: float,
    alpha: float,
    floor: int = 1,
) -> FlowerSearchReport:
    """Search for the maximum-petal flower in the canonical m-part split of A.

    Pipeline: split, regularize jointly, build per-part candidate reps,
    branch on the size of the triple-overlap set B (case 1 keeps B-members,
    case 2 assigns non-triply-shared reps to disjoint per-part pools), then
    maximize the midpoint petal count exactly over (i0, j0, k0) and centers.
    Failures report the stage that degenerated.  m runs from 3 to
    MAX_PARTS (32); any other m raises InputError.
    """
    if m < 3:
        raise InputError(f"flowers need 3 to {MAX_PARTS} parts, got m = {m}")
    space = A.space
    parts = canonical_split(A, m)
    part_sizes = tuple(p.card for p in parts)

    mrep = regularize_multi(parts, eps, alpha, floor)
    if not mrep.succeeded:
        return FlowerSearchReport(
            False, None, "no_regular_subspace", None, part_sizes,
            (), (), 0, 0.0, mrep,
        )
    H = mrep.H_final
    reps = H.coset_reps()
    K = len(reps)

    cands = [
        build_petal_candidates(parts[i], H, eps, alpha, m, mrep.classifications[i])
        for i in range(m)
    ]
    bi_sizes = tuple(len(c.reps) for c in cands)
    bi_shortfalls = tuple(c.shortfall for c in cands)
    # member[i, k]: coset id k is a petal candidate of part i
    member = np.zeros((m, K), dtype=bool)
    for i, c in enumerate(cands):
        member[i, np.searchsorted(reps, c.reps)] = True
    in_b = member.sum(axis=0) >= 3
    b_size = int(in_b.sum())
    case1_threshold = alpha / (8 * m) * K

    if not member.any():
        return FlowerSearchReport(
            False, None, "empty_petal_candidates", None, part_sizes,
            bi_sizes, bi_shortfalls, b_size, case1_threshold, mrep,
        )

    discard_bound = None
    if b_size >= case1_threshold:
        case = "triple_overlap"
        eligible = member & in_b
    else:
        case = "disjoint_parts"
        # every id outside B goes to the lowest part holding it
        rest = member & ~in_b
        held = np.flatnonzero(rest.any(axis=0))
        eligible = np.zeros_like(member)
        eligible[np.argmax(rest[:, held], axis=0), held] = True
        discard_bound = 3.0 * sum(int(e.sum()) ** 2 for e in eligible)

    # A coset's id is its rep's position in the ascending reps.  reps[k] has
    # digit k_r at the r-th free coordinate and 0 at every pivot, so the
    # coset of 2c - u has id flat(2 c - u) in the digits of the ids.
    p, nfree = space.p, len(H.free)
    elig_ids = [np.flatnonzero(e) for e in eligible]
    # each part's ids encoded once, as centers (2c) and as petal ends (-u)
    twice = [_pair_codes(p, nfree, ids, 2) for ids in elig_ids]
    negated = [_pair_codes(p, nfree, ids, -1) for ids in elig_ids]

    # Maximize over (i0, j0, k0) and then centers in ascending order; the
    # first maximum wins, as a strict comparison in that loop order would.
    best = None  # (count, i0, j0, k0, center position)
    for i0 in range(m):
        centers = elig_ids[i0]
        for j0 in range(m):
            us = elig_ids[j0]
            if j0 == i0 or len(centers) == 0 or len(us) == 0:
                continue
            k0s = [k0 for k0 in range(m) if k0 not in (i0, j0) and len(elig_ids[k0])]
            counts = np.zeros((m, len(centers)), dtype=np.int64)
            for run in _pair_runs(len(centers), len(us)):
                mids = _pair_sum(p, nfree, twice[i0][:, run], negated[j0])
                distinct = centers[run, None] != us
                for k0 in k0s:
                    counts[k0, run] = np.count_nonzero(eligible[k0][mids] & distinct, axis=1)
            for k0 in k0s:
                at = int(np.argmax(counts[k0]))
                cnt = int(counts[k0, at])
                if cnt and (best is None or cnt > best[0]):
                    best = (cnt, i0, j0, k0, at)

    eligible_sizes = tuple(len(ids) for ids in elig_ids)
    if best is None:
        return FlowerSearchReport(
            False, None, "no_cross_part_3aps", case, part_sizes,
            bi_sizes, bi_shortfalls, b_size, case1_threshold, mrep,
            eligible_sizes, discard_bound,
        )

    cnt, i0, j0, k0, at = best
    c, us = elig_ids[i0][at], elig_ids[j0]
    mids = _pair_sum(p, nfree, twice[i0][:, at : at + 1], negated[j0])[0]
    ok = eligible[k0][mids] & (us != c)
    center = int(reps[c])
    petals = tuple(zip(reps[us[ok]].tolist(), reps[mids[ok]].tolist()))
    flower = Flower(
        H=H,
        parts=tuple(parts),
        i0=i0,
        j0=j0,
        k0=k0,
        center=center,
        petals=petals,
        eps=eps,
        alpha=alpha,
        m=m,
        case=case,
    )
    return FlowerSearchReport(
        True, flower, None, case, part_sizes,
        bi_sizes, bi_shortfalls, b_size, case1_threshold, mrep,
        eligible_sizes, discard_bound,
    )


# ---------------------------------------------------------------------------
# Structured-text form (full provenance for out-of-process validation)
# ---------------------------------------------------------------------------


def flower_to_dict(f: Flower) -> dict:
    return {
        "p": f.H.space.p,
        "n": f.H.space.n,
        "H_rows": [[int(x) for x in row] for row in f.H.rows],
        "parts": [[int(x) for x in part.members()] for part in f.parts],
        "i0": f.i0,
        "j0": f.j0,
        "k0": f.k0,
        "center": f.center,
        "petals": [[int(u), int(w)] for u, w in f.petals],
        "eps": f.eps,
        "alpha": f.alpha,
        "m": f.m,
        "case": f.case,
    }


def flower_from_dict(d: dict) -> Flower:
    H = basis_from_dict(d, "H_rows")
    parts = tuple(DenseSubset.from_members(H.space, mem) for mem in d["parts"])
    return Flower(
        H=H,
        parts=parts,
        i0=int(d["i0"]),
        j0=int(d["j0"]),
        k0=int(d["k0"]),
        center=int(d["center"]),
        petals=tuple((int(u), int(w)) for u, w in d["petals"]),
        eps=float(d["eps"]),
        alpha=float(d["alpha"]),
        m=int(d["m"]),
        case=str(d["case"]),
    )
