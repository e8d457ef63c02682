"""Regularity decomposition for sparse subsets of F_p^n.

A translate v is regular for A with respect to H when every nontrivial
Fourier coefficient of the localization A_H^v (transform over H) is at most
eps |A| / N.  A subspace is regular when the irregular translates carry mass
at most eps N.  Refinement annihilates one witnessing frequency per irregular
coset, which provably raises the energy d(A, H) by at least eps^3 while
growing the index by at most a factor p^{|V/H|}; iterating from H = V yields
the decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InputError
from .fourier import _pass_loop
from .vectorspace import (
    DenseSubset,
    SpaceDescriptor,
    SubspaceBasis,
    _check_index,
    _null_rows,
    _weights,
    annihilator_within,
    same_space,
)

# Energy increments are ratios of exact integer counts; this slack only
# absorbs double-precision rounding.
ENERGY_TOL = 1e-9

_SCAN_BLOCK = 1 << 20
# Tied entries decoded into witnesses at once; bounds the digit arrays.
_WITNESS_CHUNK = 1 << 15

# Spectrum magnitudes (normalized by |H|) this close to the per-coset sup
# count as tied maximizers; round-off is about 1e-16 of them.
_TIE_MARGIN = 1e-12


# ---------------------------------------------------------------------------
# Per-coset scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorClassification:
    """Per-coset regularity records for A with respect to H."""

    H: SubspaceBasis
    eps: float
    threshold: float
    reps: np.ndarray
    sup_values: np.ndarray
    counts: np.ndarray
    regular: np.ndarray
    witness_freqs: np.ndarray  # maximizing dual rep per irregular coset, -1 otherwise
    irregular_mass: int

    @property
    def is_regular(self) -> bool:
        return self.irregular_mass <= self.eps * self.H.space.N


def restricted_sup(A: DenseSubset, H: SubspaceBasis, v: int) -> float:
    """sup over xi outside H^perp of |fhat(xi)| for the localization A_H^v."""
    space = same_space(A, H)
    vec = A.mask[H._localization(_check_index(space, v))]
    if H.size == 1:
        return 0.0
    spec = _pass_loop(vec, H.space.p, H.dim, real=True)[0]
    return float(np.abs(spec[1:]).max()) / H.size


def _witnesses(H: SubspaceBasis, eta: np.ndarray) -> np.ndarray:
    """min(rep(eta), rep(-eta)), the canonical dual reps of two tied entries.
    Row j of H is 1 at pivot P_j and 0 at the other pivots, so xi = sum_j
    eta_j e_(P_j) has <rows[j], xi> = eta_j; rep(eta) has digit (N xi)_r mod p
    at F_r, for N = _null_rows(H^perp) and F the free coordinates of H^perp.
    N's pivot columns and the place values p^F are cached on H."""
    p, perp = H.space.p, H.annihilator()
    if "witness_map" not in H._cache:
        H._cache["witness_map"] = _null_rows(perp)[:, list(H.pivots)], H.space.weights[list(perp.free)]
    null, place = H._cache["witness_map"]
    ids = null @ (eta // _weights(p, H.dim)[:, None] % p) % p
    return np.minimum(place @ ids, place @ (-ids % p))


def _scan_blocks(H: SubspaceBasis):
    """(lo, G) per aligned run of p**s coset ids, G = H._localization(reps[lo], s),
    so A.mask[G][c, t] = 1_A(h_c - reps[lo + t]).  s <= n - dim H is the largest
    with p**s |H| <= _SCAN_BLOCK, or 0: any scan of N <= _SCAN_BLOCK points is one block."""
    p, q = H.space.p, len(H.free)
    s = 0
    while s < q and p ** (s + 1) * H.size <= _SCAN_BLOCK:
        s += 1
    reps = H.coset_reps()
    for lo in range(0, len(reps), p**s):
        yield lo, H._localization(reps[lo], s)


def _sups_and_witnesses(H: SubspaceBasis, vecs: np.ndarray, thresholds: np.ndarray):
    """(sups, witnesses) of the columns of the (|H|, B) localization batch vecs
    against thresholds[b] per column b; its spectra die with the call."""
    spec = np.abs(_pass_loop(vecs, H.space.p, H.dim, real=True)[:, 1:])
    sups = spec.max(axis=1) / H.size  # division is monotone: the max of the quotients
    witnesses = np.full(sups.size, -1, dtype=np.int64)
    irr = np.flatnonzero(sups > thresholds)
    if irr.size:
        top = spec[irr] / H.size
        ties = (top >= sups[irr, None] - _TIE_MARGIN) & (top > thresholds[irr, None])
        hits, best = np.flatnonzero(ties), np.full(irr.size, np.iinfo(np.int64).max)
        for a in range(0, hits.size, _WITNESS_CHUNK):
            row, col = np.divmod(hits[a : a + _WITNESS_CHUNK], ties.shape[1])
            np.minimum.at(best, row, _witnesses(H, col + 1))
        witnesses[irr] = best
    return sups, witnesses


def _scan(parts, H: SubspaceBasis, eps: float) -> list:
    """classify_vectors of every part over H in one pass: each block's index is
    built once, gathered through for every part and dropped, then the parts'
    nonempty columns are transformed together, _SCAN_BLOCK entries at most."""
    space = same_space(*parts, H)
    reps, m = H.coset_reps(), len(parts)
    thr = np.array([eps * A.card / space.N for A in parts])
    sups, counts = np.zeros((m, len(reps))), np.zeros((m, len(reps)), dtype=np.int64)
    witnesses = np.full((m, len(reps)), -1, dtype=np.int64)
    for lo, G in _scan_blocks(H):
        w = G.shape[1]
        rows = np.empty((m * w, H.size), dtype=bool)  # row i w + t: part i, coset lo + t
        for i, A in enumerate(parts):
            rows[i * w : i * w + w] = A.mask[G.T]
        del G
        size = rows.sum(axis=1)
        counts[:, lo : lo + w] = size.reshape(m, w)
        live = np.flatnonzero(size) if H.size > 1 else []
        # At dim 1, B columns make a B-row product that matmul rounds one way at
        # B = 1 and another at B > 1, so a transform holds one column exactly
        # when the block is one coset wide: a lone column of a wider one goes twice.
        per = 1 if H.dim == 1 == w else max(1, _SCAN_BLOCK // H.size)
        for a in range(0, len(live), per):
            sel = live[a : a + per]
            sel = np.repeat(sel, 2) if H.dim == 1 and sel.size == 1 < w else sel
            part, t = np.divmod(sel, w)
            sups[part, lo + t], witnesses[part, lo + t] = _sups_and_witnesses(H, rows[sel].T, thr[part])
    regular = sups <= thr[:, None]
    fields = zip(thr.tolist(), sups, counts, regular, witnesses, ((~regular).sum(axis=1) * H.size).tolist())
    return [VectorClassification(H, eps, t, reps, *rest) for t, *rest in fields]


def classify_vectors(A: DenseSubset, H: SubspaceBasis, eps: float) -> VectorClassification:
    """Classify every coset representative of V/H as regular or irregular.

    Regularity is coset-invariant, so scanning representatives covers V.
    This is the one-part call of the joint scan (_scan) that _iterate runs
    for all parts.  A coset with no point of A has sup 0 and no witness and
    is never transformed; the others go through real-entry transforms, and
    sups and witnesses are read from the stored half spectrum.  An irregular
    coset's witness is the least flat index among its entries above the
    threshold and within _TIE_MARGIN of the sup (|H|-normalized), so exact
    ties, such as a one-point localization's, do not depend on round-off;
    only those entries are mapped to dual reps, _WITNESS_CHUNK at a time.
    """
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    return _scan([A], H, eps)[0]


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------


def localized_counts(A: DenseSubset, H: SubspaceBasis) -> np.ndarray:
    """|A_H^v| for every coset representative v: the column sums of the
    blocks that classify_vectors scans."""
    same_space(A, H)
    return np.concatenate([A.mask[G].sum(axis=0) for _, G in _scan_blocks(H)])


def _energy(counts: np.ndarray, H: SubspaceBasis, card: int) -> float:
    return float((counts.astype(np.float64) ** 2).sum()) * H.space.N / (H.size * card**2)


def energy(A: DenseSubset, H: SubspaceBasis) -> float:
    """d(A, H): mean squared coset density of A over H, normalized by the
    squared global density.  Equals 1 at H = V and N/|A| at H = {0}."""
    same_space(A, H)
    if A.card == 0:
        raise InputError("energy is undefined for an empty set")
    return _energy(localized_counts(A, H), H, A.card)


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefineDiagnostics:
    witnesses: tuple
    energy_before: float
    energy_after: float
    index_before: int
    index_after: int

    @property
    def increment(self) -> float:
        return self.energy_after - self.energy_before


def _refine(H: SubspaceBasis, cls: VectorClassification):
    """(unique witnesses of the irregular cosets, the subspace of H they
    annihilate)."""
    witnesses = np.unique(cls.witness_freqs[~cls.regular])
    return witnesses, annihilator_within(H, witnesses)


def refine_step(
    A: DenseSubset,
    H: SubspaceBasis,
    eps: float,
    classification: VectorClassification | None = None,
) -> tuple[SubspaceBasis, RefineDiagnostics]:
    """One energy-increment step: annihilate one witnessing frequency per
    irregular coset.  Requires H not to be eps-regular for A."""
    space = same_space(A, H)
    cls = classification if classification is not None else classify_vectors(A, H, eps)
    if cls.H != H or cls.eps != eps:
        raise InputError("classification was computed for different inputs")
    if cls.is_regular:
        raise ContractError("refine_step called on an eps-regular subspace")
    witnesses, new_h = _refine(H, cls)
    diag = RefineDiagnostics(
        witnesses=tuple(int(x) for x in witnesses),
        energy_before=_energy(cls.counts, H, A.card),
        energy_after=energy(A, new_h),
        index_before=space.N // H.size,
        index_after=space.N // new_h.size,
    )
    return new_h, diag


# ---------------------------------------------------------------------------
# Iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the refinement iteration (single- or multi-set)."""

    H_final: SubspaceBasis
    iterations: int
    energy_trace: tuple
    index_trace: tuple
    mass_trace: tuple  # summed irregular mass at each visited subspace
    classifications: tuple
    succeeded: bool
    stop_reason: str  # regular | step_cap | floor_hit
    step_cap: int
    statement_step_cap: int
    claim_bound: float | None = None
    claim_ok: bool | None = None

    @property
    def classification(self) -> VectorClassification:
        return self.classifications[0]


def _step_caps(eps: float, alpha: float, m: int) -> tuple[int, int]:
    proof = math.ceil(4 * m * m * eps**-3 * alpha**-2)
    statement = math.ceil(4 * m * m * (eps * alpha) ** -2)
    return proof, statement


def _validate_params(eps, alpha, floor, m):
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    if not 0 < alpha <= 1:
        raise InputError(f"alpha must lie in (0, 1], got {alpha}")
    if floor < 1:
        raise InputError(f"floor must be >= 1, got {floor}")
    try:  # a power past the float range, or math.ceil of an inf product
        _step_caps(eps, alpha, m)
    except OverflowError:
        raise InputError(
            f"eps = {eps} and alpha = {alpha} overflow the step cap 4 m^2 eps^-3 alpha^-2"
        ) from None


def _iterate(parts, eps, alpha, floor, m, sigma=None, delta=None):
    """Refine from H = V on the lowest-index failing part.  Each visited H
    costs one joint scan of all parts (_scan), whose counts give the energy."""
    space = same_space(*parts)
    step_cap, statement_cap = _step_caps(eps, alpha, m)
    H = SubspaceBasis.full(space)
    nonempty = any(A.card for A in parts)
    trace, index_trace, mass_trace = [], [], []
    iterations = 0
    while True:
        classes = _scan(parts, H, eps)
        if nonempty:
            energies = (_energy(c.counts, H, A.card) for A, c in zip(parts, classes) if A.card)
            trace.append(float(sum(energies)))
            index_trace.append(space.N // H.size)
            mass_trace.append(sum(c.irregular_mass for c in classes))
        failing = next((i for i, c in enumerate(classes) if not c.is_regular), None)
        if failing is None:
            stop, ok = "regular", True
            break
        if iterations >= step_cap:
            stop, ok = "step_cap", False
            break
        _, new_h = _refine(H, classes[failing])
        if new_h.size < floor:
            stop, ok = "floor_hit", False
            break
        H = new_h
        iterations += 1

    claim_bound = claim_ok = None
    if sigma is not None and delta is not None and m == 1:
        claim_bound = (1 + delta) ** 2 * 4 / alpha**2
        checked = [e for e, k in zip(trace, index_trace) if space.N // k >= sigma * space.N]
        claim_ok = all(e <= claim_bound + ENERGY_TOL for e in checked)

    return RegularityReport(
        H_final=H,
        iterations=iterations,
        energy_trace=tuple(trace),
        index_trace=tuple(index_trace),
        mass_trace=tuple(mass_trace),
        classifications=tuple(classes),
        succeeded=ok,
        stop_reason=stop,
        step_cap=step_cap,
        statement_step_cap=statement_cap,
        claim_bound=claim_bound,
        claim_ok=claim_ok,
    )


def regularize(
    A: DenseSubset,
    eps: float,
    alpha: float,
    floor: int = 1,
    sigma: float | None = None,
    delta: float | None = None,
) -> RegularityReport:
    """Refine from H = V until H is eps-regular for A.

    alpha enters only through the step cap ceil(4 eps^-3 alpha^-2) (and the
    energy-bound check when A sits inside a (sigma, delta)-certified set, in
    which case d(A, H) <= (1+delta)^2 4/alpha^2 is asserted along the trace
    for every H of size >= sigma N).  An empty A is vacuously regular at V.
    The energy trace costs no pass beyond the per-coset scan.  sigma and
    delta, when given, must lie in (0, 1), as for sigma_certificate.
    """
    _validate_params(eps, alpha, floor, 1)
    for name, value in (("sigma", sigma), ("delta", delta)):
        if value is not None and not 0 < value < 1:
            raise InputError(f"{name} must lie in (0, 1), got {value}")
    return _iterate([A], eps, alpha, floor, 1, sigma=sigma, delta=delta)


def regularize_multi(parts, eps: float, alpha: float, floor: int = 1) -> RegularityReport:
    """Find one H that is eps-regular for every part simultaneously.

    Refines on the lowest-index failing part using the summed energy; the
    step cap is ceil(4 m^2 eps^-3 alpha^-2).  Parts must be disjoint.  One
    scan classifies every part per visited H; it peaks at about the 32 N
    bytes of one part's scan plus (m - 1) N for the other parts' gathered
    blocks, budgeted at 34 N for three sparse parts at 5^10 and 13^6.
    """
    parts = list(parts)
    if not parts:
        raise InputError("need at least one part")
    _validate_params(eps, alpha, floor, len(parts))
    same_space(*parts)
    union = np.zeros(parts[0].space.N, dtype=bool)
    for A in parts:
        if (union & A.mask).any():
            raise InputError("parts must be pairwise disjoint")
        union |= A.mask
    return _iterate(parts, eps, alpha, floor, len(parts))


# ---------------------------------------------------------------------------
# Tower function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TowerValue:
    """W(t) with W(1) = 2p, W(t) = (2p)^W(t-1); exact while <= 2^63."""

    t: int
    value: int | None
    overflow: bool


def tower(t: int, p: int) -> TowerValue:
    if not isinstance(t, int) or t < 1:
        raise InputError(f"tower level must be a positive integer, got {t}")
    if p < 2:
        raise InputError(f"p must be at least 2, got {p}")
    base = 2 * p
    value = base
    for _ in range(t - 1):
        if value > 63:  # base >= 6, so base^value certainly exceeds 2^63
            return TowerValue(t, None, True)
        value = base**value
        if value > 2**63:
            return TowerValue(t, None, True)
    return TowerValue(t, int(value), False)
