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
from .fourier import _dual_data, _pass_loop
from .vectorspace import (
    DenseSubset,
    SpaceDescriptor,
    SubspaceBasis,
    _check_index,
    _dilate,
    annihilator_within,
    same_space,
)

# Energy increments are ratios of exact integer counts; this slack only
# absorbs double-precision rounding.
ENERGY_TOL = 1e-9

_SCAN_BLOCK = 1 << 20

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

    def irregular_reps(self) -> np.ndarray:
        return self.reps[~self.regular]


def restricted_sup(A: DenseSubset, H: SubspaceBasis, v: int) -> float:
    """sup over xi outside H^perp of |fhat(xi)| for the localization A_H^v."""
    space = same_space(A, H)
    vec = A.mask[H._localization(_check_index(space, v))]
    if H.size == 1:
        return 0.0
    spec = _pass_loop(vec, H.space.p, H.dim, real=True)[0]
    return float(np.abs(spec[1:]).max()) / H.size


def _witness_table(H: SubspaceBasis) -> np.ndarray:
    """For each stored eta of the half spectrum (top coefficient digit at most
    (p-1)/2), the smaller canonical dual rep of the cosets of eta and -eta;
    |fhat| is equal on the two, so both are tied maximizers together."""
    if "witness_table" not in H._cache:
        p, d = H.space.p, H.dim
        xi_of_eta = _dual_data(H)[2]
        table = np.minimum(xi_of_eta, xi_of_eta[_dilate(np.arange(H.size), p, d, -1)])
        table = table[: (p + 1) // 2 * p ** (d - 1)]
        table.flags.writeable = False
        H._cache["witness_table"] = table
    return H._cache["witness_table"]


def _scan_blocks(A: DenseSubset, H: SubspaceBasis):
    """(lo, vecs) per aligned run of coset ids: vecs[c, t] = 1_A(h_c - reps[lo + t]).

    A run holds p**s ids for the largest s with p**s |H| <= _SCAN_BLOCK (at
    least one id), so any scan of N <= _SCAN_BLOCK points is one block.
    """
    p, q = H.space.p, len(H.free)
    s = 0
    while s < q and p ** (s + 1) * H.size <= _SCAN_BLOCK:
        s += 1
    reps = H.coset_reps()
    for lo in range(0, len(reps), p**s):
        yield lo, A.mask[H._localization(reps[lo], s)]


def classify_vectors(A: DenseSubset, H: SubspaceBasis, eps: float) -> VectorClassification:
    """Classify every coset representative of V/H as regular or irregular.

    Regularity is coset-invariant, so scanning representatives covers V.
    The localizations come from _scan_blocks, one aligned run of coset ids
    at a time, laid out with the cosets as the trailing batch axis of one
    real-entry transform.  Sups and witnesses are read from the stored half
    spectrum (|fhat(-eta)| = |fhat(eta)|).  The witness per irregular coset
    is the minimal flat index among the maximizers, where an entry ties
    with the sup when its |H|-normalized magnitude is within _TIE_MARGIN of
    it and above the threshold: exactly tied frequencies, such as every
    nontrivial one of a one-point localization, then do not depend on
    round-off.
    """
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    space = same_space(A, H)
    reps = H.coset_reps()
    K = len(reps)
    threshold = eps * A.card / space.N

    sups = np.zeros(K)
    counts = np.zeros(K, dtype=np.int64)
    witnesses = np.full(K, -1, dtype=np.int64)
    no_tie = np.iinfo(np.int64).max

    for lo, vecs in _scan_blocks(A, H):
        hi = lo + vecs.shape[1]
        counts[lo:hi] = vecs.sum(axis=0)
        if H.size > 1:
            spec = np.abs(_pass_loop(vecs, space.p, H.dim, real=True)[:, 1:])
            spec /= H.size
            sups[lo:hi] = spec.max(axis=1)
            irr = np.flatnonzero(sups[lo:hi] > threshold)
            if irr.size:
                top = spec[irr]
                ties = (top >= sups[lo + irr, None] - _TIE_MARGIN) & (top > threshold)
                witnesses[lo + irr] = np.where(ties, _witness_table(H)[1:], no_tie).min(axis=1)

    regular = sups <= threshold
    irregular_mass = int((~regular).sum()) * H.size
    return VectorClassification(
        H=H,
        eps=eps,
        threshold=threshold,
        reps=reps,
        sup_values=sups,
        counts=counts,
        regular=regular,
        witness_freqs=witnesses,
        irregular_mass=irregular_mass,
    )


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------


def localized_counts(A: DenseSubset, H: SubspaceBasis) -> np.ndarray:
    """|A_H^v| for every coset representative v: the column sums of the
    blocks that classify_vectors scans."""
    same_space(A, H)
    return np.concatenate([vecs.sum(axis=0) for _, vecs in _scan_blocks(A, H)])


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
        energy_before=energy(A, H),
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


def _validate_params(eps, alpha, floor):
    if not 0 < eps < 1:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    if not 0 < alpha <= 1:
        raise InputError(f"alpha must lie in (0, 1], got {alpha}")
    if floor < 1:
        raise InputError(f"floor must be >= 1, got {floor}")


def _iterate(parts, eps, alpha, floor, m, sigma=None, delta=None):
    space = same_space(*parts)
    step_cap, statement_cap = _step_caps(eps, alpha, m)
    H = SubspaceBasis.full(space)
    nonempty = any(A.card for A in parts)
    trace, index_trace, mass_trace = [], [], []
    iterations = 0
    while True:
        classes = [classify_vectors(A, H, eps) for A in parts]
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
        checked = [
            e
            for e, k in zip(trace, index_trace)
            if space.N // k >= sigma * space.N
        ]
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
    The energy of each visited H comes from the counts |A_H^v| of its
    classification, so the trace costs no pass beyond the per-coset scan.
    """
    _validate_params(eps, alpha, floor)
    return _iterate([A], eps, alpha, floor, 1, sigma=sigma, delta=delta)


def regularize_multi(parts, eps: float, alpha: float, floor: int = 1) -> RegularityReport:
    """Find one H that is eps-regular for every part simultaneously.

    Refines on the lowest-index failing part using the summed energy; the
    step cap is ceil(4 m^2 eps^-3 alpha^-2).  Parts must be disjoint.
    """
    parts = list(parts)
    if not parts:
        raise InputError("need at least one part")
    _validate_params(eps, alpha, floor)
    same_space(*parts)
    total = np.zeros(parts[0].space.N, dtype=np.int64)
    for A in parts:
        total += A.mask
    if int(total.max(initial=0)) > 1:
        raise InputError("parts must be pairwise disjoint")
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
