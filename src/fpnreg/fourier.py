"""Discrete Fourier analysis on V = F_p^n and on arbitrary subspaces H <= V.

The transform of f over H is fhat(xi) = (1/|H|) sum_{x in H} f(x) e(-<x,xi>/p)
with e(z) = exp(2 pi i z).  Characters of H are the quotient V/H^perp, so a
spectrum carries one entry per canonical coset representative of V/H^perp
(|H| entries); the entry value depends on xi only through its coset.

Every transform runs through one pass loop, _pass_loop, over the C-order
(p,)*dim + (B,) tensor: dim coefficient axes, leading digit first, then a
trailing batch axis of B independent inputs.  A pass is one 2-D GEMM,
src.reshape(p, M).T @ W written into a (M, p) buffer: it transforms the
leading axis and rotates it to the end.  After dim passes the frequency
axes are back in order behind the batch axis, so the result is (B, p**dim)
with no transpose copy, O(|H| dim p) per input.  The passes alternate
between two buffers the call allocates.

The loop has two entries.  The complex entry (dft, idft, Spectrum) keeps
full spectra.  The real entry serves indicator functions, whose spectra
satisfy fhat(-xi) = conj(fhat(xi)): its first pass is a real GEMM that keeps
only the (p+1)/2 leading-axis frequencies 0..(p-1)/2, so it stores the first
(p+1)/2 * p**(dim-1) flat entries, and every other frequency has its
negation stored.  full_spectrum, the per-coset scan in regularity and the
counts built on them read sums and sups from that half.

Every real input's first pass is _real_head: one real GEMM per chunk of
_HEAD_ROWS input rows against the wanted columns of W, so a 0/1 mask is
never copied to float64 whole.  The full-group counts and sups
(count_3aps_fourier, edge_count_fourier, sigma_certificate,
fourier_sup_report) do not hold the stored half: _spectrum_plane builds it
one leading-frequency plane at a time, bit for bit the matching slice of
full_spectrum, as column t of that first pass followed by the n-1 trailing
passes of the complex entry, in at most two N/p-entry complex buffers
(32 N/p bytes).

No GEMM of a real input has one row, because numpy rounds a one-row GEMM
(its vector-matrix path) unlike a matrix GEMM.  The rule lives in
_real_head alone: a last chunk of one row joins the chunk before it, and a
lone row is padded with a zero column.  So the real entry is
batch-invariant: an input's stored half has the same bits alone, as one
column of any batch and in chunks of any size.  At n <= 2 (N <= 169) a
plane is its slice of full_spectrum, so no plane runs a one-row trailing
pass.  dft and idft transform one input through the complex entry,
unpadded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractError, InputError
from .vectorspace import (
    DenseSubset,
    SpaceDescriptor,
    SubspaceBasis,
    _check_index,
    _digit_reversal,
    _digit_table,
    _null_rows,
    _weights,
    basis_from_dict,
    same_space,
)

# Largest distance from the nearest integer a rounded spectral count may have.
ROUNDING_MARGIN = 0.25


@lru_cache(maxsize=None)
def _root_matrix(p: int) -> np.ndarray:
    """W[a, b] = exp(-2 pi i a b / p), from one high-accuracy primitive root.
    W is symmetric, so it is its own transpose in the passes."""
    k = np.arange(p)
    w = np.exp(-2j * np.pi * (np.outer(k, k) % p) / p)
    w.flags.writeable = False
    return w


# Input rows converted to float64 per GEMM of a real first pass: at most
# 4096 * 13 floats (426 kB) at a time, never an N-sized float copy.
_HEAD_ROWS = 1 << 12


def _real_head(x: np.ndarray, w: np.ndarray, cols: slice) -> np.ndarray:
    """First pass of a real input over the (p, rows) view x of its leading
    axis: the (rows, k) complex transform at W's k columns cols.

    One real GEMM per chunk of _HEAD_ROWS rows against cols, each complex
    column split into a real and an imaginary one, written straight into
    the float view of the output.  No GEMM has one row: a last chunk of one
    row joins the chunk before it, and a lone row is padded with a zero
    column.
    """
    p, rows = x.shape
    wcols = np.ascontiguousarray(w[:, cols]).view(np.float64)
    out = np.empty((rows, wcols.shape[1] // 2), dtype=complex)
    dst = out.view(np.float64)
    if rows == 1:
        dst[:] = (np.stack([x[:, 0], np.zeros(p)], axis=1).T @ wcols)[:1]
        return out
    # no chunk starts at the last row: a chunk that would leave it alone takes it
    for lo in range(0, rows - 1, _HEAD_ROWS):
        hi = lo + _HEAD_ROWS if lo + _HEAD_ROWS < rows - 1 else rows
        np.matmul(np.asarray(x[:, lo:hi], dtype=np.float64).T, wcols, out=dst[lo:hi])
    return out


def _pass_loop(x: np.ndarray, p: int, dim: int, real: bool, inverse: bool = False) -> np.ndarray:
    """Length-p DFT along the dim leading axes of the (p,)*dim + (B,) tensor x.

    Returns (B, p**dim) complex, or with real=True (real x) the
    (B, (p+1)/2 * p**(dim-1)) stored half.  inverse conjugates W.  With
    real=True row b depends on column b of x alone, bit for bit, whatever B.
    """
    x = np.asarray(x)
    batch = x.size // p**dim
    if dim == 0:
        return x.astype(complex).reshape(batch, 1)
    w = _root_matrix(p).conj() if inverse else _root_matrix(p)
    rows = x.size // p
    if real:
        out = _real_head(x.reshape(p, rows), w, slice(0, (p + 1) // 2)).reshape(-1)
    else:
        out = np.empty(rows * p, dtype=complex)
        np.matmul(np.asarray(x, dtype=complex).reshape(p, rows).T, w, out=out.reshape(rows, p))
    # x is not needed past the first pass; an input no caller holds is freed here
    del x
    spare = np.empty_like(out) if dim > 1 else None
    rows = out.size // p
    for _ in range(1, dim):
        np.matmul(out.reshape(p, rows).T, w, out=spare.reshape(rows, p))
        out, spare = spare, out
    return out.reshape(batch, -1)


def _dual_data(H: SubspaceBasis):
    """(freqs, eta): canonical dual reps of V/H^perp, ascending, and their
    coefficient-space frequency for the transforms of dft and _idft_complex.

    freqs[k] has digit k_r at the r-th free coordinate F_r of H^perp, so
    eta_j = <rows[j], freqs[k]> = sum_r k_r rows[j, F_r] mod p is a linear
    form in the digits of k and eta = sum_j eta_j p^j: one _digit_table of
    the matrix rows[:, F].T, with no point decoded.
    """
    def build():
        p, perp = H.space.p, H.annihilator()
        freqs = perp.coset_reps()
        if len(freqs) != H.size:
            raise AssertionError("dual representative count must equal |H|")
        return freqs, _digit_table(p, H.rows[:, list(perp.free)].T, _weights(p, H.dim))

    return H._cached("dual", build)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class DenseFunction:
    """A real-valued function on V or on a subspace of V.

    Values align with the support's elements in ascending index order;
    support None means all of V.
    """

    __slots__ = ("space", "support", "values")

    def __init__(self, space: SpaceDescriptor, values, support: SubspaceBasis | None = None):
        values = np.asarray(values, dtype=np.float64)
        expected = space.N if support is None else support.size
        if values.shape != (expected,):
            raise InputError(f"expected {expected} values, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise InputError("function values must be finite")
        if support is not None and support.space != space:
            raise InputError("support subspace lives in a different space")
        values = values.copy()
        values.flags.writeable = False
        self.space = space
        self.support = support
        self.values = values

    @classmethod
    def from_subset(cls, A: DenseSubset, support: SubspaceBasis | None = None) -> "DenseFunction":
        if support is None:
            return cls(A.space, A.mask.astype(np.float64))
        same_space(A, support)
        return cls(A.space, A.mask[support.elements()].astype(np.float64), support)

    @classmethod
    def constant(cls, space: SpaceDescriptor, c: float, support: SubspaceBasis | None = None) -> "DenseFunction":
        size = space.N if support is None else support.size
        return cls(space, np.full(size, float(c)), support)

    def __repr__(self):
        dom = "V" if self.support is None else f"H(dim={self.support.dim})"
        return f"DenseFunction(p={self.space.p}, n={self.space.n}, on {dom})"


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients of a function over the subspace `base`.

    freqs are the canonical dual representatives (minimal index per coset of
    V/base^perp), ascending; freqs[0] == 0 is the trivial character.
    """

    base: SubspaceBasis
    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.freqs) != len(self.values):
            raise InputError("frequency/value length mismatch")
        self.freqs.flags.writeable = False
        self.values.flags.writeable = False

    @property
    def space(self) -> SpaceDescriptor:
        return self.base.space

    def value_at(self, xi: int) -> complex:
        """Entry for any xi in V, at xi's coset id mod base^perp: freqs are
        base^perp.coset_reps(), and an entry's position is its coset id."""
        space, perp = self.space, self.base.annihilator()
        xi = int(_check_index(space, xi))
        pos = (_null_rows(perp) @ space.digits(xi)) % space.p @ _weights(space.p, self.base.dim)
        return complex(self.values[pos])

    def sup_nontrivial(self) -> float:
        """sup over xi outside base^perp of |fhat(xi)|."""
        if len(self.values) <= 1:
            return 0.0
        return float(np.abs(self.values[1:]).max())


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def _coeff_values(f: DenseFunction, H: SubspaceBasis) -> np.ndarray:
    """f's values over H in coefficient order; restricts full-space functions."""
    if f.space != H.space:
        raise InputError("function and subspace live in different spaces")
    if f.support is None or f.support.is_full():
        # full-space values align with flat indices, so restriction is a gather
        return f.values[H._coeff_elements()]
    if f.support == H:
        return f.values[_digit_reversal(H.space.p, H.dim)]
    raise InputError("function support does not match the transform subspace")


def dft(f: DenseFunction, H: SubspaceBasis) -> Spectrum:
    """Transform of f with respect to H."""
    g = _coeff_values(f, H)
    ghat = _pass_loop(g, H.space.p, H.dim, real=False)[0] / H.size
    freqs, eta = _dual_data(H)
    return Spectrum(H, freqs, ghat[eta])


def _idft_complex(s: Spectrum) -> np.ndarray:
    """Inverse transform, complex, aligned with base.elements()."""
    H = s.base
    _, eta = _dual_data(H)
    ghat = np.zeros(H.size, dtype=complex)
    ghat[eta] = s.values
    g = _pass_loop(ghat, H.space.p, H.dim, real=False, inverse=True)[0]
    return g[_digit_reversal(H.space.p, H.dim)]


def idft(s: Spectrum) -> DenseFunction:
    """Inverse transform; intended for spectra of real functions, keeps the
    real part (the imaginary residue is round-off for such spectra)."""
    vals = _idft_complex(s).real
    H = s.base
    if H.is_full():
        # elements() of the full basis is arange(N), so vals align flat
        return DenseFunction(H.space, vals)
    return DenseFunction(H.space, vals, H)


def convolve(f: DenseFunction, g: DenseFunction, H: SubspaceBasis) -> DenseFunction:
    """Normalized convolution f*g(h) = E_{x in H} f(x) g(h-x), computed
    spectrally; satisfies dft(f*g) = dft(f) dft(g) entrywise."""
    sf = dft(f, H)
    sg = dft(g, H)
    return idft(Spectrum(H, sf.freqs, sf.values * sg.values))


@dataclass(frozen=True)
class IdentitySuiteReport:
    """Max deviations of the four basic transform identities."""

    parseval: float
    plancherel: float
    inversion: float
    convolution: float

    def max_deviation(self) -> float:
        return max(self.parseval, self.plancherel, self.inversion, self.convolution)


def identity_suite(f: DenseFunction, g: DenseFunction, H: SubspaceBasis) -> IdentitySuiteReport:
    """Residuals of Parseval, Plancherel, inversion, and the convolution theorem."""
    fv = _coeff_values(f, H)
    gv = _coeff_values(g, H)
    sf = dft(f, H)
    sg = dft(g, H)

    parseval = abs(float(np.mean(fv * fv)) - float((np.abs(sf.values) ** 2).sum()))
    plancherel = abs(complex(np.mean(fv * gv)) - complex((sf.values * sg.values.conj()).sum()))

    recon = _idft_complex(sf)
    inversion = float(np.abs(recon - fv[_digit_reversal(H.space.p, H.dim)]).max())

    conv = convolve(f, g, H)
    sconv = dft(conv, H)
    convolution = float(np.abs(sconv.values - sf.values * sg.values).max())

    return IdentitySuiteReport(parseval, float(plancherel), inversion, convolution)


# ---------------------------------------------------------------------------
# Helpers for the regularity scan and the full-group counts
# ---------------------------------------------------------------------------


def full_spectrum(space: SpaceDescriptor, values) -> np.ndarray:
    """Half of the full-group transform of real values, flat-aligned:
    out[xi] = (1/N) sum_x values[x] e(-<x,xi>/p) for the (p+1)/2 * p**(n-1)
    frequencies xi < len(out), those whose top digit is at most (p-1)/2;
    every other xi has Ahat(xi) = conj(out[-xi]), and the plane out[:N/p]
    is closed under negation.  Holds the whole half and the pass loop's
    second buffer, 16 (p+1) N/p bytes (19.2 N at p = 5); _spectrum_plane
    returns one plane of it in 32 N/p bytes."""
    out = _pass_loop(values, space.p, space.n, real=True).reshape(-1)
    out /= space.N
    return out


def _spectrum_plane(space: SpaceDescriptor, values, t: int) -> np.ndarray:
    """Plane t of full_spectrum(space, values), bit for bit: its N/p entries
    t*N/p .. (t+1)*N/p - 1, the frequencies with top digit t, for
    0 <= t <= (p-1)/2.

    Column t of the real first pass, then the n-1 trailing passes through
    _pass_loop's complex entry, which frees the head after its first pass:
    at most two N/p-entry complex buffers (32 N/p bytes).  At n <= 2 the
    plane is its slice of full_spectrum, so no one-row trailing pass runs.
    """
    p, n = space.p, space.n
    if n <= 2:
        size = space.N // p
        return full_spectrum(space, values)[t * size : (t + 1) * size]
    x = np.asarray(values).reshape(p, -1)
    # no name holds the head, so _pass_loop frees it after its first pass
    plane = _pass_loop(_real_head(x, _root_matrix(p), slice(t, t + 1)), p, n - 1, real=False)[0]
    plane /= space.N
    return plane


def _nontrivial_sup(space: SpaceDescriptor, values) -> float:
    """max over xi != 0 of |fhat(xi)| for real values, one stored plane at a
    time: |fhat(-xi)| = |fhat(xi)|, so the stored half holds the sup.  Equals
    np.abs(full_spectrum(space, values)[1:]).max() bit for bit."""
    sups = (
        np.abs(_spectrum_plane(space, values, t)[1 if t == 0 else 0 :]).max(initial=0.0)
        for t in range((space.p + 1) // 2)
    )
    return float(max(sups))


def rounded_count(total: float, what: str) -> int:
    """Nearest integer to a spectrally evaluated count.

    The exact count is an integer, so a total further than ROUNDING_MARGIN
    from every integer means the float evaluation cannot be trusted.
    """
    count = round(total)
    if abs(total - count) > ROUNDING_MARGIN:
        raise ContractError(f"{what}: spectral total {total!r} is not within {ROUNDING_MARGIN} of an integer")
    return int(count)


# ---------------------------------------------------------------------------
# Structured-text form
# ---------------------------------------------------------------------------


def spectrum_to_dict(s: Spectrum) -> dict:
    return {
        "p": s.space.p,
        "n": s.space.n,
        "H_rows": [[int(x) for x in row] for row in s.base.rows],
        "entries": [
            [int(xi), float(val.real), float(val.imag)]
            for xi, val in zip(s.freqs, s.values)
        ],
    }


def spectrum_from_dict(d: dict) -> Spectrum:
    base = basis_from_dict(d, "H_rows")
    entries = d["entries"]
    freqs = np.asarray([e[0] for e in entries], dtype=np.int64)
    if not np.array_equal(freqs, base.annihilator().coset_reps()):
        # value_at reads an entry by its position, the coset id of xi mod H^perp
        raise InputError("spectrum entries must list the canonical reps of V/H^perp in ascending order")
    values = np.asarray([complex(e[1], e[2]) for e in entries])
    return Spectrum(base, freqs, values)
