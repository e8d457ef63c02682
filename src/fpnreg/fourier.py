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
with no transpose copy, O(|H| dim p) per input.  The GEMMs run in
_trailing_passes, alternating between two buffers the call allocates.
After the first pass they follow a schedule cached per p and pass count
(_pass_schedule): at p = 3 with at least 3 of them, two digits per GEMM
against W (x) W, src.reshape(9, M/3).T @ (W (x) W), and one digit per GEMM
otherwise.  W and W (x) W are cached per p.

The loop has two entries.  The complex entry (dft, idft, Spectrum) keeps
full spectra; its first pass is one more GEMM against W.  The real entry
serves 0/1 masks, the indicator functions that the regularity scan and
the counts transform, whose spectra satisfy fhat(-xi) = conj(fhat(xi)): it
keeps only the (p+1)/2 leading-axis frequencies 0..(p-1)/2, so it stores
the first (p+1)/2 * p**(dim-1) flat entries, and every other frequency has
its negation stored.  full_spectrum, the per-coset scan in regularity and
the counts built on them read sums and sups from that half.

A real first pass is a table lookup, not a GEMM.  Row r of the (p, M) view
of a mask is p bits and its first pass a linear map of them, so
_head_table(p), cached per p, holds that pass for every one of the 2**p bit
patterns (the Method of Four Russians).  _row_codes packs each row into a
uint16 code, 2 M bytes, and _take_rows copies the codes' table rows into
the head.  The full-group counts and sups (count_3aps_fourier,
edge_count_fourier, sigma_certificate, fourier_sup_report) do not hold the
stored half: a plan (_Planes) packs each mask's codes once per call and
builds the half one leading-frequency plane at a time, plane t's head
being column t of the same table read through the same _take_rows.  The
n-1 trailing passes then follow the schedule.  Every plane of a call is
built in one workspace of N/p-entry complex slots that the call allocates
once: two for the sups, three for the edge count, five for the 3AP count.

So the real entry is batch-invariant: an input's stored half has the same
bits alone, as one column of any batch and in take chunks of any size.  A
head entry is a copy of a table entry, and no trailing GEMM of a real input
has one row, the case numpy rounds unlike a matrix GEMM (its vector-matrix
path): a single pass has at least (p+1)/2 rows per input and a paired one
at least 6.  The schedule depends on p and the pass count alone, never on
the buffer size, so a plane is bit for bit the matching slice of
full_spectrum.  At n <= 2 (N <= 169) a plane is copied from that slice, so
no plane runs a one-row trailing pass.
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
def _root_matrix(p: int, inverse: bool = False) -> np.ndarray:
    """W[a, b] = exp(-2 pi i a b / p), from one high-accuracy primitive root,
    or its conjugate when inverse.  W is symmetric, so it is its own
    transpose in the passes."""
    if inverse:
        w = _root_matrix(p).conj()
    else:
        k = np.arange(p)
        w = np.exp(-2j * np.pi * (np.outer(k, k) % p) / p)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def _pass_schedule(p: int, passes: int, inverse: bool) -> tuple:
    """The W block of each GEMM of `passes` trailing passes.  At p = 3 with
    at least 3 passes, two digits per GEMM against W (x) W, then one single
    pass when passes is odd, so no paired GEMM has fewer than 3 rows; else
    one digit per GEMM against W.  The schedule depends on p and passes
    alone, never on the buffer size, so a plane and full_spectrum run the
    same GEMMs."""
    w = _root_matrix(p, inverse)
    if p != 3 or passes < 3:
        return (w,) * passes
    ww = np.kron(w, w)
    ww.flags.writeable = False
    return (ww,) * (passes // 2) + (w,) * (passes % 2)


@lru_cache(maxsize=None)
def _head_table(p: int) -> np.ndarray:
    """T[c]: the real first pass of a row whose p bits spell c (bit i from
    the row's entry i), for every c < 2**p, (2**p, (p+1)/2) complex: 917 kB
    at p = 13.  One real GEMM of the 2**p bit patterns against the (p+1)/2
    leading columns of W, each split into a real and an imaginary column."""
    k = (p + 1) // 2
    bits = (np.arange(2**p)[:, None] >> np.arange(p) & 1).astype(np.float64)
    table = np.empty((2**p, k), dtype=complex)
    np.matmul(bits, np.ascontiguousarray(_root_matrix(p)[:, :k]).view(np.float64), out=table.view(np.float64))
    table.flags.writeable = False
    return table


def _row_codes(p: int, mask: np.ndarray) -> np.ndarray:
    """The head table's row of every row of the (p, M) view of a bool mask:
    2 M bytes of uint16 codes, packed in place."""
    x = mask.reshape(p, -1)
    codes = np.zeros(x.shape[1], dtype=np.uint16)
    for row in x[::-1]:
        codes <<= 1
        codes |= row
    return codes


# Row codes per np.take: a 512 kB intp copy at a time.
_TAKE_ROWS = 1 << 16


def _take_rows(table: np.ndarray, codes: np.ndarray, out: np.ndarray) -> None:
    """out[r] = table[codes[r]]: a real first pass read from the head table,
    or from one of its columns.  np.take copies its indices to intp, so it
    reads _TAKE_ROWS codes at a time; they are in range by construction, and
    mode="raise" would buffer the whole output."""
    for lo in range(0, len(codes), _TAKE_ROWS):
        np.take(table, codes[lo : lo + _TAKE_ROWS], axis=0, out=out[lo : lo + _TAKE_ROWS], mode="clip")


def _trailing_passes(buf: np.ndarray, spare: np.ndarray, blocks: tuple) -> np.ndarray:
    """One GEMM per W block of blocks over the C-order tensor in buf, each
    transforming its leading one or two digits and rotating them to the end,
    alternating between buf and the same-sized spare.  Returns the buffer
    holding the result: buf after an even number of blocks, else spare."""
    for w in blocks:
        k = len(w)
        rows = buf.size // k
        np.matmul(buf.reshape(k, rows).T, w, out=spare.reshape(rows, k))
        buf, spare = spare, buf
    return buf


def _pass_loop(x: np.ndarray, p: int, dim: int, real: bool, inverse: bool = False) -> np.ndarray:
    """Length-p DFT along the dim leading axes of the (p,)*dim + (B,) tensor x.

    Returns (B, p**dim) complex, or with real=True, for a bool x only, the
    (B, (p+1)/2 * p**(dim-1)) stored half.  inverse conjugates W; the real
    entry is forward only.  With real=True row b depends on column b of x
    alone, bit for bit, whatever B.
    """
    x = np.asarray(x)
    if real and (x.dtype != bool or inverse):
        raise InputError(f"the real transform takes a bool 0/1 mask, forward only; got {x.dtype}, inverse={inverse}")
    batch = x.size // p**dim
    if dim == 0:
        return x.astype(complex).reshape(batch, 1)
    if real:
        out = np.empty((x.size // p, (p + 1) // 2), dtype=complex)
        _take_rows(_head_table(p), _row_codes(p, x), out)
        blocks = _pass_schedule(p, dim - 1, False)
    else:
        out = np.array(x, dtype=complex)
        blocks = (_root_matrix(p, inverse),) + _pass_schedule(p, dim - 1, inverse)
    # x is not needed past here; an input no caller holds is freed
    del x
    return _trailing_passes(out.reshape(-1), np.empty(out.size, dtype=complex), blocks).reshape(batch, -1)


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
        # read-only copies: the caller's arrays stay writeable and its own
        freqs, values = np.asarray(self.freqs).copy(), np.asarray(self.values).copy()
        if len(freqs) != len(values):
            raise InputError("frequency/value length mismatch")
        for name, arr in (("freqs", freqs), ("values", values)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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


def full_spectrum(space: SpaceDescriptor, mask) -> np.ndarray:
    """Half of the full-group transform of a bool 0/1 mask, flat-aligned:
    out[xi] = (1/N) sum_x mask[x] e(-<x,xi>/p) for the (p+1)/2 * p**(n-1)
    frequencies xi < len(out), those whose top digit is at most (p-1)/2;
    every other xi has Ahat(xi) = conj(out[-xi]), and the plane out[:N/p]
    is closed under negation.  Any other dtype raises InputError.  Holds the
    whole half and the pass loop's second buffer, 16 (p+1) N/p bytes (19.2 N
    at p = 5); _spectrum_plane returns one plane of it in 32 N/p bytes."""
    out = _pass_loop(mask, space.p, space.n, real=True).reshape(-1)
    out /= space.N
    return out


class _Planes:
    """The plan of one full-group call over 0/1 masks: each mask's row codes
    and one workspace of `slots` N/p-entry complex buffers (16 N/p bytes
    each) that every plane of the call is built in.  Nothing outlives the
    plan, so a call's peak stays its slots and codes."""

    def __init__(self, space: SpaceDescriptor, masks, slots: int):
        self.space = space
        # at n <= 2 a plane is its slice of full_spectrum, which reads the mask
        self.rows = [m if space.n <= 2 else _row_codes(space.p, m) for m in masks]
        self.slots = np.empty((slots, space.N // space.p), dtype=complex)

    def plane(self, k: int, t: int, into: int, spare: int) -> np.ndarray:
        """Plane t of full_spectrum(space, masks[k]), bit for bit, built in
        slot `into` with slot `spare` as the pass loop's second buffer; returns
        slot `into`.

        The head is column t of _head_table read at the mask's row codes; the
        n-1 trailing passes follow _pass_schedule, and the head goes to the
        slot their count's parity leaves the plane in.  At n <= 2 the plane
        is copied from its slice of full_spectrum, so no one-row trailing
        pass runs.
        """
        space, out = self.space, self.slots[into]
        p, size = space.p, len(out)
        if space.n <= 2:
            out[:] = full_spectrum(space, self.rows[k])[t * size : (t + 1) * size]
            return out
        blocks = _pass_schedule(p, space.n - 1, False)
        head, other = (out, self.slots[spare]) if len(blocks) % 2 == 0 else (self.slots[spare], out)
        _take_rows(_head_table(p)[:, t], self.rows[k], head)
        _trailing_passes(head, other, blocks)
        out /= space.N
        return out


def _spectrum_plane(space: SpaceDescriptor, mask, t: int) -> np.ndarray:
    """Plane t of full_spectrum(space, mask) for a 0/1 mask, bit for bit: its
    N/p entries t*N/p .. (t+1)*N/p - 1, the frequencies with top digit t,
    for 0 <= t <= (p-1)/2.  One plan of two slots (32 N/p bytes)."""
    return _Planes(space, [mask], 2).plane(0, t, 0, 1)


def _nontrivial_sup(space: SpaceDescriptor, mask) -> float:
    """max over xi != 0 of |fhat(xi)| for a 0/1 mask, one stored plane at a
    time: |fhat(-xi)| = |fhat(xi)|, so the stored half holds the sup.  Two
    slots; the magnitudes go to the float view of the spare.  Equals
    np.abs(full_spectrum(space, mask)[1:]).max() bit for bit."""
    work = _Planes(space, [mask], 2)
    size = space.N // space.p
    mags = work.slots[1].view(np.float64)[:size]
    sup = 0.0
    for t in range((space.p + 1) // 2):
        lo = 1 if t == 0 else 0
        np.abs(work.plane(0, t, 0, 1)[lo:], out=mags[lo:])
        sup = max(sup, mags[lo:].max(initial=0.0))
    return float(sup)


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
