"""Independent oracles for the benchmark's correctness checks.

Nothing here calls fpnreg's transforms or codec.  A point of F_p^n is a flat
index sum_i d_i p^i; a C-order reshape of a length-N mask to (p,)*n puts
coordinate n-1-j on axis j, so fftn over that tensor is the full-group
transform F(xi) = sum_x 1(x) e(-<x, xi>/p) with the coordinates of x and xi
reversed alike.  Identities that pair frequencies coordinate-wise (xi, -xi,
2 xi) are therefore unaffected by the reversal.  fftn is scipy.fft.fftn: the
same pocketfft transform as np.fft.fftn, about 3x faster on these many short
axes, which keeps the checks a small part of a run.
"""

from __future__ import annotations

import math

import numpy as np

# A rounded count is trusted only when the float sits this close to an integer.
ROUND_MARGIN = 0.25
# Slack for float comparisons of Fourier sups and energies.
FLOAT_TOL = 1e-9


class OracleError(RuntimeError):
    """The oracle could not produce a trustworthy value."""


def weights(p: int, n: int) -> np.ndarray:
    return p ** np.arange(n, dtype=np.int64)


def digits(index, p: int, n: int) -> np.ndarray:
    return (np.asarray(index, dtype=np.int64)[..., None] // weights(p, n)) % p


def to_index(digit_rows, p: int, n: int) -> np.ndarray:
    return np.asarray(digit_rows, dtype=np.int64) @ weights(p, n)


def grid(p: int, k: int) -> np.ndarray:
    """Every point of F_p^k as a row, in C order of the (p,)*k tensor."""
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices((p,) * k).reshape(k, -1).T


def fftn(t: np.ndarray, axes) -> np.ndarray:
    # imported on first use, so the import stays out of setup_s
    from scipy.fft import fftn

    return fftn(t, axes=axes)


def spectra(masks, p: int, n: int) -> np.ndarray:
    """Unnormalized full-group transforms of a (B, N) batch of masks."""
    masks = np.asarray(masks)
    t = masks.astype(np.float64).reshape((masks.shape[0],) + (p,) * n)
    return fftn(t, axes=tuple(range(1, n + 1))).reshape(masks.shape[0], -1)


def _scale_freqs(F: np.ndarray, c: int, p: int, n: int) -> np.ndarray:
    """G[:, xi] = F[:, c xi] for a (B, N) batch of spectra."""
    perm = (c * np.arange(p)) % p
    t = F.reshape((F.shape[0],) + (p,) * n)
    for ax in range(1, n + 1):
        t = np.take(t, perm, axis=ax)
    return t.reshape(F.shape[0], -1)


def _exact(values: np.ndarray, what: str) -> np.ndarray:
    rounded = np.rint(values)
    worst = float(np.abs(values - rounded).max(initial=0.0))
    if worst > ROUND_MARGIN:
        raise OracleError(f"{what}: rounding margin {worst} exceeds {ROUND_MARGIN}")
    return rounded.astype(np.int64)


def ap_counts(F: np.ndarray, p: int, n: int) -> np.ndarray:
    """#{(x, y, z) in A^3 : x + z = 2y} per row, trivial triples included;
    equals fpnreg's ordered-(a, d) count.  Uses (1/N) sum F(xi)^2 F(-2 xi)."""
    N = p**n
    total = (F * F * _scale_freqs(F, -2, p, n)).sum(axis=1) / N
    return _exact(total.real, "3AP count")


def ap_free(masks, p: int, n: int) -> np.ndarray:
    """True per row when the set has no nontrivial 3AP."""
    masks = np.asarray(masks, dtype=bool)
    return ap_counts(spectra(masks, p, n), p, n) == masks.sum(axis=1)


def edge_count(FA: np.ndarray, FX: np.ndarray, FY: np.ndarray, N: int) -> int:
    """#{(x, y) in X x Y : y - x in A} = (1/N) sum FA FX conj(FY), one row each."""
    total = (FA * FX * FY.conj()).sum() / N
    return int(_exact(np.array([total.real]), "edge count")[0])


def sup_nontrivial(F: np.ndarray, N: int) -> float:
    """max over xi != 0 of |F(xi)| / N for one spectrum row."""
    row = np.abs(F.reshape(-1))
    return float(row[1:].max() / N) if row.size > 1 else 0.0


# ---------------------------------------------------------------------------
# Subspaces given by reduced bases
# ---------------------------------------------------------------------------


class Subspace:
    """H spanned by digit rows in reduced form: each row has a pivot column
    where it is 1 and every other row is 0.  Then x lies in H exactly when
    x = x[pivots] @ rows, and the points vanishing on the pivots are one
    representative per coset of H."""

    def __init__(self, rows, p: int, n: int):
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, n)
        if rows.size and (rows.min() < 0 or rows.max() >= p):
            raise OracleError("basis digits out of range")
        k = rows.shape[0]
        pivots = []
        for i in range(k):
            unit = np.zeros(k, dtype=np.int64)
            unit[i] = 1
            cols = [j for j in range(n) if np.array_equal(rows[:, j], unit)]
            if not cols:
                raise OracleError("basis is not in reduced form")
            pivots.append(cols[0])
        self.p, self.n, self.k = p, n, k
        self.rows = rows
        self.pivots = pivots
        self.size = p**k
        self.elem_digits = grid(p, k) @ rows % p  # (|H|, n), tensor order of coefficients

    def contains(self, x) -> np.ndarray:
        d = digits(x, self.p, self.n)
        return np.all(d[..., self.pivots] @ self.rows % self.p == d, axis=-1)

    def reps(self) -> np.ndarray:
        """One point per coset: the points vanishing on the pivot columns."""
        free = [j for j in range(self.n) if j not in self.pivots]
        out = np.zeros((self.p ** len(free), self.n), dtype=np.int64)
        out[:, free] = grid(self.p, len(free))
        return to_index(out, self.p, self.n)

    def is_minimal_rep(self, v: int) -> bool:
        coset = (digits(v, self.p, self.n) + self.elem_digits) % self.p
        return int(to_index(coset, self.p, self.n).min()) == int(v)

    def rep_of(self) -> np.ndarray:
        """Each point's coset representative: the coset's smallest index."""
        p, n = self.p, self.n
        cosets = to_index((digits(self.reps(), p, n)[:, None, :] + self.elem_digits[None]) % p, p, n)
        out = np.empty(p**n, dtype=np.int64)
        out[cosets] = cosets.min(axis=1)[:, None]
        return out

    def localizations(self, mask, reps):
        """(sup, count) per rep v for (A + v) intersect H: the largest
        nontrivial character sum |(1/|H|) sum_h 1_A(h - v) e(-<c_h, eta>/p)|
        and the number of such h."""
        p, n, k = self.p, self.n, self.k
        reps = np.asarray(reps, dtype=np.int64).reshape(-1)
        rd = digits(reps, p, n)
        idx = to_index((self.elem_digits[None, :, :] - rd[:, None, :]) % p, p, n)
        g = np.asarray(mask, dtype=bool)[idx]
        counts = g.sum(axis=1)
        if k == 0:
            return np.zeros(len(reps)), counts
        t = g.astype(np.float64).reshape((len(reps),) + (p,) * k)
        F = np.abs(fftn(t, axes=tuple(range(1, k + 1)))).reshape(len(reps), -1)
        return F[:, 1:].max(axis=1) / self.size, counts


def regularity(mask, H: Subspace, eps: float) -> tuple[bool, float]:
    """(H is eps-regular for A, energy d(A, H)) by direct character sums over
    every coset.  Sups within FLOAT_TOL of the threshold count as regular."""
    mask = np.asarray(mask, dtype=bool)
    N = mask.size
    card = int(mask.sum())
    sups, counts = H.localizations(mask, H.reps())
    irregular = int((sups > eps * card / N + FLOAT_TOL).sum())
    energy = float((counts.astype(np.float64) ** 2).sum()) * N / (H.size * card**2)
    return irregular * H.size <= eps * N, energy


class FlowerSearch:
    """flower_find's petal stage restated on a given H for parts A_1..A_m.

    Candidates of part i: the smallest ceil(alpha/(4m) K) coset
    representatives v where H is eps-regular for A_i at v and
    |(A_i)_H^v| >= |A_i||H|/(4N).  B holds the representatives that are
    candidates of at least three parts.  With |B| >= alpha K/(8m) the
    eligible set of part i is B and its candidates (triple_overlap); else
    each candidate outside B goes to the first part that has it
    (disjoint_parts).  A petal of center c in eligible(i0) is a pair
    (u, w) with u in eligible(j0), u != c, and w = rep(2c - u) in
    eligible(k0)."""

    def __init__(self, part_masks, H: Subspace, eps: float, alpha: float):
        p, n = H.p, H.n
        N, m = p**n, len(part_masks)
        self.H = H
        self.rep = H.rep_of()
        reps = np.unique(self.rep)
        K = len(reps)
        target = math.ceil(alpha / (4 * m) * K)
        self.candidates = []
        for mask in part_masks:
            card = int(np.sum(mask))
            sups, counts = H.localizations(mask, reps)
            threshold = eps * card / N
            if (np.abs(sups - threshold) <= FLOAT_TOL).any():
                raise OracleError("a coset sits on the regularity threshold")
            qualify = (sups <= threshold) & (counts >= 0.25 * card * H.size / N)
            self.candidates.append(reps[qualify][:target])
        shared = np.bincount(np.concatenate(self.candidates), minlength=N)
        B = np.flatnonzero(shared >= 3)
        self.b_size = len(B)
        if self.b_size >= alpha / (8 * m) * K:
            self.case = "triple_overlap"
            self.eligible = [np.intersect1d(B, c) for c in self.candidates]
        else:
            self.case = "disjoint_parts"
            owner = np.full(N, -1)
            for i in reversed(range(m)):
                owner[self.candidates[i]] = i
            owner[B] = -1
            self.eligible = [np.flatnonzero(owner == i) for i in range(m)]

    def petals(self, i0: int, j0: int, k0: int):
        """(ws, ok): ws[a, b] = rep(2 c_a - u_b) over the eligible centers
        c_a of part i0 and ends u_b of part j0; ok marks the petals."""
        p, n = self.H.p, self.H.n
        cs, us = self.eligible[i0], self.eligible[j0]
        ws = self.rep[to_index((2 * digits(cs, p, n)[:, None, :] - digits(us, p, n)[None]) % p, p, n)]
        ok = np.isin(ws, self.eligible[k0]) & (us[None, :] != cs[:, None])
        return ws, ok

    def best(self) -> int:
        """The largest petal count over distinct (i0, j0, k0) and centers."""
        m = len(self.eligible)
        return max(
            (int(self.petals(i, j, k)[1].sum(axis=1).max(initial=0))
             for i in range(m) for j in range(m) for k in range(m) if len({i, j, k}) == 3),
            default=0,
        )


def petal_edges(mask, p: int, n: int) -> int:
    """Edges of the midpoint graph on (V, V): pairs (x, y) with (x + y)/2 in A."""
    inv2 = (p + 1) // 2
    d = digits(np.arange(p**n), p, n)
    total = 0
    for x in d:
        total += int(np.asarray(mask, dtype=bool)[to_index(inv2 * (x + d) % p, p, n)].sum())
    return total
