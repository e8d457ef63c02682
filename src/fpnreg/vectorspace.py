"""Exact arithmetic in V = F_p^n.

Points are flat indices in [0, p^n); the digit expansion is little-endian
base p, so digit i is coordinate i.  Subsets are bit masks over the flat
index space, subspaces are canonical reduced-row-echelon bases, and cosets
get deterministic minimal-index representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InputError

# Dense algorithms are Theta(N) or worse per call; refuse spaces where that
# is hopeless.
MAX_DENSE_POINTS = 10_000_000
ALLOWED_PRIMES = (3, 5, 7, 11, 13)
MAX_DIMENSION = 12

_CHUNK = 1 << 18


@dataclass(frozen=True)
class SpaceDescriptor:
    """The ambient group F_p^n with its point codec."""

    p: int
    n: int

    def __post_init__(self):
        if self.p not in ALLOWED_PRIMES:
            raise InputError(f"p must be an odd prime in {ALLOWED_PRIMES}, got {self.p}")
        if not 1 <= self.n <= MAX_DIMENSION:
            raise InputError(f"n must be in [1, {MAX_DIMENSION}], got {self.n}")
        if self.p ** self.n > MAX_DENSE_POINTS:
            raise InputError(
                f"p^n = {self.p ** self.n} exceeds the dense-operation cap {MAX_DENSE_POINTS}"
            )

    @property
    def N(self) -> int:
        return self.p ** self.n

    @property
    def weights(self) -> np.ndarray:
        return _weights(self.p, self.n)

    # -- codec ---------------------------------------------------------

    def digits(self, index) -> np.ndarray:
        """Little-endian base-p digits; works on scalars and arrays."""
        idx = np.asarray(index, dtype=np.int64)
        return (idx[..., None] // self.weights) % self.p

    def index(self, digits) -> np.ndarray:
        d = np.asarray(digits, dtype=np.int64)
        return d @ self.weights

    # -- group operations (unvalidated fast paths) ---------------------

    def add(self, a, b):
        return self.index((self.digits(a) + self.digits(b)) % self.p)

    def sub(self, a, b):
        return self.index((self.digits(a) - self.digits(b)) % self.p)

    def neg(self, a):
        return self.index((-self.digits(a)) % self.p)

    def smul(self, c, a):
        return self.index((int(c) % self.p) * self.digits(a) % self.p)

    def pair(self, a, b):
        """Bilinear pairing <a,b> = sum_i a_i b_i mod p (integer residue)."""
        return (self.digits(a) * self.digits(b)).sum(axis=-1) % self.p

    @property
    def inv2(self) -> int:
        return (self.p + 1) // 2


@lru_cache(maxsize=None)
def _weights(p: int, n: int) -> np.ndarray:
    w = p ** np.arange(n, dtype=np.int64)
    w.flags.writeable = False
    return w


def _check_index(space: SpaceDescriptor, index) -> np.ndarray:
    idx = np.asarray(index, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= space.N):
        raise InputError(f"point index out of range [0, {space.N})")
    return idx


def same_space(*objs) -> SpaceDescriptor:
    spaces = {o.space for o in objs}
    if len(spaces) != 1:
        raise InputError(f"operands live in different spaces: {sorted((s.p, s.n) for s in spaces)}")
    return next(iter(spaces))


# ---------------------------------------------------------------------------
# codec / group ops, validated public form
# ---------------------------------------------------------------------------


def index_to_digits(space: SpaceDescriptor, index: int) -> tuple:
    _check_index(space, index)
    return tuple(int(d) for d in space.digits(index))


def digits_to_index(space: SpaceDescriptor, digits) -> int:
    d = np.asarray(digits, dtype=np.int64)
    if d.shape != (space.n,):
        raise InputError(f"expected {space.n} digits, got shape {d.shape}")
    if d.size and (d.min() < 0 or d.max() >= space.p):
        raise InputError(f"digits must lie in [0, {space.p})")
    return int(space.index(d))


def add(space: SpaceDescriptor, a, b):
    return space.add(_check_index(space, a), _check_index(space, b))


def neg(space: SpaceDescriptor, a):
    return space.neg(_check_index(space, a))


def smul(space: SpaceDescriptor, c: int, a):
    return space.smul(c, _check_index(space, a))


def pairing(space: SpaceDescriptor, a, b):
    return space.pair(_check_index(space, a), _check_index(space, b))


def dilate(space: SpaceDescriptor, values, c: int) -> np.ndarray:
    """values[c*x] for every flat index x, without the digit codec.

    A flat index is a C-order position in the (p,)*n tensor with the axes in
    reverse coordinate order.  x -> c*x maps every digit k to c*k mod p, the
    same permutation on each axis, so one gather per axis applies it.
    """
    p = space.p
    perm = np.arange(p) * int(c) % p
    t = np.asarray(values).reshape((p,) * space.n)
    for ax in range(space.n):
        t = np.take(t, perm, axis=ax)
    return t.reshape(-1)


# ---------------------------------------------------------------------------
# Dense subsets
# ---------------------------------------------------------------------------


class DenseSubset:
    """A subset of F_p^n as a bit mask with cached cardinality."""

    __slots__ = ("space", "mask", "card", "_members")

    def __init__(self, space: SpaceDescriptor, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (space.N,):
            raise InputError(f"mask must have length N = {space.N}, got {mask.shape}")
        mask = mask.copy()
        mask.flags.writeable = False
        self.space = space
        self.mask = mask
        self.card = int(mask.sum())
        self._members = None

    @classmethod
    def from_members(cls, space: SpaceDescriptor, members) -> "DenseSubset":
        idx = _check_index(space, np.asarray(list(members), dtype=np.int64))
        mask = np.zeros(space.N, dtype=bool)
        mask[idx] = True
        return cls(space, mask)

    @classmethod
    def full(cls, space: SpaceDescriptor) -> "DenseSubset":
        return cls(space, np.ones(space.N, dtype=bool))

    @classmethod
    def empty(cls, space: SpaceDescriptor) -> "DenseSubset":
        return cls(space, np.zeros(space.N, dtype=bool))

    def members(self) -> np.ndarray:
        if self._members is None:
            m = np.flatnonzero(self.mask)
            m.flags.writeable = False
            self._members = m
        return self._members

    def contains(self, index) -> np.ndarray:
        return self.mask[_check_index(self.space, index)]

    def density(self) -> float:
        return self.card / self.space.N

    def __eq__(self, other):
        return (
            isinstance(other, DenseSubset)
            and self.space == other.space
            and bool(np.array_equal(self.mask, other.mask))
        )

    def __hash__(self):
        return hash((self.space, self.mask.tobytes()))

    def __repr__(self):
        return f"DenseSubset(p={self.space.p}, n={self.space.n}, card={self.card})"


# ---------------------------------------------------------------------------
# GF(p) row reduction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> tuple:
    return tuple(0 if a == 0 else pow(a, p - 2, p) for a in range(p))


def _rref(mat: np.ndarray, p: int, col_order) -> tuple[np.ndarray, list]:
    """Reduced row echelon form over GF(p), pivoting in the given column order.

    Returns (reduced nonzero rows in pivot order, pivot columns).
    """
    a = np.array(mat, dtype=np.int64) % p
    inv = _inverse_table(p)
    nrows = a.shape[0]
    r = 0
    pivots = []
    for col in col_order:
        if r >= nrows:
            break
        hits = np.flatnonzero(a[r:, col])
        if hits.size == 0:
            continue
        lead = r + int(hits[0])
        if lead != r:
            a[[r, lead]] = a[[lead, r]]
        a[r] = a[r] * inv[int(a[r, col])] % p
        others = np.flatnonzero(a[:, col])
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, col], a[r])) % p
        pivots.append(col)
        r += 1
    return a[:r], pivots


def _nullspace(mat: np.ndarray, p: int, ncols: int) -> np.ndarray:
    """Basis (rows) of {c : mat @ c = 0} over GF(p); mat has ncols columns."""
    if mat.size == 0:
        return np.eye(ncols, dtype=np.int64)
    red, pivots = _rref(mat, p, range(ncols))
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for j, pc in enumerate(pivots):
            basis[k, pc] = (-red[j, f]) % p
    return basis


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


class SubspaceBasis:
    """A subspace H <= V in canonical reduced-row-echelon basis form.

    Pivoting runs from the most significant coordinate down, which makes the
    zero-at-pivot-coordinates element of each coset its minimal flat index.
    """

    __slots__ = ("space", "rows", "dim", "size", "pivots", "_cache")

    def __init__(self, space: SpaceDescriptor, rows: np.ndarray, pivots):
        self.space = space
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, space.n)
        rows.flags.writeable = False
        self.rows = rows
        self.dim = rows.shape[0]
        self.size = space.p ** self.dim
        self.pivots = tuple(pivots)
        self._cache = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(cls, space: SpaceDescriptor, rows) -> "SubspaceBasis":
        mat = np.asarray(rows, dtype=np.int64).reshape(-1, space.n)
        red, pivots = _rref(mat, space.p, range(space.n - 1, -1, -1))
        return cls(space, red, pivots)

    @classmethod
    def from_vectors(cls, space: SpaceDescriptor, vectors) -> "SubspaceBasis":
        idx = _check_index(space, np.asarray(list(vectors), dtype=np.int64))
        if idx.size == 0:
            return cls.zero(space)
        return cls.from_rows(space, space.digits(idx))

    @classmethod
    def full(cls, space: SpaceDescriptor) -> "SubspaceBasis":
        return cls.from_rows(space, np.eye(space.n, dtype=np.int64))

    @classmethod
    def zero(cls, space: SpaceDescriptor) -> "SubspaceBasis":
        return cls(space, np.zeros((0, space.n), dtype=np.int64), ())

    # -- identity -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.space == other.space
            and bool(np.array_equal(self.rows, other.rows))
        )

    def __hash__(self):
        return hash((self.space, self.rows.tobytes()))

    def __repr__(self):
        return f"SubspaceBasis(p={self.space.p}, n={self.space.n}, dim={self.dim})"

    def is_full(self) -> bool:
        return self.dim == self.space.n

    # -- membership and coset labels -------------------------------------

    def coset_label(self, index) -> np.ndarray:
        """Minimal flat index in the coset index + H (vectorized)."""
        d = self.space.digits(index)
        if self.dim:
            coeff = d[..., list(self.pivots)]
            d = (d - coeff @ self.rows) % self.space.p
        return self.space.index(d)

    def contains(self, index) -> np.ndarray:
        return self.coset_label(index) == 0

    # -- cached enumerations ----------------------------------------------

    def _coeff_elements(self) -> np.ndarray:
        """Element indices in coefficient-lex order: entry c is digits(c) @ rows."""
        if "coeff_elements" not in self._cache:
            p, d = self.space.p, self.dim
            if d == 0:
                elems = np.zeros(1, dtype=np.int64)
            else:
                cw = _weights(p, d)
                out = np.empty(self.size, dtype=np.int64)
                for lo in range(0, self.size, _CHUNK):
                    hi = min(lo + _CHUNK, self.size)
                    coeffs = (np.arange(lo, hi, dtype=np.int64)[:, None] // cw) % p
                    out[lo:hi] = self.space.index(coeffs @ self.rows % p)
                elems = out
            elems.flags.writeable = False
            self._cache["coeff_elements"] = elems
        return self._cache["coeff_elements"]

    def elements(self) -> np.ndarray:
        """Member indices, ascending."""
        if "elements" not in self._cache:
            e = np.sort(self._coeff_elements())
            e.flags.writeable = False
            self._cache["elements"] = e
        return self._cache["elements"]

    def element_digits(self) -> np.ndarray:
        """Digit rows of _coeff_elements(), cached for hot localization loops."""
        if "element_digits" not in self._cache:
            d = self.space.digits(self._coeff_elements())
            d.flags.writeable = False
            self._cache["element_digits"] = d
        return self._cache["element_digits"]

    def member_mask(self) -> np.ndarray:
        if "member_mask" not in self._cache:
            m = np.zeros(self.space.N, dtype=bool)
            m[self._coeff_elements()] = True
            m.flags.writeable = False
            self._cache["member_mask"] = m
        return self._cache["member_mask"]

    def as_subset(self) -> DenseSubset:
        return DenseSubset(self.space, self.member_mask())

    def annihilator(self) -> "SubspaceBasis":
        """H^perp = {xi : <x, xi> = 0 for all x in H}, within V."""
        if "annihilator" not in self._cache:
            null = _nullspace(self.rows, self.space.p, self.space.n)
            self._cache["annihilator"] = SubspaceBasis.from_rows(self.space, null)
        return self._cache["annihilator"]

    def coset_system(self) -> "CosetSystem":
        if "coset_system" not in self._cache:
            self._cache["coset_system"] = _build_coset_system(self)
        return self._cache["coset_system"]


@dataclass(frozen=True)
class CosetSystem:
    """Canonical representatives of V/H: minimal flat index per coset, ascending."""

    subspace: SubspaceBasis
    reps: np.ndarray = field(compare=False)
    coset_id: np.ndarray = field(compare=False)

    @property
    def K(self) -> int:
        return len(self.reps)

    def rep_of(self, index):
        return self.reps[self.coset_id[index]]

    def id_of(self, index):
        return self.coset_id[index]


def _build_coset_system(H: SubspaceBasis) -> CosetSystem:
    space = H.space
    N = space.N
    if H.dim == space.n:
        reps = np.zeros(1, dtype=np.int64)
        ids = np.zeros(N, dtype=np.int64)
    elif H.dim == 0:
        reps = np.arange(N, dtype=np.int64)
        ids = np.arange(N, dtype=np.int64)
    else:
        labels = np.empty(N, dtype=np.int64)
        for lo in range(0, N, _CHUNK):
            hi = min(lo + _CHUNK, N)
            labels[lo:hi] = H.coset_label(np.arange(lo, hi, dtype=np.int64))
        reps, ids = np.unique(labels, return_inverse=True)
        ids = ids.astype(np.int64)
    reps.flags.writeable = False
    ids.flags.writeable = False
    return CosetSystem(H, reps, ids)


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------


def rref(space: SpaceDescriptor, vectors) -> SubspaceBasis:
    """Canonical basis of the span of the given points."""
    return SubspaceBasis.from_vectors(space, vectors)


def annihilator_within(H: SubspaceBasis, frequencies) -> SubspaceBasis:
    """H' = {x in H : <x, xi> = 0 for every given frequency xi}.

    For m distinct frequencies |H'| >= |H| / p^m.
    """
    space = H.space
    freqs = _check_index(space, np.asarray(list(frequencies), dtype=np.int64))
    if H.dim == 0 or freqs.size == 0:
        return SubspaceBasis.from_rows(space, H.rows)
    # x = c @ rows; constraint c @ (rows @ xi) = 0 per frequency.
    m = (H.rows @ space.digits(freqs).T) % space.p  # (dim, m)
    null = _nullspace(m.T, space.p, H.dim)
    if null.size == 0:
        return SubspaceBasis.zero(space)
    return SubspaceBasis.from_rows(space, null @ H.rows % space.p)


def coset_representatives(H: SubspaceBasis) -> CosetSystem:
    return H.coset_system()


def localize(A: DenseSubset, H: SubspaceBasis, v: int) -> DenseSubset:
    """The localization (A + v) intersect H, as a subset supported on H."""
    space = same_space(A, H)
    v = int(_check_index(space, v))
    helems = H.elements()
    sel = A.mask[space.sub(helems, v)]
    mask = np.zeros(space.N, dtype=bool)
    mask[helems[sel]] = True
    return DenseSubset(space, mask)


def localized_count(A: DenseSubset, H: SubspaceBasis, v: int) -> int:
    """|A_H^v| without materializing the subset."""
    space = same_space(A, H)
    return int(A.mask[space.sub(H.elements(), int(v))].sum())


# ---------------------------------------------------------------------------
# Structured-text forms (CLI inputs and golden files)
# ---------------------------------------------------------------------------


def subset_to_dict(A: DenseSubset) -> dict:
    return {"p": A.space.p, "n": A.space.n, "members": [int(x) for x in A.members()]}


def subset_from_dict(d: dict) -> DenseSubset:
    space = SpaceDescriptor(int(d["p"]), int(d["n"]))
    return DenseSubset.from_members(space, d["members"])


def basis_to_dict(H: SubspaceBasis) -> dict:
    return {
        "p": H.space.p,
        "n": H.space.n,
        "rows": [[int(x) for x in row] for row in H.rows],
    }


def basis_from_dict(d: dict) -> SubspaceBasis:
    space = SpaceDescriptor(int(d["p"]), int(d["n"]))
    rows = np.asarray(d["rows"], dtype=np.int64).reshape(-1, space.n)
    if rows.size and (rows.min() < 0 or rows.max() >= space.p):
        raise InputError(f"basis digits must lie in [0, {space.p})")
    return SubspaceBasis.from_rows(space, rows)
