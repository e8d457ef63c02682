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


def _check_points(space: SpaceDescriptor, points) -> np.ndarray:
    """Validated int64 indices from an integer array or any iterable of ints."""
    if isinstance(points, np.ndarray) and points.dtype.kind in "iu":
        return _check_index(space, points)
    return _check_index(space, np.asarray(list(points), dtype=np.int64))


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


def _digit_sum(p: int, vectors) -> np.ndarray:
    """sum_i vectors[i][k_i] on the (p,)*m tensor of k = sum_i k_i p^i.

    Digit i is axis m - 1 - i.  An all-zero vector leaves its axis at length
    1, so these tensors add by broadcasting and grow only along the axes
    they use; _flatten spreads one over every k.
    """
    m = len(vectors)
    total = np.zeros((1,) * m, dtype=np.int64)
    for i, vec in enumerate(vectors):
        vec = np.asarray(vec, dtype=np.int64)
        if vec.any():
            shape = [1] * m
            shape[m - 1 - i] = p
            total = total + vec.reshape(shape)
    return total


def _linear_form(p: int, coeffs) -> np.ndarray:
    """(sum_i coeffs[i] k_i) mod p as a _digit_sum tensor."""
    k = np.arange(p, dtype=np.int64)
    return _digit_sum(p, [k * (int(a) % p) for a in coeffs]) % p


def _flatten(t: np.ndarray, p: int, m: int) -> np.ndarray:
    """A _digit_sum tensor spread over the full (p,)*m digit tensor, flat."""
    return np.ascontiguousarray(np.broadcast_to(t, (p,) * m)).reshape(-1)


@lru_cache(maxsize=None)
def _digit_perm(p: int, m: int, c: int) -> np.ndarray:
    """The flat index of c*x for every x in the (p,)*m digit tensor."""
    step = np.arange(p, dtype=np.int64) * c % p
    perm = _flatten(_digit_sum(p, [step * p**i for i in range(m)]), p, m)
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=None)
def _digit_reversal(p: int, m: int) -> np.ndarray:
    """The flat index of x's digits in reverse order, for every x of the
    (p,)*m digit tensor: digit i moves to m - 1 - i.  An involution."""
    k = np.arange(p, dtype=np.int64)
    rev = _flatten(_digit_sum(p, [k * p ** (m - 1 - i) for i in range(m)]), p, m)
    rev.flags.writeable = False
    return rev


def _dilate(values, p: int, m: int, c: int) -> np.ndarray:
    """values[c*x] over the flat indices x of the (p,)*m digit tensor.

    x -> c*x maps every digit k to c*k mod p.  The digits split into a high
    and a low block; each block's permutation is the digit-wise one composed
    over its digits (about sqrt(p^m) entries, cached), so two np.take passes
    apply it.
    """
    c = int(c) % p
    low = m // 2
    t = np.asarray(values).reshape(p ** (m - low), p**low)
    t = np.take(t, _digit_perm(p, m - low, c), axis=0)
    return np.take(t, _digit_perm(p, low, c), axis=1).reshape(-1)


# A pair-kernel run holds about this many digit entries.
_PAIR_BLOCK = 1 << 22


def _pair_step(ny: int, m: int) -> int:
    """Rows per run of about _PAIR_BLOCK digit entries against ny partners
    of m digits each."""
    return max(1, _PAIR_BLOCK // max(ny * m, 1))


def _pair_runs(nx: int, ny: int, m: int) -> list:
    """Slices cutting nx rows into runs of _pair_step rows, for _pair_index."""
    step = _pair_step(ny, m)
    return [slice(lo, lo + step) for lo in range(0, nx, step)]


def _pair_index(p: int, m: int, x: np.ndarray, y: np.ndarray, a: int, b: int) -> np.ndarray:
    """flat(a*x_i + b*y_j) for the flat indices x, y of the (p,)*m digit
    tensor, the sum taken digit-wise mod p; shape (len(x), len(y)).

    The composition of _pair_digits, which decodes each side once, and
    _pair_sum, which does the per-pair work.
    """
    return _pair_sum(p, m, _pair_digits(p, m, x, a), _pair_digits(p, m, y, b))


def _pair_digits(p: int, m: int, x: np.ndarray, a: int) -> np.ndarray:
    """The digits of a*x for the flat indices x: row i is digit i, shape
    (m, len(x))."""
    w = _weights(p, m)
    return x // w[:, None] * (a % p) % p


def _pair_sum(p: int, m: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """flat(u_i + v_j) for digit columns u (m, nx) and v (m, ny), the sum
    taken digit-wise mod p; shape (nx, ny).

    Digit i of u + v wraps when u_i >= p - v_i and then loses p at weight
    p^i, so

        flat(u + v) = flat(u) + flat(v) - sum_i p^(i+1) [u_i >= p - v_i].

    Only the wrap test is per pair and per digit: an (m, nx, ny) boolean
    array, which _pair_runs holds to about _PAIR_BLOCK entries.
    """
    w = _weights(p, m)
    idx = np.einsum("i,ijk->jk", -p * w, u[:, :, None] >= (p - v)[:, None, :])
    idx += (w @ u)[:, None]
    idx += w @ v
    return idx


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
        idx = _check_points(space, members)
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


def _null_rows(B: SubspaceBasis) -> np.ndarray:
    """Rows spanning B^perp, from B's reduced rows R with pivots P:
    e_f - sum_j R[j, f] e_(P_j) per free coordinate f.  They are not reduced."""
    free = list(B.free)
    null = np.zeros((len(free), B.space.n), dtype=np.int64)
    null[:, free] = np.eye(len(free), dtype=np.int64)
    null[:, list(B.pivots)] = (-B.rows[:, free].T) % B.space.p
    return null


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
        idx = _check_points(space, vectors)
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

    # -- membership -------------------------------------------------------

    def contains(self, index) -> np.ndarray:
        return self.member_mask()[_check_index(self.space, index)]

    # -- cached enumerations ----------------------------------------------

    @property
    def free(self) -> tuple:
        """Coordinates that are not pivots, ascending: the axes of V/H."""
        return tuple(f for f in range(self.space.n) if f not in self.pivots)

    def _coeff_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(pivot_part, free_digits) over the coefficient indices c.

        h_c = sum_j c_j rows[j] for c = sum_j c_j p^j.  Row j is 1 at pivot j
        and 0 at the other pivots, so h_c has digit c_j there:
        pivot_part[c] = sum_j c_j p^(pivots[j]).  free_digits[r, c] is the
        digit of h_c at free coordinate r, (sum_j c_j rows[j, free[r]]) mod p.
        """
        if "coeff_tables" not in self._cache:
            p = self.space.p
            k = np.arange(p, dtype=np.int64)
            pivot_part = _flatten(_digit_sum(p, [k * p**pc for pc in self.pivots]), p, self.dim)
            free_digits = np.empty((len(self.free), self.size), dtype=np.int64)
            for r, f in enumerate(self.free):
                free_digits[r] = _flatten(_linear_form(p, self.rows[:, f]), p, self.dim)
            for arr in (pivot_part, free_digits):
                arr.flags.writeable = False
            self._cache["coeff_tables"] = (pivot_part, free_digits)
        return self._cache["coeff_tables"]

    def _coeff_elements(self) -> np.ndarray:
        """Element indices in coefficient-lex order: entry c is h_c."""
        if "coeff_elements" not in self._cache:
            pivot_part, free_digits = self._coeff_tables()
            fw = np.array([self.space.p**f for f in self.free], dtype=np.int64)
            elems = pivot_part + fw @ free_digits
            elems.flags.writeable = False
            self._cache["coeff_elements"] = elems
        return self._cache["coeff_elements"]

    def elements(self) -> np.ndarray:
        """Member indices, ascending.  Pivots descend and row j is 0 above
        pivot j, so h_c's order is c's digits read with c_0 the most
        significant: entry i is _coeff_elements()[_digit_reversal(p, dim)[i]]."""
        if "elements" not in self._cache:
            e = self._coeff_elements()[_digit_reversal(self.space.p, self.dim)]
            e.flags.writeable = False
            self._cache["elements"] = e
        return self._cache["elements"]

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
            self._cache["annihilator"] = SubspaceBasis.from_rows(self.space, _null_rows(self))
        return self._cache["annihilator"]

    def coset_reps(self) -> np.ndarray:
        """Canonical representatives of V/H, ascending: the points that are 0
        at every pivot.  Entry k has digit k_r at free[r], where
        k = sum_r k_r p^r, so the entry's position is its coset id."""
        if "coset_reps" not in self._cache:
            p = self.space.p
            k = np.arange(p, dtype=np.int64)
            reps = _flatten(_digit_sum(p, [k * p**f for f in self.free]), p, len(self.free))
            reps.flags.writeable = False
            self._cache["coset_reps"] = reps
        return self._cache["coset_reps"]

    def _localization(self, v: int, s: int = 0) -> np.ndarray:
        """G[c, t] = flat(h_c - v - x_t), shape (|H|, p**s).

        x_t has digit t_r at the free coordinate F_r for r < s, where
        t = sum_r t_r p^r, and 0 elsewhere.  h_c - v has digit
        (c_j - v_(P_j)) mod p at pivot P_j and (free_digits[r, c] - v_(F_r))
        mod p at F_r, so

            flat(h_c - v) = sum_j p^(P_j) ((c_j - v_(P_j)) mod p)
                          + sum_r p^(F_r) ((free_digits[r, c] - v_(F_r)) mod p).

        Column 0 is the localization row of v: A.mask[G[:, 0]] is A_H^v in
        coefficient order.  When v = coset_reps()[k] with k a multiple of
        p**s, column t is the row of coset_reps()[k + t], so the block
        covers an aligned run of p**s coset ids, one broadcast axis per
        digit of t.  G is the transposed view of a C-order (p**s, |H|) array.
        """
        p, free = self.space.p, self.free
        vd = (int(v) // self.space.weights) % p
        k = np.arange(p, dtype=np.int64)
        g, free_digits = self._coeff_tables()  # g: the pivot sum at v_P = 0
        if vd[list(self.pivots)].any():
            g = _flatten(_digit_sum(p, [p**pc * ((k - vd[pc]) % p) for pc in self.pivots]), p, self.dim)
        for r in range(s, len(free)):
            g = g + p ** free[r] * ((free_digits[r] - vd[free[r]]) % p)
        # built as (p,)*s + (|H|,) with digit t_r on axis s - 1 - r, so the
        # long coefficient axis stays innermost while the broadcasts grow
        for r in range(s):
            shape = [1] * s + [self.size]
            shape[s - 1 - r] = p
            g = g + (p ** free[r] * ((free_digits[r] - vd[free[r]] - k[:, None]) % p)).reshape(shape)
        return g.reshape(p**s, self.size).T

    def coset_system(self) -> "CosetSystem":
        if "coset_system" not in self._cache:
            self._cache["coset_system"] = _build_coset_system(self)
        return self._cache["coset_system"]


@dataclass(frozen=True)
class CosetSystem:
    """Canonical representatives of V/H and the point-to-coset lookup.

    With pivots P and free coordinates F of H's reduced basis R, the coset of
    x has the linear id

        coset_id(x) = sum_r p^r ((x_{F_r} - sum_j R[j, F_r] x_{P_j}) mod p),

    and reps[k] is the point with digit k_r at F_r and 0 at every pivot, so
    ids follow the ascending order of the representatives and V/H is the
    (p,)*(n - dim H) digit tensor of the ids.  It holds reps (K int64, the
    same array as H.coset_reps()) and coset_id (one int64 N-array), which
    only rep_of reads.  No library computation builds it (the scan, the
    counts and Spectrum.value_at read H.coset_reps(), H._localization and
    the dual data); it serves explicit callers: tests, scripts and users.
    """

    subspace: SubspaceBasis
    reps: np.ndarray = field(compare=False)
    coset_id: np.ndarray = field(compare=False)

    @property
    def K(self) -> int:
        return len(self.reps)

    def rep_of(self, index):
        return self.reps[self.coset_id[index]]


def _build_coset_system(H: SubspaceBasis) -> CosetSystem:
    """reps from H.coset_reps() and the N-array of linear coset ids.

    The id digit of free coordinate F_r is a linear form in x_{F_r} and the
    pivot digits with a nonzero R[j, F_r].  Summing the forms by
    broadcasting grows the array by a factor p per new axis, so the build
    costs about p/(p-1) N adds.
    """
    space = H.space
    p, n = space.p, space.n
    ids = np.zeros((1,) * n, dtype=np.int64)
    for r, f in enumerate(H.free):
        coeffs = np.zeros(n, dtype=np.int64)
        coeffs[f] = 1
        coeffs[list(H.pivots)] = -H.rows[:, f]
        ids = ids + p**r * _linear_form(p, coeffs)
    ids = _flatten(ids, p, n)
    ids.flags.writeable = False
    return CosetSystem(H, H.coset_reps(), ids)


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------


def rref(space: SpaceDescriptor, vectors) -> SubspaceBasis:
    """Canonical basis of the span of the given points."""
    return SubspaceBasis.from_vectors(space, vectors)


def annihilator_within(H: SubspaceBasis, frequencies) -> SubspaceBasis:
    """H' = {x in H : <x, xi> = 0 for every given frequency xi}, the
    annihilator of S = H^perp + span(xi): two row reductions, S and H', and
    S is cached as H'^perp.  For m distinct frequencies |H'| >= |H| / p^m."""
    space = H.space
    freqs = _check_points(space, frequencies)
    span = SubspaceBasis.from_rows(space, np.vstack([H.annihilator().rows, space.digits(freqs)]))
    refined = SubspaceBasis.from_rows(space, _null_rows(span))
    # one way only: span keeps no reference back to refined
    refined._cache["annihilator"] = span
    return refined


def coset_representatives(H: SubspaceBasis) -> CosetSystem:
    return H.coset_system()


def localize(A: DenseSubset, H: SubspaceBasis, v: int) -> DenseSubset:
    """The localization (A + v) intersect H, as a subset supported on H."""
    space = same_space(A, H)
    sel = A.mask[H._localization(_check_index(space, v))[:, 0]]
    mask = np.zeros(space.N, dtype=bool)
    mask[H._coeff_elements()[sel]] = True
    return DenseSubset(space, mask)


def localized_count(A: DenseSubset, H: SubspaceBasis, v: int) -> int:
    """|A_H^v| without materializing the subset."""
    space = same_space(A, H)
    return int(A.mask[H._localization(_check_index(space, v))[:, 0]].sum())


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
