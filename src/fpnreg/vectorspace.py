"""Exact arithmetic in V = F_p^n.

Points are flat indices in [0, p^n); the digit expansion is little-endian
base p, so digit i is coordinate i.  Subsets are bit masks over the flat
index space, subspaces are canonical reduced-row-echelon bases, and cosets
get deterministic minimal-index representatives.

Tables derived from a subspace, fourier's dual data and regularity's witness
map included, are built once through SubspaceBasis._cached: only
SubspaceBasis reads or writes its _cache, and every array cached is read-only.
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


def _check_index(space: SpaceDescriptor, index, what: str = "point index") -> np.ndarray:
    try:
        idx = np.asarray(index)
    except ValueError as e:  # ragged nesting
        raise InputError(f"{what} must hold integers") from e
    if idx.dtype.kind not in "iu" and not (idx.dtype.kind == "f" and (idx % 1 == 0).all()):
        raise InputError(f"{what} must hold integers")
    idx = idx.astype(np.int64, copy=False)
    if idx.size and (idx.min() < 0 or idx.max() >= space.N):
        raise InputError(f"{what} out of range [0, {space.N})")
    return idx


def _check_points(space: SpaceDescriptor, points, what: str = "point index") -> np.ndarray:
    """Validated int64 indices from an integer array or any iterable of integers."""
    if not isinstance(points, np.ndarray):
        try:
            points = list(points)
        except TypeError as e:
            raise InputError(f"{what} must be a list of integers") from e
    return _check_index(space, points, what)


def same_space(*objs) -> SpaceDescriptor:
    spaces = {o.space for o in objs}
    if len(spaces) != 1:
        raise InputError(f"operands live in different spaces: {sorted((s.p, s.n) for s in spaces)}")
    return next(iter(spaces))


def _digit_table(p: int, M, weights, shift=None, base=None) -> np.ndarray:
    """sum_c weights[c] ((sum_i k_i M[i, c] + shift[c]) mod p) over the flat
    indices k = sum_i k_i b^i of the (b,)*m digit tensor, b = base or p and
    m = len(M); int64, read-only.

    Every digit-indexed table is such an affine map of k's digits over
    GF(p), read through the weights.  Digit i is axis m - 1 - i.  A column's
    term is the mod of its shift plus one length-b vector per digit it
    uses, broadcast over just those axes.  The terms add in increasing
    order of their highest digit, so the sum grows one axis at a time, and
    one spread over every k flattens it.
    """
    b = base or p
    shifts = [0] * len(weights) if shift is None else [int(s) % p for s in shift]
    digits = _affine_digits(p, b)
    terms = []  # (highest digit used, [(digit, coefficient)], weight, shift)
    for col, w, s in zip(np.asarray(M, dtype=np.int64).T.tolist(), weights, shifts):
        used = [(i, a % p) for i, a in enumerate(col) if a % p]
        if used or s:
            terms.append((used[-1][0] if used else -1, used, w, s))
    total = np.int64(0)
    for _, used, w, s in sorted(terms, key=lambda term: term[0]):
        form = s
        for i, a in used:
            form = form + digits[a].reshape((b,) + (1,) * i)
        total = total + w * (form % p)
    table = np.ascontiguousarray(np.broadcast_to(total, (b,) * len(M))).reshape(-1)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _affine_digits(p: int, b: int) -> np.ndarray:
    """T[a, k] = a k mod p for a < p and the digits k < b."""
    a, k = np.ogrid[:p, :b]
    table = a * k % p
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _digit_perm(p: int, m: int, c: int) -> np.ndarray:
    """The flat index of c*x for every x in the (p,)*m digit tensor."""
    return _digit_table(p, c * np.eye(m, dtype=np.int64), _weights(p, m))


@lru_cache(maxsize=None)
def _digit_reversal(p: int, m: int) -> np.ndarray:
    """The flat index of x's digits in reverse order, for every x of the
    (p,)*m digit tensor: digit i moves to m - 1 - i.  An involution."""
    return _digit_table(p, np.eye(m, dtype=np.int64), _weights(p, m)[::-1])


def _dilate(values, p: int, m: int, c: int, out=None, tmp=None) -> np.ndarray:
    """values[c*x] over the flat indices x of the (p,)*m digit tensor.

    x -> c*x maps every digit k to c*k mod p.  The digits split into a high
    and a low block; each block's permutation is the digit-wise one composed
    over its digits (about sqrt(p^m) entries, cached), so two np.take passes
    apply it, the first into tmp and the second into out when they are given
    (flat buffers of p^m entries of values' dtype).
    """
    c = int(c) % p
    low = m // 2
    shape = (p ** (m - low), p**low)
    t = np.asarray(values).reshape(shape)
    # the tables are permutations; mode="raise" would buffer a whole output
    t = np.take(t, _digit_perm(p, m - low, c), axis=0, out=None if tmp is None else tmp.reshape(shape), mode="clip")
    return np.take(t, _digit_perm(p, low, c), axis=1, out=None if out is None else out.reshape(shape), mode="clip").reshape(-1)


# A pair-kernel run holds about this many pairs, in two int64 arrays.
_PAIR_BLOCK = 1 << 18


def _pair_step(ny: int) -> int:
    """Rows per run of about _PAIR_BLOCK pairs against ny partners."""
    return max(1, _PAIR_BLOCK // max(ny, 1))


def _pair_runs(nx: int, ny: int) -> list:
    """Slices cutting nx rows into runs of _pair_step rows, for _pair_sum."""
    step = _pair_step(ny)
    return [slice(lo, lo + step) for lo in range(0, nx, step)]


def _pair_index(p: int, m: int, x: np.ndarray, y: np.ndarray, a: int, b: int) -> np.ndarray:
    """flat(a*x_i + b*y_j) for the flat indices x, y of the (p,)*m digit
    tensor, the sum taken digit-wise mod p; shape (len(x), len(y)).

    The composition of _pair_codes, which encodes each side once, and
    _pair_sum, which does the per-pair work.
    """
    return _pair_sum(p, m, _pair_codes(p, m, x, a), _pair_codes(p, m, y, b))


@lru_cache(maxsize=None)
def _code_spread(p: int, m: int, a: int) -> tuple:
    """(p^h, lo, hi) for h = m // 2: lo[r] is the base-2p code of the
    digits of a*r for r < p^h, and hi[q] that of a*q for q < p^(m-h)."""
    h, eye, code = m // 2, a * np.eye(m, dtype=np.int64), [(2 * p) ** i for i in range(m)]
    return p**h, _digit_table(p, eye[:h, :h], code[:h]), _digit_table(p, eye[h:, h:], code[: m - h])


def _pair_codes(p: int, m: int, x: np.ndarray, a: int) -> np.ndarray:
    """The codes of a*x for the flat indices x, shape (2, len(x)): the low
    h = m // 2 digits of a*x and the other m - h, each in base 2p."""
    ph, lo, hi = _code_spread(p, m, a % p)
    codes = np.empty((2, len(x)), dtype=np.int64)
    q, r = np.divmod(x, ph)
    codes[0], codes[1] = lo[r], hi[q]
    return codes


@lru_cache(maxsize=None)
def _code_sums(p: int, m: int) -> tuple:
    """(lo_tab, hi_tab): a sum s of two low codes maps to sum_i p^i (s_i mod
    p) over its base-2p digits s_i, and a sum of two high codes to p^h
    times that; (2p)^h and (2p)^(m-h) entries, at most 10^5 under the cap."""
    h, eye, flat = m // 2, np.eye(m, dtype=np.int64), _weights(p, m)
    lo_tab = _digit_table(p, eye[:h, :h], flat[:h], base=2 * p)
    return lo_tab, _digit_table(p, eye[h:, h:], flat[h:], base=2 * p)


def _pair_sum(p: int, m: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """flat(u_i + v_j) for the codes u (2, nx) and v (2, ny) of _pair_codes,
    the sum taken digit-wise mod p; shape (nx, ny).  A v of shape
    (2, nx, ny) gives row i its own partners v[:, i].

    A code's digits are below p, so a base-2p digit of the sum of two codes
    is at most 2p - 2 and the addition never carries between digits:

        flat(u + v) = lo_tab[u_0 + v_0] + hi_tab[u_1 + v_1],

    two adds and two table reads per pair, whatever m is.
    """
    lo_tab, hi_tab = _code_sums(p, m)
    s = u[0][:, None] + v[0]
    idx = lo_tab[s]
    np.add(u[1][:, None], v[1], out=s)
    # in place: take reads s[i] before writing s[i]; "clip" skips the copy
    idx += hi_tab.take(s, out=s, mode="clip")
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

    __slots__ = ("space", "rows", "dim", "size", "pivots", "free", "_cache")

    def __init__(self, space: SpaceDescriptor, rows: np.ndarray, pivots):
        self.space = space
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, space.n)
        rows.flags.writeable = False
        self.rows = rows
        self.dim = rows.shape[0]
        self.size = space.p ** self.dim
        self.pivots = tuple(pivots)
        # the coordinates that are not pivots, ascending: the axes of V/H
        self.free = tuple(f for f in range(space.n) if f not in self.pivots)
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

    def _cached(self, key: str, build):
        """The table stored under key, built by build() on first use.  Every
        array it stores, alone or in a tuple, is made read-only."""
        table = self._cache.get(key)
        if table is None:
            table = self._cache[key] = build()
            for a in table if isinstance(table, tuple) else (table,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
        return table

    def _coeff_elements(self) -> np.ndarray:
        """Element indices in coefficient-lex order: entry c is h_c, the
        _digit_table of every column of rows."""
        space = self.space
        return self._cached("coeff_elements", lambda: _digit_table(space.p, self.rows, space.weights))

    def elements(self) -> np.ndarray:
        """Member indices, ascending.  Pivots descend and row j is 0 above
        pivot j, so h_c's order is c's digits read with c_0 the most
        significant: entry i is _coeff_elements()[_digit_reversal(p, dim)[i]]."""
        p, dim = self.space.p, self.dim
        return self._cached("elements", lambda: self._coeff_elements()[_digit_reversal(p, dim)])

    def member_mask(self) -> np.ndarray:
        def build():
            m = np.zeros(self.space.N, dtype=bool)
            m[self._coeff_elements()] = True
            return m

        return self._cached("member_mask", build)

    def as_subset(self) -> DenseSubset:
        return DenseSubset(self.space, self.member_mask())

    def annihilator(self) -> "SubspaceBasis":
        """H^perp = {xi : <x, xi> = 0 for all x in H}, within V."""
        return self._cached("annihilator", lambda: SubspaceBasis.from_rows(self.space, _null_rows(self)))

    def coset_reps(self) -> np.ndarray:
        """Canonical representatives of V/H, ascending: the points that are 0
        at every pivot.  Entry k has digit k_r at free[r], where
        k = sum_r k_r p^r, so the entry's position is its coset id."""
        def build():
            free = list(self.free)
            return _digit_table(self.space.p, np.eye(len(free), dtype=np.int64), self.space.weights[free])

        return self._cached("coset_reps", build)

    def _localization(self, v: int, s: int = 0) -> np.ndarray:
        """G[c, t] = flat(h_c - v - x_t), shape (|H|, p**s).

        x_t has digit t_r at the free coordinate F_r for r < s, where
        t = sum_r t_r p^r, and 0 elsewhere.  h_c - v - x_t is
        sum_j c_j rows[j] - sum_r t_r e_(F_r) - v, affine in the digits
        (c_0..c_(dim-1), t_0..t_(s-1)) of the flat index c + |H| t: the
        _digit_table of rows stacked over -e_(F_r) for r < s, with weights
        p^f and shift -v.  Nothing is cached on H.

        Column 0 is the localization row of v: A.mask[G[:, 0]] is A_H^v in
        coefficient order.  When v = coset_reps()[k] with k a multiple of
        p**s, column t is the row of coset_reps()[k + t], so the block
        covers an aligned run of p**s coset ids.  G is the transposed view
        of a read-only C-order (p**s, |H|) array.
        """
        space = self.space
        steps = -np.eye(space.n, dtype=np.int64)[list(self.free[:s])]
        G = _digit_table(space.p, np.vstack([self.rows, steps]), space.weights, -space.digits(v))
        return G.reshape(space.p**s, self.size).T

    def coset_system(self) -> "CosetSystem":
        return self._cached("coset_system", lambda: _build_coset_system(self))


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
    only rep_of reads.  No library computation builds it: the scan and the
    counts read H.coset_reps() and H._localization, which builds each
    index from H's rows and caches nothing on H, Spectrum.value_at and
    the scan's witnesses take coset ids mod H^perp from _null_rows, and only
    dft and its inverse read the dual data.  It serves explicit callers:
    tests, scripts and users.
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

    Id digit r is <x, null_r> mod p for the rows null_r of _null_rows(H),
    which are 1 at F_r and -R[j, F_r] at P_j: one _digit_table over x's n
    digits.  Its terms add in increasing order of their highest digit, so
    the sum grows one axis at a time and the build costs about p/(p-1) N
    adds.
    """
    p = H.space.p
    ids = _digit_table(p, _null_rows(H).T, [p**r for r in range(len(H.free))])
    return CosetSystem(H, H.coset_reps(), ids)


# ---------------------------------------------------------------------------
# Spec operations
# ---------------------------------------------------------------------------


def annihilator_within(H: SubspaceBasis, frequencies) -> SubspaceBasis:
    """H' = {x in H : <x, xi> = 0 for every given frequency xi}, the
    annihilator of S = H^perp + span(xi): two row reductions, S and H', and
    S is cached as H'^perp.  For m distinct frequencies |H'| >= |H| / p^m."""
    space = H.space
    freqs = _check_points(space, frequencies)
    span = SubspaceBasis.from_rows(space, np.vstack([H.annihilator().rows, space.digits(freqs)]))
    refined = SubspaceBasis.from_rows(space, _null_rows(span))
    # one way only: span keeps no reference back to refined
    refined._cached("annihilator", lambda: span)
    return refined


def coset_representatives(H: SubspaceBasis) -> CosetSystem:
    return H.coset_system()


def localize(A: DenseSubset, H: SubspaceBasis, v: int) -> DenseSubset:
    """The localization (A + v) intersect H, as a subset supported on H."""
    space = same_space(A, H)
    sel = A.mask[H._localization(_check_index(space, v))[:, 0]]
    return DenseSubset.from_members(space, H._coeff_elements()[sel])


def localized_count(A: DenseSubset, H: SubspaceBasis, v: int) -> int:
    """|A_H^v| without materializing the subset."""
    space = same_space(A, H)
    return int(A.mask[H._localization(_check_index(space, v))[:, 0]].sum())


# ---------------------------------------------------------------------------
# Structured-text forms (CLI inputs and golden files)
# ---------------------------------------------------------------------------


def subset_to_dict(A: DenseSubset) -> dict:
    return {"p": A.space.p, "n": A.space.n, "members": [int(x) for x in A.members()]}


def _space_from_dict(d: dict) -> SpaceDescriptor:
    """The space of d's fields p and n: integers, or floats of integer value."""
    p, n = np.asarray(d["p"]), np.asarray(d["n"])
    if any(v.ndim or v.dtype.kind not in "iuf" or v % 1 for v in (p, n)):
        raise InputError(f"p and n must be integers, got {d['p']!r} and {d['n']!r}")
    return SpaceDescriptor(int(p), int(n))


def subset_from_dict(d: dict) -> DenseSubset:
    space = _space_from_dict(d)
    return DenseSubset.from_members(space, _check_points(space, d["members"], "members"))


def basis_to_dict(H: SubspaceBasis) -> dict:
    return {
        "p": H.space.p,
        "n": H.space.n,
        "rows": [[int(x) for x in row] for row in H.rows],
    }


def basis_from_dict(d: dict, key: str = "rows") -> SubspaceBasis:
    """The span of d[key], a list of rows of n digits, in the space of d."""
    space = _space_from_dict(d)
    what = f"basis {key}"
    try:
        rows = np.asarray(d[key])
    except ValueError as e:  # ragged rows
        raise InputError(f"{what} must be rows of n = {space.n} digits") from e
    if rows.size and (rows.ndim != 2 or rows.shape[1] != space.n):
        raise InputError(f"{what} must be rows of n = {space.n} digits, got shape {rows.shape}")
    # basis digits lie in [0, p), the point indices of F_p^1
    rows = _check_index(SpaceDescriptor(space.p, 1), rows, what)
    return SubspaceBasis.from_rows(space, rows.reshape(-1, space.n))
