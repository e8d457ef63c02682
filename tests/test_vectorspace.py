import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fpnreg.errors import InputError
from fpnreg.vectorspace import (
    DenseSubset,
    SpaceDescriptor,
    SubspaceBasis,
    annihilator_within,
    basis_from_dict,
    basis_to_dict,
    coset_representatives,
    _code_spread,
    _code_sums,
    _digit_table,
    _dilate,
    _pair_index,
    localize,
    localized_count,
    subset_from_dict,
    subset_to_dict,
)

from helpers import ORACLE_MAX_N, PRIMES, digit_table_oracle

SP32 = SpaceDescriptor(3, 2)
SP33 = SpaceDescriptor(3, 3)
LINE = SubspaceBasis.from_rows(SP32, [[1, 0]])
ALINE = DenseSubset.from_members(SP32, [0, 1, 2])

spaces = st.sampled_from([SpaceDescriptor(3, 2), SpaceDescriptor(3, 4), SpaceDescriptor(5, 3), SpaceDescriptor(7, 2)])


def _multipliers(p):
    return (-1, 1, 2, (p + 1) // 2)


def _check_pair_index(p, m, nx, ny, seed):
    """_pair_index on random x, y against the digit codec, for every pair of
    multipliers."""
    gen = np.random.default_rng(seed)
    x = gen.integers(0, p**m, size=nx)
    y = gen.integers(0, p**m, size=ny)
    for a in _multipliers(p):
        for b in _multipliers(p):
            got = _pair_index(p, m, x, y, a, b)
            assert got.shape == (nx, ny) and got.dtype == np.int64
            if m == 0:
                assert not got.any()
                continue
            space = SpaceDescriptor(p, m)
            dx, dy = space.digits(x), space.digits(y)
            want = space.index((a * dx[:, None, :] + b * dy[None, :, :]) % p)
            assert np.array_equal(got, want)


class TestSpaceDescriptor:
    def test_rejects_bad_parameters(self):
        for p, n in [(2, 3), (4, 2), (9, 2), (3, 0), (3, 13), (13, 12), (15, 1)]:
            with pytest.raises(InputError):
                SpaceDescriptor(p, n)

    def test_cardinality(self):
        assert SpaceDescriptor(5, 3).N == 125


class TestCodec:
    def test_worked_examples(self):
        assert SP32.digits(5).tolist() == [2, 1]
        assert int(SP32.index((0, 0))) == 0
        assert SpaceDescriptor(5, 3).digits(124).tolist() == [4, 4, 4]

    @given(spaces, st.data())
    def test_round_trip(self, space, data):
        idx = data.draw(st.integers(0, space.N - 1))
        assert int(space.index(space.digits(idx))) == idx


class TestPointInputs:
    def test_array_and_iterable_forms_agree(self):
        members = [7, 0, 3, 3]
        want = DenseSubset.from_members(SP32, members)
        forms = (
            np.array(members),
            np.array(members, dtype=np.int32),
            np.array(members, dtype=np.uint8),
            np.array(members, dtype=float),
            iter(members),
            set(members),
        )
        for form in forms:
            assert DenseSubset.from_members(SP32, form) == want
        assert SubspaceBasis.from_vectors(SP32, np.array([1, 2])) == SubspaceBasis.from_vectors(SP32, [1, 2])
        full = SubspaceBasis.full(SP32)
        assert annihilator_within(full, np.array([3], dtype=np.int16)) == annihilator_within(full, [3])

    def test_integer_arrays_are_validated(self):
        for bad in (np.array([0, 9]), np.array([-1], dtype=np.int8)):
            with pytest.raises(InputError):
                DenseSubset.from_members(SP32, bad)
            with pytest.raises(InputError):
                SubspaceBasis.from_vectors(SP32, bad)
            with pytest.raises(InputError):
                annihilator_within(SubspaceBasis.full(SP32), bad)


class TestGroupOps:
    def test_worked_examples(self):
        a = int(SP32.index((1, 2)))
        b = int(SP32.index((2, 2)))
        assert SP32.digits(SP32.add(a, b)).tolist() == [0, 1]
        assert int(SP32.pair(a, b)) == 0
        assert SP32.digits(SP32.smul(2, a)).tolist() == [2, 1]

    @given(spaces, st.data())
    def test_group_laws(self, space, data):
        pts = st.integers(0, space.N - 1)
        a, b, c = data.draw(pts), data.draw(pts), data.draw(pts)
        assert int(space.add(a, b)) == int(space.add(b, a))
        assert int(space.add(a, space.add(b, c))) == int(space.add(space.add(a, b), c))
        assert int(space.add(a, space.neg(a))) == 0

    @given(spaces, st.data())
    def test_pairing_bilinear(self, space, data):
        pts = st.integers(0, space.N - 1)
        a, b, c = data.draw(pts), data.draw(pts), data.draw(pts)
        lhs = int(space.pair(space.add(a, b), c))
        rhs = (int(space.pair(a, c)) + int(space.pair(b, c))) % space.p
        assert lhs == rhs
        assert int(space.pair(a, b)) == int(space.pair(b, a))

    @pytest.mark.parametrize("p", PRIMES)
    @given(
        m=st.integers(0, 5),
        kinds=st.lists(st.sampled_from(("zero", "single", "dense")), max_size=4),
        shifted=st.booleans(),
        doubled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=0, kinds=["dense", "single"], shifted=True, doubled=False, seed=0)  # the one-point tensor
    @example(m=3, kinds=["zero", "dense"], shifted=False, doubled=False, seed=1)  # an all-zero column
    @example(m=3, kinds=["zero", "single"], shifted=True, doubled=True, seed=2)
    def test_digit_table_matches_codec(self, p, m, kinds, shifted, doubled, seed):
        gen = np.random.default_rng(seed)
        base = 2 * p if doubled else p
        while base**m > 30_000:  # keep the oracle's decode small
            m -= 1
        M = np.zeros((m, len(kinds)), dtype=np.int64)
        for c, kind in enumerate(kinds):
            if m and kind == "single":
                M[gen.integers(m), c] = gen.integers(1, p)
            elif kind == "dense":
                M[:, c] = gen.integers(1, p, size=m)
        M -= p * gen.integers(0, 2, size=M.shape)  # entries count mod p
        shift = gen.integers(-p, 2 * p, size=len(kinds)) if shifted else None
        weights = gen.integers(1, 100, size=len(kinds))
        got = _digit_table(p, M, weights, shift, base if doubled else None)
        want = digit_table_oracle(p, M, weights, np.zeros(len(kinds)) if shift is None else shift, base)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("p", PRIMES)
    @given(n=st.integers(1, max(ORACLE_MAX_N.values())))
    @example(n=1)
    def test_dilate_matches_codec(self, p, n):
        space = SpaceDescriptor(p, min(n, ORACLE_MAX_N[p]))
        idx = np.arange(space.N, dtype=np.int64)
        for c in range(1, p):  # c = p - 1 is negation
            assert np.array_equal(_dilate(idx, p, space.n, c), space.smul(c, idx))

    @pytest.mark.parametrize("p", PRIMES)
    @given(
        m=st.integers(0, max(ORACLE_MAX_N.values())),
        nx=st.integers(0, 6),
        ny=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=0, nx=3, ny=2, seed=0)  # the one-point tensor
    @example(m=1, nx=0, ny=4, seed=0)  # no x
    @example(m=2, nx=4, ny=0, seed=0)  # no y
    def test_pair_index_matches_codec(self, p, m, nx, ny, seed):
        _check_pair_index(p, min(m, ORACLE_MAX_N[p]), nx, ny, seed)

    @pytest.mark.parametrize(
        "p, m",
        # the largest m per p under the dense cap, whose high-half tables
        # the small oracle sizes above never fill, then m = 0 and m = 1
        [(3, 12), (5, 10), (7, 8), (11, 6), (13, 6), (3, 0), (13, 0), (3, 1), (13, 1)],
    )
    def test_pair_index_at_the_cap(self, p, m):
        _check_pair_index(p, m, 20, 20, 100 * p + m)
        tables = [*_code_sums(p, m)]
        for a in _multipliers(p):
            tables += _code_spread(p, m, a % p)[1:]
        assert sum(t.nbytes for t in tables) <= 4 * 2**20

    def test_space_mismatch(self):
        other = DenseSubset.full(SP33)
        with pytest.raises(InputError):
            localize(other, LINE, 0)


class TestRref:
    """SubspaceBasis.from_vectors: the canonical row-reduced basis of a span."""

    def test_worked_examples(self):
        h = SubspaceBasis.from_vectors(SP32, [1, 2])  # (1,0) and (2,0)
        assert h.dim == 1
        h2 = SubspaceBasis.from_vectors(SP32, [int(SP32.index((1, 1))), int(SP32.index((0, 1)))])
        assert h2.dim == 2
        assert {tuple(r) for r in h2.rows} == {(1, 0), (0, 1)}
        h0 = SubspaceBasis.from_vectors(SP32, [])
        assert h0.dim == 0 and h0.size == 1

    @given(spaces, st.data())
    def test_idempotent(self, space, data):
        k = data.draw(st.integers(0, space.n))
        vecs = [data.draw(st.integers(0, space.N - 1)) for _ in range(k)]
        h = SubspaceBasis.from_vectors(space, vecs)
        again = SubspaceBasis.from_rows(space, h.rows)
        assert again == h

    @given(spaces, st.data())
    def test_span_membership(self, space, data):
        k = data.draw(st.integers(0, space.n))
        vecs = [data.draw(st.integers(0, space.N - 1)) for _ in range(k)]
        h = SubspaceBasis.from_vectors(space, vecs)
        for v in vecs:
            assert bool(h.contains(v))
        assert h.size == space.p**h.dim
        assert len(h.elements()) == h.size


class TestAnnihilator:
    def test_worked_examples(self):
        v = SubspaceBasis.full(SP32)
        assert annihilator_within(v, [0]) == v
        a = annihilator_within(v, [int(SP32.index((0, 1)))])
        assert a.size == 3
        assert set(a.elements()) == {0, 1, 2}
        line = SubspaceBasis.from_rows(SP32, [[1, 0]])
        assert annihilator_within(line, [int(SP32.index((1, 0)))]).size == 1

    @given(st.data())
    def test_exhaustive_orthogonality(self, data):
        space = data.draw(st.sampled_from([SpaceDescriptor(3, 3), SpaceDescriptor(3, 4), SpaceDescriptor(5, 2)]))
        gen = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        h = SubspaceBasis.from_vectors(space, gen.integers(0, space.N, size=int(gen.integers(0, space.n + 1))))
        m = int(gen.integers(0, 4))
        freqs = gen.integers(0, space.N, size=m).astype(np.int64)
        hp = annihilator_within(h, freqs)
        # containment and total orthogonality, checked exhaustively
        for x in hp.elements():
            assert bool(h.contains(int(x)))
            for xi in freqs:
                assert int(space.pair(int(x), int(xi))) == 0
        # size guarantee |H'| >= |H| / p^m
        assert hp.size * space.p ** len(set(freqs.tolist())) >= h.size


class TestCosets:
    def test_worked_examples(self):
        assert coset_representatives(SubspaceBasis.full(SP32)).reps.tolist() == [0]
        assert len(coset_representatives(SubspaceBasis.zero(SP32)).reps) == 9
        assert coset_representatives(LINE).reps.tolist() == [0, 3, 6]

    @given(spaces, st.data())
    def test_partition_and_minimality(self, space, data):
        gen = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        h = SubspaceBasis.from_vectors(space, gen.integers(0, space.N, size=int(gen.integers(0, space.n + 1))))
        cs = coset_representatives(h)
        assert cs.K * h.size == space.N
        # reps are pairwise inequivalent and minimal in their cosets
        seen = set()
        for r in cs.reps:
            coset = space.add(h.elements(), int(r))
            assert int(coset.min()) == int(r)
            key = frozenset(int(x) for x in coset)
            assert key not in seen
            seen.add(key)

    def test_rep_of_consistency(self):
        cs = coset_representatives(LINE)
        for v in range(9):
            rep = int(cs.rep_of(v))
            assert bool(LINE.contains(int(SP32.sub(v, rep))))


class TestLocalize:
    def test_worked_examples(self):
        assert localize(DenseSubset.full(SP32), LINE, 5).card == 3
        assert localize(DenseSubset.empty(SP32), LINE, 5).card == 0
        assert localize(ALINE, LINE, int(SP32.index((0, 1)))).card == 0
        assert localize(ALINE, LINE, 0).card == 3

    def test_supported_on_h(self):
        got = localize(DenseSubset.full(SP32), LINE, 4)
        assert set(got.members()) <= set(int(x) for x in LINE.elements())

    @given(spaces, st.data())
    def test_coset_invariant_and_total(self, space, data):
        gen = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        h = SubspaceBasis.from_vectors(space, gen.integers(0, space.N, size=int(gen.integers(0, space.n + 1))))
        a = DenseSubset(space, gen.random(space.N) < 0.5)
        cs = coset_representatives(h)
        total = sum(localized_count(a, h, int(v)) for v in cs.reps)
        assert total == a.card
        v = int(gen.integers(0, space.N))
        shift = int(h.elements()[gen.integers(0, h.size)])
        assert localized_count(a, h, v) == localized_count(a, h, int(space.add(v, shift)))


class TestSerialization:
    def test_subset_round_trip(self):
        d = subset_to_dict(ALINE)
        assert d == {"p": 3, "n": 2, "members": [0, 1, 2]}
        assert subset_from_dict(d) == ALINE

    def test_basis_round_trip(self):
        d = basis_to_dict(LINE)
        assert d["rows"] == [[1, 0]]
        assert basis_from_dict(d) == LINE

    def test_basis_rejects_bad_digits(self):
        with pytest.raises(InputError):
            basis_from_dict({"p": 3, "n": 2, "rows": [[3, 0]]})

    @given(spaces, st.data())
    def test_random_round_trips(self, space, data):
        gen = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        a = DenseSubset(space, gen.random(space.N) < 0.5)
        assert subset_from_dict(subset_to_dict(a)) == a
        h = SubspaceBasis.from_vectors(space, gen.integers(0, space.N, size=2))
        assert basis_from_dict(basis_to_dict(h)) == h
