import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fpnreg.errors import InputError
from fpnreg.vectorspace import (
    DenseSubset,
    SpaceDescriptor,
    SubspaceBasis,
    add,
    annihilator_within,
    basis_from_dict,
    basis_to_dict,
    coset_representatives,
    _dilate,
    _pair_index,
    digits_to_index,
    index_to_digits,
    localize,
    localized_count,
    neg,
    pairing,
    rref,
    smul,
    subset_from_dict,
    subset_to_dict,
)

from helpers import ORACLE_MAX_N, PRIMES

SP32 = SpaceDescriptor(3, 2)
SP33 = SpaceDescriptor(3, 3)
LINE = SubspaceBasis.from_rows(SP32, [[1, 0]])
ALINE = DenseSubset.from_members(SP32, [0, 1, 2])

spaces = st.sampled_from([SpaceDescriptor(3, 2), SpaceDescriptor(3, 4), SpaceDescriptor(5, 3), SpaceDescriptor(7, 2)])


class TestSpaceDescriptor:
    def test_rejects_bad_parameters(self):
        for p, n in [(2, 3), (4, 2), (9, 2), (3, 0), (3, 13), (13, 12), (15, 1)]:
            with pytest.raises(InputError):
                SpaceDescriptor(p, n)

    def test_cardinality(self):
        assert SpaceDescriptor(5, 3).N == 125


class TestCodec:
    def test_worked_examples(self):
        assert index_to_digits(SP32, 5) == (2, 1)
        assert digits_to_index(SP32, (0, 0)) == 0
        assert index_to_digits(SpaceDescriptor(5, 3), 124) == (4, 4, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            index_to_digits(SP32, 9)
        with pytest.raises(InputError):
            digits_to_index(SP32, (0, 3))
        with pytest.raises(InputError):
            digits_to_index(SP32, (0, 1, 2))

    @given(spaces, st.data())
    def test_round_trip(self, space, data):
        idx = data.draw(st.integers(0, space.N - 1))
        assert digits_to_index(space, index_to_digits(space, idx)) == idx


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
        a = digits_to_index(SP32, (1, 2))
        b = digits_to_index(SP32, (2, 2))
        assert index_to_digits(SP32, int(add(SP32, a, b))) == (0, 1)
        assert int(pairing(SP32, a, b)) == 0
        assert index_to_digits(SP32, int(smul(SP32, 2, a))) == (2, 1)

    @given(spaces, st.data())
    def test_group_laws(self, space, data):
        pts = st.integers(0, space.N - 1)
        a, b, c = data.draw(pts), data.draw(pts), data.draw(pts)
        assert int(add(space, a, b)) == int(add(space, b, a))
        assert int(add(space, a, int(add(space, b, c)))) == int(add(space, int(add(space, a, b)), c))
        assert int(add(space, a, int(neg(space, a)))) == 0

    @given(spaces, st.data())
    def test_pairing_bilinear(self, space, data):
        pts = st.integers(0, space.N - 1)
        a, b, c = data.draw(pts), data.draw(pts), data.draw(pts)
        lhs = int(pairing(space, int(add(space, a, b)), c))
        rhs = (int(pairing(space, a, c)) + int(pairing(space, b, c))) % space.p
        assert lhs == rhs
        assert int(pairing(space, a, b)) == int(pairing(space, b, a))

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
        m = min(m, ORACLE_MAX_N[p])
        gen = np.random.default_rng(seed)
        x = gen.integers(0, p**m, size=nx)
        y = gen.integers(0, p**m, size=ny)
        for a in (-1, 1, 2, (p + 1) // 2):
            for b in (-1, 1, 2, (p + 1) // 2):
                got = _pair_index(p, m, x, y, a, b)
                assert got.shape == (nx, ny)
                if m == 0:
                    assert not got.any()
                    continue
                space = SpaceDescriptor(p, m)
                dx, dy = space.digits(x), space.digits(y)
                want = space.index((a * dx[:, None, :] + b * dy[None, :, :]) % p)
                assert np.array_equal(got, want)

    def test_space_mismatch(self):
        other = DenseSubset.full(SP33)
        with pytest.raises(InputError):
            localize(other, LINE, 0)


class TestRref:
    def test_worked_examples(self):
        h = rref(SP32, [1, 2])  # (1,0) and (2,0)
        assert h.dim == 1
        h2 = rref(SP32, [digits_to_index(SP32, (1, 1)), digits_to_index(SP32, (0, 1))])
        assert h2.dim == 2
        assert {tuple(r) for r in h2.rows} == {(1, 0), (0, 1)}
        assert rref(SP32, []).dim == 0 and rref(SP32, []).size == 1

    @given(spaces, st.data())
    def test_idempotent(self, space, data):
        k = data.draw(st.integers(0, space.n))
        vecs = [data.draw(st.integers(0, space.N - 1)) for _ in range(k)]
        h = rref(space, vecs)
        again = SubspaceBasis.from_rows(space, h.rows)
        assert again == h

    @given(spaces, st.data())
    def test_span_membership(self, space, data):
        k = data.draw(st.integers(0, space.n))
        vecs = [data.draw(st.integers(0, space.N - 1)) for _ in range(k)]
        h = rref(space, vecs)
        for v in vecs:
            assert bool(h.contains(v))
        assert h.size == space.p**h.dim
        assert len(h.elements()) == h.size


class TestAnnihilator:
    def test_worked_examples(self):
        v = SubspaceBasis.full(SP32)
        assert annihilator_within(v, [0]) == v
        a = annihilator_within(v, [digits_to_index(SP32, (0, 1))])
        assert a.size == 3
        assert set(a.elements()) == {0, 1, 2}
        line = SubspaceBasis.from_rows(SP32, [[1, 0]])
        assert annihilator_within(line, [digits_to_index(SP32, (1, 0))]).size == 1

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
                assert int(pairing(space, int(x), int(xi))) == 0
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
        assert localize(ALINE, LINE, digits_to_index(SP32, (0, 1))).card == 0
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
