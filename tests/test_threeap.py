import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fpnreg.threeap as threeap
import fpnreg.vectorspace as vectorspace
from fpnreg.errors import ContractError, InputError
from fpnreg.randmodel import sample_exact
from fpnreg.rng import substream
from fpnreg.threeap import (
    APTriple,
    build_petal_candidates,
    canonical_split,
    capset_max_exhaustive,
    count_3aps_fourier,
    count_3aps_naive,
    density_test,
    find_nontrivial_3ap,
    flower_find,
    flower_from_dict,
    flower_to_dict,
)
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor, SubspaceBasis, _pair_digits

from helpers import (
    ORACLE_MAX_N,
    PRIMES,
    SUBSET_KINDS,
    ap_free_core,
    peak_bytes,
    random_subset,
    run_peak_script,
    subset_of_kind,
    validate_flower,
)

SP31 = SpaceDescriptor(3, 1)
SP32 = SpaceDescriptor(3, 2)
SP34 = SpaceDescriptor(3, 4)
SP36 = SpaceDescriptor(3, 6)
CAP4 = DenseSubset.from_members(SP32, [0, 1, 3, 4])


class TestCounting:
    def test_full_space(self):
        assert count_3aps_naive(DenseSubset.full(SP32)) == 81
        assert count_3aps_naive(DenseSubset.full(SP32), include_trivial=False) == 72
        assert count_3aps_fourier(DenseSubset.full(SP32)) == 81

    def test_two_points_no_progression(self):
        assert count_3aps_naive(DenseSubset.from_members(SP31, [0, 1]), include_trivial=False) == 0

    def test_cap_set_free(self):
        assert count_3aps_naive(CAP4, include_trivial=False) == 0

    def test_line_count(self):
        line = DenseSubset.from_members(SP32, [0, 1, 2])
        assert count_3aps_fourier(line) == 9
        assert count_3aps_naive(line) == 9

    def test_exhaustive_f32_sweep(self):
        for m in range(512):
            A = DenseSubset(SP32, np.array([(m >> i) & 1 for i in range(9)], bool))
            assert count_3aps_fourier(A) == count_3aps_naive(A)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_random_agreement_f34(self, seed):
        gen = np.random.default_rng(seed)
        A = random_subset(SP34, gen)
        assert count_3aps_fourier(A) == count_3aps_naive(A)

    @given(st.integers(0, 10**6))
    @settings(max_examples=15)
    def test_monotone_under_growth(self, seed):
        gen = np.random.default_rng(seed)
        members = gen.permutation(SP34.N)
        prev = 0
        for size in (5, 20, 40, 81):
            A = DenseSubset.from_members(SP34, members[:size])
            cur = count_3aps_naive(A, include_trivial=False)
            assert cur >= prev
            prev = cur

    @pytest.mark.parametrize("p", PRIMES)
    @given(n=st.integers(1, max(ORACLE_MAX_N.values())), kind=st.sampled_from(SUBSET_KINDS), seed=st.integers(0, 10**6))
    @example(n=1, kind="empty", seed=0)
    @example(n=1, kind="full", seed=0)
    def test_fourier_matches_naive_every_prime(self, p, n, kind, seed):
        space = SpaceDescriptor(p, min(n, ORACLE_MAX_N[p]))
        A = subset_of_kind(space, kind, np.random.default_rng(seed))
        assert count_3aps_fourier(A) == count_3aps_naive(A)

    def test_rounding_margin_guard(self, monkeypatch):
        # scaling the spectrum by s scales the cubic total 81 by s^3
        full = DenseSubset.full(SP32)
        exact = threeap.full_spectrum
        for total, ok in ((81.2, True), (81.5, False)):
            s = (total / 81) ** (1 / 3)
            monkeypatch.setattr(threeap, "full_spectrum", lambda space, v, s=s: exact(space, v) * s)
            if ok:
                assert count_3aps_fourier(full) == 81
            else:
                with pytest.raises(ContractError):
                    count_3aps_fourier(full)

    def test_p5_counts(self):
        sp52 = SpaceDescriptor(5, 2)
        gen = np.random.default_rng(3)
        for _ in range(10):
            A = random_subset(sp52, gen)
            assert count_3aps_fourier(A) == count_3aps_naive(A)


# Runs in a fresh interpreter (helpers.PEAK_PRELUDE supplies measure).  The
# mask comes from uint8 draws, with no N-sized float temporary.
_PEAK_SCRIPT = """
import numpy as np
from fpnreg.threeap import count_3aps_fourier
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor
count_3aps_fourier(DenseSubset.full(SpaceDescriptor(5, 2)))
space = SpaceDescriptor(5, 10)
bits = np.random.default_rng(0).integers(0, 2, size=space.N, dtype=np.uint8)
A = DenseSubset(space, bits.view(bool))
_, reading = measure(lambda: count_3aps_fourier(A))
print(json.dumps({"N": space.N, **reading}))
"""


def test_count_memory_budget_at_the_cap():
    """count_3aps_fourier at 5^10 peaks at most 2.5 N*16 bytes above the mask."""
    out = run_peak_script(_PEAK_SCRIPT)
    assert peak_bytes(out) <= 2.5 * out["N"] * 16


# A fresh interpreter again; the sets' masks exist before the first reading,
# and the spectral count of the 1000-member set runs after the last.
_SCAN_PEAK_SCRIPT = """
import numpy as np
from fpnreg.threeap import count_3aps_fourier, count_3aps_naive, find_nontrivial_3ap
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor
small = DenseSubset.full(SpaceDescriptor(5, 2))
find_nontrivial_3ap(small), count_3aps_naive(small)
space = SpaceDescriptor(5, 10)
line, point = DenseSubset.from_members(space, [0, 1, 2]), DenseSubset.from_members(space, [space.N // 3])
many = DenseSubset.from_members(space, np.random.default_rng(0).choice(space.N, 1000, replace=False))
t, find = measure(lambda: find_nontrivial_3ap(line))
count, naive = measure(lambda: count_3aps_naive(point))
many_count, many_naive = measure(lambda: count_3aps_naive(many))
print(json.dumps({
    "N": space.N, "triple": [t.a, t.d], "count": count, "find": find, "naive": naive,
    "many_count": many_count, "many_spectral": count_3aps_fourier(many), "many_naive": many_naive,
}))
"""


def test_progression_scan_memory_budget_at_the_cap():
    """find_nontrivial_3ap and a one-member count_3aps_naive at 5^10 each
    peak at most 16 N bytes above the masks; a 1000-member count matches the
    spectral count and peaks at most 4 N bytes."""
    out = run_peak_script(_SCAN_PEAK_SCRIPT)
    assert out["triple"] == [0, 1] and out["count"] == 1
    assert out["many_count"] == out["many_spectral"]
    assert peak_bytes(out["find"]) <= 16 * out["N"]
    assert peak_bytes(out["naive"]) <= 16 * out["N"]
    assert peak_bytes(out["many_naive"]) <= 4 * out["N"]


@pytest.mark.parametrize("pn", [(3, 6), (5, 4)])
def test_progression_queries_run_without_the_codec(pn, monkeypatch):
    """The exhaustive count, the triple search and the density test decode
    and encode no point through SpaceDescriptor.digits or .index."""
    space = SpaceDescriptor(*pn)
    A = random_subset(space, np.random.default_rng(5), density=0.2)

    def refuse(self, value):
        raise AssertionError("the digit codec was called")

    monkeypatch.setattr(SpaceDescriptor, "digits", refuse)
    monkeypatch.setattr(SpaceDescriptor, "index", refuse)
    assert count_3aps_naive(A) > A.card
    assert find_nontrivial_3ap(A) is not None
    assert 0 < density_test(A, 0.1, 20, 0).failures < 20  # hit and AP-free trials both run


# R (r = 10 sqrt(N) points) exists before the reading; the trial hits.
_DENSITY_PEAK_SCRIPT = """
import math
from fpnreg.randmodel import sample_exact
from fpnreg.threeap import density_test
from fpnreg.vectorspace import SpaceDescriptor
density_test(sample_exact(SpaceDescriptor(5, 3), 100, 0), 0.5, 1, 0)
space = SpaceDescriptor(int(sys.argv[1]), int(sys.argv[2]))
R = sample_exact(space, int(10 * math.sqrt(space.N)), 3)
R.members()
rep, reading = measure(lambda: density_test(R, 0.5, 1, 4))
print(json.dumps({"N": space.N, "outcomes": list(rep.outcomes), **reading}))
"""


@pytest.mark.parametrize("p, n", [(5, 10), (13, 6)])
def test_density_test_memory_budget_at_the_cap(p, n):
    """One density_test trial that hits, on r = 10 sqrt(N) points with
    alpha = 1/2, peaks at most 4 N bytes above R: the subset's mask and one
    run of the pair search, no transform."""
    out = run_peak_script(_DENSITY_PEAK_SCRIPT, p, n)
    assert out["outcomes"] == [0]
    assert peak_bytes(out) <= 4 * out["N"]


class TestFindTriple:
    def test_canonical_first(self):
        t = find_nontrivial_3ap(DenseSubset.full(SP31))
        assert (t.a, t.d) == (0, 1) and t.nontrivial
        assert t.terms(SP31) == (0, 1, 2)

    def test_absent_cases(self):
        assert find_nontrivial_3ap(CAP4) is None
        assert find_nontrivial_3ap(DenseSubset.empty(SP32)) is None

    @given(st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_absent_iff_zero_count(self, seed):
        gen = np.random.default_rng(seed)
        A = random_subset(SP32, gen, density=0.3)
        triples = (APTriple(int(a), d) for a in A.members() for d in range(1, SP32.N))
        first = next((t for t in triples if A.mask[list(t.terms(SP32))].all()), None)
        count = count_3aps_naive(A, include_trivial=False)
        assert find_nontrivial_3ap(A) == first
        assert (first is None) == (count == 0)
        with mock.patch.object(vectorspace, "_PAIR_BLOCK", 1):  # one member per pair run
            assert find_nontrivial_3ap(A) == first
            assert count_3aps_naive(A, include_trivial=False) == count


class TestCapset:
    def test_dimension_one(self):
        size, witness = capset_max_exhaustive(3, 1)
        assert size == 2 and sorted(witness.members()) == [0, 1]

    def test_dimension_two(self):
        size, witness = capset_max_exhaustive(3, 2)
        assert size == 4
        assert witness == CAP4
        assert find_nontrivial_3ap(witness) is None

    def test_dimension_three(self):
        size, witness = capset_max_exhaustive(3, 3)
        assert size == 9
        assert witness.card == 9
        assert find_nontrivial_3ap(witness) is None

    def test_rejects_out_of_scope(self):
        with pytest.raises(InputError):
            capset_max_exhaustive(3, 4)
        with pytest.raises(InputError):
            capset_max_exhaustive(5, 2)


class TestDensityTest:
    def test_full_space_alpha_one(self):
        rep = density_test(DenseSubset.full(SP32), 1.0, 5, 1)
        assert rep.failure_freq == 0.0 and rep.witnesses == ()

    def test_cap_set_always_fails(self):
        rep = density_test(CAP4, 1.0, 6, 1)
        assert rep.failure_freq == 1.0
        assert len(rep.witnesses) == 6
        assert rep.outcomes == (1,) * 6

    def test_random_sparse_set_passes(self):
        sp310 = SpaceDescriptor(3, 10)
        R = sample_exact(sp310, int(30 * np.sqrt(sp310.N)), 5)
        rep = density_test(R, 0.5, 20, 7)
        assert rep.failure_freq == 0.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(InputError):
            density_test(CAP4, 1.5, 5, 1)

    def test_deterministic(self):
        a = density_test(CAP4, 0.75, 10, 3)
        b = density_test(CAP4, 0.75, 10, 3)
        assert a == b

    def test_only_ap_free_trials_transform(self, monkeypatch):
        # a trial the pair search decides by a hit runs no spectral count;
        # each AP-free trial runs one as its cross-check
        calls = []
        exact = threeap.full_spectrum
        monkeypatch.setattr(threeap, "full_spectrum", lambda space, v: calls.append(space) or exact(space, v))
        density_test(DenseSubset.full(SP32), 1.0, 5, 1)
        assert calls == []
        density_test(CAP4, 1.0, 6, 1)
        assert calls == [SP32] * 6

    def test_cross_check_catches_a_wrong_certificate(self, monkeypatch):
        monkeypatch.setattr(threeap, "count_3aps_fourier", lambda A: A.card + 2)
        with pytest.raises(AssertionError):
            density_test(CAP4, 1.0, 1, 1)


def _decide(A: DenseSubset) -> tuple[bool, np.ndarray]:
    """density_test's decision on A (a hit anywhere) and the hit rows of the
    full pass, stacked in order."""
    space = A.space
    half = _pair_digits(space.p, space.n, A.members(), space.inv2)
    k, cap = A.card, vectorspace._pair_step(A.card, space.n)
    at, rows = 0, [np.zeros((0, k), dtype=bool)]
    for i, (lo, hits) in enumerate(threeap._midpoint_hits(A.mask, space.p, space.n, half)):
        assert lo == at and len(hits) == min(4**i, cap, k - lo)  # blocks of 1, 4, 16, ... rows
        at += len(hits)
        rows.append(hits)
    hits = np.concatenate(rows)
    assert hits.shape == (k, k)
    return bool(hits.any()), hits


def _codec_hits(A: DenseSubset) -> np.ndarray:
    """The codec oracle: hits[i, j] = [x_i != x_j and (x_i + x_j)/2 lies in
    A] over A's ascending members, each midpoint decoded and re-encoded
    through the digit codec."""
    space = A.space
    dx = space.digits(A.members())
    mids = space.index((dx[:, None, :] + dx[None, :, :]) * space.inv2 % space.p)
    return A.mask[mids] & ~np.eye(A.card, dtype=bool)


def _check_decider(A: DenseSubset):
    """The pair search hits iff A holds a nontrivial 3AP, and its hits are the
    codec-decoded midpoints of every pair x != z, whose number is the
    nontrivial count; also in one-row runs, and through density_test on the
    whole of A."""
    want = _codec_hits(A)
    has_ap = bool(want.any())
    for block in (None, 1):
        with mock.patch.object(vectorspace, "_PAIR_BLOCK", block or vectorspace._PAIR_BLOCK):
            hit, hits = _decide(A)
            assert hit == has_ap
            assert np.array_equal(hits, want)
            assert count_3aps_naive(A, include_trivial=False) == want.sum()
            assert density_test(A, 1.0, 1, 0).outcomes == (int(not has_ap),)


class TestDecider:
    @pytest.mark.parametrize(
        "A",
        [
            DenseSubset.empty(SP32),
            DenseSubset.from_members(SP32, [5]),
            CAP4,
            DenseSubset.full(SP32),
            DenseSubset.full(SP31),
            DenseSubset.from_members(SP31, [0, 2]),
            DenseSubset.from_members(SpaceDescriptor(13, 1), [1, 4, 7]),
        ],
        ids=["empty", "point", "cap4", "full", "n1-full", "n1-pair", "n1-line"],
    )
    def test_explicit_sets(self, A):
        _check_decider(A)

    @pytest.mark.parametrize("p", PRIMES)
    @given(
        n=st.integers(1, max(ORACLE_MAX_N.values())),
        density=st.sampled_from([0.02, 0.05, 0.1, 0.3]),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=15)
    def test_agrees_with_naive_count(self, p, n, density, seed):
        space = SpaceDescriptor(p, min(n, ORACLE_MAX_N[p]))
        _check_decider(DenseSubset(space, np.random.default_rng(seed).random(space.N) < density))


def _random_set(space: SpaceDescriptor, seed: int, density: float) -> DenseSubset:
    return random_subset(space, np.random.default_rng(seed), density)


class TestDensityRederivation:
    """Every density trial re-derived by hand: its subset is the sorted
    members[substream(seed, t).choice(|R|, k, replace=False)], and the codec
    oracle decides it."""

    @pytest.mark.parametrize(
        "R, alpha, trials, seed, ap_free",
        [
            (_random_set(SP34, 1, 0.9), 0.1, 12, 2, True),  # k = 8
            (_random_set(SP34, 1, 0.95), 0.92, 6, 3, False),  # k = 70, probed
            (_random_set(SpaceDescriptor(5, 3), 2, 0.8), 0.08, 12, 4, True),  # k = 9
            (_random_set(SpaceDescriptor(5, 3), 2, 0.8), 0.7, 6, 5, False),  # k = 72, probed
            (_random_set(SpaceDescriptor(7, 2), 3, 1.0), 0.1, 12, 6, True),  # k = 5
            # k = 70: {0, 1, 3}^4 and one stray point; every trial passes the probe
            (DenseSubset.from_members(SpaceDescriptor(7, 4), ap_free_core(1)), 0.85, 24, 7, True),
            # k = 400 of 12000: numpy's choice(shuffle=False) picks another set here
            (sample_exact(SpaceDescriptor(5, 6), 12000, 8), 1 / 30, 4, 9, False),
        ],
        ids=["3^4-small", "3^4-large", "5^3-small", "5^3-large", "7^2", "7^4-core", "5^6-12000"],
    )
    def test_trials_match_their_substreams(self, monkeypatch, R, alpha, trials, seed, ap_free):
        k = math.ceil(alpha * R.card)
        members = R.members()
        subs = [np.sort(members[substream(seed, t).choice(R.card, k, replace=False)]) for t in range(trials)]
        free = [not _codec_hits(DenseSubset.from_members(R.space, s)).any() for s in subs]
        assert any(free) == ap_free

        rep = density_test(R, alpha, trials, seed)
        assert rep.subset_size == k
        assert rep.outcomes == tuple(int(f) for f in free)
        assert rep.witnesses == tuple(tuple(s.tolist()) for s, f in zip(subs, free) if f)[:10]

        # with the probe gated off every trial reaches the full search, whose
        # mask is the trial's subset
        seen = []
        search = threeap._midpoint_hits
        monkeypatch.setattr(threeap, "_PROBE", k)
        monkeypatch.setattr(
            threeap, "_midpoint_hits", lambda mask, *rest: seen.append(np.flatnonzero(mask)) or search(mask, *rest)
        )
        assert density_test(R, alpha, trials, seed) == rep
        assert [s.tolist() for s in seen] == [s.tolist() for s in subs]


class TestCanonicalSplit:
    @given(st.integers(0, 10**6), st.integers(1, 5))
    @settings(max_examples=25)
    def test_partition_properties(self, seed, m):
        gen = np.random.default_rng(seed)
        A = random_subset(SP34, gen)
        parts = canonical_split(A, m)
        sizes = [p.card for p in parts]
        assert sum(sizes) == A.card
        assert max(sizes) - min(sizes) <= 1
        union = np.zeros(SP34.N, dtype=int)
        for p in parts:
            union += p.mask
        assert union.max(initial=0) <= 1
        assert np.array_equal(union.astype(bool), A.mask)


class TestPetalCandidates:
    def test_full_set_all_reps_qualify(self):
        H = SubspaceBasis.from_rows(SP34, np.eye(4, dtype=int)[:2])
        cands = build_petal_candidates(DenseSubset.full(SP34), H, 0.5, 1.0, 3)
        K = SP34.N // H.size
        assert cands.pre_truncation == K
        assert len(cands.reps) == cands.target
        assert not cands.shortfall
        # truncation keeps the lowest rep indices
        cs = H.coset_system()
        assert list(cands.reps) == [int(x) for x in cs.reps[: cands.target]]

    def test_concentrated_set_shortfall(self):
        H = SubspaceBasis.from_rows(SP34, np.eye(4, dtype=int)[:2])
        A = DenseSubset.from_members(SP34, H.elements())  # a single coset
        cands = build_petal_candidates(A, H, 0.5, 1.0, 3)
        assert list(cands.reps) == [0]
        assert cands.target == 1 and not cands.shortfall
        # a larger target exposes the shortfall of the concentrated set
        cands2 = build_petal_candidates(A, H, 0.5, 1.0, 1)
        assert cands2.target == 3 and cands2.shortfall
        assert list(cands2.reps) == [0]


class TestFlowerFind:
    def test_full_set_has_flower(self):
        sp33 = SpaceDescriptor(3, 3)
        rep = flower_find(DenseSubset.full(sp33), 3, 0.4, 1.0, 1)
        assert rep.found
        assert rep.flower.petal_count >= 1
        assert validate_flower(rep.flower, DenseSubset.full(sp33)) == []

    def test_constructed_no_cross_part(self):
        # three parallel lines whose quotient image is 3AP-free
        sp33 = SpaceDescriptor(3, 3)
        H1 = SubspaceBasis.from_rows(sp33, [[1, 0, 0]])
        cs = H1.coset_system()
        quot = [cs.reps[0], cs.reps[1], cs.reps[3]]
        members = np.concatenate([sp33.add(H1.elements(), int(v)) for v in quot])
        A = DenseSubset.from_members(sp33, members)
        rep = flower_find(A, 3, 0.2, 1.0, 1)
        assert not rep.found and rep.failure_stage == "no_cross_part_3aps"

    def test_requires_three_parts(self):
        with pytest.raises(InputError):
            flower_find(DenseSubset.full(SP32), 2, 0.3, 0.5, 1)

    def test_found_rate_calibrated(self):
        # eps = 0.15 drives refinement deep enough that candidates abound;
        # at these exact seeds every instance yields a flower (pilot: 50/50)
        found = 0
        validated = 0
        for seed in range(20):
            A = _half_of_half_instance(seed)
            rep = flower_find(A, 3, 0.15, 0.5, 1)
            if rep.found:
                found += 1
                if validate_flower(rep.flower, A) == []:
                    validated += 1
        assert found >= 16  # frozen from the 50-seed pilot (100% observed)
        assert validated == found

    def test_failure_reports_are_data(self):
        rep = flower_find(DenseSubset.from_members(SP36, [0, 1, 2]), 3, 0.3, 0.5, 1)
        assert not rep.found
        assert rep.failure_stage in {"no_regular_subspace", "empty_petal_candidates", "no_cross_part_3aps"}

    def test_serialization_round_trip(self):
        sp33 = SpaceDescriptor(3, 3)
        rep = flower_find(DenseSubset.full(sp33), 3, 0.4, 1.0, 1)
        f = rep.flower
        back = flower_from_dict(flower_to_dict(f))
        assert back.H == f.H and back.center == f.center and back.petals == f.petals
        assert back.parts == f.parts
        assert validate_flower(back) == []

    def test_deterministic(self):
        A = _half_of_half_instance(3)
        r1 = flower_find(A, 3, 0.15, 0.5, 1)
        r2 = flower_find(A, 3, 0.15, 0.5, 1)
        assert r1.found == r2.found
        if r1.found:
            assert r1.flower.petals == r2.flower.petals
            assert r1.flower.center == r2.flower.center


def _half_of_half_instance(seed):
    """A = uniform half of a random half-density R in F_3^6."""
    R = sample_exact(SP36, SP36.N // 2, seed)
    gen = substream(seed, 1)
    members = R.members()
    pick = np.sort(gen.choice(len(members), size=int(0.5 * R.card), replace=False))
    return DenseSubset.from_members(SP36, members[pick])
