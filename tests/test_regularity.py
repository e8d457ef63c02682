from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fpnreg import regularity
from fpnreg.errors import ContractError, InputError
from fpnreg.fourier import DenseFunction, dft
from fpnreg.regularity import (
    TowerValue,
    classify_vectors,
    energy,
    refine_step,
    regularize,
    regularize_multi,
    restricted_sup,
    tower,
)
from fpnreg.threeap import canonical_split
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor, SubspaceBasis, localize

from helpers import PRIMES, classify_oracle, random_subset, random_subspace, witness_map_oracle

SP32 = SpaceDescriptor(3, 2)
SP34 = SpaceDescriptor(3, 4)
V32 = SubspaceBasis.full(SP32)
LINE = SubspaceBasis.from_rows(SP32, [[1, 0]])
ALINE = DenseSubset.from_members(SP32, [0, 1, 2])


class TestRestrictedSup:
    def test_full_set_flat(self):
        assert restricted_sup(DenseSubset.full(SP32), V32, 4) < 1e-12
        assert restricted_sup(DenseSubset.full(SP32), LINE, 7) < 1e-12

    def test_subgroup_concentrated(self):
        assert restricted_sup(ALINE, LINE, 0) < 1e-12

    def test_line_in_full_space(self):
        for v in range(9):
            assert abs(restricted_sup(ALINE, V32, v) - 1 / 3) < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=15)
    def test_matches_public_transform(self, seed):
        gen = np.random.default_rng(seed)
        A = random_subset(SP34, gen)
        H = random_subspace(SP34, gen)
        v = int(gen.integers(0, SP34.N))
        spec = dft(DenseFunction.from_subset(localize(A, H, v), H), H)
        assert abs(restricted_sup(A, H, v) - spec.sup_nontrivial()) < 1e-12


class TestClassify:
    def test_full_set_regular(self):
        assert classify_vectors(DenseSubset.full(SP32), V32, 0.5).is_regular

    def test_line_irregular_at_full_space(self):
        cls = classify_vectors(ALINE, V32, 0.5)
        assert not cls.is_regular
        assert cls.irregular_mass == 9
        assert abs(cls.threshold - 1 / 6) < 1e-12

    def test_line_regular_at_line(self):
        cls = classify_vectors(ALINE, LINE, 0.5)
        assert cls.is_regular and cls.irregular_mass == 0

    def test_empty_set_vacuous(self):
        cls = classify_vectors(DenseSubset.empty(SP32), LINE, 0.5)
        assert cls.is_regular

    def test_rejects_bad_eps(self):
        with pytest.raises(InputError):
            classify_vectors(ALINE, V32, 0.0)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10)
    def test_counts_match_localization(self, seed):
        gen = np.random.default_rng(seed)
        A = random_subset(SP34, gen)
        H = random_subspace(SP34, gen)
        cls = classify_vectors(A, H, 0.3)
        for k in range(min(5, len(cls.reps))):
            assert cls.counts[k] == localize(A, H, int(cls.reps[k])).card


class TestScanAgainstCharacterSums:
    """classify_vectors, and the joint scan of three disjoint parts, against
    classify_oracle, with the scan cut into blocks of one coset, of a few
    cosets, and of every coset."""

    @given(st.sampled_from([(3, 5), (5, 3), (7, 3), (11, 2), (13, 2)]), st.integers(0, 10**6), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    @example(shape=(3, 4), seed=0, block_kind=0)
    @example(shape=(5, 1), seed=1, block_kind=1)
    def test_matches_oracle(self, shape, seed, block_kind):
        gen = np.random.default_rng(seed)
        space = SpaceDescriptor(*shape)
        A = random_subset(space, gen)
        H = random_subspace(space, gen)
        eps = float(gen.uniform(0.05, 0.9))
        block = (1, 3 * H.size + 1, regularity._SCAN_BLOCK)[block_kind]
        with mock.patch.object(regularity, "_SCAN_BLOCK", block):
            cls = classify_vectors(A, H, eps)
        reps, counts, sups, witnesses = classify_oracle(A, H, eps, regularity._TIE_MARGIN)
        assert np.array_equal(cls.reps, reps)
        assert np.array_equal(cls.counts, counts)
        assert np.abs(cls.sup_values - sups).max() < 1e-12
        assert np.array_equal(cls.witness_freqs, witnesses)

        # a random split, then A less one point beside an empty part and that
        # point, whose nontrivial entries all tie
        members = A.members()
        label = gen.integers(0, 3, size=members.size)
        splits = [[members[label == i] for i in range(3)]]
        if members.size:
            splits.append([members[1:], members[:0], members[:1]])
        for split in splits:
            parts = [DenseSubset.from_members(space, pts) for pts in split]
            want = [classify_oracle(P, H, eps, regularity._TIE_MARGIN) for P in parts]
            for block in (1, 3 * H.size + 1, regularity._SCAN_BLOCK):
                with mock.patch.object(regularity, "_SCAN_BLOCK", block):
                    got = regularity._scan(parts, H, eps)
                for cls, (_, counts, sups, witnesses) in zip(got, want):
                    assert np.array_equal(cls.counts, counts)
                    assert np.abs(cls.sup_values - sups).max(initial=0) < 1e-12
                    assert np.array_equal(cls.witness_freqs, witnesses)

    def test_zero_and_line_subspaces(self):
        gen = np.random.default_rng(3)
        for p in PRIMES:
            space = SpaceDescriptor(p, 2)
            A = random_subset(space, gen)
            for H in (SubspaceBasis.zero(space), SubspaceBasis.from_rows(space, [[1, 1]])):
                cls = classify_vectors(A, H, 0.3)
                _, counts, sups, witnesses = classify_oracle(A, H, 0.3, regularity._TIE_MARGIN)
                assert np.array_equal(cls.counts, counts)
                assert np.abs(cls.sup_values - sups).max(initial=0) < 1e-12
                assert np.array_equal(cls.witness_freqs, witnesses)


class TestJointScan:
    @given(st.sampled_from([(3, 5), (5, 3), (7, 2), (13, 1), (13, 2)]), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    @example(shape=(7, 2), seed=0)
    @example(shape=(13, 1), seed=40)  # batching the parts at H = V would move a sup's last bit
    def test_parts_scan_as_one_part_scans(self, shape, seed):
        """A part's classification does not depend on the parts beside it or
        on which cosets are empty: each one in a regularize_multi report, and
        in joint scans at H = V and at a random H, is byte for byte
        classify_vectors of that part."""
        gen = np.random.default_rng(seed)
        space = SpaceDescriptor(*shape)
        A = random_subset(space, gen, density=float(gen.uniform(0.01, 0.9)))
        eps = float(gen.uniform(0.1, 0.6))
        parts = canonical_split(A, 3)
        report = regularize_multi(parts, eps, 0.5)
        scans = [(report.H_final, report.classifications)]
        for H in (SubspaceBasis.full(space), random_subspace(space, gen)):
            scans.append((H, regularity._scan(parts, H, eps)))
        for H, classes in scans:
            for part, cls in zip(parts, classes):
                one = classify_vectors(part, H, eps)
                for field in ("reps", "sup_values", "counts", "regular", "witness_freqs"):
                    assert getattr(cls, field).tobytes() == getattr(one, field).tobytes(), (H.dim, field)
                assert (cls.threshold, cls.irregular_mass) == (one.threshold, one.irregular_mass)


class TestWitnessTies:
    """Exactly tied maximizers pick the minimal flat index whatever the
    round-off: the transforms are perturbed entry by entry by 1 +- 4e-16."""

    @staticmethod
    def classify_perturbed(A, H, eps, sign):
        exact = regularity._pass_loop

        def wobbly(*args, **kwargs):
            out = exact(*args, **kwargs)
            wobble = 1 + sign * 4e-16 * (-1.0) ** np.arange(out.shape[-1])
            return out * wobble

        with mock.patch.object(regularity, "_pass_loop", wobbly):
            return classify_vectors(A, H, eps)

    def witnesses(self, A, H, eps):
        runs = [self.classify_perturbed(A, H, eps, sign) for sign in (0, 1, -1)]
        for run in runs[1:]:
            assert np.array_equal(run.witness_freqs, runs[0].witness_freqs)
        return runs[0].witness_freqs

    def test_one_point_cosets(self):
        for p in PRIMES:
            space = SpaceDescriptor(p, 2)
            point = DenseSubset.from_members(space, [p + 2])
            # every nontrivial coefficient of a one-point localization ties
            assert np.array_equal(self.witnesses(point, SubspaceBasis.full(space), 0.5), [1])
            line = SubspaceBasis.from_rows(space, [[1, 1]])
            got = self.witnesses(point, line, 0.5)
            want = classify_oracle(point, line, 0.5, regularity._TIE_MARGIN)[3]
            assert np.array_equal(got, want)
            assert set(got[got >= 0]) == {1}

    def test_aline(self):
        assert np.array_equal(self.witnesses(ALINE, V32, 0.5), [3])

    def test_tie_below_the_threshold_is_no_witness(self):
        # one point at H = V: every nontrivial magnitude is 1/9, the threshold
        # sits 5e-13 below it, and the entry holding xi = 1 is pushed 1e-12
        # below 1/9, inside the tie margin but under the threshold
        point = DenseSubset.from_members(SP32, [0])
        table = witness_map_oracle(V32)[:6]  # the stored half: eta_1 <= 1
        lowered = int(np.flatnonzero(table == 1)[0])
        exact = regularity._pass_loop

        def lowered_entry(*args, **kwargs):
            out = exact(*args, **kwargs)
            out[:, lowered] *= 1 - 9e-12
            return out

        with mock.patch.object(regularity, "_pass_loop", lowered_entry):
            cls = classify_vectors(point, V32, 1 - 4.5e-12)
        assert not cls.is_regular
        assert cls.witness_freqs[0] == np.delete(table, [0, lowered]).min()


    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_witnesses_decoded_in_chunks(self, chunk):
        # a point ties every entry of its coset; a random set's irregular
        # cosets tie few, so a chunk can end inside one coset or span several
        gen = np.random.default_rng(4)
        for space in (SP34, SpaceDescriptor(5, 2), SpaceDescriptor(7, 2), SpaceDescriptor(13, 2)):
            line = SubspaceBasis.from_rows(space, [[1] * space.n])
            for A in (DenseSubset.from_members(space, [space.N // 3]), random_subset(space, gen)):
                for H in (SubspaceBasis.full(space), line, random_subspace(space, gen)):
                    with mock.patch.object(regularity, "_WITNESS_CHUNK", chunk):
                        got = classify_vectors(A, H, 0.3).witness_freqs
                    assert np.array_equal(got, classify_oracle(A, H, 0.3, regularity._TIE_MARGIN)[3])


class TestEnergy:
    def test_full_subspace(self):
        assert abs(energy(ALINE, V32) - 1) < 1e-12

    def test_zero_subspace(self):
        assert abs(energy(ALINE, SubspaceBasis.zero(SP32)) - 3) < 1e-12

    def test_line_on_line(self):
        assert abs(energy(ALINE, LINE) - 3) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            energy(DenseSubset.empty(SP32), V32)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_identities_random(self, seed):
        gen = np.random.default_rng(seed)
        space = SpaceDescriptor(int(gen.choice([3, 5])), int(gen.integers(1, 4)))
        A = random_subset(space, gen)
        if A.card == 0:
            A = DenseSubset.from_members(space, [0])
        assert abs(energy(A, SubspaceBasis.full(space)) - 1) < 1e-9
        assert abs(energy(A, SubspaceBasis.zero(space)) - space.N / A.card) < 1e-9
        # range: 0 < d <= N/|A|
        H = random_subspace(space, gen)
        e = energy(A, H)
        assert 0 < e <= space.N / A.card + 1e-9


class TestRefineStep:
    def test_worked_example(self):
        h2, diag = refine_step(ALINE, V32, 0.5)
        assert h2 == LINE
        assert diag.witnesses == (3,)
        assert abs(diag.energy_before - 1) < 1e-12
        assert abs(diag.energy_after - 3) < 1e-12
        assert diag.increment >= 0.5**3
        assert diag.index_after <= diag.index_before * 3**diag.index_before

    def test_contract_error_on_regular(self):
        with pytest.raises(ContractError):
            refine_step(DenseSubset.full(SP32), V32, 0.5)

    def test_200_random_triggered(self):
        gen = np.random.default_rng(42)
        eps = 0.3
        done = 0
        while done < 200:
            A = random_subset(SP34, gen)
            if A.card == 0:
                continue
            H = random_subspace(SP34, gen)
            cls = classify_vectors(A, H, eps)
            if cls.is_regular:
                continue
            h2, diag = refine_step(A, H, eps, cls)
            assert diag.energy_before == energy(A, H)  # read from cls.counts, to the last bit
            assert diag.increment >= eps**3 - 1e-9
            assert diag.index_after <= diag.index_before * 3**diag.index_before
            assert h2.size < H.size
            done += 1


class TestRegularize:
    def test_worked_example(self):
        rep = regularize(ALINE, 0.5, 1.0)
        assert rep.succeeded and rep.stop_reason == "regular"
        assert rep.iterations == 1
        assert rep.H_final == LINE
        assert rep.energy_trace == (1.0, 3.0)
        assert rep.index_trace == (1, 3)
        assert rep.mass_trace == (9, 0)
        assert rep.step_cap == 32  # ceil(4 * 0.5^-3 * 1)

    def test_full_set_immediate(self):
        rep = regularize(DenseSubset.full(SP32), 0.3, 1.0)
        assert rep.succeeded and rep.iterations == 0 and rep.H_final == V32

    def test_empty_set_vacuous(self):
        rep = regularize(DenseSubset.empty(SP32), 0.3, 0.5)
        assert rep.succeeded and rep.H_final == V32 and rep.energy_trace == ()

    def test_floor_hit(self):
        rep = regularize(ALINE, 0.5, 1.0, floor=9)
        assert not rep.succeeded and rep.stop_reason == "floor_hit"
        assert rep.H_final == V32  # refinement below the floor is not accepted

    def test_final_reverified_independently(self):
        gen = np.random.default_rng(11)
        for _ in range(10):
            A = random_subset(SP34, gen)
            rep = regularize(A, 0.35, 0.5)
            if rep.succeeded and A.card:
                check = classify_vectors(A, rep.H_final, 0.35)
                assert check.irregular_mass <= 0.35 * SP34.N

    def test_deterministic(self):
        gen = np.random.default_rng(12)
        A = random_subset(SP34, gen)
        r1 = regularize(A, 0.25, 0.5)
        r2 = regularize(A, 0.25, 0.5)
        assert r1.H_final == r2.H_final
        assert r1.energy_trace == r2.energy_trace

    def test_claim_bound_fields(self):
        rep = regularize(ALINE, 0.5, 1.0, sigma=0.1, delta=0.5)
        assert rep.claim_bound == (1.5) ** 2 * 4
        assert rep.claim_ok is True

    def test_rejects_bad_params(self):
        for eps, alpha, floor in [(0, 0.5, 1), (1.0, 0.5, 1), (0.5, 0, 1), (0.5, 1.5, 1), (0.5, 0.5, 0)]:
            with pytest.raises(InputError):
                regularize(ALINE, eps, alpha, floor)

    @pytest.mark.parametrize("sigma, delta", [(2, 0.5), (1e308, 1e308), (0, 0.5), (0.5, 1), (0.5, -0.1)])
    def test_rejects_sigma_and_delta_outside_the_unit_interval(self, sigma, delta):
        # sigma >= 1 would check the energy bound on no subspace: a vacuous claim
        with pytest.raises(InputError, match="must lie in"):
            regularize(ALINE, 0.5, 1.0, sigma=sigma, delta=delta)

    @pytest.mark.parametrize(
        "eps, alpha",
        [(0.5, 1e-200), (1e-110, 1.0), (1e-100, 1e-10)],
        ids=["alpha-power-overflows", "eps-power-overflows", "product-reaches-inf"],
    )
    def test_rejects_overflowing_step_cap(self, eps, alpha):
        with pytest.raises(InputError, match="step cap"):
            regularize(ALINE, eps, alpha)
        with pytest.raises(InputError, match="step cap"):
            regularize_multi(canonical_split(ALINE, 3), eps, alpha)


class TestRegularizeMulti:
    def test_single_part_reduces_to_regularize(self):
        single = regularize(ALINE, 0.5, 1.0)
        multi = regularize_multi([ALINE], 0.5, 1.0)
        assert multi.H_final == single.H_final
        assert multi.energy_trace == single.energy_trace
        assert multi.step_cap == single.step_cap

    def test_parallel_lines(self):
        l0 = DenseSubset.from_members(SP32, [0, 1, 2])
        l1 = DenseSubset.from_members(SP32, [3, 4, 5])
        rep = regularize_multi([l0, l1], 0.5, 1.0)
        assert rep.succeeded and rep.iterations <= 2
        assert rep.H_final == LINE
        for c in rep.classifications:
            assert c.is_regular

    @pytest.mark.parametrize(
        "parts",
        [
            [ALINE, ALINE],
            [ALINE, DenseSubset.from_members(SP32, [3, 4, 5]), DenseSubset.from_members(SP32, [2, 6])],
        ],
        ids=["equal-pair", "first-and-third"],
    )
    def test_overlap_rejected(self, parts):
        with pytest.raises(InputError):
            regularize_multi(parts, 0.5, 1.0)

    def test_step_cap_value(self):
        rep = regularize_multi(
            [DenseSubset.from_members(SP32, [0]), DenseSubset.from_members(SP32, [1]),
             DenseSubset.from_members(SP32, [2])],
            0.4, 0.5,
        )
        assert rep.step_cap == int(np.ceil(4 * 9 * 0.4**-3 * 0.5**-2))

    def test_summed_energy_increments(self):
        gen = np.random.default_rng(13)
        for _ in range(5):
            A = random_subset(SP34, gen, density=0.6)
            members = A.members().copy()
            gen.shuffle(members)
            parts = [DenseSubset.from_members(SP34, members[i::3]) for i in range(3)]
            rep = regularize_multi(parts, 0.25, 0.5)
            for a, b in zip(rep.energy_trace, rep.energy_trace[1:]):
                assert b - a >= 0.25**3 - 1e-9


class TestTower:
    def test_values(self):
        assert tower(1, 3) == TowerValue(1, 6, False)
        assert tower(2, 3) == TowerValue(2, 46656, False)
        assert tower(3, 3) == TowerValue(3, None, True)
        assert tower(2, 13).overflow  # 26^26 > 2^63

    def test_monotone(self):
        vals = [tower(t, 3) for t in range(1, 5)]
        last = 0
        for tv in vals:
            if tv.overflow:
                break
            assert tv.value > last
            last = tv.value

    def test_rejects_bad_level(self):
        with pytest.raises(InputError):
            tower(0, 3)
