import math

import numpy as np
import pytest

from fpnreg.cayley import petal_graph
from fpnreg.errors import ContractError, InputError
from fpnreg.randmodel import (
    CompleteBipartite,
    EmptyBipartite,
    GreedyAdversary,
    TrivialAdversary,
    TailBoundInputs,
    chernoff_bound,
    empirical_tail,
    fourier_sup_report,
    mc_density_failure,
    mc_klr11,
    optimized_tail,
    sample_bernoulli,
    sample_coupled,
    sample_exact,
)
from fpnreg.rng import substream
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor, SubspaceBasis

from helpers import PRIMES, peak_bytes, run_peak_script

SP32 = SpaceDescriptor(3, 2)
SP34 = SpaceDescriptor(3, 4)
SP38 = SpaceDescriptor(3, 8)


# r = 10 sqrt(N) points, the size of a sparse random set in the experiments.
_SAMPLE_PEAK_SCRIPT = """
import math
from fpnreg.randmodel import sample_exact
from fpnreg.vectorspace import SpaceDescriptor
sample_exact(SpaceDescriptor(5, 3), 10, 0)
space = SpaceDescriptor(int(sys.argv[1]), int(sys.argv[2]))
r = int(10 * math.sqrt(space.N))
R, reading = measure(lambda: sample_exact(space, r, 3))
print(json.dumps({"N": space.N, "r": r, "card": R.card, **reading}))
"""


@pytest.mark.parametrize("p, n", [(5, 10), (13, 6)])
def test_sample_exact_memory_budget_at_the_cap(p, n):
    """A uniform r-subset costs its mask and the DenseSubset's copy of it,
    at most 3 N bytes: the draw is of indices, with no N-sized pool."""
    out = run_peak_script(_SAMPLE_PEAK_SCRIPT, p, n)
    assert out["card"] == out["r"]
    assert peak_bytes(out) <= 3 * out["N"]


class TestSamplers:
    def test_full_and_empty(self):
        assert sample_exact(SP34, SP34.N, 1) == DenseSubset.full(SP34)
        assert sample_bernoulli(SP34, 0.0, 1) == DenseSubset.empty(SP34)
        assert sample_bernoulli(SP34, 1.0, 1) == DenseSubset.full(SP34)

    def test_exact_size_always(self):
        for seed in range(50):
            assert sample_exact(SP34, 17, seed).card == 17

    def test_rejects_oversized(self):
        with pytest.raises(InputError):
            sample_exact(SP34, SP34.N + 1, 0)
        with pytest.raises(InputError):
            sample_bernoulli(SP34, 1.5, 0)

    def test_determinism(self):
        assert sample_exact(SP34, 30, 9) == sample_exact(SP34, 30, 9)
        assert sample_bernoulli(SP34, 0.4, 9) == sample_bernoulli(SP34, 0.4, 9)

    def test_bernoulli_concentration(self):
        # |R| within 4 sqrt(N q (1-q)) of qN for nearly all seeds
        q, N = 0.3, SP34.N
        tol = 4 * math.sqrt(N * q * (1 - q))
        bad = sum(abs(sample_bernoulli(SP34, q, s).card - q * N) > tol for s in range(10_000))
        assert bad <= 10  # >= 99.9%

    def test_coupled_construction(self):
        sigma = 0.3
        bound = 2 * sigma**4 * 200
        for seed in range(200):
            cs = sample_coupled(SP34, 40, sigma, seed)
            assert cs.subset.card == 40
            assert cs.r2_size <= bound


class TestFourierSup:
    def test_full_space_passes(self):
        rep = fourier_sup_report(DenseSubset.full(SP34))
        assert rep.passed and rep.sup < 1e-12

    def test_subspace_fails(self):
        sp36 = SpaceDescriptor(3, 6)
        R = SubspaceBasis.from_rows(sp36, np.eye(6, dtype=int)[:5]).as_subset()
        rep = fourier_sup_report(R)
        assert not rep.passed
        assert abs(rep.bound - R.card / (sp36.N * math.log(sp36.N))) < 1e-15

    def test_random_sets_mostly_pass(self):
        sp310 = SpaceDescriptor(3, 10)
        r = int(30 * math.sqrt(sp310.N))
        passes = sum(fourier_sup_report(sample_exact(sp310, r, s)).passed for s in range(30))
        assert passes == 30  # frozen from the 100-seed pilot (100/100)

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            fourier_sup_report(DenseSubset.empty(SP34))


class TestChernoff:
    def test_small_t_limit(self):
        assert chernoff_bound(TailBoundInputs(0.1, 100, 5.0, 1e-9)) == pytest.approx(1.0)

    def test_centered_level(self):
        t, q, N = 0.4, 0.1, 200
        lam = 2 * q * N * t
        b = chernoff_bound(TailBoundInputs(q, N, lam, t))
        assert b == pytest.approx(math.exp(-(t**2) * q * N))
        assert b < 1

    def test_rejects_bad_t(self):
        for t in (0.0, -0.5, 1.5):
            with pytest.raises(InputError):
                TailBoundInputs(0.1, 100, 5.0, t)

    def test_optimized_substitution(self):
        N, q, r = 3**8, 0.05, 300
        ot = optimized_tail(N, q, r)
        lam = r / math.log(N)
        assert ot.lam == pytest.approx(lam)
        assert ot.t == pytest.approx(lam / (2 * q * N))
        assert ot.bound == pytest.approx(math.exp(-(lam**2) / (4 * q * N)))
        assert ot.bound_half_constant == pytest.approx(math.exp(-(lam**2) / (2 * q * N)))

    def test_optimized_at_matching_rate(self):
        # q = r/N gives exponent -r / (4 ln^2 N)
        N = 3**10
        r = int(30 * math.sqrt(N))
        ot = optimized_tail(N, r / N, r)
        assert math.log(ot.bound) == pytest.approx(-r / (4 * math.log(N) ** 2))


class TestEmpiricalTail:
    def test_huge_level_never_hit(self):
        rep = empirical_tail(SP38, 0.05, SP38.N + 1.0, 1, 100, 7)
        assert rep.frequency == 0.0 and rep.passed

    def test_zero_level_interior(self):
        rep = empirical_tail(SP38, 0.05, 0.0, 1, 200, 7)
        assert 0.0 < rep.frequency < 1.0

    def test_within_bound_grid(self):
        for i, q in enumerate((0.02, 0.05, 0.1)):
            for j, kappa in enumerate((0.05, 0.1, 0.2)):
                lam = kappa * q * SP38.N
                rep = empirical_tail(SP38, q, lam, 1, 400, 100 + 10 * i + j)
                assert rep.passed, (q, kappa, rep)

    def test_rejects_zero_frequency_vector(self):
        with pytest.raises(InputError):
            empirical_tail(SP38, 0.05, 5.0, 0, 10, 7)

    @pytest.mark.parametrize("p", PRIMES)
    def test_matches_codec_phases(self, p):
        # the frequency recounted with <x, xi> from the digit codec
        space = SpaceDescriptor(p, 3)
        gen = np.random.default_rng(p)
        q, trials = 0.3, 50
        for xi in (1, space.N - 1, int(gen.integers(1, space.N))):
            cosines = np.cos(2 * np.pi * space.pair(np.arange(space.N), xi) / p)
            sums = [float(cosines[substream(5, t).random(space.N) < q].sum()) for t in range(trials)]
            lam = float(np.median(sums))
            rep = empirical_tail(space, q, lam, xi, trials, 5)
            assert rep.frequency == sum(x >= lam for x in sums) / trials


class TestKlr11:
    def test_complete_graph_always_hits(self):
        rep = mc_klr11(CompleteBipartite(40), 1, 1, TrivialAdversary(), 100, 3)
        assert rep.no_edge_freq == 0.0

    def test_empty_graph_never_hits(self):
        rep = mc_klr11(EmptyBipartite(40), 5, 5, TrivialAdversary(), 100, 3)
        assert rep.no_edge_freq == 1.0

    def test_monotone_in_t1(self):
        A = DenseSubset.from_members(SP34, [1, 7, 22])
        pg = petal_graph(A, SubspaceBasis.full(SP34), 0, 0)
        freqs = [
            mc_klr11(pg, t1, 4, TrivialAdversary(), 400, 11).no_edge_freq for t1 in (2, 4, 8)
        ]
        assert freqs[0] >= freqs[1] >= freqs[2]
        assert freqs[0] > freqs[2]  # non-vacuous at this sparsity

    def test_dense_petal_graph_near_zero(self):
        A = sample_bernoulli(SP34, 0.5, 2)
        pg = petal_graph(A, SubspaceBasis.full(SP34), 0, 0)
        for adv in (TrivialAdversary(), GreedyAdversary()):
            assert mc_klr11(pg, 10, 10, adv, 200, 5).no_edge_freq == 0.0

    def test_dense_big_petal_graph_zero(self):
        # u = 729, t = 60 < u/2, density ~ 0.5: no-edge events never occur
        sp36 = SpaceDescriptor(3, 6)
        A = sample_bernoulli(sp36, 0.5, 9)
        pg = petal_graph(A, SubspaceBasis.full(sp36), 0, 0)
        rep = mc_klr11(pg, 60, 60, GreedyAdversary(), 2000, 3)
        assert rep.no_edge_freq == 0.0

    def test_greedy_blocks_sparse_neighborhoods(self):
        # with few generators the adversary can delete every neighbor of T1
        A = DenseSubset.from_members(SP34, [1, 7, 22])
        pg = petal_graph(A, SubspaceBasis.full(SP34), 0, 0)
        rep = mc_klr11(pg, 4, 4, GreedyAdversary(), 100, 11)
        assert rep.no_edge_freq == 1.0

    def test_adversary_contract(self):
        class Cheater:
            name = "cheater"

            def select_s1(self, graph):
                return np.arange(graph.u - 1)

            def select_s2(self, graph, t1):
                return np.empty(0, dtype=np.int64)

        with pytest.raises(ContractError):
            mc_klr11(CompleteBipartite(10), 1, 1, Cheater(), 5, 1)

    @pytest.mark.parametrize("bad", [-1, 10])
    @pytest.mark.parametrize("side", ["s1", "s2"])
    def test_adversary_blocks_in_range(self, bad, side):
        # a negative position would wrap in a mask and block position u - 1
        class OutOfRange:
            def select_s1(self, graph):
                return np.array([bad] if side == "s1" else [], dtype=np.int64)

            def select_s2(self, graph, t1):
                return np.array([bad] if side == "s2" else [], dtype=np.int64)

        with pytest.raises(ContractError):
            mc_klr11(CompleteBipartite(10), 1, 1, OutOfRange(), 5, 1)

    def test_rejects_big_t(self):
        with pytest.raises(InputError):
            mc_klr11(CompleteBipartite(10), 5, 1, TrivialAdversary(), 5, 1)


class TestDensityFailure:
    def test_tiny_subsets_always_fail(self):
        rep = mc_density_failure(SP32, 4, 0.5, 3, 5, 13)
        assert rep.failure_freq == 1.0  # alpha r = 2: two points are 3AP-free

    def test_cap_sets_inside_full_space(self):
        rep = mc_density_failure(SP32, 9, 4 / 9, 5, 30, 13)
        assert rep.failure_freq == 1.0

    def test_determinism(self):
        a = mc_density_failure(SP32, 6, 0.5, 4, 6, 99)
        b = mc_density_failure(SP32, 6, 0.5, 4, 6, 99)
        assert a == b

    def test_rejects_oversized(self):
        with pytest.raises(InputError):
            mc_density_failure(SP32, 10, 0.5, 2, 2, 1)
