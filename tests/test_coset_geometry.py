"""The tensor-native coset geometry of V/H against the digit-codec oracles.

Coset ids, representatives, the localization gather, localized counts and
the dual representatives are linear digit formulas in the library; the
oracles in helpers decode every point instead.  The flower petal search is
checked against a literal nested loop over (i0, j0, k0, center, petal), and
the midpoint petal graph against decoded midpoints of every pair.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fpnreg.cayley import petal_graph
from fpnreg.fourier import _dual_data
from fpnreg.regularity import localized_counts, restricted_sup
from fpnreg.threeap import flower_find
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor, SubspaceBasis, localize, localized_count

from helpers import (
    ORACLE_MAX_N,
    PRIMES,
    coeff_elements_oracle,
    coset_system_oracle,
    localization_rows_oracle,
    localized_counts_oracle,
    petal_graph_oracle,
    petal_search_oracle,
)


def subspace_of_dim(space: SpaceDescriptor, dim: int, gen: np.random.Generator) -> SubspaceBasis:
    while True:
        H = SubspaceBasis.from_rows(space, gen.integers(0, space.p, size=(dim, space.n)))
        if H.dim == dim:
            return H


def draw_case(p, n, dim, seed):
    space = SpaceDescriptor(p, min(n, ORACLE_MAX_N[p]))
    gen = np.random.default_rng(seed)
    H = subspace_of_dim(space, min(dim, space.n), gen)
    return space, H, gen


cases = dict(n=st.integers(1, 6), dim=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("p", PRIMES)
@given(**cases)
@example(n=1, dim=0, seed=0)  # n = 1, zero subspace
@example(n=1, dim=1, seed=0)  # n = 1, full space
@example(n=3, dim=0, seed=1)  # zero subspace
@example(n=3, dim=6, seed=1)  # full space
def test_coset_system_matches_codec(p, n, dim, seed):
    space, H, _ = draw_case(p, n, dim, seed)
    reps, ids = coset_system_oracle(H)
    cs = H.coset_system()
    assert np.array_equal(cs.reps, reps)
    assert np.array_equal(cs.coset_id, ids)
    assert np.array_equal(H.coset_reps(), reps)
    assert cs.K * H.size == space.N
    assert np.array_equal(H._coeff_elements(), coeff_elements_oracle(H))


@pytest.mark.parametrize("p", PRIMES)
@given(**cases)
@example(n=1, dim=0, seed=0)
@example(n=1, dim=1, seed=0)
@example(n=3, dim=0, seed=1)
@example(n=3, dim=6, seed=1)
def test_localization_gather_matches_codec(p, n, dim, seed):
    space, H, gen = draw_case(p, n, dim, seed)
    cs = H.coset_system()
    want = localization_rows_oracle(H, cs.reps)
    assert np.array_equal(cs.localization_gather(0, cs.K), want)
    # an arbitrary id range is cut into runs of aligned digit blocks
    lo, hi = sorted(int(x) for x in gen.integers(0, cs.K + 1, size=2))
    assert np.array_equal(cs.localization_gather(lo, hi), want[lo:hi])
    v = int(gen.integers(0, space.N))
    assert np.array_equal(cs.localization_row(v), localization_rows_oracle(H, [v])[0])


@pytest.mark.parametrize("p", PRIMES)
@given(**cases, density=st.sampled_from([0.0, 0.3, 1.0]))
@example(n=1, dim=0, seed=0, density=0.3)
@example(n=1, dim=1, seed=0, density=0.3)
@example(n=3, dim=0, seed=1, density=0.3)
@example(n=3, dim=6, seed=1, density=0.3)
def test_localized_counts_match_codec(p, n, dim, seed, density):
    space, H, gen = draw_case(p, n, dim, seed)
    A = DenseSubset(space, gen.random(space.N) < density)
    reps = H.coset_system().reps
    want = localized_counts_oracle(A, H, reps)
    assert np.array_equal(localized_counts(A, H), want)
    v = int(gen.integers(0, space.N))
    assert localized_count(A, H, v) == int(localized_counts_oracle(A, H, [v])[0])
    assert localize(A, H, v).card == localized_count(A, H, v)


@pytest.mark.parametrize("p", PRIMES)
@given(**cases)
@example(n=1, dim=0, seed=0)
@example(n=1, dim=1, seed=0)
@example(n=3, dim=6, seed=1)
def test_dual_data_matches_codec(p, n, dim, seed):
    space, H, _ = draw_case(p, n, dim, seed)
    freqs, eta, rep_for_eta = _dual_data(H)
    assert np.array_equal(freqs, coset_system_oracle(H.annihilator())[0])
    # eta_j = <rows[j], xi> mod p, read from decoded digits
    want = (space.digits(freqs) @ H.rows.T % p) @ (p ** np.arange(H.dim, dtype=np.int64))
    assert np.array_equal(eta, want)
    assert np.array_equal(rep_for_eta[eta], freqs)


def test_restricted_sup_is_translation_invariant_within_the_coset():
    space = SpaceDescriptor(5, 3)
    gen = np.random.default_rng(3)
    H = subspace_of_dim(space, 2, gen)
    A = DenseSubset(space, gen.random(space.N) < 0.4)
    v = 17
    for h in H.elements()[:6]:
        w = int(space.add(v, int(h)))
        assert restricted_sup(A, H, w) == pytest.approx(restricted_sup(A, H, v), abs=1e-12)


# ---------------------------------------------------------------------------
# Flower petal search
# ---------------------------------------------------------------------------


def coset_union(space: SpaceDescriptor, dim: int, gen: np.random.Generator) -> DenseSubset:
    """About a third of the cosets of a random dim-dimensional W, 2% noise."""
    W = subspace_of_dim(space, dim, gen)
    cs = W.coset_system()
    picks = gen.choice(cs.K, size=max(1, cs.K // 3), replace=False)
    return DenseSubset(space, np.isin(cs.coset_id, picks) ^ (gen.random(space.N) < 0.02))


def check_against_oracle(report, alpha):
    case, b_size, sizes, best, ties = petal_search_oracle(report, alpha)
    if report.failure_stage == "no_regular_subspace":
        return 0
    assert report.b_size == b_size
    if case is None:
        assert report.failure_stage == "empty_petal_candidates"
        return 0
    assert report.case == case
    assert report.eligible_sizes == sizes
    if best is None:
        assert not report.found and report.failure_stage == "no_cross_part_3aps"
        return 0
    f = report.flower
    assert report.found
    assert (f.petal_count, f.i0, f.j0, f.k0, f.center, f.petals) == best
    return ties


SMALL = [(3, 4), (3, 5), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)]


@given(
    pn=st.sampled_from(SMALL),
    seed=st.integers(0, 2**32 - 1),
    union=st.booleans(),
    m=st.sampled_from([3, 4]),
    eps=st.sampled_from([0.2, 0.3, 0.5, 0.7, 0.9]),
    alpha=st.sampled_from([0.5, 1.0]),
)
@example(pn=(7, 3), seed=0, union=False, m=3, eps=0.9, alpha=1.0)  # triple_overlap, u = c excluded
@example(pn=(3, 4), seed=9, union=False, m=3, eps=0.7, alpha=0.5)  # an id held by two parts
def test_flower_find_matches_nested_loop(pn, seed, union, m, eps, alpha):
    space = SpaceDescriptor(*pn)
    gen = np.random.default_rng(seed)
    if union:
        A = coset_union(space, int(gen.integers(1, space.n)), gen)
    else:
        A = DenseSubset(space, gen.random(space.N) < gen.uniform(0.2, 0.95))
    check_against_oracle(flower_find(A, m, eps, alpha), alpha)


def test_flower_find_tie_break_matches_nested_loop():
    # the full set of F_3^3 puts every coset in every pool: many
    # (i0, j0, k0, center) share the maximum petal count
    report = flower_find(DenseSubset.full(SpaceDescriptor(3, 3)), 3, 0.4, 1.0)
    assert check_against_oracle(report, 1.0) > 1
    # and a coset union whose maximum is reached more than once
    space = SpaceDescriptor(5, 3)
    gen = np.random.default_rng(11)
    A = coset_union(space, 1, gen)
    report = flower_find(A, 3, 0.3, 0.5)
    assert check_against_oracle(report, 0.5) > 1


# ---------------------------------------------------------------------------
# Midpoint petal graph
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
@given(**cases, density=st.sampled_from([0.0, 0.3, 1.0]))
@example(n=1, dim=0, seed=0, density=0.3)  # n = 1, zero subspace
@example(n=1, dim=1, seed=0, density=0.3)  # n = 1, full space
@example(n=3, dim=0, seed=1, density=0.3)  # zero subspace
@example(n=3, dim=6, seed=1, density=0.3)  # full space
def test_petal_graph_matches_codec(p, n, dim, seed, density):
    space, H, gen = draw_case(p, n, dim, seed)
    A = DenseSubset(space, gen.random(space.N) < density)
    v1, v2 = (int(v) for v in gen.integers(0, space.N, size=2))
    left, right, adj = petal_graph_oracle(A, H, v1, v2)
    pg = petal_graph(A, H, v1, v2)
    u = pg.u
    assert np.array_equal(pg.left_points(), left)
    assert np.array_equal(pg.right_points(), right)
    lpos = gen.integers(0, u, size=int(gen.integers(1, u + 1)))
    rpos = gen.integers(0, u, size=int(gen.integers(1, u + 1)))
    sub = adj[np.ix_(lpos, rpos)]
    assert np.array_equal(pg._edge_block(lpos, rpos), sub)
    assert pg.edges_between(lpos, rpos) == int(sub.sum())
    assert pg.any_edge(lpos, rpos) == bool(sub.any())
    none = np.empty(0, dtype=np.int64)
    assert pg.edges_between(none, rpos) == pg.edges_between(lpos, none) == 0
    assert not pg.any_edge(none, rpos) and not pg.any_edge(lpos, none)
    assert np.array_equal(pg.left_degrees(), adj.sum(axis=1))
    assert np.array_equal(pg.right_degrees_into(lpos), adj[lpos].sum(axis=0))
    assert np.array_equal(pg.right_degrees_into(none), np.zeros(u, dtype=np.int64))
    assert pg.edge_count() == int(adj.sum())
    assert pg.density() == int(adj.sum()) / u**2
