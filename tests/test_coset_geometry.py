"""The tensor-native coset geometry of V/H against the digit-codec oracles.

Coset ids, representatives, the localization blocks, localized counts and
the dual representatives are linear digit formulas in the library; the
oracles in helpers decode every point instead.  The flower petal search is
checked against a literal nested loop over (i0, j0, k0, center, petal), and
the midpoint petal graph against decoded midpoints of every pair.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fpnreg.cayley import petal_graph
from fpnreg.fourier import DenseFunction, _dual_data, dft
from fpnreg import regularity, vectorspace
from fpnreg.randmodel import GreedyAdversary, mc_klr11
from fpnreg.regularity import (
    classify_vectors,
    energy,
    localized_counts,
    refine_step,
    regularize,
    regularize_multi,
    restricted_sup,
)
from fpnreg.threeap import canonical_split, flower_find
from fpnreg.vectorspace import (
    DenseSubset,
    SpaceDescriptor,
    SubspaceBasis,
    _digit_reversal,
    localize,
    localized_count,
)

from helpers import (
    ORACLE_MAX_N,
    PRIMES,
    coeff_elements_oracle,
    coset_system_oracle,
    localization_rows_oracle,
    localized_counts_oracle,
    peak_bytes,
    petal_graph_oracle,
    petal_search_oracle,
    run_peak_script,
    witness_map_oracle,
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
    assert np.array_equal(H.elements(), np.sort(coeff_elements_oracle(H)))
    rev = _digit_reversal(p, H.dim)
    assert np.array_equal(rev[rev], np.arange(H.size))


@pytest.mark.parametrize("p", PRIMES)
@given(**cases)
@example(n=1, dim=0, seed=0)
@example(n=1, dim=1, seed=0)
@example(n=3, dim=0, seed=1)
@example(n=3, dim=6, seed=1)
def test_localization_gather_matches_codec(p, n, dim, seed):
    space, H, gen = draw_case(p, n, dim, seed)
    reps = H.coset_reps()
    want = localization_rows_oracle(H, reps)
    # the first and the last aligned run of p**s coset ids, for every s
    for s in range(len(H.free) + 1):
        for lo in (0, len(reps) - p**s):
            block = H._localization(reps[lo], s)
            assert np.array_equal(block.T, want[lo : lo + p**s])
    # a v off the representatives, nonzero at a pivot: every coordinate shifts
    for s in range(len(H.free) + 1):
        digits = gen.integers(0, p, size=space.n)
        if H.dim:
            digits[H.pivots[0]] = gen.integers(1, p)
        v = int(space.index(digits))
        want = localization_rows_oracle(H, space.add(v, reps[: p**s]))
        assert np.array_equal(H._localization(v, s).T, want)


@pytest.mark.parametrize("p", PRIMES)
@given(**cases, density=st.sampled_from([0.0, 0.3, 1.0]), block=st.sampled_from([None, 1]))
@example(n=1, dim=0, seed=0, density=0.3, block=None)
@example(n=1, dim=1, seed=0, density=0.3, block=None)
@example(n=3, dim=0, seed=1, density=0.3, block=None)
@example(n=3, dim=6, seed=1, density=0.3, block=None)
@example(n=4, dim=2, seed=2, density=0.3, block=1)  # one coset per block
def test_localized_counts_match_codec(p, n, dim, seed, density, block):
    space, H, gen = draw_case(p, n, dim, seed)
    A = DenseSubset(space, gen.random(space.N) < density)
    want = localized_counts_oracle(A, H, H.coset_reps())
    with mock.patch.object(regularity, "_SCAN_BLOCK", block or regularity._SCAN_BLOCK):
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
    freqs, eta = _dual_data(H)
    assert np.array_equal(freqs, coset_system_oracle(H.annihilator())[0])
    # eta_j = <rows[j], xi> mod p, read from decoded digits
    want = (space.digits(freqs) @ H.rows.T % p) @ (p ** np.arange(H.dim, dtype=np.int64))
    assert np.array_equal(eta, want)


@pytest.mark.parametrize("p", PRIMES)
@given(**cases)
@example(n=1, dim=0, seed=0)  # n = 1, zero subspace
@example(n=1, dim=1, seed=0)  # n = 1, full space
@example(n=3, dim=1, seed=1)  # a line
@example(n=3, dim=6, seed=1)  # full space
def test_witness_map_matches_codec(p, n, dim, seed):
    _, H, _ = draw_case(p, n, dim, seed)
    assert np.array_equal(regularity._witnesses(H, np.arange(H.size)), witness_map_oracle(H))


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
    block=st.sampled_from([None, 1]),
)
@example(pn=(7, 3), seed=0, union=False, m=3, eps=0.9, alpha=1.0, block=None)  # triple_overlap, u = c excluded
@example(pn=(3, 4), seed=9, union=False, m=3, eps=0.7, alpha=0.5, block=None)  # an id held by two parts
@example(pn=(7, 3), seed=0, union=False, m=3, eps=0.9, alpha=1.0, block=1)  # one center per run
def test_flower_find_matches_nested_loop(pn, seed, union, m, eps, alpha, block):
    space = SpaceDescriptor(*pn)
    gen = np.random.default_rng(seed)
    if union:
        A = coset_union(space, int(gen.integers(1, space.n)), gen)
    else:
        A = DenseSubset(space, gen.random(space.N) < gen.uniform(0.2, 0.95))
    with mock.patch.object(vectorspace, "_PAIR_BLOCK", block or vectorspace._PAIR_BLOCK):
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
@given(**cases, density=st.sampled_from([0.0, 0.3, 1.0]), block=st.sampled_from([None, 1]))
@example(n=1, dim=0, seed=0, density=0.3, block=None)  # n = 1, zero subspace
@example(n=1, dim=1, seed=0, density=0.3, block=None)  # n = 1, full space
@example(n=3, dim=0, seed=1, density=0.3, block=None)  # zero subspace
@example(n=3, dim=6, seed=1, density=0.3, block=None)  # full space
@example(n=3, dim=6, seed=1, density=0.3, block=1)  # one left position per run
def test_petal_graph_matches_codec(p, n, dim, seed, density, block):
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
    none = np.empty(0, dtype=np.int64)
    # a batch of three trials: lpos, then two more drawn position sets
    lbatch = np.stack([lpos, *gen.integers(0, u, size=(2, len(lpos)))])
    rbatch = np.stack([rpos, *gen.integers(0, u, size=(2, len(rpos)))])
    hits = [adj[np.ix_(lb, rb)].any() for lb, rb in zip(lbatch, rbatch)]
    nones = np.empty((3, 0), dtype=np.int64)
    with mock.patch.object(vectorspace, "_PAIR_BLOCK", block or vectorspace._PAIR_BLOCK):
        assert pg.edges_between(lpos, rpos) == int(sub.sum())
        assert pg.edges_between(none, rpos) == pg.edges_between(lpos, none) == 0
        assert pg.any_edge(lbatch, rbatch).tolist() == hits
        assert not pg.any_edge(nones, rbatch).any() and not pg.any_edge(lbatch, nones).any()
        assert np.array_equal(pg.right_degrees_into(lbatch), adj[lbatch].sum(axis=1))
        assert np.array_equal(pg.right_degrees_into(nones), np.zeros((3, u), dtype=np.int64))
    assert np.array_equal(pg.left_degrees(), adj.sum(axis=1))
    assert pg.edge_count() == int(adj.sum())
    assert pg.density() == int(adj.sum()) / u**2


# ---------------------------------------------------------------------------
# No library path builds a coset system
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pn", [(3, 6), (5, 4)])
def test_no_library_path_builds_a_coset_system(pn, monkeypatch):
    space = SpaceDescriptor(*pn)
    gen = np.random.default_rng(8)
    A = coset_union(space, 2, gen)  # the test helper itself reads coset ids
    B = DenseSubset(space, gen.random(space.N) < 0.1)
    H = subspace_of_dim(space, 2, gen)
    v = int(gen.integers(0, space.N))

    def refuse(H):
        raise AssertionError("a coset system was built")

    monkeypatch.setattr(vectorspace, "_build_coset_system", refuse)
    assert regularize(A, 0.2, 0.5).iterations > 0
    assert regularize_multi(canonical_split(A, 3), 0.2, 0.5).iterations > 0
    flower_find(A, 3, 0.2, 0.5)
    mc_klr11(petal_graph(B, SubspaceBasis.full(space), 0, 0), 4, 4, GreedyAdversary(), 20, 1)
    assert localize(A, H, v).card == localized_count(A, H, v)
    restricted_sup(A, H, v)
    energy(A, H)
    refine_step(A, SubspaceBasis.full(space), 0.2)
    dft(DenseFunction.from_subset(A, H), H).value_at(v)


@pytest.mark.parametrize("pn", [(3, 6), (5, 4)])
def test_each_refinement_costs_two_row_reductions(pn, monkeypatch):
    """H = V and V^perp take one _rref each; a refinement step takes two,
    H^perp + span(witnesses) and the refined H, whose annihilator is then
    the cached span."""
    space = SpaceDescriptor(*pn)
    A = coset_union(space, 2, np.random.default_rng(8))
    calls = []
    real = vectorspace._rref

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vectorspace, "_rref", counting)
    for run in (lambda: regularize(A, 0.2, 0.5), lambda: regularize_multi(canonical_split(A, 3), 0.2, 0.5)):
        calls.clear()
        report = run()
        assert report.stop_reason == "regular" and report.iterations > 0
        assert len(calls) == 2 + 2 * report.iterations


@pytest.mark.parametrize("pn", [(3, 5), (5, 3), (7, 3), (13, 2)])
def test_scan_transforms_only_nonempty_cosets(pn, monkeypatch):
    """classify_vectors hands _pass_loop one column per coset that holds a
    point: one for a one-point set, none for an empty set, and as many as
    the nonempty cosets of a 5-point set.  At dim 1 a lone column goes in
    twice, since matmul rounds a one-row product unlike a matrix product."""
    space = SpaceDescriptor(*pn)
    gen = np.random.default_rng(9)
    columns = []
    real = regularity._pass_loop

    def counting(x, p, dim, **kwargs):
        columns.append(x.size // p**dim)
        return real(x, p, dim, **kwargs)

    monkeypatch.setattr(regularity, "_pass_loop", counting)
    point = DenseSubset.from_members(space, [int(gen.integers(0, space.N))])
    five = DenseSubset.from_members(space, gen.choice(space.N, 5, replace=False))
    for dim in range(1, space.n):
        H = subspace_of_dim(space, dim, gen)
        for A in (point, DenseSubset.empty(space), five):
            columns.clear()
            nonempty = int(np.count_nonzero(classify_vectors(A, H, 0.5).counts))
            assert sum(columns) == nonempty + (dim == 1 and nonempty == 1), (dim, A.card)


@pytest.mark.parametrize("block", [9, 1 << 20])
def test_joint_scan_builds_each_index_block_once(block, monkeypatch):
    """A 3-part regularize_multi builds one localization index per scan
    block of each visited H, shared by the parts: K / p**s blocks for the
    K = N / |H| cosets, with s the largest such that p**s <= K and
    p**s |H| <= _SCAN_BLOCK."""
    space = SpaceDescriptor(3, 6)
    A = coset_union(space, 2, np.random.default_rng(8))
    calls = []
    real = SubspaceBasis._localization

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(SubspaceBasis, "_localization", counting)
    monkeypatch.setattr(regularity, "_SCAN_BLOCK", block)
    report = regularize_multi(canonical_split(A, 3), 0.2, 0.5)
    assert report.iterations > 0
    blocks = 0
    for K in report.index_trace:
        size, run = space.N // K, 1
        while run * space.p <= K and run * space.p * size <= block:
            run *= space.p
        blocks += K // run
    assert len(calls) == blocks


# ---------------------------------------------------------------------------
# Memory budget at the cap
# ---------------------------------------------------------------------------


# Runs in a fresh interpreter per operation and space (helpers.PEAK_PRELUDE
# supplies measure).  A warm-up call at 5^3 loads what the operation imports;
# the mask comes from uint8 draws.
_BUDGET_SCRIPT = """
import numpy as np
from fpnreg.cayley import PetalGraph, edge_count_direct
from fpnreg.regularity import classify_vectors, energy, regularize_multi, restricted_sup
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor, SubspaceBasis

def pair(space):  # two sets of min(2000, N) points: the count scans X x Y
    gen = np.random.default_rng(1)
    k = min(2000, space.N)
    return [DenseSubset.from_members(space, gen.choice(space.N, k, replace=False)) for _ in "XY"]

# bytes of the distinct buffers a subspace keeps in its _cache, through
# cached tuples and subspaces; a view counts its whole base
def cached_bytes(obj, seen):
    if isinstance(obj, SubspaceBasis):
        obj = tuple(obj._cache.values())
    if isinstance(obj, tuple):
        return sum(cached_bytes(o, seen) for o in obj)
    if not isinstance(obj, np.ndarray):
        return 0
    while isinstance(obj.base, np.ndarray):
        obj = obj.base
    fresh = id(obj) not in seen
    seen.add(id(obj))
    return obj.nbytes if fresh else 0

def whole_space_scan(A, H):
    return classify_vectors(A, SubspaceBasis.full(A.space), 0.1)

# with floor = N, regularize_multi stops after its one scan, at H = V
MULTI = "regularize_multi(sparse parts, floor = N)"

ops = {
    "PetalGraph": lambda A, H: PetalGraph(A, H, A.space.N // 3, A.space.N - 7),
    "restricted_sup": lambda A, H: restricted_sup(A, H, A.space.N // 3),
    "classify_vectors": lambda A, H: classify_vectors(A, H, 0.2),
    "energy": energy,
    "PetalGraph(H = V)": lambda A, H: PetalGraph(A, SubspaceBasis.full(A.space), A.space.N // 3, A.space.N - 7),
    "edge_count_direct": lambda A, H: edge_count_direct(A, *pair(A.space)),
    "classify_vectors(sparse, H = V)": whole_space_scan,
    "classify_vectors(point, H = V)": whole_space_scan,
    MULTI: lambda parts, H: regularize_multi(parts, 0.1, 0.5, floor=parts[0].space.N),
}
# the whole-space scans read their own sets: 10 sqrt(N) points of the
# hyperplane x_0 = 0, or the single point N // 3, or three disjoint sets
# of 10 sqrt(N) points of that hyperplane
def sparse_parts(space, gen):
    k = int(10 * space.N**0.5)
    pts = space.p * gen.choice(space.N // space.p, 3 * k, replace=False)
    return [DenseSubset.from_members(space, pts[i * k : i * k + k]) for i in range(3)]

sets = {
    "classify_vectors(sparse, H = V)": lambda space, gen: DenseSubset.from_members(
        space, space.p * gen.choice(space.N // space.p, int(10 * space.N**0.5), replace=False)
    ),
    "classify_vectors(point, H = V)": lambda space, gen: DenseSubset.from_members(space, [space.N // 3]),
    MULTI: sparse_parts,
}
op = ops[sys.argv[1]]
small = SpaceDescriptor(5, 3)
warm = DenseSubset.full(small)
op([warm] if sys.argv[1] == MULTI else warm, SubspaceBasis.from_rows(small, [[1, 2, 0]]))
space = SpaceDescriptor(int(sys.argv[2]), int(sys.argv[3]))
gen = np.random.default_rng(0)
H = SubspaceBasis.from_rows(space, gen.integers(0, space.p, size=(3, space.n)))
assert H.dim == 3
if sys.argv[1] in sets:
    A = sets[sys.argv[1]](space, gen)
else:
    bits = gen.integers(0, 2, size=space.N, dtype=np.uint8)
    A = DenseSubset(space, bits.view(bool))
result, reading = measure(lambda: op(A, H))
cached = cached_bytes(result.H, set()) if hasattr(result, "H") else None
print(json.dumps({"N": space.N, "cached_bytes": cached, **reading}))
"""


def _peak(op, p, n):
    """(N, peak bytes) of one op call at p^n above the mask, in a fresh
    interpreter running _BUDGET_SCRIPT."""
    out = run_peak_script(_BUDGET_SCRIPT, op, p, n)
    return out["N"], peak_bytes(out)


@pytest.mark.parametrize(
    "op, budget",
    [("PetalGraph", 1), ("restricted_sup", 1), ("classify_vectors", 4), ("energy", 4)],
)
def test_localization_memory_budget_at_the_cap(op, budget):
    """At 5^10 and 13^6 with a dim-3 H the call peaks at most budget * N
    bytes above the mask."""
    for p, n in ((5, 10), (13, 6)):
        N, peak = _peak(op, p, n)
        assert peak <= budget * N, (p, n)


@pytest.mark.parametrize("kind", ["sparse", "point"])
@pytest.mark.parametrize("p, n", [(5, 10), (13, 6)])
def test_whole_space_scan_memory_budget(p, n, kind):
    """classify_vectors at H = V keeps no |H|-sized witness or dual table:
    on 10 sqrt(N) points of a hyperplane, and on one point, whose every
    entry ties, it peaks at most 32 N bytes above the set.  It leaves
    nothing N-sized cached on V: its localization index is rebuilt per
    block and dropped, so only a few small tables stay, at most 4 kB."""
    out = run_peak_script(_BUDGET_SCRIPT, f"classify_vectors({kind}, H = V)", p, n)
    assert peak_bytes(out) <= 32 * out["N"]
    assert out["cached_bytes"] <= 4096


@pytest.mark.parametrize("p, n", [(5, 10), (13, 6)])
def test_joint_scan_memory_budget(p, n):
    """regularize_multi of three sparse parts, 10 sqrt(N) points of x_0 = 0
    each, with floor = N stops after its scan at H = V.  That scan gathers
    every part's block and transforms one part at a time: it peaks at most
    34 N bytes above the parts, one part's 32 N plus N per other part."""
    out = run_peak_script(_BUDGET_SCRIPT, "regularize_multi(sparse parts, floor = N)", p, n)
    assert peak_bytes(out) <= 34 * out["N"]


@pytest.mark.parametrize("p, n", [(3, 12), (5, 8)])
def test_petal_graph_on_the_whole_space_memory_budget(p, n):
    """PetalGraph with H = V holds three localization rows and no digit
    table: its construction peaks at most 64 N bytes above the mask."""
    N, peak = _peak("PetalGraph(H = V)", p, n)
    assert peak <= 64 * N


def test_direct_edge_count_memory_budget():
    """The X x Y scan of 2000 x 2000 pairs at 5^8 against a density-1/2 A
    peaks at most 100 MB above the mask: the pair kernel holds one run."""
    _, peak = _peak("edge_count_direct", 5, 8)
    assert peak <= 100 * 2**20
