"""Self-tests of the benchmark's oracles, tracer and workloads.

    python3 -m pytest -q bench/test_bench.py
"""

import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads; imported before numpy so the pin holds)

run.load_library()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fpnreg import cayley, regularity, threeap  # noqa: E402
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor, SubspaceBasis  # noqa: E402


def _spectrum(A):
    return oracle.spectra([A.mask], A.space.p, A.space.n)


def _agree_with_library(A, X, Y):
    p, n, N = A.space.p, A.space.n, A.space.N
    F, FX, FY = _spectrum(A), _spectrum(X), _spectrum(Y)
    assert oracle.ap_counts(F, p, n)[0] == threeap.count_3aps_naive(A)
    assert bool(oracle.ap_free([A.mask], p, n)[0]) == (threeap.find_nontrivial_3ap(A) is None)
    assert oracle.edge_count(F[0], FX[0], FY[0], N) == cayley.edge_count_direct(A, X, Y)
    if A.card:
        sup = cayley.sigma_certificate(A, 0.5, 0.5).fourier_sup
        assert abs(oracle.sup_nontrivial(F[0], N) - sup) <= 1e-12


def test_oracles_on_every_subset_of_f3_squared():
    space = SpaceDescriptor(3, 2)
    gen = np.random.default_rng(0)
    for bits in itertools.product((False, True), repeat=space.N):
        A = DenseSubset(space, np.array(bits))
        X = DenseSubset(space, gen.random(space.N) < 0.5)
        _agree_with_library(A, X, DenseSubset(space, ~A.mask))


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3)])
def test_oracles_on_random_sets(p, n):
    space = SpaceDescriptor(p, n)
    gen = np.random.default_rng(p * 100 + n)
    for _ in range(25):
        A, X, Y = (DenseSubset(space, gen.random(space.N) < gen.uniform(0.05, 0.6)) for _ in range(3))
        _agree_with_library(A, X, Y)


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3)])
def test_regularity_oracle_matches_classify_vectors(p, n):
    space = SpaceDescriptor(p, n)
    gen = np.random.default_rng(7)
    for _ in range(25):
        A = DenseSubset(space, gen.random(space.N) < 0.4)
        if not A.card:
            continue
        H = SubspaceBasis.from_vectors(space, gen.integers(0, space.N, size=int(gen.integers(0, n + 1))))
        eps = float(gen.uniform(0.05, 0.6))
        cls = regularity.classify_vectors(A, H, eps)
        sub = oracle.Subspace(H.rows, p, n)
        regular, energy = oracle.regularity(A.mask, sub, eps)
        assert regular == cls.is_regular
        assert abs(energy - regularity.energy(A, H)) <= 1e-9
        assert all(sub.is_minimal_rep(v) for v in cls.reps)
        assert sub.contains(H.elements()).all()
        assert int(sub.contains(np.arange(space.N)).sum()) == H.size


def test_flower_oracle_matches_flower_find_and_catches_short_flowers():
    """Random sets and parameters reach every stage and case; the flower
    check passes flower_find's own results and flags a flower with a petal
    dropped or a found flower reported as not found."""
    gen = np.random.default_rng(11)
    wl = workloads.Structure(0, slots=(), groups=0)
    seen = set()
    for _ in range(60):
        p, n = [(3, 4), (3, 5), (5, 3), (7, 3), (11, 2)][gen.integers(5)]
        wl.EPS, wl.ALPHA = float(gen.choice([0.3, 0.5, 0.7, 0.9])), float(gen.choice([0.5, 1.0]))
        space = SpaceDescriptor(p, n)
        A = DenseSubset(space, gen.random(space.N) < gen.uniform(0.2, 0.9))
        rep = threeap.flower_find(A, wl.M, wl.EPS, wl.ALPHA)
        seen.add((rep.case, rep.failure_stage))
        H = rep.multi_report.H_final
        parts = threeap.canonical_split(A, wl.M)
        search = oracle.FlowerSearch([part.mask for part in parts], oracle.Subspace(H.rows, p, n), wl.EPS, wl.ALPHA)
        for part, cands in zip(parts, search.candidates):
            assert cands.tolist() == threeap.build_petal_candidates(part, H, wl.EPS, wl.ALPHA, wl.M).reps.tolist()
        assert search.best() == (rep.flower.petal_count if rep.found else 0)
        wl.slots = [workloads.Slot("flower_find", p, n)]
        canon = wl.canonical(0, rep)
        assert wl.check(0, A, canon) == []
        if rep.found:
            short = json.loads(json.dumps(canon))
            short["flower"]["petals"].pop()
            assert wl.check(0, A, short)
            gave_up = {**canon, "found": False, "flower": None, "failure_stage": "no_cross_part_3aps"}
            assert wl.check(0, A, gave_up)
    assert {("disjoint_parts", None), ("disjoint_parts", "no_cross_part_3aps"), ("triple_overlap", "no_cross_part_3aps"),
            (None, "empty_petal_candidates")} <= seen


def test_petal_edge_oracle():
    space = SpaceDescriptor(3, 3)
    B = DenseSubset(space, np.random.default_rng(3).random(space.N) < 0.3)
    graph = cayley.petal_graph(B, SubspaceBasis.full(space), 0, 0)
    assert oracle.petal_edges(B.mask, 3, 3) == graph.edge_count() == space.N * B.card


TINY = {
    "spectral-large": dict(spaces=((3, 4), (5, 3)), groups=2, c=2),
    "density-mc": dict(spaces=((3, 4, 3), (5, 3, 3)), cs=(2, 3), groups=3),
    "structure": dict(
        slots=(
            ("regularize", 3, 5, 2),
            ("regularize_multi", 5, 3, 1),
            ("flower_find", 3, 5, 2),
            ("flower_find", 7, 4, 2),
            ("mc_klr11", 3, 3, 0),
        ),
        groups=2,
    ),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_has_no_failures(name):
    wl = workloads.WORKLOADS[name](5, **TINY[name])
    wl.warm_up()
    tasks, _, rss = run.timed_phase(wl, 0, min_tasks=3 * len(wl.slots))
    assert rss > 0
    problems, _ = run.check_tasks(wl, tasks)
    assert problems == {}
    assert len(tasks) == 3 * len(wl.slots)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_is_a_side_channel_with_repeatable_counts(name):
    counts = []
    for _ in range(2):
        wl = workloads.WORKLOADS[name](5, **TINY[name])
        plain = run.run_rotation(wl, 0)
        rec = tracing.Recorder()
        with rec.installed():
            traced = run.run_rotation(wl, 0, rec)
        assert [run.digest(wl.canonical(t.slot, t.result)) for t in plain] == [
            run.digest(wl.canonical(t.slot, t.result)) for t in traced
        ]
        metrics = rec.layer_metrics(1.0, 1.0)
        assert [m for m in metrics] == [name for name, _ in tracing.PER_LAYER]
        timed = ("s", "1/s")
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] not in timed and not k.startswith("trace.")})
    assert counts[0] == counts[1]


def _library_bindings():
    """Every module attribute and class attribute of the loaded fpnreg modules."""
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod_name != "fpnreg" and not mod_name.startswith("fpnreg."):
            continue
        for key, value in vars(mod).items():
            out[mod_name, key] = value
            if isinstance(value, type):
                out.update({(mod_name, key, attr): v for attr, v in vars(value).items()})
    return out


def test_tracer_wraps_every_binding_and_restores_it():
    before = _library_bindings()
    with tracing.Recorder().installed():
        during = _library_bindings()
        assert during[("fpnreg.cayley", "full_spectrum")] is not before[("fpnreg.cayley", "full_spectrum")]
        assert during[("fpnreg.threeap", "full_spectrum")] is during[("fpnreg.fourier", "full_spectrum")]
        assert during[("fpnreg.vectorspace", "SpaceDescriptor", "digits")] is not before[
            ("fpnreg.vectorspace", "SpaceDescriptor", "digits")
        ]
    assert _library_bindings() == before


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in tracing.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in tracing.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
