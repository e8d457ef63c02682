"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion builder is a pure function of its frozen seeds and returns a
JSON-able payload; the final criterion re-runs all of them and demands
byte-identical canonical reports.  Statistical thresholds were frozen from
pilot runs over the exact seed ranges used here (see the inline constants).

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from fpnreg.cayley import (
    edge_count,
    edge_count_direct,
    edge_count_fourier,
    petal_graph,
    sigma_certificate,
)
from fpnreg.fourier import DenseFunction, dft, identity_suite, idft
from fpnreg.randmodel import (
    CompleteBipartite,
    EmptyBipartite,
    TrivialAdversary,
    chernoff_bound,
    TailBoundInputs,
    empirical_tail,
    fourier_sup_report,
    mc_density_failure,
    mc_klr11,
    sample_bernoulli,
    sample_exact,
)
from fpnreg.regularity import classify_vectors, energy, refine_step, regularize, regularize_multi
from fpnreg.reporting import canonical_json
from fpnreg.rng import substream
from fpnreg.threeap import (
    capset_max_exhaustive,
    count_3aps_fourier,
    count_3aps_naive,
    find_nontrivial_3ap,
    flower_find,
)
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor, SubspaceBasis

from helpers import random_subset, random_subspace, validate_flower

IDENTITY_SPACES = [(p, n) for p in (3, 5, 7) for n in range(1, 6)]

# thresholds frozen after pilot runs over these exact seed ranges
LEMMA43_SEEDS = 100
LEMMA43_MIN_PASSES = 95          # observed 100/100
FLOWER_SEEDS = 50
FLOWER_MIN_FOUND = 15            # observed 22/50 at eps = 0.3
CERT_SET_SEEDS = 20              # r = N/2 on F_3^8: observed 20/20 certified

_first_run_bytes: dict = {}


def _record(num, payload):
    _first_run_bytes.setdefault(num, canonical_json(payload))
    return payload


def _report(num, label, started, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {status} ({time.perf_counter() - started:.2f}s): {label}")
    assert ok


# -- criterion builders (deterministic payloads) -----------------------------


def crit01_identity_suite():
    worst = {}
    for p, n in IDENTITY_SPACES:
        space = SpaceDescriptor(p, n)
        m = 0.0
        for trial in range(100):
            gen = substream(1001, p * 100 + n, trial)
            H = random_subspace(space, gen)
            f = DenseFunction(space, gen.uniform(-1, 1, size=H.size), H)
            g = DenseFunction(space, gen.uniform(-1, 1, size=H.size), H)
            m = max(m, identity_suite(f, g, H).max_deviation())
        worst[f"{p}^{n}"] = m
    return {"worst_residual_per_space": worst, "max": max(worst.values())}


def crit02_round_trip():
    worst = {}
    for p, n in IDENTITY_SPACES:
        space = SpaceDescriptor(p, n)
        V = SubspaceBasis.full(space)
        m = 0.0
        for trial in range(100):
            gen = substream(1002, p * 100 + n, trial)
            f = DenseFunction(space, gen.uniform(-1, 1, size=space.N))
            back = idft(dft(f, V))
            m = max(m, float(np.abs(back.values - f.values).max()))
        worst[f"{p}^{n}"] = m
    return {"worst_error_per_space": worst, "max": max(worst.values())}


def crit03_threeap_counts():
    sp32 = SpaceDescriptor(3, 2)
    mismatches = 0
    for mask_bits in range(512):
        A = DenseSubset(sp32, np.array([(mask_bits >> i) & 1 for i in range(9)], bool))
        if count_3aps_fourier(A) != count_3aps_naive(A):
            mismatches += 1
    sp34 = SpaceDescriptor(3, 4)
    for trial in range(500):
        gen = substream(1003, trial)
        A = random_subset(sp34, gen)
        if count_3aps_fourier(A) != count_3aps_naive(A):
            mismatches += 1
    return {"exhaustive_subsets": 512, "random_sets": 500, "mismatches": mismatches}


def crit04_capset_oracle():
    out = {}
    for n, expect in ((1, 2), (2, 4), (3, 9)):
        size, witness = capset_max_exhaustive(3, n)
        out[f"n={n}"] = {
            "size": size,
            "expected": expect,
            "witness_card": witness.card,
            "witness_ap_free": find_nontrivial_3ap(witness) is None,
        }
    return out


def crit05_worked_refinement():
    sp32 = SpaceDescriptor(3, 2)
    line = DenseSubset.from_members(sp32, [0, 1, 2])
    rep = regularize(line, 0.5, 1.0)
    return {
        "energy_trace": list(rep.energy_trace),
        "iterations": rep.iterations,
        "H_rows": [[int(x) for x in row] for row in rep.H_final.rows],
        "succeeded": rep.succeeded,
    }


def crit06_energy_increment():
    sp34 = SpaceDescriptor(3, 4)
    eps = 0.3
    gen = substream(1006)
    done = 0
    min_margin = math.inf
    growth_ok = True
    while done < 200:
        A = random_subset(sp34, gen)
        if A.card == 0:
            continue
        H = random_subspace(sp34, gen)
        cls = classify_vectors(A, H, eps)
        if cls.is_regular:
            continue
        _, diag = refine_step(A, H, eps, cls)
        min_margin = min(min_margin, diag.increment - eps**3)
        growth_ok = growth_ok and diag.index_after <= diag.index_before * 3**diag.index_before
        done += 1
    return {"refinements": done, "min_margin": min_margin, "index_growth_ok": growth_ok}


def crit07_energy_identities():
    sp34 = SpaceDescriptor(3, 4)
    zero = SubspaceBasis.zero(sp34)
    full = SubspaceBasis.full(sp34)
    worst = 0.0
    for trial in range(50):
        gen = substream(1007, trial)
        A = random_subset(sp34, gen)
        if A.card == 0:
            A = DenseSubset.from_members(sp34, [int(gen.integers(0, sp34.N))])
        worst = max(worst, abs(energy(A, full) - 1.0))
        worst = max(worst, abs(energy(A, zero) - sp34.N / A.card))
    return {"sets": 50, "worst_deviation": worst}


def crit08_multi_regularity():
    sp36 = SpaceDescriptor(3, 6)
    eps, alpha = 0.4, 0.5
    results = []
    all_ok = True
    for seed in range(20):
        gen = substream(1008, seed)
        if seed % 2 == 0:
            A = sample_exact(sp36, 364, seed)
        else:
            # union of cosets of a random 3-dimensional subspace: these need
            # genuine refinement before every part turns regular
            W = random_subspace(sp36, gen, max_dim=3)
            while W.dim != 3:
                W = random_subspace(sp36, gen, max_dim=3)
            cs = W.coset_system()
            picks = gen.choice(cs.K, size=cs.K // 3, replace=False)
            members = np.concatenate([sp36.add(W.elements(), int(cs.reps[k])) for k in picks])
            A = DenseSubset.from_members(sp36, members)
        parts_members = A.members().copy()
        gen.shuffle(parts_members)
        parts = [DenseSubset.from_members(sp36, parts_members[i::3]) for i in range(3)]
        rep = regularize_multi(parts, eps, alpha)
        ok = rep.succeeded and rep.iterations <= rep.step_cap
        for part in parts:
            ok = ok and classify_vectors(part, rep.H_final, eps).is_regular
        all_ok = all_ok and ok
        results.append({"seed": seed, "iterations": rep.iterations, "dim": rep.H_final.dim, "ok": ok})
    return {"runs": results, "all_ok": all_ok, "step_cap": rep.step_cap}


def crit09_edge_counts():
    sp31 = SpaceDescriptor(3, 1)
    subs = []
    for mask_bits in range(8):
        subs.append(DenseSubset(sp31, np.array([(mask_bits >> i) & 1 for i in range(3)], bool)))
    mismatches = 0
    for A in subs:
        for X in subs:
            for Y in subs:
                if round(edge_count_fourier(A, X, Y)) != edge_count_direct(A, X, Y):
                    mismatches += 1
    sp34 = SpaceDescriptor(3, 4)
    for trial in range(500):
        gen = substream(1009, trial)
        A, X, Y = (random_subset(sp34, gen) for _ in range(3))
        if round(edge_count_fourier(A, X, Y)) != edge_count_direct(A, X, Y):
            mismatches += 1
    return {"exhaustive_triples": 512, "random_triples": 500, "mismatches": mismatches}


def crit10_certificate_soundness():
    sp38 = SpaceDescriptor(3, 8)
    sigma, delta = 0.1, 0.5
    min_size = math.ceil(sigma * sp38.N)
    every = np.arange(sp38.N, dtype=np.int64)
    certified = 0
    violations = 0
    for seed in range(CERT_SET_SEEDS):
        R = sample_exact(sp38, sp38.N // 2, seed)
        cert = sigma_certificate(R, sigma, delta)
        if not cert.passed:
            continue
        certified += 1
        expected_scale = cert.set_card / sp38.N
        for trial in range(200):
            gen = substream(1010, seed, trial)
            nx = int(gen.integers(min_size, sp38.N + 1))
            ny = int(gen.integers(min_size, sp38.N + 1))
            X = DenseSubset.from_members(sp38, np.sort(gen.choice(every, size=nx, replace=False)))
            Y = DenseSubset.from_members(sp38, np.sort(gen.choice(every, size=ny, replace=False)))
            e = edge_count(R, X, Y)
            expected = expected_scale * X.card * Y.card
            if abs(e - expected) > delta * expected:
                violations += 1
    return {"certified_sets": certified, "pairs_per_set": 200, "violations": violations}


def crit11_tail_bound():
    sp38 = SpaceDescriptor(3, 8)
    cells = []
    all_ok = True
    for i, q in enumerate((0.02, 0.05, 0.1)):
        for j, kappa in enumerate((0.05, 0.1, 0.2)):
            lam = kappa * q * sp38.N
            rep = empirical_tail(sp38, q, lam, 1, 2000, 1011 + 10 * i + j)
            cells.append(
                {"q": q, "lam": lam, "freq": rep.frequency, "bound": rep.bound, "passed": rep.passed}
            )
            all_ok = all_ok and rep.passed
    return {"grid": cells, "all_ok": all_ok}


def crit12_random_set_sup():
    sp310 = SpaceDescriptor(3, 10)
    r = int(30 * math.sqrt(sp310.N))
    passes = sum(
        fourier_sup_report(sample_exact(sp310, r, seed)).passed for seed in range(LEMMA43_SEEDS)
    )
    return {"r": r, "seeds": LEMMA43_SEEDS, "passes": passes, "threshold": LEMMA43_MIN_PASSES}


def crit13_klr_sanity():
    complete = mc_klr11(CompleteBipartite(64), 4, 4, TrivialAdversary(), 500, 1013).no_edge_freq
    empty = mc_klr11(EmptyBipartite(64), 4, 4, TrivialAdversary(), 500, 1013).no_edge_freq
    sp34 = SpaceDescriptor(3, 4)
    dense = sample_bernoulli(sp34, 0.5, 1013)
    pg = petal_graph(dense, SubspaceBasis.full(sp34), 0, 0)
    freqs = [mc_klr11(pg, t1, 10, TrivialAdversary(), 500, 1013).no_edge_freq for t1 in (5, 10, 20)]
    return {
        "complete_freq": complete,
        "empty_freq": empty,
        "petal_density": pg.density(),
        "freqs_by_t1": freqs,
        "monotone": freqs[0] >= freqs[1] >= freqs[2],
    }


def crit14_density_trend():
    sp310 = SpaceDescriptor(3, 10)
    points = []
    for C in (2, 10, 30):
        r = int(C * math.sqrt(sp310.N))
        rep = mc_density_failure(sp310, r, 0.5, 20, 50, 1014)
        points.append({"C": C, "r": r, "failure_freq": rep.failure_freq})
    freqs = [pt["failure_freq"] for pt in points]
    return {
        "points": points,
        "non_increasing": all(a >= b for a, b in zip(freqs, freqs[1:])),
        "final_zero": freqs[-1] == 0.0,
    }


def crit15_flower_validator():
    sp36 = SpaceDescriptor(3, 6)
    found = 0
    invalid = 0
    for seed in range(FLOWER_SEEDS):
        R = sample_exact(sp36, sp36.N // 2, seed)
        gen = substream(seed, 1)
        members = R.members()
        pick = np.sort(gen.choice(len(members), size=int(0.5 * R.card), replace=False))
        A = DenseSubset.from_members(sp36, members[pick])
        rep = flower_find(A, 3, 0.3, 0.5, 1)
        if rep.found:
            found += 1
            if validate_flower(rep.flower, A):
                invalid += 1
    return {"seeds": FLOWER_SEEDS, "found": found, "invalid": invalid, "min_found": FLOWER_MIN_FOUND}


BUILDERS = {
    1: crit01_identity_suite,
    2: crit02_round_trip,
    3: crit03_threeap_counts,
    4: crit04_capset_oracle,
    5: crit05_worked_refinement,
    6: crit06_energy_increment,
    7: crit07_energy_identities,
    8: crit08_multi_regularity,
    9: crit09_edge_counts,
    10: crit10_certificate_soundness,
    11: crit11_tail_bound,
    12: crit12_random_set_sup,
    13: crit13_klr_sanity,
    14: crit14_density_trend,
    15: crit15_flower_validator,
}


# -- the criteria -------------------------------------------------------------


def test_criterion_01_identity_suite():
    started = time.perf_counter()
    out = _record(1, crit01_identity_suite())
    ok = out["max"] <= 1e-9 and time.perf_counter() - started < 30
    _report(1, f"identity residuals max {out['max']:.2e} over 1500 triples", started, ok)


def test_criterion_02_round_trip():
    started = time.perf_counter()
    out = _record(2, crit02_round_trip())
    ok = out["max"] <= 1e-10 and time.perf_counter() - started < 5
    _report(2, f"round-trip error max {out['max']:.2e}", started, ok)


def test_criterion_03_threeap_counts():
    started = time.perf_counter()
    out = _record(3, crit03_threeap_counts())
    ok = out["mismatches"] == 0 and time.perf_counter() - started < 10
    _report(3, "spectral = naive 3AP count on 512 + 500 sets", started, ok)


def test_criterion_04_capset_oracle():
    started = time.perf_counter()
    out = _record(4, crit04_capset_oracle())
    ok = all(v["size"] == v["expected"] and v["witness_ap_free"] for v in out.values())
    ok = ok and time.perf_counter() - started < 60
    _report(4, "cap-set maxima 2/4/9 with verified witnesses", started, ok)


def test_criterion_05_worked_refinement():
    started = time.perf_counter()
    out = _record(5, crit05_worked_refinement())
    ok = (
        out["energy_trace"] == [1.0, 3.0]
        and out["iterations"] == 1
        and out["H_rows"] == [[1, 0]]
        and out["succeeded"]
        and time.perf_counter() - started < 1
    )
    _report(5, "line in F_3^2 refines with energy trace [1, 3]", started, ok)


def test_criterion_06_energy_increment():
    started = time.perf_counter()
    out = _record(6, crit06_energy_increment())
    ok = (
        out["refinements"] == 200
        and out["min_margin"] >= -1e-9
        and out["index_growth_ok"]
        and time.perf_counter() - started < 60
    )
    _report(6, f"200 refinements, min increment margin {out['min_margin']:.2e}", started, ok)


def test_criterion_07_energy_identities():
    started = time.perf_counter()
    out = _record(7, crit07_energy_identities())
    ok = out["worst_deviation"] <= 1e-9 and time.perf_counter() - started < 5
    _report(7, f"d(A,V)=1 and d(A,0)=N/|A|, worst dev {out['worst_deviation']:.2e}", started, ok)


def test_criterion_08_multi_regularity():
    started = time.perf_counter()
    out = _record(8, crit08_multi_regularity())
    ok = out["all_ok"] and time.perf_counter() - started < 120
    _report(8, "20 seeded m=3 splits all jointly regularized and re-verified", started, ok)


def test_criterion_09_edge_counts():
    started = time.perf_counter()
    out = _record(9, crit09_edge_counts())
    ok = out["mismatches"] == 0 and time.perf_counter() - started < 10
    _report(9, "spectral = direct edge count on 512 + 500 triples", started, ok)


def test_criterion_10_certificate_soundness():
    started = time.perf_counter()
    out = _record(10, crit10_certificate_soundness())
    ok = (
        out["certified_sets"] == CERT_SET_SEEDS
        and out["violations"] == 0
        and time.perf_counter() - started < 120
    )
    _report(10, f"{out['certified_sets']} certified sets, 0/{200 * CERT_SET_SEEDS} bound violations", started, ok)


def test_criterion_11_tail_bound():
    started = time.perf_counter()
    out = _record(11, crit11_tail_bound())
    ok = out["all_ok"] and time.perf_counter() - started < 120
    _report(11, "empirical tail within bound + 3 SE on the 3x3 grid", started, ok)


def test_criterion_12_random_set_sup():
    started = time.perf_counter()
    out = _record(12, crit12_random_set_sup())
    ok = out["passes"] >= LEMMA43_MIN_PASSES and time.perf_counter() - started < 300
    _report(12, f"Fourier sup bound passed {out['passes']}/100 seeds", started, ok)


def test_criterion_13_klr_sanity():
    started = time.perf_counter()
    out = _record(13, crit13_klr_sanity())
    ok = (
        out["complete_freq"] == 0.0
        and out["empty_freq"] == 1.0
        and out["monotone"]
        and time.perf_counter() - started < 60
    )
    _report(13, "complete/empty frequencies exact, monotone in t1", started, ok)


def test_criterion_14_density_trend():
    started = time.perf_counter()
    out = _record(14, crit14_density_trend())
    ok = out["non_increasing"] and out["final_zero"] and time.perf_counter() - started < 900
    freqs = [pt["failure_freq"] for pt in out["points"]]
    _report(14, f"failure freq by C: {freqs} (refutation-based estimate)", started, ok)


def test_criterion_15_flower_validator():
    started = time.perf_counter()
    out = _record(15, crit15_flower_validator())
    ok = (
        out["found"] >= FLOWER_MIN_FOUND
        and out["invalid"] == 0
        and time.perf_counter() - started < 300
    )
    _report(15, f"{out['found']}/50 flowers found, all validated from scratch", started, ok)


def test_criterion_16_determinism(tmp_path):
    started = time.perf_counter()
    identical = True
    for num, builder in BUILDERS.items():
        first = _first_run_bytes.get(num) or canonical_json(builder())
        again = canonical_json(builder())
        a = tmp_path / f"criterion_{num:02d}.json"
        b = tmp_path / f"criterion_{num:02d}.rerun.json"
        a.write_text(first)
        b.write_text(again)
        if a.read_bytes() != b.read_bytes():
            identical = False
            print(f"[acceptance] criterion 16: payload {num} differs across reruns")
    _report(16, "all criterion reports byte-identical across reruns", started, identical)
