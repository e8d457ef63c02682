"""The benchmark's three workloads: inputs, tasks, canonical results, checks.

A workload is a fixed rotation of task slots.  The timed phase runs whole
rotations; rotation r reads input group r mod `groups`, so every rotation
sees fresh inputs until the groups run out.  Inputs come only from the
workload seed.  Each task calls the library entry point a CLI handler calls,
so argument parsing and report serialization stay out of the numbers.
Library functions are looked up on their module at call time, which lets the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import NamedTuple

import numpy as np

from fpnreg import cayley, randmodel, regularity, threeap
from fpnreg.rng import substream
from fpnreg.vectorspace import DenseSubset, SpaceDescriptor, SubspaceBasis

import oracle


class Slot(NamedTuple):
    kind: str
    p: int
    n: int
    param: int = 0  # C of r = C sqrt(N) in density-mc, dim W in structure
    copy: int = 0  # tells apart slots that differ only in their inputs

    @property
    def label(self) -> str:
        extra = f"[{self.param}]" if self.param else ""
        copy = f"#{self.copy}" if self.copy else ""
        return f"{self.kind}@{self.p}^{self.n}{extra}{copy}"


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([int(k) % (1 << 63) for k in key])


def _random_half(space: SpaceDescriptor, gen: np.random.Generator) -> DenseSubset:
    """Uniform random subset: each point in with probability 1/2."""
    raw = gen.integers(0, 256, size=(space.N + 7) // 8, dtype=np.uint8)
    return DenseSubset(space, np.unpackbits(raw)[: space.N].astype(bool))


def _random_exact(space: SpaceDescriptor, r: int, gen: np.random.Generator) -> DenseSubset:
    return DenseSubset.from_members(space, gen.choice(space.N, size=r, replace=False))


def _masks_digest(masks) -> str:
    h = hashlib.sha256()
    for mask in masks:
        h.update(np.packbits(mask).tobytes())
    return h.hexdigest()[:16]


def _split_masks(mask: np.ndarray, m: int) -> list:
    """The canonical split: m near-equal blocks of ascending members."""
    members = np.flatnonzero(mask)
    base, rem = divmod(len(members), m)
    out, at = [], 0
    for i in range(m):
        size = base + (1 if i < rem else 0)
        part = np.zeros(mask.size, dtype=bool)
        part[members[at : at + size]] = True
        out.append(part)
        at += size
    return out


class Workload:
    """A rotation of task slots with its inputs, canonical results and checks."""

    name: str
    slots: list
    groups: int
    # seconds per rotation measured when the workload was defined; it only
    # sizes the traced run, so the traced counts depend on --seconds alone
    rotation_estimate_s: float

    def prepare(self, group: int) -> None:
        """Make group's inputs ready; the runner calls it outside the timers."""

    def input(self, group: int, slot: int):
        raise NotImplementedError

    def run(self, slot: int, inp):
        raise NotImplementedError

    def canonical(self, slot: int, result):
        """The result as small JSON-able values: what the checks read and
        what the digests cover.  Full results are dropped after each
        rotation, so they do not pile up in the peak RSS."""
        raise NotImplementedError

    def check(self, slot: int, inp, canon) -> list:
        """Problems found by the oracles; empty when the result is right."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One task per task kind, on inputs the timed phase never sees."""
        seen = set()
        for s, slot in enumerate(self.slots):
            if slot.kind not in seen:
                seen.add(slot.kind)
                self.run(s, self.input(-1, s))


# ---------------------------------------------------------------------------
# spectral-large
# ---------------------------------------------------------------------------


class SpectralLarge(Workload):
    """Full-group transforms on N-sized arrays larger than the L2 cache."""

    name = "spectral-large"
    KINDS = ("count_3aps_fourier", "sigma_certificate", "edge_count")
    SIGMA, DELTA = 0.1, 0.5
    rotation_estimate_s = 3.0

    def __init__(self, seed: int, spaces=((3, 12), (7, 7), (11, 6)), groups: int = 16, c: int = 10):
        self.spaces = [SpaceDescriptor(p, n) for p, n in spaces]
        self.slots = [Slot(kind, sp.p, sp.n) for sp in self.spaces for kind in self.KINDS]
        self.groups = groups
        self.seed, self.c = seed, c
        # one group's inputs at a time (about 9 MB at the default sizes), so
        # the peak RSS is mostly the library's own arrays
        self._group, self._inputs = None, {}
        self._oracle_key = None
        self._oracle_spectra = None

    def prepare(self, group):
        if group == self._group:
            return
        self._inputs = {}  # drop the old arrays before the new ones exist
        for sp in self.spaces:
            gen = _rng(self.seed, group + 1, sp.p, sp.n)
            # A doubles as X of the edge count; |A|, |Y| ~ N/2 >= N/4
            # keeps edge_count on its spectral path.
            A = _random_half(sp, gen)
            Y = _random_half(sp, gen)
            R = _random_exact(sp, int(self.c * math.sqrt(sp.N)), gen)
            self._inputs[sp.p, sp.n] = (A, R, Y)
        self._group = group

    def input(self, group, slot):
        self.prepare(group)
        s = self.slots[slot]
        return (group, *self._inputs[s.p, s.n])

    def run(self, slot, inp):
        _, A, R, Y = inp
        kind = self.slots[slot].kind
        if kind == "count_3aps_fourier":
            return threeap.count_3aps_fourier(A)
        if kind == "sigma_certificate":
            return cayley.sigma_certificate(R, self.SIGMA, self.DELTA)
        return cayley.edge_count(R, A, Y)

    def canonical(self, slot, result):
        if self.slots[slot].kind == "sigma_certificate":
            return {"sup": result.fourier_sup, "passed": bool(result.passed), "card": int(result.set_card)}
        return int(result)

    def check(self, slot, inp, canon):
        group, A, R, Y = inp
        s = self.slots[slot]
        N = s.p**s.n
        if self._oracle_key != (group, s.p, s.n):
            self._oracle_spectra = None  # drop the old arrays before the new ones exist
            self._oracle_spectra = oracle.spectra([A.mask, R.mask, Y.mask], s.p, s.n)
            self._oracle_key = (group, s.p, s.n)
        F = self._oracle_spectra
        if s.kind == "count_3aps_fourier":
            want = int(oracle.ap_counts(F[0:1], s.p, s.n)[0])
            return [] if canon == want else [f"3AP count {canon} != oracle {want}"]
        if s.kind == "sigma_certificate":
            problems = []
            sup = oracle.sup_nontrivial(F[1], N)
            if abs(canon["sup"] - sup) > oracle.FLOAT_TOL:
                problems.append(f"sup {canon['sup']} != oracle {sup}")
            if canon["passed"] != (canon["sup"] <= self.DELTA * self.SIGMA * R.card / N):
                problems.append("passed flag disagrees with the threshold")
            if canon["card"] != R.card:
                problems.append("set_card disagrees with |R|")
            return problems
        want = oracle.edge_count(F[1], F[0], F[2], N)
        return [] if canon == want else [f"edge count {canon} != oracle {want}"]


# ---------------------------------------------------------------------------
# density-mc
# ---------------------------------------------------------------------------


class DensityMC(Workload):
    """Thousands of cache-resident 3AP counts: the body of mc_density_failure."""

    name = "density-mc"
    ALPHA = 0.5
    rotation_estimate_s = 0.18

    # (p, n, trials per task): trials make one task cost about the same on
    # both spaces, so the task-time quantiles do not sit between two modes.
    def __init__(self, seed: int, spaces=((3, 8, 8), (5, 5, 25)), cs=(2, 10, 30), groups: int = 2000):
        self.slots = [Slot("density_test", p, n, c) for p, n, _ in spaces for c in cs]
        self._trials = [t for _, _, t in spaces for _ in cs]
        self.groups = groups
        # row 0 is the warm-up group
        self._seeds = _rng(seed, 0).integers(0, 1 << 62, size=(groups + 1, len(self.slots), 2))

    def input(self, group, slot):
        s = self.slots[slot]
        r = int(s.param * math.sqrt(s.p**s.n))
        seed_r, seed_t = (int(x) for x in self._seeds[group + 1, slot])
        return r, self._trials[slot], seed_r, seed_t

    def run(self, slot, inp):
        r, trials, seed_r, seed_t = inp
        s = self.slots[slot]
        R = randmodel.sample_exact(SpaceDescriptor(s.p, s.n), r, seed_r)
        return R.card, threeap.density_test(R, self.ALPHA, trials, seed_t)

    def canonical(self, slot, result):
        card, rep = result
        return {
            "card": card,
            "subset_size": rep.subset_size,
            "trials": rep.trials,
            "failures": rep.failures,
            "outcomes": list(rep.outcomes),
            "witnesses": [list(w) for w in rep.witnesses],
        }

    def check(self, slot, inp, canon):
        """Re-derive R and every trial subset through the documented
        substream seeding (sample_exact: substream(seed); trial t:
        substream(seed, t); both pick sorted choice(..., replace=False))
        and recount each subset with the oracle."""
        r, trials, seed_r, seed_t = inp
        s = self.slots[slot]
        N = s.p**s.n
        members = np.sort(substream(seed_r).choice(N, size=r, replace=False))
        k = math.ceil(self.ALPHA * r)
        problems = []
        if canon["card"] != r:
            problems.append(f"|R| = {canon['card']}, expected {r}")
        if canon["subset_size"] != k or canon["trials"] != trials:
            problems.append("subset size or trial count differs from the request")
        subs = [np.sort(members[substream(seed_t, t).choice(r, size=k, replace=False)]) for t in range(trials)]
        masks = np.zeros((trials, N), dtype=bool)
        for t, sub in enumerate(subs):
            masks[t, sub] = True
        free = oracle.ap_free(masks, s.p, s.n)
        if canon["outcomes"] != [int(f) for f in free]:
            problems.append("outcomes disagree with the oracle recount")
        if canon["failures"] != int(free.sum()):
            problems.append("failure count disagrees with the outcomes")
        # every witness must be one of the re-derived AP-free k-subsets of R
        expected = [sub.tolist() for sub, f in zip(subs, free) if f][:10]
        if canon["witnesses"] != expected:
            problems.append("witnesses are not the first AP-free re-derived subsets")
        return problems


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _all_digits(p: int, n: int) -> np.ndarray:
    d = oracle.digits(np.arange(p**n), p, n)
    d.flags.writeable = False
    return d


def coset_union(space: SpaceDescriptor, dim: int, gen: np.random.Generator, share=0.3, flip=0.02) -> DenseSubset:
    """About `share` of the cosets of a hidden dim-`dim` subspace W, with a
    `flip` share of all points toggled.  W is the kernel of x -> x C for a
    random n x (n - dim) matrix C holding an identity block on random rows,
    so C has full column rank."""
    p, n = space.p, space.n
    c = n - dim
    C = gen.integers(0, p, size=(n, c))
    C[gen.permutation(n)[:c]] = np.eye(c, dtype=np.int64)
    labels = oracle.to_index(_all_digits(p, n) @ C % p, p, c)
    chosen = gen.choice(p**c, size=max(1, round(share * p**c)), replace=False)
    mask = np.isin(labels, chosen)
    mask[gen.choice(space.N, size=round(flip * space.N), replace=False)] ^= True
    return DenseSubset(space, mask)


class Structure(Workload):
    """Energy-increment refinement, flower search and petal-graph scans on
    noisy unions of cosets of hidden subspaces."""

    name = "structure"
    EPS, ALPHA, M = 0.2, 0.5, 3
    KLR_T, KLR_TRIALS, KLR_DENSITY = 4, 200, 0.1
    rotation_estimate_s = 2.4

    # (kind, p, n, dim W); mc_klr11 has no W.  The refinements run on two
    # W per space.  flower_find is bimodal in the draw wherever the joint
    # refinement sometimes collapses to H = {0} (40 ms against 2-4 s for
    # one space and W dimension), so it runs only where the regime is
    # stable: collapsed at 7^4, where the Python petal loop runs over all
    # 2401 cosets, and uncollapsed at 3^8, 3^9 and 5^6.  A fully collapsed
    # flower at 5^6 (W dim 2, about 2 s) was left out: it took 60% of a run
    # and its cost moves by 13% with the draw.  Every slot but mc_klr11
    # runs on COPIES inputs per rotation: the klr11 scans are the slowest
    # and most noise-sensitive tasks, and as 2 of 48 tasks they sit well
    # above p90, so p90 falls inside the 3^9 refinements and flowers rather
    # than at the gap below the scans.
    SLOTS = (
        ("regularize", 3, 8, 4),
        ("regularize_multi", 3, 8, 4),
        ("regularize", 3, 8, 6),
        ("regularize_multi", 3, 8, 6),
        ("flower_find", 3, 8, 6),
        ("flower_find", 3, 8, 7),
        ("regularize", 3, 9, 6),
        ("regularize_multi", 3, 9, 6),
        ("flower_find", 3, 9, 7),
        ("regularize", 3, 9, 8),
        ("regularize_multi", 3, 9, 8),
        ("flower_find", 3, 9, 8),
        ("regularize", 5, 6, 4),
        ("regularize_multi", 5, 6, 4),
        ("regularize", 5, 6, 5),
        ("regularize_multi", 5, 6, 5),
        ("flower_find", 5, 6, 5),
        ("regularize", 7, 4, 2),
        ("regularize_multi", 7, 4, 2),
        ("flower_find", 7, 4, 2),
        ("regularize", 7, 4, 3),
        ("regularize_multi", 7, 4, 3),
        ("flower_find", 7, 4, 3),
        ("mc_klr11", 3, 6, 0),
        ("mc_klr11", 5, 4, 0),
    )

    COPIES = 2

    def __init__(self, seed: int, slots=SLOTS, groups: int = 16):
        self.slots = [
            Slot(kind, p, n, d, c)
            for kind, p, n, d in slots
            for c in range(1 if kind == "mc_klr11" else self.COPIES)
        ]
        self.groups = groups
        self._inputs = {}
        keys = sorted({(s.p, s.n, s.param, s.copy, s.kind == "mc_klr11") for s in self.slots})
        for g in range(-1, groups):
            for p, n, d, c, klr in keys:
                gen = _rng(seed, g + 1, p, n, d, c)
                sp = SpaceDescriptor(p, n)
                if klr:
                    B = DenseSubset(sp, gen.random(sp.N) < self.KLR_DENSITY)
                    self._inputs[g, p, n, d, c] = (B, int(gen.integers(0, 1 << 62)))
                else:
                    self._inputs[g, p, n, d, c] = coset_union(sp, d, gen)

    def input(self, group, slot):
        s = self.slots[slot]
        return self._inputs[group, s.p, s.n, s.param, s.copy]

    def run(self, slot, inp):
        kind = self.slots[slot].kind
        if kind == "regularize":
            return regularity.regularize(inp, self.EPS, self.ALPHA)
        if kind == "regularize_multi":
            return regularity.regularize_multi(threeap.canonical_split(inp, self.M), self.EPS, self.ALPHA)
        if kind == "flower_find":
            return threeap.flower_find(inp, self.M, self.EPS, self.ALPHA)
        B, seed = inp
        graph = cayley.petal_graph(B, SubspaceBasis.full(B.space), 0, 0)
        rep = randmodel.mc_klr11(graph, self.KLR_T, self.KLR_T, randmodel.GreedyAdversary(), self.KLR_TRIALS, seed)
        # the greedy adversary has already computed (and cached) the degrees
        return rep, int(graph.left_degrees().sum())

    @staticmethod
    def _canon_report(rep):
        return {
            "rows": rep.H_final.rows.tolist(),
            "iterations": rep.iterations,
            "energy_trace": list(rep.energy_trace),
            "index_trace": list(rep.index_trace),
            "mass_trace": list(rep.mass_trace),
            "succeeded": rep.succeeded,
            "stop_reason": rep.stop_reason,
        }

    def canonical(self, slot, result):
        kind = self.slots[slot].kind
        if kind in ("regularize", "regularize_multi"):
            return self._canon_report(result)
        if kind == "flower_find":
            f = result.flower
            return {
                "found": result.found,
                "failure_stage": result.failure_stage,
                "case": result.case,
                "part_sizes": list(result.part_sizes),
                "bi_sizes": list(result.bi_sizes),
                "b_size": result.b_size,
                "multi": None if result.multi_report is None else self._canon_report(result.multi_report),
                "flower": None
                if f is None
                else {
                    "rows": f.H.rows.tolist(),
                    "parts_sha": _masks_digest([part.mask for part in f.parts]),
                    "i0": f.i0,
                    "j0": f.j0,
                    "k0": f.k0,
                    "center": f.center,
                    "petals": [list(x) for x in f.petals],
                },
            }
        rep, edges = result
        return {"no_edge_freq": rep.no_edge_freq, "trials": rep.trials, "u": rep.u, "edges": edges}

    def check(self, slot, inp, canon):
        s = self.slots[slot]
        if s.kind == "regularize":
            return self._check_refinement(canon, [inp.mask], s.p, s.n)
        if s.kind == "regularize_multi":
            return self._check_refinement(canon, _split_masks(inp.mask, self.M), s.p, s.n)
        if s.kind == "flower_find":
            return self._check_flower(canon, inp.mask, s.p, s.n)
        B, _ = inp
        problems = []
        if not 0.0 <= canon["no_edge_freq"] <= 1.0:
            problems.append(f"no-edge frequency {canon['no_edge_freq']} outside [0, 1]")
        if canon["trials"] != self.KLR_TRIALS or canon["u"] != B.space.N:
            problems.append("trial count or side size differs from the request")
        want = oracle.petal_edges(B.mask, s.p, s.n)
        if canon["edges"] != want:
            problems.append(f"petal edge count {canon['edges']} != direct count {want}")
        return problems

    def _check_refinement(self, rep, masks, p, n) -> list:
        """Energy rises by >= eps^3 per step, the index grows within
        index' <= index * p^index, and the final H is eps-regular for every
        part with the reported energy, by the character-sum oracle."""
        eps = self.EPS
        problems = []
        if not rep["succeeded"] or rep["stop_reason"] != "regular":
            problems.append(f"refinement stopped with {rep['stop_reason']}")
        e, idx = rep["energy_trace"], rep["index_trace"]
        nonempty = [m for m in masks if m.any()]
        if len(e) != rep["iterations"] + 1 or len(idx) != len(e):
            problems.append("trace lengths disagree with the iteration count")
        if abs(e[0] - len(nonempty)) > oracle.FLOAT_TOL:
            problems.append(f"energy at H = V is {e[0]}, expected {len(nonempty)}")
        for a, b in zip(e, e[1:]):
            if b - a < eps**3 - oracle.FLOAT_TOL:
                problems.append(f"energy step {a} -> {b} rises by less than eps^3")
        for a, b in zip(idx, idx[1:]):
            if not a < b or math.log(b) > math.log(a) + a * math.log(p):
                problems.append(f"index step {a} -> {b} breaks the growth bound")
        try:
            H = oracle.Subspace(rep["rows"], p, n)
        except oracle.OracleError as exc:
            return problems + [str(exc)]
        if idx and idx[-1] != p**n // H.size:
            problems.append("final index disagrees with the final subspace")
        total = 0.0
        for i, mask in enumerate(nonempty):
            regular, energy = oracle.regularity(mask, H, eps)
            if not regular:
                problems.append(f"final H is not eps-regular for part {i}")
            total += energy
        if abs(total - e[-1]) > oracle.FLOAT_TOL * max(1.0, total):
            problems.append(f"final energy {e[-1]} != oracle {total}")
        return problems

    def _check_flower(self, rep, mask, p, n) -> list:
        """Re-validate the joint refinement, then redo the petal search on
        its H with the oracle: the reported stage, case and candidate sizes
        must match, a found flower must have the maximum petal count, and
        its petals must be exactly those of its center."""
        parts = _split_masks(mask, self.M)
        multi = rep["multi"]
        if multi is None or not multi["succeeded"]:
            if rep["found"] or rep["failure_stage"] != "no_regular_subspace":
                return ["failed joint refinement not reported as no_regular_subspace"]
            return []
        problems = self._check_refinement(multi, parts, p, n)
        search = oracle.FlowerSearch(parts, oracle.Subspace(multi["rows"], p, n), self.EPS, self.ALPHA)
        if rep["bi_sizes"] != [len(c) for c in search.candidates] or rep["b_size"] != search.b_size:
            problems.append("petal candidate sizes disagree with the oracle")
        best = search.best()
        if not any(len(c) for c in search.candidates):
            stage = "empty_petal_candidates"
        else:
            stage = None if best else "no_cross_part_3aps"
            if rep["case"] != search.case:
                problems.append(f"case {rep['case']} != oracle {search.case}")
        if rep["failure_stage"] != stage or rep["found"] != (stage is None):
            problems.append(f"stage {rep['failure_stage']} != oracle {stage}")
        f = rep["flower"]
        if not rep["found"] or f is None:
            return problems
        if f["rows"] != multi["rows"]:
            problems.append("flower subspace is not the jointly regular subspace")
        if f["parts_sha"] != _masks_digest(parts):
            problems.append("flower parts are not the canonical split of A")
        i0, j0, k0, center = f["i0"], f["j0"], f["k0"], f["center"]
        if len({i0, j0, k0}) != 3:
            return problems + ["part indices not pairwise distinct"]
        if len(f["petals"]) != best:
            problems.append(f"flower has {len(f['petals'])} petals, the maximum is {best}")
        at = np.flatnonzero(search.eligible[i0] == center)
        if not at.size:
            return problems + ["center is not an eligible candidate of its part"]
        ws, ok = search.petals(i0, j0, k0)
        us = search.eligible[j0]
        want = [[int(us[b]), int(ws[at[0], b])] for b in np.flatnonzero(ok[at[0]])]
        if f["petals"] != want:
            problems.append("petals are not every petal of the center")
        return problems


WORKLOADS = {cls.name: cls for cls in (SpectralLarge, DensityMC, Structure)}
