"""Random-set models and Monte Carlo checks of their concentration behavior.

Samplers are deterministic per seed via counter-based substreams (one per
trial), so parallel and sequential execution produce the same outcomes.
The exponential-moment tail bound exp(t^2 q N - t lambda) is implemented
directly; the optimized plug-in lambda = r/ln N, t = lambda/(2qN) yields
exp(-lambda^2 / (4qN)) (the looser 1/2-constant variant is reported next to
it for comparison).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InputError
from .fourier import full_spectrum
from .rng import sample_without_replacement, substream, substreams
from .threeap import DensityTestReport, density_test
from .vectorspace import DenseSubset, SpaceDescriptor, _check_index, _digit_table

_COUPLING_ATTEMPTS = 1000


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _sample_exact(space: SpaceDescriptor, r: int, gen: np.random.Generator) -> DenseSubset:
    # the picked indices are the members: no N-sized pool of points
    return DenseSubset.from_members(space, np.sort(gen.choice(space.N, size=r, replace=False)))


def sample_exact(space: SpaceDescriptor, r: int, seed: int) -> DenseSubset:
    """Uniform r-subset of V."""
    if not 0 <= r <= space.N:
        raise InputError(f"r must lie in [0, N = {space.N}], got {r}")
    return _sample_exact(space, r, substream(seed))


def sample_bernoulli(space: SpaceDescriptor, q: float, seed: int) -> DenseSubset:
    """Independent q-inclusion sample of V."""
    if not 0 <= q <= 1:
        raise InputError(f"q must lie in [0, 1], got {q}")
    return DenseSubset(space, substream(seed).random(space.N) < q)


@dataclass(frozen=True)
class CoupledSample:
    subset: DenseSubset
    r1_size: int
    r2_size: int
    attempts: int
    q: float


def sample_coupled(space: SpaceDescriptor, r: int, sigma: float, seed: int) -> CoupledSample:
    """Two-stage construction of a uniform-size-r set: a Bernoulli stage at
    rate q = (1 - sigma^4) r / N conditioned on |R1| in [(1-2 sigma^4) r, r]
    (conditioning realized by rejection), topped up with a uniform set R2
    drawn from the complement."""
    if not 0 <= r <= space.N:
        raise InputError(f"r must lie in [0, N = {space.N}], got {r}")
    if not 0 < sigma < 1:
        raise InputError(f"sigma must lie in (0, 1), got {sigma}")
    q = (1 - sigma**4) * r / space.N
    lo = (1 - 2 * sigma**4) * r
    for attempt in range(_COUPLING_ATTEMPTS):
        gen = substream(seed, attempt)
        mask1 = gen.random(space.N) < q
        r1 = int(mask1.sum())
        if not lo <= r1 <= r:
            continue
        complement = np.flatnonzero(~mask1)
        extra = sample_without_replacement(gen, complement, r - r1)
        mask = mask1.copy()
        mask[extra] = True
        return CoupledSample(DenseSubset(space, mask), r1, r - r1, attempt + 1, q)
    raise ContractError(f"conditioning event not hit in {_COUPLING_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# Fourier sup of a random set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierSupReport:
    sup: float
    bound: float
    passed: bool


def fourier_sup_report(R: DenseSubset) -> FourierSupReport:
    """Compare sup over nonzero xi of |1hat_R(xi)| against |R| / (N ln N)."""
    space = R.space
    if R.card == 0:
        raise InputError("R must be nonempty")
    spec = full_spectrum(space, R.mask)  # |Rhat(-xi)| = |Rhat(xi)|, so the half holds the sup
    sup = float(np.abs(spec[1:]).max())
    bound = R.card / (space.N * math.log(space.N))
    return FourierSupReport(sup, bound, sup < bound)


# ---------------------------------------------------------------------------
# Exponential-moment tail bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailBoundInputs:
    q: float
    N: int
    lam: float
    t: float

    def __post_init__(self):
        if not 0 < self.t <= 1:
            raise InputError(f"t must lie in (0, 1], got {self.t}")
        if not 0 <= self.q <= 1:
            raise InputError(f"q must lie in [0, 1], got {self.q}")
        if self.N < 1:
            raise InputError("N must be positive")


def chernoff_bound(inputs: TailBoundInputs) -> float:
    """exp(t^2 q N - t lambda), the exponential-moment bound on
    P(N Re 1hat_R(xi) > lambda) for Bernoulli(q) sets; InputError when it
    overflows a float."""
    exponent = inputs.t**2 * inputs.q * inputs.N - inputs.t * inputs.lam
    try:
        return math.exp(exponent)
    except OverflowError:
        msg = f"the bound exp({exponent:g}) overflows a float; raise lambda or lower q N"
        raise InputError(msg) from None


@dataclass(frozen=True)
class OptimizedTail:
    lam: float
    t: float
    bound: float            # exp(-lam^2 / (4 q N))
    bound_half_constant: float  # exp(-lam^2 / (2 q N)), for comparison


def optimized_tail(N: int, q: float, r: int) -> OptimizedTail:
    """Plug in lambda = r / ln N and t = lambda / (2 q N).

    The direct substitution into exp(t^2 qN - t lambda) gives exponent
    -lambda^2/(4qN); the variant with constant 2 in place of 4 is also
    reported since both circulate.
    """
    if N < 3:
        raise InputError("need N >= 3 for ln N > 0")
    if not 0 < q <= 1:
        raise InputError(f"q must lie in (0, 1], got {q}")
    lam = r / math.log(N)
    t = lam / (2 * q * N)
    if not 0 < t <= 1:
        raise InputError(f"optimized t = {t} falls outside (0, 1]")
    bound = chernoff_bound(TailBoundInputs(q, N, lam, t))
    return OptimizedTail(lam, t, bound, math.exp(-(lam**2) / (2 * q * N)))


@dataclass(frozen=True)
class EmpiricalTailReport:
    frequency: float
    bound: float
    t_star: float
    stderr: float
    passed: bool
    trials: int


def empirical_tail(
    space: SpaceDescriptor,
    q: float,
    lam: float,
    xi: int,
    trials: int,
    seed: int,
) -> EmpiricalTailReport:
    """Monte Carlo frequency of {N Re 1hat_R(xi) >= lambda} under Bernoulli(q)
    sampling, compared against the bound at the optimizing admissible t."""
    if not 0 <= q <= 1:
        raise InputError(f"q must lie in [0, 1], got {q}")
    if trials < 1:
        raise InputError("trials must be >= 1")
    xi = int(_check_index(space, xi))
    if xi == 0:
        raise InputError("xi must be nonzero (the mean is not centered at xi = 0)")
    # <x, xi> for every flat x: one linear form in the digits of x
    phases = _digit_table(space.p, space.digits(xi)[:, None], (1,))
    cosines = np.cos(2 * np.pi * phases / space.p)

    hits = 0
    for gen in substreams(seed, trials):
        x = float(cosines[gen.random(space.N) < q].sum())
        if x >= lam:
            hits += 1
    freq = hits / trials

    if lam > 0 and q > 0:
        t_star = min(1.0, lam / (2 * q * space.N))
    else:
        t_star = 1.0
    bound = chernoff_bound(TailBoundInputs(q, space.N, lam, t_star))
    stderr = math.sqrt(freq * (1 - freq) / trials)
    return EmpiricalTailReport(freq, bound, t_star, stderr, freq <= bound + 3 * stderr, trials)


# ---------------------------------------------------------------------------
# Adversarial (t1, t2)-subgraph experiment
# ---------------------------------------------------------------------------


class CompleteBipartite:
    """Complete bipartite test graph on u + u vertices."""

    def __init__(self, u: int):
        self.u = u

    def any_edge(self, lpos, rpos) -> bool:
        return len(lpos) > 0 and len(rpos) > 0

    def left_degrees(self) -> np.ndarray:
        return np.full(self.u, self.u, dtype=np.int64)

    def right_degrees_into(self, lpos) -> np.ndarray:
        return np.full(self.u, len(lpos), dtype=np.int64)


class EmptyBipartite:
    """Edgeless bipartite test graph on u + u vertices."""

    def __init__(self, u: int):
        self.u = u

    def any_edge(self, lpos, rpos) -> bool:
        return False

    def left_degrees(self) -> np.ndarray:
        return np.zeros(self.u, dtype=np.int64)

    def right_degrees_into(self, lpos) -> np.ndarray:
        return np.zeros(self.u, dtype=np.int64)


class TrivialAdversary:
    """Removes nothing: S1 = S2 = empty."""

    name = "trivial"

    def select_s1(self, graph) -> np.ndarray:
        return np.empty(0, dtype=np.int64)

    def select_s2(self, graph, t1) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


class GreedyAdversary:
    """Removes the best-connected floor(u/2) vertices on each side, so the
    sampling pool is the lowest-degree half; the second side recomputes
    degrees into the realized T1 (the adaptive hook the protocol allows)."""

    name = "greedy"

    def select_s1(self, graph) -> np.ndarray:
        order = np.argsort(graph.left_degrees(), kind="stable")
        return np.sort(order[graph.u - graph.u // 2 :])

    def select_s2(self, graph, t1) -> np.ndarray:
        order = np.argsort(graph.right_degrees_into(t1), kind="stable")
        return np.sort(order[graph.u - graph.u // 2 :])


ADVERSARIES = {"trivial": TrivialAdversary, "greedy": GreedyAdversary}


@dataclass(frozen=True)
class KLRReport:
    trials: int
    t1: int
    t2: int
    adversary: str
    no_edge_freq: float
    u: int


def _pool(u: int, blocked, side: str) -> np.ndarray:
    """The positions 0 <= i < u that the adversary left open, ascending."""
    blocked = np.asarray(blocked, dtype=np.int64)
    if len(blocked) > u / 2:
        raise ContractError(f"adversary chose |{side}| = {len(blocked)} > u/2")
    if blocked.size and (blocked.min() < 0 or blocked.max() >= u):
        raise ContractError(f"adversary blocked a position outside [0, {u}) in {side}")
    keep = np.ones(u, dtype=bool)
    keep[blocked] = False
    return np.flatnonzero(keep)


def mc_klr11(graph, t1: int, t2: int, adversary, trials: int, seed: int) -> KLRReport:
    """Simulate the two-round adversarial (t1, t2)-subgraph sampling and
    return the frequency with which T1 x T2 spans no edge.

    Order per round: the adversary blocks S1, we draw T1 uniformly from the
    rest; the adversary blocks S2 (seeing T1), we draw T2.  Adversary blocks
    are contractually limited to u/2 vertices.
    """
    u = graph.u
    if trials < 1:
        raise InputError("trials must be >= 1")
    if not (1 <= t1 < u / 2 and 1 <= t2 < u / 2):
        raise InputError(f"need 1 <= t1, t2 < u/2 = {u / 2}")

    failures = 0
    for gen in substreams(seed, trials):
        T1 = sample_without_replacement(gen, _pool(u, adversary.select_s1(graph), "S1"), t1)
        T2 = sample_without_replacement(gen, _pool(u, adversary.select_s2(graph, T1), "S2"), t2)
        if not graph.any_edge(T1, T2):
            failures += 1
    name = getattr(adversary, "name", type(adversary).__name__)
    return KLRReport(trials, t1, t2, name, failures / trials, u)


# ---------------------------------------------------------------------------
# Density-failure estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityFailureReport:
    r: int
    alpha: float
    outer_trials: int
    inner_trials: int
    failing_sets: int
    failure_freq: float
    inner_freqs: tuple


def mc_density_failure(
    space: SpaceDescriptor,
    r: int,
    alpha: float,
    outer_trials: int,
    inner_trials: int,
    seed: int,
) -> DensityFailureReport:
    """Estimate how often a uniform r-subset R fails to be (alpha, 3AP)-dense.

    Outer loop samples R, inner loop searches for 3AP-free alpha-subsets via
    density_test; R counts as failing when at least one witness appears.
    The estimate counts witnessed failures only, so it lower-bounds the true
    failure probability.
    """
    if not 0 <= r <= space.N:
        raise InputError(f"r must lie in [0, N = {space.N}], got {r}")
    if outer_trials < 1 or inner_trials < 1:
        raise InputError("trial counts must be >= 1")
    failing = 0
    inner_freqs = []
    for outer in range(outer_trials):
        R = _sample_exact(space, r, substream(seed, outer, 0))
        inner_seed = int(substream(seed, outer, 1).integers(2**62))
        rep: DensityTestReport = density_test(R, alpha, inner_trials, inner_seed)
        inner_freqs.append(rep.failure_freq)
        if rep.failures > 0:
            failing += 1
    return DensityFailureReport(
        r, alpha, outer_trials, inner_trials, failing, failing / outer_trials, tuple(inner_freqs)
    )
