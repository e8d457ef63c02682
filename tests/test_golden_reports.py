"""Golden digests of every per-trial Monte Carlo loop.

Each case runs one seeded report at a small size and compares the sha256 of
its canonical bytes with a digest recorded before the trial loops shared one
re-keyed stream and one trial mask.  A change to how a trial draws, decides
or reports shows up here as a changed digest.  Regenerate a digest only when
a report is meant to change; `PYTHONPATH=src python
tests/test_golden_reports.py` prints the current ones.
"""

import hashlib

import numpy as np
import pytest

from fpnreg.cayley import pair_density_check, sparse_check
from fpnreg.cli import build_parser, run_command
from fpnreg.reporting import canonical_json
from fpnreg.vectorspace import SpaceDescriptor, SubspaceBasis

from helpers import ap_free_core, random_subset


def _members(p: int, n: int, density: float, seed: int) -> str:
    A = random_subset(SpaceDescriptor(p, n), np.random.default_rng(seed), density)
    return ",".join(map(str, A.members()))


def _cli(argv):
    def run():
        status, text = run_command(build_parser().parse_args(argv))
        assert status == 0
        return text

    return run


def _report(call):
    return lambda: canonical_json(call())


def _sparse_check():
    A = random_subset(SpaceDescriptor(3, 4), np.random.default_rng(3), 0.3)
    return sparse_check(A, 2.0, 0.2, 12, 11)


def _pair_density_check(vj):
    space = SpaceDescriptor(3, 5)
    H = SubspaceBasis.from_rows(space, np.eye(5, dtype=int)[:3])
    A = random_subset(space, np.random.default_rng(4), 1 / 3)
    return lambda: pair_density_check(A, H, 0, vj, 0.45, 12, 21)


CASES = {
    # k = 6: most trials are AP-free and carry witnesses
    "density-test-3^4-small": _cli(
        ["density-test", "--members", _members(3, 4, 0.5, 1), "--p", "3", "--n", "4",
         "--alpha", "0.15", "--trials", "40", "--seed", "5"]
    ),
    # k = 97: every trial is decided by its first probe
    "density-test-5^4-dense": _cli(
        ["density-test", "--members", _members(5, 4, 0.64, 2), "--p", "5", "--n", "4",
         "--alpha", "0.25", "--trials", "20", "--seed", "6"]
    ),
    # k = 70 from an AP-free core and one stray point: AP-free trials, and
    # trials whose only progressions run through the stray point
    "density-test-7^4-core": _cli(
        ["density-test", "--members", ",".join(map(str, ap_free_core(1))), "--p", "7", "--n", "4",
         "--alpha", "0.85", "--trials", "24", "--seed", "7"]
    ),
    "density-failure-5^3": _cli(
        ["density-failure", "--p", "5", "--n", "3", "--r", "60", "--alpha", "0.3",
         "--outer", "3", "--inner", "15", "--seed", "8"]
    ),
    "klr11-petal-greedy-3^4": _cli(
        ["klr11", "--members", _members(3, 4, 0.4, 9), "--p", "3", "--n", "4",
         "--t1", "3", "--t2", "3", "--adversary", "greedy", "--trials", "40", "--seed", "9"]
    ),
    "klr11-complete": _cli(
        ["klr11", "--graph", "complete", "--u", "20", "--t1", "3", "--t2", "4",
         "--trials", "10", "--seed", "10"]
    ),
    "tail-bound-3^4": _cli(
        ["tail-bound", "--p", "3", "--n", "4", "--q", "0.3", "--lam", "3", "--xi", "5",
         "--trials", "60", "--r", "20", "--seed", "11"]
    ),
    "fourier-check-3^3": _cli(["fourier-check", "--p", "3", "--n", "3", "--trials", "6", "--seed", "12"]),
    "fourier-check-5^2": _cli(["fourier-check", "--p", "5", "--n", "2", "--trials", "4", "--seed", "13"]),
    "sparse-check-3^4": _report(_sparse_check),
    "pair-density-check-3^5-self": _report(_pair_density_check(0)),
    "pair-density-check-3^5-apart": _report(_pair_density_check(108)),
}

DIGESTS = {
    "density-failure-5^3": "ef3aa1c52ffaf68329fa1350f9c37cc2f651c7100a213249c9a4b56778161c14",
    "density-test-3^4-small": "6ebaa2d822a5632687df9eaf0139b7aec3cba8735d966cf390748279531b02cf",
    "density-test-5^4-dense": "e7bdf36f953887a88992af6e63baa2680f6f353d7ad861a89397155b3ab02621",
    "density-test-7^4-core": "2646735ec0c97b8677bcc976dd180f525dde58ab1890ba55ab108b35fe75373a",
    "fourier-check-3^3": "a37535f57fd39ff19a3b9b6fbb22be66f0cdece039ff6b627ff5ede1b79c1da9",
    "fourier-check-5^2": "f634bcf79cf695e08185547cd9282ffe96b3f05ab4f3d9fe11c3e98c99fb6b45",
    "klr11-complete": "2a90a71f2aad259a02f4268aa9b7cfba4c3cf51ec66b20941a46b9a84a2a740b",
    "klr11-petal-greedy-3^4": "11d4036409545e4ddfcc194c4fd2685c0c17d995d708f51bf7d6a125adf70da9",
    "pair-density-check-3^5-apart": "4fb2c2b37d6ea4f387fff65744c5ccae024e3575eb5c6b22184005ae878f5ab1",
    "pair-density-check-3^5-self": "4fdd311d98e3894583b2954815e96ca8c6c8ef62e3093cba403cfb5012079731",
    "sparse-check-3^4": "a2d941893f4fe5c041b702e052f4071b2d510dca1e47f25897b2562a98c2a3bd",
    "tail-bound-3^4": "74f782e99c4d53fa5d765f86523d5b3844f582aa706fbfae25b94ee5a7f4c090",
}


def _digest(name: str) -> str:
    return hashlib.sha256(CASES[name]().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_digest(name):
    assert _digest(name) == DIGESTS[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{_digest(name)}",')
