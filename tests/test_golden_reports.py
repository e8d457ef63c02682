"""Golden digests of every per-trial Monte Carlo loop and of the reports
built on H's digit tables.

Each case runs one seeded report at a small size and compares the sha256 of
its canonical bytes with a recorded digest.  The Monte Carlo digests were
recorded before the trial loops shared one re-keyed stream and one trial
mask.  The regularize, regularize-multi, flower-find, roth-count, capset,
sigma-cert and klr11 --subspace digests were recorded before one builder
took over every digit-indexed table (coset reps, coefficient tables, coset
ids, localization rows, dual frequencies).  A change to how a trial draws,
decides or reports, or to any of those tables, shows up here as a changed
digest.  Regenerate a digest only when a report is meant to change;
`PYTHONPATH=src python tests/test_golden_reports.py` prints the current
ones.
"""

import hashlib
import json
import tempfile
from pathlib import Path

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


def _cli_with_basis(argv, basis: dict):
    """_cli(argv + ["--subspace", FILE]) for a temporary basis file; the
    config echo names the file by its base name, so the digest does not
    depend on where the file was written."""

    def run():
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "basis.json"
            path.write_text(json.dumps(basis))
            status, text = run_command(build_parser().parse_args([*argv, "--subspace", str(path)]))
        assert status == 0
        envelope = json.loads(text)
        envelope["config"]["subspace"] = path.name
        return canonical_json(envelope)

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
    # the reports below read H's coset reps, coefficient tables, coset ids,
    # localization rows and dual data at every refinement
    "regularize-3^5": _cli(
        ["regularize", "--members", _members(3, 5, 0.3, 14), "--p", "3", "--n", "5",
         "--eps", "0.2", "--alpha", "0.3"]
    ),
    "regularize-5^3-sigma": _cli(
        ["regularize", "--members", _members(5, 3, 0.3, 15), "--p", "5", "--n", "3",
         "--eps", "0.3", "--alpha", "0.3", "--sigma", "0.5", "--delta", "0.5"]
    ),
    "regularize-multi-3^5": _cli(
        ["regularize-multi", "--members", _members(3, 5, 0.4, 16), "--p", "3", "--n", "5",
         "--m", "3", "--eps", "0.3", "--alpha", "0.4"]
    ),
    "flower-find-5^3": _cli(
        ["flower-find", "--members", _members(5, 3, 0.8, 22), "--p", "5", "--n", "3",
         "--m", "3", "--eps", "0.5", "--alpha", "0.6"]
    ),
    "roth-count-5^3": _cli(["roth-count", "--members", _members(5, 3, 0.2, 18), "--p", "5", "--n", "3"]),
    "capset-3^3": _cli(["capset", "--p", "3", "--n", "3"]),
    "sigma-cert-3^5": _cli(
        ["sigma-cert", "--members", _members(3, 5, 0.5, 19), "--p", "3", "--n", "5",
         "--sigma", "0.2", "--delta", "0.5"]
    ),
    "klr11-petal-subspace-3^4": _cli_with_basis(
        ["klr11", "--members", _members(3, 4, 0.3, 20), "--p", "3", "--n", "4", "--v1", "5",
         "--v2", "19", "--t1", "2", "--t2", "3", "--adversary", "greedy", "--trials", "30",
         "--seed", "21"],
        {"p": 3, "n": 4, "rows": [[1, 0, 2, 0], [0, 1, 1, 0], [0, 0, 0, 1]]},
    ),
    "pair-density-check-3^5-self": _report(_pair_density_check(0)),
    "pair-density-check-3^5-apart": _report(_pair_density_check(108)),
}

DIGESTS = {
    "capset-3^3": "297b3c0e70d2d6ca1feee9099d7cb0acccaa3c05a7eba0ea947af2bf66f2f8f2",
    "density-failure-5^3": "ef3aa1c52ffaf68329fa1350f9c37cc2f651c7100a213249c9a4b56778161c14",
    "density-test-3^4-small": "6ebaa2d822a5632687df9eaf0139b7aec3cba8735d966cf390748279531b02cf",
    "density-test-5^4-dense": "e7bdf36f953887a88992af6e63baa2680f6f353d7ad861a89397155b3ab02621",
    "density-test-7^4-core": "2646735ec0c97b8677bcc976dd180f525dde58ab1890ba55ab108b35fe75373a",
    "flower-find-5^3": "77835bb2acecf3baa1e4f32ddc0c4d10c049579ef642c5c558e61d9fa111a27e",
    "fourier-check-3^3": "a37535f57fd39ff19a3b9b6fbb22be66f0cdece039ff6b627ff5ede1b79c1da9",
    "fourier-check-5^2": "f634bcf79cf695e08185547cd9282ffe96b3f05ab4f3d9fe11c3e98c99fb6b45",
    "klr11-complete": "2a90a71f2aad259a02f4268aa9b7cfba4c3cf51ec66b20941a46b9a84a2a740b",
    "klr11-petal-greedy-3^4": "11d4036409545e4ddfcc194c4fd2685c0c17d995d708f51bf7d6a125adf70da9",
    "klr11-petal-subspace-3^4": "dd43f67ec729f8db1b48cb24b90a4582e3c47042c1592ddd1f85bd3378ac40f0",
    "pair-density-check-3^5-apart": "4fb2c2b37d6ea4f387fff65744c5ccae024e3575eb5c6b22184005ae878f5ab1",
    "pair-density-check-3^5-self": "4fdd311d98e3894583b2954815e96ca8c6c8ef62e3093cba403cfb5012079731",
    "regularize-3^5": "e8391a5d1e1731d74457a4f7811a3b6bf4caca3568bcccf3a903246a1281eba1",
    "regularize-5^3-sigma": "45796fa303884fb721e1c082968e63f82cd9605dbc6ed1928855d0b8835166a2",
    "regularize-multi-3^5": "751f001e0b2267d67cd27134c889113de57079efb4d0e4dc0c9e64c1a6ec2726",
    "roth-count-5^3": "1f077205db250992146e2610540371a891d941a65bd59447f7fbe427143f1e37",
    "sigma-cert-3^5": "181d17ec9b3efe0fa45d67977680f2d977fcdb3100dff4d0e38e955ad59ec81e",
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
