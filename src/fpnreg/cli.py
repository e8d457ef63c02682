"""Batch experiment runner.

One process runs one experiment: a subcommand validates its configuration,
dispatches into the library, and emits a deterministic report (canonical
JSON or a row table) whose config echo reproduces the run.  Exit status is 0
for a completed run -- a failed property under test is data, not an error --
and 2 for input or contract violations.  Wall time goes to stderr so report
files stay byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .errors import ContractError, InputError
from .fourier import DenseFunction, identity_suite
from .rng import GENERATOR_ID, substreams
from .reporting import canonical_json, render_rows, to_jsonable
from .cayley import petal_graph, sigma_certificate
from .randmodel import (
    ADVERSARIES,
    CompleteBipartite,
    EmptyBipartite,
    TailBoundInputs,
    chernoff_bound,
    empirical_tail,
    mc_density_failure,
    mc_klr11,
    optimized_tail,
)
from .regularity import regularize, regularize_multi, tower
from .threeap import (
    MAX_PARTS,
    canonical_split,
    capset_max_exhaustive,
    count_3aps_fourier,
    count_3aps_naive,
    density_test,
    find_nontrivial_3ap,
    flower_find,
)
from .vectorspace import (
    DenseSubset,
    SpaceDescriptor,
    SubspaceBasis,
    basis_from_dict,
    subset_from_dict,
)


def _load_json(path: str, *fields) -> dict:
    """The JSON object in path; InputError unless it has every named field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}:{e.colno}: malformed JSON ({e.msg})") from e
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    missing = [f for f in fields if not isinstance(data, dict) or f not in data]
    if missing:
        raise InputError(f"{path}: expected a JSON object with the field(s) {', '.join(missing)}")
    return data


def _resolve_space(args) -> SpaceDescriptor:
    if args.p is None or args.n is None:
        raise InputError("--p and --n are required when no set file provides them")
    return SpaceDescriptor(args.p, args.n)


def _load_set(args) -> DenseSubset:
    if getattr(args, "members", None) is not None:
        space = _resolve_space(args)
        try:
            members = [int(x) for x in args.members.split(",") if x.strip() != ""]
        except ValueError as e:
            raise InputError(f"--members must be comma-separated integers ({e})") from e
        return DenseSubset.from_members(space, members)
    if getattr(args, "set", None) is None:
        raise InputError("provide a set via --set FILE or --members LIST")
    data = _load_json(args.set, "p", "n", "members")
    subset = subset_from_dict(data)
    if args.p is not None and (args.p, args.n) != (subset.space.p, subset.space.n):
        raise InputError(
            f"--p/--n ({args.p},{args.n}) disagree with set file ({subset.space.p},{subset.space.n})"
        )
    return subset


def _load_subspace(args, space: SpaceDescriptor) -> SubspaceBasis:
    if getattr(args, "subspace", None) is None:
        return SubspaceBasis.full(space)
    basis = basis_from_dict(_load_json(args.subspace, "p", "n", "rows"))
    if basis.space != space:
        raise InputError("subspace file disagrees with the ambient space")
    return basis


def _tower_field(arg: int, p: int):
    tv = tower(arg, p)
    return {"t": arg, "value": "overflow" if tv.overflow else tv.value}


# ---------------------------------------------------------------------------
# Handlers: each returns (result_jsonable, (header, rows))
# ---------------------------------------------------------------------------


def _run_fourier_check(args):
    space = _resolve_space(args)
    if args.trials < 1:
        raise InputError("trials must be >= 1")
    rows = []
    agg = {"parseval": 0.0, "plancherel": 0.0, "inversion": 0.0, "convolution": 0.0}
    for trial, gen in enumerate(substreams(args.seed, args.trials)):
        dim = int(gen.integers(0, space.n + 1))
        H = SubspaceBasis.from_vectors(
            space, gen.integers(0, space.N, size=dim).astype(np.int64)
        )
        f = DenseFunction(space, gen.uniform(-1, 1, size=H.size), H)
        g = DenseFunction(space, gen.uniform(-1, 1, size=H.size), H)
        rep = identity_suite(f, g, H)
        rows.append((trial, H.dim, rep.parseval, rep.plancherel, rep.inversion, rep.convolution))
        for key in agg:
            agg[key] = max(agg[key], getattr(rep, key))
    result = {"max_deviations": agg, "overall_max": max(agg.values()), "trials": args.trials}
    return result, (("trial", "dim", "parseval", "plancherel", "inversion", "convolution"), rows)


def _regularity_rows(report):
    rows = [
        (step, report.H_final.space.N // idx, idx, e, mass)
        for step, (e, idx, mass) in enumerate(
            zip(report.energy_trace, report.index_trace, report.mass_trace)
        )
    ]
    return ("step", "H_size", "index", "energy", "irregular_mass"), rows


def _run_regularize(args):
    A = _load_set(args)
    report = regularize(A, args.eps, args.alpha, args.floor, sigma=args.sigma, delta=args.delta)
    result = to_jsonable(report)
    del result["classifications"]  # per-coset arrays; the traces carry the story
    result["final_irregular_mass"] = report.classification.irregular_mass
    result["proof_index_bound"] = _tower_field(report.step_cap, A.space.p)
    result["statement_index_bound"] = _tower_field(report.statement_step_cap, A.space.p)
    return result, _regularity_rows(report)


def _run_regularize_multi(args):
    A = _load_set(args)
    parts = canonical_split(A, args.m)
    report = regularize_multi(parts, args.eps, args.alpha, args.floor)
    result = to_jsonable(report)
    del result["classifications"]
    result["part_sizes"] = [p.card for p in parts]
    result["parts_regular"] = [bool(c.is_regular) for c in report.classifications]
    result["proof_index_bound"] = _tower_field(report.step_cap, A.space.p)
    result["statement_index_bound"] = _tower_field(report.statement_step_cap, A.space.p)
    return result, _regularity_rows(report)


def _run_roth_count(args):
    A = _load_set(args)
    naive = count_3aps_naive(A)
    fourier = count_3aps_fourier(A)
    first = find_nontrivial_3ap(A)
    result = {
        "total_naive": naive,
        "total_fourier": fourier,
        "agree": naive == fourier,
        "nontrivial": naive - A.card,
        "first_triple": None if first is None else {"a": first.a, "d": first.d},
        "set_card": A.card,
    }
    row = (naive, fourier, naive - A.card, A.card)
    return result, (("total_naive", "total_fourier", "nontrivial", "set_card"), [row])


def _run_capset(args):
    size, witness = capset_max_exhaustive(args.p, args.n)
    result = {
        "max_size": size,
        "witness": to_jsonable(witness),
        "witness_verified": find_nontrivial_3ap(witness) is None,
    }
    return result, (("max_size",), [(size,)])


def _run_density_test(args):
    R = _load_set(args)
    rep = density_test(R, args.alpha, args.trials, args.seed)
    rows = [(t, out) for t, out in enumerate(rep.outcomes)]
    return to_jsonable(rep), (("trial", "ap_free"), rows)


def _run_flower_find(args):
    A = _load_set(args)
    rep = flower_find(A, args.m, args.eps, args.alpha, args.floor)
    result = to_jsonable(rep)
    if result.get("multi_report"):
        del result["multi_report"]["classifications"]
    rows = []
    if rep.found:
        rows = [(l, u, w) for l, (u, w) in enumerate(rep.flower.petals)]
    return result, (("petal", "u", "w"), rows)


def _run_sigma_cert(args):
    R = _load_set(args)
    cert = sigma_certificate(R, args.sigma, args.delta)
    row = (cert.sigma, cert.delta, cert.fourier_sup, cert.passed)
    return to_jsonable(cert), (("sigma", "delta", "fourier_sup", "passed"), [row])


def _run_tail_bound(args):
    space = _resolve_space(args)
    rep = empirical_tail(space, args.q, args.lam, args.xi, args.trials, args.seed)
    result = to_jsonable(rep)
    result["analytic_bound_at_t_star"] = chernoff_bound(
        TailBoundInputs(args.q, space.N, args.lam, rep.t_star)
    )
    if args.r is not None:
        result["optimized"] = to_jsonable(optimized_tail(space.N, args.q, args.r))
    row = (rep.frequency, rep.bound, rep.t_star, rep.stderr, rep.passed)
    return result, (("frequency", "bound", "t_star", "stderr", "passed"), [row])


def _run_klr11(args):
    if args.graph == "petal":
        A = _load_set(args)
        H = _load_subspace(args, A.space)
        graph = petal_graph(A, H, args.v1, args.v2)
    else:
        if args.u is None:
            raise InputError("--u is required for synthetic graphs")
        graph = CompleteBipartite(args.u) if args.graph == "complete" else EmptyBipartite(args.u)
    adversary = ADVERSARIES[args.adversary]()
    rep = mc_klr11(graph, args.t1, args.t2, adversary, args.trials, args.seed)
    row = (rep.t1, rep.t2, rep.adversary, rep.no_edge_freq)
    return to_jsonable(rep), (("t1", "t2", "adversary", "no_edge_freq"), [row])


def _run_density_failure(args):
    space = _resolve_space(args)
    rep = mc_density_failure(space, args.r, args.alpha, args.outer, args.inner, args.seed)
    rows = [(i, f) for i, f in enumerate(rep.inner_freqs)]
    return to_jsonable(rep), (("outer_trial", "inner_failure_freq"), rows)


def _run_tower(args):
    tv = tower(args.t, args.p)
    result = {"t": tv.t, "p": args.p, "value": "overflow" if tv.overflow else tv.value,
              "overflow": tv.overflow}
    return result, (("t", "value"), [(tv.t, "overflow" if tv.overflow else tv.value)])


HANDLERS = {
    "fourier-check": _run_fourier_check,
    "regularize": _run_regularize,
    "regularize-multi": _run_regularize_multi,
    "roth-count": _run_roth_count,
    "capset": _run_capset,
    "density-test": _run_density_test,
    "flower-find": _run_flower_find,
    "sigma-cert": _run_sigma_cert,
    "tail-bound": _run_tail_bound,
    "klr11": _run_klr11,
    "density-failure": _run_density_failure,
    "tower": _run_tower,
}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """The argparse type of every float option: nan and +-inf are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpnreg",
        description="Regularity, progression, and random-set experiments over F_p^n",
    )
    parser.add_argument("--version", action="version", version=f"fpnreg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, space=True, setinput=False, seeded=False):
        if space:
            sp.add_argument("--p", type=int, default=None)
            sp.add_argument("--n", type=int, default=None)
        if setinput:
            sp.add_argument("--set", type=str, default=None, help="JSON set file {p,n,members}")
            sp.add_argument("--members", type=str, default=None, help="inline member list, e.g. 0,1,2")
        if seeded:
            sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--out", type=str, default="-")
        sp.add_argument("--format", choices=("structured", "rows"), default="structured")

    p = sub.add_parser("fourier-check", help="transform identity suite on random triples")
    common(p, seeded=True)
    p.add_argument("--trials", type=int, required=True)

    p = sub.add_parser("regularize", help="energy-increment decomposition of one set")
    common(p, setinput=True)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--floor", type=int, default=1)
    p.add_argument("--sigma", type=_finite_float, default=None)
    p.add_argument("--delta", type=_finite_float, default=None)

    p = sub.add_parser("regularize-multi", help="joint decomposition of a canonical split")
    common(p, setinput=True)
    p.add_argument("--m", type=int, required=True, help=f"number of parts, 1 to {MAX_PARTS}")
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--floor", type=int, default=1)

    p = sub.add_parser("roth-count", help="naive and spectral 3AP counts")
    common(p, setinput=True)

    p = sub.add_parser("capset", help="maximum 3AP-free subset of F_3^n (n <= 3)")
    common(p)

    p = sub.add_parser("density-test", help="randomized (alpha,3AP)-density refutation search")
    common(p, setinput=True, seeded=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--trials", type=int, required=True)

    p = sub.add_parser("flower-find", help="search the canonical split for a flower")
    common(p, setinput=True)
    p.add_argument("--m", type=int, required=True, help=f"number of parts, 3 to {MAX_PARTS}")
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--floor", type=int, default=1)

    p = sub.add_parser("sigma-cert", help="spectral (sigma,delta)-regularity certificate")
    common(p, setinput=True)
    p.add_argument("--sigma", type=_finite_float, required=True)
    p.add_argument("--delta", type=_finite_float, required=True)

    p = sub.add_parser("tail-bound", help="empirical tail vs exponential-moment bound")
    common(p, seeded=True)
    p.add_argument("--q", type=_finite_float, required=True)
    p.add_argument("--lam", type=_finite_float, required=True)
    p.add_argument("--xi", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--r", type=int, default=None, help="also report the optimized plug-in bound")

    p = sub.add_parser("klr11", help="adversarial (t1,t2)-subgraph no-edge frequency")
    common(p, setinput=True, seeded=True)
    p.add_argument("--graph", choices=("petal", "complete", "empty"), default="petal")
    p.add_argument("--subspace", type=str, default=None, help="JSON basis file {p,n,rows}")
    p.add_argument("--v1", type=int, default=0)
    p.add_argument("--v2", type=int, default=0)
    p.add_argument("--u", type=int, default=None, help="side size for synthetic graphs")
    p.add_argument("--t1", type=int, required=True)
    p.add_argument("--t2", type=int, required=True)
    p.add_argument("--adversary", choices=sorted(ADVERSARIES), default="trivial")
    p.add_argument("--trials", type=int, required=True)

    p = sub.add_parser("density-failure", help="Monte Carlo (alpha,3AP)-density failure estimate")
    common(p, seeded=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--outer", type=int, required=True)
    p.add_argument("--inner", type=int, required=True)

    p = sub.add_parser("tower", help="tower function W(t) with base 2p")
    common(p, space=False)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("batch", help="run a manifest of experiment argv lists sequentially")
    p.add_argument("--manifest", type=str, required=True)

    return parser


def _config_echo(args) -> dict:
    # the output path has no bearing on the result; echoing it would make
    # otherwise-identical runs produce different report bytes
    skip = {"command", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def run_command(args) -> tuple[int, str]:
    """Execute one parsed subcommand; returns (exit_status, emitted_text)."""
    handler = HANDLERS[args.command]
    result, (header, rows) = handler(args)
    if args.format == "rows":
        text = render_rows(header, rows)
    else:
        envelope = {
            "command": args.command,
            "config": to_jsonable(_config_echo(args)),
            "version": __version__,
            "generator": GENERATOR_ID,
            "result": result,
        }
        text = canonical_json(envelope)
    return 0, text


def _emit(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        if args.command == "batch":
            runs = _load_json(args.manifest, "runs")["runs"]
            if not isinstance(runs, list):
                raise InputError("manifest must contain a 'runs' list of argv arrays")
            status = 0
            for i, run_argv in enumerate(runs):
                if not isinstance(run_argv, list) or (run_argv and run_argv[0] == "batch"):
                    raise InputError(f"run {i}: invalid argv entry")
                status = max(status, main([str(x) for x in run_argv]))
            return status
        status, text = run_command(args)
        _emit(text, args.out)
    except (InputError, ContractError) as e:
        print(f"fpnreg {args.command}: {e}", file=sys.stderr)
        return 2
    print(
        f"[fpnreg] {args.command} completed in {time.perf_counter() - started:.3f}s",
        file=sys.stderr,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
