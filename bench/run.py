"""Run one fpnreg benchmark workload and print its metrics.

    python3 bench/run.py --workload spectral-large --seed 1 --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
runs a fixed number of rotation pairs, one untraced and one traced, and
reports the per-layer metrics.  Either way every result is checked against
the oracles in oracle.py after the timed work, and the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  A record with
the environment goes to bench/out/.  See bench/README.md.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here

import os

# Pinned before numpy loads: with free BLAS threads one transform's time
# varies by more than 10x from process to process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# At least this many tasks per run, so >= 10 samples lie beyond p90.
MIN_TASKS = 100
# setup_s is the median of this many set-ups: this process and fresh children.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


class Task(NamedTuple):
    rotation: int
    slot: int
    seconds: float
    result: object
    error: str | None


def load_library():
    """Import fpnreg from this checkout's src/ and nowhere else."""
    if not (SRC / "fpnreg" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fpnreg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fpnreg

    if Path(fpnreg.__file__).resolve().parent != SRC / "fpnreg":
        raise SystemExit(f"bench: imported fpnreg from {fpnreg.__file__}, not {SRC}")


def run_rotation(wl, rotation: int, rec=None) -> list:
    group = rotation % wl.groups
    tasks = []
    for slot in range(len(wl.slots)):
        inp = wl.input(group, slot)
        scope = rec.task(rotation * len(wl.slots) + slot) if rec else contextlib.nullcontext()
        result = error = None
        start = perf_counter()
        try:
            with scope:
                result = wl.run(slot, inp)
        except Exception as exc:  # a failing task is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        tasks.append(Task(rotation, slot, perf_counter() - start, result, error))
    return tasks


def canonical(wl, tasks) -> list:
    """Replace each result by its canonical form, dropping the full result."""
    out = []
    for t in tasks:
        if t.error is None:
            try:
                t = t._replace(result=wl.canonical(t.slot, t.result))
            except Exception as exc:  # a malformed result fails its task
                t = t._replace(result=None, error=f"no canonical form: {type(exc).__name__}: {exc}")
        out.append(t)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_phase(wl, seconds: float, min_tasks: int = MIN_TASKS):
    """Whole rotations until both `seconds` and `min_tasks` are reached, so
    every slot has the same number of samples.  The elapsed time counts the
    rotations only, not the conversion to canonical results between them.

    Returns (tasks, elapsed seconds, peak RSS in MB).  The peak RSS is read
    when `min_tasks` is first reached: the heap grows with the rotations
    run, so a read at the end would charge a faster program for the extra
    rotations it fits into `seconds`."""
    tasks = []
    elapsed = 0.0
    rotation = 0
    rss = None
    while True:
        wl.prepare(rotation % wl.groups)
        start = perf_counter()
        batch = run_rotation(wl, rotation)
        elapsed += perf_counter() - start
        tasks += canonical(wl, batch)
        rotation += 1
        if rss is None and len(tasks) >= min_tasks:
            rss = peak_rss_mb()
        if elapsed >= seconds and rss is not None:
            return tasks, elapsed, rss


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def check_tasks(wl, tasks):
    """Problems per task index, and each task's result digest.  The oracle
    checks the first result for each (input group, slot); later results on
    the same input must have the same digest."""
    digests = [None if t.error else digest(t.result) for t in tasks]
    problems = {}
    first = {}
    for i in sorted(range(len(tasks)), key=lambda i: (tasks[i].rotation % wl.groups, tasks[i].slot, i)):
        t = tasks[i]
        if t.error:
            problems[i] = [t.error]
            continue
        key = (t.rotation % wl.groups, t.slot)
        if key in first:
            j = first[key]
            if digests[i] != digests[j]:
                problems[i] = ["result differs from an earlier task on the same input"]
            elif j in problems:
                problems[i] = problems[j]
            continue
        first[key] = i
        try:
            found = wl.check(t.slot, wl.input(key[0], t.slot), t.result)
        except Exception as exc:  # an oracle that cannot decide fails the task
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems[i] = found
    return problems, digests


def setup_sample(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def git_commit():
    try:
        # the ceiling keeps git from reporting a repository that encloses ROOT
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fpnreg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(wl, seed: int) -> dict:
    import scipy  # only the checks need scipy; importing it here keeps it out of setup_s

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": wl.name,
        "seed": seed,
        "task_kinds": [
            {"slot": s.label, "kind": s.kind, "p": s.p, "n": s.n, "N": s.p**s.n} for s in wl.slots
        ],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def untraced_run(wl, args, setup_s: float) -> dict:
    tasks, elapsed, rss = timed_phase(wl, args.seconds)
    problems, digests = check_tasks(wl, tasks)
    setups = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    times = np.array([t.seconds for t in tasks])
    p50, p90 = (float(x) for x in np.percentile(times, [50, 90]))
    passed = len(tasks) - len(problems)
    slots = np.array([t.slot for t in tasks])
    per_slot = {
        s.label: {"count": int((slots == k).sum()), "p50_s": float(np.median(times[slots == k]))}
        for k, s in enumerate(wl.slots)
    }
    return {
        "attempted": len(tasks),
        "failed": len(problems),
        "metrics": {
            "task_s_p50": {"value": p50, "unit": "s"},
            "task_s_p90": {"value": p90, "unit": "s"},
            "tasks_per_s": {"value": passed / elapsed, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ok_frac": {"value": passed / len(tasks), "unit": "ratio"},
        },
        "detail": {
            "timed_s": elapsed,
            "rotations": tasks[-1].rotation + 1,
            "setup_samples_s": setups,
            "per_slot": per_slot,
            "results_sha256": digest(digests),
            "problems": {str(i): p for i, p in sorted(problems.items())[:20]},
        },
    }


def traced_run(wl, args) -> dict:
    pairs = max(1, round(args.seconds / (2 * wl.rotation_estimate_s)))
    rec = tracing.Recorder()
    plain, traced = [], []
    plain_s = traced_s = 0.0
    for r in range(pairs):
        wl.prepare(r % wl.groups)
        # alternate which mode goes first, so neither always runs on warm inputs
        for on in (False, True) if r % 2 == 0 else (True, False):
            if on:
                with rec.installed():
                    start = perf_counter()
                    batch = run_rotation(wl, r, rec)
                    traced_s += perf_counter() - start
                traced += canonical(wl, batch)
            else:
                start = perf_counter()
                batch = run_rotation(wl, r)
                plain_s += perf_counter() - start
                plain += canonical(wl, batch)
    problems, digests = check_tasks(wl, traced)
    plain_digests = [None if t.error else digest(t.result) for t in plain]
    for i, (a, b) in enumerate(zip(plain_digests, digests)):
        if a != b:
            problems.setdefault(i, []).append("traced result differs from the untraced one")
    plain_failed = sum(t.error is not None for t in plain)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
    rec.dump(spans_path)
    metrics = rec.layer_metrics(
        (len(traced) - len(problems)) / traced_s, (len(plain) - plain_failed) / plain_s
    )
    return {
        "attempted": len(plain) + len(traced),
        "failed": len(problems) + plain_failed,
        "metrics": metrics,
        "detail": {
            "rotation_pairs": pairs,
            "untraced_s": plain_s,
            "traced_s": traced_s,
            "digests_identical": plain_digests == digests,
            "spans": len(rec.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "problems": {str(i): p for i, p in sorted(problems.items())[:20]},
        },
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("spectral-large", "density-mc", "structure"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    setup_s = perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = traced_run(wl, args) if args.trace else untraced_run(wl, args, setup_s)
    env = environment(wl, args.seed)
    failed_frac = out["failed"] / out["attempted"]
    record = {"env": env, "trace": args.trace, "failed_frac": failed_frac, **out}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"{wl.name} seed {args.seed} trace {args.trace}: {out['attempted']} tasks, "
          f"failed {out['failed']} (failed_frac {failed_frac:.4g})")
    for name, m in out["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
