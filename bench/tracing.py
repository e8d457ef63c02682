"""Per-layer tracing from outside the library.

While installed, a Recorder replaces public fpnreg functions and methods with
wrappers that record one span per call (name, start, end, parent, task id)
and a few counters read from arguments and results.  A function is replaced
under every name any fpnreg module bound it to (``full_spectrum`` lives in
fourier, cayley, threeap and randmodel), and methods are replaced on their
class, so calls between library modules are seen too.  Uninstalling restores
the originals; nothing in the library changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

TASK = "task"


def _codec_digits(rec, args, kwargs, result):
    rec.counts["vectorspace.codec.elements"] += np.size(args[1])


def _codec_index(rec, args, kwargs, result):
    rec.counts["vectorspace.codec.elements"] += np.size(args[1]) // args[0].n


def _full_spectrum(rec, args, kwargs, result):
    space = args[0]
    N, p, n = space.N, space.p, space.n
    rec.counts["fourier.full_spectrum.elements"] += N
    # one length-p complex matrix pass per axis: 8p flops per element per axis,
    # one 16-byte read and one 16-byte write per element per axis
    rec.counts["fourier.full_spectrum.flops_computed"] += 8 * p * N * n
    rec.counts["fourier.full_spectrum.bytes_computed"] += 32 * N * n


def _classify(rec, args, kwargs, result):
    rec.counts["regularity.classify_vectors.cosets"] += len(result.reps)
    rec.counts["regularity.classify_vectors.irregular"] += int((~result.regular).sum())


def _count_3aps(rec, args, kwargs, result):
    rec.counts["threeap.count_3aps_fourier.elements"] += args[0].space.N


def _density_test(rec, args, kwargs, result):
    rec.counts["threeap.density_test.trials"] += result.trials
    rec.counts["threeap.density_test.witnessed"] += result.failures


def _flower(rec, args, kwargs, result):
    rec.counts["threeap.flower_find.found"] += int(result.found)


def _klr(rec, args, kwargs, result):
    rec.counts["randmodel.mc_klr11.trials"] += result.trials


def _coset_build(rec, args, kwargs, result):
    rec.counts["vectorspace.coset_system.builds"] += 1


def _edge_block(rec, args, kwargs, result):
    rec.counts["cayley.PetalGraph.pairs"] += int(np.size(args[1])) * int(np.size(args[2]))


# (span name or None for a counter only, owner "module" or "module:Class",
#  attribute, counter hook).  The two counter-only entries wrap private
# helpers because they are the only places where the count is exact.
TARGETS = (
    ("vectorspace.codec", "fpnreg.vectorspace:SpaceDescriptor", "digits", _codec_digits),
    ("vectorspace.codec", "fpnreg.vectorspace:SpaceDescriptor", "index", _codec_index),
    ("vectorspace.coset_system", "fpnreg.vectorspace:SubspaceBasis", "coset_system", None),
    (None, "fpnreg.vectorspace", "_build_coset_system", _coset_build),
    ("vectorspace.annihilator_within", "fpnreg.vectorspace", "annihilator_within", None),
    ("fourier.full_spectrum", "fpnreg.fourier", "full_spectrum", _full_spectrum),
    ("regularity.classify_vectors", "fpnreg.regularity", "classify_vectors", _classify),
    ("regularity.energy", "fpnreg.regularity", "energy", None),
    ("regularity.refine_step", "fpnreg.regularity", "refine_step", None),
    ("regularity.regularize", "fpnreg.regularity", "regularize", None),
    ("regularity.regularize_multi", "fpnreg.regularity", "regularize_multi", None),
    ("regularity.restricted_sup", "fpnreg.regularity", "restricted_sup", None),
    ("cayley.sigma_certificate", "fpnreg.cayley", "sigma_certificate", None),
    ("cayley.edge_count", "fpnreg.cayley", "edge_count", None),
    ("cayley.edge_count_fourier", "fpnreg.cayley", "edge_count_fourier", None),
    ("cayley.edge_count_direct", "fpnreg.cayley", "edge_count_direct", None),
    ("cayley.PetalGraph", "fpnreg.cayley:PetalGraph", "edges_between", None),
    ("cayley.PetalGraph", "fpnreg.cayley:PetalGraph", "any_edge", None),
    ("cayley.PetalGraph", "fpnreg.cayley:PetalGraph", "left_degrees", None),
    ("cayley.PetalGraph", "fpnreg.cayley:PetalGraph", "right_degrees_into", None),
    (None, "fpnreg.cayley:PetalGraph", "_edge_block", _edge_block),
    ("threeap.count_3aps_fourier", "fpnreg.threeap", "count_3aps_fourier", _count_3aps),
    ("threeap.find_nontrivial_3ap", "fpnreg.threeap", "find_nontrivial_3ap", None),
    ("threeap.density_test", "fpnreg.threeap", "density_test", _density_test),
    ("threeap.flower_find", "fpnreg.threeap", "flower_find", _flower),
    ("threeap.build_petal_candidates", "fpnreg.threeap", "build_petal_candidates", None),
    ("randmodel.sample_exact", "fpnreg.randmodel", "sample_exact", None),
    ("randmodel.mc_klr11", "fpnreg.randmodel", "mc_klr11", _klr),
)

# (metric, unit): the traced run reports exactly these, in this order.
PER_LAYER = (
    ("vectorspace.codec.calls", "count"),
    ("vectorspace.codec.elements", "count"),
    ("vectorspace.codec.self_s", "s"),
    ("vectorspace.coset_system.calls", "count"),
    ("vectorspace.coset_system.builds", "count"),
    ("vectorspace.coset_system.self_s", "s"),
    ("vectorspace.annihilator_within.self_s", "s"),
    ("fourier.full_spectrum.calls", "count"),
    ("fourier.full_spectrum.elements", "count"),
    ("fourier.full_spectrum.self_s", "s"),
    ("fourier.full_spectrum.flops_computed", "flop"),
    ("fourier.full_spectrum.bytes_computed", "B"),
    ("regularity.classify_vectors.calls", "count"),
    ("regularity.classify_vectors.cosets", "count"),
    ("regularity.classify_vectors.irregular_ratio", "ratio"),
    ("regularity.classify_vectors.self_s", "s"),
    ("regularity.energy.calls", "count"),
    ("regularity.energy.self_s", "s"),
    ("regularity.refine_step.calls", "count"),
    ("regularity.refine_step.self_s", "s"),
    ("regularity.regularize.self_s", "s"),
    ("regularity.regularize_multi.self_s", "s"),
    ("regularity.restricted_sup.self_s", "s"),
    ("cayley.sigma_certificate.self_s", "s"),
    ("cayley.edge_count.calls", "count"),
    ("cayley.edge_count.spectral_ratio", "ratio"),
    ("cayley.edge_count_fourier.self_s", "s"),
    ("cayley.edge_count_direct.self_s", "s"),
    ("cayley.PetalGraph.pairs", "count"),
    ("cayley.PetalGraph.scan_s", "s"),
    ("threeap.count_3aps_fourier.calls", "count"),
    ("threeap.count_3aps_fourier.elements", "count"),
    ("threeap.count_3aps_fourier.self_s", "s"),
    ("threeap.find_nontrivial_3ap.self_s", "s"),
    ("threeap.density_test.calls", "count"),
    ("threeap.density_test.witness_ratio", "ratio"),
    ("threeap.density_test.self_s", "s"),
    ("threeap.flower_find.calls", "count"),
    ("threeap.flower_find.found_ratio", "ratio"),
    ("threeap.flower_find.self_s", "s"),
    ("threeap.build_petal_candidates.self_s", "s"),
    ("randmodel.sample_exact.calls", "count"),
    ("randmodel.sample_exact.self_s", "s"),
    ("randmodel.mc_klr11.calls", "count"),
    ("randmodel.mc_klr11.trials", "count"),
    ("randmodel.mc_klr11.self_s", "s"),
    ("trace.tasks_per_s", "1/s"),
    ("trace.untraced_tasks_per_s", "1/s"),
    ("trace.uncovered_share", "ratio"),
)


def _resolve(owner: str):
    module_name, _, cls_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, cls_name) if cls_name else module


class Recorder:
    """Spans and counters of the traced tasks, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, task id]
        self.counts = defaultdict(int)
        self._stack = []
        self._task = None

    def _wrap(self, name, fn, hook):
        rec = self

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(rec, args, kwargs, result)
                return result

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = rec._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, rec._task]
            stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return spanned

    @contextlib.contextmanager
    def installed(self):
        """Replace every target for the duration of the block."""
        restore = []
        try:
            for name, owner, attr, hook in TARGETS:
                target = _resolve(owner)
                if isinstance(target, type):
                    orig = target.__dict__[attr]
                    setattr(target, attr, self._wrap(name, orig, hook))
                    restore.append((target, attr, orig))
                    continue
                orig = getattr(target, attr)
                wrapper = self._wrap(name, orig, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "fpnreg" and not mod_name.startswith("fpnreg."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            restore.append((mod, key, orig))
            yield self
        finally:
            for obj, attr, orig in reversed(restore):
                setattr(obj, attr, orig)

    @contextlib.contextmanager
    def task(self, task_id: int):
        """Root span of one task; layer spans inside it become its children."""
        self._task = task_id
        span = [TASK, 0.0, 0.0, -1, task_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self._task = None

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "task": task}))
                fh.write("\n")

    def layer_metrics(self, traced_tps: float, untraced_tps: float) -> dict:
        calls = defaultdict(int)
        self_s = defaultdict(float)
        inclusive = defaultdict(float)  # outermost spans of a name only
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        spectral = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - children[i]
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if parent_name != name:
                inclusive[name] += end - start
            if name == "cayley.edge_count_fourier" and parent_name == "cayley.edge_count":
                spectral += 1

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        values = {f"{name}.calls": calls[name] for name in calls}
        values.update({f"{name}.self_s": self_s[name] for name in self_s})
        values.update(
            {
                "vectorspace.codec.elements": c["vectorspace.codec.elements"],
                "vectorspace.coset_system.builds": c["vectorspace.coset_system.builds"],
                "fourier.full_spectrum.elements": c["fourier.full_spectrum.elements"],
                "fourier.full_spectrum.flops_computed": c["fourier.full_spectrum.flops_computed"],
                "fourier.full_spectrum.bytes_computed": c["fourier.full_spectrum.bytes_computed"],
                "regularity.classify_vectors.cosets": c["regularity.classify_vectors.cosets"],
                "regularity.classify_vectors.irregular_ratio": ratio(
                    c["regularity.classify_vectors.irregular"], c["regularity.classify_vectors.cosets"]
                ),
                "cayley.edge_count.spectral_ratio": ratio(spectral, calls["cayley.edge_count"]),
                "cayley.PetalGraph.pairs": c["cayley.PetalGraph.pairs"],
                "cayley.PetalGraph.scan_s": inclusive["cayley.PetalGraph"],
                "threeap.count_3aps_fourier.elements": c["threeap.count_3aps_fourier.elements"],
                "threeap.density_test.witness_ratio": ratio(
                    c["threeap.density_test.witnessed"], c["threeap.density_test.trials"]
                ),
                "threeap.flower_find.found_ratio": ratio(
                    c["threeap.flower_find.found"], calls["threeap.flower_find"]
                ),
                "randmodel.mc_klr11.trials": c["randmodel.mc_klr11.trials"],
                "trace.tasks_per_s": traced_tps,
                "trace.untraced_tasks_per_s": untraced_tps,
                "trace.uncovered_share": ratio(self_s[TASK], inclusive[TASK]),
            }
        )
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
