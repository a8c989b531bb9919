"""Spans around every public function and method of the ttsupport modules.

``Tracer.install`` wraps each public function and method (plus ``__init__``)
from outside and rebinds every reference to the same function object across
the ``ttsupport`` modules: ``from .smith import smith_normal_form``-style
names in other modules, module-level tuples such as ``battery.CRITERIA`` and
module-level dicts.  Each call records a span: name, start, end, parent span,
the item being processed and whether it raised.  Spans stay in memory until
``summary`` folds them into per-name counts, inclusive time and self time
(duration minus the time covered by child spans), and ``write`` stores them.
A few spans also record what they were called with: matrix shapes, entry
sizes and repeated inputs.

The order and lattice lookups in UNWRAPPED run tens of millions of times on
the spaces workload and each takes well under a microsecond: even a bare
counting wrapper more than doubled the traced pass.  They are left as they
are, so their time stays in the caller's self time.
"""

import functools
import gzip
import importlib
import inspect
import time

MODULES = ("poset", "spectral", "frames", "smith", "homalg", "support", "axioms", "battery", "cli")

UNWRAPPED = frozenset(
    "frames.FiniteFrame.%s" % op for op in ("leq", "meet", "join", "meet_many", "join_many", "heyting")
) | {"poset.FinitePoset.leq"}


def _complex_key(cx):
    """Content key of a ChainComplex, so repeated queries are recognised
    across distinct but equal objects."""
    mods = []
    for m in cx.modules:
        if hasattr(m, "rel"):
            mods.append((m.ngens, tuple(map(tuple, m.rel))))
        else:
            mods.append((m.dim, tuple(sorted((n, tuple(map(tuple, a))) for n, a in m.actions.items()))))
    diffs = tuple(tuple(map(tuple, d)) for d in cx.differentials)
    return (cx.ring, cx.min_deg, tuple(mods), diffs)


class _Seen:
    """Counts calls whose key was already seen in the run."""

    def __init__(self):
        self.keys = set()
        self.repeats = 0

    def add(self, key):
        if key in self.keys:
            self.repeats += 1
        else:
            self.keys.add(key)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = []
        self.item = -1
        self.snf_seen = _Seen()
        self.cohomology_seen = _Seen()
        self.small_support_seen = _Seen()
        self.snf_cells = 0
        self.snf_max_entry_bits = 0
        self.solve_rhs = 0
        self.frame_max_elements = 0
        self.assembly_refused = 0

    # -- hooks: extra facts about particular calls ----------------------------

    def _before(self, name, args):
        if name == "smith.smith_normal_form":
            a = args[0]
            self.snf_cells += len(a) * (len(a[0]) if a else 0)
            self.snf_seen.add(tuple(map(tuple, a)))
        elif name == "smith.solve_int":
            self.solve_rhs += len(args[1])
        elif name == "homalg.ChainComplex.cohomology":
            self.cohomology_seen.add((_complex_key(args[0]), args[1]))
        elif name == "support.small_support":
            self.small_support_seen.add((_complex_key(args[0]), args[1:]))
        elif name == "frames.FiniteFrame.__init__":
            self.frame_max_elements = max(self.frame_max_elements, len(args[1].elements))

    def _after(self, name, out, exc):
        if name == "smith.smith_normal_form" and exc is None:
            _d, u, v = out
            bits = max((abs(x).bit_length() for row in u + v for x in row), default=0)
            self.snf_max_entry_bits = max(self.snf_max_entry_bits, bits)
        elif name == "frames.assembly" and exc is not None and type(exc).__name__ == "ResourceLimitError":
            self.assembly_refused += 1

    HOOKED = frozenset(
        {
            "smith.smith_normal_form",
            "smith.solve_int",
            "homalg.ChainComplex.cohomology",
            "support.small_support",
            "frames.FiniteFrame.__init__",
            "frames.assembly",
        }
    )

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        hooked = name in self.HOOKED
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hooked:
                tracer._before(name, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = exc = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, tracer.item, exc is not None)
                if hooked:
                    tracer._after(name, out, exc)

        return traced

    def install(self):
        """Wrap the library in place.  Call once per process, after import."""
        import ttsupport

        modules = [importlib.import_module("ttsupport.%s" % m) for m in MODULES]
        replaced = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    replaced[id(obj)] = self._wrap("%s.%s" % (short, attr), obj)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        for mod in modules + [ttsupport]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, tuple) and any(id(x) in replaced for x in obj):
                    setattr(mod, attr, tuple(replaced.get(id(x), x) for x in obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]
        return self

    def _wrap_class(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = "%s.%s.%s" % (short, cls.__name__, attr)
            if name in UNWRAPPED:
                continue
            if inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self._wrap(name, obj.__func__)))

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per span name: calls, failed calls, inclusive and self seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        stats = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            nid, start, end, _parent, _item, failed = span
            s = stats.setdefault(self.names[nid], {"calls": 0, "failed": 0, "incl_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["failed"] += failed
            s["incl_s"] += end - start
            s["self_s"] += end - start - child[idx]
        return stats

    def counters(self):
        return {
            "snf_repeats": self.snf_seen.repeats,
            "snf_cells": self.snf_cells,
            "snf_max_entry_bits": self.snf_max_entry_bits,
            "solve_rhs": self.solve_rhs,
            "cohomology_repeats": self.cohomology_seen.repeats,
            "small_support_repeats": self.small_support_seen.repeats,
            "frame_max_elements": self.frame_max_elements,
            "assembly_refused": self.assembly_refused,
        }

    def write(self, path):
        """Spans as gzipped tab-separated lines: name, start, end, parent,
        item, failed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\titem\tfailed\n")
            for span in self.spans:
                if span is not None:
                    nid, start, end, parent, item, failed = span
                    fh.write("%s\t%.9f\t%.9f\t%d\t%d\t%d\n" % (self.names[nid], start, end, parent, item, failed))


def _stat(stats, name, field):
    return stats.get(name, {}).get(field, 0)


# per-layer metric -> (span name, field); fields are calls, self_s or incl_s
SPAN_METRICS = {
    "poset.enumerate_s": ("poset.enumerate_posets", "incl_s"),
    "poset.canonical_key.calls": ("poset.FinitePoset.canonical_key", "calls"),
    "poset.canonical_key.self_s": ("poset.FinitePoset.canonical_key", "self_s"),
    "spectral.thomason_sets.calls": ("spectral.SpectralSpace.thomason_sets", "calls"),
    "spectral.z_set.calls": ("spectral.SpectralSpace.z_set", "calls"),
    "frames.frame_build.calls": ("frames.FiniteFrame.__init__", "calls"),
    "frames.frame_build.self_s": ("frames.FiniteFrame.__init__", "self_s"),
    "frames.primes.self_s": ("frames.FiniteFrame.primes", "self_s"),
    "frames.assembly.calls": ("frames.assembly", "calls"),
    "frames.assembly.self_s": ("frames.assembly", "self_s"),
    "frames.sigma.self_s": ("frames.sigma", "self_s"),
    "smith.snf.calls": ("smith.smith_normal_form", "calls"),
    "smith.snf.self_s": ("smith.smith_normal_form", "self_s"),
    "smith.solve_int.calls": ("smith.solve_int", "calls"),
    "smith.solve_int.self_s": ("smith.solve_int", "self_s"),
    "smith.mat_mul.calls": ("smith.mat_mul", "calls"),
    "smith.mat_mul.self_s": ("smith.mat_mul", "self_s"),
    "smith.kernel_basis.calls": ("smith.kernel_basis", "calls"),
    "smith.lattice_basis.calls": ("smith.lattice_basis", "calls"),
    "smith.quotient_invariants.calls": ("smith.quotient_invariants", "calls"),
    "homalg.complex_build.calls": ("homalg.ChainComplex.__init__", "calls"),
    "homalg.complex_build.self_s": ("homalg.ChainComplex.__init__", "self_s"),
    "homalg.cohomology.calls": ("homalg.ChainComplex.cohomology", "calls"),
    "homalg.cohomology.self_s": ("homalg.ChainComplex.cohomology", "self_s"),
    "homalg.localize.calls": ("homalg.localize", "calls"),
    "homalg.localize.self_s": ("homalg.localize", "self_s"),
    "homalg.koszul_stable.calls": ("homalg.koszul_stable", "calls"),
    "homalg.koszul_stable.self_s": ("homalg.koszul_stable", "self_s"),
    "homalg.derived_tensor_residue.calls": ("homalg.derived_tensor_residue", "calls"),
    "homalg.derived_tensor_residue.self_s": ("homalg.derived_tensor_residue", "self_s"),
    "homalg.cone.calls": ("homalg.cone", "calls"),
    "homalg.hom_complex_h0.calls": ("homalg.hom_complex_h0", "calls"),
    "homalg.hom_complex_h0.self_s": ("homalg.hom_complex_h0", "self_s"),
    "support.small_support.calls": ("support.small_support", "calls"),
    "support.small_support.self_s": ("support.small_support", "self_s"),
    "support.big_support.calls": ("support.big_support", "calls"),
    "support.big_support.self_s": ("support.big_support", "self_s"),
    "support.foxby_support.calls": ("support.foxby_support", "calls"),
    "support.foxby_support.self_s": ("support.foxby_support", "self_s"),
    "support.weakly_associated.calls": ("support.weakly_associated", "calls"),
    "support.property_suite.self_s": ("support.main1_property_suite", "self_s"),
    "support.orthogonality.self_s": ("support.orthogonality_check", "self_s"),
    "axioms.construct_eta.self_s": ("axioms.construct_eta", "self_s"),
    "axioms.eta_is_unique.self_s": ("axioms.eta_is_unique", "self_s"),
    "battery.instances_s": ("battery.instances", "incl_s"),
}


DERIVED_METRICS = [
    "smith.snf.cells",
    "smith.snf.repeat_ratio",
    "smith.snf.max_entry_bits",
    "smith.solve_int.rhs_per_call",
    "homalg.cohomology.repeat_ratio",
    "support.small_support.repeat_ratio",
    "frames.frame_build.max_elements",
    "frames.assembly.refused",
]
CRITERIA_COUNT = 12

# every per-layer metric a traced run reports; trace.* come from the run itself
LAYER_METRICS = (
    ["%s.%s" % (m, f) for m in MODULES for f in ("calls", "self_s")]
    + list(SPAN_METRICS)
    + ["battery.criterion_%02d_s" % k for k in range(1, CRITERIA_COUNT + 1)]
    + DERIVED_METRICS
    + ["trace.spans", "trace.overhead_s"]
)


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("repeat_ratio"):
        return "ratio"
    if name.endswith("max_entry_bits"):
        return "bits"
    return "count"


def layer_metrics(stats, counters, criteria):
    """Named per-layer metrics from ``summary()`` and ``counters()``;
    ``criteria`` is battery.CRITERIA, whose order numbers the criteria."""
    out = {}
    for mod in MODULES:
        names = [n for n in stats if n.split(".", 1)[0] == mod]
        out["%s.calls" % mod] = sum(stats[n]["calls"] for n in names)
        out["%s.self_s" % mod] = sum(stats[n]["self_s"] for n in names)
    for metric, (name, field) in SPAN_METRICS.items():
        out[metric] = _stat(stats, name, field)
    for k, fn in enumerate(criteria, start=1):
        out["battery.criterion_%02d_s" % k] = _stat(stats, "battery.%s" % fn.__name__, "incl_s")
    snf_calls = out["smith.snf.calls"]
    out["smith.snf.cells"] = counters["snf_cells"]
    out["smith.snf.repeat_ratio"] = counters["snf_repeats"] / snf_calls if snf_calls else 0.0
    out["smith.snf.max_entry_bits"] = counters["snf_max_entry_bits"]
    solves = out["smith.solve_int.calls"]
    out["smith.solve_int.rhs_per_call"] = counters["solve_rhs"] / solves if solves else 0.0
    coh = out["homalg.cohomology.calls"]
    out["homalg.cohomology.repeat_ratio"] = counters["cohomology_repeats"] / coh if coh else 0.0
    small = out["support.small_support.calls"]
    out["support.small_support.repeat_ratio"] = counters["small_support_repeats"] / small if small else 0.0
    out["frames.frame_build.max_elements"] = counters["frame_max_elements"]
    out["frames.assembly.refused"] = counters["assembly_refused"]
    return out
