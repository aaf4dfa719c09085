"""Per-layer tracing of `ringlat` from outside the library.

`Tracer.install` rebinds every reference that a `ringlat.*` module holds to
each traced function, including names re-imported with `from .x import y`, and
replaces the three traced methods on their classes.  `uninstall` puts the
originals back.  No library code changes.

Each traced call records a span (id, name, start, end, parent id, command id)
kept in memory and written out by `write_spans`.  Per-layer statistics are
kept per bucket (one bucket per pass, one for set-up): calls, self seconds
(inclusive time minus the time of traced children) and a few counters taken
from arguments and results.  `GF.mul` runs millions of times per pass, so it
is only counted: a span per field multiplication would cost more than the
multiplication and hold millions of spans.  `Algebra.mul` is timed, and its
time is taken out of its caller's self time, but it records no spans either.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Public functions traced in each module, by the module's short name.
FUNCTIONS = {
    "cli": ("load_instance", "print_result"),
    "gfq": ("rref",),
    "algebra": ("generated_subalgebra", "local_decomposition", "nilradical"),
    "lattice": ("enumerate_interval", "is_arithmetic", "brute_force_interval",
                "maximal_chains"),
    "canonical": ("classify_cover_edges", "canonical_decomposition", "is_t_closed",
                  "length_additivity_check"),
    "nagata": ("nagata_report", "fip_subintegral_crosscheck"),
    "gen": ("random_extension",),
}
# (module, class, method, metric name)
METHODS = (
    ("gfq", "GF", "__init__", "gfq.GF.init"),
    ("gfq", "GF", "mul", "gfq.GF.mul"),
    ("algebra", "Algebra", "mul", "algebra.Algebra.mul"),
)
COUNT_ONLY = {"gfq.GF.mul"}
NO_SPANS = {"gfq.GF.mul", "algebra.Algebra.mul"}
ENUMERATE = "lattice.enumerate_interval"
OBSERVED = {ENUMERATE, "algebra.local_decomposition", "algebra.generated_subalgebra",
            "lattice.brute_force_interval", "lattice.maximal_chains"}


def traced_names():
    return [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns] + \
        [name for *_, name in METHODS]


def _algebra_key(A):
    """Content key of an ambient algebra (identity differs across commands)."""
    return (A.field.p, A.field.e, tuple(tuple(row) for row in A.table), A.one)


def _ring_key(ring):
    if hasattr(ring, "ambient"):
        return (_algebra_key(ring.ambient), ring.basis)
    return (_algebra_key(ring), "full")


class Tracer:
    def __init__(self):
        self.spans = []
        self.command_id = None
        self._next_id = 1
        self._stack = [[0, 0.0]]          # frames: [span id, traced child seconds]
        self._enumerating = 0
        self._restore = []
        self.new_bucket()

    def new_bucket(self):
        """Start a fresh set of statistics; returns the finished one."""
        done = getattr(self, "bucket", None)
        self.bucket = {"calls": Counter(), "self_s": defaultdict(float),
                       "count": Counter(), "keys": defaultdict(set)}
        return done

    # -- hooks: counters taken from arguments and results --------------------

    def _observe(self, name, args, result):
        b = self.bucket
        if name == ENUMERATE:
            ext = args[0]
            b["keys"][name].add((self.command_id, _algebra_key(ext.ambient),
                                 ext.bottom.basis, ext.top.basis))
            b["count"][name + ".nodes"] += len(result.nodes)
        elif name == "algebra.local_decomposition":
            b["keys"][name].add((self.command_id, _ring_key(args[0])))
        elif name == "algebra.generated_subalgebra" and self._enumerating:
            b["count"][ENUMERATE + ".closures"] += 1
        elif name == "lattice.brute_force_interval":
            ext = args[0]
            codim = ext.top.dim - ext.bottom.dim
            b["count"][name + ".subspaces"] += self._count_subspaces(
                ext.ambient.field.q, codim)
        elif name == "lattice.maximal_chains":
            b["count"][name + ".chains"] += len(result[0])

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn):
        tracer = self
        stack = self._stack
        keep_span = name not in NO_SPANS
        is_enumerate = name == ENUMERATE
        observe = name in OBSERVED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            if is_enumerate:
                tracer._enumerating += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if is_enumerate:
                    tracer._enumerating -= 1
                stack.pop()
                parent[1] += end - start
                b = tracer.bucket
                b["calls"][name] += 1
                b["self_s"][name] += end - start - frame[1]
                if keep_span:
                    tracer.spans.append((span_id, name, start, end, parent[0],
                                         tracer.command_id))
            if observe:
                tracer._observe(name, args, result)
            return result
        return wrapper

    def _timed_generator(self, name, fn):
        """A generator's work happens as it is resumed: one span per resume."""
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.bucket["calls"][name] += 1
            gen = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                span_id = tracer._next_id
                tracer._next_id += 1
                frame = [span_id, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    stack.pop()
                    parent[1] += end - start
                    tracer.bucket["self_s"][name] += end - start - frame[1]
                    tracer.spans.append((span_id, name, start, end, parent[0],
                                         tracer.command_id))
                yield item
        return wrapper

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            tracer.bucket["calls"][name] += 1
            return fn(*args)
        return wrapper

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            return self._counted(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._timed_generator(name, fn)
        return self._timed(name, fn)

    # -- installation -----------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == "ringlat" or key.startswith("ringlat."))]

    def originals(self):
        """{original function: metric name} for every traced function."""
        ringlat = sys.modules["ringlat"]
        out = {}
        for mod, fns in FUNCTIONS.items():
            module = getattr(ringlat, mod)
            for fn in fns:
                out[getattr(module, fn)] = f"{mod}.{fn}"
        for mod, cls, meth, name in METHODS:
            out[vars(getattr(getattr(ringlat, mod), cls))[meth]] = name
        return out

    def install(self):
        originals = self.originals()
        self._count_subspaces = sys.modules["ringlat.gfq"].count_subspaces
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        ringlat = sys.modules["ringlat"]
        for mod, cls, meth, _ in METHODS:
            klass = getattr(getattr(ringlat, mod), cls)
            original = vars(klass)[meth]
            self._restore.append((klass, meth, original))
            setattr(klass, meth, wrappers[original])

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def unwrapped_references(self, originals):
        """(module, attribute) pairs that still hold an original function."""
        return [(module.__name__, attr) for module in self._modules()
                for attr, value in vars(module).items()
                if callable(value) and value in originals]

    def write_spans(self, path, commands):
        with open(path, "w") as fh:
            json.dump({"commands": commands,
                       "fields": ["id", "name", "start", "end", "parent", "command"]}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def layer_metrics(bucket):
    """The per-layer metrics of one bucket (one traced pass)."""
    calls, self_s, count, keys = (bucket[k] for k in ("calls", "self_s", "count", "keys"))
    out = {}
    for name in traced_names():
        out[name + ".calls"] = calls[name]
        if name not in COUNT_ONLY:
            out[name + ".self_s"] = self_s[name]
    for name in (ENUMERATE, "algebra.local_decomposition"):
        out[name + ".distinct_ratio"] = len(keys[name]) / calls[name] if calls[name] else 0.0
    nodes = count[ENUMERATE + ".nodes"]
    out[ENUMERATE + ".nodes"] = nodes
    out[ENUMERATE + ".closures_per_node"] = \
        count[ENUMERATE + ".closures"] / nodes if nodes else 0.0
    for key in ("lattice.brute_force_interval.subspaces", "lattice.maximal_chains.chains"):
        out[key] = count[key]
    return out
