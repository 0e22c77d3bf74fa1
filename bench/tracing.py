"""Per-layer spans, recorded from outside the program.

`Tracer.install()` wraps the public functions listed in LAYERS and
rebinds the wrapper at every place `knotconcord` holds the function: the
defining module, each module that imported it by name, and the class for
methods.  A wrapper records a span per call; spans nest on one stack, so
a layer's self time is its busy time less the time its traced callees
took.  Nothing in the program changes, and the report bytes must not.

Metric names are `<layer>.<calls|s|self_s>`, plus a few counters named in
EXTRA: `s` is busy time (a recursive call inside a busy span adds
nothing), `self_s` is busy time not covered by a child span.
"""

import importlib
import pkgutil
import time
from fractions import Fraction

# layer name -> (module, attribute path in that module)
LAYERS = {
    "cli.main": ("knotconcord.cli", "main"),
    "seifert.build": ("knotconcord.seifert", "build"),
    "seifert.alexander": ("knotconcord.seifert", "alexander"),
    "seifert.lt_signature": ("knotconcord.seifert", "lt_signature"),
    "kernels.hermitian_inertia": ("knotconcord.kernels", "hermitian_inertia"),
    "kernels.hermitian_pivots": ("knotconcord._inertia_py", "hermitian_pivots"),
    "cyclo.CyclotomicField": ("knotconcord.cyclo", "CyclotomicField"),
    "cyclo.sign_real": ("knotconcord.cyclo", "_CyclotomicField.sign_real"),
    "linalg.det_bareiss": ("knotconcord.linalg", "det_bareiss"),
    "linalg.smith_normal_form": ("knotconcord.linalg", "smith_normal_form"),
    "cover.branched_cover": ("knotconcord.cover", "branched_cover"),
    "cover.linking_form": ("knotconcord.cover", "linking_form"),
    "metabolizers.enumerate_metabolizers":
        ("knotconcord.metabolizers", "enumerate_metabolizers"),
    "metabolizers.vanishing_chars": ("knotconcord.metabolizers", "vanishing_chars"),
    "cassongordon.satellite_sigma": ("knotconcord.cassongordon", "satellite_sigma"),
    "cassongordon.satellite_delta": ("knotconcord.cassongordon", "satellite_delta"),
    "cassongordon.norm_test": ("knotconcord.cassongordon", "norm_test"),
    "cassongordon.twisted_double_obstruction":
        ("knotconcord.cassongordon", "twisted_double_obstruction"),
    "cassongordon.order2_obstruction":
        ("knotconcord.cassongordon", "order2_obstruction"),
    "cassongordon.mutant_sum_obstruction":
        ("knotconcord.cassongordon", "mutant_sum_obstruction"),
    "diagram.labeling_space": ("knotconcord.diagram", "labeling_space"),
    "diagram.classify_characters": ("knotconcord.diagram", "classify_characters"),
}


def _entries(V):
    """Seifert matrix entries of a SeifertMatrix or a KnotModel, the
    latter block-summed here so that the tracer runs no program code."""
    if not hasattr(V, "summands"):
        return tuple(tuple(r) for r in V.entries)
    blocks = [s.matrix.entries for s in V.summands]
    n = sum(len(b) for b in blocks)
    rows, off = [], 0
    for b in blocks:
        rows += [(0,) * off + tuple(r) + (0,) * (n - off - len(b)) for r in b]
        off += len(b)
    return tuple(rows)


def _field_deg(args, kwargs, result):
    return args[0].deg


def _found(args, kwargs, result):
    return len(result)


# extra metric -> (layer, value of one call); "distinct" counts distinct keys
EXTRA = {
    "kernels.hermitian_inertia.field_deg_sum": ("kernels.hermitian_inertia",
                                                _field_deg),
    "metabolizers.enumerate_metabolizers.found":
        ("metabolizers.enumerate_metabolizers", _found),
}
DISTINCT = {
    "seifert.lt_signature.distinct": (
        "seifert.lt_signature",
        lambda args: (_entries(args[0]), Fraction(args[1]))),
    "seifert.alexander.distinct": ("seifert.alexander",
                                   lambda args: _entries(args[0])),
}

# every per-layer metric the traced run reports, in a fixed order
METRICS = ([m for layer in LAYERS for m in (layer + ".calls", layer + ".s",
                                            layer + ".self_s")]
           + list(EXTRA) + list(DISTINCT) + ["trace.overhead_s"])


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.busy = {name: 0.0 for name in LAYERS}
        self.self_time = {name: 0.0 for name in LAYERS}
        self.active = {name: 0 for name in LAYERS}
        self.extra = {name: 0 for name in EXTRA}
        self.keys = {name: set() for name in DISTINCT}
        self.stack = []      # child time accumulated by each open span
        self.bindings = []   # (owner, attribute, original) to undo install

    def _wrap(self, name, fn):
        extras = [(m, f) for m, (layer, f) in EXTRA.items() if layer == name]
        distinct = [(m, f) for m, (layer, f) in DISTINCT.items()
                    if layer == name]
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            self.calls[name] += 1
            for m, key in distinct:
                self.keys[m].add(key(args))
            self.active[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self.active[name] -= 1
                self.self_time[name] += dt - child
                if not self.active[name]:
                    self.busy[name] += dt
                if stack:
                    stack[-1] += dt
            for m, value in extras:
                self.extra[m] += value(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every layer at every binding; fail if one is not found."""
        import knotconcord
        modules = [importlib.import_module("knotconcord." + m.name)
                   for m in pkgutil.iter_modules(knotconcord.__path__)
                   if not m.name.startswith("_inertia")
                   or m.name == "_inertia_py"]
        modules.append(knotconcord)
        for name, (modname, path) in LAYERS.items():
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn)
            targets = [(owner, attr)]
            if not outer:
                targets += [(mod, key) for mod in modules
                            for key, value in vars(mod).items()
                            if value is fn and (mod, key) != (owner, attr)]
            for obj, key in targets:
                setattr(obj, key, wrapper)
                self.bindings.append((obj, key, fn))

    def uninstall(self):
        for obj, key, fn in reversed(self.bindings):
            setattr(obj, key, fn)
        self.bindings = []

    def metrics(self):
        out = {}
        for name in LAYERS:
            out[name + ".calls"] = self.calls[name]
            out[name + ".s"] = self.busy[name]
            out[name + ".self_s"] = self.self_time[name]
        out.update(self.extra)
        out.update({m: len(keys) for m, keys in self.keys.items()})
        return out
