"""Per-layer tracing installed from outside the program.

`Tracer.install()` replaces every public function and public method of the
layer modules with a wrapper that records a span (id, name, start, end,
parent span, job id) and, at a few boundaries, a counter.  A function that
another module imported by name is replaced there too, so calls from one
layer into another are spans of the callee's layer.  `uninstall()` puts the
originals back.  Nothing is wrapped unless a traced run asks for it.

A layer's self time is the time of its spans minus the part covered by their
direct child spans; summed over all spans it telescopes to the time covered
by the outermost spans.
"""

from __future__ import annotations

import importlib
import time
import types
from numbers import Rational

LAYERS = ("padic", "exact", "functions", "wavelets", "operators", "haar", "cli")

# dunder methods that carry a layer's work (arithmetic on exact values);
# constructors, hashing and printing are left to the caller's span
_TRACED_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__eq__", "__complex__", "__abs__", "__matmul__",
})

# private functions traced as boundaries: their time belongs to their layer,
# but they are not counted in the layer's public `calls`
_PRIVATE_BOUNDARIES = {"exact": ("_normalize",)}

NO_JOB = -1


def _cap_arg(args, kwargs, position, default):
    if len(args) > position:
        return args[position]
    return kwargs.get("cap", default)


class Tracer:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self, package: str = "padic_wavelets"):
        self.package = package
        self.names: list[tuple[str, str, bool]] = []  # (layer, name, public)
        self.spans: list[tuple] = []  # (sid, name_index, start, end, parent, job)
        self.job = NO_JOB
        self.counters: dict = {}
        self._next_id = 1
        self._current = 0
        self._patches: list[tuple[object, str, object]] = []
        self._modules = {
            layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS
        }
        functions = self._modules["functions"]
        self.reduce_rep = functions.reduce_rep
        self._default_cap = functions.DEFAULT_CELL_CAP
        self._cyc = self._modules["exact"].Cyc

    # -- counters ----------------------------------------------------------

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def count_max(self, key: str, value) -> None:
        if key not in self.counters or value > self.counters[key]:
            self.counters[key] = value

    def _cells(self, count: int, cap: int) -> None:
        self.count("functions.cells_enumerated", count)
        self.count_max("functions.cap_headroom", count / cap)

    def _observers(self) -> dict:
        """Counter hooks by span name: (before(args, kwargs), after(args, kwargs, result))."""
        cyc = self._cyc
        default_cap = self._default_cap

        def normalized(args, kwargs, result):
            self.count("exact.normalized")
            self.count_max("exact.max_level", result[0])

        def mixed_with_float(args, kwargs):
            if isinstance(args[1], (float, complex)):
                self.count("exact.demoted")

        def sum_demotion(args, kwargs):
            acc, value = args[0], args[1]
            if acc.fallback is not None:
                if isinstance(value, cyc):
                    self.count("exact.demoted")
            elif acc.terms and not isinstance(value, (cyc, Rational)):
                self.count("exact.demoted")

        def ball_reps(args, kwargs, result):
            self._cells(len(result), _cap_arg(args, kwargs, 3, default_cap))

        def refine_to(args, kwargs, result):
            if result is not args[0]:
                self._cells(len(result.table), _cap_arg(args, kwargs, 2, default_cap))

        def transform(args, kwargs, result):
            f = args[0]
            count = f.prime ** (f.support_exponent + f.resolution)
            self._cells(count, _cap_arg(args, kwargs, 1, default_cap))

        def labels_enumerated(args, kwargs, result):
            self.count("wavelets.labels", len(result))

        def labels_summed(args, kwargs):
            self.count("wavelets.labels", len(args[0].coefficients))

        def relations(args, kwargs, result):
            self.count("operators.relation_instances", len(result))

        def one_relation(args, kwargs, result):
            self.count("operators.relation_instances")

        def kernel_pairs(args, kwargs):
            f = args[1]
            self.count("operators.kernel_pairs",
                       f.prime ** (2 * (f.support_exponent + f.resolution)))

        def haar_coefficient(args, kwargs, result):
            self.count("haar.coefficients")

        def json_written(args, kwargs):
            self.count("cli.json_bytes", len(args[0].encode()))

        def amp_encoded(args, kwargs, result):
            if isinstance(args[0], cyc) and "re" in result:
                self.count("cli.demoted_values")

        hooks = {
            "exact._normalize": (None, normalized),
            "exact.CycSum.add": (sum_demotion, None),
            "functions.ball_reps": (None, ball_reps),
            "functions.LocallyConstantFn.refine_to": (None, refine_to),
            "functions.fourier": (None, transform),
            "functions.inverse_fourier": (None, transform),
            "functions.amp_to_json": (None, amp_encoded),
            "wavelets.enumerate_indices": (None, labels_enumerated),
            "wavelets.synthesize": (labels_summed, None),
            "operators.translation_kernel_residual": (None, one_relation),
            "operators.vladimirov_kernel_apply": (kernel_pairs, None),
            "haar.monomial_coefficient": (None, haar_coefficient),
            "cli.write_output": (json_written, None),
        }
        for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
            hooks[f"exact.Cyc.{op}"] = (mixed_with_float, None)
        for family in ("sl2", "witt", "deformed", "semigroup", "translation_spectral"):
            hooks[f"operators.{family}_results"] = (None, relations)
        return hooks

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, public: bool, observers: dict):
        index = len(self.names)
        self.names.append((layer, name, public))
        before, after = observers.get(name, (None, None))
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = tracer._current
            tracer._current = sid
            start = clock()
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                end = clock()
                tracer._current = parent
                spans.append((sid, index, start, end, parent, tracer.job))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _own_function(self, value, module) -> bool:
        if isinstance(value, types.FunctionType):
            return value.__module__ == module.__name__ and \
                value.__code__.co_filename == module.__file__
        # functools.lru_cache wrappers of functions defined in the module
        wrapped = getattr(value, "__wrapped__", None)
        return (
            callable(value)
            and hasattr(value, "cache_info")
            and isinstance(wrapped, types.FunctionType)
            and wrapped.__module__ == module.__name__
        )

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = self._observers()
        replaced: dict[int, object] = {}
        for layer, module in self._modules.items():
            private = _PRIVATE_BOUNDARIES.get(layer, ())
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") and attr not in private:
                    continue
                if self._own_function(value, module):
                    replaced[id(value)] = self._wrap(
                        value, layer, f"{layer}.{attr}", attr not in private, observers)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer, module, observers)
        # every module namespace that holds an original (including imports
        # under another name) gets the wrapper
        package = importlib.import_module(self.package)
        for module in [package, *self._modules.values()]:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def _wrap_class(self, cls, layer: str, module, observers: dict) -> None:
        wrappers: dict[int, object] = {}
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _TRACED_DUNDERS:
                continue
            if attr.startswith("_") and not attr.startswith("__"):
                continue
            kind = None
            fn = value
            if isinstance(value, (classmethod, staticmethod)):
                kind, fn = type(value), value.__func__
            if not isinstance(fn, types.FunctionType) or \
                    fn.__code__.co_filename != module.__file__:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            # aliases such as __radd__ = __add__ share one span name
            wrapped = wrappers.get(id(fn))
            if wrapped is None:
                wrapped = self._wrap(fn, layer, name, True, observers)
                wrappers[id(fn)] = wrapped
            self._patch(cls, attr, kind(wrapped) if kind else wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Yield (span, duration, self_time) in completion order."""
        covered: dict[int, float] = {}
        for span in self.spans:
            sid, _, start, end, parent, _ = span
            duration = end - start
            yield span, duration, duration - covered.pop(sid, 0.0)
            if parent:
                covered[parent] = covered.get(parent, 0.0) + duration

    def summarize(self):
        """Per-job layer totals and per-function totals over all job spans.

        Returns ({job: {layer: [calls, self_s]}}, {name: [calls, self_s]})."""
        per_job: dict[int, dict[str, list]] = {}
        per_name: dict[str, list] = {}
        for span, _, self_s in self.self_times():
            job = span[5]
            if job == NO_JOB:
                continue
            layer, name, public = self.names[span[1]]
            totals = per_job.setdefault(job, {l: [0, 0.0] for l in LAYERS})[layer]
            totals[0] += public
            totals[1] += self_s
            entry = per_name.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
        return per_job, per_name

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("sid,name,start,end,parent,job\n")
            for sid, index, start, end, parent, job in self.spans:
                fh.write(f"{sid},{self.names[index][1]},{start:.9f},{end:.9f},{parent},{job}\n")
