"""Per-layer spans recorded from outside the program.

``install`` wraps every public function of each ``fibrant`` module, the
public methods of its public classes and the ``__init__``/``__mul__``
dunders that count polynomial constructions and products.  A wrapper is
bound in every ``fibrant`` module namespace that binds the original, so
calls made through ``from .poly import resultant`` are seen too.  Nothing
under ``src/`` is edited; ``restore`` puts the originals back.

Spans are aggregated in memory as they close: calls per span key, the
time of the outermost span of each timed metric, and each layer's self
time (span time minus the time of the spans it caused).  Private helpers
are not wrapped, so their time counts to the public span that called
them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "poly",
    "planecurve",
    "weierstrass",
    "blowup",
    "miranda",
    "lagrange",
    "monodromy",
    "cli",
)

DUNDERS = ("__init__", "__mul__", "__rmul__")

# metric -> span keys ("<layer>:<qualified name>") whose calls it counts
CALL_METRICS = {
    "poly.new.calls": ("poly:MultiPoly.__init__",),
    "poly.mul.calls": ("poly:MultiPoly.__mul__",),
    "poly.resultant.calls": ("poly:resultant",),
    "poly.rational_roots.calls": ("poly:rational_roots",),
    "poly.factor_integer.calls": ("poly:factor_integer",),
    "planecurve.rational_singular_points.calls": ("planecurve:rational_singular_points",),
    "planecurve.classify_double_point.calls": ("planecurve:classify_double_point",),
    "blowup.blow_up_point.calls": ("blowup:blow_up_point",),
    "miranda.collide.calls": ("miranda:collide",),
    "monodromy.is_conjugate_to_T.calls": ("monodromy:is_conjugate_to_T",),
    "monodromy.sl2z_mul.calls": ("monodromy:SL2Z.__mul__",),
    "lagrange.lie_poisson_bracket.calls": ("lagrange:lie_poisson_bracket",),
}

# metric -> span keys whose outermost spans it times (nested ones once)
TIME_METRICS = {
    "poly.mul.s": ("poly:MultiPoly.__mul__",),
    "poly.gcd.s": ("poly:gcd_multivariate", "poly:gcd_univariate"),
    "poly.exact_divide.s": ("poly:exact_divide",),
    "poly.resultant.s": ("poly:resultant",),
    "poly.rational_roots.s": ("poly:rational_roots",),
    "planecurve.rational_singular_points.s": ("planecurve:rational_singular_points",),
    "weierstrass.total_space_singularities.s": (
        "weierstrass:WeierstrassFibration.total_space_singularities",
    ),
    "blowup.regularize.s": ("blowup:regularize",),
    "monodromy.solve_node_relation.s": ("monodromy:solve_node_relation",),
    "lagrange.sample_fiber_point.s": ("lagrange:sample_fiber_point",),
}

MAX_BITS_METRIC = "poly.resultant.max_bits"
MAX_BITS_KEY = "poly:resultant"


def coefficient_bits(poly) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
        default=0,
    )


class Tracer:
    """Aggregates the spans of one traced pass."""

    def __init__(self):
        self._stack = []
        self._active = Counter()
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.times = defaultdict(float)
        self.self_s = defaultdict(float)
        self.max_bits = 0
        self.bits_ok = True

    def wrap(self, layer: str, key: str, func):
        tracer, active, stack = self, self._active, self._stack
        timed = tuple(m for m, keys in TIME_METRICS.items() if key in keys)
        measure_bits = key == MAX_BITS_KEY

        @functools.wraps(func)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            for metric in timed:
                active[metric] += 1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                tracer.calls[key] += 1
                tracer.self_s[layer] += elapsed - frame[0]
                for metric in timed:
                    active[metric] -= 1
                    if not active[metric]:
                        tracer.times[metric] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if measure_bits:
                hook_start = perf_counter()
                try:
                    tracer.max_bits = max(tracer.max_bits, coefficient_bits(result))
                except (AttributeError, TypeError):
                    tracer.bits_ok = False
                if stack:
                    stack[-1][0] += perf_counter() - hook_start
            return result

        return span


def _public_targets(layer: str, module):
    """(key, owner, attribute, raw value, function) for each traced callable."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}:{obj.__qualname__}", module, name, obj, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in sorted(vars(obj).items()):
                if attr.startswith("_") and attr not in DUNDERS:
                    continue
                func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if inspect.isfunction(func):
                    yield f"{layer}:{func.__qualname__}", obj, attr, raw, func


class Installation:
    """Wrappers bound into the ``fibrant`` namespaces, and how to undo them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.keys = set()
        self._undo = []

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"fibrant.{layer}")
            except ModuleNotFoundError:
                continue  # its names are reported absent
        namespaces = [m for n, m in sys.modules.items() if n == "fibrant" or n.startswith("fibrant.")]
        replaced = {}
        for layer, module in modules.items():
            for key, owner, attr, raw, func in _public_targets(layer, module):
                self.keys.add(key)
                wrapper = self.tracer.wrap(layer, key, func)
                if inspect.isclass(owner):
                    if isinstance(raw, staticmethod):
                        wrapper = staticmethod(wrapper)
                    elif isinstance(raw, classmethod):
                        wrapper = classmethod(wrapper)
                    self._undo.append((owner, attr, raw))
                    setattr(owner, attr, wrapper)
                else:
                    replaced[id(raw)] = (raw, wrapper)
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((namespace, name, value))
                    setattr(namespace, name, hit[1])

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def absent(self) -> list:
        """Traced names the metrics expect but the program no longer has."""
        wanted = {k for keys in CALL_METRICS.values() for k in keys}
        wanted |= {k for keys in TIME_METRICS.values() for k in keys}
        wanted.add(MAX_BITS_KEY)
        return sorted(wanted - self.keys)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass (``cli.out_bytes`` and
    ``trace.overhead_s`` come from the run loop)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_s.get(layer, 0.0)
    for metric, keys in CALL_METRICS.items():
        out[metric] = sum(tracer.calls.get(k, 0) for k in keys)
    for metric in TIME_METRICS:
        out[metric] = tracer.times.get(metric, 0.0)
    out[MAX_BITS_METRIC] = tracer.max_bits if tracer.bits_ok else 0
    return out
