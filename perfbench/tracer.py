"""In-memory call tracing of the lstirling layers, installed from outside.

`Tracer.install()` wraps the public functions of each layer module, plus the few
hot methods the per-layer metrics name, and rebinds every name under which a
module of the package can reach the original (a function imported by name,
such as `codes.validate`, is rebound too).  Nothing inside the package is
edited on disk; the wrapping lives only in the traced process.

Each call is a span.  Spans nest on one stack, so a span's self time is its
duration minus the time of the spans that ran inside it.  Per-name totals
are kept for every call; the first MAX_SPANS raw spans are kept as well, and
`Tracer.report` hands both over when the traced process ends.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time

LAYERS = ("algebra", "triangles", "gamma", "grammar", "partitions", "codes", "realroots", "cli")
# hot methods reached through operators or instances rather than module names
METHODS = {
    "algebra": {"Poly": ("eval", "__mul__", "__divmod__")},
    "triangles": {"Triangle": ("value",)},
}
MAX_SPANS = 20000


class Tracer:
    """Span stack plus per-name aggregates: calls, inclusive and self seconds."""

    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive_s, self_s]
        self.items = {}  # generator name -> values yielded
        self.observed = {"max_coeff_bits": 0, "chain_len_max": 0, "terms_max": 0, "refine_max": 0}
        self.isolated = {}  # digest of an isolated polynomial -> times isolated
        self.spans = []  # (id, parent_id, name, start, end), first MAX_SPANS only
        self._stack = []  # frames [name, start, child_s, span_id]
        self._next_id = 0
        self._refines = {}  # (chain id, interval) -> bisections so far on that root

    def enter(self, name: str):
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def leave(self):
        end = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        dur = end - start
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent[3] if parent else 0, name, start, end))

    # -- observations on results, made after the span has closed ----------

    def observe(self, name: str, args, result):
        obs = self.observed
        if name == "realroots.sturm_chain":
            obs["chain_len_max"] = max(obs["chain_len_max"], len(result))
            for p in result:
                for c in p.coeffs:
                    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                    obs["max_coeff_bits"] = max(obs["max_coeff_bits"], bits)
        elif name == "realroots.isolate_roots":
            key = hashlib.sha1(repr(args[0].to_fractions().coeffs).encode()).hexdigest()
            self.isolated[key] = self.isolated.get(key, 0) + 1
        elif name == "realroots.refine_interval":
            chain, interval = args
            done = self._refines.pop((id(chain), interval), 0) + 1
            self._refines[(id(chain), result)] = done
            obs["refine_max"] = max(obs["refine_max"], done)
        elif name == "grammar.derive":
            obs["terms_max"] = max(obs["terms_max"], len(result.terms))

    def install(self):
        """Wrap the layers of lstirling in this process and start recording."""
        originals = _install(self)
        self._cache_info = originals["gamma.gamma_coeff"].cache_info
        self._cache0 = self._cache_info()
        self._refine_cap = importlib.import_module("lstirling.realroots").REFINE_CAP

    def report(self) -> dict:
        """Everything recorded since install(), as plain JSON-ready data."""
        cache = self._cache_info()
        return {
            "stats": self.stats,
            "items": self.items,
            "observed": self.observed,
            "isolated": self.isolated,
            "cache_hits": cache.hits - self._cache0.hits,
            "cache_misses": cache.misses - self._cache0.misses,
            "refine_cap": self._refine_cap,
            "spans": self.spans,
        }


_OBSERVED = {"realroots.sturm_chain", "realroots.isolate_roots", "realroots.refine_interval", "grammar.derive"}


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.leave()
                tracer.items[name] = tracer.items.get(name, 0) + 1
                yield item

        return gen_wrapper

    observe = name in _OBSERVED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if observe:
            tracer.observe(name, args, result)
        return result

    return wrapper


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if attr.startswith("_"):
            continue
        is_fn = inspect.isfunction(obj) or hasattr(obj, "cache_info")
        if is_fn and getattr(obj, "__module__", None) == mod.__name__:
            yield attr, obj


def _install(tracer: Tracer) -> dict:
    """Wrap every layer of the imported package; return originals by span name."""
    originals = {}  # span name -> original callable
    wrappers = {}  # id(original) -> wrapper
    for layer in LAYERS:
        mod = importlib.import_module(f"lstirling.{layer}")
        for attr, fn in _public_functions(mod):
            name = f"{layer}.{attr}"
            originals[name] = fn
            wrappers[id(fn)] = (fn, _wrap(tracer, name, fn))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                originals[name] = fn
                wrapped = _wrap(tracer, name, fn)
                # aliases such as Poly.__rmul__ and Poly.__call__ share the function
                for alias, val in list(vars(cls).items()):
                    if val is fn:
                        setattr(cls, alias, wrapped)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "lstirling" or mod_name.startswith("lstirling.")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    return originals
