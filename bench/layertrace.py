"""Per-layer call counts and times for the blakley package.

A Tracer replaces every public function of the traced modules, and the
__init__ of every public class, with a wrapper that counts calls and
times them while the tracer is active. Names that other modules bound
with ``from ... import`` are replaced too, so ``scheme.determinant`` is
traced as ``modlinalg.determinant``. ``uninstall`` puts the originals
back. Spans are kept in memory as per-name totals:

- ``calls[name]``: completed calls, including ones that raised;
- ``total_ns[name]``: time inside the call;
- ``self_ns[name]``: that time minus the time inside traced children;
- ``true_returns[name]``: calls that returned ``True``;
- ``edges["parent>child"]``: calls of child made directly by parent.
"""

from collections import Counter
import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

MODULES = ("field", "modlinalg", "scheme", "share_io", "analysis", "cli")


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.true_returns = Counter()
        self.edges = Counter()
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else ""
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                tracer.calls[name] += 1
                tracer.total_ns[name] += dt
                tracer.self_ns[name] += dt - frame[1]
                tracer.edges[f"{parent}>{name}"] += 1
            if result is True:
                tracer.true_returns[name] += 1
            return result

        return traced

    def install(self):
        """Wrap the public functions and classes of MODULES everywhere they are bound."""
        replacements = {}
        for short in MODULES:
            module = importlib.import_module(f"blakley.{short}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isfunction(obj):
                    replacements[id(obj)] = (obj, self._wrap(name, obj))
                elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                      and "__init__" in vars(obj)):
                    init = vars(obj)["__init__"]
                    self._undo.append((obj, "__init__", init))
                    setattr(obj, "__init__", self._wrap(name, init))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "blakley" or modname.startswith("blakley.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def stats(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "true_returns": dict(self.true_returns),
            "edges": dict(self.edges),
        }

    def merge(self, stats: dict):
        """Add the stats() of another tracer, e.g. one from a child process."""
        for key in ("calls", "total_ns", "self_ns", "true_returns", "edges"):
            getattr(self, key).update(stats[key])
