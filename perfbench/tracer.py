"""Outside-in tracer: times clonebench's layers without changing its source.

`install` replaces every public function of the traced modules, in every
module namespace that binds it (optimize, for one, binds
outcome_density_fourier by name), and `QuadraticForm.matvec`, with a wrapper
that records a span. A span is (name, start, end, parent, invocation); spans
stay in memory until `write` is called at the end of the run. A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

import numpy as np

MODULES = ("spin", "equatorial", "entangled", "optimize", "quadrature", "report", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.invocation = -1
        self.kernel = {"forms": 0, "dim": 0, "live": 0, "subnormal": 0}
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._origin = time.perf_counter()

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.invocation)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_form(self, form) -> None:
        # Share of the sqrt(b) lattice that carries weight, and its subnormals.
        sqrt_b = form.sqrt_b
        self.kernel["forms"] += 1
        self.kernel["dim"] += len(sqrt_b)
        self.kernel["live"] += int(np.count_nonzero(sqrt_b > 1e-17 * sqrt_b.max()))
        tiny = np.finfo(sqrt_b.dtype).tiny
        self.kernel["subnormal"] += int(np.count_nonzero((sqrt_b > 0) & (sqrt_b < tiny)))

    def install(self) -> None:
        package = importlib.import_module("clonebench")
        modules = [importlib.import_module(f"clonebench.{name}") for name in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not name.startswith("_")
                        and value.__module__ == module.__name__):
                    observe = self._observe_form if name == "build_quadratic_form" else None
                    wrappers[value] = self.wrap(f"{short}.{name}", value, observe)
        for namespace in (package, *modules):
            for name, value in list(vars(namespace).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._restore.append((namespace, name, value))
                    setattr(namespace, name, wrappers[value])
        form = sys.modules["clonebench.optimize"].QuadraticForm
        self._restore.append((form, "matvec", form.matvec))
        form.matvec = self.wrap("optimize.matvec", form.matvec)

    def uninstall(self) -> None:
        for namespace, name, value in reversed(self._restore):
            setattr(namespace, name, value)
        self._restore.clear()

    def totals(self) -> dict[str, list]:
        """Per span name: [calls, total seconds, self seconds]."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, list] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[index]
        return totals

    def write(self, path: str) -> None:
        """Tab-separated: invocation, name, parent index, start and end in microseconds."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("invocation\tname\tparent\tstart_us\tend_us\n")
            for name, start, end, parent, invocation in self.spans:
                handle.write(f"{invocation}\t{name}\t{parent}\t"
                             f"{(start - self._origin) * 1e6:.1f}\t{(end - self._origin) * 1e6:.1f}\n")
