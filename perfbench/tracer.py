"""Spans around calls into the etazeros layers, recorded from outside the
package: each listed public function is wrapped, and every module-level name
bound to it (including names imported by value, such as ``zerofinder.F`` or
``cli.eta_oracle``) is rebound to the wrapper, so no call goes uncounted.

Spans are kept in memory and handed out when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

from metrics import Span

#: Every wrapped function, named ``<module>.<attribute path>`` inside the
#: ``etazeros`` package; the name is also the span name.
LAYER_FUNCTIONS = (
    "quadrature.integrate_line", "quadrature.integrate_finite",
    "quadrature.integrate_to_infinity",
    "special.F", "special.Gamma",
    "zerofinder.find_zeros", "zerofinder.scan_critical_line",
    "zerofinder.refine_zero", "zerofinder.eta_oracle",
    "series.series_lower_integral",
    "decomposition.make_plan", "decomposition.upper_integral",
    "coeffs.CoefficientTable.build", "coeffs.check_theorem4",
    "cli.main",
)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, ok))
        return traced


def _rebind(original, wrapper) -> int:
    """Point every etazeros module attribute bound to ``original`` at
    ``wrapper``; returns how many bindings changed."""
    changed = 0
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("etazeros") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                changed += 1
    return changed


def install(tracer: Tracer):
    """Wrap every layer function and verify suite; returns the wrapped
    ``cli.main``."""
    importlib.import_module("etazeros.cli")     # binds every name to rebind
    for name in LAYER_FUNCTIONS:
        modname, path = name.split(".", 1)
        mod = importlib.import_module(f"etazeros.{modname}")
        if "." in path:     # a classmethod: rebind it on its class
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            fn = vars(cls)[meth].__func__
            setattr(cls, meth, classmethod(tracer.wrap(name, fn)))
            continue
        original = getattr(mod, path)
        if not _rebind(original, tracer.wrap(name, original)):
            raise RuntimeError(f"etazeros.{name} was not rebound")

    verify = importlib.import_module("etazeros.verify")
    for n, runner in list(verify._RUNNERS.items()):
        verify._RUNNERS[n] = tracer.wrap(f"verify.suite{n}", runner)
    return importlib.import_module("etazeros.cli").main
