"""Spans around the public functions of gjmslab, recorded from outside the package.

A span is (name, start, end, parent): `parent` is the index of the span that
was open when this one started, or -1.  Spans stay in memory until the run
writes them out.  A layer's self time is its span durations minus the parts
covered by child spans; calls are single-threaded, so children never overlap.

Modules bind these functions with `from .spectral import ...`, and `cli`
renames `minimize` on import, so `install` replaces a function in every
gjmslab module namespace that holds it, matched by identity, not by name.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("gjmslab", "spectral", "conformal", "kernels", "rayleigh", "lane_emden", "cli")

#: The traced layers, keyed by defining module.
LAYERS = {
    "spectral": ("build_quadrature", "zonal_basis", "basis_values", "gjms_eigenvalues"),
    "conformal": ("bubble_on_sphere", "pullback_to_plane"),
    "kernels": ("funk_hecke_spectrum", "green_constant", "hls_dual_ratio"),
    "rayleigh": ("minimize",),
    "lane_emden": ("solve_newton", "probe_start", "constant_solution", "uniqueness_probe"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns) + ("cli.main",)


def _module(short: str):
    return importlib.import_module("gjmslab" if short == "gjmslab" else f"gjmslab.{short}")


class Tracer:
    """In-memory span recorder; `newton_iters` collects SolveResult.iters."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.newton_iters: list[int] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(record)
            self._open.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if name == "lane_emden.solve_newton":
                self.newton_iters.append(result.iters)
            return result

        return wrapper

    def install(self):
        """Wrap every traced function wherever gjmslab binds it; returns an undo callable."""
        wrappers = {}
        for mod, names in LAYERS.items():
            module = _module(mod)
            for fn_name in names:
                original = getattr(module, fn_name)
                wrappers[id(original)] = (original, self.span(f"{mod}.{fn_name}", original))
        replaced = []
        for short in MODULES:
            module = _module(short)
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    replaced.append((module, attr, value))

        def uninstall():
            for module, attr, value in replaced:
                setattr(module, attr, value)

        return uninstall


def layer_totals(spans) -> dict[str, list]:
    """Per span name: [calls, self seconds]."""
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_time[index]
    return totals
