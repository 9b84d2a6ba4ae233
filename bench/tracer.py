"""Spans around calls into the nlgauge modules, recorded from outside.

The tracer replaces each traced function in *every* ``nlgauge`` namespace that
holds it (``nlgauge.cli.evolve``, ``nlgauge.equivalence.evolve``, the package
root, ...) by finding the original object by identity, so an imported alias
cannot be missed. ``audit`` then confirms that no namespace still holds an
original. ``scipy.fft``, imported as ``_fft`` by ``grid`` and ``dynamics``, is
replaced there by a proxy whose transforms are timed; FFT calls are too many to
keep one span each, so they are aggregated per (transform, parent span).

A span's self time is its duration minus the time of its child spans and of the
FFT calls made directly under it. Spans stay in memory until ``dump``.
"""

import json
import sys
from collections import defaultdict
from time import perf_counter

import scipy.fft

# (home module, attribute, span name)
TARGETS = (
    ("nlgauge.cli", "run", "cli.run"),
    ("nlgauge.cli", "resolve_config", "cli.resolve_config"),
    ("nlgauge.cli", "write_frames_csv", "cli.write_frames_csv"),
    ("nlgauge.cli", "write_series_csv", "cli.write_series_csv"),
    ("nlgauge.dynamics", "evolve", "dynamics.evolve"),
    ("nlgauge.dynamics", "step_rk4", "dynamics.step_rk4"),
    ("nlgauge.dynamics", "rhs", "dynamics.rhs"),
    ("nlgauge.functionals", "unwrap_phase", "functionals.unwrap_phase"),
    ("nlgauge.functionals", "modulus_phase", "functionals.modulus_phase"),
    ("nlgauge.gauge", "apply_gauge", "gauge.apply_gauge"),
    ("nlgauge.equivalence", "commuting_residual", "equivalence.commuting_residual"),
    ("nlgauge.ensembles", "mixed_divergence", "ensembles.mixed_divergence"),
    ("nlgauge.ensembles", "separability_residual", "ensembles.separability_residual"),
    ("nlgauge.states", "gaussian", "states.gaussian"),
    ("nlgauge.states", "plane_wave", "states.plane_wave"),
    ("nlgauge.states", "random_nodeless_field", "states.random_nodeless_field"),
    ("nlgauge.states", "two_gaussian_pair", "states.two_gaussian_pair"),
    ("nlgauge.states", "harmonic_potential", "states.harmonic_potential"),
)
FFT_NAMES = ("fft", "ifft", "fftn", "ifftn")


class _FFTProxy:
    """Stands in for ``scipy.fft`` inside one nlgauge module."""

    def __init__(self, timed: dict):
        self.__dict__.update(timed)

    def __getattr__(self, name):
        return getattr(scipy.fft, name)


class Tracer:
    def __init__(self):
        self.spans = []           # (name, parent index or -1, start, end, self_s)
        self.fft = defaultdict(lambda: [0, 0.0])   # (transform, parent) -> [calls, s]
        self.counters = defaultdict(float)
        self._stack = []          # [span index, name, child seconds]
        self._originals = {}      # id(original) -> original

    # ------------------------------------------------------------ wrappers --
    def wrap(self, name, fn, after=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            frame = [len(spans), name, 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[frame[0]] = (name, parent, t0, t1, t1 - t0 - frame[2])
                if stack:
                    stack[-1][2] += t1 - t0
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_fft(self, name, fn):
        stack, agg = self._stack, self.fft

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                cell = agg[(name, stack[-1][1] if stack else None)]
                cell[0] += 1
                cell[1] += d
                if stack:
                    stack[-1][2] += d

        return traced

    # ---------------------------------------------------------- install ----
    def install(self, after_hooks=None):
        """Wrap every target in every nlgauge namespace that imported it."""
        after_hooks = after_hooks or {}
        modules = _nlgauge_modules()
        replace = {}
        for mod_name, attr, span in TARGETS:
            orig = getattr(sys.modules[mod_name], attr)
            replace[id(orig)] = (orig, self.wrap(span, orig, after_hooks.get(span)))
        proxy = _FFTProxy({n: self.wrap_fft(f"fft.{n}", getattr(scipy.fft, n))
                           for n in FFT_NAMES})
        replace[id(scipy.fft)] = (scipy.fft, proxy)
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
        self._originals = {k: v[0] for k, v in replace.items()}

    def audit(self) -> list:
        """Names of nlgauge namespaces (and their containers) that still hold
        an untraced original; empty when every alias was replaced."""
        missed = []
        for module in _nlgauge_modules():
            for key, value in vars(module).items():
                values = value.values() if isinstance(value, dict) else \
                    value if isinstance(value, (list, tuple)) else (value,)
                for v in values:
                    if id(v) in self._originals and self._originals[id(v)] is v:
                        missed.append(f"{module.__name__}.{key}")
        return missed

    # ---------------------------------------------------------- summary ----
    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus the FFT
        aggregate and the inclusive seconds of top-level spans."""
        by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        top_s = 0.0
        for name, parent, t0, t1, self_s in self.spans:
            rec = by_name[name]
            rec["calls"] += 1
            rec["s"] += t1 - t0
            rec["self_s"] += self_s
            if parent < 0:
                top_s += t1 - t0
        fft_calls = sum(c for c, _ in self.fft.values())
        fft_s = sum(s for _, s in self.fft.values())
        fft_in_rhs = sum(c for (_, parent), (c, _) in self.fft.items()
                         if parent == "dynamics.rhs")
        return {"spans": dict(by_name), "top_s": top_s, "fft_calls": fft_calls,
                "fft_s": fft_s, "fft_calls_in_rhs": fft_in_rhs,
                "counters": dict(self.counters)}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "fft": [[k[0], k[1], v[0], v[1]] for k, v in self.fft.items()]},
                      fh)


def _nlgauge_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nlgauge" or name.startswith("nlgauge."))]
