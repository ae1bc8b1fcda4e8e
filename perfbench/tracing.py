"""Spans around the program's public functions, recorded from outside it.

The benchmark replaces each traced function by a wrapper in every
``heun_monodromy`` module that refers to it, records one span per call
(name, start, end, nesting depth on its thread, thread, and an optional
count taken from the return value) in memory, and restores the originals
afterwards.  No file of the package is changed.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
from dataclasses import dataclass
from time import perf_counter


def _segments(path) -> int:
    return len(path.step_times) - 1


def _terms(quad) -> int:
    return sum(len(c.terms) for poly in quad.as_tuple() for c in poly.coeffs.values())


# (span name, module, attribute, count taken from the result).  A span name is
# "<module>.<function>"; the per-layer metric "<span name>_s" is its time.
FUNCTION_SPANS = (
    ("phase.solve_phase", "phase", "solve_phase", _segments),
    ("circle.theta_pair_solve", "circle", "theta_pair_solve", None),
    ("circle.continue_riccati_path", "circle", "continue_riccati_path", None),
    ("monodromy.verify_monodromy", "monodromy", "verify_monodromy", None),
    ("heun.build_E", "heun", "build_E", None),
    ("heun.pair_ode_residual", "heun", "pair_ode_residual", None),
    ("heun.dche_residual", "heun", "dche_residual", None),
    ("heun.check_B_squared", "heun", "check_B_squared", None),
    ("heun.build_matrix_B", "heun", "build_matrix_B", None),
    ("sqrtmono.transform_from_path", "sqrtmono", "transform_from_path", None),
    ("sqrtmono.verify_theorem2", "sqrtmono", "verify_theorem2", None),
    ("heunpoly.diagonal", "heunpoly", "diagonal", _terms),
    ("heunpoly.check_parity", "heunpoly", "check_parity", None),
    ("heunpoly.check_ode_system", "heunpoly", "check_ode_system", None),
    ("heunpoly.first_integral", "heunpoly", "first_integral", None),
    ("verify.check_ode", "verify", "check_ode", None),
    ("verify.check_circle", "verify", "check_circle", None),
    ("verify.check_monodromy", "verify", "check_monodromy", None),
    ("verify.check_poly_exact", "verify", "check_poly_exact", None),
    ("verify.check_heun", "verify", "check_heun", None),
    ("verify.check_theorem2", "verify", "check_theorem2", None),
    ("verify.run_battery", "verify", "run_battery", None),
)
# Recursive functions are wrapped only where other modules refer to them, so
# a span covers one call into the module, not each level of its recursion.
IMPORTER_SPANS = (("jsonio.canonical_json", "jsonio", "canonical_json"),)
METHOD_SPANS = (
    ("sqrtmono.quadrature", "sqrtmono", "SqrtMonodromyTransform", "quadrature"),
    ("exactpoly.canonical_text", "exactpoly", "LaurentPoly", "canonical_text"),
)


def _module(name: str):
    return importlib.import_module(f"heun_monodromy.{name}")


class Patcher:
    """Replaces functions in the package's namespaces and puts them back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, modname: str, attr: str, make_wrapper, home: bool = True):
        home_mod = _module(modname)
        original = getattr(home_mod, attr)
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("heun_monodromy"):
                continue
            if mod is home_mod and not home:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def method(self, modname: str, clsname: str, attr: str, make_wrapper):
        cls = getattr(_module(modname), clsname)
        original = cls.__dict__[attr]
        setattr(cls, attr, make_wrapper(original))
        self._undo.append((cls, attr, original))

    def restore(self):
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)


class PathCapture:
    """Keeps every phase path the program solves, to check phi(T) afterwards."""

    def __init__(self):
        self.paths: list = []
        self._patcher = Patcher()

    def install(self):
        def make(fn):
            @functools.wraps(fn)
            def capture(*args, **kwargs):
                path = fn(*args, **kwargs)
                self.paths.append(path)
                return path

            return capture

        self._patcher.function("phase", "solve_phase", make)

    def take(self) -> list:
        paths, self.paths = self.paths, []
        return paths

    def uninstall(self):
        self._patcher.restore()


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    depth: int
    thread: int
    count: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patcher = Patcher()

    def _make(self, name: str, count=None):
        local, spans = self._local, self.spans

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                depth = getattr(local, "depth", 0)
                local.depth = depth + 1
                value = None
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    value = count(result) if count else None
                    return result
                finally:
                    end = perf_counter()
                    local.depth = depth
                    spans.append(Span(name, start, end, depth, threading.get_ident(), value))

            return traced

        return make

    def install(self):
        for name, modname, attr, count in FUNCTION_SPANS:
            self._patcher.function(modname, attr, self._make(name, count))
        for name, modname, attr in IMPORTER_SPANS:
            self._patcher.function(modname, attr, self._make(name), home=False)
        for name, modname, clsname, attr in METHOD_SPANS:
            self._patcher.method(modname, clsname, attr, self._make(name))

    def uninstall(self):
        self._patcher.restore()


def covered_time(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals."""
    total, reach = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > reach:
            total += s.end - max(s.start, reach)
            reach = s.end
    return total


# ---------------------------------------------------------------- probes


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def layer_probes(point) -> dict[str, float]:
    """Fixed-size calls into single layers at one parameter point."""
    import numpy as np

    from heun_monodromy import circle, heun, heunpoly, phase, sqrtmono
    from heun_monodromy.params import ModelParams

    ell, mu, omega, phi0 = point
    params = ModelParams(ell=ell, mu=mu, omega=omega)
    path = phase.solve_phase(params, phi0, tol=1e-12)
    T = params.T
    t = np.linspace(-T / 2, T / 2, 1001)
    t401 = np.linspace(-T / 2, T / 2, 401)
    nq = heunpoly.NumericQuad(heunpoly.diagonal(int(ell)), params)
    hb = heun.build_E(circle.phi_on_circle(path), circle.psi_on_circle(path))

    def sqrt_phase():
        # a fresh transform each time: the first call builds the branch grid,
        # as it does inside verify_theorem2
        tr = sqrtmono.transform_from_path(path, nq)
        start = perf_counter()
        tr.phase(t)
        return perf_counter() - start

    return {
        "phase.eval_1001_s": _median_time(lambda: path.eval(t), 9),
        "phase.eval_1_us": _median_time(lambda: path.eval(0.3), 301) * 1e6,
        "phase.derivative_1001_s": _median_time(lambda: path.derivative(t), 9),
        "circle.half_power_factors_1001_s": _median_time(
            lambda: circle.half_power_factors(path, t), 9
        ),
        "circle.half_power_factor_dots_1001_s": _median_time(
            lambda: circle.half_power_factor_dots(path, t), 9
        ),
        "heun.apply_B_401_s": _median_time(lambda: heun.apply_B(hb, nq, t401, coeffs=(1, 0)), 5),
        "sqrtmono.phase_1001_s": statistics.median(sqrt_phase() for _ in range(5)),
    }
