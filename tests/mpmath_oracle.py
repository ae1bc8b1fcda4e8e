"""Generate the high-precision reference values of ``tests/oracle_values.py``.

Integrates the augmented phase system

    dphi/dt = B + A*cos(omega*t) - sin(phi),    dP/dt = cos(phi),

from (phi0, 0) at t = 0 with mpmath's Taylor-series ``odefun`` at 30
significant digits, independently of the package's DOP853 kernel, and prints
(phi, P) at t = k*T for k in ``MULTIPLES``.  The parameters are the floats
``ModelParams`` derives (A, B, omega and T are rounded exactly as the program
rounds them), so the difference from ``PhasePath.eval`` is the program's own
error.  ``odefun`` integrates forward only, so negative times run the
reflected system in s = -t.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/mpmath_oracle.py > oracle.txt

It takes about one minute per point on a 2-vCPU Xeon.
"""

from __future__ import annotations

import sys
import time

import mpmath

from heun_monodromy import ModelParams

DPS = 30
#: (ell, mu, omega, phi0): the two golden points, an order-3 point and an
#: order-6 point with a strong drive, where the phase rows turn the fastest.
POINTS = ((2.0, 0.3, 1.0, 0.5), (1.0, 0.2, 1.3, 1.0), (3.0, 0.3, 1.0, 0.5),
          (6.0, 1.5, 0.4, 0.0))
MULTIPLES = (-1.0, -0.5, 0.5, 1.0, 1.5, 2.0)


def oracle(point) -> dict[float, tuple[str, str]]:
    ell, mu, omega, phi0 = point
    params = ModelParams(ell=ell, mu=mu, omega=omega)
    A, B, w = (mpmath.mpf(v) for v in (params.A, params.Bdrive, params.omega))

    def forward(t, y):
        return [B + A * mpmath.cos(w * t) - mpmath.sin(y[0]), mpmath.cos(y[0])]

    def reflected(s, y):
        return [-v for v in forward(-s, y)]

    runs = {1: mpmath.odefun(forward, 0, [mpmath.mpf(phi0), mpmath.mpf(0)]),
            -1: mpmath.odefun(reflected, 0, [mpmath.mpf(phi0), mpmath.mpf(0)])}
    out = {}
    for k in MULTIPLES:
        t = mpmath.mpf(k * params.T)  # the float time the tests evaluate
        sign = 1 if k > 0 else -1
        phi, P = runs[sign](sign * t)
        out[k] = (mpmath.nstr(phi, 25, strip_zeros=False), mpmath.nstr(P, 25, strip_zeros=False))
    return out


def main() -> None:
    mpmath.mp.dps = DPS
    print(f"# mpmath {mpmath.__version__} odefun, mp.dps = {DPS}")
    print("ORACLE = {")
    for point in POINTS:
        start = time.perf_counter()
        values = oracle(point)
        print(f"    {point!r}: {{", flush=True)
        for k, (phi, P) in values.items():
            print(f"        {k!r}: ({phi!r}, {P!r}),")
        print("    },", flush=True)
        print(f"{point}: {time.perf_counter() - start:.1f} s", file=sys.stderr, flush=True)
    print("}")


if __name__ == "__main__":
    main()
