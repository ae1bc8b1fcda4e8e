"""The DOP853 integrator on plain Python floats, the reference integrator of
the tests.

One explicit Runge-Kutta pair of order 8 with the 5th/3rd-order error
estimate and the 7th-order dense output of Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, Sec. II.4-II.6.  The step
control follows the same logic as ``scipy.integrate.solve_ivp(method=
"DOP853")``: the initial step of Sec. II.4, the safety factor 0.9, step
factors between 0.2 and 10, the exponent -1/8 and a minimum step of ten ulps
of the current time.

The systems integrated here have one to four real components, so the state
is a list of floats, the stages are kept per component and every linear
combination is one ``sum(map(mul, coefficients, stages))``; no array is
built inside the loop.  The program integrates with Gauss collocation
(``heun_monodromy.gauss``); this integrator is the independent reference
that ``reference_resolve``, ``reference_theta_solve``, ``dense_table``,
``test_sqrtmono`` and ``test_rk`` compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

from heun_monodromy.errors import StepCeilingExceeded, StepSizeTooSmall
from heun_monodromy.gauss import EPS, MAX_STEPS

SAFETY = 0.9
MIN_FACTOR, MAX_FACTOR = 0.2, 10.0
EXPONENT = -1 / 8  # -1 / (error estimator order + 1)

N_STAGES = 12

C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
    0.1, 0.2, 0.777777777777777777777777777778,
)

# Nonzero entries of the stage matrix by row: rows 0-11 are the method, row
# 12 its weights B, rows 13-15 the extra stages of the dense output.
_A = (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1, 4: 6.02165389804559606850219397283e-2,
     5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)

#: Rows of the stage matrix with the zeros filled in: row s holds a[s][:s].
A = tuple(tuple(row.get(j, 0.0) for j in range(s)) for s, row in enumerate(_A))
B = A[N_STAGES]

E5 = tuple({0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
            6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
            8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
            10: 0.8192320648511571246570742613e-1,
            11: -0.2235530786388629525884427845e-1}.get(j, 0.0) for j in range(N_STAGES + 1))
#: The 3rd-order estimate: B less the weights of the embedded 3rd-order method.
_BHH = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1}
E3 = tuple(b - _BHH.get(j, 0.0) for j, b in enumerate(B)) + (0.0,)

# Dense-output weights of the extra coefficients F3..F6 (F0..F2 are closed form).
_D = (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)
D = tuple(tuple(row.get(j, 0.0) for j in range(16)) for row in _D)

#: A dense-output row of one step: (t_old, h, y_old, F) where F holds, per
#: component, the seven coefficients of the order-7 interpolant in the order
#: the nested evaluation uses them, F6 first and F0 last.
Row = tuple


@dataclass
class Solution:
    """End state of one integration, its accepted step times and dense rows."""

    t: float
    y: list[float]
    ts: list[float]
    rows: list[Row] | None


def _rms(x: Sequence[float]) -> float:
    return math.sqrt(sum(v * v for v in x)) / len(x) ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, max_step, sign, rtol, atol) -> float:
    """Starting step of Hairer, Norsett & Wanner, Sec. II.4."""
    span = abs(t_bound - t0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    if h0 == 0.0:  # an infinite slope scale leaves no first trial step
        raise StepSizeTooSmall(f"initial step size is zero at t = {t0!r}", t=t0)
    f1 = fun(t0 + h0 * sign, [v + h0 * sign * f for v, f in zip(y0, f0)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span, max_step)


def _dense_row(fun, K, t_old, h, y_old, y, f_old, f) -> Row:
    """Run the three extra stages and form F6..F0 of the finished step."""
    for s in range(N_STAGES + 1, 16):
        a = A[s]
        ys = [v + sum(map(mul, a, k)) * h for v, k in zip(y_old, K)]
        for k, v in zip(K, fun(t_old + C[s] * h, ys)):
            k[s] = v
    F = []
    for v_old, v, k, fo, fn in zip(y_old, y, K, f_old, f):
        dy = v - v_old
        F.append((*(h * sum(map(mul, d, k)) for d in reversed(D)),
                  2 * dy - h * (fn + fo), h * fo - dy, dy))
    return t_old, h, tuple(y_old), F


def dop853(
    fun: Callable[[float, list[float]], Sequence[float]],
    t0: float,
    y0: Sequence[float],
    t_bound: float,
    rtol: float,
    atol: float,
    max_step: float = math.inf,
    dense: bool = False,
) -> Solution:
    """Integrate y' = fun(t, y) from t0 to t_bound.

    With ``dense`` every accepted step leaves its row (``t_old``, ``h``,
    ``y_old``, F0..F6).  A step below ten
    ulps of t, a NaN step, or a zero initial step raises StepSizeTooSmall.  A
    span that needs more than ``MAX_STEPS`` steps of at most ``max_step``
    raises StepCeilingExceeded before the first step (checked after the
    initial step, so a zero one still reports itself).
    """
    t = float(t0)
    y = [float(v) for v in y0]
    ts = [t]
    rows: list[Row] | None = [] if dense else None
    if t == t_bound:
        return Solution(t, y, ts, rows)
    sign = 1.0 if t_bound > t else -1.0
    rtol = max(rtol, 100 * EPS)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, max_step, sign, rtol, atol)
    if abs(t_bound - t) / max_step > MAX_STEPS:
        raise StepCeilingExceeded(
            f"[{t!r}, {t_bound!r}] needs more than {MAX_STEPS} steps of at most {max_step:.3g}")
    K = [[0.0] * 16 for _ in y]  # stages by component
    while True:
        min_step = 10 * abs(math.nextafter(t, sign * math.inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step fails too
                raise StepSizeTooSmall(f"step size fell below 10 ulp at t = {t!r}", t=t)
            t_new = t + h_abs * sign
            if sign * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            for k, v in zip(K, f):
                k[0] = v
            for s in range(1, N_STAGES):
                a = A[s]
                ys = [v + sum(map(mul, a, k)) * h for v, k in zip(y, K)]
                for k, v in zip(K, fun(t + C[s] * h, ys)):
                    k[s] = v
            y_new = [v + h * sum(map(mul, B, k)) for v, k in zip(y, K)]
            f_new = fun(t + h, y_new)
            e5 = e3 = 0.0
            for v, vn, k, fn in zip(y, y_new, K, f_new):
                k[N_STAGES] = fn
                scale = atol + max(abs(v), abs(vn)) * rtol
                x5 = sum(map(mul, E5, k)) / scale
                x3 = sum(map(mul, E3, k)) / scale
                e5 += x5 * x5
                e3 += x3 * x3
            if e5 == 0.0 and e3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(
                    MAX_FACTOR, SAFETY * error_norm**EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**EXPONENT)
            rejected = True

        if dense:
            rows.append(_dense_row(fun, K, t, h, y, y_new, f, f_new))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        if sign * (t - t_bound) >= 0:
            return Solution(t, y, ts, rows)
