"""The DOP853 stepper of the ODE oracle (`solver.oracle_blocks`).

At rtol = atol = tol it takes the steps solve_ivp(method="DOP853")
takes, and makes as many evaluations of the right-hand side, with no
scipy. `solver.oracle_blocks` imports this module on its first call, so
a process that never runs the oracle (`classify`, `solve`) never
compiles it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import StepSizeUnderflowError


# The Dormand-Prince 8(5,3) pair DOP853 (Hairer, Norsett and Wanner,
# *Solving ODEs I*, sections II.5 and II.10), with the coefficients of
# scipy.integrate's DOP853 (scipy/integrate/_ivp/dop853_coefficients.py):
# the nodes C of the twelve stages, of the derivative at the step's end
# and of the three stages the dense output adds; row s - 1 of A weights
# stages 0..s-1 for stage s, and the row of stage 12 holds the
# eighth-order weights B; E5 weights the thirteen stages for the
# fifth-order error estimate, and B less BHH (at stages 0, 8 and 11) for
# the third-order one; D gives the last four coefficients of the
# seventh-order dense output. Kept as literals and made arrays on first
# use (`_dop853_tables`), so that a run without the oracle builds none.
_DOP853_C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0, 0.1,
    0.2, 0.777777777777777777777777777778,
)
_DOP853_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227,
     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0,
     2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
     -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0,
     2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
     -5.49237485713909884646569340306e-2, 0.0, 0.0, -1.08347328697249322858509316994e-4,
     3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
     1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0, -4.69762141536116384314449447206,
     7.68342119606259904184240953878, 4.06898981839711007970213554331,
     3.56727187455281109270669543021e-1, 0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3,
     2.9475147891527723389556272149, -9.15095847217987001081870187138),
)
_DOP853_E5 = (
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0.0,
)
_DOP853_BHH = (
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
)
_DOP853_D = (
    (-0.84289382761090128651353491142e+1, 0.0, 0.0, 0.0, 0.0, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.0, 0.0, 0.0, 0.0,
     0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, 0.0, 0.0, 0.0, 0.0,
     -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, 0.0, 0.0, 0.0, 0.0,
     -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3),
)
# Step-size control: a new step is SAFETY * err^(-1/8) times the last,
# within [MIN_FACTOR, MAX_FACTOR], and never larger after a rejection.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10


@functools.cache
def _dop853_tables():
    """(C, A, E5, E3, D) as arrays, A as a 16 x 16 lower triangle. The
    weights are complex, as the stages are: np.dot would cast them on
    every call, to the same values."""
    a = np.zeros((16, 16))
    for s, row in enumerate(_DOP853_A, start=1):
        a[s, :s] = row
    e3 = np.append(a[12, :12], 0.0)
    e3[[0, 8, 11]] -= _DOP853_BHH
    return (np.array(_DOP853_C),
            *(np.asarray(w, dtype=complex) for w in (a, _DOP853_E5, e3, _DOP853_D)))


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853(generator, y, grid, blocks, tol):
    """The states y(t) on the grid, for y' = L(t) y with y(0) = y, where
    generator(times) returns (i, y) -> L(times[i]) y: one (points, y.size)
    array for each slice of `blocks`, consecutive slices that cover the
    grid, yielded once the steps have passed its last point. DOP853 steps
    with an error per step of at most `tol` (relative and absolute,
    RMS over the components), the first step chosen as in Hairer, Norsett
    and Wanner, *Solving ODEs I*, section II.4, and the grid points up to
    each step's end taken from its dense output, grid[0] too, one slice at
    a time; each point's state does not depend on the slice it falls in.
    The steps, their error norm and the dense output are those of
    solve_ivp(method="DOP853") at rtol = atol = tol."""
    c, a, e5, e3, d = _dop853_tables()
    t, t_end = 0.0, grid[-1]
    f = generator(np.zeros(1))(0, y)
    if t_end == 0.0:  # a grid of t = 0 alone takes no step
        yield y[None].copy()
        return
    h_abs = _initial_step(generator, y, f, t_end, tol)
    stages = np.empty((16, y.size), dtype=complex)
    blocks = iter(blocks)
    rows = next(blocks)
    out = np.empty((rows.stop - rows.start, y.size), dtype=complex)
    emitted = 0
    while t < t_end:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflowError(
                    f"ODE oracle step size fell below ten times the float spacing "
                    f"at t={t:g} of {t_end:g}")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            rhs = generator(t + c * h)
            stages[0] = f
            for s in range(1, 12):
                stages[s] = rhs(s, y + np.dot(stages[:s].T, a[s, :s]) * h)
            y_new = y + h * np.dot(stages[:12].T, a[12, :12])
            f_new = stages[12] = rhs(12, y_new)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            error = _error_norm(stages[:13], e5, e3, h, scale)
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(_MAX_FACTOR,
                                                            _SAFETY * error ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** -0.125)
            rejected = True
        end = np.searchsorted(grid, t_new, side="right")
        if end > emitted:
            for s in range(13, 16):
                stages[s] = rhs(s, y + np.dot(stages[:s].T, a[s, :s]) * h)
            delta = y_new - y
            coefficients = (delta, h * f - delta, 2 * delta - h * (f_new + f),
                            *(h * np.dot(d, stages)))
            while emitted < end:
                stop = min(end, rows.stop)
                x = ((grid[emitted:stop] - t) / h)[:, None]
                dense = np.zeros((stop - emitted, y.size), dtype=complex)
                for i, term in enumerate(reversed(coefficients)):
                    dense += term
                    dense *= x if i % 2 == 0 else 1 - x
                out[emitted - rows.start:stop - rows.start] = dense + y
                emitted = stop
                if stop == rows.stop:
                    yield out
                    if stop < grid.size:
                        rows = next(blocks)
                        out = np.empty((rows.stop - rows.start, y.size), dtype=complex)
        t, y, f = t_new, y_new, f_new


def _error_norm(stages, e5, e3, h, scale):
    """DOP853's error norm: the fifth-order estimate, damped where the
    third-order one is much smaller (Hairer, Norsett and Wanner, section
    II.10)."""
    err5 = np.linalg.norm(np.dot(stages.T, e5) / scale) ** 2
    err3 = np.linalg.norm(np.dot(stages.T, e3) / scale) ** 2
    if err5 == 0 and err3 == 0:
        return 0.0
    return abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * scale.size)


def _initial_step(generator, y, f, t_end, tol):
    """The first step size at tolerance `tol` (Hairer, Norsett and Wanner,
    section II.4): one extra evaluation of the right-hand side, at the end
    of a trial Euler step."""
    scale = tol + np.abs(y) * tol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    d2 = _rms((generator(np.array([h0]))(0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_end)
