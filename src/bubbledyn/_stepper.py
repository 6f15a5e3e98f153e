"""Adaptive Dormand-Prince 5(4) integration with dense output and terminal
events (Dormand & Prince, J. Comput. Appl. Math. 6, 1980; Hairer, Norsett &
Wanner, Solving ODEs I, sec. II.4-II.6).

It follows ``scipy.integrate.solve_ivp(method="RK45", dense_output=True)``
operation for operation: the same tableau and Shampine's dense-output
matrix, the same stage order, the same controller (RMS error norm, safety
0.9, step factors 0.2-10, no growth right after a rejection, a NaN error
norm shrinks the step by 0.2) and the same interpolant choice at step
boundaries.  A run takes the same steps, makes the same RHS calls and
interpolates the same values to the last bit, without loading
scipy.integrate.  Events are found by bisection on the dense output, so
a terminal event's time may differ from scipy's in its last bits.  It
integrates forward in time, and every event is terminal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
ERROR_EXPONENT = -1 / 5          # -1 / (order of the error estimator + 1)
ROOT_TOL = 4 * EPS               # absolute and relative, of an event's time

C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
# quartic dense output with Shampine's optimal c_6 (Math. Comp. 46, 1986)
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
            1: "A termination event occurred.",
            -1: TOO_SMALL_STEP}


class DenseStep:
    """The interpolant of one accepted step, y_old + h Q (x, x^2, x^3, x^4)
    with x = (t - t_old) / h."""

    def __init__(self, t_old, t, y_old, K):
        self.t_old, self.h, self.y_old = t_old, t - t_old, y_old
        self.Q = K.T.dot(P)

    def __call__(self, t):
        x = (np.asarray(t) - self.t_old) / self.h
        y = self.h * np.dot(self.Q, np.cumprod(np.tile(x, 4)))
        y += self.y_old
        return y


class DenseSolution:
    """The accepted steps' interpolants; a time on a step boundary reads the
    earlier step, and times outside [t0, t_final] the nearest step."""

    def __init__(self, ts, steps):
        self.ts, self.steps = np.asarray(ts), steps

    def __call__(self, t):
        k = np.searchsorted(self.ts, t, side="left")
        return self.steps[min(max(k - 1, 0), len(self.steps) - 1)](t)


@dataclass(frozen=True)
class OdeResult:
    t: np.ndarray          # accepted step ends, from t0; a terminal event's root last
    sol: DenseSolution
    status: int            # 0 reached t_end, 1 terminal event, -1 step size underflow
    message: str
    t_events: list         # per event, an array of its root (empty if it did not fire)
    n_rejected: int        # rejected trial steps


def _rk_step(fun, t, y, f, h, K):
    """One Dormand-Prince trial step of size h: the fifth-order solution and
    its derivative, with the seven stages left in K."""
    K[0] = f
    for s, (a, c) in enumerate(zip(A[1:], C[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _bisect(f, a, b):
    """A root of ``f`` between a < b, where it changes sign, to within
    ROOT_TOL (1 + |root|): an end where f is zero, or a halved bracket's midpoint."""
    fa = f(a)
    if fa == 0:
        return a
    if f(b) == 0:
        return b
    while True:
        m = a + (b - a) / 2
        if b - a <= ROOT_TOL * (1 + abs(m)):
            return m
        fm = f(m)
        if np.signbit(fm) == np.signbit(fa):
            a, fa = m, fm
        else:
            b = m


def solve_ivp(fun, t_span, y0, rtol, atol, first_step, events=()):
    """Integrate y' = fun(t, y) over t_span = (t0, t_end), t_end > t0, from
    the first trial step ``first_step``, stopping at the first root of any
    of ``events`` (each an ``event(t, y)`` whose sign change ends the run).
    Returns an OdeResult with the dense solution over the accepted steps."""
    t, t_end = map(float, t_span)
    y = np.asarray(y0).astype(float, copy=False)
    if not t_end > t:
        raise ValueError("the stepper integrates forward: t_span must increase")
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("`y0` must be a finite 1-dimensional array")
    if not 0 < first_step <= t_end - t:
        raise ValueError("`first_step` must be positive and within t_span")
    if np.any(rtol < 100 * EPS):
        warnings.warn(f"`rtol` below {100 * EPS}: raised to it", stacklevel=2)
        rtol = np.maximum(rtol, 100 * EPS)
    atol = np.asarray(atol)

    def rhs(t, y):
        return np.asarray(fun(t, y), dtype=float)

    f = rhs(t, y)
    g = [event(t, y) for event in events]
    K = np.empty((len(C) + 1, y.size))
    h_abs, n_rejected = first_step, 0
    ts, steps, t_events = [t], [], [[] for _ in events]
    status = None
    while status is None:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(rhs, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            x = np.dot(K.T, E) * h / scale
            error_norm = np.linalg.norm(x) / x.size ** 0.5
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            # max() keeps 0.2 for a NaN error norm (a poisoned stage)
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
            n_rejected += 1
        else:
            status = -1
            break
        step = DenseStep(t, t_new, y, K)
        t_old, t, y, f = t, t_new, y_new, f_new
        if t >= t_end:
            status = 0
        if events:
            g_new = [event(t, y) for event in events]
            active = [i for i, (a, b) in enumerate(zip(g, g_new))
                      if a <= 0 <= b or a >= 0 >= b]
            if active:
                roots = [_bisect(lambda s: events[i](s, step(s)), t_old, t) for i in active]
                first = min(range(len(active)), key=roots.__getitem__)
                t = roots[first]
                t_events[active[first]].append(t)
                status = 1
            g = g_new
        if not (len(ts) > 1 and ts[-1] == t):
            ts.append(t)
            steps.append(step)
    return OdeResult(np.array(ts), DenseSolution(ts, steps), status, MESSAGES[status],
                     [np.asarray(te) for te in t_events], n_rejected)
