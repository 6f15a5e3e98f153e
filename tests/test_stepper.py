"""The solver's own Dormand-Prince 5(4) stepper against scipy's RK45, its
oracle: the same steps, RHS calls, rejections, dense output and event
times, on the closed-form single-bubble model over one Minnaert period."""

import numpy as np
import pytest

from bubbledyn._stepper import TOO_SMALL_STEP, _bisect, solve_ivp
from bubbledyn.gas import BubbleGasState, GasLaw
from bubbledyn.reference import SingleBubbleState, closed_form_rhs, minnaert_frequency

GAS = BubbleGasState(mass=4 * np.pi / 3, law=GasLaw(K=1.0, gamma=1.4))  # r_eq = 1
PERIOD = 2 * np.pi / minnaert_frequency(GAS, 1.0, 1.0, 1.0)
Y0 = SingleBubbleState(c=[0.1, -0.2, 0.3], c_dot=[0.2, 0.05, -0.1],
                       r=1.3, r_dot=0.1).pack()
TOL = {"rtol": 1e-7, "atol": 1e-9, "first_step": 1e-3 * PERIOD}
EPS = np.finfo(float).eps


def bubble(t, y):
    s = SingleBubbleState.unpack(y)
    r_dd, c_dd = closed_form_rhs(s, GAS, 1.0, 1.0, 0.05)
    return np.concatenate([s.c_dot, [s.r_dot], c_dd, [r_dd]])


def counted(fun, poisoned=()):
    """``fun`` with a call counter; the calls numbered in ``poisoned``
    (from 1) return NaN, as the solver's RHS does for an invalid stage."""
    calls = [0]

    def wrapped(t, y):
        calls[0] += 1
        return np.full(len(y), np.nan) if calls[0] in poisoned else fun(t, y)
    return wrapped, calls


def both(t_end, poisoned=(), events=()):
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    ours, n_ours = counted(bubble, poisoned)
    theirs, n_theirs = counted(bubble, poisoned)
    a = solve_ivp(ours, (0.0, t_end), Y0, events=events, **TOL)
    b = scipy_solve_ivp(theirs, (0.0, t_end), Y0, method="RK45", dense_output=True,
                        events=events or None, **TOL)
    assert n_ours[0] == n_theirs[0]
    assert n_ours[0] == 1 + 6 * (len(a.t) - 1 + a.n_rejected)
    return a, b


def assert_same_dense_output(a, b):
    off_grid = np.concatenate([a.t[:1], a.t[-1] * np.sqrt(np.linspace(0.013, 1.0, 37)),
                               a.t[1:]])
    for t in off_grid:
        assert np.array_equal(a.sol(t), b.sol(t)), t


def test_same_steps_and_dense_output_as_scipy_rk45():
    a, b = both(PERIOD)
    assert (a.status, a.message) == (b.status, b.message) == (
        0, "The solver successfully reached the end of the integration interval.")
    assert len(a.t) > 10
    assert np.array_equal(a.t, b.t)
    assert_same_dense_output(a, b)


def test_nan_stages_are_rejected_like_scipy_rk45():
    # a NaN stage gives a NaN error norm: the trial is rejected and the step
    # shrinks by 0.2; the next trial after it may not grow the step
    a, b = both(PERIOD, poisoned={4, 15, 16, 40, 47, 48, 49})
    assert a.status == b.status == 0
    assert a.n_rejected >= 4
    assert np.array_equal(a.t, b.t)
    assert_same_dense_output(a, b)


def test_step_size_underflow_fails_like_scipy_rk45():
    a, b = both(PERIOD, poisoned=set(range(20, 10_000)))
    assert (a.status, a.message) == (b.status, b.message) == (-1, TOO_SMALL_STEP)
    assert np.array_equal(a.t, b.t)


def test_terminal_event_time_matches_brentq():
    def shrunk(t, y):                     # r falls through 1.1 in the first half period
        return y[3] - 1.1

    def never(t, y):
        return 1.0

    for event in (shrunk, never):
        event.terminal = True
    a, b = both(PERIOD, events=[never, shrunk])
    assert (a.status, a.message) == (b.status, b.message) == (1, "A termination event occurred.")
    assert len(a.t_events[0]) == len(b.t_events[0]) == 0
    assert len(a.t_events[1]) == len(b.t_events[1]) == 1
    t_hit = b.t_events[1][0]
    assert 0 < t_hit < 0.5 * PERIOD
    assert a.t_events[1][0] == pytest.approx(t_hit, rel=1e-12, abs=0)
    assert a.t[-1] == a.t_events[1][0]
    assert np.array_equal(a.t[:-1], b.t[:-1])
    assert abs(shrunk(a.t[-1], a.sol(a.t[-1]))) < 1e-12


def test_bisection_roots_match_brentq():
    from scipy.optimize import brentq
    for f, lo, hi in ((lambda x: np.cos(x) - x, 0.0, 1.0),
                      (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
                      (lambda x: np.exp(x) - 1e-3, -10.0, 0.0),
                      (lambda x: np.tanh(20 * (x - 0.3)), 0.0, 1.0)):
        x = _bisect(f, lo, hi)
        assert abs(x - brentq(f, lo, hi, xtol=4 * EPS, rtol=4 * EPS)) <= 4 * EPS * (1 + abs(x))


def test_bisection_converges_on_a_triple_root():
    # Brent's method (and scipy's brentq) do not converge here in 100 iterations
    x = _bisect(lambda x: (x - 0.3) ** 3, 0.0, 1.0)
    assert abs(x - 0.3) <= 4 * EPS * (1 + 0.3)
    assert _bisect(lambda x: x - 0.25, 0.0, 0.25) == 0.25     # an exact zero at an end


def test_triple_root_event_stops_where_the_simple_root_does():
    def simple(t, y):
        return y[3] - 1.1

    def cubed(t, y):
        return (y[3] - 1.1) ** 3

    stops = []
    for event in (simple, cubed):
        res = solve_ivp(bubble, (0.0, PERIOD), Y0, events=[event], **TOL)
        assert res.status == 1 and len(res.t_events[0]) == 1
        stops.append(res.t[-1])
    assert 0 < stops[0] < 0.5 * PERIOD
    assert stops[1] == stops[0]
